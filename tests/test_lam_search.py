"""The (B) and (BB) searches over the trial scale lam: their exact slope
and curvature against 30-digit differentiation, their lower bounds
against the Brent reference search, and best_lower across the BB switch."""

import math

import pytest

from oracles.brent import maximize_1d
from sobomul import bounds as B
from sobomul import specfun
from sobomul.kernels import BoundQuery

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
mp = pytest.importorskip("mpmath")

SEARCH_SETTINGS = hypothesis.settings(max_examples=25, deadline=None, derandomize=True,
                                      database=None)


def _mp_trial_norm_log(q, x):
    """log of the trial norm at lam = e^x on mp.hyp2f1, its Gamma constant
    taken from the package."""
    nn, half = mp.mpf(q.n), mp.mpf(q.d) / 2
    f = mp.hyp2f1(-nn, half, nn, 1 - mp.exp(2 * x))
    return B._bessel_constants(q.n, q.d).log_norm - q.d * x + mp.log(f)


def _mp_minorant_quotient(q):
    nn, half = mp.mpf(q.n), mp.mpf(q.d) / 2
    _co, (w1, w2, w3), log_pref = B._bessel_constants(q.n, q.d).minorant

    def quotient(x):
        w = 1 - 4 * mp.exp(2 * x)
        bracket = (w1 * mp.hyp2f1(-nn, half, nn, w)
                   - w2 * mp.hyp2f1(-nn, half, 2 * nn - half, w)
                   + w3 * mp.hyp2f1(-nn, half, 3 * nn - 2 * half, w) / 3)
        return (log_pref - q.d * x + mp.log(bracket)) / 2 - _mp_trial_norm_log(q, x)

    return quotient


def _mp_bessel_quotient(q, nodes):
    """The (B) search's quotient with the squared-kernel integral on the
    same h-rule nodes, summed at 30 digits."""
    nn = mp.mpf(q.n)
    xs, bases = ([mp.mpf(float(v)) for v in a] for a in nodes)
    log_sq = B._bessel_constants(q.n, q.d).log_sq_norm

    def quotient(x):
        z = mp.log(4) + 2 * x
        ys = [b + nn * mp.log1p(mp.exp(z + xi)) for xi, b in zip(xs, bases)]
        top = max(ys)
        log_int = top + mp.log(B._SQ_STEP * mp.fsum(mp.exp(y - top) for y in ys))
        return (log_sq - q.d * x + log_int) / 2 - _mp_trial_norm_log(q, x)

    return quotient


@pytest.mark.parametrize("lam", [0.3, 1.0, 1.42, 5.0])
def test_lam_search_derivatives_against_mp_hyp2f1(lam):
    # value, slope and curvature in x = log lam of both searches'
    # objectives against 30-digit mp.diffs of the same quotient built on
    # mp.hyp2f1: (BB) at three gaps down to 1e-12, (B) at an integer n, a
    # half-integer gap and an odd d.  1e-8 relative, or 1e-12 absolute
    # where a derivative is below 1e-4: near d/2 the slope and curvature
    # shrink with the gap, while the O(1) terms they are the sum of keep
    # a rounding error near 1e-15.  At lam = 0.3 the trial norm's 2F1
    # takes Euler's transformation (w = 0.91).
    cases = [(B._lam_objective(q, lambda lam, q=q: B._log_minorant(q, lam, True)),
              _mp_minorant_quotient(q))
             for q in (BoundQuery(d=1, n=0.5 + 1e-12), BoundQuery(d=2, n=1.0 + 1e-6),
                       BoundQuery(d=5, n=2.5 + 0.05))]
    for d, n in ((2, 3.0), (1, 1.5), (7, 4.5)):
        q = BoundQuery(d=d, n=n)
        nodes = B._sq_norm_nodes(q)[0]
        cases.append((B._lam_objective(q, B._log_sq_norm_rule(q, nodes)),
                      _mp_bessel_quotient(q, nodes)))
    with mp.workdps(30):
        for objective, quotient in cases:
            got = objective(lam)
            for value, want in zip(got, mp.diffs(quotient, mp.log(mp.mpf(lam)), 2)):
                assert abs(value - want) <= 1e-8 * max(abs(want), 1e-4), (lam, got)


def _brent_bb(q):
    """K^BB by the Brent search that the Newton search replaced."""
    def log_quotient(x):
        lam = math.exp(x)
        return (0.5 * math.log(B.squared_trial_minorant(q, lam))
                - math.log(B.bessel_trial_norm_sq(q, lam, validate=False)))

    res = maximize_1d(log_quotient, B._LAM_LO, B._LAM_HI, math.log(1.42), tol_x=1e-9)
    return math.exp(res.max_value)


def _brent_b(q):
    """K^B by the Brent search that the Newton search replaced: on the h
    rule, then the h/2 rule at its argmax."""
    nodes = B._sq_norm_nodes(q)

    def log_quotient(x):
        lam = math.exp(x)
        return (0.5 * (B._log_sq_norm_prefactor(q, lam) + B._log_sq_norm_sum(q, nodes[0], lam))
                - math.log(B.bessel_trial_norm_sq(q, lam, validate=False)))

    res = maximize_1d(log_quotient, B._LAM_LO, B._LAM_HI, math.log(1.4), tol_x=1e-7)
    lam = math.exp(res.argmax[0])
    log_int = B._log_sq_norm_refined(q, nodes, lam, B.LOWER_TOL)[0]
    return math.exp(0.5 * (B._log_sq_norm_prefactor(q, lam) + log_int)
                    - math.log(B.bessel_trial_norm_sq(q, lam, validate=False)))


def _check_against_brent(res, q, want):
    assert res.diagnostics["converged"]
    assert math.isfinite(res.value) and res.value < B.k_plus(q).value
    assert abs(res.value - want) <= 1e-13 * want, (q, res.value, want)


@SEARCH_SETTINGS
@hypothesis.given(d=st.integers(1, 10), log_gap=st.floats(-12.0, -1.0))
def test_minorant_search_matches_brent(d, log_gap):
    q = BoundQuery(d=d, n=d / 2.0 + 10.0 ** log_gap)
    _check_against_brent(B.k_bessel_minorant(q), q, _brent_bb(q))


@SEARCH_SETTINGS
@hypothesis.given(d=st.integers(1, 10), frac=st.floats(0.0, 1.0))
def test_bessel_search_matches_brent(d, frac):
    q = BoundQuery(d=d, n=d / 2.0 + 0.1 + frac * (50.0 - d / 2.0 - 0.1))
    _check_against_brent(B.k_bessel(q), q, _brent_b(q))


@pytest.mark.parametrize("d", range(1, 11))
def test_best_lower_across_the_bb_switch(d):
    # each route is continuous up to the switch at gap 0.1, so best_lower
    # steps there by exactly the minorant's loss against (B) at the same
    # gap, upward: 0.3% for d <= 6, 7-8% for d >= 7, where the minorant
    # takes its small-q form
    below = [B.best_lower(BoundQuery(d=d, n=d / 2.0 + 0.1 - h)) for h in (1e-7, 0.0)]
    above = [B.best_lower(BoundQuery(d=d, n=d / 2.0 + 0.1 + h)) for h in (1e-7, 2e-7)]
    assert [r.tag for r in below + above] == ["(BB)"] * 2 + ["(B)"] * 2
    for pair in (below, above):
        assert abs(pair[1].value / pair[0].value - 1.0) <= 1e-5
    loss = B.k_bessel(BoundQuery(d=d, n=d / 2.0 + 0.1)).value / below[1].value
    assert loss > 1.0
    assert abs(above[0].value / below[1].value / loss - 1.0) <= 1e-5


def test_lam_search_rejects_trial_points_where_the_series_fails():
    # The 2F1 series behind the quotient pass their term cap from lam of
    # about 31.  A trial point there is rejected like a non-finite one: the
    # first step, a full trust radius uphill from positive curvature,
    # lands past the cap and the search still reaches the interior
    # maximum.  A failing series at lam0 itself is raised.
    x0 = math.log(1.42)
    x_star, x_cap = x0 + 0.9, x0 + 0.95
    tried = []

    def objective(lam):
        x = math.log(lam)
        tried.append(x)
        if x > x_cap:
            raise specfun.SeriesError("2F1 series did not converge")
        e = math.exp(-(x - x_star) ** 2)
        return e, -2.0 * (x - x_star) * e, (4.0 * (x - x_star) ** 2 - 2.0) * e

    res = B._search_log_lam(objective, 1.42)
    assert tried[1] > x_cap
    assert res.converged
    assert abs(res.argmax[0] - x_star) < 1e-6
    with pytest.raises(specfun.SeriesError):
        B._search_log_lam(objective, math.exp(x_cap + 0.1))

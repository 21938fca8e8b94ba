"""log Gamma / 2F1 unit tests against identities and slow oracles."""

import math

import numpy as np
import pytest

from oracles import hyp2f1 as H
from oracles.series_loop import series_loop
from sobomul import specfun as sf

SQRT_PI = math.sqrt(math.pi)


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


# ----------------------------------------------------------------------
# log_gamma
# ----------------------------------------------------------------------

def test_gamma_special_values():
    assert abs(sf.log_gamma(0.5) - math.log(SQRT_PI)) < 1e-14
    assert abs(sf.log_gamma(1.0)) < 1e-14
    assert rel_err(sf.log_gamma(6.0), math.log(120.0)) < 1e-14


def test_gamma_shift_formula():
    # log Gamma(x + 1) = log Gamma(x) + log x, across the reflection branch
    rng = np.random.default_rng(11)
    for _ in range(300):
        x = float(np.exp(rng.uniform(np.log(1e-4), np.log(169.0))))
        assert abs(sf.log_gamma(x + 1.0) - sf.log_gamma(x) - math.log(x)) < 1e-12


def test_gamma_duplication_formula():
    # |G(2w) - 2^(2w-1) pi^(-1/2) G(w+1/2) G(w)| / G(2w) <= 1e-11 on (0, 50]
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        w = float(rng.uniform(1e-3, 50.0))
        lhs = sf.log_gamma(2.0 * w)
        rhs = ((2.0 * w - 1.0) * math.log(2.0) - 0.5 * math.log(math.pi)
               + sf.log_gamma(w + 0.5) + sf.log_gamma(w))
        worst = max(worst, abs(math.expm1(rhs - lhs)))
    assert worst <= 1e-11


def test_gamma_negative_arguments_via_reflection():
    # Gamma(-5/2) = -8 sqrt(pi) / 15 and Gamma(-7/2) = 16 sqrt(pi) / 105
    val, sign = sf.log_gamma_signed(-2.5)
    assert sign == -1.0 and rel_err(-math.exp(val), -8.0 * SQRT_PI / 15.0) < 1e-13
    val, sign = sf.log_gamma_signed(-3.5)
    assert sign == 1.0 and rel_err(math.exp(val), 16.0 * SQRT_PI / 105.0) < 1e-13


def test_gamma_vs_lgamma_oracle():
    # math.lgamma is an independent C implementation
    rng = np.random.default_rng(3)
    for _ in range(500):
        x = float(np.exp(rng.uniform(np.log(1e-4), np.log(500.0))))
        assert abs(sf.log_gamma(x) - math.lgamma(x)) <= 1e-12 * max(1.0, abs(math.lgamma(x)))


def test_log_gamma_poles():
    for x in (0.0, -0.5, -3.0):
        with pytest.raises(sf.GammaPoleError):
            sf.log_gamma(x)
    for x in (0.0, -1.0, -3.0):
        with pytest.raises(sf.GammaPoleError):
            sf.log_gamma_signed(x)
    assert sf.log_gamma(500.0) == pytest.approx(math.lgamma(500.0), rel=1e-14)


def test_log_gamma_signed():
    val, sign = sf.log_gamma_signed(-1.5)
    assert sign == 1.0 and rel_err(math.exp(val), 4.0 * SQRT_PI / 3.0) < 1e-12
    val, sign = sf.log_gamma_signed(-0.5)
    assert sign == -1.0 and rel_err(-math.exp(val), -2.0 * SQRT_PI) < 1e-12


# ----------------------------------------------------------------------
# hyp2f1
# ----------------------------------------------------------------------

def series_oracle(a, b, c, w, terms=200_000):
    """Brute-force power-series summation with Euler pair-averaging, usable
    also on the slowly converging boundary |w| = 1."""
    partial = np.empty(terms + 1)
    term = 1.0
    total = 1.0
    partial[0] = total
    for ell in range(terms):
        term *= (a + ell) * (b + ell) / ((c + ell) * (ell + 1.0)) * w
        total += term
        partial[ell + 1] = total
        if abs(term) < 1e-17 * abs(total) and ell > 4:
            return total
    tail = partial[-4000:]
    for _ in range(6):  # averaging accelerates the alternating boundary case
        tail = 0.5 * (tail[1:] + tail[:-1])
    return float(tail[-1])


def test_hyp2f1_degenerate_b_equals_c():
    # F(a, b, b; w) = (1-w)^(-a): the general oracle's closed form
    assert rel_err(H.hyp2f1(2.0, 1.5, 1.5, -3.0), 1.0 / 16.0) < 1e-13


def test_hyp2f1_at_zero():
    assert sf.hyp2f1(0.7, 2.2, 3.3, 0.0) == 1.0


def test_hyp2f1_log2():
    # F(1, 1, 2; -1) = log 2; oracle: averaged brute-force series
    got = sf.hyp2f1(1.0, 1.0, 2.0, -1.0)
    assert rel_err(got, math.log(2.0)) < 1e-12
    assert rel_err(series_oracle(1.0, 1.0, 2.0, -1.0, terms=60_000), got) < 1e-10


@pytest.mark.parametrize("abcw", [
    (0.3, 0.7, 2.2, 0.5),
    (-2.5, 1.0, 2.5, -6.84),  # the trial norm's F(-n, d/2; n; 1 - lam^2), d = 2
    (1.2, 0.4, 5.0, 0.95),
    (5.0, 1.0, 5.5, -40.0),
    (-120.75, 0.5, 120.75, 0.34),  # the same at d = 1, n = 120.75
    (-2.5, 1.0, 6.0, 0.99),
])
def test_hyp2f1_vs_series_oracle(abcw):
    a, b, c, w = abcw
    got = sf.hyp2f1(a, b, c, w)
    if -1.0 < w < 1.0 and abs(w) < 0.96:
        want = series_oracle(a, b, c, w)
        assert rel_err(got, want) < 1e-10
    # the regime contract regardless of oracle coverage
    assert math.isfinite(got)


def test_hyp2f1_terminating():
    # F(-m, b, c; w) is a polynomial; compare with explicit evaluation
    b, m, c, w = 2.5, 3, 4.4, 0.8
    def rising(x, k):
        return math.prod(x + i for i in range(k))

    want = sum(rising(b, k) * rising(-m, k)
               / (rising(c, k) * math.factorial(k)) * w ** k
               for k in range(m + 1))
    assert rel_err(sf.hyp2f1(-float(m), b, c, w), want) < 1e-13
    # the oracle puts the terminating parameter second, and sums the same
    assert H.hyp2f1(b, -float(m), c, w) == sf.hyp2f1(-float(m), b, c, w)


def test_hyp2f1_gauss_point():
    got = H.hyp2f1(0.5, 0.25, 3.0, 1.0)
    want = math.exp(sf.log_gamma(3.0) + sf.log_gamma(2.25)
                    - sf.log_gamma(2.5) - sf.log_gamma(2.75))
    assert rel_err(got, want) < 1e-12


def _value_or_error(*args):
    try:
        return H.hyp2f1(*args)
    except sf.HypergeometricError as exc:
        return type(exc)


def test_hyp2f1_symmetry_in_ab():
    # the general oracle: each swapped pair gives equal values, or raises
    # the same error where 0.7 < w < 1 has no positive Euler terms
    rng = np.random.default_rng(23)
    raised = 0
    for _ in range(100):
        a, b = rng.uniform(0.1, 5.0, 2)
        c = float(rng.uniform(min(a, b) + 0.1, 7.0))
        w = float(rng.uniform(-5.0, 0.99))
        got, swapped = _value_or_error(a, b, c, w), _value_or_error(b, a, c, w)
        if isinstance(got, type):
            assert got is swapped is H.UnsupportedRegimeError, (a, b, c, w)
            raised += 1
        else:
            assert rel_err(got, swapped) <= 1e-13
    assert 0 < raised < 100


def test_hyp2f1_kummer_consistency():
    # F(a,b,c;w) = (1-w)^(-b) F(b, c-a, c; w/(w-1)), 100 in-regime draws
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(100):
        b = float(rng.uniform(0.1, 3.0))
        a = float(rng.uniform(0.1, 3.0))
        c = float(rng.uniform(max(a, b) + 0.2, 7.0))
        w = float(rng.uniform(-4.0, 0.6))
        lhs = sf.hyp2f1(a, b, c, w)
        rhs = (1.0 - w) ** (-b) * sf.hyp2f1(b, c - a, c, w / (w - 1.0))
        worst = max(worst, rel_err(lhs, rhs))
    assert worst <= 1e-10


def test_hyp2f1_euler_consistency():
    # F(a,b,c;w) = (1-w)^(c-a-b) F(c-a, c-b, c; w)
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(100):
        a = float(rng.uniform(0.1, 2.5))
        b = float(rng.uniform(0.1, 2.5))
        c = float(rng.uniform(max(a, b) + 0.2, 6.0))
        w = float(rng.uniform(-3.0, 0.6))
        lhs = sf.hyp2f1(a, b, c, w)
        rhs = (1.0 - w) ** (c - a - b) * sf.hyp2f1(c - a, c - b, c, w)
        worst = max(worst, rel_err(lhs, rhs))
    assert worst <= 1e-10


def test_hyp2f1_monotone_in_w():
    # positive derivative for a > 0, c > b > 0
    grid = np.linspace(-5.0, 0.99, 60)
    vals = [sf.hyp2f1(1.3, 0.8, 2.1, float(w)) for w in grid]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))


# Requests outside the contract 0 < b < c, a < c, w < 1: b <= 0, b = c,
# b > c, a = c, a > c, w = 1, w > 1, a pole c, and NaN in each place.
_OUTSIDE = [(1.0, 0.0, 2.0, 0.5), (-2.0, -1.5, 2.0, 0.5), (1.0, 2.0, 2.0, -3.0),
            (1.0, 2.5, 2.0, 0.5), (2.0, 1.5, 2.0, 0.5), (3.0, 2.0, 2.5, -6.84),
            (1.0, 0.5, 3.0, 1.0), (1.0, 0.5, 3.0, 1.5), (1.0, 1.0, -2.0, 0.5)]
_OUTSIDE += [tuple(math.nan if i == j else v for i, v in enumerate((-1.5, 0.5, 1.5, -2.0)))
             for j in range(4)]


def test_hyp2f1_errors():
    # each request outside the contract raises the one defined error, from
    # hyp2f1, hyp2f1_derivatives and HyperEval alike
    for args in _OUTSIDE:
        for fn in (sf.hyp2f1, sf.hyp2f1_derivatives, sf.HyperEval):
            with pytest.raises(sf.HypergeometricError, match="outside the contract") as exc:
                fn(*args)
            assert type(exc.value) is sf.HypergeometricError, (fn, args)
    # its edges are inside: w just below 1, b just inside (0, c), a just below c
    assert sf.HyperEval(-1.5, 0.5, 1.5, math.nextafter(1.0, 0.0)).regime == "euler"
    assert sf.HyperEval(-1.5, 5e-324, 1.5, 0.5).regime == "series"
    assert sf.HyperEval(math.nextafter(1.5, 0.0), 0.5, 1.5, -2.0).regime == "kummer"


def test_oracle_hyp2f1_errors():
    # the general oracle's error classes, all HypergeometricErrors
    with pytest.raises(H.DivergenceError):
        H.hyp2f1(2.0, 2.0, 3.0, 1.0)
    with pytest.raises(sf.GammaPoleError):
        H.hyp2f1(1.0, 1.0, -2.0, 0.5)
    with pytest.raises(H.UnsupportedRegimeError):
        H.hyp2f1(1.0, 1.0, 2.0, 1.5)
    with pytest.raises(H.UnsupportedRegimeError):
        # 0.7 < w < 1 with neither a nor b inside (0, c), and c - a < 0
        H.hyp2f1(1.0, 1.2, 0.5, 0.9)
    # neither a nor b inside (0, c) either, but Euler's transformation
    # has positive terms: 2F1(0.9, 1.7, 0.4; 0.9)
    assert rel_err(H.hyp2f1(-0.5, -1.3, 0.4, 0.9), 2.3780347504802) < 1e-12  # mpmath.hyp2f1
    assert issubclass(H.DivergenceError, sf.HypergeometricError)
    assert issubclass(H.UnsupportedRegimeError, sf.HypergeometricError)


def test_hyp2f1_derivatives_against_mp():
    # F, F' and F'' in w from the contiguous functions, against 30-digit
    # mp.diffs, in the series, Kummer, Euler and terminating regimes
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for a, b, c, w in ((-1.5, 0.5, 1.7, 0.4), (-0.7, 1.5, 2.3, -8.0), (1.2, 0.4, 5.0, 0.95),
                           (-3.0, 2.5, 4.0, -2.0), (-2.05, 1.0, 3.1, 0.99)):
            got = sf.hyp2f1_derivatives(a, b, c, w)
            for value, want in zip(got, mp.diffs(lambda v: mp.hyp2f1(a, b, c, v), w, 2)):
                assert abs(value - want) <= 1e-12 * abs(want), (a, b, c, w, got)


def test_hyp2f1_euler_transformation_near_w_one():
    # 0.7 < w < 1 with c - b down to 1e-12: the (BB) trial norm's and
    # minorant's 2F1 and their contiguous functions at w = 0.91 and 0.99
    # (lam = 0.3 and 0.1 in the trial norm), where the Euler integral's
    # (1-s)^(c-b-1) loses every digit
    mp = pytest.importorskip("mpmath")
    worst = 0.0
    with mp.workdps(30):
        for d, gap in ((1, 1e-12), (2, 1e-6), (5, 0.05), (9, 0.0999)):
            n, b = d / 2.0 + gap, d / 2.0
            for c in (n, 2.0 * n - b, 3.0 * n - d):
                for k in range(3):
                    for w in (0.91, 0.99):
                        args = (-n + k, b + k, c + k, w)
                        assert sf.HyperEval(*args).regime == "euler"
                        want = mp.hyp2f1(*args)
                        worst = max(worst, float(abs(sf.hyp2f1(*args) - want) / want))
    assert worst <= 1e-12, worst


def test_hyper_eval_regimes(monkeypatch):
    # the five paths, in hyp2f1's order: w = 0 first (1 without a sum),
    # then a terminating a, then the direct series, Pfaff's map and
    # Euler's map by w; HyperEval names the one hyp2f1 takes
    assert sf.HyperEval(-2.0, 1.5, 3.0, 0.0).regime == "closed_form"
    assert sf.hyp2f1(-2.0, 1.5, 3.0, 0.0) == 1.0
    for w in (-40.0, -0.3, 0.9):
        assert sf.HyperEval(-2.0, 1.5, 3.0, w).regime == "terminating"
        assert sf.hyp2f1(-2.0, 1.5, 3.0, w) == sf._terminating(1.5, 2, 3.0, w)
    for w, regime in ((0.7, "series"), (-0.7, "series"), (-0.71, "kummer"), (0.71, "euler")):
        assert sf.HyperEval(-2.5, 1.5, 3.0, w).regime == regime, w
        assert sf._regime(-2.5, 1.5, 3.0, w) == regime
    # both read the one regime decision
    calls = []
    inner = sf._regime
    monkeypatch.setattr(sf, "_regime", lambda *args: calls.append(args) or inner(*args))
    sf.hyp2f1(-2.5, 1.5, 3.0, 0.5)
    assert sf.HyperEval(-2.5, 1.5, 3.0, 0.5).regime == "series"
    assert calls == [(-2.5, 1.5, 3.0, 0.5)] * 3


def test_oracle_hyper_eval_regimes():
    # the general oracle: the closed forms that its hyp2f1 takes before any
    # sum name their regime, in its order: w = 0 first, then a terminating
    # parameter, then b = c or a = c, at every w that they serve
    for a, b, c, w in ((1.0, 0.5, 3.0, 0.0), (1.0, -2.0, 3.0, 0.0), (2.0, 1.5, 1.5, -3.0),
                       (1.5, 2.0, 1.5, 0.5), (2.0, 1.5, 1.5, 0.9), (2.0, 1.5, 1.5, -40.0)):
        assert H.HyperEval(a, b, c, w).regime == "closed_form", (a, b, c, w)
        assert H.hyp2f1(a, b, c, w) == (1.0 if w == 0.0 else (1.0 - w) ** -2.0)
    assert H.HyperEval(-2.0, 1.5, 1.5, 0.5).regime == "terminating"
    assert H.HyperEval(1.0, -2.0, 3.0, 0.5).regime == "terminating"
    assert H.HyperEval(1.0, 0.5, 3.0, 0.5).regime == "series"
    assert H.HyperEval(1.0, 0.5, 3.0, -5.0).regime == "kummer"
    assert H.HyperEval(1.0, 0.5, 3.0, 0.9).regime == "euler"
    assert H.HyperEval(1.0, 3.5, 3.0, 0.9).regime == "unsupported"
    with pytest.raises(H.UnsupportedRegimeError):
        H.hyp2f1(1.0, 3.5, 3.0, 0.9)
    assert H.HyperEval(1.0, 0.5, 3.0, 1.0).regime == "gauss_point"


def _family_grid():
    """F(-n + k, d/2 + k; c + k; 1 - t lam^2): d = 1..10, gaps from 1e-12
    (an integer n among them for every d), c in {n, 2n - d/2, 3n - d},
    t in {1, 4}, lam from 0.3 (w = 0.91, Euler's map) to 8 (w = -255), k = 0
    (hyp2f1_derivatives adds the shifts k = 1, 2)."""
    for d in range(1, 11):
        half = d / 2.0
        for gap in (1e-12, 1e-4, 0.0999, 2.0 + 0.5 * (d % 2), 3.3, 47.9 - half):
            n = half + gap
            for c in (n, 2.0 * n - half, 3.0 * n - d):
                for t in (1.0, 4.0):
                    for lam in (0.3, 0.6, 1.45, 4.0, 8.0):
                        yield -n, half, c, 1.0 - t * lam * lam


def test_family_matches_general_oracle_bit_for_bit():
    # on the family the narrowed evaluator takes the oracle's path with the
    # same series arguments: every value, derivative and error is the same
    seen = set()
    for args in _family_grid():
        got = _outcome(lambda *x: sf.hyp2f1_derivatives(*x), *args)
        want = _outcome(lambda *x: H.hyp2f1_derivatives(*x), *args)
        assert got == want, args
        for k in range(3):
            shifted = (args[0] + k, args[1] + k, args[2] + k, args[3])
            regime = sf.HyperEval(*shifted).regime
            assert regime == H.HyperEval(*shifted).regime, shifted
            seen.add(regime)
    assert seen == {"terminating", "series", "kummer", "euler"}


# ----------------------------------------------------------------------
# the block series against the one-term-at-a-time loop
# ----------------------------------------------------------------------

def _outcome(fn, *args):
    """The value's bits (each one's, for a tuple), or the SeriesError's message."""
    try:
        got = fn(*args)
    except sf.SeriesError as exc:
        return str(exc)
    return tuple(v.hex() for v in got) if isinstance(got, tuple) else got.hex()


def _bb_series_arguments(monkeypatch):
    """The (a, b, c, w) of every series that the (BB) quotient sums on a
    lam grid, most of them Kummer images, and the series that raised in
    the minorant, keyed by (d, lam)."""
    from sobomul import bounds as B
    from sobomul.kernels import BoundQuery
    seen = []
    raised = {}
    inner = sf._series

    def recording(a, b, c, w):
        seen.append((a, b, c, w))
        return inner(a, b, c, w)

    with monkeypatch.context() as patch:
        patch.setattr(sf, "_series", recording)
        for d, gap in ((1, 1e-12), (2, 1e-4), (5, 0.05), (10, 0.0999)):
            q = BoundQuery(d=d, n=d / 2.0 + gap)
            for lam in (0.3, 0.9, 1.42, 3.0, 40.0):
                try:
                    B.squared_trial_minorant(q, lam)
                except sf.SeriesError:
                    raised[d, lam] = seen[-1]
                B.bessel_trial_norm_sq(q, lam, validate=False)
    return seen, raised


def test_series_blocks_match_loop_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(37)
    draws = [tuple(float(v) for v in (*rng.uniform(-40.0, 40.0, 2),
                                      rng.uniform(0.1, 40.0), rng.uniform(-0.99, 0.99)))
             for _ in range(400)]
    # w near 1: runs of thousands of terms across block boundaries
    draws += [(float(a), float(b), float(c), float(w)) for a, b, c, w in zip(
        rng.uniform(0.1, 5.0, 40), rng.uniform(0.1, 5.0, 40),
        rng.uniform(0.5, 8.0, 40), rng.uniform(0.95, 0.99, 40))]
    bb, raised = _bb_series_arguments(monkeypatch)
    # Kummer images: w < -0.7 maps to w / (w - 1) > 0.7 / 1.7
    image = sf._SERIES_CUT / (1.0 + sf._SERIES_CUT)
    assert sum(w > image for *_, w in bb) > 20
    # the minorant raises only at lam = 40 for d >= 2, where its Kummer
    # image runs past _MAX_TERMS terms, as the loop's does
    assert sorted(raised) == [(2, 40.0), (5, 40.0), (10, 40.0)]
    for args in raised.values():
        assert args[3] > image
        with pytest.raises(sf.SeriesError, match="did not converge"):
            series_loop(*args)
    lengths = []
    for args in draws + bb:
        assert _outcome(sf._series, *args) == _outcome(lambda *x: series_loop(*x)[0], *args), args
        try:
            lengths.append(series_loop(*args)[1])
        except sf.SeriesError:
            pass
    assert max(lengths) > 3 * sf._SERIES_BLOCK
    assert len(lengths) < len(draws) + len(bb)


def test_series_cancellation_guard_matches_loop():
    # alternating series with large terms: the guard fires on most draws,
    # and exactly where the loop's does
    rng = np.random.default_rng(41)
    raised = 0
    for _ in range(200):
        a, b = (float(v) for v in rng.uniform(5.0, 60.0, 2))
        c = float(rng.uniform(0.5, 4.0))
        w = float(rng.uniform(-0.7, -0.05))
        got = _outcome(sf._series, a, b, c, w)
        assert got == _outcome(lambda *x: series_loop(*x)[0], a, b, c, w), (a, b, c, w)
        raised += "cancellation" in got
    assert 50 < raised < 200


def test_series_term_cap_is_exact(monkeypatch):
    # the loop sums 3,438 terms here; a cap of 3,438 lets the block series
    # converge to the loop's bits, a cap of 3,437 (neither is a multiple of
    # the block size) makes it raise
    args = (1.5, 1.5, 2.0, 0.99)
    want, length = series_loop(*args)
    assert length == 3438 and length % sf._SERIES_BLOCK and (length - 1) % sf._SERIES_BLOCK
    monkeypatch.setattr(sf, "_MAX_TERMS", length)
    assert sf._series(*args) == want
    monkeypatch.setattr(sf, "_MAX_TERMS", length - 1)
    with pytest.raises(sf.SeriesError, match="did not converge"):
        sf._series(*args)
    with pytest.raises(sf.SeriesError, match="did not converge"):
        series_loop(*args)


def test_series_raises_on_overflow():
    # a partial sum past the double range raises SeriesError (which a lam
    # search takes as a rejected point) instead of a numpy overflow warning:
    # a trial point of the (B) search at (n, d) = (600.3, 1)
    with pytest.raises(sf.SeriesError, match="overflows"):
        sf._series(0.5, 1200.6, 600.3, 0.930951386103769)


def test_hyp2f1_raises_series_error(monkeypatch):
    # a series that hits the term cap, a Kummer image that hits it, and a
    # series that cancels raise SeriesError, an ArithmeticError: no
    # quadrature stands behind the series
    assert rel_err(sf.hyp2f1(1.5, 0.5, 2.0, 0.6), 1.3817613899647939) < 1e-12  # mpmath.hyp2f1
    assert rel_err(sf.hyp2f1(1.5, 0.5, 2.0, -3.0), 0.5703494499205766) < 1e-12  # mpmath.hyp2f1
    monkeypatch.setattr(sf, "_MAX_TERMS", 37)
    for args, regime in (((1.5, 0.5, 2.0, 0.6), "series"), ((1.5, 0.5, 2.0, -3.0), "kummer")):
        assert sf.HyperEval(*args).regime == regime
        with pytest.raises(sf.SeriesError, match="did not converge"):
            sf.hyp2f1(*args)
    monkeypatch.setattr(sf, "_MAX_TERMS", 200_000)
    # the trial norm's F(-n, d/2; n; 0.7) at d = 10: its terms peak at 10.4
    # and alternate to a sum of 0.056, so a guard of 100 fires and the real
    # one (1e10, which no call of the family comes near) does not
    args = (-25.3, 5.0, 25.3, 0.7)
    assert sf.HyperEval(*args).regime == "series"
    want = sf.hyp2f1(*args)
    assert rel_err(want, 0.05627972820214043) < 1e-12  # mpmath.hyp2f1
    monkeypatch.setattr(sf, "_CANCEL_LIMIT", 100.0)
    with pytest.raises(ArithmeticError, match="cancellation"):
        sf.hyp2f1(*args)


def test_bounds_reach_only_series_regimes(monkeypatch):
    # the premise of a 2F1 without quadrature: best_lower over the table1
    # rows, and (B) and (BB) across their gap ranges, evaluate 2F1 only in
    # the terminating, series and Kummer regimes, with w in [-10, -0.3],
    # and every call keeps the contract 0 < b < c, a < c, w < 1
    from sobomul import bounds as B
    from sobomul.kernels import BoundQuery
    from sobomul.tables import table1_queries
    seen = []
    inner = sf.hyp2f1

    def recording(a, b, c, w):
        assert 0.0 < b < c and a < c and w < 1.0, (a, b, c, w)
        seen.append((sf.HyperEval(a, b, c, w).regime, w))
        return inner(a, b, c, w)

    monkeypatch.setattr(sf, "hyp2f1", recording)
    for d in range(1, 5):
        for q in table1_queries(d):
            B.best_lower(q)
    for d in (1, 5, 10):
        # 0.0101: d/2 + 0.01 rounds to a gap just below (B)'s floor of 0.01
        for gap in (0.0101, 1.0, 49.0):
            B.k_bessel(BoundQuery(d=d, n=d / 2.0 + gap))
        for gap in (1e-12, 0.05, 0.1):
            B.k_bessel_minorant(BoundQuery(d=d, n=d / 2.0 + gap))
    regimes = {regime for regime, _ in seen}
    assert regimes <= {"terminating", "series", "kummer"} and "kummer" in regimes
    assert -10.0 <= min(w for _, w in seen) and max(w for _, w in seen) <= -0.3

"""Bound evaluators: published spot values, two-path norm checks, sandwich
and asymptotic invariants."""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracles.gauss_kronrod import TailSpec, integrate_finite, integrate_semiinf
from oracles.nelder_mead import maximize_2d_simplex
from sobomul import _gaussian_norm as G
from sobomul import bounds as B
from sobomul.kernels import BoundQuery, DomainError
from sobomul.optim import MaxResult


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def q_of(d, n_exact):
    return BoundQuery(d=d, n=float(n_exact), n_exact=Fraction(n_exact))


# ----------------------------------------------------------------------
# upper bound K+
# ----------------------------------------------------------------------

def test_k_plus_spot_values():
    assert abs(B.k_plus(q_of(1, 1)).value - 1.00) <= 0.005
    r22 = B.k_plus(q_of(2, 2))
    assert abs(r22.value - 0.428) <= 0.001
    assert abs(r22.argmax.u - 6.84) <= 0.01
    assert abs(B.k_plus(BoundQuery(d=1, n=0.5 + 1e-4)).value - 56.5) <= 0.1
    r52 = B.k_plus(q_of(2, Fraction(5, 2)))
    assert abs(r52.value - 0.378) <= 0.001
    assert abs(r52.argmax.u - 3.2) <= 1e-6


def test_k_plus_monotone_regime_uses_closed_form():
    # for n <= d/2 + 1/2 the bound equals sqrt(limit) through the same
    # arithmetic path
    from sobomul.kernels import log_upper_curve_limit
    for (d, n) in [(1, 0.75), (2, 1.2), (3, 1.7)]:
        q = BoundQuery(d=d, n=n)
        res = B.k_plus(q)
        assert res.value == math.exp(0.5 * log_upper_curve_limit(q))
        assert math.isinf(res.argmax.u)


def test_k_plus_boundary_limit_just_above_monotone_regime():
    # just past n = d/2 + 1/2 the curve still rises up to the search
    # boundary, where it sits at most 2e-12 (log scale) below its limit:
    # the bracket exit returns the closed-form limit
    from sobomul.kernels import log_upper_curve_limit
    for d in range(1, 11):
        q = BoundQuery(d=d, n=d / 2.0 + 0.500000001)
        res = B.k_plus(q)
        assert res.diagnostics["route"] == "boundary_limit", d
        assert res.value == math.exp(0.5 * log_upper_curve_limit(q))
        assert math.isinf(res.argmax.u)


def test_k_plus_raises_when_boundary_curve_is_not_finite(monkeypatch, blind_past):
    # a curve that reads -inf past u = 1e-3, where the search starts, gives
    # no value to certify; returning the u -> inf limit would report
    # K+ ~ 7e-4 against K- ~ 4e121 at (3, 2000)
    monkeypatch.setattr(B, "log_upper_curve_rows", blind_past(B.log_upper_curve_rows, 1e-3))
    with pytest.raises(ArithmeticError, match="not certified"):
        B.k_plus(q_of(3, 2000))


@pytest.mark.parametrize("k", [3, 6, 9])
def test_k_plus_just_above_the_monotone_regime(k):
    # n = d/2 + 1/2 + 10^-k: the maximum lies near u = 2-5e5 (k = 3) and
    # 2-5e11 (k = 6), where the curve's values move by less than their
    # rounding, so only the exact slope finds it (the bracketed search
    # exited 3 there); at k = 9 the curve still rises at u = 1e12 and K+
    # is its limit.  K+ (plus its error estimate)
    # squared lies on or above the curve on a log grid up to 1e12, and the
    # CLI exits 0.
    from sobomul import cli
    from sobomul.kernels import log_upper_curve
    u = np.geomspace(1e-8, 1e12, 2001)
    for d in range(1, 5):
        n = Fraction(d, 2) + Fraction(1, 2) + Fraction(1, 10 ** k)
        res = B.k_plus(q_of(d, n))
        route = "boundary_limit" if k == 9 else "maximize"
        assert res.diagnostics["route"] == route, (d, k)
        if k < 9:
            assert res.diagnostics["converged"] and 1e5 < res.argmax.u < 1e12, (d, k)
        grid = float(np.max(log_upper_curve(q_of(d, n), u)))
        assert 2.0 * math.log(res.value + res.error_estimate) >= grid, (d, k)
        assert cli.main(["upper", "-n", str(n), "-d", str(d), "--json"]) == 0, (d, k)


# ----------------------------------------------------------------------
# asymptotic constants and laws
# ----------------------------------------------------------------------

def test_asymp_constants_recomputable():
    # M_d and N_d against 30-digit mpmath Gamma and digamma
    mp = pytest.importorskip("mpmath")
    for d in range(1, 11):
        c = B.AsympConstants.for_dimension(d)
        with mp.workdps(30):
            half_d = mp.mpf(d) / 2
            m_d = float(1 / (2 ** (half_d - mp.mpf(1) / 2) * mp.pi ** (half_d / 2)
                             * mp.sqrt(mp.gamma(half_d))))
            n_d = float((mp.digamma(half_d) + mp.euler) / 2)
        t_d = 3.0 ** (d / 4.0 + 0.25) / (2.0 ** d * math.pi ** (d / 4.0))
        v_d = math.log(math.sqrt(3.0) / 2.0) + 0.5 + 3.0 / d - n_d
        assert abs(c.amp_small - m_d) <= 1e-13 * abs(m_d)
        assert abs(c.slope_small - n_d) <= 1e-13 * max(1.0, abs(n_d))
        assert abs(c.amp_large - t_d) <= 1e-13 * abs(t_d)
        assert abs(c.drift - v_d) <= 1e-13 * max(1.0, abs(v_d))


def test_slope_constant_d1_is_minus_log2():
    assert abs(B.AsympConstants.for_dimension(1).slope_small + math.log(2.0)) < 1e-13


def test_slope_constant_harmonic_sum_against_digamma():
    # N_d = (psi(d/2) + gamma_E) / 2 from its harmonic sum, to a few ulps
    # of the 30-digit value
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for d in range(1, 11):
            want = (mp.digamma(mp.mpf(d) / 2) + mp.euler) / 2
            got = B.AsympConstants.for_dimension(d).slope_small
            assert abs(mp.mpf(got) - want) <= 4.4e-16, d


def test_small_gap_law_matches_k_plus():
    # d = 1, gap 1e-4: leading law ~ 56.42, within 0.2% of the bound
    q = BoundQuery(d=1, n=0.5 + 1e-4)
    law = B.k_plus_asymp_small(q)
    assert abs(law * math.sqrt(1e-4) - B.AsympConstants.for_dimension(1).amp_small
               * (1.0 - B.AsympConstants.for_dimension(1).slope_small * 1e-4)) < 1e-12
    assert rel_err(B.k_plus(q).value, law) < 0.002


def test_large_n_law_within_band_of_table():
    # d = 1, n = 241/2: the law lands within [0.9, 1.1] of the tabled 6.63e6
    q = q_of(1, Fraction(241, 2))
    law = B.k_plus_asymp_large(q)
    assert 0.9 <= law / 6.63e6 <= 1.1


def test_large_n_law_is_approached_like_one_over_n():
    # d = 1..10, n in {100, 300, 1000, 3000}: n (K+/law - 1) is positive,
    # decreasing and settled to 1% between n = 1000 and 3000 (0.1254 at
    # d = 1, 8.015 at d = 10), and K^FF/K+ rises toward (5/3)^(1/2)/7^(1/4)
    ff_limit = math.sqrt(5.0 / 3.0) / 7.0 ** 0.25
    for d in range(1, 11):
        scaled, ff_ratio = [], []
        for n in (100, 300, 1000, 3000):
            q = q_of(d, n)
            kp = B.k_plus(q)
            assert kp.diagnostics["route"] == "maximize" and kp.diagnostics["converged"]
            scaled.append(n * (kp.value / B.k_plus_asymp_large(q) - 1.0))
            ff_ratio.append(B.k_fourier_fixed(q).value / kp.value)
        assert 0.0 < scaled[3] < scaled[2] < scaled[1] < scaled[0], (d, scaled)
        assert abs(scaled[3] / scaled[2] - 1.0) < 0.01, (d, scaled)
        assert ff_ratio[0] < ff_ratio[1] < ff_ratio[2] < ff_ratio[3] < ff_limit, (d, ff_ratio)
        assert ff_limit - ff_ratio[3] < 0.002, (d, ff_ratio)


def test_bounds_past_the_double_range_raise_domain_error():
    # log10 K grows like 0.0625 n: at (1, 5000) the law itself overflows,
    # and the check runs before any search; K^FF ~ 0.79 K+ overflows too.
    # (1, 4940) still fits: K+ ~ 3.08e307
    q = q_of(1, 5000)
    for bound in (B.k_plus, B.k_fourier_fixed, B.k_plus_asymp_large):
        with pytest.raises(DomainError, match="largest double"):
            bound(q)
    with pytest.raises(DomainError, match="largest double"):
        B.k_plus(q_of(2, 10 ** 6))
    assert 3.0e307 < B.k_plus(q_of(1, 4940)).value < 3.2e307


def test_asymp_constants_need_a_positive_dimension():
    for d in (0, -3):
        with pytest.raises(DomainError):
            B.AsympConstants.for_dimension(d)


# ----------------------------------------------------------------------
# elementary envelope
# ----------------------------------------------------------------------

def test_k_plus_log_gamma_count(monkeypatch):
    # the Gamma constants of the upper curve are computed once per query and
    # the kernel's normalised rule needs none, so a search makes a fixed
    # number of log_gamma calls whatever its number of evaluations
    from sobomul import specfun
    calls = []
    inner = specfun.log_gamma

    def counting(x):
        calls.append(x)
        return inner(x)

    monkeypatch.setattr(specfun, "log_gamma", counting)
    # (at least two evaluations, so a Gamma constant per evaluation would
    # show as four calls or more)
    for d, n, want in ((3, 40.0, 2), (2, 3.3, 2)):
        calls.clear()
        res = B.k_plus(BoundQuery(d=d, n=n))
        assert res.diagnostics["route"] == "maximize"
        assert res.diagnostics["evaluations"] >= 2
        assert len(calls) == want, (d, n, len(calls))


def test_table1_k_plus_evaluation_gate():
    # deterministic count: the 52 table1 K+ take at most 150 curve
    # evaluations together (103 measured; the Brent search took 744)
    from sobomul import tables
    total = 0
    for d in range(1, 5):
        for q in tables.table1_queries(d):
            res = B.k_plus(q)
            assert res.diagnostics.get("converged", True), (d, q.n)
            total += res.diagnostics.get("evaluations", 0)
    assert total <= 150


def test_residual_scan_searches_converge():
    # every K+ of the d = 1 and d = 10 scans either converges in its
    # search or takes the closed-form limit (gap <= 1/2); none leaves
    # through the bracket boundary
    for d in (1, 10):
        grid = B.default_residual_grid(d)
        _, _, outcomes, _ = B._residual_k_plus(d, grid)
        searched = [o for o in outcomes if o is not None]
        assert len(outcomes) == len(grid) == 400
        assert len(searched) == 220, d
        assert outcomes.count(None) == 180, d
        assert all(isinstance(o, MaxResult) and o.converged for o in searched), d


def test_residual_scan_k_plus_matches_scalar_k_plus():
    # the rows of the scan's batched search against k_plus, its one-row
    # case, at every 11th searched gap: the rows of a block sum over the
    # nodes that any of them keeps, so they may differ in the last bits
    for d in (1, 5, 10):
        queries, kps, _, _ = B._residual_k_plus(d, B.default_residual_grid(d))
        searched = [(q.n, kp) for q, kp in zip(queries, kps) if q is not None]
        for n, kp in searched[::11]:
            assert rel_err(kp, B.k_plus(BoundQuery(d=d, n=n)).value) <= 1e-12, (d, n)


@pytest.mark.parametrize("d", range(1, 11))
def test_residual_scan_matches_per_gap_oracle(d):
    # the scan against the same scan run one gap at a time through the
    # scalar k_plus, envelope_residual and k_plus_plus: Z_d, Theta_d, their
    # gaps and the endpoint warning agree exactly in every dimension, as
    # the scan takes K+ at both argmax gaps from the one-row search that
    # k_plus runs (a batch row may differ from it in the last bits)
    from oracles.residual_scan import residual_scan
    assert B._residual_scan.__wrapped__(d, B.default_residual_grid(d)) == residual_scan(d)


def test_residual_scan_settles_on_the_first_level(monkeypatch):
    # deterministic counts: every point of the d = 1 and d = 10 scans,
    # the one-row searches at the argmax gaps included, settles on the
    # kernel's first tanh-sinh level; a point that climbs would call
    # _log_kernel_rows again on a KernelRows of the next level
    from sobomul import kernels as K
    levels, points = set(), []
    inner = K._log_kernel_rows

    def counting(rows, at, u, moments=False):
        levels.add(rows.level)
        points.append(u.size)
        return inner(rows, at, u, moments)

    monkeypatch.setattr(K, "_log_kernel_rows", counting)
    for d in (1, 10):
        B._residual_scan.__wrapped__(d, B.default_residual_grid(d))
    assert sum(points) > 1000
    assert levels == {K._FIRST_LEVEL}


def test_residual_scan_builds_no_result_objects(monkeypatch):
    # deterministic counts: the d = 10 scan builds no BoundResult and no
    # TrialParams, and a BoundQuery only for its 220 searched rows
    built = {}
    for name in ("BoundResult", "TrialParams", "BoundQuery"):
        def counting(*args, _cls=getattr(B, name), _name=name, **kw):
            built[_name] = built.get(_name, 0) + 1
            return _cls(*args, **kw)

        monkeypatch.setattr(B, name, counting)
    B._residual_scan.__wrapped__(10, B.default_residual_grid(10))
    assert built == {"BoundQuery": 220}


def test_residual_scan_kernel_call_gate(monkeypatch):
    # deterministic counts: the d = 10 scan evaluates its 220 searches in
    # at most 12 batched kernel calls and 1,200 points (9 and 829
    # measured); one kernel call per search evaluation fails here.  Its
    # AsympConstants are built once.
    from sobomul import kernels as K
    calls = []
    for name in ("log_hyper_kernel", "_log_kernel_rows"):
        inner = getattr(K, name)

        def counting(*args, _inner=inner, **kw):
            calls.append(np.size(args[-1]))
            return _inner(*args, **kw)

        monkeypatch.setattr(K, name, counting)
    B.AsympConstants.for_dimension.cache_clear()
    grid = B.default_residual_grid(10)
    B._residual_scan.__wrapped__(10, grid)
    built = B.AsympConstants.for_dimension.cache_info()
    assert (built.misses, built.currsize) == (1, 1)
    calls.clear()
    _, _, outcomes, rounds = B._residual_k_plus(10, grid)
    evaluations = sum(o.iterations for o in outcomes if o is not None)
    assert len(calls) == rounds <= 12
    assert sum(calls) == evaluations <= 1200


def test_asymp_constants_cached_bit_identical():
    for d in range(1, 11):
        cached = B.AsympConstants.for_dimension(d)
        assert B.AsympConstants.for_dimension(d) is cached
        assert cached == B.AsympConstants.for_dimension.__wrapped__(B.AsympConstants, d)


def test_envelope_residual_roundtrip():
    # K++ built with the cell's own residual reproduces K+ exactly
    for (d, n) in [(1, 2.0), (2, 4.0), (3, 2.5)]:
        q = BoundQuery(d=d, n=n)
        kp = B.k_plus(q).value
        z = B.envelope_residual(q, kp)
        back = B.k_plus_plus(q, z).value
        assert rel_err(back, kp) < 1e-10


def test_envelope_majorizes_with_sup():
    data = B.envelope_residual_sup(2)
    rng = np.random.default_rng(2)
    for _ in range(12):
        nd = float(np.exp(rng.uniform(np.log(1e-4), np.log(150.0))))
        q = BoundQuery(d=2, n=1.0 + nd)
        assert B.k_plus_plus(q, data.big_z).value >= B.k_plus(q).value * (1.0 - 1e-9)


def test_envelope_scan_spot_values():
    d1 = B.envelope_residual_sup(1)
    assert abs(d1.big_z - 0.0) <= 0.01
    assert abs(d1.theta - 1.041) <= 0.005
    d2 = B.envelope_residual_sup(2)
    assert abs(d2.big_z - 0.00925) <= 0.01
    assert abs(d2.theta - 1.039) <= 0.005


# ----------------------------------------------------------------------
# Bessel trial norms
# ----------------------------------------------------------------------

def test_bessel_norm_at_unit_scale():
    # F(-n, d/2, n; 0) = 1: norm^2 = pi^(d/2) G(n+1-d/2) / ((n-d/2) G(n))
    from sobomul.specfun import log_gamma
    for (d, n) in [(2, 2.0), (1, 1.5), (3, 2.25)]:
        q = BoundQuery(d=d, n=n)
        want = math.exp(0.5 * d * math.log(math.pi)
                        + log_gamma(n + 1.0 - d / 2.0)
                        - math.log(n - d / 2.0) - log_gamma(n))
        assert rel_err(B.bessel_trial_norm_sq(q, 1.0), want) < 1e-12


def test_bessel_norm_integer_two_path():
    # hypergeometric route vs binomial sum; the call validates internally
    q = q_of(2, 2)
    val = B.bessel_trial_norm_sq(q, 2.0, validate=True)
    assert val > 0.0
    got = B._log_bessel_norm_sq_sum(q, 2.0)
    assert abs(got - math.log(val)) < 1e-10


def test_bessel_norm_against_defining_integral():
    # (n, d, lam) = (3/2, 1, 0.5): radial Plancherel quadrature oracle
    n, d, lam = 1.5, 1, 0.5
    q = q_of(1, Fraction(3, 2))

    def f(rho):
        return (rho ** (d - 1.0) * (1.0 + rho * rho) ** n
                * (1.0 + rho * rho / lam ** 2) ** (-2.0 * n))

    res = integrate_semiinf(f, 0.0, TailSpec(2.0 * n - d), tol=1e-11)
    want = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0) / lam ** (2.0 * d) * res.value
    assert rel_err(B.bessel_trial_norm_sq(q, lam), want) < 1e-8


def test_bessel_sq_norm_gap_vs_quadrature(sq_norm_double_sum):
    # (5/2, 2): the direct integral route against the terminating double sum
    q = q_of(2, Fraction(5, 2))
    assert rel_err(B.bessel_trial_sq_norm_sq(q, 1.0), sq_norm_double_sum(q, 1.0)) < 1e-7


def test_far_kernel_form_matches_kernel():
    # the two-term large-u form that replaces the kernel beyond log u = 200
    # at gaps below 0.25, against the kernel itself where both run
    from sobomul.kernels import log_hyper_kernel
    x = np.array([150.0, 200.0, 300.0, 600.0])
    for d in (1, 2, 5, 10):
        for gap in (0.01, 0.037, 0.1, 0.24, 0.3):
            q = BoundQuery(d=d, n=d / 2.0 + gap)
            far = B._log_kernel_far(q, x)
            assert np.allclose(far, log_hyper_kernel(q, np.exp(x)), rtol=1e-14, atol=0.0)


def test_bessel_sq_norm_positive_gap_case():
    assert B.bessel_trial_sq_norm_sq(q_of(1, Fraction(3, 2)), 1.0) > 0.0


def test_bessel_quotient_scale_consistency():
    # closed-form route against defining-integral quadratures at lam in
    # {0.5, 1, 2} for (n, d) = (2, 2)
    from sobomul.kernels import log_hyper_kernel
    from sobomul.specfun import log_gamma
    n, d = 2.0, 2
    q = q_of(2, 2)
    for lam in (0.5, 1.0, 2.0):
        def f_norm(rho):
            return (rho ** (d - 1.0) * (1.0 + rho * rho) ** n
                    * (1.0 + rho * rho / lam ** 2) ** (-2.0 * n))

        norm_quad = (2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
                     / lam ** (2.0 * d)
                     * integrate_semiinf(f_norm, 0.0, TailSpec(2.0 * n - d),
                                         tol=1e-10).value)

        def f_sq(rho):
            return np.exp((d - 1.0) * np.log(rho) + n * np.log1p(rho * rho)
                          + 2.0 * log_hyper_kernel(q, rho * rho / (4.0 * lam ** 2)))

        pref = math.exp(0.5 * d * math.log(math.pi)
                        + 2.0 * log_gamma(2.0 * n - d / 2.0)
                        - math.log(2.0 ** (d - 1.0)) - log_gamma(d / 2.0)
                        - 2.0 * log_gamma(2.0 * n) - 2.0 * d * math.log(lam))
        sq_quad = pref * integrate_semiinf(
            f_sq, 0.0, TailSpec(2.0 * n - d), tol=1e-10).value

        direct = math.sqrt(B.bessel_trial_sq_norm_sq(q, lam, tol=1e-10)) \
            / B.bessel_trial_norm_sq(q, lam)
        via_quad = math.sqrt(sq_quad) / norm_quad
        assert rel_err(direct, via_quad) < 1e-7


# ----------------------------------------------------------------------
# Bessel lower bounds
# ----------------------------------------------------------------------

def test_k_bessel_three_halves_two():
    res = B.k_bessel(q_of(2, Fraction(3, 2)))
    assert abs(res.value - 0.865 * 0.565) <= 0.002
    assert abs(res.argmax.lam - 1.38) <= 0.02


def test_k_bessel_two_two_argmax():
    res = B.k_bessel(q_of(2, 2))
    assert abs(res.argmax.lam - 1.36) <= 0.02
    assert abs(res.value / 0.427657850899883 - 0.842) <= 0.002


def test_k_bessel_one_one_ratio():
    res = B.k_bessel(q_of(1, 1))
    assert abs(res.value / B.k_plus(q_of(1, 1)).value - 0.842) <= 0.002


def test_log_gamma_within_k_bessel_rounding_bound():
    # k_bessel's error estimate assumes |log_gamma(x) - log Gamma(x)| <=
    # _LOG_GAMMA_ERR * max(1, |log Gamma(x)|); the Gamma arguments of the
    # (B) quotient run from d/2 = 1/2 up to 2n
    mp = pytest.importorskip("mpmath")
    from sobomul import specfun
    with mp.workdps(30):
        for x in np.concatenate((np.linspace(0.5, 10.0, 39), np.geomspace(10.0, 2000.0, 40))):
            want = mp.loggamma(mp.mpf(float(x)))
            err = abs(mp.mpf(specfun.log_gamma(float(x))) - want)
            assert err <= B._LOG_GAMMA_ERR * max(1, abs(want)), x


@pytest.mark.parametrize("n", [300, 1000])
def test_k_bessel_at_large_n(n, capsys):
    # the squared-norm rule's step shrinks like 1/sqrt(n) past n = 50, as
    # the integrand's bulk narrows: with the fixed step 0.05 the rule
    # error was 2.8e-8 at n = 300 and 1.7e-2 at n = 1000, past its 1e-9 cap
    from sobomul import cli
    res = B.k_bessel(q_of(1, n))
    assert res.diagnostics["rule_error"] <= 1e-9
    assert 0.0 < res.value < B.k_plus(q_of(1, n)).value
    assert cli.main(["lower", "--method", "bessel", "-n", str(n), "-d", "1", "--json"]) == 0
    capsys.readouterr()


def test_k_bessel_domain_guard():
    with pytest.raises(DomainError):
        B.k_bessel(BoundQuery(d=2, n=1.0 + 1e-4))
    with pytest.raises(DomainError):
        B.bessel_trial_sq_norm_sq(BoundQuery(d=2, n=1.0 + 1e-4), 1.4)


def test_bessel_sq_norm_tol_bounds_rule_error():
    # tol caps the measured |I_h/2 - I_h| / I_h/2 of the exp-sinh rule
    q = q_of(2, Fraction(101, 100))
    _log_int, rule_error, _nodes = B._log_sq_norm_refined(
        q, B._sq_norm_nodes(q), 1.4, 1.0)
    assert 0.0 < rule_error < 1e-12
    assert B.bessel_trial_sq_norm_sq(q, 1.4, tol=rule_error) > 0.0
    with pytest.raises(ArithmeticError):
        B.bessel_trial_sq_norm_sq(q, 1.4, tol=0.5 * rule_error)


def test_k_bessel_evaluates_kernel_once(monkeypatch):
    # one vector kernel call per query, on the h rule's nodes and the
    # midpoints of the reported h/2 rule together, and no adaptive
    # quadrature, whatever the gap: the package has none (the Gauss-Kronrod
    # drivers are test oracles)
    from sobomul import quad
    assert not {"integrate_finite", "integrate_semiinf"} & (set(vars(quad)) | set(vars(B)))
    calls = {"kernel": 0}
    kernel = B.log_hyper_kernel

    def counting_kernel(q, u):
        calls["kernel"] += 1
        return kernel(q, u)

    monkeypatch.setattr(B, "log_hyper_kernel", counting_kernel)
    for d, n in ((2, 3), (1, Fraction(3, 2)), (4, Fraction(9, 4)),
                 (2, Fraction(101, 100))):
        calls.update(kernel=0)
        res = B.k_bessel(q_of(d, n))
        assert calls["kernel"] == 1, (d, n, calls)
        assert res.diagnostics["nodes"] > 0
        assert 0.0 <= res.diagnostics["rule_error"] <= B.LOWER_TOL


def test_minorant_coeffs():
    # Q vanishes at n = d/2 + 1/2; the small-q rule switches on P < Q
    co_edge = B.minorant_coeffs(BoundQuery(d=2, n=1.5))
    assert co_edge.q_nd == 0.0
    q = BoundQuery(d=2, n=1.2)
    co = B.minorant_coeffs(q)
    if co.p_nd >= co.q_nd:
        assert co.q_small == co.q_nd
    else:
        assert co.q_small == pytest.approx(co.p_nd - q.n_gap)


def test_minorant_is_a_minorant():
    # G(lam) <= squared-kernel norm where both routes are available
    for (d, nd) in [(1, 0.3), (2, 0.4), (3, 0.25)]:
        q = BoundQuery(d=d, n=d / 2.0 + nd)
        lam = 1.42
        g = B.squared_trial_minorant(q, lam)
        full = B.bessel_trial_sq_norm_sq(q, lam, tol=1e-9)
        assert g <= full * (1.0 + 1e-8)


def test_k_bessel_minorant_spot_values():
    res = B.k_bessel_minorant(BoundQuery(d=2, n=1.0 + 1e-4))
    kp = B.k_plus(BoundQuery(d=2, n=1.0 + 1e-4)).value
    assert abs(res.value / kp - 0.816) <= 0.005
    res = B.k_bessel_minorant(BoundQuery(d=1, n=0.6))
    kp = B.k_plus(BoundQuery(d=1, n=0.6)).value
    assert abs(res.value / kp - 0.824) <= 0.005


def test_k_bessel_minorant_small_gap_law():
    # K^BB sqrt(gap) / M_d -> sqrt(2/3) within 1% at gap = 1e-6
    gap = 1e-6
    q = BoundQuery(d=1, n=0.5 + gap)
    c = B.AsympConstants.for_dimension(1)
    val = B.k_bessel_minorant(q).value * math.sqrt(gap) / c.amp_small
    assert abs(val / math.sqrt(2.0 / 3.0) - 1.0) < 0.01


def test_k_bessel_minorant_domain():
    with pytest.raises(DomainError):
        B.k_bessel_minorant(BoundQuery(d=2, n=1.8))


def _count_calls(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_bessel_searches_pay_gamma_constants_once(monkeypatch):
    # deterministic counts: three Newton evaluations per search here, twelve
    # hyp2f1 calls per (BB) evaluation (each of its four 2F1 with its two
    # contiguous functions), and a fixed number of log_gamma calls per
    # query (the lam-free constants are built once per (n, d))
    hyp = _count_calls(monkeypatch, B.sf, "hyp2f1")
    lg = _count_calls(monkeypatch, B.sf, "log_gamma")
    B._bessel_constants.cache_clear()
    res = B.k_bessel_minorant(BoundQuery(d=2, n=1.0 + 1e-4))
    evaluations = res.diagnostics["evaluations"]
    assert evaluations == 3
    assert len(hyp) == 12 * evaluations
    # eleven arguments, and log Gamma(1/2 - gap) reflects once to 1/2 + gap
    assert len(lg) == 12
    lg.clear()
    res = B.k_bessel(q_of(2, 3))
    assert res.diagnostics["evaluations"] == 3
    assert len(lg) == 5


@pytest.mark.parametrize("d, n", [(1, 0.5 + 1e-12), (2, 1.0 + 1e-4), (3, 1.55),
                                  (6, 3.0999), (10, 5.0 + 3.7e-7)])
def test_k_bessel_minorant_is_the_public_quotient(d, n):
    # the search's quotient is the public minorant over the public trial
    # norm, to the last bit, at the returned lam*
    q = BoundQuery(d=d, n=n)
    res = B.k_bessel_minorant(q)
    lam = res.argmax.lam
    minorant = B.squared_trial_minorant(q, lam)
    norm = B.bessel_trial_norm_sq(q, lam, validate=False)
    assert res.value == math.exp(0.5 * math.log(minorant) - math.log(norm))
    assert rel_err(res.value, math.sqrt(minorant) / norm) <= 1e-14


@pytest.mark.parametrize("d, n", [(2, 3), (1, Fraction(3, 2)), (4, Fraction(9, 4)),
                                  (2, Fraction(101, 100)), (7, Fraction(9, 2))])
def test_k_bessel_is_the_public_quotient(d, n):
    # K^B at lam* against the public squared-kernel norm over the public
    # trial norm; the value adds the Gamma prefactor and the integral in
    # log space, so the two agree to rounding of exp, not bit for bit
    q = q_of(d, n)
    res = B.k_bessel(q)
    lam = res.argmax.lam
    want = (math.sqrt(B.bessel_trial_sq_norm_sq(q, lam))
            / B.bessel_trial_norm_sq(q, lam, validate=False))
    assert rel_err(res.value, want) <= 1e-14


# ----------------------------------------------------------------------
# Gaussian trial norms and Fourier bounds
# ----------------------------------------------------------------------

def test_gaussian_norm_two_path():
    # integer n: closed sum against the Cartesian rule
    val = B.gaussian_trial_norm_sq(q_of(2, 2), 0.511, 1.05, validate=True)
    assert val > 0.0


@pytest.mark.parametrize("route, evaluate", [
    ("_log_gaussian_norm_sq_sum",
     lambda q: B.log_gaussian_trial_norm_sq(q, 0.511, 1.05, validate=True)),
    ("_log_bessel_norm_sq_sum", lambda q: B.bessel_trial_norm_sq(q, 2.0, validate=True)),
])
def test_two_path_mismatch_raises(monkeypatch, route, evaluate):
    # each two-path check passes as is and raises once one of its two
    # routes is off by 1e-8 in the log: the Gaussian norm's closed sum
    # against its rule, the Bessel norm's binomial sum against its 2F1
    q = q_of(2, 2)
    evaluate(q)
    exact = getattr(B, route)
    monkeypatch.setattr(B, route, lambda *args, **kwargs: exact(*args, **kwargs) + 1e-8)
    with pytest.raises(B.TwoPathMismatch):
        evaluate(q)


def test_gaussian_sum_tables_log_gamma_count(monkeypatch):
    # the closed-sum tables index one vector of log k! (k <= 2n) and one of
    # log Gamma(d/2 - 1/2 + k) (k <= n): 3n + 2 log_gamma calls in all.
    # They group the (l, j, g) terms by monomial p^(2a) sigma^(b-d/2),
    # a + b <= n: (n+1)(n+2)/2 entries, each pair of exponents once.
    from sobomul import specfun
    calls = []
    inner = specfun.log_gamma

    def counting(x):
        calls.append(x)
        return inner(x)

    n = 50
    monkeypatch.setattr(specfun, "log_gamma", counting)
    G._gaussian_sum_tables.cache_clear()
    try:
        lgc, pe, se = G._gaussian_sum_tables(n, 2)
    finally:
        G._gaussian_sum_tables.cache_clear()
    assert len(calls) <= 3 * n + 2, len(calls)
    assert len(lgc) <= (n + 1) * (n + 2) // 2
    assert len(set(zip(pe, se))) == len(lgc)


def _gaussian_sum_tables_by_mask(n, d):
    """The closed-sum tables as first built: every (l, j, g) of
    np.indices((n+1,)^3), masked to g <= j <= l (l = j at d = 1)."""
    from sobomul import specfun
    lf = np.array([specfun.log_gamma(k + 1.0) for k in range(2 * n + 1)])
    ell, j, g = np.indices((n + 1,) * 3).reshape(3, -1)
    keep = (j <= ell) & (g <= j)
    if d == 1:
        keep &= ell == j
    ell, j, g = ell[keep], j[keep], g[keep]
    lgc = (lf[n] - lf[ell] - lf[n - ell] + lf[ell] - lf[j] - lf[ell - j]
           + lf[2 * j] - lf[2 * g] - lf[2 * (j - g)])
    lgc += lf[2 * g] - lf[g] - g * math.log(4.0)
    if d >= 2:
        lh = np.array([specfun.log_gamma(d / 2.0 - 0.5 + k) for k in range(n + 1)])
        up = ell > j
        lgc[up] += lh[(ell - j)[up]] - lh[0]
    group = (j - g) * (n + 1) + (ell + g - j)
    top = np.full((n + 1) ** 2, -np.inf)
    np.maximum.at(top, group, lgc)
    acc = np.bincount(group, weights=np.exp(lgc - top[group]), minlength=(n + 1) ** 2)
    a, b = np.divmod(np.arange((n + 1) ** 2), n + 1)
    mono = a + b <= n
    return top[mono] + np.log(acc[mono]), 2.0 * a[mono], b[mono] - d / 2.0


def test_gaussian_sum_tables_build_only_kept_terms():
    # the tables form only the (n+1)(n+2)(n+3)/6 kept (l, j, g), in the
    # l-major order of the masked np.indices build, so they are its bits;
    # a cold build at (n, d) = (47, 8) peaks below 1 MB (3.24 MB masked)
    import tracemalloc
    for n in (1, 2, 7, 47, 50):
        for d in (1, 2, 8):
            G._gaussian_sum_tables.cache_clear()
            got, want = G._gaussian_sum_tables(n, d), _gaussian_sum_tables_by_mask(n, d)
            assert all(np.array_equal(x, y) for x, y in zip(got, want)), (n, d)
    G._gaussian_sum_tables.cache_clear()
    tracemalloc.start()
    try:
        G._gaussian_sum_tables(47, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        G._gaussian_sum_tables.cache_clear()
    assert peak < 1e6, peak


def test_gaussian_norm_gaussian_limit():
    # the n = 0 closed sum collapses to the plain Gaussian L2 norm
    # pi^(d/2) sigma^(-d/2)
    lgc, pe, se = G._gaussian_sum_tables(0, 3)
    assert len(lgc) == 1
    p, sigma = 0.7, 1.3
    term = math.exp(lgc[0] + pe[0] * math.log(p) + se[0] * math.log(sigma))
    want = sigma ** -1.5
    assert rel_err(term, want) < 1e-13


def test_gaussian_norm_against_1d_definition():
    # (n, d) = (3, 1), (p, sigma) = (1, 2): sigma^-1 int (1+k^2)^n
    # exp(-(k-p)^2/sigma) dk over the line
    p, sigma = 1.0, 2.0

    def f(k):
        return (1.0 + k * k) ** 3 * np.exp(-((k - p) ** 2) / sigma)

    res = integrate_finite(f, p - 45.0, p + 45.0, tol=1e-11)
    want = res.value / sigma
    got = B.gaussian_trial_norm_sq(q_of(1, 3), p, sigma, validate=False)
    assert rel_err(got, want) < 1e-8


def test_gaussian_norm_rule_calls_no_bessel_quad_or_optim():
    # Off the closed sum the norm is one elementary vectorized rule: no
    # special function, adaptive quadrature or search runs under it,
    # bounds binds no name from bessel or quad, and quad holds no adaptive
    # driver (the Gauss-Kronrod drivers are test oracles).
    from sobomul import bessel, optim, quad
    watched = {mod.__file__ for mod in (bessel, quad, optim)}
    hits = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in watched:
            hits.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        for d in (1, 2, 5):
            B.log_gaussian_trial_norm_sq(q_of(d, Fraction(61, 2)), 0.2, 0.038)
    finally:
        sys.setprofile(None)
    assert not hits, sorted(set(hits))
    assert not [name for name, v in vars(B).items()
                if getattr(v, "__module__", None) in (bessel.__name__, quad.__name__)]
    assert not {"integrate_finite", "integrate_semiinf"} & set(vars(quad))


def test_gaussian_norm_rule_matches_closed_sum_on_grid():
    # The rule against the closed sum over the (F) search's box: d = 1..10,
    # integer n, p in [0.15, 1.9] and sigma n in [0.08, 8] (912 points).
    points = [(d, n, p, sigma_n / n) for d in range(1, 11)
              for n in sorted({d // 2 + 1, 5, 12, 25, 37, 50}) if n > d / 2
              for p in (0.15, 0.35, 0.8, 1.9) for sigma_n in (0.08, 0.75, 3.0, 8.0)]
    assert len(points) == 912
    worst = 0.0
    for d, n, p, sigma in points:
        q = q_of(d, n)
        rule = G._log_gaussian_norm_sq_refined(q, p, sigma, 1e-10)[0]
        closed = G._log_gaussian_norm_sq_sum(q, p, sigma)
        worst = max(worst, abs(math.expm1(rule - closed)))
    assert worst <= 1e-12, worst


# Nodes of one h rule at one pair (k_1 rows times exp-sinh nodes for
# d >= 2); the largest seen over d <= 10, n <= d/2 + 300 and sigma <= 1e12
# is about 3.2e5, at d = 2, n = 301 and sigma = 1e12, and the (F) search
# reaches at most about 3e4 (d = 2, gap 1e-12).
RULE_NODES_PER_PAIR = 2 ** 19


def _rule_nodes(q, p, sigma):
    return int(G._gaussian_rule_block(q, np.array([p]), np.array([sigma]), 0.0, 0.0)[3][0])


def test_gaussian_rule_matches_closed_sum_at_any_sigma():
    # the rule in asinh(k_1) against the closed sum from sigma = 1e-3 up to
    # 1e8, far past the (F) search's box, within 1e-13 of the log's size;
    # its nodes stay bounded as sigma grows
    worst = 0.0
    for d in (1, 2, 5, 10):
        for n in (k for k in (1, 2, 5, 17, 47) if k > d / 2):
            q = q_of(d, n)
            for p in (0.2, 0.9, 2.0):
                for sigma in np.geomspace(1e-3, 1e8, 12).tolist():
                    rule = G._log_gaussian_norm_sq_refined(q, p, sigma, 1e-10)[0]
                    closed = G._log_gaussian_norm_sq_sum(q, p, sigma)
                    worst = max(worst, abs(rule - closed) / max(1.0, abs(closed)))
                    assert _rule_nodes(q, p, sigma) <= RULE_NODES_PER_PAIR, (d, n, p, sigma)
    assert worst <= 1e-13, worst


def test_gaussian_rule_error_is_bounded_at_any_sigma():
    # off the closed sum: the rule's measured |I_h/2 - I_h| / I_h/2 and its
    # nodes per pair over d <= 10, any gap up to 300, p in [0.01, 2] and
    # sigma up to 1e12
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(d=st.integers(1, 10), gap=st.floats(1e-12, 300.0),
                      p=st.floats(0.01, 2.0), log_sigma=st.floats(-3.0, 12.0))
    def check(d, gap, p, log_sigma):
        q = BoundQuery(d=d, n=d / 2.0 + gap)
        sigma = 10.0 ** log_sigma
        _log_norm, rule_error, _nodes = G._log_gaussian_norm_sq_refined(q, p, sigma, 1.0)
        assert rule_error <= 1e-10, (d, q.n, p, sigma, rule_error)
        assert _rule_nodes(q, p, sigma) <= RULE_NODES_PER_PAIR, (d, q.n, p, sigma)

    check()


def test_gaussian_norm_tol_bounds_rule_error():
    # tol caps the measured |I_h/2 - I_h| / I_h/2 of the Gaussian-norm rule
    # (at a pair where the two rules differ in their last bits)
    q, p, sigma = q_of(1, Fraction(61, 2)), 0.4, 0.2
    _log_norm, rule_error, _nodes = G._log_gaussian_norm_sq_refined(q, p, sigma, 1.0)
    assert 0.0 < rule_error < 1e-12
    assert B.log_gaussian_trial_norm_sq(q, p, sigma, tol=rule_error) > 0.0
    with pytest.raises(ArithmeticError):
        B.log_gaussian_trial_norm_sq(q, p, sigma, tol=0.5 * rule_error)


def test_fourier_diagnostics_name_norm_route():
    # the route, and an error estimate that is the measured one: a rounding
    # floor on the closed sum, the weighted rule errors on the rule
    closed = B.k_fourier_fixed(q_of(2, 4))
    assert closed.diagnostics == {"route": "closed_sum"}
    assert 0.0 < closed.error_estimate <= 1e-13 * closed.value
    for res, tol in ((B.k_fourier_fixed(q_of(1, 60)), B._FF_TOL),
                     (B.k_fourier(q_of(1, Fraction(61, 2))), B.LOWER_TOL)):
        assert res.diagnostics["route"] == "rule"
        assert res.diagnostics["nodes"] > 0
        rule_error = res.diagnostics["rule_error"]
        assert 0.0 <= rule_error <= tol
        assert 0.5 * rule_error < res.error_estimate / res.value <= 1.5 * rule_error + 1e-12


@pytest.mark.parametrize("d, n", [(1, 3), (3, 12), (1, Fraction(61, 2)),
                                  (2, Fraction(9, 4)), (5, Fraction(73, 10))])
def test_fourier_norm_derivatives_match_central_differences(d, n):
    # gradient and Hessian in (log p, log sigma) of each norm route (the
    # closed sum at integer n, the h rule otherwise) and of the quotient,
    # against central differences of the values and of the gradients; the
    # centre and its four neighbours go through one rows call
    q = q_of(d, n)
    if q.n_is_integer:
        def norm(p, sigma):
            return G._log_gaussian_norm_sq_sum(q, p, sigma, moments=True)
    else:
        def norm(p, sigma):
            return G._gaussian_rule_block(q, p, sigma, 0.0, 0.0)[:3]
    h = 1e-5
    shift = h * np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    p, sigma = 0.45 * np.exp(shift[:, 0]), 0.6 / q.n * np.exp(shift[:, 1])
    for f in (norm, B._fourier_search_objective(q)):
        values, grads, hessians = f(p, sigma)
        grad, hess = grads[0], hessians[0]
        fd_grad = np.array([values[1] - values[2], values[3] - values[4]]) / (2.0 * h)
        fd_hess = np.array([grads[1] - grads[2], grads[3] - grads[4]]) / (2.0 * h)
        scale = max(1.0, np.abs(grad).max(), np.abs(hess).max())
        assert np.abs(grad - fd_grad).max() <= 1e-8 * scale
        assert np.abs(hess - fd_hess).max() <= 1e-8 * scale


@pytest.mark.parametrize("d, n", [(1, Fraction(61, 2)), (2, Fraction(9, 4)),
                                  (5, Fraction(73, 10)), (10, Fraction(111, 20))])
def test_rule_block_rows_match_one_pair_calls(d, n):
    # k pairs (with both k_1 offsets) in one rule call against k one-pair
    # calls: the pairs' grids differ in step and reach, and padding them to
    # one array must change no pair's value beyond 1e-15 relative, nor its
    # derivatives beyond 2e-15 of their largest entry (the sums behind
    # them may run in another order)
    q = q_of(d, n)
    p = np.array([0.35, 0.7, 0.4, 0.8, 0.3])
    sigma = np.array([0.75, 1.5, 1.0, 2.0, 4.0]) / q.n
    k_offset = np.array([0.0, 0.5, 0.0, 0.5, 0.5])
    for t_offset in (0.0, 0.5):
        rows = G._gaussian_rule_block(q, p, sigma, k_offset, t_offset)
        for i in range(p.size):
            one = G._gaussian_rule_block(q, p[i:i + 1], sigma[i:i + 1], k_offset[i], t_offset)
            assert one[3][0] == rows[3][i]
            assert rel_err(rows[0][i], one[0][0]) <= 1e-15
            for got, want in zip(rows[1:3], one[1:3]):
                assert np.abs(got[i] - want[0]).max() <= 2e-15 * np.abs(want[0]).max()


def test_k_fourier_evaluation_count(monkeypatch):
    # the Newton search makes at most 60 quotient evaluations per call over
    # its three starts (the Nelder-Mead simplex before it made about 320),
    # in one objective call per round for all live starts
    rounds = []
    inner = B.maximize_2d

    def counting(f, *args, **kwargs):
        def g(p, sigma):
            rounds[-1] += 1
            return f(p, sigma)
        rounds.append(0)
        return inner(g, *args, **kwargs)

    monkeypatch.setattr(B, "maximize_2d", counting)
    for d, n in ((2, 4), (1, Fraction(61, 2)), (4, Fraction(21, 10))):
        res = B.k_fourier(q_of(d, n))
        assert res.diagnostics["converged"]
        points = res.diagnostics["evaluations"]
        assert rounds[-1] <= points <= min(3 * rounds[-1], 60), (d, n, rounds, points)


def test_k_fourier_rule_calls_per_round(monkeypatch):
    # off the closed sum every search round makes one rule call for both
    # norms at all live starts, and the reported h/2 value one call per
    # exp-sinh offset: 1 at d = 1, 2 at d >= 2 (the parent's sequential
    # search made 38-78 block calls per d = 1 table1 cell)
    from sobomul import tables
    calls, rounds = [], []
    block, inner = G._gaussian_rule_block, B.maximize_2d

    def counting_block(*args):
        calls[-1] += 1
        return block(*args)

    def counting_search(f, *args, **kwargs):
        def g(p, sigma):
            rounds[-1] += 1
            return f(p, sigma)
        return inner(g, *args, **kwargs)

    monkeypatch.setattr(B, "_gaussian_rule_block", counting_block)
    monkeypatch.setattr(G, "_gaussian_rule_block", counting_block)
    monkeypatch.setattr(B, "maximize_2d", counting_search)
    cells = [q for d in (1, 2) for q in tables.table1_queries(d)
             if B._BB_SWITCH < q.n_gap and q.n <= B._FF_SWITCH and not q.n_is_integer]
    cells.append(q_of(7, Fraction(73, 10)))
    for q in cells:
        calls.append(0)
        rounds.append(0)
        B.k_fourier(q)
        assert calls[-1] == rounds[-1] + (1 if q.d == 1 else 2), (q.d, q.n_exact)
        assert q.d > 1 or calls[-1] <= 16, (q.n_exact, calls[-1])
    assert len(cells) == 10


def _simplex_sample():
    """40 (d, n) points of the d = 1..10, n <= 50 grid: one gap in
    0.11..0.4 at each d = 4..10, where the Gaussian trials sit closest to
    the (BB) switch; three integer n per d; three d = 1 rule cells."""
    gaps = (Fraction(11, 100), Fraction(1, 5), Fraction(3, 10), Fraction(2, 5))
    small_gaps = [(d, Fraction(d, 2) + gaps[d % 4]) for d in range(4, 11)]
    integer_n = [(d, n) for d in range(1, 11) for n in (d // 2 + 1, 8 + 2 * d, 50 - d)]
    d1_rule = [(1, Fraction(7, 2)), (1, Fraction(31, 2)), (1, Fraction(61, 2))]
    return small_gaps + integer_n + d1_rule


def test_k_fourier_newton_matches_or_beats_simplex():
    # K^F from the Newton search is never below K^F at the argmax of the
    # Nelder-Mead simplex it replaced, run from the same starts on the same
    # objective values, beyond 1e-12 relative
    points = _simplex_sample()
    assert len(points) >= 40
    for d, n in points:
        q = q_of(d, n)
        objective = B._fourier_search_objective(q)
        simplex = maximize_2d_simplex(lambda p, s: objective(np.array([p]), np.array([s]))[0][0],
                                      B._fourier_starts(q.n))
        log_simplex = B._log_fourier_quotient(q, *simplex.argmax, B.LOWER_TOL)[0]
        newton = B.k_fourier(q).value
        assert newton >= math.exp(log_simplex) * (1.0 - 1e-12), (d, n)


def test_k_fourier_matches_the_sequential_search():
    # K^F at the 40 simplex-sample points and the 9 non-integer (F) cells of
    # table1 d = 1, 2, and K^FF at three n > 50, as the search that ran its
    # starts one after another and each norm block by block recorded them
    # (tests/golden/fourier_pins.json).  The values agree to 1e-13
    # relative; the argmax of that flat maximum may move in its seventh
    # digit, where the two searches' last accepted steps part on rounding.
    pins = json.loads((Path(__file__).parent / "golden" / "fourier_pins.json").read_text())
    assert len(pins["k_fourier"]) == 46 and len(pins["k_fourier_fixed"]) == 3
    for pin in pins["k_fourier"]:
        res = B.k_fourier(q_of(pin["d"], Fraction(pin["n"])))
        assert rel_err(res.value, pin["value"]) <= 1e-13, pin
        assert rel_err(res.argmax.p, pin["p"]) <= 1e-5, pin
        assert rel_err(res.argmax.sigma, pin["sigma"]) <= 1e-5, pin
    for pin in pins["k_fourier_fixed"]:
        res = B.k_fourier_fixed(q_of(pin["d"], Fraction(pin["n"])))
        assert rel_err(res.value, pin["value"]) <= 1e-13, pin


def test_k_fourier_two_two():
    res = B.k_fourier(q_of(2, 2))
    assert abs(res.argmax.p - 0.511) <= 0.02
    assert abs(res.argmax.sigma - 1.05) <= 0.05
    assert rel_err(res.value, 0.2979629970907) < 1e-5


def test_k_fourier_sixteen_two_ratio():
    res = B.k_fourier(q_of(2, 16))
    kp = B.k_plus(q_of(2, 16)).value
    assert -0.002 <= res.value / kp - 0.788 <= 0.01


def test_k_fourier_fixed_large_n_law():
    # K^FF over the large-n law tends to (5/3)^(1/2)/7^(1/4); within 2%
    # at n = 200, d = 1
    q = q_of(1, 200)
    val = B.k_fourier_fixed(q).value / B.k_plus_asymp_large(q)
    assert abs(val / (math.sqrt(5.0 / 3.0) / 7.0 ** 0.25) - 1.0) < 0.02


# ----------------------------------------------------------------------
# best lower bound and sandwich structure
# ----------------------------------------------------------------------

def test_best_lower_method_selection():
    assert B.best_lower(q_of(2, 2)).kind == "lower_bessel"
    r72 = B.best_lower(q_of(2, 7))
    assert r72.kind == "lower_fourier"
    assert -0.002 <= r72.value / B.k_plus(q_of(2, 7)).value - 0.772 <= 0.01
    assert B.best_lower(q_of(1, Fraction(121, 2))).kind == "lower_fourier_ff"
    assert B.best_lower(BoundQuery(d=2, n=1.0 + 1e-3)).kind == "lower_bessel_bb"


def test_sandwich_property():
    rng = np.random.default_rng(77)
    for _ in range(6):
        d = int(rng.integers(1, 5))
        nd = float(np.exp(rng.uniform(np.log(0.02), np.log(20.0))))
        q = BoundQuery(d=d, n=d / 2.0 + nd)
        low = B.best_lower(q)
        up = B.k_plus(q)
        upp = B.k_plus_plus(q, B.envelope_residual_sup(d).big_z)
        assert low.value < up.value
        assert up.value <= upp.value * (1.0 + 1e-9)
        assert 0.70 <= low.value / up.value <= 0.95


def test_multiplication_inequality_at_sample_points():
    # ||f g||_n <= K+ ||f||_n ||g||_n for products of the Gaussian trial
    # family, whose product is again in the family.
    rng = np.random.default_rng(5)
    q = q_of(2, 3)
    kp = B.k_plus(q).value
    for _ in range(5):
        p1, p2 = rng.uniform(0.2, 1.0, 2)
        s1, s2 = rng.uniform(0.3, 2.0, 2)
        norm_fg = math.sqrt(B.gaussian_trial_norm_sq(q, p1 + p2, s1 + s2,
                                                     validate=False))
        norm_f = math.sqrt(B.gaussian_trial_norm_sq(q, p1, s1, validate=False))
        norm_g = math.sqrt(B.gaussian_trial_norm_sq(q, p2, s2, validate=False))
        assert norm_fg <= kp * norm_f * norm_g * (1.0 + 1e-9)


def test_trial_params_validation():
    with pytest.raises(ValueError):
        B.TrialParams()
    with pytest.raises(ValueError):
        B.TrialParams(u=1.0, lam=1.0)
    with pytest.raises(ValueError):
        B.TrialParams(p=1.0)
    assert B.TrialParams(p=1.0, sigma=2.0).as_tuple() == (1.0, 2.0)


def test_tags():
    assert B.TAG_BY_KIND["lower_bessel"] == "(B)"
    assert B.TAG_BY_KIND["lower_fourier_ff"] == "(FF)"


@pytest.mark.parametrize("d", range(1, 11))
def test_best_lower_across_the_ff_switch(d):
    # each route is continuous up to the switch at n = 50, so best_lower
    # steps there by the frozen pair's loss against the (F) search at
    # n = 50, downward (0.94-0.98)
    below = [B.best_lower(BoundQuery(d=d, n=50.0 - h)) for h in (2e-7, 1e-7)]
    above = [B.best_lower(BoundQuery(d=d, n=50.0 + h)) for h in (1e-7, 2e-7)]
    assert [r.tag for r in below + above] == ["(F)"] * 2 + ["(FF)"] * 2
    for pair in (below, above):
        assert abs(pair[1].value / pair[0].value - 1.0) <= 1e-5
    at = BoundQuery(d=d, n=50.0)
    step = B.k_fourier_fixed(at).value / B.k_fourier(at).value
    assert step < 1.0
    assert abs(above[0].value / below[1].value / step - 1.0) <= 1e-5

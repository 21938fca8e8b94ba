"""Bound evaluators: published spot values, two-path norm checks, sandwich
and asymptotic invariants."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from oracles.gauss_kronrod import TailSpec, integrate_finite, integrate_semiinf
from sobomul import bounds as B
from sobomul.kernels import BoundQuery, DomainError


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


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_k_plus_raises_when_boundary_curve_is_not_finite():
    # at (3, 2000) every curve value on the bracket walk underflows to
    # -inf, so the search leaves through the boundary without having seen
    # the curve; returning the u -> inf limit would report K+ ~ 7e-4
    # against K- ~ 4e121
    with pytest.raises(ArithmeticError):
        B.k_plus(q_of(3, 2000))


def test_k_plus_warm_start_agrees():
    q = q_of(2, 7)
    cold = B.k_plus(q).value
    warm = B.k_plus(q, warm_start_u=1.2).value
    assert rel_err(cold, warm) < 1e-9


# ----------------------------------------------------------------------
# asymptotic constants and laws
# ----------------------------------------------------------------------

def test_asymp_constants_recomputable():
    from sobomul.specfun import EULER_GAMMA, digamma, gamma
    for d in range(1, 11):
        c = B.AsympConstants.for_dimension(d)
        m_d = 1.0 / (2.0 ** (d / 2.0 - 0.5) * math.pi ** (d / 4.0)
                     * math.sqrt(gamma(d / 2.0)))
        n_d = 0.5 * (digamma(d / 2.0) + EULER_GAMMA)
        t_d = 3.0 ** (d / 4.0 + 0.25) / (2.0 ** d * math.pi ** (d / 4.0))
        v_d = math.log(math.sqrt(3.0) / 2.0) + 0.5 + 3.0 / d - n_d
        assert abs(c.amp_small - m_d) <= 1e-13 * abs(m_d)
        assert abs(c.slope_small - n_d) <= 1e-13 * max(1.0, abs(n_d))
        assert abs(c.amp_large - t_d) <= 1e-13 * abs(t_d)
        assert abs(c.drift - v_d) <= 1e-13 * max(1.0, abs(v_d))


def test_slope_constant_d1_is_minus_log2():
    assert abs(B.AsympConstants.for_dimension(1).slope_small + math.log(2.0)) < 1e-13


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


# ----------------------------------------------------------------------
# elementary envelope
# ----------------------------------------------------------------------

def test_k_plus_log_gamma_count(monkeypatch):
    # the Gamma constants of the upper curve and of the kernel's Euler
    # integral are computed once per query, so a search makes a fixed number
    # of log_gamma calls whatever its number of evaluations
    from sobomul import specfun
    calls = []
    inner = specfun.log_gamma

    def counting(x):
        calls.append(x)
        return inner(x)

    monkeypatch.setattr(specfun, "log_gamma", counting)
    # (3, 40) sums the series at every point; (2, 33/10) also takes the
    # Euler route once
    for d, n, want in ((3, 40.0, 2), (2, 3.3, 4)):
        calls.clear()
        res = B.k_plus(BoundQuery(d=d, n=n))
        assert res.diagnostics["route"] == "maximize"
        assert res.diagnostics["evaluations"] >= 15
        assert len(calls) == want, (d, n, len(calls))


def test_residual_scan_searches_converge(monkeypatch):
    # every k_plus of the d = 1 and d = 10 scans either converges in its
    # search or takes the closed-form limit (gap <= 1/2); none leaves
    # through the bracket boundary.  The scans run uncached (__wrapped__),
    # which leaves the per-process cache to the other tests.
    results = []
    inner = B.k_plus

    def recording(q, warm_start_u=None):
        res = inner(q, warm_start_u)
        results.append(res)
        return res

    monkeypatch.setattr(B, "k_plus", recording)
    for d in (1, 10):
        results.clear()
        grid = B.default_residual_grid(d)
        B._residual_scan.__wrapped__(d, grid)
        routes = [r.diagnostics["route"] for r in results]
        assert len(routes) == len(grid) == 400
        assert routes.count("maximize") == 220, d
        assert routes.count("closed_form_limit") == 180, d
        assert all(r.diagnostics["converged"] for r in results
                   if r.diagnostics["route"] == "maximize"), d


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

    from sobomul.specfun import gamma
    res = integrate_semiinf(f, 0.0, TailSpec(2.0 * n - d), tol=1e-11)
    want = 2.0 * math.pi ** (d / 2.0) / gamma(d / 2.0) / lam ** (2.0 * d) * res.value
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
    from sobomul.specfun import gamma, log_gamma
    n, d = 2.0, 2
    q = q_of(2, 2)
    for lam in (0.5, 1.0, 2.0):
        def f_norm(rho):
            return (rho ** (d - 1.0) * (1.0 + rho * rho) ** n
                    * (1.0 + rho * rho / lam ** 2) ** (-2.0 * n))

        norm_quad = (2.0 * math.pi ** (d / 2.0) / gamma(d / 2.0)
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


def test_k_bessel_domain_guard():
    with pytest.raises(DomainError):
        B.k_bessel(BoundQuery(d=2, n=1.0 + 1e-4))
    with pytest.raises(DomainError):
        B.bessel_trial_sq_norm_sq(BoundQuery(d=2, n=1.0 + 1e-4), 1.4)


def test_bessel_sq_norm_tol_bounds_rule_error():
    # tol caps the measured |I_h/2 - I_h| / I_h/2 of the exp-sinh rule
    q = q_of(2, Fraction(101, 100))
    _log_int, rule_error, _nodes = B._log_sq_norm_refined(
        q, B._sq_norm_nodes(q, 0.0), 1.4, 1.0)
    assert 0.0 < rule_error < 1e-12
    assert B.bessel_trial_sq_norm_sq(q, 1.4, tol=rule_error) > 0.0
    with pytest.raises(ArithmeticError):
        B.bessel_trial_sq_norm_sq(q, 1.4, tol=0.5 * rule_error)


def test_k_bessel_evaluates_kernel_twice(monkeypatch):
    # one vector kernel call on the h-rule nodes, one on the midpoints for
    # the reported value, and no adaptive quadrature, whatever the gap: the
    # package has none (the Gauss-Kronrod drivers are test oracles)
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
        assert calls["kernel"] <= 2, (d, n, calls)
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


# ----------------------------------------------------------------------
# Gaussian trial norms and Fourier bounds
# ----------------------------------------------------------------------

def test_gaussian_norm_two_path():
    # integer n: closed sum against the Cartesian rule
    val = B.gaussian_trial_norm_sq(q_of(2, 2), 0.511, 1.05, validate=True)
    assert val > 0.0


def test_gaussian_sum_tables_log_gamma_count(monkeypatch):
    # the closed-sum tables index one vector of log k! (k <= 2n) and one of
    # log Gamma(d/2 - 1/2 + k) (k <= n): 3n + 2 log_gamma calls in all
    from sobomul import specfun
    calls = []
    inner = specfun.log_gamma

    def counting(x):
        calls.append(x)
        return inner(x)

    n = 50
    monkeypatch.setattr(specfun, "log_gamma", counting)
    B._gaussian_sum_tables.cache_clear()
    try:
        B._gaussian_sum_tables(n, 2)
    finally:
        B._gaussian_sum_tables.cache_clear()
    assert len(calls) <= 3 * n + 2, len(calls)


def test_gaussian_norm_gaussian_limit():
    # the n = 0 closed sum collapses to the plain Gaussian L2 norm
    # pi^(d/2) sigma^(-d/2)
    lgc, pe, se = B._gaussian_sum_tables(0, 3)
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
        rule = B._log_gaussian_norm_sq_refined(q, p, sigma, 1e-10)[0]
        closed = B._log_gaussian_norm_sq_sum(q, p, sigma)
        worst = max(worst, abs(math.expm1(rule - closed)))
    assert worst <= 1e-12, worst


def test_gaussian_norm_tol_bounds_rule_error():
    # tol caps the measured |I_h/2 - I_h| / I_h/2 of the Gaussian-norm rule
    q, p, sigma = q_of(1, Fraction(61, 2)), 0.2, 0.038
    _log_norm, rule_error, _nodes = B._log_gaussian_norm_sq_refined(q, p, sigma, 1.0)
    assert 0.0 < rule_error < 1e-12
    assert B.log_gaussian_trial_norm_sq(q, p, sigma, tol=rule_error) > 0.0
    with pytest.raises(ArithmeticError):
        B.log_gaussian_trial_norm_sq(q, p, sigma, tol=0.5 * rule_error)


def test_fourier_diagnostics_name_norm_route():
    closed = B.k_fourier_fixed(q_of(2, 4)).diagnostics
    assert closed == {"route": "closed_sum"}
    for res, tol in ((B.k_fourier_fixed(q_of(1, 60)), B._FF_TOL),
                     (B.k_fourier(q_of(1, Fraction(61, 2))), B.LOWER_TOL)):
        assert res.diagnostics["route"] == "rule"
        assert res.diagnostics["nodes"] > 0
        assert 0.0 <= res.diagnostics["rule_error"] <= tol


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

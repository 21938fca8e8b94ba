"""Quadrature: the tanh-sinh rule of ``sobomul.quad``, and the adaptive
Gauss-Kronrod drivers of the test oracles (closed-form corpus,
error-estimate honesty, endpoint singularities and tail handling)."""

import math

import numpy as np
import pytest

from oracles import gauss_kronrod as gk
from sobomul import quad
from sobomul.specfun import gamma, hyp2f1, log_gamma


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


# ----------------------------------------------------------------------
# finite intervals
# ----------------------------------------------------------------------

def test_inverse_sqrt_endpoint():
    res = gk.integrate_finite(lambda s: 1.0 / np.sqrt(s), 0.0, 1.0)
    assert res.converged
    assert rel_err(res.value, 2.0) < 1e-12


def test_euler_integral_reproduces_log2():
    # int_0^1 s^(b-1) (1-s)^(c-b-1) (1-w s)^(-a) ds at (a,b,c,w)=(1,1,2,-1)
    # equals (Gamma(1)Gamma(1)/Gamma(2)) F(1,1,2;-1) = log 2
    res = gk.integrate_finite(lambda s: 1.0 / (1.0 + s), 0.0, 1.0)
    assert rel_err(res.value, math.log(2.0)) < 1e-12


def test_sharp_laplace_integrand():
    # int_0^(3/4) t^(-1/2) (1-t)^(-1) exp(-m log(1+t/3)) dt at m = 400
    # approaches sqrt(3 pi / m); agreement within 1%.
    m = 400.0

    def f(t):
        return np.exp(-0.5 * np.log(t) - np.log1p(-t) - m * np.log1p(t / 3.0))

    res = gk.integrate_finite(f, 0.0, 0.75, tol=1e-11)
    assert res.converged
    assert rel_err(res.value, math.sqrt(3.0 * math.pi / m)) < 0.01


def test_converged_implies_error_below_tolerance():
    for tol in (1e-6, 1e-9, 1e-11):
        res = gk.integrate_finite(lambda s: np.cos(3.0 * s) * np.exp(-s), 0.0, 5.0, tol=tol)
        assert res.converged
        assert res.abs_error_estimate <= max(tol * abs(res.value), 1e-305)


# ----------------------------------------------------------------------
# semi-infinite intervals
# ----------------------------------------------------------------------

def test_exponential_tail():
    res = gk.integrate_semiinf(lambda u: np.exp(-u), 0.0, gk.TailSpec(40.0))
    assert rel_err(res.value, 1.0) < 1e-11


def test_beta_type_integral():
    # int_0^inf u^(sigma-1) (1+u)^(-gamma) du = G(s)G(g-s)/G(g), (1.5, 4)
    res = gk.integrate_semiinf(lambda u: np.sqrt(u) / (1.0 + u) ** 4,
                                 0.0, gk.TailSpec(2.5))
    want = gamma(1.5) * gamma(2.5) / gamma(4.0)
    assert rel_err(res.value, want) < 1e-11


def test_cross_module_hypergeometric_identity():
    # int_0^inf u^(b-1) (1+u)^(a-c) (1+w u)^(-a) du
    #   = G(b) G(c-b)/G(c) F(a, b, c; 1-w) at (a, c, b, w) = (2, 5, 1.5, 0.3)
    a, c, b, w = 2.0, 5.0, 1.5, 0.3

    def f(u):
        return np.exp((b - 1.0) * np.log(u) + (a - c) * np.log1p(u)
                      - a * np.log1p(w * u))

    res = gk.integrate_semiinf(f, 0.0, gk.TailSpec(c - b), tol=1e-11)
    want = math.exp(log_gamma(b) + log_gamma(c - b) - log_gamma(c)) \
        * hyp2f1(a, b, c, 1.0 - w)
    assert rel_err(res.value, want) < 1e-9


def test_slow_tail_error():
    with pytest.raises(gk.SlowTailError):
        gk.integrate_semiinf(lambda u: (1.0 + u) ** -1.005, 0.0,
                               gk.TailSpec(0.005))
    with pytest.raises(ValueError):
        gk.TailSpec(0.0)


# ----------------------------------------------------------------------
# corpus: error-estimate honesty and tolerance monotonicity
# ----------------------------------------------------------------------

def _corpus():
    """50 closed-form integrals: (runner(tol) -> QuadResult, exact value)."""
    cases = []
    for k in range(1, 11):  # polynomials t^k on (0, 2)
        cases.append((lambda tol, k=k: gk.integrate_finite(
            lambda t: t ** float(k), 0.0, 2.0, tol=tol), 2.0 ** (k + 1) / (k + 1)))
    for a in (0.5, 1.0, 2.0, 3.5, 7.0):  # exponentials
        cases.append((lambda tol, a=a: gk.integrate_finite(
            lambda t: np.exp(-a * t), 0.0, 10.0, tol=tol),
            (1.0 - math.exp(-10.0 * a)) / a))
    for w in (1.0, 3.0, 8.0):  # oscillatory
        cases.append((lambda tol, w=w: gk.integrate_finite(
            lambda t: np.sin(w * t), 0.0, 1.0, tol=tol), (1.0 - math.cos(w)) / w))
    for p in (0.5, 0.25, 0.75):  # left-endpoint singularities t^(p-1)
        cases.append((lambda tol, p=p: gk.integrate_finite(
            lambda t: t ** (p - 1.0), 0.0, 1.0, tol=tol), 1.0 / p))
    for (al, be) in ((0.5, 0.5), (0.5, 1.5), (1.5, 2.5)):  # beta integrals
        cases.append((lambda tol, al=al, be=be: gk.integrate_finite(
            lambda t: t ** (al - 1.0) * (1.0 - t) ** (be - 1.0), 0.0, 1.0, tol=tol),
            math.exp(log_gamma(al) + log_gamma(be) - log_gamma(al + be))))
    for mu in (0.5, 1.0, 2.0):  # gaussians
        cases.append((lambda tol, mu=mu: gk.integrate_finite(
            lambda t: np.exp(-((t - mu) ** 2)), -6.0 + mu, 6.0 + mu, tol=tol),
            math.sqrt(math.pi)))
    for (s, g) in ((0.5, 2.0), (1.5, 4.0), (2.0, 3.5), (0.25, 1.0)):  # algebraic tails
        cases.append((lambda tol, s=s, g=g: gk.integrate_semiinf(
            lambda u: u ** (s - 1.0) * (1.0 + u) ** (-g), 0.0,
            gk.TailSpec(g - s), tol=tol),
            math.exp(log_gamma(s) + log_gamma(g - s) - log_gamma(g))))
    for a in (1.0, 4.0):  # exponential tails
        cases.append((lambda tol, a=a: gk.integrate_semiinf(
            lambda u: np.exp(-a * u) * np.sqrt(u), 0.0, gk.TailSpec(30.0), tol=tol),
            0.5 * math.sqrt(math.pi) / a ** 1.5))
    for k in (1, 2):  # log-weighted
        cases.append((lambda tol, k=k: gk.integrate_finite(
            lambda t: np.log(t) ** (2 * k), 0.0, 1.0, tol=tol),
            float(math.factorial(2 * k))))
    for c in (0.3, 0.6, 0.9):  # rational
        cases.append((lambda tol, c=c: gk.integrate_finite(
            lambda t: 1.0 / (1.0 + c * t * t), 0.0, 1.0, tol=tol),
            math.atan(math.sqrt(c)) / math.sqrt(c)))
    for b in (2.0, 5.0):  # shifted powers with sqrt endpoint at both ends
        cases.append((lambda tol, b=b: gk.integrate_finite(
            lambda t: 1.0 / np.sqrt(t * (b - t)), 0.0, b, tol=tol), math.pi))
    for m in (20.0, 60.0):  # peaked laplace-type
        cases.append((lambda tol, m=m: gk.integrate_finite(
            lambda t: np.exp(-m * t * t), -1.0, 1.0, tol=tol),
            math.sqrt(math.pi / m) * math.erf(math.sqrt(m))))
    for s in (0.75, 1.25):  # product forms
        cases.append((lambda tol, s=s: gk.integrate_finite(
            lambda t: t ** s * np.exp(-t), 0.0, 40.0, tol=tol), gamma(s + 1.0)))
    for a in (1.0, 2.0):  # damped oscillation on the half line
        cases.append((lambda tol, a=a: gk.integrate_semiinf(
            lambda u: np.exp(-a * u) * np.cos(u), 0.0, gk.TailSpec(30.0), tol=tol),
            a / (1.0 + a * a)))
    for b in (1.0, 4.0):  # sqrt singularity with a rational factor
        cases.append((lambda tol, b=b: gk.integrate_finite(
            lambda t: 1.0 / (np.sqrt(t) * (1.0 + t)), 0.0, b, tol=tol),
            2.0 * math.atan(math.sqrt(b))))
    cases.append((lambda tol: gk.integrate_semiinf(
        lambda u: u / (1.0 + u * u) ** 2, 0.0, gk.TailSpec(2.0), tol=tol), 0.5))
    cases.append((lambda tol: gk.integrate_semiinf(
        lambda u: u * u * np.exp(-u * u), 0.0, gk.TailSpec(30.0), tol=tol),
        0.25 * math.sqrt(math.pi)))
    return cases


def test_corpus_size_and_honesty():
    cases = _corpus()
    assert len(cases) >= 50
    honest = 0
    for runner, exact in cases:
        res = runner(1e-9)
        true_err = abs(res.value - exact)
        if true_err <= 3.0 * res.abs_error_estimate + 1e-14 * abs(exact):
            honest += 1
    assert honest >= math.ceil(0.95 * len(cases)), f"honest {honest}/{len(cases)}"


def test_corpus_tolerance_monotonicity():
    for runner, exact in _corpus():
        e_loose = abs(runner(2e-7).value - exact)
        e_tight = abs(runner(1e-7).value - exact)
        assert e_tight <= e_loose + 5e-15 * max(1.0, abs(exact))


# ----------------------------------------------------------------------
# tanh-sinh
# ----------------------------------------------------------------------

def test_tanh_sinh_beta():
    val, err, _ = quad.tanh_sinh_01(lambda s, oms: s ** -0.5 * oms ** -0.5)
    assert rel_err(val, math.pi) < 1e-12
    val, err, _ = quad.tanh_sinh_01(lambda s, oms: np.exp(s))
    assert rel_err(val, math.e - 1.0) < 1e-12
    val, err, _ = quad.tanh_sinh_01(lambda s, oms: s ** -0.25 * oms ** -0.75)
    want = math.exp(log_gamma(0.75) + log_gamma(0.25) - log_gamma(1.0))
    assert rel_err(val, want) < 1e-11


def test_tanh_sinh_beta_bitwise():
    # (value, error estimate, evaluations) of the three integrals above, bit
    # for bit as recorded with node tables rebuilt on every call (numpy 2.4,
    # x86-64: the bits depend on the platform's exp, sinh and cosh)
    cases = (
        (lambda s, oms: s ** -0.5 * oms ** -0.5,
         ("0x1.921fb54442d18p+1", "0x1.8000000000000p-50", 107)),
        (lambda s, oms: np.exp(s),
         ("0x1.b7e151628aed2p+0", "0x1.0000000000000p-52", 215)),
        (lambda s, oms: s ** -0.25 * oms ** -0.75,
         ("0x1.1c5831add62e4p+2", "0x0.0p+0", 107)),
    )
    for g, want in cases:
        val, err, nev = quad.tanh_sinh_01(g)
        assert (float(val).hex(), float(err).hex(), nev) == want


def test_tanh_sinh_nodes_built_once():
    # each level's (s, 1-s, w) tables are built at most once per process and
    # are read-only, so no integrand can alter the shared nodes
    quad.tanh_sinh_01(lambda s, oms: np.exp(s))
    for tol in (1e-6, 1e-12, 1e-14):
        quad.tanh_sinh_01(lambda s, oms: s ** -0.5 * oms ** -0.5, tol=tol)
        quad.tanh_sinh_01(lambda s, oms: np.cos(40.0 * s), tol=tol)
    info = quad._ts_level.cache_info()
    assert info.currsize == info.misses <= quad._TS_MAX_LEVEL + 1
    assert info.hits > info.misses
    for level in range(info.currsize):
        for table in quad._ts_level(level):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.0

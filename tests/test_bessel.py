"""Bessel J / K tests against series oracles, closed forms and scipy."""

import math

import numpy as np
import pytest

from sobomul import bessel as bs
from sobomul.quad import integrate_finite
from sobomul.specfun import log_gamma


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def j_series_oracle(nu, x, terms=400):
    total = 0.0
    lg = math.lgamma(nu + 1.0)
    term = math.exp(nu * math.log(0.5 * x) - lg)
    for k in range(terms):
        total += term
        term *= -(0.25 * x * x) / ((k + 1.0) * (nu + k + 1.0))
    return total


def k_gamma_rep_oracle(nu, x):
    """K_nu(x) = sqrt(pi) (x/2)^nu / Gamma(nu+1/2) *
    int_1^inf exp(-x t) (t^2-1)^(nu-1/2) dt  -- independent of the cosh
    integral used by the implementation.  Written in the shifted variable
    s = t - 1 so the endpoint factor s (s + 2) never cancels."""
    hi = 200.0 / x

    def f(s):
        return np.exp(-x * s) * (s * (s + 2.0)) ** (nu - 0.5)

    res = integrate_finite(f, 0.0, hi, tol=1e-11)
    pref = math.exp(0.5 * math.log(math.pi) + nu * math.log(0.5 * x)
                    - log_gamma(nu + 0.5) - x)
    return pref * res.value


# ----------------------------------------------------------------------
# J
# ----------------------------------------------------------------------

def test_j_half_order_at_pi():
    # J_{1/2}(x) = sqrt(2/(pi x)) sin x vanishes at pi
    assert abs(bs.bessel_j(0.5, math.pi)) < 1e-12


def test_j_small_argument_limit():
    assert rel_err(bs.bessel_j(0.0, 1e-8), 1.0) < 1e-12


def test_j_one_one():
    got = bs.bessel_j(1.0, 1.0)
    assert rel_err(got, j_series_oracle(1.0, 1.0)) < 1e-13
    assert rel_err(got, 0.4400505857) < 1e-9


def test_j_against_series_oracle_sweep():
    rng = np.random.default_rng(17)
    for _ in range(100):
        nu = float(rng.uniform(-0.5, 3.0))
        x = float(rng.uniform(0.05, 11.0))
        got = bs.bessel_j(nu, x)
        want = j_series_oracle(nu, x)
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


def test_j_large_argument_vs_scipy():
    scipy_special = pytest.importorskip("scipy.special")
    for nu in (0.0, 0.5, 1.0, 2.5):
        for x in (13.0, 20.0, 35.0, 50.0):
            want = float(scipy_special.jv(nu, x))
            assert abs(bs.bessel_j(nu, x) - want) <= 1e-10 * max(abs(want), 0.05)


# ----------------------------------------------------------------------
# K
# ----------------------------------------------------------------------

def test_k_half_order_closed_form():
    # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
    got = bs.bessel_k(0.5, 1.0)
    assert rel_err(got, math.sqrt(math.pi / 2.0) * math.exp(-1.0)) < 1e-12
    assert rel_err(got, 0.4610685044) < 1e-9


def test_k_even_in_order():
    assert bs.bessel_k(0.3, 2.0) == bs.bessel_k(-0.3, 2.0)


def test_k_zero_order():
    got = bs.bessel_k(0.0, 1.0)
    assert rel_err(got, k_gamma_rep_oracle(0.0, 1.0)) < 1e-10
    assert rel_err(got, 0.4210244382) < 1e-9


def test_k_against_gamma_rep_oracle():
    for nu in (0.0, 0.25, 1.0, 2.5):
        for x in (0.05, 0.7, 3.0, 12.0):
            got = bs.bessel_k(nu, x)
            want = k_gamma_rep_oracle(nu, x)
            assert rel_err(got, want) < 1e-9


def test_k_range_contract_vs_scipy():
    scipy_special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(43)
    for _ in range(120):
        nu = float(rng.uniform(0.0, 5.0))
        x = float(np.exp(rng.uniform(np.log(1e-3), np.log(100.0))))
        want = float(scipy_special.kve(nu, x))
        assert rel_err(bs.bessel_k(nu, x, scaled=True), want) < 1e-10


def test_k_vectorized():
    xs = np.array([0.01, 0.5, 2.0, 30.0])
    vec = bs.bessel_k(1.5, xs)
    for x, v in zip(xs, vec):
        assert rel_err(v, bs.bessel_k(1.5, float(x))) < 1e-13


def test_domain_errors():
    with pytest.raises(ValueError):
        bs.bessel_j(0.5, -1.0)
    with pytest.raises(ValueError):
        bs.bessel_k(0.5, -2.0)

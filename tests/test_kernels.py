"""Kernel-function tests: representation agreement, boundary values,
positivity, and the test oracles' Macdonald profile and J*K^2 moment."""

import math
from fractions import Fraction

import numpy as np
import pytest

from oracles.gauss_kronrod import integrate_finite
from oracles.macdonald import bessel_macdonald_moment, macdonald_profile
from sobomul import kernels as K
from sobomul import specfun as sf
from sobomul.bessel import bessel_j, bessel_k
from sobomul.bounds import default_residual_grid
from sobomul.kernels import (BoundQuery, DomainError, hyper_kernel,
                             log_hyper_kernel, upper_curve, upper_curve_limit)


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


# ----------------------------------------------------------------------
# BoundQuery
# ----------------------------------------------------------------------

def test_query_validation():
    with pytest.raises(DomainError):
        BoundQuery(d=1, n=0.4)
    with pytest.raises(DomainError):
        BoundQuery(d=2, n=1.0)
    with pytest.raises(DomainError):
        BoundQuery(d=0, n=1.0)


def test_gap_detection():
    assert BoundQuery(d=2, n=2.5, n_exact=Fraction(5, 2)).gap_order == 1
    assert BoundQuery(d=1, n=1.0, n_exact=Fraction(1)).gap_order == 0
    assert BoundQuery(d=2, n=2.0, n_exact=Fraction(2)).gap_order is None
    # tolerance-based detection without the exact field
    assert BoundQuery(d=2, n=2.5).is_gap
    assert not BoundQuery(d=2, n=2.5 + 1e-9).is_gap
    # exact rationals bypass the tolerance
    q = BoundQuery(d=2, n=2.5 + 1e-13, n_exact=Fraction(5, 2) + Fraction(1, 10 ** 13))
    assert not q.is_gap


def test_closed_form_flag_and_integer_flag():
    assert BoundQuery(d=1, n=0.75).has_closed_form_upper
    assert BoundQuery(d=1, n=1.0).has_closed_form_upper
    assert not BoundQuery(d=1, n=1.01).has_closed_form_upper
    assert BoundQuery(d=3, n=2.0, n_exact=Fraction(2)).n_is_integer
    assert not BoundQuery(d=3, n=2.5, n_exact=Fraction(5, 2)).n_is_integer


# ----------------------------------------------------------------------
# the hypergeometric kernel
# ----------------------------------------------------------------------

def test_kernel_at_zero_is_one():
    for (n, d) in [(1.0, 1), (2.0, 2), (3.75, 3), (121.0, 2)]:
        assert rel_err(hyper_kernel(BoundQuery(d=d, n=n), 0.0), 1.0) < 1e-13


def test_kernel_two_representations_agree():
    # F(2n-d/2, n, n+1/2; -u) against its Kummer transform
    # (1+u)^(-n) F(n, d/2+1/2-n, n+1/2; u/(1+u)), via the generic evaluator.
    rng = np.random.default_rng(37)
    worst = 0.0
    for _ in range(60):
        d = int(rng.integers(1, 5))
        n = float(rng.uniform(d / 2.0 + 0.05, 6.0))
        u = float(np.exp(rng.uniform(np.log(1e-3), np.log(50.0))))
        direct = sf.hyp2f1(2.0 * n - d / 2.0, n, n + 0.5, -u)
        transformed = (1.0 + u) ** (-n) * sf.hyp2f1(n, d / 2.0 + 0.5 - n,
                                                    n + 0.5, u / (1.0 + u))
        worst = max(worst, rel_err(direct, transformed))
        q = BoundQuery(d=d, n=n)
        worst = max(worst, rel_err(hyper_kernel(q, u), direct))
    assert worst <= 1e-10


def test_kernel_gap_form_matches_transformed():
    # (n, d) = (5/2, 2): the kernel takes the terminating form at this
    # half-integer gap; against the generic 2F1 at u = 1
    q = BoundQuery(d=2, n=2.5, n_exact=Fraction(5, 2))
    assert q.is_gap
    a = hyper_kernel(q, 1.0)
    b = sf.hyp2f1(2.0 * 2.5 - 1.0, 2.5, 3.0, -1.0)
    assert rel_err(a, b) < 1e-10


def test_kernel_two_two_at_one():
    # F(3, 2, 5/2; -1) via brute-force series on the transformed argument
    got = hyper_kernel(BoundQuery(d=2, n=2.0), 1.0)
    # oracle: positive series of F(3, 1/2, 5/2; 1/2) times (1+u)^(1/2 - 3)
    term, total = 1.0, 1.0
    for ell in range(400):
        term *= (3.0 + ell) * (0.5 + ell) / ((2.5 + ell) * (ell + 1.0)) * 0.5
        total += term
    want = 2.0 ** (1.0 - 2.0 * 2.0) * total
    assert rel_err(got, want) < 1e-12


def test_kernel_positive_everywhere():
    q = BoundQuery(d=3, n=2.2)
    u = np.geomspace(1e-8, 1e10, 40)
    assert np.all(hyper_kernel(q, u) > 0.0)


# ----------------------------------------------------------------------
# the float path's series, in blocks of terms
# ----------------------------------------------------------------------

def test_scalar_series_equals_loop_bitwise(series_loop):
    # d = 1..10, every residual-scan gap above 1/2, u in [1e-6, 9] (w <= 0.9):
    # the float path equals the term-by-term loop exactly wherever it sums
    # the series
    checked = 0
    for d in range(1, 11):
        for gap in default_residual_grid(d):
            q = BoundQuery(d=d, n=d / 2.0 + gap)
            if gap <= 0.5 or q.is_gap:
                continue
            n = q.n
            a = 2.0 * n - d / 2.0
            for u in np.geomspace(1e-6, 9.0, 6):
                u = float(u)
                log1pu = math.log1p(u)
                if (a - d / 2.0) * log1pu > 600.0:
                    continue  # the Euler-integral route
                total, _ = series_loop(a, n + 0.5, u / (1.0 + u))
                want = (d / 2.0 - 2.0 * n) * log1pu + math.log(total)
                assert log_hyper_kernel(q, u) == want, (d, gap, u)
                checked += 1
    assert checked > 10_000


# c -> series length at a = 2c, w = 1/2.  The first block holds
# 2 ceil(log(1e-17) / log(1/2)) = 114 terms and each later block twice the
# one before, so blocks end after 114, 342, 798, ..., 14478 terms and at the
# cap of 20,001 terms; each length here is a block end or the one after it.
_BLOCK_EDGE_LENGTHS = {
    41.6: 114, 42.6: 115, 698.0: 342, 706.5: 343, 4460.0: 798, 4470.0: 799,
    21990.0: 1710, 22000.0: 1711, 98100.0: 3534, 98200.0: 3535,
    418700.0: 7182, 418900.0: 7183, 1750000.0: 14478, 1750100.0: 14479,
    3380600.0: 20001,
}


def test_scalar_series_block_edges_and_cap(series_loop):
    for a, c, w in ((1.0, 1.0, 0.0), (1.0, 1.0, 1e-20)):
        assert series_loop(a, c, w) == (1.0 + 0.5 * w, 1)
        assert K._positive_series_scalar(a, c, w) == 1.0 + 0.5 * w
    for c, length in _BLOCK_EDGE_LENGTHS.items():
        total, ell = series_loop(2.0 * c, c, 0.5)
        assert ell == length
        assert K._positive_series_scalar(2.0 * c, c, 0.5) == total, length
    # this series needs 20,002 terms: one past the cap, so both raise
    c = 3381000.0
    with pytest.raises(sf.SeriesError):
        series_loop(2.0 * c, c, 0.5)
    with pytest.raises(sf.SeriesError):
        K._positive_series_scalar(2.0 * c, c, 0.5)


def test_euler_batch_bitwise():
    # one batch of the Euler-integral route, bit for bit as recorded with
    # node tables rebuilt on every call and the Gamma constant recomputed
    # (numpy 2.4, x86-64: the bits depend on the platform's exp and log)
    q = BoundQuery(d=3, n=7.3)
    got = K._euler_integral_log_batch(q, np.array([1.0, 0.5, 0.1, 1e-3, 1e-8]))
    want = ["0x1.2400000000000p-48", "-0x1.a1ca3aa821a2fp+1",
            "-0x1.d77c7afbe5829p+2", "-0x1.075af496ef616p+3",
            "-0x1.079d079c767c6p+3"]
    assert [float(v).hex() for v in got] == want


# ----------------------------------------------------------------------
# the upper-bound curve
# ----------------------------------------------------------------------

def test_upper_curve_two_two_formula():
    # (1+4u)^2/(12 pi) F(3, 2, 5/2; -u)
    q = BoundQuery(d=2, n=2.0)
    for u in (0.0, 0.7, 6.84, 40.0):
        want = (1.0 + 4.0 * u) ** 2 / (12.0 * math.pi) \
            * sf.hyp2f1(3.0, 2.0, 2.5, -u)
        assert rel_err(upper_curve(q, u), want) < 1e-11


def test_upper_curve_five_halves_two_formula():
    # (1+4u)^(5/2) (6+u) / (96 pi (1+u)^(7/2))
    q = BoundQuery(d=2, n=2.5, n_exact=Fraction(5, 2))
    for u in (0.1, 3.2, 25.0):
        want = (1.0 + 4.0 * u) ** 2.5 * (6.0 + u) / (96.0 * math.pi
                                                     * (1.0 + u) ** 3.5)
        assert rel_err(upper_curve(q, u), want) < 1e-12


def test_upper_curve_value_at_zero():
    for (n, d) in [(1.3, 1), (2.0, 2), (4.5, 3)]:
        q = BoundQuery(d=d, n=n)
        want = math.exp(sf.log_gamma(2 * n - d / 2) - sf.log_gamma(2 * n)) \
            / (4.0 * math.pi) ** (d / 2.0)
        assert rel_err(upper_curve(q, 0.0), want) < 1e-12


def test_upper_curve_limit_values():
    # (n, d) = (1, 1): Gamma(3/2)/(pi^(1/2) (1/2) Gamma(1)) = 1
    assert rel_err(upper_curve_limit(BoundQuery(d=1, n=1.0)), 1.0) < 1e-13
    # large-u evaluation approaches the limit
    q = BoundQuery(d=1, n=1.0)
    assert rel_err(upper_curve(q, 1e8), upper_curve_limit(q)) < 1e-4
    # the (3/4, 1) limit is the square of the tabled upper bound 1.30
    lim = math.sqrt(upper_curve_limit(BoundQuery(d=1, n=0.75)))
    assert abs(lim - 1.30) <= 0.01


def test_upper_curve_interior_maximum_shape():
    # for n > d/2 + 1/2 the curve has an interior max above both ends
    for (n, d, u_max) in [(2.0, 2, 6.844), (2.0, 1, 2.6), (4.0, 3, 1.75)]:
        q = BoundQuery(d=d, n=n)
        mid = upper_curve(q, u_max)
        assert upper_curve(q, 0.0) < mid
        assert upper_curve(q, 1e8) < mid


def test_upper_curve_monotone_regime():
    # for d/2 < n <= d/2 + 1/2 the curve is non-decreasing
    for (n, d) in [(0.7, 1), (1.0, 1), (1.3, 2), (1.5, 2), (1.8, 3)]:
        q = BoundQuery(d=d, n=n)
        vals = [upper_curve(q, u) for u in (0.0, 0.5, 1.0, 5.0, 50.0, 1e4)]
        assert all(b >= a * (1.0 - 1e-12) for a, b in zip(vals, vals[1:]))


# ----------------------------------------------------------------------
# Macdonald profile
# ----------------------------------------------------------------------

def cosine_transform_oracle(n, x, periods=4000):
    """(n, d) = (n, 1) profile via the radial inverse transform
    (2/pi)^(1/2) * int_0^inf cos(x rho) / (1 + rho^2)^n drho, summed between
    consecutive zeros of the cosine with tail averaging."""
    zeros = (np.arange(periods + 1) + 0.5) * math.pi / x
    pieces = []
    lo = 0.0
    for hi in zeros:
        res = integrate_finite(lambda r: np.cos(x * r) * (1.0 + r * r) ** -n,
                               lo, hi, tol=1e-12)
        pieces.append(res.value)
        lo = hi
    partial = np.cumsum(pieces)
    tail = partial[-64:]
    for _ in range(5):
        tail = 0.5 * (tail[1:] + tail[:-1])
    return math.sqrt(2.0 / math.pi) * float(tail[-1])


def test_profile_one_one_against_transform_oracle():
    q = BoundQuery(d=1, n=1.0)
    x = 1.3
    got = macdonald_profile(q, x)
    want = cosine_transform_oracle(1.0, x, periods=300)
    assert rel_err(got, want) < 1e-6
    # closed form sqrt(pi/2) e^{-x}
    assert rel_err(got, math.sqrt(math.pi / 2.0) * math.exp(-x)) < 1e-12


def test_profile_small_r_finiteness():
    q = BoundQuery(d=2, n=2.0)
    a = macdonald_profile(q, 1e-6)
    b = macdonald_profile(q, 1e-7)
    assert abs(a / b - 1.0) < 1e-3


def test_profile_positive():
    q = BoundQuery(d=1, n=1.5)
    for r in (0.1, 1.0, 10.0):
        assert macdonald_profile(q, r) > 0.0


# ----------------------------------------------------------------------
# the J * K^2 moment
# ----------------------------------------------------------------------

def moment_quadrature_oracle(mu, nu, h):
    def f(r):
        return (r ** (mu + nu + 1.0) * bessel_j(mu, h * r)
                * bessel_k(nu / 2.0, r) ** 2)

    return integrate_finite(f, 1e-12, 40.0, tol=1e-11).value


def test_moment_against_quadrature():
    got = bessel_macdonald_moment(0.5, 1.0, 1.0)
    want = moment_quadrature_oracle(0.5, 1.0, 1.0)
    assert rel_err(got, want) < 1e-7


def test_moment_small_h_prefactor():
    mu, nu = 0.7, 1.4
    pref = math.exp(0.5 * math.log(math.pi) + sf.log_gamma(mu + nu + 1.0)
                    + sf.log_gamma(mu + nu / 2.0 + 1.0)
                    - (mu + 2.0) * math.log(2.0)
                    - sf.log_gamma(mu + nu / 2.0 + 1.5))
    h = 1e-6
    assert rel_err(bessel_macdonald_moment(mu, nu, h) / h ** mu, pref) < 1e-10


def test_moment_feeds_kernel_transform_identity():
    # For (n, d) = (2, 2) and k = 2 the transform of the squared profile has
    # two routes: the moment with (mu, nu) = (d/2-1, 2n-d), and
    # Gamma(2n-d/2)/(2^(d/2) Gamma(2n)) F(2n-d/2, n, n+1/2; -k^2/4).
    n, d, k = 2.0, 2, 2.0
    lhs = bessel_macdonald_moment(d / 2.0 - 1.0, 2.0 * n - d, k) \
        / (2.0 ** (2.0 * n - 2.0) * sf.gamma(n) ** 2)
    q = BoundQuery(d=d, n=n)
    rhs = math.exp(sf.log_gamma(2.0 * n - d / 2.0) - sf.log_gamma(2.0 * n)) \
        / 2.0 ** (d / 2.0) * hyper_kernel(q, k * k / 4.0)
    assert rel_err(lhs, rhs) < 1e-9


def test_moment_domain():
    with pytest.raises(DomainError):
        bessel_macdonald_moment(-1.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        bessel_macdonald_moment(0.5, -0.1, 1.0)

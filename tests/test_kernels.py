"""Kernel-function tests: representation agreement, boundary values,
positivity, and the test oracles' Macdonald profile and J*K^2 moment."""

import math
from fractions import Fraction

import numpy as np
import pytest

from oracles.gauss_kronrod import integrate_finite
from oracles.hyp2f1 import hyp2f1
from oracles.macdonald import bessel_macdonald_moment, macdonald_profile
from sobomul import kernels as K
from sobomul import specfun as sf
from sobomul.bessel import bessel_j, bessel_k
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
    # (1+u)^(-n) F(n, d/2+1/2-n, n+1/2; u/(1+u)), via the general 2F1 oracle.
    rng = np.random.default_rng(37)
    worst = 0.0
    for _ in range(60):
        d = int(rng.integers(1, 5))
        n = float(rng.uniform(d / 2.0 + 0.05, 6.0))
        u = float(np.exp(rng.uniform(np.log(1e-3), np.log(50.0))))
        direct = hyp2f1(2.0 * n - d / 2.0, n, n + 0.5, -u)
        transformed = (1.0 + u) ** (-n) * hyp2f1(n, d / 2.0 + 0.5 - n,
                                                 n + 0.5, u / (1.0 + u))
        worst = max(worst, rel_err(direct, transformed))
        q = BoundQuery(d=d, n=n)
        worst = max(worst, rel_err(hyper_kernel(q, u), direct))
    assert worst <= 1e-10


def test_kernel_gap_form_matches_transformed():
    # (n, d) = (5/2, 2): a half-integer gap, where the kernel's 2F1
    # terminates; against the general 2F1 oracle at u = 1
    q = BoundQuery(d=2, n=2.5, n_exact=Fraction(5, 2))
    a = hyper_kernel(q, 1.0)
    b = hyp2f1(2.0 * 2.5 - 1.0, 2.5, 3.0, -1.0)
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
# the kernel's one rule, against mp.hyp2f1
# ----------------------------------------------------------------------

# 15 gaps n - d/2: small, half-integer (where the kernel's 2F1 terminates:
# its terms alternate), integer and large.
_ORACLE_GAPS = (0.01, 0.1, 0.24, 0.5, 0.8, 1.0, 1.5, 2.0, 2.5, 3.7, 5.5,
                8.5, 20.0, 101.0, 297.0)
_ORACLE_U = (0.0,) + tuple(10.0 ** k for k in range(-6, 13))


def test_kernel_against_hyp2f1_oracle():
    # d = 1..10 x 15 gaps x u in {0, 1e-6, ..., 1e12}, plus e^150 and e^200
    # below gap 1/4 (the (B) nodes' reach): within 1e-13 max(1, |log F|) of
    # 40-digit mp.hyp2f1; float and array arguments give the same bits, and
    # F(0) = 1 exactly
    mp = pytest.importorskip("mpmath")
    worst = 0.0
    with mp.workdps(40):
        for d in range(1, 11):
            for gap in _ORACLE_GAPS:
                q = BoundQuery(d=d, n=d / 2.0 + gap)
                us = _ORACLE_U + ((math.exp(150.0), math.exp(200.0)) if gap < 0.25 else ())
                got = log_hyper_kernel(q, np.array(us))
                n = mp.mpf(q.n)
                assert got[0] == 0.0
                for u, value in zip(us, got):
                    assert log_hyper_kernel(q, u) == value, (d, gap, u)
                    want = float(mp.log(mp.hyp2f1(2 * n - mp.mpf(d) / 2, n, n + mp.mpf(1) / 2,
                                                  -mp.mpf(u))))
                    worst = max(worst, abs(value - want) / max(1.0, abs(want)))
        # out to the double-range limit of K, where the peaked integrand
        # climbs to level 9
        for d, n in ((1, 4950.0), (10, 5130.0)):
            q = BoundQuery(d=d, n=n)
            us = (1e-3, 1.0, 23.7, 1e6)
            n = mp.mpf(n)
            for u, value in zip(us, log_hyper_kernel(q, np.array(us))):
                want = float(mp.log(mp.hyp2f1(2 * n - mp.mpf(d) / 2, n, n + mp.mpf(1) / 2,
                                              -mp.mpf(u), maxterms=10 ** 6)))
                worst = max(worst, abs(value - want) / max(1.0, abs(want)))
    assert worst <= 1e-13
    # an array that spans several (points x nodes) blocks, point by point
    q = BoundQuery(d=2, n=1.0 + 0.37)
    us = np.geomspace(1e-6, math.exp(200.0), 600)
    assert [log_hyper_kernel(q, float(u)) for u in us] == list(log_hyper_kernel(q, us))


def _spy_kernel_calls(monkeypatch) -> list:
    """Record (first row's n, level, moments) of every _log_kernel_rows
    call, each climb's call on a one-row KernelRows of the next level
    included."""
    calls = []
    inner = K._log_kernel_rows

    def spy(rows, at, u, moments=False):
        calls.append((float(rows.n[0]), rows.level, moments))
        return inner(rows, at, u, moments)

    monkeypatch.setattr(K, "_log_kernel_rows", spy)
    return calls


def test_kernel_moves_up_a_level_then_raises(monkeypatch):
    # (1, 0.55) at u = e^150: the level-6 rule's h and 2h values of R differ
    # by far more than 1e-13, so the point climbs on, to level 9, where it
    # matches the two-term large-u form; with level 6 as the last level it
    # raises
    from sobomul.bounds import _log_kernel_far
    q = BoundQuery(d=1, n=0.55)
    far = float(_log_kernel_far(q, np.array([150.0]))[0])
    rows = K.KernelRows([q], 6)
    _, step = rows._sums(np.array([0]), np.array([math.exp(150.0)]))
    assert abs(step[0] / rows.step0[0] - 1.0) > 1e-9
    calls = _spy_kernel_calls(monkeypatch)
    assert rel_err(log_hyper_kernel(q, math.exp(150.0)), far) <= 1e-14
    assert [level for _, level, _ in calls] == [5, 6, 7, 8, 9]
    monkeypatch.setattr(K, "_TS_MAX_LEVEL", 6)
    with pytest.raises(ArithmeticError, match="level 6"):
        log_hyper_kernel(BoundQuery(d=1, n=0.55), math.exp(150.0))
    with pytest.raises(ValueError):
        log_hyper_kernel(q, np.array([1.0, -1e-3]))


def test_kernel_of_no_points_is_empty():
    # an empty u gives an empty result of its shape; a batch needs a row
    q = BoundQuery(d=2, n=1.7)
    for f in (log_hyper_kernel, hyper_kernel, K.log_upper_curve, upper_curve):
        for shape in ((0,), (2, 0)):
            out = f(q, np.zeros(shape))
            assert isinstance(out, np.ndarray) and out.shape == shape, (f, shape)
    assert log_hyper_kernel(q, []).shape == (0,)
    with pytest.raises(ValueError, match="at least one query"):
        K.KernelRows([])


def test_one_row_kernel_batch_is_bit_identical_to_the_query():
    # a KernelRows of one row sums the terms of its query's own rule in the
    # same order, so the batch kernel and the curve built on it give the
    # scalar path's bits, also where a point moves up a level (the last
    # (d, n, u) below)
    cases = [(d, d / 2.0 + gap, u)
             for d in (1, 4, 10)
             for gap in (0.3, 0.5 + 1e-6, 2.7, 61.0, 199.9)
             for u in (0.0, 1e-6, 0.5, 3.7, 1e4, 1e12)]
    cases.append((1, 0.55, math.exp(150.0)))
    for d, n, u in cases:
        q = BoundQuery(d=d, n=n)
        rows = K.KernelRows([q])
        at, u_arr = np.array([0]), np.array([u])
        assert K._log_kernel_rows(rows, at, u_arr)[0] == log_hyper_kernel(q, u), (d, n, u)
        assert K.log_upper_curve_rows(rows, at, u_arr)[0][0] == K.log_upper_curve(q, u), (d, n, u)


def test_kernel_rows_batch_matches_queries():
    # many rows in one call, several to a block, each row at its own u
    rng = np.random.default_rng(7)
    for d in (1, 10):
        n = d / 2.0 + np.geomspace(0.51, 200.0, 120)
        u = np.exp(rng.uniform(-27.0, 27.0, n.size))
        rows = K.KernelRows([BoundQuery(d=d, n=float(v)) for v in n])
        got = K.log_upper_curve_rows(rows, np.arange(n.size), u)[0]
        for i in range(n.size):
            want = K.log_upper_curve(BoundQuery(d=d, n=float(n[i])), float(u[i]))
            assert abs(got[i] - want) <= 1e-14 * max(1.0, abs(want)), (d, n[i], u[i])


def test_kernel_rows_masks_match_each_query():
    # KernelRows forms its kept-node masks for a chunk of rows at once
    # (more rows here than one chunk holds); each row's mask is its
    # query's own from _node_bases
    for d in (1, 4, 10):
        queries = [BoundQuery(d=d, n=d / 2.0 + gap)
                   for gap in np.concatenate((np.geomspace(0.51, 200.0, 40), [0.5 + 1e-9]))]
        rows = K.KernelRows(queries)
        assert rows.keep.shape[0] > K._ROWS_BLOCK_ENTRIES // rows.keep.shape[1]
        for i, q in enumerate(queries):
            want = K._node_bases(K._FIRST_LEVEL, q.n, q.n_gap - 0.5)[1]
            assert np.array_equal(rows.keep[i], want)


def test_kernel_rows_climbs_give_each_row_its_one_row_bits(monkeypatch):
    # a batch of many rows of which three climb, to levels 9, 7 and 8:
    # each climbing row is recomputed on a one-row KernelRows of its own
    # query, one call per row and level, so its value and moments are that
    # one-row batch's bits and log_hyper_kernel's; the settled rows share
    # their blocks' nodes and stay within 1e-14
    climbing = {0.55: math.exp(150.0), 300.0: 23.7, 1000.0: 23.7}
    cases = sorted([*climbing.items(), *((float(n), 1.0) for n in np.geomspace(0.6, 200.0, 40))])
    calls = _spy_kernel_calls(monkeypatch)
    rows = K.KernelRows([BoundQuery(d=1, n=n) for n, _ in cases])
    got = K._log_kernel_rows(rows, np.arange(len(cases)), np.array([u for _, u in cases]),
                             moments=True)
    assert [(n, level) for n, level, _ in calls[1:]] == [
        (0.55, 6), (0.55, 7), (0.55, 8), (0.55, 9), (300.0, 6), (300.0, 7),
        (1000.0, 6), (1000.0, 7), (1000.0, 8)]
    for i, (n, u) in enumerate(cases):
        q = BoundQuery(d=1, n=n)
        want = [v[0] for v in K._log_kernel_rows(K.KernelRows([q]), np.array([0]),
                                                 np.array([u]), moments=True)]
        if n in climbing:
            assert [v[i] for v in got] == want, (n, u)
            assert got[0][i] == log_hyper_kernel(q, u), (n, u)
        else:
            assert all(abs(v[i] - w) <= 1e-14 * max(1.0, abs(w)) for v, w in zip(got, want))


def test_upper_curve_rows_derivatives_against_mp_hyp2f1(monkeypatch):
    # slope and curvature in x = log u against 30-digit numerical
    # differentiation of the curve built on mp.hyp2f1, on both sides of
    # u = 1 (where the slope switches between its two forms), at the
    # smallest gaps above 1/2, far out in u and at large n; (1, 300, 23.7)
    # and (1, 1000, 23.7) move up to levels 7 and 8, so their moments come
    # through the level-up path.  The d = 1 points run once more as the
    # rows of one batch.
    mp = pytest.importorskip("mpmath")
    cases = [(1, 2.0, 0.7), (2, 2.1, 6.84), (2, 2.5, 1.6), (3, 40.0, 0.6),
             (10, 7.3, 1e-3), (4, 2.6, 1e-6), (5, 100.0, 0.52), (1, 300.0, 2.0),
             (3, 2000.0, 2.0), (7, 3.6, 50.0), (2, 1.7, 1e4), (1, 1.000001, 1e9),
             (4, 2.500001 + 0.5, 3e11), (6, 3.5 + 1e-3, 1e5), (8, 4.75, 1.0),
             (9, 24.0, 0.9), (10, 205.0, 1.1), (1, 0.5 + 199.9, 1e12),
             (1, 300.0, 23.7), (1, 1000.0, 23.7)]
    levels = _spy_kernel_calls(monkeypatch)
    ones = [(d, n, u) for d, n, u in cases if d == 1]
    rows = K.KernelRows([BoundQuery(d=1, n=n) for _, n, _ in ones])
    batch = dict(zip(ones, zip(*K.log_upper_curve_rows(rows, np.arange(len(ones)),
                                                       np.array([u for *_, u in ones])))))
    worst = 0.0
    with mp.workdps(30):
        for d, n, u in cases:
            got = [[v[0] for v in K.log_upper_curve_rows(
                K.KernelRows([BoundQuery(d=d, n=n)]), np.array([0]), np.array([u]))]]
            if d == 1:
                got.append(batch[d, n, u])
            nn, half = mp.mpf(n), mp.mpf(d) / 2

            def curve(x):
                return (mp.loggamma(2 * nn - half) - mp.loggamma(2 * nn)
                        - half * mp.log(4 * mp.pi) + nn * mp.log1p(4 * mp.exp(x))
                        + mp.log(mp.hyp2f1(2 * nn - half, nn, nn + mp.mpf(1) / 2,
                                           -mp.exp(x), maxterms=10 ** 6)))

            for k, want in enumerate(mp.diffs(curve, mp.log(mp.mpf(u)), 2)):
                for value in got:
                    if k:
                        worst = max(worst, abs(float(value[k]) - want) / abs(want))
    assert (1000.0, 8, True) in levels and (300.0, 7, True) in levels
    assert worst <= 1e-8, worst


# ----------------------------------------------------------------------
# the upper-bound curve
# ----------------------------------------------------------------------

def test_upper_curve_two_two_formula():
    # (1+4u)^2/(12 pi) F(3, 2, 5/2; -u)
    q = BoundQuery(d=2, n=2.0)
    for u in (0.0, 0.7, 6.84, 40.0):
        want = (1.0 + 4.0 * u) ** 2 / (12.0 * math.pi) \
            * hyp2f1(3.0, 2.0, 2.5, -u)
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
        / (2.0 ** (2.0 * n - 2.0) * math.gamma(n) ** 2)
    q = BoundQuery(d=d, n=n)
    rhs = math.exp(sf.log_gamma(2.0 * n - d / 2.0) - sf.log_gamma(2.0 * n)) \
        / 2.0 ** (d / 2.0) * hyper_kernel(q, k * k / 4.0)
    assert rel_err(lhs, rhs) < 1e-9


def test_moment_domain():
    with pytest.raises(DomainError):
        bessel_macdonald_moment(-1.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        bessel_macdonald_moment(0.5, -0.1, 1.0)

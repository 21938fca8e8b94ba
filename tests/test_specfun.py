"""Gamma / digamma / 2F1 unit tests against identities and slow oracles."""

import math

import numpy as np
import pytest

from sobomul import specfun as sf

SQRT_PI = math.sqrt(math.pi)


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


# ----------------------------------------------------------------------
# gamma / log_gamma
# ----------------------------------------------------------------------

def test_gamma_special_values():
    assert rel_err(sf.gamma(0.5), SQRT_PI) < 1e-14
    assert rel_err(sf.gamma(1.0), 1.0) < 1e-14
    assert rel_err(sf.gamma(6.0), 120.0) < 1e-13


def test_gamma_shift_formula():
    rng = np.random.default_rng(11)
    for _ in range(300):
        x = float(np.exp(rng.uniform(np.log(1e-4), np.log(169.0))))
        assert rel_err(sf.gamma(x + 1.0), x * sf.gamma(x)) < 1e-12


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
    # gamma(-1.5) = 4 sqrt(pi) / 3
    assert rel_err(sf.gamma(-1.5), 4.0 * SQRT_PI / 3.0) < 1e-13


def test_gamma_vs_lgamma_oracle():
    # math.lgamma is an independent C implementation
    rng = np.random.default_rng(3)
    for _ in range(500):
        x = float(np.exp(rng.uniform(np.log(1e-4), np.log(500.0))))
        assert abs(sf.log_gamma(x) - math.lgamma(x)) <= 1e-12 * max(1.0, abs(math.lgamma(x)))


def test_gamma_pole_and_overflow():
    with pytest.raises(sf.GammaPoleError):
        sf.gamma(0.0)
    with pytest.raises(sf.GammaPoleError):
        sf.gamma(-3.0)
    with pytest.raises(OverflowError):
        sf.gamma(200.0)
    assert sf.log_gamma(500.0) == pytest.approx(math.lgamma(500.0), rel=1e-14)


def test_log_gamma_signed():
    val, sign = sf.log_gamma_signed(-1.5)
    assert sign == 1.0 and rel_err(math.exp(val), 4.0 * SQRT_PI / 3.0) < 1e-12
    val, sign = sf.log_gamma_signed(-0.5)
    assert sign == -1.0 and rel_err(-math.exp(val), -2.0 * SQRT_PI) < 1e-12


# ----------------------------------------------------------------------
# digamma
# ----------------------------------------------------------------------

def test_digamma_special_values():
    assert abs(sf.digamma(1.0) + sf.EULER_GAMMA) < 1e-13
    assert abs(sf.digamma(0.5) + sf.EULER_GAMMA + 2.0 * math.log(2.0)) < 1e-13
    assert abs(sf.digamma(2.0) - (1.0 - sf.EULER_GAMMA)) < 1e-13


def test_digamma_shift_formula():
    rng = np.random.default_rng(5)
    for _ in range(300):
        x = float(np.exp(rng.uniform(np.log(1e-3), np.log(300.0))))
        got = sf.digamma(x + 1.0)
        want = sf.digamma(x) + 1.0 / x
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


def test_digamma_pole():
    with pytest.raises(sf.GammaPoleError):
        sf.digamma(-2.0)


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
    # F(a, b, b; w) = (1-w)^(-a)
    assert rel_err(sf.hyp2f1(2.0, 1.5, 1.5, -3.0), 1.0 / 16.0) < 1e-13


def test_hyp2f1_at_zero():
    assert sf.hyp2f1(0.7, 2.2, 3.3, 0.0) == 1.0


def test_hyp2f1_log2():
    # F(1, 1, 2; -1) = log 2; oracle: averaged brute-force series
    got = sf.hyp2f1(1.0, 1.0, 2.0, -1.0)
    assert rel_err(got, math.log(2.0)) < 1e-12
    assert rel_err(series_oracle(1.0, 1.0, 2.0, -1.0, terms=60_000), got) < 1e-10


@pytest.mark.parametrize("abcw", [
    (0.3, 0.7, 2.2, 0.5),
    (3.0, 2.0, 2.5, -6.84),
    (1.2, 0.4, 5.0, 0.95),
    (5.0, 1.0, 5.5, -40.0),
    (241.5, 0.5, 121.0, 0.34),
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
    # F(a, -m, c; w) is a polynomial; compare with explicit evaluation
    a, m, c, w = 2.5, 3, 4.4, 0.8
    def rising(x, k):
        return math.prod(x + i for i in range(k))

    want = sum(rising(a, k) * rising(-m, k)
               / (rising(c, k) * math.factorial(k)) * w ** k
               for k in range(m + 1))
    assert rel_err(sf.hyp2f1(a, -float(m), c, w), want) < 1e-13
    # symmetry: terminating parameter first
    assert sf.hyp2f1(-float(m), a, c, w) == sf.hyp2f1(a, -float(m), c, w)


def test_hyp2f1_gauss_point():
    got = sf.hyp2f1(0.5, 0.25, 3.0, 1.0)
    want = math.exp(sf.log_gamma(3.0) + sf.log_gamma(2.25)
                    - sf.log_gamma(2.5) - sf.log_gamma(2.75))
    assert rel_err(got, want) < 1e-12


def test_hyp2f1_symmetry_in_ab():
    rng = np.random.default_rng(23)
    for _ in range(100):
        a, b = rng.uniform(0.1, 5.0, 2)
        # keep c above min(a, b) so every w < 1 stays inside the supported
        # evaluation regimes
        c = float(rng.uniform(min(a, b) + 0.1, 7.0))
        w = float(rng.uniform(-5.0, 0.99))
        assert rel_err(sf.hyp2f1(a, b, c, w), sf.hyp2f1(b, a, c, w)) <= 1e-13


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


def test_hyp2f1_errors():
    with pytest.raises(sf.DivergenceError):
        sf.hyp2f1(2.0, 2.0, 3.0, 1.0)
    with pytest.raises(sf.GammaPoleError):
        sf.hyp2f1(1.0, 1.0, -2.0, 0.5)
    with pytest.raises(sf.UnsupportedRegimeError):
        sf.hyp2f1(1.0, 1.0, 2.0, 1.5)
    with pytest.raises(sf.UnsupportedRegimeError):
        # 0.7 < w < 1 with neither a nor b inside (0, c)
        sf.hyp2f1(-0.5, -1.3, 0.4, 0.9)


def test_hyper_eval_regimes():
    assert sf.HyperEval(1.0, -2.0, 3.0, 0.5).regime == "terminating"
    assert sf.HyperEval(1.0, 0.5, 3.0, 0.5).regime == "series"
    assert sf.HyperEval(1.0, 0.5, 3.0, -5.0).regime == "kummer"
    assert sf.HyperEval(1.0, 0.5, 3.0, 0.9).regime == "integral"
    assert sf.HyperEval(1.0, 0.5, 3.0, 1.0).regime == "gauss_point"

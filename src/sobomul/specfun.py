"""Real-argument special functions: log Gamma and the Gauss
hypergeometric function 2F1.

Everything here is self-contained double-precision code.  log Gamma uses a
Lanczos approximation with reflection below 1/2.  2F1 sums a terminating
polynomial or one power series: directly for |w| <= 0.7, after Kummer's
map w -> w/(w-1) for w < -0.7, and after Euler's transformation for
0.7 < w < 1 where that series has positive terms.  Any other request, and
a series that reaches its term cap or cancels, raises a
HypergeometricError, which is an ArithmeticError.  The bounds need 2F1
only in the (B) and (BB) trial norms, where their lam searches keep w in
[-9.96, -0.35] on the tables and query streams measured.

Accuracy targets (checked by the test suite):
    log_gamma <= 1e-12 relative (or absolute below 1) on [1e-4, 500]
    hyp2f1    <= 1e-10 relative on the supported regimes
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
    "DivergenceError",
    "UnsupportedRegimeError",
    "SeriesError",
    "log_gamma",
    "log_gamma_signed",
    "hyp2f1",
    "hyp2f1_derivatives",
    "gauss_value",
]


class GammaPoleError(ValueError):
    """Gamma needed at a pole 0, -1, -2, ... (log_gamma: at any x <= 0)."""


class HypergeometricError(ValueError, ArithmeticError):
    """Base class for 2F1 evaluation failures: a request outside the
    supported domain, or a numerical failure."""


class DivergenceError(HypergeometricError):
    """2F1 requested at w = 1 with c <= a + b (series diverges)."""


class UnsupportedRegimeError(HypergeometricError):
    """Parameter/argument combination outside the supported real regimes."""


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
# Gauss hypergeometric function
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HyperEval:
    """One 2F1 request: parameters (a, b, c) and argument w, and the
    regime in which :func:`hyp2f1` evaluates it.

    c must avoid the poles 0, -1, -2, ...; w = 1 needs c > a + b.  The
    regime is checked in hyp2f1's order: w = 0, then a terminating
    parameter, then b = c or a = c, which read "closed_form" where hyp2f1
    returns 1 or (1 - w)^(-a) without a sum.  A request that no regime
    serves reads "unsupported" (hyp2f1 raises).  Evaluation is symmetric
    in (a, b).
    """

    a: float
    b: float
    c: float
    w: float

    def __post_init__(self) -> None:
        _check_request(self.a, self.b, self.c, self.w)

    @property
    def regime(self) -> str:
        a, b, c, w = self.a, self.b, self.c, self.w
        if w == 0.0:
            return "closed_form"
        if _is_nonpositive_integer(b, tol=1e-13) or _is_nonpositive_integer(a, tol=1e-13):
            return "terminating"
        if b == c or a == c:
            return "closed_form"
        if w == 1.0:
            return "gauss_point"
        if abs(w) <= _SERIES_CUT:
            return "series"
        if w < -_SERIES_CUT:
            return "kummer"
        return "euler" if _euler_signs(a, b, c) else "unsupported"


def _check_request(a: float, b: float, c: float, w: float) -> None:
    """Raise the defined error of a 2F1 request outside the supported domain."""
    if _is_nonpositive_integer(c, tol=1e-13):
        raise GammaPoleError(f"2F1 parameter c = {c} is a pole")
    if w > 1.0:
        raise UnsupportedRegimeError(f"2F1 argument w = {w} > 1 is outside the real domain")
    if w == 1.0 and c <= a + b:
        raise DivergenceError(f"2F1 at w = 1 needs c > a + b; got c - a - b = {c - a - b}")


_SERIES_CUT = 0.7
_MAX_TERMS = 200_000
_CANCEL_LIMIT = 1e10


def gauss_value(a: float, b: float, c: float) -> float:
    """2F1(a, b, c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b))."""
    if c <= a + b:
        raise DivergenceError("Gauss value needs c > a + b")
    num1, s1 = log_gamma_signed(c)
    num2, s2 = log_gamma_signed(c - a - b)
    den1, s3 = log_gamma_signed(c - a)
    den2, s4 = log_gamma_signed(c - b)
    return s1 * s2 * s3 * s4 * math.exp(num1 + num2 - den1 - den2)


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
    """Gauss hypergeometric function 2F1(a, b, c; w), real arguments.

    The evaluation strategy (terminating sum, series, Kummer map
    w -> w/(w-1), Euler transformation) is internal; callers only see the
    value, and :attr:`HyperEval.regime` names it.  A series that reaches
    _MAX_TERMS terms or loses its digits to cancellation raises
    SeriesError, and 0.7 < w < 1 without positive Euler terms raises
    UnsupportedRegimeError.
    """
    a, b, c, w = float(a), float(b), float(c), float(w)
    _check_request(a, b, c, w)

    # Canonical order: a terminating parameter goes second; otherwise sort
    # so that evaluation is exactly symmetric in (a, b).
    a_ends = _is_nonpositive_integer(a, tol=1e-13)
    b_ends = _is_nonpositive_integer(b, tol=1e-13)
    if not b_ends and (a_ends or a < b):
        a, b, b_ends = b, a, a_ends

    if w == 0.0:
        return 1.0
    if b_ends:
        return _terminating(a, int(round(-b)), c, w)
    if b == c:
        return (1.0 - w) ** (-a)
    if a == c:
        return (1.0 - w) ** (-b)
    if w == 1.0:
        return gauss_value(a, b, c)

    if abs(w) <= _SERIES_CUT:
        return _series(a, b, c, w)
    if w < -_SERIES_CUT:
        return _kummer(a, b, c, w)

    # 0.7 < w < 1: Euler's transformation (DLMF 15.8.1)
    #     2F1(a, b, c; w) = (1-w)^(c-a-b) 2F1(c-a, c-b, c; w)
    # where its series has one sign.
    if not _euler_signs(a, b, c):
        raise UnsupportedRegimeError(
            f"2F1({a}, {b}, {c}; {w}) falls outside the supported evaluation regimes")
    return math.exp((c - a - b) * math.log1p(-w) + math.log(_series(c - a, c - b, c, w)))


def hyp2f1_derivatives(a: float, b: float, c: float, w: float) -> tuple[float, float, float]:
    """2F1(a, b, c; w) and its first two derivatives in w, from the
    contiguous functions (DLMF 15.5.1-15.5.2):

        F'  = ab / c  F(a+1, b+1, c+1; w),
        F'' = a(a+1) b(b+1) / (c(c+1))  F(a+2, b+2, c+2; w).
    """
    return (hyp2f1(a, b, c, w),
            a * b / c * hyp2f1(a + 1.0, b + 1.0, c + 1.0, w),
            a * (a + 1.0) * b * (b + 1.0) / (c * (c + 1.0)) * hyp2f1(a + 2.0, b + 2.0, c + 2.0, w))


def _euler_signs(a: float, b: float, c: float) -> bool:
    """Whether Euler's transformation maps onto a series of positive terms."""
    return c > 0.0 and c - a > 0.0 and c - b > 0.0


def _kummer(a: float, b: float, c: float, w: float) -> float:
    """Map w < 0 to w/(w-1) in (0, 1):

        2F1(a, b, c; w) = (1-w)^(-b) 2F1(b, c-a, c; w/(w-1))

    or with a and b exchanged, whichever has fewer negative image
    parameters (the form above on a tie), so the transformed series has
    one sign and no cancellation where it can.
    """
    wt = w / (w - 1.0)
    expo, pa, pb = b, b, c - a
    if (a < 0.0) + (c - b < 0.0) < (b < 0.0) + (c - a < 0.0):
        expo, pa, pb = a, a, c - b
    return (1.0 - w) ** (-expo) * _series(pa, pb, c, wt)

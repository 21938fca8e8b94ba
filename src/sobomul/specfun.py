"""Real-argument special functions: Gamma, digamma and the Gauss
hypergeometric function 2F1.

Everything here is self-contained double-precision code.  The Gamma ladder
uses a Lanczos approximation with reflection below 1/2; the hypergeometric
evaluator selects among a terminating sum, the defining power series, a
Kummer transformation and an Euler-integral fallback, depending on where the
argument lies.  Only real parameters and real arguments w < 1 (or w = 1 in
the convergent case) are supported; that is all the bound machinery in this
package ever needs.

Accuracy targets (checked by the test suite):
    gamma     <= 1e-12 relative on [1e-4, 170]
    digamma   <= 1e-11 relative away from the poles
    hyp2f1    <= 1e-10 relative on the supported regimes
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "HyperEval",
    "GammaPoleError",
    "HypergeometricError",
    "DivergenceError",
    "UnsupportedRegimeError",
    "SeriesError",
    "gamma",
    "log_gamma",
    "log_gamma_signed",
    "digamma",
    "hyp2f1",
    "gauss_value",
]


EULER_GAMMA = 0.5772156649015328606065120900824024


class GammaPoleError(ValueError):
    """Gamma/digamma evaluated at a non-positive integer."""


class HypergeometricError(ValueError):
    """Base class for 2F1 evaluation failures."""


class DivergenceError(HypergeometricError):
    """2F1 requested at w = 1 with c <= a + b (series diverges)."""


class UnsupportedRegimeError(HypergeometricError):
    """Parameter/argument combination outside the supported real regimes."""


class SeriesError(HypergeometricError):
    """Power series failed to converge to the requested accuracy."""


# ----------------------------------------------------------------------
# Gamma, log-Gamma, digamma
# ----------------------------------------------------------------------

# Lanczos coefficients, g = 7, 9 terms.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LOG_SQRT_2PI = 0.91893853320467274178032973640562

# Gamma overflows past this abscissa in IEEE double.
_GAMMA_OVERFLOW_X = 171.62437695630272


def _is_nonpositive_integer(x: float, tol: float = 0.0) -> bool:
    if x > 0.5:
        return False
    r = round(x)
    if tol == 0.0:
        return x == r
    return abs(x - r) <= tol * max(1.0, abs(x))


def _lanczos_sum(x: float) -> float:
    # x >= 0.5 assumed; series argument is shifted by one internally.
    z = x - 1.0
    s = _LANCZOS[0]
    for i in range(1, 9):
        s += _LANCZOS[i] / (z + i)
    return s


def gamma(x: float) -> float:
    """Gamma function for real x excluding the poles 0, -1, -2, ...

    Satisfies gamma(x + 1) = x * gamma(x); raises OverflowError above the
    double-precision range (use :func:`log_gamma` there).
    """
    if _is_nonpositive_integer(x):
        raise GammaPoleError(f"gamma pole at x = {x}")
    if x > _GAMMA_OVERFLOW_X:
        raise OverflowError(
            f"gamma({x}) exceeds double range; use log_gamma instead")
    if x < 0.5:
        # Reflection: gamma(x) gamma(1-x) = pi / sin(pi x).
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    if x > 140.0:
        # t**(z+1/2) would overflow on its own; assemble in log form.
        return math.exp(log_gamma(x))
    z = x - 1.0
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * _lanczos_sum(x)


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if x <= 0.0:
        raise GammaPoleError(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        # log Gamma(x) = log(pi / sin(pi x)) - log Gamma(1 - x)
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    z = x - 1.0
    t = z + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (z + 0.5) * math.log(t) - t + math.log(_lanczos_sum(x))


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


# Bernoulli quotients B_{2k}/(2k) for the digamma asymptotic tail.
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def digamma(x: float) -> float:
    """Logarithmic derivative of Gamma, psi(x) = Gamma'(x)/Gamma(x).

    Uses the shift formula psi(x + 1) = psi(x) + 1/x below 8 and the
    Stirling tail above; reflection handles negative non-integer x.
    """
    if _is_nonpositive_integer(x):
        raise GammaPoleError(f"digamma pole at x = {x}")
    if x < 0.0:
        # psi(1 - x) = psi(x) + pi cot(pi x)
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * x)
    acc = 0.0
    while x < 8.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    p = inv2
    for b in _DIGAMMA_TAIL:
        tail += b * p
        p *= inv2
    return acc + math.log(x) - 0.5 / x - tail


# ----------------------------------------------------------------------
# Gauss hypergeometric function
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HyperEval:
    """One 2F1 evaluation request: parameters (a, b, c) and argument w.

    c must avoid the poles 0, -1, -2, ...; w < 1 always converges here,
    w = 1 only when c > a + b.  Evaluation is symmetric in (a, b).
    """

    a: float
    b: float
    c: float
    w: float

    def __post_init__(self) -> None:
        if _is_nonpositive_integer(self.c, tol=1e-13):
            raise GammaPoleError(f"2F1 parameter c = {self.c} is a pole")
        if self.w > 1.0:
            raise UnsupportedRegimeError(
                f"2F1 argument w = {self.w} > 1 is outside the real domain")
        if self.w == 1.0 and self.c <= self.a + self.b:
            raise DivergenceError(
                f"2F1 at w = 1 needs c > a + b; got c - a - b = {self.c - self.a - self.b}")

    @property
    def regime(self) -> str:
        a, b, c, w = self.a, self.b, self.c, self.w
        if _is_nonpositive_integer(b, tol=1e-13) or _is_nonpositive_integer(a, tol=1e-13):
            return "terminating"
        if w == 1.0:
            return "gauss_point"
        if abs(w) <= _SERIES_CUT:
            return "series"
        if w < -_SERIES_CUT:
            return "kummer"
        return "integral"


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


def _series(a: float, b: float, c: float, w: float) -> float:
    """Direct power series with a cancellation guard."""
    term = 1.0
    total = 1.0
    peak = 1.0
    for ell in range(_MAX_TERMS):
        term *= (a + ell) * (b + ell) / ((c + ell) * (ell + 1.0)) * w
        total += term
        at = abs(term)
        if at > peak:
            peak = at
        if at <= 1e-17 * abs(total) and abs(w) * abs((a + ell) * (b + ell) / ((c + ell) * (ell + 1.0))) < 1.0:
            break
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


def _integral_rep(a: float, b: float, c: float, w: float) -> float:
    """Euler integral for c > b > 0, w < 1:

        2F1 = Gamma(c)/(Gamma(b) Gamma(c-b)) *
              int_0^1 s^(b-1) (1-s)^(c-b-1) (1-w s)^(-a) ds

    evaluated with a tanh-sinh rule, which absorbs both endpoint
    singularities.
    """
    from .quad import tanh_sinh_01  # local import to avoid cycles at import time

    bm1 = b - 1.0
    cbm1 = c - b - 1.0

    def integrand(s: np.ndarray, one_minus_s: np.ndarray) -> np.ndarray:
        return np.exp(bm1 * np.log(s) + cbm1 * np.log(one_minus_s)
                      - a * np.log1p(-w * s))

    value, _err, _n = tanh_sinh_01(integrand, tol=1e-13)
    lg = log_gamma(c) - log_gamma(b) - log_gamma(c - b)
    return math.exp(lg) * float(value)


def hyp2f1(a, b=None, c=None, w=None) -> float:
    """Gauss hypergeometric function 2F1(a, b, c; w), real arguments.

    Accepts either a single :class:`HyperEval` or the four scalars.  The
    evaluation strategy (terminating sum, series, Kummer map w -> w/(w-1),
    Euler integral) is internal; callers only see the value.
    """
    if isinstance(a, HyperEval):
        e = a
    else:
        e = HyperEval(float(a), float(b), float(c), float(w))
    a, b, c, w = e.a, e.b, e.c, e.w

    # Canonical order: a terminating parameter goes second; otherwise sort
    # so that evaluation is exactly symmetric in (a, b).
    if _is_nonpositive_integer(a, tol=1e-13) and not _is_nonpositive_integer(b, tol=1e-13):
        a, b = b, a
    elif not _is_nonpositive_integer(b, tol=1e-13) and a < b:
        a, b = b, a

    if w == 0.0:
        return 1.0
    if _is_nonpositive_integer(b, tol=1e-13):
        return _terminating(a, int(round(-b)), c, w)
    if b == c:
        return (1.0 - w) ** (-a)
    if a == c:
        return (1.0 - w) ** (-b)
    if w == 1.0:
        return gauss_value(a, b, c)

    if abs(w) <= _SERIES_CUT:
        try:
            return _series(a, b, c, w)
        except SeriesError:
            return _from_integral(a, b, c, w)

    if w < -_SERIES_CUT:
        return _kummer(a, b, c, w)

    # 0.7 < w < 1
    return _from_integral(a, b, c, w)


def _kummer(a: float, b: float, c: float, w: float) -> float:
    """Map w < 0 to w/(w-1) in (0, 1):

        2F1(a, b, c; w) = (1-w)^(-b) 2F1(b, c-a, c; w/(w-1))

    choosing the (a, b) ordering whose image parameters stay non-negative,
    so the transformed series has one sign and no cancellation.
    """
    wt = w / (w - 1.0)
    # variant exponents: (1-w)^(-b) with params (b, c-a) / (1-w)^(-a) with (a, c-b)
    cands = []
    for expo, pa, pb in ((b, b, c - a), (a, a, c - b)):
        penalty = (pa < 0.0) + (pb < 0.0)
        cands.append((penalty, expo, pa, pb))
    cands.sort(key=lambda t: t[0])
    _penalty, expo, pa, pb = cands[0]
    try:
        return (1.0 - w) ** (-expo) * _series(pa, pb, c, wt)
    except SeriesError:
        return _from_integral(a, b, c, w)


def _from_integral(a: float, b: float, c: float, w: float) -> float:
    """Euler-integral fallback; needs one of (a, b) inside (0, c)."""
    if c > b > 0.0:
        return _integral_rep(a, b, c, w)
    if c > a > 0.0:
        return _integral_rep(b, a, c, w)
    raise UnsupportedRegimeError(
        f"2F1({a}, {b}, {c}; {w}) falls outside the supported evaluation regimes")

"""The general real Gauss hypergeometric function 2F1(a, b, c; w).

``sobomul.specfun.hyp2f1`` serves only the bounds' family
F(-n, d/2; c; 1 - t lam^2); tests use this evaluator as the reference
wherever they need 2F1 outside it: kernel identities, the Macdonald
moment and the general identities.  On the family the two give the same
bits.  It sums the runtime's block series (``sobomul.specfun._series``,
itself checked bit for bit against ``series_loop``) and terminating
polynomial, and adds what the family does not need: the canonical (a, b)
order, the b = c and a = c closed forms, Gauss's value at w = 1, the
Euler sign test, the choice of Kummer orientation and two error classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from sobomul.specfun import (GammaPoleError, HypergeometricError, _SERIES_CUT,
                             _is_nonpositive_integer, _series, _terminating,
                             log_gamma_signed)

__all__ = [
    "HyperEval",
    "DivergenceError",
    "UnsupportedRegimeError",
    "hyp2f1",
    "hyp2f1_derivatives",
    "gauss_value",
]


class DivergenceError(HypergeometricError):
    """2F1 requested at w = 1 with c <= a + b (series diverges)."""


class UnsupportedRegimeError(HypergeometricError):
    """Parameter/argument combination outside the supported real regimes."""


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


def gauss_value(a: float, b: float, c: float) -> float:
    """2F1(a, b, c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b))."""
    if c <= a + b:
        raise DivergenceError("Gauss value needs c > a + b")
    num1, s1 = log_gamma_signed(c)
    num2, s2 = log_gamma_signed(c - a - b)
    den1, s3 = log_gamma_signed(c - a)
    den2, s4 = log_gamma_signed(c - b)
    return s1 * s2 * s3 * s4 * math.exp(num1 + num2 - den1 - den2)


def hyp2f1(a: float, b: float, c: float, w: float) -> float:
    """Gauss hypergeometric function 2F1(a, b, c; w), real arguments.

    The evaluation strategy (terminating sum, series, Kummer map
    w -> w/(w-1), Euler transformation) is internal; callers only see the
    value, and :attr:`HyperEval.regime` names it.  A series that reaches
    its term cap or loses its digits to cancellation raises SeriesError,
    and 0.7 < w < 1 without positive Euler terms raises
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

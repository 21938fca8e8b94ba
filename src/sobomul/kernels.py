"""Kernel functions entering the multiplication-constant bounds.

For a query (n, d) with n > d/2 this module evaluates, stably across the
whole argument range and for large n:

* ``hyper_kernel``      F(2n - d/2, n, n + 1/2; -u), the hypergeometric
  factor of the convolution bound.  Internally it is computed from the
  equivalent all-positive-series form

      (1+u)^(d/2-2n) F(2n - d/2, 1/2, n + 1/2; u/(1+u)),

  switching to an Euler integral (tanh-sinh, one batch of arguments per
  call) once u/(1+u) > 0.9, so no cancellation occurs for any n; when
  n - d/2 - 1/2 is an integer m in 0..8 the terminating form

      sum_l c_l u^l / (1+u)^(n+l)

  is used instead.  The kernel enters the upper curve and the integrand of
  the (B) squared trial norm.  For a float argument (the optimizer's hot
  path) ``log_hyper_kernel`` sums the series in blocks of terms with numpy
  accumulates, which reproduce the term-by-term recurrence bit for bit;
  for arrays (the quadrature nodes) it sums over all arguments at once.
  The Gamma constants of a query are computed once per query.
* ``upper_curve``       the function of u whose supremum over [0, inf)
  equals the squared upper bound; ``upper_curve_limit`` is its u -> inf
  value, written with Gamma(n+1-d/2)/(n-d/2) so the n -> (d/2)+ limit stays
  finite.

Log-space variants are provided where the bound evaluators need them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import specfun as sf
from .quad import tanh_sinh_01

__all__ = [
    "DomainError",
    "BoundQuery",
    "hyper_kernel",
    "log_hyper_kernel",
    "upper_curve",
    "log_upper_curve",
    "upper_curve_limit",
    "log_upper_curve_limit",
]

_LOG_4PI = math.log(4.0 * math.pi)
_GAP_TOL = 1e-12
_MAX_TERMINATING_ORDER = 8


class DomainError(ValueError):
    """Query outside n > d/2."""


@dataclass(frozen=True)
class BoundQuery:
    """The pair (n, d) whose multiplication constant is being bounded.

    ``n_exact`` carries the exact rational n when the caller knows it (the
    CLI accepts fractions); it makes the half-integer-gap and integer-n
    detections exact instead of tolerance-based.
    """

    d: int
    n: float
    n_exact: Fraction | None = None

    def __post_init__(self) -> None:
        if self.d < 1 or self.d != int(self.d):
            raise DomainError(f"d must be a positive integer, got {self.d}")
        if self.n_exact is not None and abs(float(self.n_exact) - self.n) > 1e-9:
            raise ValueError("n_exact disagrees with n")
        if not self.n > self.d / 2.0:
            raise DomainError(
                f"n must exceed d/2 = {self.d / 2.0}, got n = {self.n}")

    @property
    def n_gap(self) -> float:
        """n - d/2 > 0."""
        return self.n - self.d / 2.0

    @cached_property
    def gap_order(self) -> int | None:
        """m such that n - d/2 - 1/2 = m in N, else None."""
        if self.n_exact is not None:
            q = self.n_exact - Fraction(self.d, 2) - Fraction(1, 2)
            return int(q) if q.denominator == 1 and q >= 0 else None
        x = self.n_gap - 0.5
        m = round(x)
        return m if m >= 0 and abs(x - m) <= _GAP_TOL else None

    @property
    def is_gap(self) -> bool:
        """Half-integer gap: the kernel reduces to a finite sum."""
        return self.gap_order is not None

    @property
    def n_is_integer(self) -> bool:
        if self.n_exact is not None:
            return self.n_exact.denominator == 1
        return abs(self.n - round(self.n)) <= _GAP_TOL

    @property
    def has_closed_form_upper(self) -> bool:
        """n <= d/2 + 1/2: the upper curve is increasing, sup at infinity."""
        return self.n <= self.d / 2.0 + 0.5 + _GAP_TOL

    @cached_property
    def _log_curve_scale(self) -> float:
        """log of Gamma(2n-d/2) / ((4 pi)^(d/2) Gamma(2n)), the constant
        factor of the upper curve."""
        return (sf.log_gamma(2.0 * self.n - self.d / 2.0) - sf.log_gamma(2.0 * self.n)
                - 0.5 * self.d * _LOG_4PI)

    @cached_property
    def _log_euler_scale(self) -> float:
        """log of Gamma(n+1/2) / (Gamma(n) Gamma(1/2)), the constant factor
        of the kernel's Euler integral."""
        return (sf.log_gamma(self.n + 0.5) - sf.log_gamma(self.n)
                - 0.5 * math.log(math.pi))


# ----------------------------------------------------------------------
# the hypergeometric kernel
# ----------------------------------------------------------------------

_W_SERIES_CUT = 0.9
_LOG_SUM_LIMIT = 600.0


def _positive_series_log(a: float, b: float, c: float, w: np.ndarray) -> np.ndarray:
    """log of 2F1(a, b, c; w) for a, b, c > 0 and 0 <= w < 1 (all terms
    positive, vectorized over w)."""
    term = np.ones_like(w)
    total = np.ones_like(w)
    for ell in range(20_000):
        term = term * ((a + ell) * (b + ell) / ((c + ell) * (ell + 1.0))) * w
        total += term
        if term.max() <= 1e-17 * total.max():
            break
    else:
        raise sf.SeriesError("positive 2F1 series did not converge")
    return np.log(total)


def _euler_integral_log_batch(q: BoundQuery, omw: np.ndarray) -> np.ndarray:
    """log 2F1(n, d/2 + 1/2 - n, n + 1/2; w) for a batch of arguments given
    as omw = 1 - w (each in (0, 1]), via the Euler integral with parameters
    (a, b) = (d/2+1/2-n, n):

        Gamma(n+1/2)/(Gamma(n) Gamma(1/2)) *
        int_0^1 s^(n-1) (1-s)^(-1/2) (1 - w s)^(n - d/2 - 1/2) ds

    1 - w s is assembled as (1-s) + s (1-w), which keeps full relative
    precision as w -> 1.  Tanh-sinh levels are shared across the batch.
    """
    n = q.n
    expo = n - q.d / 2.0 - 0.5

    def integrand(s: np.ndarray, oms: np.ndarray) -> np.ndarray:
        # rows: arguments omw, columns: s-nodes
        one_minus_ws = oms[None, :] + np.outer(omw, s)
        return np.exp((n - 1.0) * np.log(s)[None, :]
                      - 0.5 * np.log(oms)[None, :]
                      + expo * np.log(one_minus_ws))

    value, _err, _nev = tanh_sinh_01(integrand, tol=1e-13)
    return q._log_euler_scale + np.log(value)


def _terminating_sum_log(q: BoundQuery, u: np.ndarray) -> np.ndarray:
    """Gap case: log of sum_l c_l (u/(1+u))^l minus n log(1+u)."""
    m = q.gap_order
    n = q.n
    w = u / (1.0 + u)
    coef = 1.0
    total = np.ones_like(w)
    power = np.ones_like(w)
    for ell in range(m):
        coef *= (n + ell) * (-m + ell) / ((n + 0.5 + ell) * (ell + 1.0))
        power = power * w
        total = total + coef * power
    return np.log(total) - n * np.log1p(u)


# The scalar series takes terms ell = 0 .. _SERIES_MAX_TERMS - 1 at most.
_SERIES_MAX_TERMS = 20_001
# log(1e-17), the series' relative stop level.
_LOG_SERIES_STOP = math.log(1e-17)


def _positive_series_scalar(a: float, c: float, w: float) -> float:
    """2F1(a, 1/2, c; w) for a, c > 0 and 0 <= w < 1 by its all-positive
    series, stopped at the first term <= 1e-17 times the partial sum.

    The terms come in blocks: each block forms its term ratios and runs
    ``np.multiply.accumulate`` and ``np.add.accumulate`` seeded with the
    carried term and sum.  Both accumulates are sequential, so every term
    and partial sum equals, bit for bit, that of the recurrence

        term *= (a + ell) (1/2 + ell) / ((c + ell) (ell + 1)) * w
        total += term

    The first block holds twice the terms after which w^ell alone falls
    below the stop level (at least 8); later blocks double.
    """
    size = 8
    if w > 0.0:
        size = max(size, 2 * math.ceil(_LOG_SERIES_STOP / math.log(w)))
    term = 1.0
    total = 1.0
    start = 0
    while start < _SERIES_MAX_TERMS:
        stop = min(start + size, _SERIES_MAX_TERMS)
        ell = np.arange(start, stop, dtype=float)
        terms = (a + ell) * (0.5 + ell) / ((c + ell) * (ell + 1.0)) * w
        terms[0] *= term
        np.multiply.accumulate(terms, out=terms)
        sums = np.empty(stop - start + 1)
        sums[0] = total
        sums[1:] = terms
        np.add.accumulate(sums, out=sums)
        done = terms <= 1e-17 * sums[1:]
        k = int(done.argmax())
        if done[k]:
            return float(sums[k + 1])
        term = float(terms[-1])
        total = float(sums[-1])
        start = stop
        size *= 2
    raise sf.SeriesError("positive 2F1 series did not converge")


def _log_hyper_kernel_scalar(q: BoundQuery, u: float) -> float:
    """Pure-scalar fast path of :func:`log_hyper_kernel` (optimizer hot loop)."""
    if u < 0.0:
        raise ValueError("hyper_kernel needs u >= 0")
    n = q.n
    w = u / (1.0 + u)
    log1pu = math.log1p(u)
    if q.is_gap and q.gap_order <= _MAX_TERMINATING_ORDER:
        coef = 1.0
        total = 1.0
        power = 1.0
        m = q.gap_order
        for ell in range(m):
            coef *= (n + ell) * (-m + ell) / ((n + 0.5 + ell) * (ell + 1.0))
            power *= w
            total += coef * power
        return math.log(total) - n * log1pu
    a = 2.0 * n - q.d / 2.0
    c = n + 0.5
    if w <= _W_SERIES_CUT and (a - q.d / 2.0) * log1pu <= _LOG_SUM_LIMIT:
        return (q.d / 2.0 - 2.0 * n) * log1pu + math.log(_positive_series_scalar(a, c, w))
    omw = 1.0 / (1.0 + u)
    return -n * log1pu + float(_euler_integral_log_batch(q, np.array([omw]))[0])


def log_hyper_kernel(q: BoundQuery, u) -> float | np.ndarray:
    """log F(2n - d/2, n, n + 1/2; -u) for u >= 0 (vectorized)."""
    if isinstance(u, (int, float)):
        return _log_hyper_kernel_scalar(q, float(u))
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u).copy()
    if np.any(u < 0.0):
        raise ValueError("hyper_kernel needs u >= 0")
    out = np.zeros_like(u)
    if q.is_gap and q.gap_order <= _MAX_TERMINATING_ORDER:
        out = _terminating_sum_log(q, u)
        return out[0] if scalar else out

    n, d = q.n, q.d
    a = 2.0 * n - d / 2.0
    w = u / (1.0 + u)
    log1pu = np.log1p(u)
    series_ok = (w <= _W_SERIES_CUT) & ((a - d / 2.0) * log1pu <= _LOG_SUM_LIMIT)
    if series_ok.any():
        ws = w[series_ok]
        out[series_ok] = ((d / 2.0 - 2.0 * n) * log1pu[series_ok]
                          + _positive_series_log(a, 0.5, n + 0.5, ws))
    rest = ~series_ok
    if rest.any():
        omw = 1.0 / (1.0 + u[rest])
        out[rest] = (-n * log1pu[rest]
                     + _euler_integral_log_batch(q, omw))
    return out[0] if scalar else out


def hyper_kernel(q: BoundQuery, u) -> float | np.ndarray:
    """F(2n - d/2, n, n + 1/2; -u); strictly positive, equals 1 at u = 0."""
    res = np.exp(log_hyper_kernel(q, u))
    return float(res) if np.ndim(res) == 0 else res


# ----------------------------------------------------------------------
# the upper-bound curve
# ----------------------------------------------------------------------

def log_upper_curve(q: BoundQuery, u) -> float | np.ndarray:
    """log of (Gamma(2n-d/2) / ((4 pi)^(d/2) Gamma(2n))) (1+4u)^n F(...;-u)."""
    lg = q._log_curve_scale
    if isinstance(u, (int, float)):
        return lg + q.n * math.log1p(4.0 * u) + _log_hyper_kernel_scalar(q, float(u))
    u_arr = np.asarray(u, dtype=float)
    return lg + q.n * np.log1p(4.0 * u_arr) + log_hyper_kernel(q, u_arr)


def upper_curve(q: BoundQuery, u) -> float | np.ndarray:
    res = np.exp(log_upper_curve(q, u))
    return float(res) if np.ndim(res) == 0 else res


def log_upper_curve_limit(q: BoundQuery) -> float:
    """log of the u -> inf value Gamma(n+1-d/2)/(2^(d-1) pi^(d/2) (n-d/2) Gamma(n))."""
    n, d = q.n, q.d
    return (sf.log_gamma(n + 1.0 - d / 2.0) - math.log(q.n_gap) - sf.log_gamma(n)
            - (d - 1.0) * math.log(2.0) - 0.5 * d * math.log(math.pi))


def upper_curve_limit(q: BoundQuery) -> float:
    return math.exp(log_upper_curve_limit(q))

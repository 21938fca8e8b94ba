"""Kernel functions entering the multiplication-constant bounds.

For a query (n, d) with n > d/2 this module evaluates, stably across the
whole argument range and for large n:

* ``hyper_kernel``      F(2n - d/2, n, n + 1/2; -u), the hypergeometric
  factor of the convolution bound, by one route for every real n > d/2,
  every u >= 0 and float and array u alike: the Pfaff form

      (1+u)^(-n) F(n, d/2 + 1/2 - n, n + 1/2; u/(1+u)),

  whose Euler integral runs on tanh-sinh nodes in log space and is divided
  by the same rule's value at u = 0, so F(0) = 1 exactly and no Gamma
  constant enters.  Each u costs one logsumexp over the nodes, checked by
  the rule of step 2h against the rule of step h.  The kernel enters the
  upper curve and the integrand of the (B) squared trial norm.
* ``upper_curve``       the function of u whose supremum over [0, inf)
  equals the squared upper bound; ``upper_curve_limit`` is its u -> inf
  value, written with Gamma(n+1-d/2)/(n-d/2) so the n -> (d/2)+ limit stays
  finite.
* ``log_upper_curve_rows``  the log upper curve of many queries of one d
  (a :class:`KernelRows`) at one u each, in one call, with its exact slope
  and curvature in x = log u, for the batched K+ search.  The derivatives
  cost two more weighted sums over the terms that the value already
  exponentiates.

One engine evaluates the rule: :class:`KernelRows`, a batch of queries on
one tanh-sinh level.  ``log_hyper_kernel`` is its one-row case, and a point
that a level does not settle climbs through a one-row batch of its own
query one level up.

Log-space variants are provided where the bound evaluators need them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import specfun as sf
from .quad import _TS_MAX_LEVEL, _ts_level

__all__ = [
    "DomainError",
    "BoundQuery",
    "KernelRows",
    "hyper_kernel",
    "log_hyper_kernel",
    "upper_curve",
    "log_upper_curve",
    "log_upper_curve_rows",
    "upper_curve_limit",
    "log_upper_curve_limit",
]

_LOG_4PI = math.log(4.0 * math.pi)
_GAP_TOL = 1e-12


class DomainError(ValueError):
    """Query outside n > d/2."""


@dataclass(frozen=True)
class BoundQuery:
    """The pair (n, d) whose multiplication constant is being bounded.

    ``n_exact`` carries the exact rational n when the caller knows it (the
    CLI accepts fractions); it makes the integer-n detection, which picks
    the closed-sum routes of the lower bounds, exact instead of
    tolerance-based.
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

    @property
    def n_is_integer(self) -> bool:
        if self.n_exact is not None:
            return self.n_exact.denominator == 1
        return abs(self.n - round(self.n)) <= _GAP_TOL

    @property
    def has_closed_form_upper(self) -> bool:
        """n <= d/2 + 1/2: the upper curve is increasing, sup at infinity."""
        return _closed_form_upper(self.n, self.d)

    @cached_property
    def _log_curve_scale(self) -> float:
        """log of Gamma(2n-d/2) / ((4 pi)^(d/2) Gamma(2n)), the constant
        factor of the upper curve."""
        return (sf.log_gamma(2.0 * self.n - self.d / 2.0) - sf.log_gamma(2.0 * self.n)
                - 0.5 * self.d * _LOG_4PI)


def _closed_form_upper(n: float, d: int) -> bool:
    """:attr:`BoundQuery.has_closed_form_upper` of (n, d), for callers
    that hold n and d as plain floats."""
    return n <= d / 2.0 + 0.5 + _GAP_TOL


# ----------------------------------------------------------------------
# the hypergeometric kernel
# ----------------------------------------------------------------------

# The kernel's rule starts at tanh-sinh level 5 (step 2^-5: 395 nodes, of
# which a query keeps about 180 to 250).  A point whose h and 2h values of
# R differ by more than _KERNEL_TOL relative, plus the floor that rounding
# sets on that difference, moves up a level, and past _TS_MAX_LEVEL the
# kernel raises.  Level 5 settles every point of the residual scans; the
# (B) squared-norm nodes and the largest n climb (to level 9 at n = 5000).
# The log terms err by a few ulps of their size, which the log of the sum,
# |log S|, and 2 |n - d/2 - 1/2| log1p(u) bound near the peak; 4 eps times
# that is the floor.  It matters at large n: at (n, d) = (5000, 1),
# u = 23.7, the difference stays near 2e-13 from level 9 on, against a
# floor of 3.7e-11.
_FIRST_LEVEL = 5
_KERNEL_TOL = 1e-13
_ROUNDING = 4.0 * sys.float_info.epsilon
# Points per (points x nodes) block, so that block stays near 2^16 entries
# for one row's many u, and near 2^13 for a batch of rows: those blocks
# also hold a base per point and live beside hundreds of searches, so they
# are kept small for the sake of peak memory.
_BLOCK_ENTRIES = 1 << 16
_ROWS_BLOCK_ENTRIES = 1 << 13
# Nodes whose terms stay this far (in log) below every sum are dropped.
_DROP_BELOW = 50.0


@lru_cache(maxsize=None)
def _rule_nodes(level: int) -> tuple[np.ndarray, int]:
    """(rows log weight, log s, 1-s, log(1-s); 2h-rule node count) of
    tanh-sinh levels 0..level in level order, nodes of zero weight dropped:
    the first nodes form the rule of step 2h, all of them the rule of step
    h.  Query-free, so built once per process."""
    s, oms, weight = (np.concatenate(t) for t in zip(*map(_ts_level, range(level + 1))))
    keep = weight > 0.0
    h_count = int(np.count_nonzero(keep[:-len(_ts_level(level)[0])]))
    s, oms, weight = s[keep], oms[keep], weight[keep]
    tables = np.array([np.log(weight), np.log(s), oms, np.log(oms)])
    tables.flags.writeable = False
    return tables, h_count


def _rule_sums(u: np.ndarray, oms: np.ndarray, base: np.ndarray, expo: np.ndarray,
               h_count: int, moments: bool = False, spare: np.ndarray | None = None) -> tuple:
    """For each u of a block: the log of the h rule's sum S of the terms
    exp(base + expo log1p(u (1-s))), and the 2h rule's sum over S, the 2h
    rule on the first h_count nodes; oms, base and expo as from
    :meth:`KernelRows._rule`.  With w = u/(1+u),

        log (1 - w s) = log1p(u (1-s)) - log1p(u),

    exact at u = 0 and free of cancellation as w -> 1; the caller
    subtracts expo log1p(u) along with the Pfaff factor's n log1p(u).

    With moments, also the term-weighted means E[q] and E[q^2] of
    q = 1/(1 + u(1-s)), from which the derivatives of log S in log u
    follow (:func:`log_upper_curve_rows`).  q is formed in ``spare``
    where given: a (points, nodes) array that is free once base has been
    added, such as a base of one row per point.
    """
    t = np.multiply.outer(u, oms)
    np.log1p(t, out=t)
    t *= expo
    t += base
    top = np.maximum.reduce(t, axis=1, keepdims=True)
    t -= top
    np.exp(t, out=t)
    fine = np.add.reduce(t, axis=1)
    coarse = np.add.reduce(t[:, :h_count], axis=1)
    coarse /= fine
    if moments:
        q = np.multiply.outer(u, oms, out=spare)
        q += 1.0
        np.divide(1.0, q, out=q)
        mean = np.add.reduce(t * q, axis=1)
        mean /= fine
        q *= q
        square = np.add.reduce(t * q, axis=1)
        square /= fine
    np.log(fine, out=fine)
    fine += top[:, 0]
    return (fine, coarse, mean, square) if moments else (fine, coarse)


def _node_bases(level: int, n, expo) -> tuple[np.ndarray, np.ndarray]:
    """base = log(weight) + (n-1) log s - (1/2) log(1-s) on the nodes of
    levels 0..level, and the mask of the nodes that the query keeps: one
    query's for scalar n and expo, one row per query for (rows, 1)
    columns of them.

    R is monotone in w, so each term lies below the larger of its values
    at w = 0 and w = 1, and each sum above the smaller of its two end
    values, which lie above their largest terms.  Nodes whose bound sits
    e^-50 below that are dropped: even the last level's 55,000 nodes
    together move no sum by more than about 1e-17 relative."""
    log_weight, log_s, _, log_oms = _rule_nodes(level)[0]
    base = log_weight + (n - 1.0) * log_s - 0.5 * log_oms
    at_one = base + expo * log_oms
    floor = np.minimum(base.max(axis=-1, keepdims=True),
                       at_one.max(axis=-1, keepdims=True)) - _DROP_BELOW
    return base, np.maximum(base, at_one) >= floor


def _unsettled(step, step0, log_sum, expo, log1pu) -> np.ndarray | None:
    """Mask of the points whose 2h and h values of R differ by more than
    _KERNEL_TOL relative plus the rounding floor, or None if there are
    none."""
    # the rounding floor only widens the bounds, so points within these
    # settle in any case
    if (np.minimum.reduce(step - step0 * (1.0 - _KERNEL_TOL)) >= 0.0
            and np.maximum.reduce(step - step0 * (1.0 + _KERNEL_TOL)) <= 0.0):
        return None
    floor = _ROUNDING * (np.abs(log_sum) + 2.0 * np.abs(expo) * log1pu)
    off = ~(np.abs(step / step0 - 1.0) <= _KERNEL_TOL + floor)
    return off if off.any() else None


class KernelRows:
    """Queries of one dimension, one per row, on one tanh-sinh level, for
    kernel calls that take one u per row and many rows at once
    (:func:`log_upper_curve_rows`), or many u of one row
    (:func:`log_hyper_kernel`, the one-row case).

    Every row shares the query-free node tables of the level; a row holds
    only its scalars and the mask of its kept nodes, so a batch over
    hundreds of rows builds no per-row tables.  A block of points takes the
    nodes that any of its rows keeps and forms each point's base from its
    own n, so a row alone in its block sums exactly the terms, in the
    order, of its query's own rule; a one-row batch forms that rule once
    for all its points.  Give the rows in ascending n: neighbouring rows
    then keep nearly the same nodes.
    """

    def __init__(self, queries, level: int = _FIRST_LEVEL) -> None:
        self.queries = list(queries)
        if not self.queries:
            raise ValueError("KernelRows needs at least one query")
        self.d = self.queries[0].d
        if any(q.d != self.d for q in self.queries):
            raise ValueError("KernelRows needs queries of one dimension")
        self.level = level
        self.n = np.array([q.n for q in self.queries])
        self.expo = np.array([q.n_gap - 0.5 for q in self.queries])
        self.keep = np.empty((self.n.size, _rule_nodes(level)[0].shape[1]), dtype=bool)
        chunk = max(1, _ROWS_BLOCK_ENTRIES // self.keep.shape[1])
        for i in range(0, self.n.size, chunk):
            self.keep[i:i + chunk] = _node_bases(level, self.n[i:i + chunk, None],
                                                 self.expo[i:i + chunk, None])[1]
        # a one-row batch forms its rule once, for all its blocks and calls;
        # points per block from the most nodes that one row keeps
        self._one = self._rule(slice(None)) if self.n.size == 1 else None
        entries = _ROWS_BLOCK_ENTRIES if self._one is None else _BLOCK_ENTRIES
        self._block = max(1, entries // int(self.keep.sum(axis=1).max()))
        # log_norm, the h rule's log sum at w = 0, divides R; step0, the 2h
        # rule's sum over the h rule's there, divides each point's such ratio
        self.log_norm, self.step0 = self._sums(np.arange(self.n.size), np.zeros(self.n.size))

    @cached_property
    def log_scale(self) -> np.ndarray:
        """Each row's :attr:`BoundQuery._log_curve_scale`, for the curve."""
        return np.array([q._log_curve_scale for q in self.queries])

    def _rule(self, rows) -> tuple:
        """(1-s, base, expo, 2h-rule node count) on the nodes that any of
        the rows (an index array, or the slice of a one-row batch) keeps,
        base = log weight + (n-1) log s - (1/2) log(1-s), expo = n - d/2 - 1/2."""
        tables, h_count = _rule_nodes(self.level)
        nodes = self.keep[rows].any(axis=0)
        log_weight, log_s, oms, log_oms = np.compress(nodes, tables, axis=1)
        base = (self.n[rows, None] - 1.0) * log_s
        base += log_weight
        base -= 0.5 * log_oms
        return oms, base, self.expo[rows, None], int(np.count_nonzero(nodes[:h_count]))

    def _sums(self, at: np.ndarray, u: np.ndarray, moments: bool = False) -> tuple:
        """_rule_sums of the level's rule at the points (row at[i], u[i]),
        in blocks of about _BLOCK_ENTRIES (one row) or _ROWS_BLOCK_ENTRIES
        (point, node) pairs; a block of rows forms its own rule, whose base
        then holds q."""
        parts = []
        for i in range(0, at.size, self._block):
            rule = self._one or self._rule(at[i:i + self._block])
            parts.append(_rule_sums(u[i:i + self._block], *rule, moments,
                                    spare=None if self._one else rule[1]))
        return tuple(np.concatenate(x) for x in zip(*parts))


def _log_kernel_rows(rows: KernelRows, at: np.ndarray, u: np.ndarray, moments: bool = False):
    """log F at the points (row at[i], u[i]) in one call on the rows'
    level, with the points that it does not settle recomputed a level up,
    one call per climbing row on a one-row batch of that row's query; with
    moments, also the moments of :func:`_rule_sums` on the rule that
    settles each point.  Raises ArithmeticError past _TS_MAX_LEVEL."""
    log_sum, step, *mom = rows._sums(at, u, moments)
    log1pu = np.log1p(u)
    n = rows.n[at]
    log_f = log_sum - (rows.log_norm[at] + (2.0 * n - 0.5 * rows.d - 0.5) * log1pu)
    off = _unsettled(step, rows.step0[at], log_sum, rows.expo[at], log1pu)
    if off is not None:
        off = np.flatnonzero(off)
        if rows.level >= _TS_MAX_LEVEL:
            q = rows.queries[at[off[0]]]
            raise ArithmeticError(
                f"kernel rule did not settle by tanh-sinh level {rows.level} "
                f"(n={q.n}, d={q.d}, u={float(u[off[0]])!r})")
        for row in sorted(set(at[off].tolist())):
            sel = off[at[off] == row]
            up = _log_kernel_rows(KernelRows([rows.queries[row]], rows.level + 1),
                                  np.zeros(sel.size, dtype=int), u[sel], moments)
            for out, part in zip([log_f, *mom], up if moments else [up]):
                out[sel] = part
    return (log_f, *mom) if moments else log_f


def log_hyper_kernel(q: BoundQuery, u) -> float | np.ndarray:
    """log F(2n - d/2, n, n + 1/2; -u) for u >= 0, float or array.

    Every u goes through one rule, the Pfaff form

        F = (1+u)^(-n) R(u),  R(u) = int s^(n-1) (1-s)^(-1/2) (1 - w s)^(n-d/2-1/2) ds
                                     / int s^(n-1) (1-s)^(-1/2) ds,

    w = u/(1+u), both integrals on the same tanh-sinh nodes and summed in
    log space, by :func:`_log_kernel_rows` on a one-row :class:`KernelRows`.
    Each point starts on tanh-sinh level 5 and moves up while its h and 2h
    values of R differ by more than 1e-13 relative (plus a rounding floor
    that matters at large n); past the last level it raises
    ArithmeticError.  An empty array gives an empty array.
    """
    u_arr = np.asarray(u, dtype=float)
    flat = u_arr.reshape(-1)
    if not np.minimum.reduce(flat, initial=math.inf) >= 0.0:
        raise ValueError("hyper_kernel needs u >= 0")
    if not flat.size:
        return np.zeros(u_arr.shape)
    out = _log_kernel_rows(KernelRows([q]), np.zeros(flat.size, dtype=int), flat)
    return float(out[0]) if u_arr.ndim == 0 else out.reshape(u_arr.shape)


def hyper_kernel(q: BoundQuery, u) -> float | np.ndarray:
    """F(2n - d/2, n, n + 1/2; -u); strictly positive, equals 1 at u = 0."""
    res = np.exp(log_hyper_kernel(q, u))
    return float(res) if np.ndim(res) == 0 else res


# ----------------------------------------------------------------------
# the upper-bound curve
# ----------------------------------------------------------------------

def log_upper_curve(q: BoundQuery, u) -> float | np.ndarray:
    """log of (Gamma(2n-d/2) / ((4 pi)^(d/2) Gamma(2n))) (1+4u)^n F(...;-u)."""
    return q._log_curve_scale + q.n * np.log1p(4.0 * u) + log_hyper_kernel(q, u)


def log_upper_curve_rows(rows: KernelRows, at: np.ndarray, u: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log_upper_curve at the points (row at[i], u[i]) in one kernel call,
    with its first and second derivatives in x = log u.

    With c = 2n - d/2 - 1/2, e = n - d/2 - 1/2 and the term-weighted
    moments of q = 1/(1 + u(1-s)) from :func:`_rule_sums`, the slope is

        c/(1+u) - n/(1+4u) - e E[q],

    whose terms vanish like 1/u as u grows, where the argmax may lie near
    1e11 and a slope of order 1e-10 must keep its sign (as u falls below
    1 they cancel instead, to a relative error of a few eps/u), and the
    curvature is

        n 4u/(1+4u)^2 - c u/(1+u)^2 + e E[q (1 - q)] + e^2 Var[q].
    """
    n, expo = rows.n[at], rows.expo[at]
    log_f, mean, square = _log_kernel_rows(rows, at, u, moments=True)
    value = rows.log_scale[at] + n * np.log1p(4.0 * u) + log_f
    c = 2.0 * n - 0.5 * rows.d - 0.5
    a, b = 1.0 / (1.0 + 4.0 * u), 1.0 / (1.0 + u)
    slope = c * b - n * a - expo * mean
    curvature = (n * (4.0 * u * a) * a - c * (u * b) * b + expo * (mean - square)
                 + expo * expo * (square - mean * mean))
    return value, slope, curvature


def upper_curve(q: BoundQuery, u) -> float | np.ndarray:
    res = np.exp(log_upper_curve(q, u))
    return float(res) if np.ndim(res) == 0 else res


def log_upper_curve_limit(q: BoundQuery) -> float:
    """log of the u -> inf value Gamma(n+1-d/2)/(2^(d-1) pi^(d/2) (n-d/2) Gamma(n))."""
    return _log_curve_limit(q.n, q.d, q.n_gap)


def _log_curve_limit(n: float, d: int, gap: float) -> float:
    """:func:`log_upper_curve_limit` at n = d/2 + gap, from plain floats."""
    return (sf.log_gamma(n + 1.0 - d / 2.0) - math.log(gap) - sf.log_gamma(n)
            - (d - 1.0) * math.log(2.0) - 0.5 * d * math.log(math.pi))


def upper_curve_limit(q: BoundQuery) -> float:
    return math.exp(log_upper_curve_limit(q))

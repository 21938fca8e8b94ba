"""Brent's bracketed scalar maximizer, the reference for the lambda searches.

The (B) and (BB) lower bounds searched the trial scale with this
derivative-free search before their Newton searches on exact derivatives;
it stays as the reference those searches must match.  ``maximize_1d(f,
lo, hi, x0)`` expands geometrically from x0 until a local-max triple is
enclosed, then refines by golden-section steps with parabolic
acceleration (Brent's scheme, written for maximization).  Its result
records every evaluation in ``history`` and reports the best of them, so
a truncated run still yields a usable value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from sobomul.optim import BracketBoundaryError, MaxResult

__all__ = ["BrentResult", "maximize_1d"]

_GOLDEN = 0.381966011250105097  # 2 - golden ratio


@dataclass
class BrentResult(MaxResult):
    history: list[tuple[float, ...]] = field(default_factory=list, repr=False)


def _bracket(x0: float, lo: float, hi: float, step0: float):
    """Expand geometrically from x0 until a local-max triple is enclosed.

    Yields each abscissa and is sent f there.  Returns (a, b, c) with
    a < b < c, f(b) >= f(a), f(b) >= f(c).
    """
    x0 = min(max(x0, lo), hi)
    f0 = yield x0
    step = step0
    x1 = min(x0 + step, hi)
    if x1 == x0:
        x1 = max(x0 - step, lo)
    f1 = yield x1
    if f1 < f0:
        # walk the other way
        x0, x1, f0, f1 = x1, x0, f1, f0
    # Now f1 >= f0; march in the direction x0 -> x1 until a drop.
    direction = math.copysign(1.0, x1 - x0)
    prev_x = x0
    cur_x, cur_f = x1, f1
    step = abs(x1 - x0)
    while True:
        nxt = cur_x + direction * step
        boundary = lo if direction < 0 else hi
        if (nxt - boundary) * direction >= 0.0:
            nxt = boundary
        fn = yield nxt
        if fn < cur_f:
            a, c = sorted((prev_x, nxt))
            return a, cur_x, c
        if nxt == boundary:
            raise BracketBoundaryError("hi" if direction > 0 else "lo", nxt, fn)
        prev_x = cur_x
        cur_x, cur_f = nxt, fn
        step *= 2.0


def _search_1d(lo: float, hi: float, x0: float, tol_x: float, max_iter: int):
    """The search of :func:`maximize_1d` as a generator: it yields each
    abscissa, is sent f there, and returns whether it converged (or raises
    BracketBoundaryError).  The caller evaluates f and keeps the best
    point."""
    if not (lo <= x0 <= hi) or not lo < hi:
        raise ValueError(f"need lo <= x0 <= hi, got ({lo}, {x0}, {hi})")
    step0 = max(abs(x0), 1.0) * 0.05
    a, b, c = yield from _bracket(x0, lo, hi, step0)

    # Brent minimization of -f on [a, c] starting from b.
    x = w = v = b
    fx = fw = fv = -(yield x)
    d = e = 0.0
    converged = False
    for _ in range(max_iter):
        m = 0.5 * (a + c)
        tol1 = tol_x * abs(x) + 1e-300
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (c - a):
            converged = True
            break
        use_golden = True
        if abs(e) > tol1:
            # parabola through (x, fx), (w, fw), (v, fv)
            r = (x - w) * (fx - fv)
            qd = (x - v) * (fx - fw)
            p = (x - v) * qd - (x - w) * r
            qd = 2.0 * (qd - r)
            if qd > 0.0:
                p = -p
            qd = abs(qd)
            if abs(p) < abs(0.5 * qd * e) and qd * (a - x) < p < qd * (c - x):
                e = d
                d = p / qd
                u = x + d
                if (u - a) < tol2 or (c - u) < tol2:
                    d = math.copysign(tol1, m - x)
                use_golden = False
        if use_golden:
            e = (c if x < m else a) - x
            d = _GOLDEN * e
        u = x + d if abs(d) >= tol1 else x + math.copysign(tol1, d)
        fu = -(yield u)
        if fu <= fx:
            if u < x:
                c = x
            else:
                a = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                c = u
            if fu <= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return converged


def maximize_1d(f: Callable[[float], float], lo: float, hi: float, x0: float,
                tol_x: float = 1e-8, max_iter: int = 300) -> BrentResult:
    """Maximize a continuous unimodal function on [lo, hi] from start x0.

    tol_x is relative in the abscissa; the bracket search starts with a
    step of 5% of max(|x0|, 1).  Raises :class:`BracketBoundaryError` when
    the function is still increasing at either boundary (supremum not
    interior).
    """
    history: list[tuple[float, ...]] = []
    search = _search_1d(lo, hi, x0, tol_x, max_iter)
    x = next(search)
    try:
        while True:
            fx = f(x)
            history.append((x, fx))
            x = search.send(fx)
    except StopIteration as stop:
        converged = stop.value
    best_x, best_f = max(history, key=lambda t: t[1])
    return BrentResult(argmax=(best_x,), max_value=best_f,
                       iterations=len(history), converged=converged,
                       history=history)

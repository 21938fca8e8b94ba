"""Derivative-free maximization.

* :func:`maximize_1d` -- bracketed scalar search: geometric bracket
  expansion from a starting point, then golden-section refinement with
  parabolic acceleration (Brent's scheme, written for maximization).
* :func:`maximize_2d` -- Nelder-Mead simplex over two positive variables,
  run in log coordinates with a small multistart set.

Both report the best point ever evaluated, so a truncated run still yields
a usable value for callers whose objective is itself a certified lower
bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

__all__ = ["MaxResult", "BracketBoundaryError", "maximize_1d", "maximize_2d"]

_GOLDEN = 0.381966011250105097  # 2 - golden ratio


class BracketBoundaryError(RuntimeError):
    """The objective kept increasing up to the search boundary.

    Signals a supremum attained at (or beyond) the boundary; callers fall
    back to the analytic boundary/limit value.  Carries the best point
    seen so the caller can still use it.
    """

    def __init__(self, side: str, best_x: float, best_f: float):
        super().__init__(f"objective increases up to the {side} search boundary")
        self.side = side
        self.best_x = best_x
        self.best_f = best_f


@dataclass
class MaxResult:
    argmax: tuple[float, ...]
    max_value: float
    iterations: int
    converged: bool
    history: list[tuple[float, ...]] = field(default_factory=list, repr=False)


def _bracket(f, x0: float, lo: float, hi: float, step0: float):
    """Expand geometrically from x0 until a local-max triple is enclosed.

    Returns (a, b, c, fb, evals) with a < b < c, f(b) >= f(a), f(b) >= f(c).
    """
    evals = 0

    def ev(x: float) -> float:
        nonlocal evals
        evals += 1
        return f(x)

    x0 = min(max(x0, lo), hi)
    f0 = ev(x0)
    step = step0
    x1 = min(x0 + step, hi)
    if x1 == x0:
        x1 = max(x0 - step, lo)
    f1 = ev(x1)
    if f1 < f0:
        # walk the other way
        x0, x1, f0, f1 = x1, x0, f1, f0
    # Now f1 >= f0; march in the direction x0 -> x1 until a drop.
    direction = math.copysign(1.0, x1 - x0)
    prev_x, prev_f = x0, f0
    cur_x, cur_f = x1, f1
    step = abs(x1 - x0)
    while True:
        nxt = cur_x + direction * step
        boundary = lo if direction < 0 else hi
        if (nxt - boundary) * direction >= 0.0:
            nxt = boundary
        fn = ev(nxt)
        if fn < cur_f:
            a, c = sorted((prev_x, nxt))
            return a, cur_x, c, cur_f, evals
        if nxt == boundary:
            raise BracketBoundaryError("hi" if direction > 0 else "lo", nxt, fn)
        prev_x, prev_f = cur_x, cur_f
        cur_x, cur_f = nxt, fn
        step *= 2.0


def maximize_1d(f: Callable[[float], float], lo: float, hi: float, x0: float,
                tol_x: float = 1e-8, max_iter: int = 300) -> MaxResult:
    """Maximize a continuous unimodal function on [lo, hi] from start x0.

    tol_x is relative in the abscissa; the bracket search starts with a
    step of 5% of max(|x0|, 1).  Raises :class:`BracketBoundaryError` when
    the function is still increasing at either boundary (supremum not
    interior).
    """
    if not (lo <= x0 <= hi) or not lo < hi:
        raise ValueError(f"need lo <= x0 <= hi, got ({lo}, {x0}, {hi})")
    step0 = max(abs(x0), 1.0) * 0.05

    history: list[tuple[float, ...]] = []
    nev = 0

    def g(x: float) -> float:
        nonlocal nev
        nev += 1
        val = f(x)
        history.append((x, val))
        return -val  # minimize below

    # Bracket on f itself; evaluations and history flow through g.
    a, b, c, _fb, _ = _bracket(lambda x: -g(x), x0, lo, hi, step0)

    # Brent minimization of -f on [a, c] starting from b.
    x = w = v = b
    fx = fw = fv = g(x)
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
        fu = g(u)
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
    best_x, best_f = max(history, key=lambda t: t[1])
    return MaxResult(argmax=(best_x,), max_value=best_f,
                     iterations=nev, converged=converged,
                     history=history)


def maximize_2d(f: Callable[[float, float], float],
                starts: Sequence[tuple[float, float]],
                tol: float = 1e-8, max_iter: int = 500) -> MaxResult:
    """Maximize f over the positive quadrant by Nelder-Mead multistart.

    The simplex moves in (log p, log s), which keeps both variables
    positive without constraint handling.  The result is the best point
    over all starts and all evaluations; ties between starts break toward
    the lexicographically smallest argmax.
    """
    if not starts:
        raise ValueError("need at least one start")

    best: tuple[float, tuple[float, float]] | None = None
    total_ev = 0
    any_converged = False

    for sx, sy in starts:
        if sx <= 0.0 or sy <= 0.0:
            raise ValueError("log-space search needs positive starts")
        res = _nelder_mead(f, (sx, sy), tol, max_iter)
        total_ev += res.iterations
        any_converged = any_converged or res.converged
        key = (res.max_value, tuple(-c for c in res.argmax))
        if best is None or key > (best[0], tuple(-c for c in best[1])):
            best = (res.max_value, (res.argmax[0], res.argmax[1]))
    assert best is not None
    return MaxResult(argmax=best[1], max_value=best[0],
                     iterations=total_ev, converged=any_converged)


def _nelder_mead(f, start, tol, max_iter):
    nev = 0
    best_seen = [None, -math.inf]

    def val(z):
        nonlocal nev
        nev += 1
        p = (math.exp(z[0]), math.exp(z[1]))
        v = f(p[0], p[1])
        if v > best_seen[1]:
            best_seen[0], best_seen[1] = p, v
        return -v

    z0 = (math.log(start[0]), math.log(start[1]))
    scale = 0.25
    simplex = [z0, (z0[0] + scale, z0[1]), (z0[0], z0[1] + scale)]
    fvals = [val(z) for z in simplex]

    converged = False
    for _ in range(max_iter):
        order = sorted(range(3), key=lambda i: fvals[i])
        simplex = [simplex[i] for i in order]
        fvals = [fvals[i] for i in order]
        if (abs(fvals[2] - fvals[0]) <= tol * (abs(fvals[0]) + tol)
                and max(abs(simplex[2][k] - simplex[0][k]) for k in range(2)) <= tol):
            converged = True
            break
        centroid = tuple(0.5 * (simplex[0][k] + simplex[1][k]) for k in range(2))
        refl = tuple(centroid[k] + (centroid[k] - simplex[2][k]) for k in range(2))
        fr = val(refl)
        if fr < fvals[0]:
            expa = tuple(centroid[k] + 2.0 * (centroid[k] - simplex[2][k]) for k in range(2))
            fe = val(expa)
            simplex[2], fvals[2] = (expa, fe) if fe < fr else (refl, fr)
        elif fr < fvals[1]:
            simplex[2], fvals[2] = refl, fr
        else:
            contr = tuple(centroid[k] + 0.5 * (simplex[2][k] - centroid[k]) for k in range(2))
            fc = val(contr)
            if fc < fvals[2]:
                simplex[2], fvals[2] = contr, fc
            else:
                for i in (1, 2):
                    simplex[i] = tuple(0.5 * (simplex[i][k] + simplex[0][k]) for k in range(2))
                    fvals[i] = val(simplex[i])
    p, v = best_seen
    return MaxResult(argmax=tuple(p), max_value=v, iterations=nev, converged=converged)

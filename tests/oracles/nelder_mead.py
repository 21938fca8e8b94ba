"""Derivative-free Nelder-Mead multistart over two positive variables.

The (F) search used this simplex before its trust-region Newton search;
it stays as the reference that the Newton search must match or beat.  It
needs only objective values: ``maximize_2d_simplex(f, starts)`` with
``f(x, y) -> value`` moves in (log x, log y) from each start and reports
the best point over all starts and all evaluations; ties between starts
break toward the lexicographically smallest argmax.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from sobomul.optim import MaxResult

__all__ = ["maximize_2d_simplex"]


def maximize_2d_simplex(f: Callable[[float, float], float],
                        starts: Sequence[tuple[float, float]],
                        tol: float = 3e-7, max_iter: int = 400) -> MaxResult:
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

"""Maximization on exact derivatives.

* :func:`maximize_1d_newton` -- safeguarded Newton ascent on a trust
  region for smooth functions that supply their first and second
  derivatives, many independent searches at once: each round evaluates
  every live search's next point in one vectorised call, and a one-row
  run is the single search.  It serves the K+ search over log u and the
  (B) and (BB) searches over the trial scale log lam.
* :func:`maximize_2d` -- trust-region, saddle-free Newton ascent over two
  positive variables, run in log coordinates from a small multistart set
  whose starts advance in lockstep: each round evaluates every live
  start's next point in one vectorised call, which supplies the values,
  gradients and Hessians.  It serves the (F) search over (p, sigma).

Each search is a generator that yields its next point and is sent the
value and derivatives there.  Both searches move only to points that do
not lower the value, so a truncated run still yields a usable value for callers whose
objective is itself a certified lower bound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["MaxResult", "BracketBoundaryError", "maximize_1d_newton", "maximize_2d"]


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
    # maximize_1d_newton only: the slope and curvature at the argmax, and
    # how far the value may still lie below the maximum
    slope: float = math.nan
    curvature: float = math.nan
    gain: float = math.nan


# The 1-D Newton search: initial and largest trust radius (in x), and the
# rounding floors of its stop test, relative to max(1, |f|): the first
# while no trial has fallen by rounding noise alone, the second after one.
_RADIUS0_1D = 1.0
_RADIUS_MAX_1D = 8.0
_FLOOR = 2.0 * sys.float_info.epsilon
_NOISE_FLOOR = 32.0 * sys.float_info.epsilon


def _newton_1d(lo: float, hi: float, x0: float, max_iter: int):
    """One search of :func:`maximize_1d_newton` as a generator: it yields
    each abscissa, is sent (f, f', f'') there, and returns the search's
    MaxResult (or raises BracketBoundaryError)."""
    if not (lo <= x0 <= hi) or not lo < hi:
        raise ValueError(f"need lo <= x0 <= hi, got ({lo}, {x0}, {hi})")
    x = x0
    f, g, h = yield x
    evaluations, radius, floor = 1, _RADIUS0_1D, _FLOOR
    while True:
        tol = floor * max(1.0, abs(f))
        if not (math.isfinite(f) and math.isfinite(g) and math.isfinite(h)):
            return MaxResult((x,), f, evaluations, False, slope=g, curvature=h, gain=math.inf)
        step = -g / h if h < 0.0 else math.copysign(radius, g)
        step = min(max(step, -radius, lo - x), radius, hi - x)
        if step == 0.0 and g != 0.0:
            raise BracketBoundaryError("hi" if g > 0.0 else "lo", x, f)
        gain = step * (g + 0.5 * h * step)
        if gain <= tol or evaluations >= max_iter:
            return MaxResult((x,), f, evaluations, gain <= tol,
                             slope=g, curvature=h, gain=max(gain, 0.0) + tol)
        ft, gt, ht = yield x + step
        evaluations += 1
        if ft >= f:
            x, f, g, h = x + step, ft, gt, ht
            if abs(step) == radius:
                radius = min(2.0 * radius, _RADIUS_MAX_1D)
        else:
            if f - ft <= _NOISE_FLOOR * max(1.0, abs(f)):
                floor = _NOISE_FLOOR
            radius = 0.25 * abs(step)


def maximize_1d_newton(f: Callable[[np.ndarray, np.ndarray], tuple],
                       lo: float, hi: float, x0: Sequence[float], max_iter: int = 100,
                       ) -> list[MaxResult | BracketBoundaryError]:
    """Maximize smooth functions on [lo, hi], one per row, each from its
    own start in x0, by safeguarded Newton steps run in lockstep.

    Each round evaluates every live row's next point through one call
    f(rows, x), which gets the live rows' indices and abscissae as arrays
    and returns their values, first and second derivatives as three
    arrays; a row leaves when its search ends, and given the same values
    each row takes the steps that it would take alone.  A step is the Newton step where the
    curvature is negative and a step of the trust radius uphill
    elsewhere, cut to the radius and to [lo, hi].  The radius starts at 1,
    doubles up to 8 after an accepted step that reached it and falls to a
    quarter of a rejected step; a trial is accepted when its value does
    not fall, so the current point is always the best one.  A search
    converges when its model's gain f' s + f'' s^2/2 is at rounding level,
    2 eps max(1, |f|), or 32 eps max(1, |f|) once a trial has fallen by
    no more than that.  It stops unconverged after max_iter evaluations or
    at a point where f or a derivative is not finite, and raises (returns,
    per row) :class:`BracketBoundaryError` at a bound where the slope
    points outward.  MaxResult carries the final slope, curvature and
    ``gain``: the model's remaining gain plus the rounding floor.
    """
    searches = [_newton_1d(lo, hi, start, max_iter) for start in x0]
    outcomes: list[MaxResult | BracketBoundaryError | None] = [None] * len(searches)
    live = list(range(len(searches)))
    xs = [next(search) for search in searches]
    while live:
        values = zip(*(v.tolist() for v in f(np.array(live), np.array(xs))))
        still, next_xs = [], []
        for row, sent in zip(live, values):
            try:
                next_xs.append(searches[row].send(sent))
                still.append(row)
            except StopIteration as stop:
                outcomes[row] = stop.value
            except BracketBoundaryError as exc:
                outcomes[row] = exc
        live, xs = still, next_xs
    return outcomes


# The 2-D search's trust region: initial and largest radius (in log
# coordinates), and the floor on |Hessian eigenvalue| in the Newton step.
_RADIUS0 = 0.5
_RADIUS_MAX = 1.0
_EIG_FLOOR = 1e-8


def _newton_2d(start: tuple[float, float], tol: float, max_iter: int):
    """One start of :func:`maximize_2d` as a generator: it yields each
    point (x, y), is sent (value, gradient, Hessian) there, and returns
    (argmax, max value, evaluations, converged)."""
    z = (math.log(start[0]), math.log(start[1]))
    value, g, h = yield start
    nev = 1
    radius = _RADIUS0
    converged = False
    while nev < max_iter:
        sx, sy = _saddle_free_step(g, h)
        length = math.hypot(sx, sy)
        if not math.isfinite(length):
            break
        if length > radius:
            sx, sy, length = sx * radius / length, sy * radius / length, radius
        if length < tol:
            converged = True
            break
        trial = (z[0] + sx, z[1] + sy)
        t_value, t_g, t_h = yield math.exp(trial[0]), math.exp(trial[1])
        nev += 1
        if t_value > value:
            z, value, g, h = trial, t_value, t_g, t_h
            if length == radius:
                radius = min(2.0 * radius, _RADIUS_MAX)
        else:
            radius = 0.25 * length
    return (math.exp(z[0]), math.exp(z[1])), value, nev, converged


def maximize_2d(f: Callable[[np.ndarray, np.ndarray], tuple],
                starts: Sequence[tuple[float, float]],
                tol: float = 1e-10, max_iter: int = 200) -> MaxResult:
    """Maximize f over the positive quadrant by a trust-region Newton
    ascent from each start, all starts in lockstep.

    Each round evaluates every live start's next point through one call
    f(x, y), which gets their coordinates as two arrays and returns their
    values (k,), gradients (k, 2) and Hessians (k, 2, 2), the derivatives
    taken in (log x, log y); a start leaves when its search ends, and
    given the same values each start takes the steps that it would take
    alone.  The search moves in log coordinates, which keeps both
    variables positive without constraint handling.  Each step is the
    saddle-free Newton step sum_i (v_i . g) / max(|lambda_i|, 1e-8) v_i
    over the Hessian's eigenpairs, which goes uphill along both
    eigendirections, cut to a trust radius: 0.5 at first, doubled up to 1
    after an accepted step that reached it, a quarter of the step after a
    rejected one.  A start converges when its next step is shorter than
    tol and gives up after max_iter evaluations; every accepted point is
    the best one of its start so far.  The result is the best point over
    all starts, ties broken toward the lexicographically smallest argmax,
    and its iterations count the points of all starts.
    """
    if not starts:
        raise ValueError("need at least one start")
    if any(sx <= 0.0 or sy <= 0.0 for sx, sy in starts):
        raise ValueError("log-space search needs positive starts")
    searches = [_newton_2d(start, tol, max_iter) for start in starts]
    outcomes = [None] * len(searches)
    live = list(range(len(searches)))
    points = [next(search) for search in searches]
    while live:
        values, grads, hessians = f(*np.array(points).T)
        still, next_points = [], []
        for row, sent in zip(live, zip(values.tolist(), grads.tolist(), hessians.tolist())):
            try:
                next_points.append(searches[row].send(sent))
                still.append(row)
            except StopIteration as stop:
                outcomes[row] = stop.value
        live, points = still, next_points
    argmax, value, _, _ = max(outcomes, key=lambda o: (o[1], -o[0][0], -o[0][1]))
    return MaxResult(argmax=argmax, max_value=value,
                     iterations=sum(o[2] for o in outcomes),
                     converged=any(o[3] for o in outcomes))


def _saddle_free_step(g, h) -> tuple[float, float]:
    """sum_i (v_i . g) / max(|lambda_i|, _EIG_FLOOR) v_i over the
    eigenpairs of the symmetric 2x2 matrix h, in closed form."""
    a, b, c = h[0][0], h[0][1], h[1][1]
    theta = 0.5 * math.atan2(2.0 * b, a - c)
    cs, sn = math.cos(theta), math.sin(theta)
    sx = sy = 0.0
    for vx, vy in ((cs, sn), (-sn, cs)):
        lam = a * vx * vx + 2.0 * b * vx * vy + c * vy * vy
        coef = (vx * g[0] + vy * g[1]) / max(abs(lam), _EIG_FLOOR)
        sx += coef * vx
        sy += coef * vy
    return sx, sy

"""Maximization on exact derivatives.

One trust-region Newton search serves every maximization of the bounds:

* :func:`maximize_1d_newton` -- many independent searches on [lo, hi],
  one per row of a vectorised objective.  It serves the K+ search over
  log u and the (B) and (BB) searches over the trial scale log lam.
* :func:`maximize_2d` -- one search per start over two positive
  variables, in log coordinates, and the best start wins.  It serves the
  (F) search over (p, sigma).

Each search is a generator (:func:`_search`) that yields its next point
and is sent the value, gradient and Hessian there; a step rule
(:func:`_step_1d`, :func:`_step_2d`) proposes each trial point.  One
driver (:func:`_lockstep`) evaluates every live search's next point in
one vectorised call per round, and given the same values each search
takes the steps that it would take alone.  Both searches share the rest:

* a trial is accepted when its value does not fall, so the current point
  is always the best one, and a truncated run still yields a usable value
  for callers whose objective is itself a certified lower bound;
* the trust radius doubles, up to a maximum, after an accepted step that
  reached it, and falls to a quarter of a rejected step;
* a search converges when its model's gain g.s + s'Hs/2 is at rounding
  level, 2 eps max(1, |f|), or 32 eps max(1, |f|) once a trial has fallen
  by no more than that.  It stops unconverged after max_iter evaluations
  or where the value or a derivative is not finite.
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
    # the slope (gradient) and curvature (Hessian) at the argmax, and how
    # far the value may still lie below the maximum: the model's remaining
    # gain plus the rounding floor
    slope: float | list = math.nan
    curvature: float | list = math.nan
    gain: float = math.nan


# The rounding floors of the stop test, relative to max(1, |f|): the first
# while no trial has fallen by rounding noise alone, the second after one.
_FLOOR = 2.0 * sys.float_info.epsilon
_NOISE_FLOOR = 32.0 * sys.float_info.epsilon
# Initial and largest trust radius: in x for the 1-D search, in log
# coordinates for the 2-D one; and the floor on |Hessian eigenvalue| in
# the 2-D step.
_RADII_1D = (1.0, 8.0)
_RADII_2D = (0.5, 1.0)
_EIG_FLOOR = 1e-8


def _search(step, x, radii: tuple[float, float], max_iter: int):
    """One search as a generator: it yields each point, x first, is sent
    (value, gradient, Hessian) there, and returns the MaxResult of its best
    point x.  step(x, f, g, h, radius) gives the trial point, the step
    length (exactly radius when cut to it) and the model's gain."""
    f, g, h = yield x
    evaluations, floor = 1, _FLOOR
    radius, radius_max = radii
    while True:
        tol = floor * max(1.0, abs(f))
        trial, length, gain = step(x, f, g, h, radius)
        if not math.isfinite(f + gain):
            return MaxResult(x, f, evaluations, False, g, h, math.inf)
        if gain <= tol or evaluations >= max_iter:
            return MaxResult(x, f, evaluations, gain <= tol, g, h, max(gain, 0.0) + tol)
        ft, gt, ht = yield trial
        evaluations += 1
        if ft >= f:
            x, f, g, h = trial, ft, gt, ht
            if length == radius:
                radius = min(2.0 * radius, radius_max)
        else:
            if f - ft <= _NOISE_FLOOR * max(1.0, abs(f)):
                floor = _NOISE_FLOOR
            radius = 0.25 * length


def _lockstep(searches: list, evaluate: Callable) -> list:
    """Run the generators of :func:`_search` together.  Each round sends
    every live search its (value, gradient, Hessian) from one call
    evaluate(rows, points), which gets the live searches' indices and next
    points; a search leaves when it ends.  Returns each search's MaxResult,
    or the BracketBoundaryError that it raised."""
    outcomes = [None] * len(searches)
    live = list(range(len(searches)))
    points = [next(search) for search in searches]
    while live:
        still, next_points = [], []
        for row, sent in zip(live, evaluate(live, points)):
            try:
                next_points.append(searches[row].send(sent))
                still.append(row)
            except StopIteration as stop:
                outcomes[row] = stop.value
            except BracketBoundaryError as exc:
                outcomes[row] = exc
        live, points = still, next_points
    return outcomes


def _step_1d(lo: float, hi: float):
    """The step rule of :func:`maximize_1d_newton` on [lo, hi]; at a point
    that is not finite it leaves the stop to :func:`_search`."""
    def step(x: float, f: float, g: float, h: float, radius: float):
        s = -g / h if h < 0.0 else math.copysign(radius, g)
        s = min(max(s, -radius, lo - x), radius, hi - x)
        gain = s * (g + 0.5 * h * s)
        if s == 0.0 and g != 0.0 and math.isfinite(f + gain):
            raise BracketBoundaryError("hi" if g > 0.0 else "lo", x, f)
        return x + s, abs(s), gain
    return step


def maximize_1d_newton(f: Callable[[np.ndarray, np.ndarray], tuple],
                       lo: float, hi: float, x0: Sequence[float], max_iter: int = 100,
                       ) -> list[MaxResult | BracketBoundaryError]:
    """Maximize smooth functions on [lo, hi], one per row, each from its
    own start in x0, by the trust-region Newton search of this module.

    Each round evaluates every live row's next point through one call
    f(rows, x), which gets the live rows' indices and abscissae as arrays
    and returns their values, first and second derivatives as three
    arrays.  A step is the Newton step where the curvature is negative and
    a step of the trust radius uphill elsewhere, cut to the radius and to
    [lo, hi]; the radius starts at 1 and grows to at most 8.  A row raises
    (returns) :class:`BracketBoundaryError` at a bound where the slope
    points outward.
    """
    if not lo < hi or not all(lo <= x <= hi for x in x0):
        raise ValueError(f"need lo <= x0 <= hi, got ({lo}, {list(x0)}, {hi})")

    def evaluate(rows, xs):
        return zip(*(v.tolist() for v in f(np.array(rows), np.array(xs))))

    step = _step_1d(lo, hi)
    outcomes = _lockstep([_search(step, x, _RADII_1D, max_iter) for x in x0], evaluate)
    for outcome in outcomes:
        if isinstance(outcome, MaxResult):
            outcome.argmax = (outcome.argmax,)
    return outcomes


def _step_2d(x, _f: float, g, h, radius: float):
    """The 2-D step rule from x = (z, exp z): the saddle-free Newton step
    sum_i (v_i . g) / max(|lambda_i|, _EIG_FLOOR) v_i over the eigenpairs
    of the symmetric 2x2 Hessian h, in closed form, cut to the radius."""
    a, b, c = h[0][0], h[0][1], h[1][1]
    theta = 0.5 * math.atan2(2.0 * b, a - c)
    cs, sn = math.cos(theta), math.sin(theta)
    sx = sy = 0.0
    for vx, vy in ((cs, sn), (-sn, cs)):
        lam = a * vx * vx + 2.0 * b * vx * vy + c * vy * vy
        coef = (vx * g[0] + vy * g[1]) / max(abs(lam), _EIG_FLOOR)
        sx += coef * vx
        sy += coef * vy
    length = math.hypot(sx, sy)
    if length > radius:
        sx, sy, length = sx * radius / length, sy * radius / length, radius
    gain = g[0] * sx + g[1] * sy + 0.5 * (a * sx * sx + 2.0 * b * sx * sy + c * sy * sy)
    zx, zy = x[0][0] + sx, x[0][1] + sy
    return ((zx, zy), (math.exp(zx), math.exp(zy))), length, gain


def maximize_2d(f: Callable[[np.ndarray, np.ndarray], tuple],
                starts: Sequence[tuple[float, float]], max_iter: int = 200) -> MaxResult:
    """Maximize f over the positive quadrant by the trust-region Newton
    search of this module from each start, all starts in lockstep.

    Each round evaluates every live start's next point through one call
    f(x, y), which gets their coordinates as two arrays and returns their
    values (k,), gradients (k, 2) and Hessians (k, 2, 2), the derivatives
    taken in (log x, log y).  The search moves in log coordinates, which
    keeps both variables positive without constraint handling.  Each step
    is the saddle-free Newton step, which goes uphill along both
    eigendirections of the Hessian, cut to a trust radius that starts at
    0.5 and grows to at most 1.  The result is the best point over all
    starts, a non-finite value ranked below every finite one and ties
    broken toward the lexicographically smallest argmax; its iterations
    count the points of all starts, and it is converged if any start is.
    """
    if not starts:
        raise ValueError("need at least one start")
    if any(sx <= 0.0 or sy <= 0.0 for sx, sy in starts):
        raise ValueError("log-space search needs positive starts")

    def evaluate(_rows, points):
        values, grads, hessians = f(*np.array([point for _z, point in points]).T)
        return zip(values.tolist(), grads.tolist(), hessians.tolist())

    searches = [_search(_step_2d, ((math.log(sx), math.log(sy)), (sx, sy)), _RADII_2D, max_iter)
                for sx, sy in starts]
    outcomes = _lockstep(searches, evaluate)
    for outcome in outcomes:
        outcome.argmax = outcome.argmax[1]
    best = max(outcomes, key=lambda o: (math.isfinite(o.max_value), o.max_value,
                                        -o.argmax[0], -o.argmax[1]))
    best.iterations = sum(o.iterations for o in outcomes)
    best.converged = any(o.converged for o in outcomes)
    return best

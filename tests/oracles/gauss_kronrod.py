"""Adaptive Gauss(7)/Kronrod(15) quadrature with bisection, the tests'
reference integrator.

* :func:`integrate_finite`  -- finite interval; each half is mapped through
  t = endpoint +/- x**4, which turns inverse-square-root endpoint
  behaviour into a bounded integrand.
* :func:`integrate_semiinf` -- [a, inf) with an algebraically decaying
  tail ~ C * u**(-1 - kappa).  The interval is compactified and the
  remaining algebraic endpoint singularity is flattened with a power
  substitution chosen from the declared decay exponent.

No bound uses either driver; the tests check the bounds' fixed rules and
closed forms against them.  Integrand callbacks receive numpy arrays and
must be pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadResult",
    "TailSpec",
    "SlowTailError",
    "QuadratureError",
    "integrate_finite",
    "integrate_semiinf",
]


class QuadratureError(RuntimeError):
    pass


class SlowTailError(QuadratureError):
    """Tail decays too slowly for direct quadrature; use an analytic route."""


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_error_estimate: float
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class TailSpec:
    """Decay of a semi-infinite integrand: f(u) ~ C * u**(-1 - decay_exponent)."""

    decay_exponent: float

    def __post_init__(self) -> None:
        if not self.decay_exponent > 0.0:
            raise ValueError("decay_exponent must be positive (else the integral diverges)")


# 7/15-point Gauss-Kronrod abscissae and weights on [-1, 1].
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# Full 15-point node set in increasing order, plus matching weights.
_NODES15 = np.concatenate((-_XGK[:-1], _XGK[::-1]))
_W15 = np.concatenate((_WGK[:-1], _WGK[::-1]))
_W7 = np.zeros(15)
_W7[1:-1:2] = np.concatenate((_WG[:-1], _WG[::-1]))

_TINY = 1e-305
_INIT_PANELS = 8
# Evaluation budget of one adaptive Gauss-Kronrod pass.
_MAX_EVALS = 500_000


def _gk_panels(fv, lo: np.ndarray, hi: np.ndarray):
    """Kronrod value and |K15 - G7| error for a batch of panels."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = mid[:, None] + half[:, None] * _NODES15[None, :]
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        vals = fv(pts.ravel()).reshape(pts.shape)
    vals = np.where(np.isfinite(vals), vals, 0.0)
    k15 = half * (vals @ _W15)
    g7 = half * (vals @ _W7)
    return k15, np.abs(k15 - g7)


def _adaptive(fv, a: float, b: float, tol: float) -> QuadResult:
    edges = np.linspace(a, b, _INIT_PANELS + 1)
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _gk_panels(fv, lo, hi)
    nev = 15 * _INIT_PANELS
    min_width = 2.3e-16 * max(abs(a), abs(b), 1.0)

    while True:
        total = float(vals.sum())
        toterr = float(errs.sum())
        allow = max(tol * abs(total), _TINY)
        if toterr <= allow:
            return QuadResult(total, toterr, nev, True)
        if nev >= _MAX_EVALS:
            return QuadResult(total, toterr, nev, False)

        splittable = (hi - lo) > min_width
        if not splittable.any():
            return QuadResult(total, toterr, nev, False)
        # Split the worst offenders this sweep (batched).
        order = np.argsort(-np.where(splittable, errs, -1.0))
        share = allow / max(len(lo), 1)
        k = int(np.searchsorted(-errs[order], -share))
        k = min(max(k, 1), 64, int(splittable.sum()))
        pick = order[:k]

        mids = 0.5 * (lo[pick] + hi[pick])
        new_lo = np.concatenate((lo[pick], mids))
        new_hi = np.concatenate((mids, hi[pick]))
        new_vals, new_errs = _gk_panels(fv, new_lo, new_hi)
        nev += 15 * len(new_lo)

        keep = np.ones(len(lo), dtype=bool)
        keep[pick] = False
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        vals = np.concatenate((vals[keep], new_vals))
        errs = np.concatenate((errs[keep], new_errs))


def integrate_finite(f: Callable, a: float, b: float, tol: float = 1e-9) -> QuadResult:
    """Integrate f on [a, b].

    Inverse-square-root endpoint singularities are admissible (and in fact
    anything integrable up to ~(t - endpoint)^(-3/4)): each half of the
    interval is mapped through t = endpoint +/- x**4 before the adaptive
    Gauss-Kronrod pass, so the quadrature never evaluates f at the
    endpoints and algebraic blowups become bounded.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    m = 0.5 * (a + b)

    def left(x: np.ndarray) -> np.ndarray:
        x2 = x * x
        return 4.0 * x2 * x * f(a + x2 * x2)

    def right(x: np.ndarray) -> np.ndarray:
        x2 = x * x
        return 4.0 * x2 * x * f(b - x2 * x2)

    rl = _adaptive(left, 0.0, (m - a) ** 0.25, tol)
    rr = _adaptive(right, 0.0, (b - m) ** 0.25, tol)
    value = rl.value + rr.value
    err = rl.abs_error_estimate + rr.abs_error_estimate
    converged = err <= max(tol * abs(value), _TINY)
    return QuadResult(value, err, rl.evaluations + rr.evaluations, converged)


def integrate_semiinf(f: Callable, a: float, tail: TailSpec,
                      tol: float = 1e-9) -> QuadResult:
    """Integrate f on [a, inf) given its algebraic tail decay.

    The unit interval [a, a+1] is integrated directly (so an endpoint
    singularity at a keeps full machine resolution); the tail is then
    compactified through u = a + v**(-m) with m ~ 1/decay_exponent, which
    turns it into a bounded factor v**(m*kappa - 1) at v = 0.
    """
    kappa = tail.decay_exponent
    if kappa < 0.01:
        raise SlowTailError(
            f"tail exponent {kappa} < 0.01: direct quadrature is impractical, "
            "switch to an analytic bound")
    m = int(min(24, max(1, math.ceil(1.0 / kappa))))

    def tail_part(v: np.ndarray) -> np.ndarray:
        logv = np.log(v)
        expo = np.minimum(-m * logv, 690.0)
        u = a + np.exp(expo)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            out = m * np.exp(expo - logv) * f(u)
        return np.where(np.isfinite(out), out, 0.0)

    head = integrate_finite(f, a, a + 1.0, tol)
    rest = integrate_finite(tail_part, 0.0, 1.0, tol)
    value = head.value + rest.value
    err = head.abs_error_estimate + rest.abs_error_estimate
    converged = err <= max(tol * abs(value), _TINY)
    return QuadResult(value, err, head.evaluations + rest.evaluations, converged)

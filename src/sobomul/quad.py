"""The tanh-sinh (double exponential) rule on (0, 1).

The special-function and kernel code use it for Euler integrals, whose
integrands have strong but integrable endpoint singularities; the kernel
code integrates a batch of integrands on shared nodes.  The node tables
are built once per process.  Integrand callbacks receive numpy arrays and
must be pure.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = ["tanh_sinh_01"]

_TINY = 1e-305
_TS_XMAX = 6.7
_TS_MAX_LEVEL = 12


@lru_cache(maxsize=None)
def _ts_level(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (s, 1-s, w) tables of one tanh-sinh level, built on first
    use and shared by every later call.  Level 0 is the centre node x = 0,
    level 1 the nodes x = k/2, and level L > 1 the odd multiples of
    2^-L, the nodes that step 2^-L adds."""
    if level == 0:
        s = np.array([0.5])
        tables = (s, s, np.array([math.pi * 0.25]))
    else:
        h = 0.5 ** level
        x = np.arange(1, int(_TS_XMAX / h) + 1, 1 if level == 1 else 2) * h
        x = np.concatenate((-x[::-1], x))
        u = 0.5 * math.pi * np.sinh(x)
        # s and 1-s via logistic forms; both stable at the extremes.
        with np.errstate(over="ignore", under="ignore"):
            e2u = np.exp(-2.0 * np.abs(u))
        small = e2u / (1.0 + e2u)          # min(s, 1-s)
        big = 1.0 / (1.0 + e2u)            # max(s, 1-s)
        s = np.where(u >= 0, big, small)
        oms = np.where(u >= 0, small, big)
        w = math.pi * np.cosh(x) * s * oms
        tables = (s, oms, w)
    for table in tables:
        table.flags.writeable = False
    return tables


def tanh_sinh_01(g: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 tol: float = 1e-12) -> tuple[np.ndarray | float, np.ndarray | float, int]:
    """Double-exponential quadrature of g over (0, 1).

    g receives both s and 1-s (each computed without cancellation), so
    integrands singular at either endpoint keep full relative accuracy.
    g may return a (batch, nodes) array for a batch of integrands that
    share the nodes: the rule sums over the last axis and refines until
    every integral has converged.  Returns (value, error_estimate,
    evaluations); value and error_estimate have g's leading shape.
    The node tables are built once per process (read-only arrays).
    """

    def accumulate(level: int) -> np.ndarray:
        s, oms, w = _ts_level(level)
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            terms = w * g(s, oms)
        return np.where(np.isfinite(terms), terms, 0.0).sum(axis=-1)

    h = 0.5
    total = accumulate(0) + accumulate(1)
    nev = 1 + len(_ts_level(1)[0])
    value = h * total
    err = abs(value)

    for level in range(2, _TS_MAX_LEVEL + 1):
        h *= 0.5
        total = total + accumulate(level)
        nev += len(_ts_level(level)[0])
        new_value = h * total
        err = abs(new_value - value)
        value = new_value
        if np.all(err <= np.maximum(tol * abs(value), _TINY)):
            break
    return value, err, nev

"""The node tables of the tanh-sinh (double exponential) rule on (0, 1).

Euler integrals have strong but integrable endpoint singularities, which
this rule handles.  The tables of each level are built once per process;
the kernel code sums its normalised Euler rule on them directly and
refines level by level up to _TS_MAX_LEVEL.  The module has no public
function.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = []

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

"""The residual scan behind Z_d and Theta_d, one gap at a time: the
reference that ``sobomul.bounds._residual_scan`` must reproduce bit for
bit.

Each gap builds its own query and takes K+ from the scalar
``bounds.k_plus`` (its closed form up to gap 1/2, a one-row search
beyond), then its residual and K++ from the public
``bounds.envelope_residual`` and ``bounds.k_plus_plus``.  No search is
batched and no value is shared between gaps; the suprema are taken on
Python floats, the first of equal maxima.
"""

import math

from sobomul import bounds
from sobomul.kernels import BoundQuery

__all__ = ["residual_scan"]


def _three_figures(x: float) -> float:
    """x rounded to 3 significant figures, the published precision of Z_d
    that Theta_d is quoted for."""
    if x == 0.0:
        return 0.0
    return round(x, 2 - int(math.floor(math.log10(abs(x)))))


def residual_scan(d: int) -> bounds.ElementaryBoundData:
    """Z_d and Theta_d over ``bounds.default_residual_grid(d)``; a K+ whose
    search ran out of budget raises ArithmeticError."""
    grid = bounds.default_residual_grid(d)
    queries = [BoundQuery(d=d, n=d / 2.0 + gap) for gap in grid]
    ks = []
    for q in queries:
        res = bounds.k_plus(q)
        if "caveat" in res.diagnostics:
            raise ArithmeticError(f"K+ at (n, d) = ({q.n:g}, {d}): {res.diagnostics['caveat']}")
        ks.append(res.value)
    zs = [bounds.envelope_residual(q, k) for q, k in zip(queries, ks)]
    i_z = zs.index(max(zs))
    z_for_theta = _three_figures(zs[i_z])
    ratios = [bounds.k_plus_plus(q, z_for_theta).value / k for q, k in zip(queries, ks)]
    i_t = ratios.index(max(ratios))
    ends = (0, len(grid) - 1)
    return bounds.ElementaryBoundData(
        d=d, big_z=zs[i_z], theta=ratios[i_t],
        argmax_gap_z=grid[i_z], argmax_gap_theta=grid[i_t],
        endpoint_warning=i_z in ends or i_t in ends)

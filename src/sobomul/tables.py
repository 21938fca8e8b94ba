"""Reference tables and batch drivers.

``GOLDEN_TABLE1`` and ``GOLDEN_TABLE2`` hold the published 3-significant-
figure values that the acceptance suite and the CLI ``--compare`` mode diff
against: upper bound, lower/upper ratio and the selected lower-bound tag
for d = 1..4 over thirteen n per dimension, plus the envelope constants
Z_d and Theta_d for d = 1..10.

``table1_rows`` evaluates one dimension's row, cell by cell;
``table2_rows`` runs the residual scans, whose K+ searches share one
batched Newton search per dimension, one kernel call per round, and
whose residuals and K++ values are formed gap by gap on plain floats
(see ``bounds._residual_scan``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import bounds
from .kernels import BoundQuery

__all__ = [
    "TABLE1_GAPS",
    "GOLDEN_TABLE1",
    "GOLDEN_TABLE2",
    "Table1Cell",
    "gap_label",
    "sig3_tolerance",
    "table1_queries",
    "table1_rows",
    "table2_rows",
]

# n = d/2 + gap for each of the thirteen columns.
TABLE1_GAPS: tuple[Fraction, ...] = (
    Fraction(1, 10_000), Fraction(1, 100), Fraction(1, 10), Fraction(1, 4),
    Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(3), Fraction(6),
    Fraction(15), Fraction(30), Fraction(60), Fraction(120),
)

# d -> (upper bounds, lower/upper ratios, tags), column order as above.
GOLDEN_TABLE1: dict[int, dict[str, tuple]] = {
    1: {
        "k_plus": (56.5, 5.69, 1.90, 1.30, 1.00, 0.852, 0.814, 0.834, 1.07,
                   3.09, 22.4, 1410.0, 6.63e6),
        "ratio": (0.816, 0.818, 0.824, 0.834, 0.842, 0.810, 0.777, 0.766,
                  0.787, 0.794, 0.794, 0.789, 0.791),
        "tag": ("(BB)", "(BB)", "(BB)", "(B)", "(B)", "(B)", "(B)", "(F)",
                "(F)", "(F)", "(F)", "(FF)", "(FF)"),
    },
    2: {
        "k_plus": (39.9, 3.99, 1.27, 0.798, 0.565, 0.428, 0.378, 0.332,
                   0.361, 0.831, 5.08, 269.0, 1.07e6),
        "ratio": (0.816, 0.817, 0.826, 0.844, 0.865, 0.842, 0.811, 0.752,
                  0.772, 0.788, 0.794, 0.786, 0.789),
        "tag": ("(BB)", "(BB)", "(BB)", "(B)", "(B)", "(B)", "(B)", "(F)",
                "(F)", "(F)", "(F)", "(FF)", "(FF)"),
    },
    3: {
        "k_plus": (22.6, 2.25, 0.692, 0.421, 0.283, 0.198, 0.164, 0.128,
                   0.120, 0.223, 1.15, 51.2, 1.71e5),
        "ratio": (0.816, 0.817, 0.826, 0.847, 0.875, 0.858, 0.830, 0.763,
                  0.759, 0.781, 0.788, 0.782, 0.787),
        "tag": ("(BB)", "(BB)", "(BB)", "(B)", "(B)", "(B)", "(B)", "(B)",
                "(F)", "(F)", "(F)", "(FF)", "(FF)"),
    },
    4: {
        "k_plus": (11.3, 1.12, 0.340, 0.202, 0.130, 0.0857, 0.0678, 0.0473,
                   0.0389, 0.0590, 0.259, 9.72, 2.73e4),
        "ratio": (0.816, 0.817, 0.826, 0.849, 0.880, 0.867, 0.842, 0.779,
                  0.750, 0.775, 0.785, 0.778, 0.785),
        "tag": ("(BB)", "(BB)", "(BB)", "(B)", "(B)", "(B)", "(B)", "(B)",
                "(F)", "(F)", "(F)", "(FF)", "(FF)"),
    },
}

# d -> (Z_d, Theta_d) for d = 1..10.
GOLDEN_TABLE2: dict[int, tuple[float, float]] = {
    1: (0.0, 1.041), 2: (0.00925, 1.039), 3: (0.0458, 1.044),
    4: (0.0782, 1.044), 5: (0.105, 1.044), 6: (0.122, 1.044),
    7: (0.128, 1.049), 8: (0.125, 1.105), 9: (0.115, 1.197),
    10: (0.102, 1.363),
}


def sig3_tolerance(value: float) -> float:
    """One unit in the third significant figure of a printed value."""
    return 10.0 ** (math.floor(math.log10(abs(value))) - 2)


def gap_label(d: int, gap: Fraction) -> str:
    """Column label in the published style, e.g. 'd/2+1e-4' or '5/2'."""
    if gap.denominator > 4:
        exp = round(math.log10(float(gap)))
        half = Fraction(d, 2)
        base = str(half.numerator) if half.denominator == 1 else f"{half.numerator}/{half.denominator}"
        return f"{base}+1e{exp}"
    n = Fraction(d, 2) + gap
    return str(n.numerator) if n.denominator == 1 else f"{n.numerator}/{n.denominator}"


def table1_queries(d: int) -> list[BoundQuery]:
    return [BoundQuery(d=d, n=float(Fraction(d, 2) + g), n_exact=Fraction(d, 2) + g)
            for g in TABLE1_GAPS]


@dataclass(frozen=True)
class Table1Cell:
    d: int
    n_exact: Fraction
    label: str
    k_plus: float
    k_minus: float
    k_minus_error: float  # the lower bound's absolute error estimate
    ratio: float
    tag: str
    lower_argmax: tuple[float, ...]
    error: str | None = None


def table1_rows(d: int, with_lower: bool = True) -> list[Table1Cell]:
    """Evaluate one dimension of the bounds table.

    Each cell depends on its own (n, d) alone.  Per-cell failures, of K+
    or of the lower bound, are recorded in the cell, whose values not
    computed are NaN, and the row continues.
    """
    cells: list[Table1Cell] = []
    for gap, q in zip(TABLE1_GAPS, table1_queries(d)):
        err = None
        k_plus = k_minus = k_minus_error = ratio = float("nan")
        lower_arg: tuple[float, ...] = ()
        tag = ""
        try:
            kp = bounds.k_plus(q)
            if "caveat" in kp.diagnostics:
                raise ArithmeticError(kp.diagnostics["caveat"])
            k_plus = kp.value
            if with_lower:
                low = bounds.best_lower(q)
                k_minus = low.value
                k_minus_error = low.error_estimate
                ratio = low.value / kp.value
                tag = low.tag
                lower_arg = low.argmax.as_tuple() if low.argmax else ()
        except Exception as exc:  # record and continue per row contract
            tag = "(?)" if with_lower else ""
            err = f"{type(exc).__name__}: {exc}"
        cells.append(Table1Cell(
            d=d, n_exact=q.n_exact, label=gap_label(d, gap), k_plus=k_plus,
            k_minus=k_minus, k_minus_error=k_minus_error, ratio=ratio, tag=tag,
            lower_argmax=lower_arg, error=err))
    return cells


def table2_rows(d_max: int = 10) -> list[bounds.ElementaryBoundData]:
    """Z_d and Theta_d for d = 1..d_max via the residual scans; a scan
    search that is not certified raises ArithmeticError."""
    if not 1 <= d_max <= 10:
        raise ValueError("d_max must lie in 1..10")
    return [bounds.envelope_residual_sup(d) for d in range(1, d_max + 1)]

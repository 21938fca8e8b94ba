"""Workload definitions: the argv lists the benchmark passes to
``sobomul.cli.main``.

table1   two rows of the bounds table (d = 1 and d = 2, 26 of the 52
         published cells).  Each row is one CLI call; the seed only fixes
         the order of the two rows.
table2   the residual scans for d = 1..10 in one CLI call.
queries  a seeded stream of independent ``sandwich`` calls, stratified so
         that every seed has the same route mix (see ``query_stream``).

The program receives only argv strings; n is always an exact fraction.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("table1", "table2", "queries")
# Operations per CLI call: a table1 row has 13 cells, table2 has 10 dimensions.
OPS_PER_CALL = {"table1": 13, "table2": 10, "queries": 1}

# The full table (d = 1..4) takes about 55 s on a 2-core host, more than one
# run may measure; d = 1 (odd d, half-integer Bessel order, the red cell
# (1, 61/2)) and d = 2 (even d) together take about 27 s.
TABLE1_ROWS = (1, 2)

# Query stream composition: per input class, how many queries per d.
EDGE_PER_D = 4          # n - d/2 in [1e-12, 0.1): (BB) and closed-form K+
LARGE_PER_D = 4         # 50 < n <= 300: (FF)
INTEGER_PER_D = 7        # integer n <= 50: closed-sum (F); d odd or even
N_LARGE_MAX = 300
N_INTEGER_MAX = 50
# For odd d, integer n has a half-integer gap n - d/2 = m + 1/2, and the
# (B) squared norm is a double sum of order m that cancels as m grows.
# Against the quadrature route it holds 1e-9 up to gap 6.5 for every odd
# d <= 9; from gap 18.5 (d = 9) or 25.5 (d = 1) it exits 3 or returns K-
# far above K+ (see README.md).  Odd-d integer n stops at this gap.
ODD_D_MAX_GAP = Fraction(13, 2)
QUERY_CLASSES = ("edge", "large_n", "integer_n_odd_d", "integer_n_even_d")


def table1_ops(seed: int) -> list[list[str]]:
    rows = list(TABLE1_ROWS)
    random.Random(seed).shuffle(rows)
    return [["table1", "-d", str(d), "--json"] for d in rows]


def table2_ops(seed: int) -> list[list[str]]:
    return [["table2", "--dmax", "10", "--json"]]


def _one_per_chunk(pick, lo: int, hi: int, count: int) -> list[int]:
    """pick(a, b) from each [a, b) of ``count`` equal contiguous chunks of
    range(lo, hi); the chunks are disjoint, so the picks are distinct."""
    size = hi - lo
    return [pick(lo + i * size // count, lo + (i + 1) * size // count)
            for i in range(count)]


def query_stream(seed: int) -> list[tuple[str, list[str]]]:
    """(input class, argv) for every query of the stream, in run order.

    Stratified: for every d = 1..10 each class's range of n (or of log10 of
    the gap) is cut into equal chunks with one query per chunk, so every
    seed has the same route mix.  Edge and n > 50 queries are drawn inside
    their chunks.  Integer-n queries sit at the chunk centres for every
    seed: whether the double sum fails and how many seconds a closed sum
    takes jump erratically with n, and drawing them moved query_p90_s by
    about 20% from seed to seed.  The seed also shuffles the order.  No two
    queries share (n, d), so no query reuses another's cache entries.
    """
    rng = random.Random(seed)
    queries: list[tuple[str, Fraction, int]] = []
    for d in range(1, 11):
        half = Fraction(d, 2)
        for i in range(EDGE_PER_D):
            width = 11.0 / EDGE_PER_D          # log10 gap in [-12, -1)
            x = rng.uniform(-12.0 + i * width, -12.0 + (i + 1) * width)
            queries.append(("edge", half + Fraction(f"{10.0 ** x:.2e}"), d))
        for cents in _one_per_chunk(rng.randrange, 50 * 100 + 1, N_LARGE_MAX * 100 + 1,
                                    LARGE_PER_D):
            queries.append(("large_n", Fraction(cents, 100), d))
        cls = "integer_n_odd_d" if d % 2 else "integer_n_even_d"
        n_max = int(half + ODD_D_MAX_GAP) if d % 2 else N_INTEGER_MAX
        for n in _one_per_chunk(lambda a, b: (a + b) // 2, d // 2 + 1, n_max + 1,
                                INTEGER_PER_D):
            queries.append((cls, Fraction(n), d))
    rng.shuffle(queries)
    return [(cls, ["sandwich", "-n", str(n), "-d", str(d), "--json"])
            for cls, n, d in queries]


def ops_for(workload: str, seed: int) -> tuple[list[list[str]], list[str]]:
    """argv per CLI call, and the input class of each call."""
    if workload == "table1":
        ops = table1_ops(seed)
        return ops, ["row"] * len(ops)
    if workload == "table2":
        ops = table2_ops(seed)
        return ops, ["scan"] * len(ops)
    if workload == "queries":
        stream = query_stream(seed)
        return [argv for _, argv in stream], [cls for cls, _ in stream]
    raise ValueError(f"unknown workload {workload!r}")

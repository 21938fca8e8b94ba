"""Tests of the benchmark's own logic: the seeded query stream, the
failure and percentile accounting, and the tracer's self-time arithmetic.

    python3 -m pytest bench/tests
"""

import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def shares(stream):
    counts = Counter(cls for cls, _ in stream)
    return {cls: k / len(stream) for cls, k in counts.items()}


def test_same_seed_same_stream_and_shares():
    a, b = workloads.query_stream(7), workloads.query_stream(7)
    assert a == b
    other = workloads.query_stream(8)
    assert other != a
    assert shares(a) == shares(other)
    assert set(shares(a)) == set(workloads.QUERY_CLASSES)
    assert workloads.ops_for("queries", 7)[0] == [argv for _, argv in a]


@pytest.mark.parametrize("seed", [0, 1, 2, 12345])
def test_stream_strata(seed):
    stream = workloads.query_stream(seed)
    pairs = set()
    per_d = Counter()
    for cls, argv in stream:
        assert argv[0] == "sandwich" and argv[-1] == "--json"
        n, d = Fraction(argv[2]), int(argv[4])   # n is an exact fraction
        assert str(n) == argv[2]
        pairs.add((n, d))
        per_d[d] += 1
        gap = n - Fraction(d, 2)
        if cls == "edge":
            assert Fraction(1, 10 ** 12) <= gap <= Fraction(1, 10)
        elif cls == "large_n":
            assert 50 < n <= workloads.N_LARGE_MAX
        else:
            assert n.denominator == 1 and gap > 0 and n <= workloads.N_INTEGER_MAX
            assert (d % 2 == 1) == (cls == "integer_n_odd_d")
            if d % 2:
                assert gap <= workloads.ODD_D_MAX_GAP
    assert len(pairs) == len(stream)            # no shared (n, d)
    assert set(per_d.values()) == {len(stream) // 10}


def call(code, records=None, seconds=1.0, stderr=""):
    stdout = json.dumps({"tol_rel": 1e-9, "records": records}) if records is not None else ""
    return {"code": code, "stdout": stdout, "stderr": stderr, "seconds": seconds,
            "argv": ["sandwich", "-n", "3", "-d", "1", "--json"]}


def test_failure_and_percentile_accounting():
    ok = [{"tag": "(F)", "k_plus": 2.0, "k_minus": 1.0}]
    bad = [{"tag": "(F)", "k_plus": 1.0, "k_minus": 2.0}]
    calls = [call(0, ok, 1.0), call(0, ok, 2.0), call(0, ok, 3.0), call(0, ok, 4.0),
             call(3, None, 0.5, "error: numerical failure: sum collapsed"),
             call(0, bad, 9.0)]

    def check(rec, tol):
        return [] if rec["k_minus"] < rec["k_plus"] else ["not K- < K+"]

    outcomes = [run.op_outcomes(c, 1, check) for c in calls]
    s = run.summarize(calls, outcomes, ["edge"] * 4 + ["integer_n_odd_d"] * 2)
    assert s["attempted"] == 6
    assert s["failed"] == 2
    assert s["wrong"] == 1
    assert s["fail_frac"] == pytest.approx(2 / 6)
    texts = [text for _, _, text in s["failures"]]
    assert any("sum collapsed" in t for t in texts)     # listed with its error
    assert any("not K- < K+" in t for t in texts)
    lat = run.completed_latencies(calls, outcomes)
    assert lat == [1.0, 2.0, 3.0, 4.0]
    assert s["class_share"] == {"edge": pytest.approx(4 / 6),
                                "integer_n_odd_d": pytest.approx(2 / 6)}
    assert s["tag_share"]["(F)"] == pytest.approx(4 / 6)
    assert s["tag_share"]["failed"] == pytest.approx(2 / 6)
    assert run.percentile(lat, 50) == pytest.approx(2.5)
    assert run.percentile(lat, 90) == pytest.approx(3.7)
    assert run.percentile([5.0], 90) == 5.0


def test_table_call_counts_every_cell():
    # A table1 row that exits non-zero without output fails all 13 cells;
    # a per-cell error fails that cell only.
    def check(rec, tol):
        return []

    assert run.op_outcomes(call(3, None, stderr="boom"), 13, check) == [("error", "exit 3: boom")] * 13
    rows = [{"tag": "(B)"}] * 12 + [{"tag": "(?)", "error": "ArithmeticError: x"}]
    out = run.op_outcomes(call(3, rows), 13, check)
    assert out[:12] == [None] * 12 and out[12] == ("error", "ArithmeticError: x")


def test_self_times_synthetic_nest():
    # A [0, 10] holds B [1, 4] and D [5, 9]; B holds C [2, 3].
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_tracer_spans_and_counts():
    tracer = Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x

    leaf_t = tracer.wrap("m.leaf", leaf)
    outer_t = tracer.wrap("m.outer", lambda: [leaf_t(i) for i in range(3)])
    tracer.op_id = 4
    outer_t()
    with pytest.raises(ValueError):
        leaf_t(-1)
    a = tracer.arrays()
    assert a["parent"].tolist() == [-1, 0, 0, 0, -1]
    assert a["op"].tolist() == [4] * 5
    assert np.all(a["end"] >= a["start"])
    m = tracer.layer_metrics(["m.leaf.calls", "m.outer.calls", "m.leaf.raised",
                              "m.outer.self_s", "m.outer.total_s", "m.other.calls"])
    assert (m["m.leaf.calls"], m["m.outer.calls"], m["m.leaf.raised"]) == (4, 1, 1)
    assert m["m.other.calls"] == 0
    own = self_times(a["start"], a["end"], a["parent"])
    top = a["parent"] == -1
    # self times partition the top-level spans' time
    assert own.sum() == pytest.approx((a["end"] - a["start"])[top].sum())
    assert m["m.outer.self_s"] <= m["m.outer.total_s"]

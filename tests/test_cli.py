"""CLI: exit codes, output formats, schema validity and determinism."""

import argparse
import csv
import io
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from sobomul import cli

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "src" / "sobomul" / "schema.json"


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate_payload(payload):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text())
    jsonschema.validate(payload, schema)


def test_parse_n():
    from fractions import Fraction
    assert cli.parse_n("5/2") == Fraction(5, 2)
    assert cli.parse_n("2.5") == Fraction(5, 2)
    assert cli.parse_n("3") == Fraction(3)
    with pytest.raises(Exception):
        cli.parse_n("abc")
    # an n that no double holds is rejected like inf and nan
    with pytest.raises(argparse.ArgumentTypeError, match="past the double range"):
        cli.parse_n("1e400")


def test_upper_human(capsys):
    code, out, _ = run(capsys, ["upper", "-n", "2", "-d", "2"])
    assert code == 0
    assert "0.4277" in out or "0.428" in out


def test_upper_domain_violation_exit_2(capsys):
    code, _, err = run(capsys, ["upper", "-n", "0.4", "-d", "1"])
    assert code == 2
    assert "d/2" in err


def test_sandwich_json_schema_and_values(capsys):
    code, out, _ = run(capsys, ["sandwich", "-n", "7/2", "-d", "1", "--json"])
    assert code == 0
    payload = json.loads(out)
    validate_payload(payload)
    rec = payload["records"][0]
    assert rec["n"] == "7/2"
    assert rec["tag"] == "(F)"
    assert -0.002 <= rec["ratio"] - 0.766 <= 0.01


def test_lower_minorant_json(capsys):
    code, out, _ = run(capsys, ["lower", "-n", "1.001", "-d", "2",
                                "--method", "bessel-bb", "--json"])
    assert code == 0
    payload = json.loads(out)
    validate_payload(payload)
    assert payload["records"][0]["method"] == "lower_bessel_bb"


def test_json_determinism(capsys):
    _, out1, _ = run(capsys, ["sandwich", "-n", "1", "-d", "1", "--json"])
    _, out2, _ = run(capsys, ["sandwich", "-n", "1", "-d", "1", "--json"])
    assert out1 == out2


def test_csv_header_and_row(capsys):
    code, out, _ = run(capsys, ["sandwich", "-n", "2", "-d", "2", "--csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,n,k_plus,k_minus,ratio,tag,argmax1,argmax2"
    cells = lines[1].split(",")
    assert cells[0] == "2" and cells[1] == "2"
    assert abs(float(cells[2]) - 0.4277) < 1e-3
    assert cells[5] == "(B)"


@pytest.mark.parametrize("argv", [
    ["table2", "--dmax", "2"],
    ["table2", "--dmax", "2", "--compare"],
    ["asymp", "--regime", "small", "-d", "2", "--n-list", "1e-4"],
])
def test_csv_carries_the_json_values(capsys, argv):
    # each record kind has its own CSV columns, and every JSON field among
    # them reads back unchanged: Z_d and Theta_d, or the asymptotic laws
    _, out, _ = run(capsys, argv + ["--json"])
    records = json.loads(out)["records"]
    code, out, _ = run(capsys, argv + ["--csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == len(records)
    for row, rec in zip(rows, records):
        fields = {**rec, **rec.get("compare", {})}
        keys = set(row) - {"endpoint_warning"}
        assert keys == ({"d", "n", "law", "law_ratio", "law_target"} if rec["kind"] == "asymp"
                        else {"d", "big_z", "theta"} | set(rec.get("compare", {})))
        for key in keys:
            want = fields[key]
            assert (float(row[key]) == want if isinstance(want, (int, float))
                    else row[key] == want), key
        if rec["kind"] == "table2":
            assert row["endpoint_warning"] == str(rec["endpoint_warning"]).lower()


@pytest.mark.parametrize("argv", [
    ["table1", "-d", "1", "--upper-only", "--compare"],
    ["table1", "-d", "2", "--compare"],
])
def test_bound_csv_carries_the_compare_fields(capsys, argv):
    # a bound record's --compare fields follow the bound columns in its CSV
    # row: the golden K+ and relative diff, and with the lower bounds on the
    # golden ratio, ratio diff, golden tag and tag match
    _, out, _ = run(capsys, argv + ["--json"])
    records = json.loads(out)["records"]
    code, out, _ = run(capsys, argv + ["--csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    compare = ["golden_k_plus", "k_plus_rel_diff"]
    if "--upper-only" not in argv:
        compare += ["golden_ratio", "ratio_diff", "golden_tag", "tag_match"]
    assert out.splitlines()[0] == "d,n,k_plus,k_minus,ratio,tag,argmax1,argmax2," + ",".join(compare)
    assert len(rows) == len(records) == 13
    for row, rec in zip(rows, records):
        assert sorted(rec["compare"]) == sorted(compare)
        for key, want in rec["compare"].items():
            if isinstance(want, bool):
                assert row[key] == str(want).lower(), key
            elif isinstance(want, str):
                assert row[key] == want, key
            else:
                assert float(row[key]) == want, key


def test_table1_upper_only_compare(capsys):
    code, out, _ = run(capsys, ["table1", "-d", "3", "--upper-only",
                                "--compare", "--json"])
    assert code == 0
    payload = json.loads(out)
    validate_payload(payload)
    recs = payload["records"]
    assert len(recs) == 13
    # every upper bound within one unit in the third significant figure
    from sobomul.tables import GOLDEN_TABLE1, sig3_tolerance
    for i, rec in enumerate(recs):
        want = GOLDEN_TABLE1[3]["k_plus"][i]
        assert abs(rec["k_plus"] - want) <= sig3_tolerance(want)
    # human mode reports the max relative diff line
    code, out, _ = run(capsys, ["table1", "-d", "3", "--upper-only", "--compare"])
    assert "max |relative diff| on k_plus column" in out


def test_table1_row_example_cell(capsys):
    code, out, _ = run(capsys, ["table1", "-d", "3", "--upper-only", "--json"])
    payload = json.loads(out)
    by_label = {r["label"]: r for r in payload["records"]}
    assert abs(by_label["15/2"]["k_plus"] - 0.120) <= 0.001
    assert by_label["3/2+1e-4"]["n"] == "15001/10000"


def test_table2_json(capsys):
    code, out, _ = run(capsys, ["table2", "--dmax", "2", "--compare", "--json"])
    assert code == 0
    payload = json.loads(out)
    validate_payload(payload)
    recs = {r["d"]: r for r in payload["records"]}
    assert abs(recs[1]["big_z"] - 0.0) <= 0.01
    assert abs(recs[2]["theta"] - 1.039) <= 0.005


def test_asymp_small_json(capsys):
    code, out, _ = run(capsys, ["asymp", "--regime", "small", "-d", "1",
                                "--n-list", "1e-6", "--json"])
    assert code == 0
    payload = json.loads(out)
    validate_payload(payload)
    recs = payload["records"]
    law = {r["law"]: r for r in recs}
    assert abs(law["k_plus*sqrt(gap)/M_d"]["law_ratio"] - 1.0) < 0.01
    bb = law["k_bessel_bb*sqrt(gap)/M_d"]
    assert abs(bb["law_ratio"] / math.sqrt(2.0 / 3.0) - 1.0) < 0.01


def test_asymp_large_ratio_of_laws(capsys):
    code, out, _ = run(capsys, ["asymp", "--regime", "large", "-d", "2",
                                "--n-list", "200", "--json"])
    assert code == 0
    payload = json.loads(out)
    law = {r["law"]: r for r in payload["records"]}
    assert abs(law["k_plus/(T_d (2/sqrt3)^n n^-d/4)"]["law_ratio"] - 1.0) < 0.03
    ff = law["k_ff/(T_d (2/sqrt3)^n n^-d/4)"]
    assert abs(ff["law_ratio"] / ff["law_target"] - 1.0) < 0.03
    # the bound/bound law ratio approaches 7^(1/4) (3/5)^(1/2) ~ 1.260
    kk = law["k_plus/k_ff"]
    assert abs(kk["law_ratio"] / 1.2599 - 1.0) < 0.03


@pytest.mark.parametrize("argv", [
    ["table2", "--dmax", "0"],
    ["table2", "--dmax", "11"],
    ["asymp", "--regime", "large", "--n-list", "abc"],
    ["asymp", "--regime", "large", "-d", "1", "--n-list", "1e400"],
    ["upper", "-n", "1e400", "-d", "1"],
])
def test_bad_argument_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("n, d", [("35", "1"), ("41", "1"), ("23", "9")])
def test_large_half_integer_gap_sandwich(capsys, n, d):
    # odd d and integer n put the gap n - d/2 at 18.5 or more: best_lower
    # also evaluates the (B) quotient there, whose squared-kernel norm must
    # stay accurate although (F) wins
    code, out, _ = run(capsys, ["sandwich", "-n", n, "-d", d, "--json"])
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert 0.0 < rec["k_minus"] < rec["k_plus"]


@pytest.mark.parametrize("command", ["upper", "sandwich"])
def test_nonconvergence_exit_3(monkeypatch, capsys, command):
    # an uncertified K+ exits 3, and both commands print the caveat that
    # decides it: sandwich joins it with the (here absent) K- caveat
    from sobomul import bounds

    def fake_k_plus(q):
        return bounds.BoundResult(value=1.0, kind="upper_plus",
                                  argmax=bounds.TrialParams(u=1.0),
                                  diagnostics={"caveat": "budget exhausted"})

    monkeypatch.setattr(cli.bounds, "k_plus", fake_k_plus)
    code, out, _ = run(capsys, [command, "-n", "2", "-d", "2"])
    assert code == 3
    assert "CAVEAT: budget exhausted" in out
    code, out, _ = run(capsys, [command, "-n", "2", "-d", "2", "--json"])
    assert code == 3
    assert json.loads(out)["records"][0]["caveat"] == "budget exhausted"


@pytest.mark.parametrize("argv", [["table1", "-d", "2", "--upper-only", "--json"],
                                  ["asymp", "--regime", "large", "-d", "2", "--n-list", "60"]])
def test_uncertified_k_plus_exits_3_in_table1_and_asymp(monkeypatch, capsys, argv):
    # the one exit rule: an uncertified K+ exits 3 wherever it is used;
    # table1 records it as the cell's error, with no K+ value
    from sobomul import bounds

    def fake_k_plus(q):
        return bounds.BoundResult(value=1.0, kind="upper_plus",
                                  argmax=bounds.TrialParams(u=1.0),
                                  diagnostics={"caveat": "budget exhausted"})

    monkeypatch.setattr(cli.bounds, "k_plus", fake_k_plus)
    code, out, _ = run(capsys, argv)
    assert code == 3
    if argv[0] == "table1":
        for rec in json.loads(out)["records"]:
            assert rec["k_plus"] is None and rec["error"] == "ArithmeticError: budget exhausted"


def test_series_failure_exits_3(monkeypatch, capsys):
    # a 2F1 series that reaches its term cap raises SeriesError, an
    # ArithmeticError, which the CLI reports as a numerical failure
    from sobomul import specfun
    monkeypatch.setattr(specfun, "_MAX_TERMS", 37)
    code, out, err = run(capsys, ["lower", "--method", "bessel-bb", "-n", "1001/1000", "-d", "2"])
    assert code == 3
    assert err.startswith("error: numerical failure: 2F1 series did not converge")
    assert "Traceback" not in err and not out


@pytest.mark.parametrize("n, d", [("0.500000000001", "1"), ("5.000000000001", "10")])
def test_fourier_at_a_tiny_gap_returns_promptly(capsys, n, d):
    # the (F) optimum's sigma grows like 1/gap, but the rule's nodes in
    # asinh(k_1) grow only like log sigma: at gap 1e-12 the bound comes
    # back, positive and below K+, within seconds
    started = time.perf_counter()
    code, out, _ = run(capsys, ["lower", "--method", "fourier", "-n", n, "-d", d, "--json"])
    assert code == 0
    (low,) = json.loads(out)["records"]
    assert time.perf_counter() - started < 10.0
    # the (F) search spends its whole budget on a flat ridge toward large
    # sigma: its K- carries a caveat, which is informational (exit 0)
    assert "search stopped before the supremum" in low["caveat"]
    code, out, _ = run(capsys, ["upper", "-n", n, "-d", d, "--json"])
    assert code == 0
    (up,) = json.loads(out)["records"]
    assert 0.0 < low["k_minus"] < up["k_plus"]


@pytest.mark.parametrize("argv", [["sandwich", "-n", "2000", "-d", "3"],
                                  ["upper", "-n", "20", "-d", "2"]])
def test_uncertified_upper_bound_exits_3(monkeypatch, capsys, blind_past, argv):
    # a curve that the K+ search cannot see past u = 1e-3 (it reads -inf
    # there): no K+ far below K- may be printed
    monkeypatch.setattr(cli.bounds, "log_upper_curve_rows",
                        blind_past(cli.bounds.log_upper_curve_rows, 1e-3))
    code, out, err = run(capsys, argv + ["--json"])
    assert code == 3
    assert not out
    assert "numerical failure" in err


@pytest.mark.parametrize("fault", ["budget", "boundary"])
def test_table2_uncertified_scan_exits_3(monkeypatch, capsys, fault):
    # a residual scan whose K+ search runs out of budget (two evaluations,
    # where the d = 1 scan's slowest search takes eight), or leaves
    # through the upper bound above the curve's limit (a curve log u that
    # rises for ever), prints no row
    from sobomul import bounds
    monkeypatch.setattr(bounds, "_residual_scan", bounds._residual_scan.__wrapped__)
    if fault == "budget":
        search = bounds.maximize_1d_newton
        monkeypatch.setattr(bounds, "maximize_1d_newton",
                            lambda *args, **kw: search(*args, **kw, max_iter=2))
    else:
        monkeypatch.setattr(bounds, "log_upper_curve_rows",
                            lambda rows, at, u: (np.log(u), np.ones(u.shape), np.zeros(u.shape)))
    code, out, err = run(capsys, ["table2", "--dmax", "1", "--json"])
    assert code == 3
    assert not out
    assert "numerical failure" in err
    assert ("budget exhausted" if fault == "budget" else "search boundary") in err


def test_large_n_sandwich_and_asymp_exit_0(capsys):
    code, out, _ = run(capsys, ["sandwich", "-n", "2000", "-d", "3", "--json"])
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert 0.0 < rec["k_minus"] < rec["k_plus"]
    code, out, _ = run(capsys, ["asymp", "--regime", "large", "-d", "3",
                                "--n-list", "100,300,1000,3000", "--json"])
    assert code == 0
    law = [r for r in json.loads(out)["records"]
           if r["law"] == "k_plus/(T_d (2/sqrt3)^n n^-d/4)"]
    assert [r["n_value"] for r in law] == [100, 300, 1000, 3000]
    assert all(0.0 < r["law_ratio"] - 1.0 < 0.02 for r in law)


@pytest.mark.parametrize("argv", [
    ["sandwich", "-n", "5000", "-d", "1"],
    ["lower", "--method", "bessel", "-n", "5000", "-d", "1"],
    ["upper", "-n", "1000000", "-d", "2"],
    ["lower", "--method", "fourier-ff", "-n", "5000", "-d", "1"],
    ["asymp", "--regime", "large", "-d", "1", "--n-list", "6000"],
])
def test_bound_past_the_double_range_exits_2(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    assert code == 2
    assert not out
    assert "exceeds the largest double" in err


def test_upper_just_inside_the_double_range(capsys):
    code, out, _ = run(capsys, ["upper", "-n", "4940", "-d", "1", "--json"])
    assert code == 0
    assert 3.0e307 < json.loads(out)["records"][0]["k_plus"] < 3.2e307


def test_asymp_nonpositive_dimension_exits_2(capsys):
    # d = 0 hits a pole of Gamma(d/2) in the asymptotic constants
    for regime in ("small", "large"):
        for d in ("0", "-3"):
            code, out, err = run(capsys, ["asymp", "--regime", regime, "-d", d])
            assert code == 2, (regime, d)
            assert not out
            assert "positive integer" in err


def test_wall_time_on_stderr_not_in_payload(capsys):
    code, out, err = run(capsys, ["upper", "-n", "1", "-d", "1", "--json"])
    assert "wall_time" in err
    assert "wall_time" not in out
    validate_payload(json.loads(out))


def test_table1_k_plus_failure_keeps_the_row(monkeypatch, capsys):
    # a K+ that raises at one gap fails that cell only: K+ prints as null
    # in --json and --compare, the other 12 cells print, and the exit is 3
    from fractions import Fraction

    from sobomul import bounds
    inner = bounds.k_plus

    def failing_k_plus(q):
        if q.n_exact == Fraction(7, 2):
            raise ArithmeticError("upper curve not certified")
        return inner(q)

    monkeypatch.setattr(bounds, "k_plus", failing_k_plus)
    for extra in (["--upper-only"], []):
        code, out, _ = run(capsys, ["table1", "-d", "1", "--compare", "--json"] + extra)
        assert code == 3
        payload = json.loads(out)
        validate_payload(payload)
        recs = payload["records"]
        assert len(recs) == 13
        failed = [r for r in recs if r.get("error")]
        assert [r["n"] for r in failed] == ["7/2"]
        assert "ArithmeticError" in failed[0]["error"]
        assert failed[0]["k_plus"] is None
        assert failed[0]["compare"]["k_plus_rel_diff"] is None
        if not extra:
            assert failed[0]["k_minus"] is None and failed[0]["ratio"] is None
        assert all(r["k_plus"] > 0.0 for r in recs if r is not failed[0])


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    inner = cli.build_parser

    def counting():
        built.append(1)
        return inner()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for _ in range(2):
            code, out, _ = run(capsys, ["upper", "-n", "2", "-d", "2", "--json"])
            assert code == 0 and out
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_cli_routes_never_import_numpy_ma():
    # in one fresh interpreter, table1, table2 and sandwich on the (B),
    # (BB), (F) and (FF) routes never import numpy.ma, whose first (lazy)
    # import costs about 1.6 MB of peak RSS
    import os
    import subprocess
    import sys
    script = """
import contextlib, io, json, sys
from sobomul import cli
runs = [["table1", "-d", "1"], ["table2", "--dmax", "2"],
        ["sandwich", "-n", "3/2", "-d", "2"], ["sandwich", "-n", "1001/1000", "-d", "2"],
        ["sandwich", "-n", "4", "-d", "2"], ["sandwich", "-n", "60", "-d", "1"]]
codes, tags = [], []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()) as out, \\
            contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv + ["--json"]))
    if argv[0] == "sandwich":
        tags.append(json.loads(out.getvalue())["records"][0]["tag"])
print(codes, tags, "numpy.ma" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    want = "[0, 0, 0, 0, 0, 0] ['(B)', '(BB)', '(F)', '(FF)'] False\n"
    assert done.stdout == want, (done.stdout, done.stderr)

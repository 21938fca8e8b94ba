"""CLI: exit codes, output formats, schema validity and determinism."""

import json
import math
from pathlib import Path

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


def test_nonconvergence_exit_3(monkeypatch, capsys):
    from sobomul import bounds

    def fake_k_plus(q, warm_start_u=None):
        return bounds.BoundResult(value=1.0, kind="upper_plus",
                                  argmax=bounds.TrialParams(u=1.0),
                                  diagnostics={"caveat": "budget exhausted"})

    monkeypatch.setattr(cli.bounds, "k_plus", fake_k_plus)
    code, out, _ = run(capsys, ["upper", "-n", "2", "-d", "2"])
    assert code == 3
    assert "CAVEAT" in out


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.parametrize("argv", [["sandwich", "-n", "2000", "-d", "3"],
                                  ["upper", "-n", "1000000", "-d", "2"]])
def test_uncertified_upper_bound_exits_3(capsys, argv):
    # the K+ search cannot see the curve there (it underflows), so no
    # K+ far below K- may be printed
    code, out, err = run(capsys, argv + ["--json"])
    assert code == 3
    assert not out
    assert "numerical failure" in err


def test_wall_time_on_stderr_not_in_payload(capsys):
    code, out, err = run(capsys, ["upper", "-n", "1", "-d", "1", "--json"])
    assert "wall_time" in err
    assert "wall_time" not in out
    validate_payload(json.loads(out))

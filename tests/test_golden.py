"""Golden snapshots: the --json stdout of one command per route, byte for
byte.  Regenerate a file only for a deliberate change of its numbers:

    PYTHONPATH=src python -m sobomul.cli <argv> > tests/golden/<name>.json
"""

from pathlib import Path

import pytest

from sobomul import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

SNAPSHOTS = {
    "sandwich_bb": ["sandwich", "-n", "1001/1000", "-d", "2"],
    "sandwich_f": ["sandwich", "-n", "4", "-d", "2"],
    "sandwich_ff": ["sandwich", "-n", "60", "-d", "1"],
    "lower_bessel": ["lower", "--method", "bessel", "-n", "3", "-d", "2"],
    "upper": ["upper", "-n", "7/2", "-d", "1"],
    "table1_d2_upper": ["table1", "-d", "2", "--upper-only", "--compare"],
    "table2_d3": ["table2", "--dmax", "3", "--compare"],
    "table2_d10": ["table2", "--dmax", "10", "--compare"],
}


@pytest.mark.parametrize("name", sorted(SNAPSHOTS))
def test_json_snapshot(name, capsys):
    code = cli.main(SNAPSHOTS[name] + ["--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN_DIR / f"{name}.json").read_text()

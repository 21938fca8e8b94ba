"""The public surface: every exported name resolves, the CLI loads only
the bounds' call graph, and the demos that use the trimmed public API run
to completion."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import sobomul

ROOT = Path(__file__).resolve().parents[1]

# The modules of the bounds' call graph: what `import sobomul.cli` loads.
CALL_GRAPH = {"sobomul", "sobomul.cli", "sobomul.tables", "sobomul.bounds",
              "sobomul.kernels", "sobomul.specfun", "sobomul.optim",
              "sobomul.quad"}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.parametrize("module", ["sobomul"] + [
    f"{pkg.__name__}.{m.name}" for pkg in (sobomul, oracles)
    for m in pkgutil.iter_modules(pkg.__path__)])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_cli_loads_only_the_call_graph():
    # a fresh interpreter: the test process itself has loaded more
    code = ("import json, sys, sobomul.cli; "
            "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'sobomul']))")
    proc = subprocess.run([sys.executable, "-c", code], env=_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    assert set(json.loads(proc.stdout)) == CALL_GRAPH
    assert sobomul.quad.__all__ == ["tanh_sinh_01"]


@pytest.mark.parametrize("demo", ["01_upper_bounds.py", "02_lower_bounds.py",
                                  "03_bounds_table.py", "04_elementary_envelope.py",
                                  "05_asymptotic_laws.py", "06_special_functions.py"])
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout

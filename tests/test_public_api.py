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
              "sobomul._gaussian_norm", "sobomul.kernels",
              "sobomul.specfun", "sobomul.optim", "sobomul.quad"}


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
    assert sobomul.quad.__all__ == []


@pytest.mark.parametrize("demo", ["01_upper_bounds.py", "02_lower_bounds.py",
                                  "03_bounds_table.py", "04_elementary_envelope.py",
                                  "05_asymptotic_laws.py", "06_special_functions.py"])
def test_demo_runs(demo):
    # the demos run in their own interpreters, outside pytest's warning
    # filter, so they take it on the command line
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(ROOT / "demos" / demo)],
                          env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    if demo == "06_special_functions.py":
        # the family's five paths, each named, and the defined error outside it
        for regime in ("closed_form", "terminating", "series", "kummer", "euler"):
            assert f"   [{regime}]\n" in proc.stdout
        assert "F(-2.3, 1.5; 2.3; -8.00) = 77.9903397108   [kummer]" in proc.stdout
        assert "HypergeometricError: 2F1(3.0, 2.0, 2.5; -1.0) is outside the contract" in proc.stdout


def test_bounds_stays_below_the_compile_memory_step():
    """bounds.py stays below 8,192 tokens (``tokenize``, which counts
    comments and line breaks too, so it reads above the parser's own
    count).  CHANGES.md records the step: with PYTHONDONTWRITEBYTECODE=1
    every benchmark worker compiles the file, and its tracemalloc compile
    peak rose from 2.78 MB at 8,074 parser tokens to 3.29 MB at 8,208,
    where the parser's token array doubles; that is about 0.5 MB of
    peak_rss_mb on every workload."""
    import tokenize
    with open(ROOT / "src" / "sobomul" / "bounds.py", "rb") as f:
        count = sum(1 for _ in tokenize.tokenize(f.readline))
    assert count < 8192, count

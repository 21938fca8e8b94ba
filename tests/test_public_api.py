"""The public surface: every exported name resolves, and the demos that
use the trimmed public API run to completion."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sobomul

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("module", ["sobomul"] + [
    f"sobomul.{m.name}" for m in pkgutil.iter_modules(sobomul.__path__)])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


@pytest.mark.parametrize("demo", ["01_upper_bounds.py", "02_lower_bounds.py",
                                  "03_bounds_table.py", "04_elementary_envelope.py",
                                  "05_asymptotic_laws.py", "06_special_functions.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout

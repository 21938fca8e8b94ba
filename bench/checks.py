"""Output checks, run after the timed region.

Every bound record must satisfy 0 < K- < K+; re-evaluating the Rayleigh
quotient at the reported argmax through the public norm functions must
give K- again; and K+^2 must not lie below a dense vectorized scan of the
upper curve.  Table outputs must also agree with the reference outputs
recorded at the seed commit (reference/*.json) to the ROADMAP tolerances:
K+ to 1e-9 relative, ratios to 1e-6, tags exactly.  The reference is the
program's own earlier output, not the published table, so the known red
cell (d, n) = (1, 61/2) passes here and stays red in the acceptance suite.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from sobomul import bounds
from sobomul.kernels import BoundQuery, log_upper_curve

RAYLEIGH_RTOL = 1e-6
SCAN_LOG_TOL = 1e-9          # K+^2 may sit this far (relative) below the scan
K_PLUS_RTOL = 1e-9
RATIO_ATOL = 1e-6
FF_TOL = 1e-10               # k_fourier_fixed's quadrature tolerance

REFERENCE = Path(__file__).resolve().parent / "reference"


def query_of(rec: dict) -> BoundQuery:
    n = Fraction(rec["n"])
    return BoundQuery(d=rec["d"], n=float(n), n_exact=n)


def rayleigh_lower(q: BoundQuery, tag: str, argmax: list[float], tol: float) -> float:
    """The lower bound's Rayleigh quotient ||f^2|| / ||f||^2 at the argmax."""
    if tag in ("(B)", "(BB)"):
        (lam,) = argmax
        num = (bounds.squared_trial_minorant(q, lam) if tag == "(BB)"
               else bounds.bessel_trial_sq_norm_sq(q, lam, tol=tol))
        return math.sqrt(num) / bounds.bessel_trial_norm_sq(q, lam, validate=False)
    p, sigma = argmax
    tol = tol if tag == "(F)" else FF_TOL
    # log form: at n ~ 300 the Gaussian-trial norms pass 1e300
    return math.exp(
        0.5 * bounds.log_gaussian_trial_norm_sq(q, 2.0 * p, 2.0 * sigma, tol=tol, validate=False)
        - bounds.log_gaussian_trial_norm_sq(q, p, sigma, tol=tol, validate=False))


def upper_scan_max(q: BoundQuery) -> float:
    """max of log upper_curve on a log grid over [1e-8, 1e8] (30 points a
    decade), refined around the best grid point."""
    u = np.geomspace(1e-8, 1e8, 481)
    v = log_upper_curve(q, u)
    i = int(np.argmax(v))
    fine = np.geomspace(u[max(i - 1, 0)], u[min(i + 1, len(u) - 1)], 201)
    return max(float(v[i]), float(np.max(log_upper_curve(q, fine))))


def check_bound(rec: dict, tol: float) -> list[str]:
    """Problems with one bound record (empty when it passes)."""
    k_minus, k_plus = rec.get("k_minus"), rec.get("k_plus")
    if k_minus is None or k_plus is None:
        return ["missing k_minus or k_plus"]
    problems = []
    if not 0.0 < k_minus < k_plus:
        problems.append(f"not 0 < K- < K+: K- = {k_minus}, K+ = {k_plus}")
    q = query_of(rec)
    try:
        again = rayleigh_lower(q, rec["tag"], rec["argmax"], tol)
    except (ArithmeticError, ValueError) as exc:
        problems.append(f"Rayleigh re-evaluation failed: {type(exc).__name__}: {exc}")
    else:
        if not abs(again / k_minus - 1.0) <= RAYLEIGH_RTOL:
            problems.append(f"Rayleigh quotient at the argmax is {again}, K- is {k_minus}")
    scan = upper_scan_max(q)
    if 2.0 * math.log(k_plus) < scan - SCAN_LOG_TOL:
        problems.append(f"K+^2 = {k_plus ** 2} below the upper-curve scan {math.exp(scan)}")
    return problems


def load_reference(workload: str) -> dict:
    """Reference entries keyed "d:n" (table1 cells) or "d" (table2 rows)."""
    data = json.loads((REFERENCE / f"{workload}.json").read_text())
    return data["cells"] if workload == "table1" else data["rows"]


def check_table1_row(rec: dict, ref: dict, tol: float) -> list[str]:
    problems = check_bound(rec, tol)
    want = ref.get(f"{rec['d']}:{rec['n']}")
    if want is None:
        return problems + [f"no reference cell for d={rec['d']}, n={rec['n']}"]
    if not abs(rec["k_plus"] / want["k_plus"] - 1.0) <= K_PLUS_RTOL:
        problems.append(f"K+ {rec['k_plus']} != reference {want['k_plus']}")
    if rec.get("ratio") is None or not abs(rec["ratio"] - want["ratio"]) <= RATIO_ATOL:
        problems.append(f"ratio {rec.get('ratio')} != reference {want['ratio']}")
    if rec.get("tag") != want["tag"]:
        problems.append(f"tag {rec.get('tag')} != reference {want['tag']}")
    return problems


def check_table2_row(rec: dict, ref: dict) -> list[str]:
    want = ref.get(str(rec["d"]))
    if want is None:
        return [f"no reference row for d={rec['d']}"]
    problems = []
    # Z_d is a difference of K+-sized terms: K+'s tolerance, on scale 1.
    if not abs(rec["big_z"] - want["big_z"]) <= K_PLUS_RTOL * max(1.0, abs(want["big_z"])):
        problems.append(f"Z_d {rec['big_z']} != reference {want['big_z']}")
    if not abs(rec["theta"] - want["theta"]) <= RATIO_ATOL:
        problems.append(f"Theta_d {rec['theta']} != reference {want['theta']}")
    if rec["endpoint_warning"] != want["endpoint_warning"]:
        problems.append("endpoint warning differs from the reference")
    return problems


def record_checker(workload: str) -> Callable[[dict, float], list[str]]:
    """check(record, tol_rel of its payload) -> problems, for one output
    record of the workload's CLI calls."""
    if workload == "table1":
        ref = load_reference("table1")
        return lambda rec, tol: check_table1_row(rec, ref, tol)
    if workload == "table2":
        ref = load_reference("table2")
        return lambda rec, tol: check_table2_row(rec, ref)
    return check_bound

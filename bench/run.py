"""sobomul benchmark: table1, table2 and a seeded query stream.

    python3 bench/run.py --workload table1 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its src/.
Each measured repetition is a fresh interpreter (worker.py) that runs the
workload's argv list through ``sobomul.cli.main`` in a closed loop with one
client.  Repetitions continue while another fits in --seconds, so every
run measures cold caches, as every CLI user pays them.  Outputs are
checked after the timed region (checks.py).

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 adds
one traced repetition (tracer.py) and reports the per-layer metrics.  The
last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it report every metric with its unit, the input
class and tag shares, the failed operations with their error text, and
the run environment; the same goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

BLAS_THREADS = 1
SETUP_SAMPLES = 6            # import-only interpreters per run, besides one per repetition
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark itself cannot run (not a failure of the program)."""


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def op_outcomes(call: dict, expected: int, check) -> list[tuple[str, str] | None]:
    """One entry per operation of a CLI call: None when it succeeded, else
    (kind, text).  Kind "error" is a refusal (non-zero exit, per-cell
    error); kind "wrong" is an output that fails a check."""
    try:
        payload = json.loads(call["stdout"]) if call["stdout"].strip() else None
    except json.JSONDecodeError:
        payload = None
    exit_text = f"exit {call['code']}: {call['stderr'].strip() or 'no output'}"
    if payload is None:
        return [("error", exit_text)] * expected
    outcomes: list[tuple[str, str] | None] = []
    for rec in payload["records"]:
        if rec.get("error"):
            outcomes.append(("error", rec["error"]))
            continue
        problems = check(rec, payload["tol_rel"])
        outcomes.append(("wrong", "; ".join(problems)) if problems else None)
    outcomes += [("error", "record missing")] * (expected - len(outcomes))
    if call["code"] != 0 and all(o is None for o in outcomes):
        outcomes = [("error", exit_text)] * len(outcomes)
    return outcomes


def summarize(calls: list[dict], outcomes: list[list], classes: list[str]) -> dict:
    """Accounting over all calls of a run: ``calls[i]`` ran with input class
    ``classes[i]`` and gave ``outcomes[i]`` (see op_outcomes)."""
    attempted = sum(len(o) for o in outcomes)
    failed = [(cls, call["argv"], f"[{o[0]}] {o[1]}")
              for call, outs, cls in zip(calls, outcomes, classes)
              for o in outs if o is not None]
    tags = Counter()
    for call, outs in zip(calls, outcomes):
        try:
            records = json.loads(call["stdout"])["records"]
        except (json.JSONDecodeError, KeyError):
            records = []
        tags.update(rec.get("tag") or "-" for rec, o in zip(records, outs) if o is None)
    tags["failed"] = len(failed)
    return {
        "attempted": attempted,
        "failed": len(failed),
        "wrong": sum(o is not None and o[0] == "wrong" for outs in outcomes for o in outs),
        "fail_frac": len(failed) / attempted,
        "class_share": {c: k / len(classes) for c, k in sorted(Counter(classes).items())},
        "tag_share": {t: k / attempted for t, k in sorted(tags.items())},
        "failures": failed,
    }


def completed_latencies(calls: list[dict], outcomes: list[list]) -> list[float]:
    """Seconds of every call whose operations all succeeded."""
    return [call["seconds"] for call, outs in zip(calls, outcomes)
            if all(o is None for o in outs)]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": BLAS_THREADS,
            "seed": seed, "git_commit": git_commit()}


def spawn(ops: list[list[str]], trace: bool = False, layer_keys=(), spans_path=None) -> dict:
    """Run one repetition in a fresh interpreter and return its result."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    request = {"src": str(SRC), "ops": ops, "trace": trace,
               "layer_keys": list(layer_keys),
               "spans_path": str(spans_path) if spans_path else None}
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(request),
                          capture_output=True, text=True, cwd=ROOT, env=env,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout)
    result["elapsed_s"] = time.perf_counter() - started
    for call, argv in zip(result["calls"], ops):
        call["argv"] = argv
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    ops, classes = workloads.ops_for(workload, seed)
    setups = [spawn([])["setup_s"] for _ in range(SETUP_SAMPLES)]

    reps = []
    window_start = time.perf_counter()
    while True:
        rep = spawn(ops)
        reps.append(rep)
        if time.perf_counter() - window_start + rep["elapsed_s"] > seconds:
            break
    traced = None
    if trace:
        OUT.mkdir(exist_ok=True)
        keys = [m["name"] for m in spec["per_layer"] if m["name"] != "trace.overhead_frac"]
        traced = spawn(ops, trace=True, layer_keys=keys,
                       spans_path=OUT / f"spans-{workload}.npz")
    setups += [rep["setup_s"] for rep in reps]

    # Checks run here, after every timed region; identical outputs are
    # checked once.
    import checks
    check = checks.record_checker(workload)
    cache: dict[str, list] = {}
    all_calls, all_outcomes = [], []
    for rep in reps + ([traced] if traced else []):
        for call in rep["calls"]:
            # stderr of a call that printed a payload holds only its wall time
            key = f"{call['code']}\n{call['stdout'] or call['stderr']}"
            if key not in cache:
                cache[key] = op_outcomes(call, workloads.OPS_PER_CALL[workload], check)
            all_calls.append(call)
            all_outcomes.append(cache[key])
    summary = summarize(all_calls, all_outcomes, classes * (len(reps) + bool(traced)))

    untraced = len(reps) * len(ops)
    latencies = completed_latencies(all_calls[:untraced], all_outcomes[:untraced])
    e2e = {
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "query_p50_s": percentile(latencies, 50) if latencies else float("nan"),
        "query_p90_s": percentile(latencies, 90) if latencies else float("nan"),
    }
    if trace:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_frac"] = traced["wall_s"] / e2e["wall_s"]
        wanted = spec["per_layer"]
    else:
        metrics = e2e
        wanted = spec["end_to_end"]
    return {
        "workload": workload,
        "correct": summary["wrong"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
        "fail_frac": summary["fail_frac"],
        "samples": {"reps": len(reps), "setup": len(setups), "completed_calls": len(latencies),
                    "beyond_p90": sum(x > e2e["query_p90_s"] for x in latencies),
                    "spans": traced["spans"] if traced else 0},
        "rep_wall_s": [rep["wall_s"] for rep in reps],
        "class_share": summary["class_share"],
        "tag_share": summary["tag_share"],
        "failures": summary["failures"],
    }


def report(res: dict, env: dict) -> list[str]:
    w = res["workload"]
    s = res["samples"]
    lines = [f"[{w}] env {json.dumps(env, sort_keys=True)}",
             f"[{w}] {s['reps']} repetition(s), set-up timed {s['setup']} times, "
             f"{s['completed_calls']} completed CLI calls ({s['beyond_p90']} beyond p90)"]
    for name, m in res["metrics"].items():
        lines.append(f"[{w}] {name} = {m['value']:.6g} {m['unit']}")
    lines.append(f"[{w}] fail_frac = {res['fail_frac']:.6g} ({res['failed']} of "
                 f"{res['attempted']} operations)")
    lines.append(f"[{w}] input class share: " + ", ".join(
        f"{c} {v:.3f}" for c, v in res["class_share"].items()))
    lines.append(f"[{w}] returned tag share: " + ", ".join(
        f"{t} {v:.3f}" for t, v in res["tag_share"].items()))
    for cls, argv, text in res["failures"]:
        lines.append(f"[{w}] FAILED ({cls}) sobomul {' '.join(argv)}: {text}")
    if not res["correct"]:
        lines.append(f"[{w}] OUTPUT CHECKS FAILED")
    return lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "sobomul" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'sobomul'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    env = environment(args.seed)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace), spec)
                   for w in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    for res in results:
        print("\n".join(report(res, env)))
        path = OUT / f"result-{res['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({"env": env, **res}, indent=1))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

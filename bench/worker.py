"""One measured repetition in a fresh interpreter.

Reads a JSON request on stdin: {"src": path, "ops": [argv, ...],
"trace": bool, "layer_keys": [...], "spans_path": path or null}.
Times the import of numpy and sobomul, then runs every argv through
``sobomul.cli.main`` in a closed loop with stdout and stderr captured, and
prints one JSON result on stdout.  With "trace" set, the public functions
are wrapped first (see tracer.py) and the spans are saved at the end.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def peak_rss_mb() -> float:
    """Peak resident memory of this interpreter.

    VmHWM belongs to the address space exec created.  ru_maxrss is only the
    fallback: Linux carries the parent's peak into it across fork and exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0      # kB
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main() -> int:
    request = json.load(sys.stdin)
    src = Path(request["src"]).resolve()
    sys.path.insert(0, str(src))

    started = time.perf_counter()
    import numpy  # noqa: F401  (part of the measured set-up)
    import sobomul.cli
    setup_s = time.perf_counter() - started

    if not Path(sobomul.cli.__file__).resolve().is_relative_to(src):
        print(f"sobomul was imported from {sobomul.cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if request["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    calls = []
    loop_started = time.perf_counter()
    for i, argv in enumerate(request["ops"]):
        if tracer is not None:
            tracer.op_id = i
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = sobomul.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a stray exception is a failed operation
                code = 1
                traceback.print_exc()
        calls.append({"code": code, "seconds": time.perf_counter() - t0,
                      "stdout": out.getvalue(), "stderr": err.getvalue()})
    wall_s = time.perf_counter() - loop_started

    result = {"setup_s": setup_s, "wall_s": wall_s, "calls": calls,
              "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(request["layer_keys"])
        result["spans"] = len(tracer.start)
        if request.get("spans_path"):
            tracer.save(request["spans_path"])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

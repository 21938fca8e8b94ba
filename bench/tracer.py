"""Span tracer for the benchmark's traced run.

It wraps the public functions of sobomul's modules from outside the
package: every function listed in a module's ``__all__`` is replaced by a
wrapper at the module attribute and at every other name a sobomul module
bound to it with ``from ... import`` (so ``bounds.bessel_i`` and
``bounds.maximize_1d`` are traced as well as ``bessel.bessel_i`` and
``optim.maximize_1d``).  Each call becomes a span: name, start, end, parent
span and operation id, kept in memory in flat arrays and written out once
at the end.  A few functions also record work counts (points, evaluations,
unconverged searches, 2F1 regimes).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from typing import Callable

import numpy as np

LAYERS = ("specfun", "bessel", "kernels", "quad", "optim", "bounds", "tables", "cli")

# A probe calls the traced function itself and records work counts:
# probe(counts, fn, args, kwargs) -> result.
Probe = Callable[[Counter, Callable, tuple, dict], object]


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the durations of its children.

    Spans come from one thread, so the children of a span never overlap
    and their union is the sum of their durations.  ``parent`` holds the
    index of the enclosing span, or -1 at the top level.
    """
    dur = end - start
    child = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    return dur - child


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _probes() -> dict[str, Probe]:
    from sobomul.optim import BracketBoundaryError
    from sobomul.specfun import HyperEval

    def hyp2f1(counts, fn, args, kwargs):
        try:
            e = args[0] if isinstance(args[0], HyperEval) else HyperEval(*map(float, args))
        except (TypeError, ValueError):
            pass  # the call itself raises and is counted as raised
        else:
            counts["specfun.hyp2f1.calls." + e.regime] += 1
        return fn(*args, **kwargs)

    def points(key: str, pos: int, name: str, scalar_key: str | None = None) -> Probe:
        def probe(counts, fn, args, kwargs):
            size = int(np.size(_arg(args, kwargs, pos, name)))
            counts[key] += size
            if scalar_key is not None and size == 1:
                counts[scalar_key] += 1
            return fn(*args, **kwargs)
        return probe

    def quadrature(prefix: str) -> Probe:
        def probe(counts, fn, args, kwargs):
            res = fn(*args, **kwargs)
            counts[prefix + ".evaluations"] += res.evaluations
            counts[prefix + ".unconverged"] += not res.converged
            return res
        return probe

    def tanh_sinh(counts, fn, args, kwargs):
        res = fn(*args, **kwargs)
        counts["quad.tanh_sinh_01.evaluations"] += res[2]
        return res

    def search(prefix: str) -> Probe:
        # Counts objective calls directly, so searches that leave through
        # the bracket boundary are counted too.
        def probe(counts, fn, args, kwargs):
            f = args[0]

            def counted(*xs):
                counts[prefix + ".evaluations"] += 1
                return f(*xs)

            try:
                res = fn(counted, *args[1:], **kwargs)
            except BracketBoundaryError:
                counts[prefix + ".boundary_exits"] += 1
                raise
            counts[prefix + ".unconverged"] += not res.converged
            return res
        return probe

    return {
        "specfun.hyp2f1": hyp2f1,
        "bessel.bessel_i": points("bessel.bessel_i.points", 1, "x",
                                  "bessel.bessel_i.scalar_calls"),
        "kernels.log_hyper_kernel": points("kernels.log_hyper_kernel.points", 1, "u"),
        "quad.integrate_finite": quadrature("quad.integrate_finite"),
        "quad.integrate_semiinf": quadrature("quad.integrate_semiinf"),
        "quad.tanh_sinh_01": tanh_sinh,
        "optim.maximize_1d": search("optim.maximize_1d"),
        "optim.maximize_2d": search("optim.maximize_2d"),
    }


class Tracer:
    """Spans and work counts of one traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, probe: Probe | None = None) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        names, starts, ends = self.name_id, self.start, self.end
        parents, ops, stack = self.parent, self.op, self._stack
        counts, clock, raised = self.counts, time.perf_counter, name + ".raised"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                if probe is None:
                    return fn(*args, **kwargs)
                return probe(counts, fn, args, kwargs)
            except BaseException:
                counts[raised] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every public function of the LAYERS modules wherever a
        sobomul module binds it."""
        probes = _probes()
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"sobomul.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    wrappers[id(fn)] = (fn, self.wrap(name, fn, probes.get(name)))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "sobomul" and not mod_name.startswith("sobomul."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, keys: list[str]) -> dict[str, float]:
        """Value of each per-layer metric key '<module>.<function>.<stat>'.

        Stats: calls (spans), self_s, total_s (inclusive), evaluations_per_call;
        any other stat is a work count recorded by a probe or the wrapper.
        """
        a = self.arrays()
        width = len(self.names)
        calls = np.bincount(a["name_id"], minlength=width)
        selfs = np.bincount(a["name_id"], weights=self_times(a["start"], a["end"], a["parent"]),
                            minlength=width)
        totals = np.bincount(a["name_id"], weights=a["end"] - a["start"], minlength=width)
        index = {name: i for i, name in enumerate(self.names)}
        out = {}
        for key in keys:
            module, func, stat = key.split(".", 2)
            fn = f"{module}.{func}"
            i = index.get(fn)
            n_calls = int(calls[i]) if i is not None else 0
            if stat == "calls":
                out[key] = n_calls
            elif stat == "self_s":
                out[key] = float(selfs[i]) if i is not None else 0.0
            elif stat == "total_s":
                out[key] = float(totals[i]) if i is not None else 0.0
            elif stat == "evaluations_per_call":
                out[key] = self.counts[fn + ".evaluations"] / n_calls if n_calls else 0.0
            else:
                out[key] = self.counts[key]
        return out

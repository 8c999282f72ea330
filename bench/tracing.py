"""Per-layer spans and counts, recorded from outside the program.

The layers are bellbox's four modules.  Wrappers go around every public
function they define.  experiments and cli bind quantum/lhv functions by name
at import, and the package re-exports them, so each wrapper replaces its
function under every name that holds it in any bellbox module.  Nothing under
src/ is edited; restoring puts the original objects back.

A span is [name, start_ns, end_ns, parent index, op id].  Spans stay in memory;
self time is computed once at the end as a span's duration minus the part
its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
import tracemalloc
from collections import Counter

LAYERS = ("quantum", "lhv", "experiments", "cli")
FORMATS = ("json", "csv", "text")

# Work counts taken at the call boundary: metric suffix, parameter (or None
# for the result) and how to turn it into a count.
COUNTERS = {
    "lhv.sample_indices": ("draws", "count", int),
    "experiments.mc_bell_estimate": ("draws", "samples", int),
    "experiments.mc_classical_estimate": ("draws", "samples", int),
    "experiments.quantum_bell_sweep": ("points", None, lambda sweep: len(sweep.points)),
    "cli.render": ("bytes", None, lambda text: len(text.encode("utf-8"))),
}
# Functions whose peak traced allocation is recorded in the allocation pass.
# None of them calls another, so each can own tracemalloc while it runs.
ALLOC_TRACKED = ("experiments.quantum_bell_sweep", "cli.render")


def _public_functions(module):
    return {
        name: fn
        for name, fn in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(fn)
        and fn.__module__ == module.__name__
    }


def layer_functions() -> dict:
    """Qualified name ('lhv.bell_check') -> function, for all four layers."""
    out = {}
    for layer in LAYERS:
        module = importlib.import_module(f"bellbox.{layer}")
        for name, fn in _public_functions(module).items():
            out[f"{layer}.{name}"] = fn
    return out


def _span_name(qualname: str, fn):
    """Span name as a function of the call; render spans are split by format."""
    if qualname != "cli.render":
        return None
    sig = inspect.signature(fn)
    return lambda args, kwargs: f"cli.render.{sig.bind(*args, **kwargs).arguments['fmt']}"


def _patch(replacements: dict):
    """Rebind every bellbox module attribute holding a replaced function."""
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "bellbox" and not mod_name.startswith("bellbox."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replacements:
                setattr(module, attr, replacements[value])
                undo.append((module, attr, value))

    def restore():
        for module, attr, value in undo:
            setattr(module, attr, value)

    return restore


class Tracer:
    """Records one span per wrapped call, plus the work counts in COUNTERS."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.op_id = -1

    def install(self):
        """Wrap every layer function; returns a function that undoes it."""
        self.functions = layer_functions()
        return _patch({fn: self._wrap(q, fn) for q, fn in self.functions.items()})

    def _wrap(self, qualname: str, fn):
        namer = _span_name(qualname, fn)
        counter = COUNTERS.get(qualname)
        if counter:
            suffix, param, convert = counter
            sig = inspect.signature(fn)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            name = namer(args, kwargs) if namer else qualname
            idx = len(spans)
            record = [name, clock(), 0, stack[-1] if stack else -1, self.op_id]
            spans.append(record)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if counter:
                value = result if param is None else sig.bind(*args, **kwargs).arguments[param]
                counts[f"{name}.{suffix}"] += convert(value)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def op(self, op_id: int, call):
        """Run call() as the root span of one op."""
        self.op_id = op_id
        idx = len(self.spans)
        record = ["op", time.perf_counter_ns(), 0, -1, op_id]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            return call()
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def metrics(self) -> dict:
        """calls and self_ms per span name, the work counts, and zeros for
        every layer function that was never called."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls, self_ns = Counter(), Counter()
        for (name, start, end, _, _), child_ns in zip(self.spans, covered):
            calls[name] += 1
            self_ns[name] += end - start - child_ns
        names = [q for q in self.functions if q != "cli.render"]
        names += [f"cli.render.{fmt}" for fmt in FORMATS]
        out = {}
        for name in names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = self_ns[name] / 1e6
        for qualname, (suffix, _, _) in COUNTERS.items():
            targets = [f"cli.render.{f}" for f in FORMATS] if qualname == "cli.render" else [qualname]
            for name in targets:
                out[f"{name}.{suffix}"] = self.counts[f"{name}.{suffix}"]
        # emit renders, then writes: its self time is the write
        out["cli.emit.write_ms"] = out["cli.emit.self_ms"]
        return out

    def span_dicts(self) -> list[dict]:
        return [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]


class AllocTracker:
    """Peak traced allocation of each ALLOC_TRACKED call, max over calls."""

    def __init__(self):
        self.peaks: Counter = Counter()

    def install(self):
        functions = layer_functions()
        return _patch({functions[q]: self._wrap(q, functions[q]) for q in ALLOC_TRACKED})

    def _wrap(self, qualname: str, fn):
        namer = _span_name(qualname, fn)
        peaks = self.peaks

        def wrapper(*args, **kwargs):
            name = namer(args, kwargs) if namer else qualname
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                peaks[name] = max(peaks[name], peak)

        wrapper.__wrapped__ = fn
        return wrapper

    def metrics(self) -> dict:
        names = [q for q in ALLOC_TRACKED if q != "cli.render"]
        names += [f"cli.render.{fmt}" for fmt in FORMATS]
        return {f"{name}.peak_alloc_mb": self.peaks[name] / 2**20 for name in names}

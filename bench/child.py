"""The workload process: runs one workload's ops and records what they did.

Started by run.py in a fresh interpreter with BLAS threads pinned to 1 and the
checkout's src/ on PYTHONPATH.  It only runs ops; run.py checks their outputs
afterwards, so the checks add nothing to this process's peak RSS.

    python3 bench/child.py SPEC.json RESULT.json

SPEC holds workload, seed, stream, seconds, mode ("run" or "trace"), tiny,
src, workdir and spans (a file for the raw spans of a traced run, or null).  One record
per op goes to workdir/records.jsonl.  cli ops write into workdir through
BELLBOX_OUTPUT_DIR with a fixed relative --output name, so the config echo in
a report depends on argv alone.  The first report of each op key is kept for
checking; later ones are hashed and deleted.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import plan
import reference

import numpy as np
from bellbox import cli, experiments, lhv

# One buffer for hashing every report: reading into fresh 1 MiB blocks that
# shrink to the file size fragments the heap and inflates the peak RSS
# being measured.
_BUFFER = memoryview(bytearray(1 << 20))


def _file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb", buffering=0) as f:
        while n := f.readinto(_BUFFER):
            h.update(_BUFFER[:n])
    return h.hexdigest()


def _mc_call(op: dict):
    t1 = np.radians(op["theta1_deg"])
    t2 = np.radians(op["theta2_deg"])
    n, seed, shards = op["samples"], op["seed"], op["shards"]
    if op["fn"] == "bell":
        est = experiments.mc_bell_estimate(float(t1), float(t2), n, seed, shards)
        return {
            label: [e.estimate, e.std_error, e.samples, e.seed] for label, e in est.items()
        }
    if op["fn"] == "singlet":
        r = experiments.mc_classical_estimate(lhv.build_singlet_ensemble(), n, seed, shards)
        return {"p": [r.p_AB, r.p_BC, r.p_AC], "bell_lhs": r.bell_lhs, "satisfied": r.satisfied}
    r = experiments.mc_classical_estimate(lhv.build_ghz_ensemble(), n, seed, shards)
    return {"means": list(r.means), "constant_on_draws": list(r.constant_on_draws)}


class Runner:
    """Executes ops and writes one record per op as a JSON line.

    Records go straight to a file so that the process's memory does not grow
    with the number of ops run.
    """

    def __init__(self, workdir: Path, records, meter=None):
        self.workdir = workdir
        self.records = records
        self.meter = meter
        self.count = 0
        self.kept: set[str] = set()

    def call(self, op: dict):
        """The timed part of an op.  Returns (exit code, payload)."""
        if "argv" in op:
            return cli.main(op["argv"] + ["--output", f"report.{op['fmt']}"]), None
        return 0, _mc_call(op)

    def run(self, op: dict, timed_call=None) -> None:
        """Run one op and write its record."""
        idx = self.count
        self.count += 1
        rec = {"op": op, "rc": None, "error": None, "digest": None, "file": None, "result": None}
        call = timed_call or (lambda: self.call(op))
        first_kernel = len(self.meter.starts) if self.meter else 0
        start = time.perf_counter()
        try:
            rc, payload = call()
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            rc, payload = None, None
            rec["error"] = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        # the reference kernel may have run inside the op; its time is not the op's
        paused = 0.0
        if self.meter:
            for t, d in zip(self.meter.starts[first_kernel:], self.meter.samples[first_kernel:]):
                if start <= t < end:
                    paused += d
        rec["latency_s"] = end - start - paused
        rec["span_s"] = [start, end]
        rec["rc"] = rc
        if rc == 0 and "argv" in op:
            out = self.workdir / f"report.{op['fmt']}"
            rec["digest"] = _file_digest(out)
            if op["key"] in self.kept:
                out.unlink()
            else:
                kept = self.workdir / f"op{idx}.{op['fmt']}"
                os.replace(out, kept)
                rec["file"] = kept.name
                self.kept.add(op["key"])
        elif rc == 0:
            blob = json.dumps(payload, sort_keys=True)
            rec["digest"] = hashlib.sha256(blob.encode()).hexdigest()
            if op["key"] not in self.kept:
                rec["result"] = payload
                self.kept.add(op["key"])
        self.records.write(json.dumps(rec) + "\n")


def warm_up(workload: str, workdir: Path) -> None:
    """Untimed calls that load every code path the workload uses."""
    reference.kernel(workload, str(workdir))
    if workload == "montecarlo":
        for fn in plan.MC_FUNCTIONS:
            _mc_call({"fn": fn, "theta1_deg": 60.0, "theta2_deg": 120.0,
                      "samples": 100, "seed": 0, "shards": 2})
        return
    if workload == "sweep":
        commands = [["bell-sweep", "--grid-step", "10"]]
    else:
        commands = [list(prefix) for prefix, _ in plan.EXACT_COMMANDS]
    for argv in commands:
        for fmt in plan.FORMATS:
            cli.main(argv + ["--format", fmt, "--output", "warm-up"])
    (workdir / "warm-up").unlink(missing_ok=True)


def run_timed(runner: Runner, workload: str, seed: int, stream: int, seconds: float,
              sizes: dict) -> int:
    """Whole cycles until `seconds` have passed, or exactly
    plan.FIXED_CYCLES[workload] of them; returns the cycle count."""
    fixed = plan.FIXED_CYCLES.get(workload)
    start = time.perf_counter()
    count = 0
    for cycle in plan.cycles(workload, seed, sizes, stream):
        for op in cycle:
            runner.run(op)
        count += 1
        if count == fixed or (fixed is None and time.perf_counter() - start >= seconds):
            break
    return count


def run_traced(runner: Runner, workload: str, seed: int, sizes: dict, spans_path) -> dict:
    """A fixed op list twice, untraced and with spans, then its smallest op
    of each kind with allocation tracking.  Op counts depend only on the
    seed."""
    import tracing  # here, so that untraced runs do not carry inspect in their RSS

    ops = [op for cycle in plan.first_cycles(
        workload, seed, sizes, sizes["trace_cycles"][workload]) for op in cycle]

    start = time.perf_counter()
    for op in ops:
        runner.run(op)
    untraced_s = time.perf_counter() - start

    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        start = time.perf_counter()
        for i, op in enumerate(ops):
            runner.run(op, lambda op=op, i=i: tracer.op(i, lambda: runner.call(op)))
        traced_s = time.perf_counter() - start
    finally:
        restore()

    # tracemalloc slows allocation-heavy calls about fivefold, so the
    # allocation pass runs only the smallest op of each kind and format (for
    # the sweep, the 1 degree grid); that keeps a traced run within its time
    smallest: dict[tuple, dict] = {}
    for op in ops:
        kind = (op["kind"], op.get("fmt"))
        if kind not in smallest or op["work"] < smallest[kind]["work"]:
            smallest[kind] = op
    alloc = tracing.AllocTracker()
    restore = alloc.install()
    try:
        for op in smallest.values():
            runner.run(op)
    finally:
        restore()

    metrics = tracer.metrics()
    metrics.update(alloc.metrics())
    metrics["trace.overhead_ms"] = (traced_s - untraced_s) * 1e3
    if spans_path:
        with open(spans_path, "w", encoding="utf-8") as f:
            for span in tracer.span_dicts():
                f.write(json.dumps(span) + "\n")
    return {
        "metrics": metrics,
        "ops": len(ops),
        "spans": len(tracer.spans),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
    }


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sizes = plan.TINY if spec["tiny"] else plan.FULL
    workdir = Path(spec["workdir"])
    if Path(spec["src"]).resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"bellbox imported from {cli.__file__}, not from {spec['src']}")
    os.environ[cli.OUTPUT_DIR_ENV] = str(workdir)
    warm_up(spec["workload"], workdir)
    result = {"numpy": np.__version__, "python": sys.version.split()[0]}
    with open(workdir / "records.jsonl", "w", encoding="utf-8") as records:
        if spec["mode"] == "trace":
            runner = Runner(workdir, records)
            result["trace"] = run_traced(runner, spec["workload"], spec["seed"], sizes,
                                         spec.get("spans"))
        else:
            with reference.Meter(spec["workload"], str(workdir)) as meter:
                runner = Runner(workdir, records, meter)
                result["cycles"] = run_timed(runner, spec["workload"], spec["seed"],
                                             spec["stream"], spec["seconds"], sizes)
            result["reference_s"], result["reference_starts"] = meter.samples, meter.starts
            result["reference_interpreted_s"] = meter.interpreted
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""bellbox benchmark: three closed-loop workloads, end-to-end metrics, and a
separate traced run for per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload {sweep,montecarlo,exact} --seed N \\
        --seconds S --trace {0,1} [--spans FILE]
    python3 bench/run.py compare PARENT.log CHANGE.log

A run measures set-up time in fresh interpreters, then runs the workload in
one fresh single-threaded interpreter (bench/child.py) and checks every op's
output here, after that process has exited.  The last line of output is one
JSON object with correct, attempted, failed and metrics: the end_to_end
metrics of BENCHMARK.json with --trace 0, its per_layer metrics with
--trace 1.  The line before it is the full record of the run; compare mode
reads those records from saved output.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import compare
import plan
import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "montecarlo", "exact")
# What work_per_s counts on each workload, by the name the issue gives it.
WORK_NAMES = {"sweep": "points_per_s", "montecarlo": "draws_per_s", "exact": "reports_per_s"}
BLAS_ENV = {
    name: "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
# Fresh `import bellbox.cli` varies by tens of percent from one try to the
# next.  A run takes at least this many tries, split evenly over the gaps
# before, between and after its workload processes, so that they see the
# machine over the whole run.
SETUP_SAMPLES = 24
CHILD_TIMEOUT_S = 160
MAX_FAILURES_SHOWN = 5


class BenchError(Exception):
    """The benchmark cannot produce a result; no result line is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure_setup(env: dict, count: int) -> list[float]:
    """Wall seconds from starting a fresh interpreter to bellbox.cli imported
    (and the interpreter gone), `count` times."""
    cmd = [sys.executable, "-c", "import bellbox.cli"]
    times = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"import bellbox.cli failed: {proc.stderr.decode()[-500:]}")
    return times


def run_child(spec: dict, workdir: Path, env: dict) -> dict:
    spec_path, result_path = workdir / "spec.json", workdir / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path), str(result_path)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process passed {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"workload process exited {proc.returncode}: "
                         f"{proc.stderr.decode(errors='replace')[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    with open(workdir / "records.jsonl", encoding="utf-8") as f:
        result["records"] = [json.loads(line) for line in f]
    for rec in result["records"]:
        if rec["file"]:
            rec["file"] = str(workdir / rec["file"])
    return result


def run_children(args, workdir: Path, env: dict, between=lambda: None) -> list[dict]:
    """The workload's processes, one after another (see plan.PROCESSES);
    between() runs before each and after the last."""
    count = 1 if args.trace else plan.PROCESSES[args.workload]
    results = []
    for stream in range(count):
        between()
        subdir = workdir / f"p{stream}"
        subdir.mkdir()
        spec = {
            "workload": args.workload,
            "seed": args.seed,
            "stream": stream,
            "seconds": args.seconds / count,
            "mode": "trace" if args.trace else "run",
            "tiny": args.tiny,
            "src": str(SRC),
            "workdir": str(subdir),
            "spans": str(Path(args.spans).resolve()) if args.spans else None,
        }
        results.append(run_child(spec, subdir, dict(env, PYTHONHASHSEED=str(stream))))
    between()
    return results


def check_records(records: list[dict]) -> list[str]:
    """One message per failed op: a bad exit, a wrong output, or bytes that
    differ from the first op with the same key."""
    checker = checks.Checker(SRC / "bellbox" / "report_schema.json")
    first_digest: dict[str, str] = {}
    failures = []
    for i, rec in enumerate(records):
        op = rec["op"]
        if rec["error"] or rec["rc"] != 0:
            failures.append(f"op {i} {op['key']}: exit {rec['rc']} {rec['error'] or ''}")
            continue
        key = op["key"]
        if key in first_digest:
            if rec["digest"] != first_digest[key]:
                failures.append(f"op {i} {key}: bytes differ from its first run")
            continue
        first_digest[key] = rec["digest"]
        if "argv" in op:
            path = Path(rec["file"])
            problem = checker.check(op, data=path.read_bytes())
            path.unlink()
        else:
            problem = checker.check(op, result=rec["result"])
        if problem:
            failures.append(f"op {i} {key}: {problem}")
    return failures


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_name(workload: str) -> str:
    pct = plan.TAIL_PERCENTILE[workload]
    return "max" if pct == 100.0 else f"p{pct:g}"


def end_to_end(workload: str, results: list[dict], setup: list[float]) -> tuple:
    """The end-to-end metrics, op times scaled to nominal machine speed, and
    the measured figures behind them."""
    records, scales = [], []
    for result in results:
        records += result["records"]
        scales += reference.op_scales([r["span_s"] for r in result["records"]],
                                      result["reference_starts"], result["reference_s"],
                                      reference.nominal_s(workload))
    measured = [r["latency_s"] for r in records]
    work = sum(r["op"]["work"] for r in records)

    def figures(latencies):
        ordered = sorted(latencies)
        return {
            "work_per_s": work / sum(ordered),
            "op_p50_ms": statistics.median(ordered) * 1e3,
            "op_tail_ms": percentile(ordered, plan.TAIL_PERCENTILE[workload]) * 1e3,
        }

    # set-up samples are taken between the workload processes, so they are
    # scaled by the speed over the whole run, by the same kernel part on
    # every workload
    kernel = [t for result in results for t in result["reference_interpreted_s"]]
    run_scale = reference.NOMINAL_S["interpreted"] / statistics.fmean(kernel)
    metrics = {"setup_s": statistics.median(setup) * run_scale}
    metrics.update(figures([t * k for t, k in zip(measured, scales)]))
    metrics["peak_rss_mb"] = max(result["peak_rss_mb"] for result in results)
    detail = {
        "ops": len(records),
        "work": work,
        "busy_s": sum(measured),
        "setup_samples": len(setup),
        "tail_percentile": tail_name(workload),
        "work_name": WORK_NAMES[workload],
        "measured": dict(figures(measured), setup_s=statistics.median(setup)),
        "run_scale": run_scale,
        "reference_samples": len(kernel),
        "processes": len(results),
        "cycles": sum(result["cycles"] for result in results),
    }
    if workload == "montecarlo":
        # the 1e4- and 1e6-draw calls are meant to take about half each
        share: dict[str, float] = {}
        for r, t in zip(records, measured):
            size = str(r["op"]["samples"])
            share[size] = share.get(size, 0.0) + t / detail["busy_s"]
        detail["busy_share_by_samples"] = share
    return metrics, detail


def print_summary(workload: str, metrics: dict, units: dict, detail: dict,
                  attempted: int, failed: int) -> None:
    n = detail["ops"]
    notes = {
        "setup_s": f"median of {detail['setup_samples']} fresh imports of bellbox.cli",
        "work_per_s": f"{detail['work']} {detail['work_name'][:-6]} in "
                      f"{detail['busy_s']:.3f} s of op time, {detail['cycles']} cycles",
        "op_p50_ms": f"median over n={n} ops",
        "op_tail_ms": f"{detail['tail_percentile']} over n={n} ops",
        "peak_rss_mb": f"max ru_maxrss of {detail['processes']} workload processes",
    }
    print(f"bench {workload}: times at nominal machine speed, as measured in brackets "
          f"(run scale {detail['run_scale']:.3f})")
    for name, value in metrics.items():
        label = f"{name} = {detail['work_name']}" if name == "work_per_s" else name
        raw = f"[{detail['measured'][name]:.6g}]" if name in detail["measured"] else ""
        print(f"  {label:<28} {value:>12.6g} {units[name]:<4} {raw:<13} {notes[name]}")
    print(f"  {'failed_ops_ratio':<28} {failed / attempted:>12.6g} {'1':<4} {'':<13} "
          f"{failed} failed of {attempted} ops")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", metavar="FILE",
                   help="with --trace 1, also write the raw spans to FILE as JSON lines")
    p.add_argument("--tiny", action="store_true",
                   help="tiny sizes, for the benchmark's own smoke tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:], ROOT / "BENCHMARK.json")
    args = parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


def run(args) -> int:
    if not (SRC / "bellbox" / "cli.py").is_file():
        raise BenchError(f"no bellbox sources under {SRC}")
    try:
        config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    wanted = config["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    env = child_env()
    context = {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "blas_threads": BLAS_ENV,
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_before": os.getloadavg(),
    }
    setup: list[float] = []
    if not args.trace:
        measure_setup(env, 1)  # untimed: writes the bytecode caches
    workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        gaps = plan.PROCESSES[args.workload] + 1
        per_gap = -(-SETUP_SAMPLES // gaps)
        results = run_children(args, workdir, env, between=lambda: None if args.trace else
                               setup.extend(measure_setup(env, per_gap)))
        records = [rec for result in results for rec in result["records"]]
        failures = check_records(records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    context["numpy"] = results[0]["numpy"]
    context["loadavg_after"] = os.getloadavg()

    attempted, failed = len(records), len(failures)
    if args.trace:
        produced = results[0]["trace"]["metrics"]
        detail = {k: v for k, v in results[0]["trace"].items() if k != "metrics"}
    else:
        produced, detail = end_to_end(args.workload, results, setup)
    missing = [name for name in units if name not in produced]
    if missing:
        raise BenchError(f"metrics named in BENCHMARK.json but not produced: {missing}")
    metrics = {name: produced[name] for name in units}
    if args.trace:
        print(f"bench {args.workload} traced run: {detail['ops']} ops, {detail['spans']} spans, "
              f"untraced {detail['untraced_s']:.3f} s, traced {detail['traced_s']:.3f} s")
        for name, value in metrics.items():
            print(f"  {name:<48} {value:>14.6g} {units[name]}")
        print(f"  {'failed_ops_ratio':<48} {failed / attempted:>14.6g} "
              f"({failed} failed of {attempted} ops)")
    else:
        print_summary(args.workload, metrics, units, detail, attempted, failed)
    for message in failures[:MAX_FAILURES_SHOWN]:
        print(f"  FAILED {message[:300]}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "context": context,
        "detail": detail,
        "attempted": attempted,
        "failed": failed,
        "failed_ops_ratio": failed / attempted,
        "failures": failures[:MAX_FAILURES_SHOWN],
        "metrics": metrics,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

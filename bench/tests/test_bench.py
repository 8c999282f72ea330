"""Smoke tests for the benchmark itself, at tiny sizes.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import compare  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]
COUNT_SUFFIXES = (".calls", ".draws", ".points", ".bytes")


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted(workload, trace):
    out = result_line(bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                            "--trace", trace, "--tiny"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    wanted = CONFIG["per_layer" if trace == "1" else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        if trace == "0":
            assert out["metrics"][m["name"]]["value"] > 0


def test_sweep_op_count_does_not_depend_on_time():
    # a faster program must not get more sweep ops, or op_tail_ms would pick
    # out a different op
    counts = set()
    for seconds in ("0.01", "30"):
        proc = bench("--workload", "sweep", "--seed", "4", "--seconds", seconds,
                     "--trace", "0", "--tiny")
        counts.add(result_line(proc)["attempted"])
        record = json.loads(proc.stdout.strip().splitlines()[-2])["record"]
        assert record["detail"]["tail_percentile"] == "max"
    assert counts == {12}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_kernel_runs_without_the_collector_and_restores_it(workload, tmp_path):
    import gc

    collections = []
    gc.callbacks.append(lambda phase, info: collections.append(phase))
    try:
        parts = reference.kernel(workload, str(tmp_path))
    finally:
        gc.callbacks.pop()
    assert collections == []
    assert list(parts) == [part.__name__ for part in reference.KERNELS[workload]]
    assert all(t > 0 for t in parts.values())
    assert gc.isenabled()
    assert list(tmp_path.iterdir()) == []


def test_layer_counts_repeat_for_one_seed(tmp_path):
    runs = []
    for _ in range(2):
        out = result_line(bench("--workload", "exact", "--seed", "5", "--seconds", "0.3",
                                "--trace", "1", "--tiny"))
        runs.append({k: v["value"] for k, v in out["metrics"].items()
                     if k.endswith(COUNT_SUFFIXES)})
    assert runs[0] == runs[1]
    assert runs[0]["cli.parse_args.calls"] > 0 and runs[0]["quantum.joint_outcome_prob.calls"] > 0


def test_spans_nest_within_their_op(tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    result_line(bench("--workload", "montecarlo", "--seed", "2", "--seconds", "0.3",
                      "--trace", "1", "--tiny", "--spans", str(spans_path)))
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    assert spans[0]["name"] == "op"
    for span in spans:
        assert span["start_ns"] <= span["end_ns"]
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["op"] == span["op"]
            assert parent["start_ns"] <= span["start_ns"] <= span["end_ns"] <= parent["end_ns"]


def _report(tmp_path, argv) -> bytes:
    out = tmp_path / "report"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "bellbox", *argv, "--output", str(out)],
                   env=env, check=True, timeout=60)
    return out.read_bytes()


@pytest.mark.parametrize("argv", [
    ["singlet-bell", "--theta1", "33.5", "--theta2", "-140.25", "--format", "json"],
    ["order-demo", "--theta1", "10", "--theta2", "200", "--format", "csv"],
    ["lhv-enumerate", "singlet", "--format", "text"],
    ["bell-sweep", "--grid-step", "10", "--format", "json"],
])
def test_corrupted_output_is_a_failed_op_not_a_crash(tmp_path, argv):
    checker = checks.Checker(ROOT / "src" / "bellbox" / "report_schema.json")
    op = {"argv": argv, "fmt": argv[-1], "work": 19 * 19}
    good = _report(tmp_path, argv)
    assert checker.check(op, data=good) is None
    # a changed leading digit, a cut-off end and garbage each fail the check
    digit = [m.start() for m in re.finditer(rb"(?<![\d.])[1-9]", good)][-1]
    changed = good[:digit] + (b"2" if good[digit:digit + 1] != b"2" else b"3") + good[digit + 1:]
    for bad in (changed, good[: len(good) // 2], b"\xff\x00 not a report"):
        assert isinstance(checker.check(op, data=bad), str)


def test_check_records_counts_each_failure(tmp_path):
    argv = ["ghz-parity", "--format", "json"]
    good = _report(tmp_path, argv)
    op = {"key": " ".join(argv), "argv": argv, "fmt": "json", "work": 1}

    def record(data, digest, rc=0):
        path = tmp_path / f"{digest}-{len(list(tmp_path.iterdir()))}"
        path.write_bytes(data)
        return {"op": op, "rc": rc, "error": None, "digest": digest, "file": str(path),
                "result": None}

    records = [
        record(good, "a"),            # first run: fully checked, correct
        record(good, "a"),            # identical bytes
        record(good, "b"),            # bytes differ from the first run
        record(good, None, rc=1),     # failed exit
    ]
    failures = run.check_records(records)
    assert len(failures) == 2
    bad = {"op": dict(op, key="other"), "rc": 0, "error": None, "digest": "c",
           "file": str(tmp_path / "bad"), "result": None}
    (tmp_path / "bad").write_bytes(good.replace(b'"contradiction": true', b'"contradiction": false'))
    assert len(run.check_records([bad])) == 1


def test_montecarlo_checks():
    op = {"fn": "bell", "theta1_deg": 60.0, "theta2_deg": 120.0, "samples": 10_000, "seed": 4}
    exact = checks.coincidence_probs(60.0, 120.0)
    good = {label: [p, (p * (1 - p) / 10_000) ** 0.5, 10_000, 4]
            for label, p in zip(("AB", "BC", "AC"), exact)}
    checks.check_mc(op, good)
    far = dict(good, AB=[0.2, (0.2 * 0.8 / 10_000) ** 0.5, 10_000, 4])
    with pytest.raises(checks.CheckFailed):
        checks.check_mc(op, far)
    ghz = {"fn": "ghz", "samples": 100}
    checks.check_mc(ghz, {"means": [1.0] * 4, "constant_on_draws": [True] * 4})
    with pytest.raises(checks.CheckFailed):
        checks.check_mc(ghz, {"means": [1.0] * 4, "constant_on_draws": [True, True, False, True]})


def test_six_sigma_holds_for_rare_outcomes():
    # one hit at p = 1e-6 over 1e4 draws is not a 6-sigma event
    assert checks.within_six_sigma(1e-4, 1e-6, 10_000)
    assert not checks.within_six_sigma(1e-2, 1e-6, 10_000)
    assert checks.within_six_sigma(0.0, 0.0, 10_000)
    assert not checks.within_six_sigma(1e-4, 0.0, 10_000)


def test_compare_verdicts():
    parent = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    faster = [p * 1.2 for p in parent]
    assert compare.verdict(parent, faster, "higher", 0.1)["verdict"] == "improved"
    assert compare.verdict(parent, [p * 0.8 for p in parent], "higher", 0.1)["verdict"] == "worse"
    assert compare.verdict(parent, list(parent), "higher", 0.1)["verdict"] == "within bound"
    noisy = [60.0, 140, 70, 130, 100, 65, 135, 100, 75, 125]
    assert compare.verdict(parent, noisy, "higher", 0.1)["verdict"] == "unresolved"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

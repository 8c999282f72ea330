"""Compare mode: a parent set of runs against a change set of runs.

    python3 bench/run.py compare PARENT.log CHANGE.log

Each file holds the saved output of benchmark runs (any number, any
workloads, --trace 0); the {"record": ...} lines are read from it.  For
each workload and end-to-end metric it prints both sides' medians and
quartiles, the share of pairs the change won, and a verdict:

  improved        the change won at least 9 of 10 pairs (ties count for
                  neither) and the medians differ by more than the parent's
                  quartile spread, in the better direction
  worse           the change's median is worse than the parent's by more
                  than the metric's bound
  unresolved      not improved, and a side's quartile spread is wider than
                  the bound, unless every change run is better or every one
                  is worse than every parent run
  within bound    otherwise

Runs pair up in the order they appear in each file, per workload; run the
two sides alternately so that each pair saw the same machine.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

WIN_SHARE = 0.9


def load_records(path: str) -> list[dict]:
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith('{"record"'):
            record = json.loads(line)["record"]
            if not record["trace"]:
                records.append(record)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) > 0)
    worse_by = sign * (pm - cm) / pm  # share of the parent median, positive = worse
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    separated = (all(sign * (c - p) > 0 for c in change for p in parent)
                 or all(sign * (c - p) < 0 for c in change for p in parent))
    if won >= WIN_SHARE * len(pairs) and sign * (cm - pm) > p3 - p1:
        result = "improved"
    elif spread > bound and not separated:
        result = "unresolved"
    elif worse_by > bound:
        result = "worse"
    else:
        result = "within bound"
    return {
        "parent": (pm, p1, p3),
        "change": (cm, c1, c3),
        "pairs": len(pairs),
        "won": won,
        "change_pct": 100.0 * (cm - pm) / pm,
        "verdict": result,
    }


def main(argv: list[str], benchmark_json: Path) -> int:
    if len(argv) != 2:
        print("usage: python3 bench/run.py compare PARENT.log CHANGE.log", file=sys.stderr)
        return 1
    config = json.loads(benchmark_json.read_text(encoding="utf-8"))
    parent, change = load_records(argv[0]), load_records(argv[1])
    workloads = [w["name"] for w in config["workloads"]]
    print(f"{'workload':<11} {'metric':<12} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'change':>8} {'won':>7} verdict")
    for workload in workloads:
        p_runs = [r for r in parent if r["workload"] == workload]
        c_runs = [r for r in change if r["workload"] == workload]
        if not p_runs or not c_runs:
            continue
        for metric in config["end_to_end"]:
            name = metric["name"]
            row = verdict([r["metrics"][name] for r in p_runs], [r["metrics"][name] for r in c_runs],
                          metric["better"], metric["bound"])
            side = "{:.5g} [{:.5g}, {:.5g}]"
            print(f"{workload:<11} {name:<12} {side.format(*row['parent']):<34} "
                  f"{side.format(*row['change']):<34} {row['change_pct']:>+7.2f}% "
                  f"{row['won']:>3}/{row['pairs']:<3} {row['verdict']}")
    return 0

"""Seeded op plans for the three workloads.

A plan is an endless sequence of cycles.  Every cycle of a workload holds the
same multiset of op kinds in a seed-drawn order, so a run made of whole cycles
has the same mix whatever its length, and medians over it stay comparable.
The program sees only the generated argv (cli workloads) or arguments
(montecarlo); the workload seed never reaches it.

An op is a plain dict:
  key     identity of the call; two ops with one key must give identical bytes
  kind    the op's class within the cycle (argv without angles, or fn/samples/shards)
  work    units of work the op does (grid points, draws or one report)
  argv    cli ops: arguments for bellbox.cli.main, without --output
  fmt     cli ops: report format
  fn, theta1_deg, theta2_deg, samples, seed, shards   montecarlo ops
"""

from __future__ import annotations

import json
import random

FORMATS = ("json", "csv", "text")

# Share of ops that replay the arguments of an earlier op of the same kind, to
# check that identical argv gives identical bytes.  Commands without
# arguments (ghz-parity, lhv-enumerate) repeat their argv every cycle anyway.
REPLAY_SHARE = 0.125
# Replays draw from the most recent arguments of their kind only, so a long
# run does not hold an ever-growing history in the measured process.
REPLAY_HISTORY = 32

# Sizes used by the benchmark; TINY keeps the smoke tests fast.  Both sweep
# steps divide 180 degrees, so the grid ends exactly at 180.
FULL = {
    "sweep_steps": ("1", "0.5"),
    # 1e4 and 1e6 draws; at the seed commit 48+48 small iterations per cycle
    # take about as long as the two large ones
    "mc_samples": (10_000, 1_000_000),
    "mc_small_per_shard_count": 48,
    "trace_cycles": {"sweep": 1, "montecarlo": 3, "exact": 30},
}
TINY = {
    "sweep_steps": ("10", "5"),
    "mc_samples": (100, 2_000),
    "mc_small_per_shard_count": 2,
    "trace_cycles": {"sweep": 1, "montecarlo": 1, "exact": 1},
}

# Workload processes per run.  Each process has its own memory layout and
# string-hash seed, which moves the small-report workloads by up to 10% as a
# whole; a run averages over several.  A sweep cycle (one sweep of each step
# and format) takes 10-13 s, so the sweep uses two.
PROCESSES = {"sweep": 2, "montecarlo": 4, "exact": 4}

# Cycles per process for workloads whose op count must not depend on how fast
# the program is.  A sweep cycle is six long ops; run for a time, a faster
# sweep would fit a second cycle and change what op_tail_ms picks out.  So a
# sweep run is always 2 processes x 1 cycle = 12 ops, whatever --seconds is.
FIXED_CYCLES = {"sweep": 1}

# The percentile op_tail_ms reports, fixed per workload so that every commit
# is measured by the same statistic; 100 is the maximum.  At the seed commit
# a 20 s run has 3000-5000 (exact) and 5500-8000 (montecarlo) ops, so p99
# has 30-80 ops beyond it; the sweep's 12 ops give the slower of its two
# 0.5 degree json reports.
TAIL_PERCENTILE = {"sweep": 100.0, "montecarlo": 99.0, "exact": 99.0}

EXACT_COMMANDS = (
    # (argv prefix, number of angle options)
    (("singlet-bell",), 2),
    (("order-demo",), 2),
    (("ghz-parity",), 0),
    (("lhv-enumerate", "singlet"), 0),
    (("lhv-enumerate", "ghz"), 0),
    (("state-report",), 1),
)
ANGLE_FLAGS = ("--theta1", "--theta2")
MC_FUNCTIONS = ("bell", "singlet", "ghz")


def grid_points(step: str) -> int:
    per_axis = round(180 / float(step)) + 1
    return per_axis * per_axis


def cycles(workload: str, seed: int, sizes: dict, stream: int = 0):
    """Endless iterator of cycles (lists of ops) for one workload and seed.

    A run splits its time over several workload processes; each takes its
    own stream of the seed, so their inputs differ."""
    rng = random.Random(f"{seed}/{stream}")
    if workload == "sweep":
        return _sweep(rng, sizes)
    if workload == "montecarlo":
        return _montecarlo(rng, sizes)
    if workload == "exact":
        return _exact(rng, sizes)
    raise ValueError(f"unknown workload {workload!r}")


def first_cycles(workload: str, seed: int, sizes: dict, count: int) -> list:
    it = cycles(workload, seed, sizes, 0)
    return [next(it) for _ in range(count)]


def _cli_op(argv: list, fmt: str, work: int) -> dict:
    argv = argv + ["--format", fmt]
    return {"key": " ".join(argv), "kind": argv[0], "argv": argv, "fmt": fmt, "work": work}


def _sweep(rng: random.Random, sizes: dict):
    ops = [
        _cli_op(["bell-sweep", "--grid-step", step], fmt, grid_points(step))
        for step in sizes["sweep_steps"]
        for fmt in FORMATS
    ]
    while True:
        cycle = list(ops)
        rng.shuffle(cycle)
        yield cycle


def _remember(seen: list, args) -> None:
    seen.append(args)
    if len(seen) > REPLAY_HISTORY:
        del seen[0]


def _angle(rng: random.Random) -> str:
    # finite and within +-360 degrees
    return f"{rng.uniform(-360.0, 360.0):.4f}"


def _exact(rng: random.Random, sizes: dict):
    earlier: dict[tuple, list] = {}
    while True:
        cycle = []
        for prefix, n_angles in EXACT_COMMANDS:
            for fmt in FORMATS:
                seen = earlier.setdefault((prefix, fmt), [])
                if seen and (n_angles == 0 or rng.random() < REPLAY_SHARE):
                    argv = list(rng.choice(seen))
                else:
                    argv = list(prefix)
                    for flag in ANGLE_FLAGS[:n_angles]:
                        argv += [flag, _angle(rng)]
                    _remember(seen, argv)
                cycle.append(_cli_op(argv, fmt, 1))
        rng.shuffle(cycle)
        yield cycle


def _montecarlo(rng: random.Random, sizes: dict):
    small, large = sizes["mc_samples"]
    slots = [(large, 1), (large, 4)]
    slots += [(small, shards) for shards in (1, 4)] * sizes["mc_small_per_shard_count"]
    earlier: dict[tuple, list] = {}
    while True:
        order = list(slots)
        rng.shuffle(order)
        cycle = []
        for samples, shards in order:
            seen = earlier.setdefault((samples, shards), [])
            if seen and rng.random() < REPLAY_SHARE:
                mc_seed, t1, t2 = rng.choice(seen)
            else:
                mc_seed = rng.randrange(2**32)
                t1 = round(rng.uniform(0.0, 360.0), 4)
                t2 = round(rng.uniform(0.0, 360.0), 4)
                _remember(seen, (mc_seed, t1, t2))
            for fn in MC_FUNCTIONS:
                op = {
                    "fn": fn,
                    "theta1_deg": t1,
                    "theta2_deg": t2,
                    "samples": samples,
                    "seed": mc_seed,
                    "shards": shards,
                }
                op["key"] = json.dumps(op, sort_keys=True)
                op["kind"] = f"{fn}/{samples}/{shards}"
                op["work"] = samples
                cycle.append(op)
        yield cycle

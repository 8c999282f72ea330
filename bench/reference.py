"""Fixed reference kernels that measure how fast the machine is right now.

The machine this benchmark is built for shares its cores with other tenants.
The speed a process gets flips between two levels about 2x apart within
seconds, and two runs of the same code a minute apart can differ by 25%.  So
while the ops run, a timer runs the workload's kernel every INTERVAL_S, also
in the middle of an op.  The kernel's time is taken out of the op's latency,
and each op's latency is scaled by the kernel's nominal time (the sum of
NOMINAL_S over its parts) over the mean kernel time measured during it.  Op
times are thus reported in seconds at the speed where the kernel takes its
nominal time.  Set-up time, measured between the workload processes, is
scaled on every workload by the interpreted part alone, its nominal time
over its mean time over the whole run, so one import reads the same on
every workload.  Ratios between two commits are unchanged by the scaling,
and most of the drift cancels.

The kernels are fixed code of the benchmark's own.  They run with the
garbage collector off, so the collections that their allocations would
trigger over the op's live objects are not charged to the kernel: the op
pays for its own collections when it resumes.  What a change to bellbox can
still move is the kernel's cache and allocator state inside the op's heap,
and, for the part that writes files, the state of the file system that the
reports are written to.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import signal
import statistics
import time

import numpy as np

# Each part's time at a typical speed of the machine this was built on.
NOMINAL_S = {"interpreted": 0.005, "sampling": 0.0013, "files": 0.0015}
# About a tenth of the run goes to the kernel, a seventh on exact.
INTERVAL_S = 0.05


_WAVE = np.linspace(0.0, 1.0, 64)
_RNG = np.random.default_rng(0)
_UNIFORM = np.empty(10_000)
_PICKED = np.empty(10_000, dtype=np.int64)
_CUMULATIVE = np.cumsum(np.full(8, 0.125))
_INDICATOR = np.arange(8) % 2
_TEXT = "x" * 1500

# Each part takes the directory it may write in; only files() uses it.


def interpreted(workdir: str) -> float:
    """Building and walking a dict of strings and tuples, json encoding and
    small numpy calls: the kind of work the cli spends its time on."""
    table = {}
    for i in range(3000):
        table[f"k{i}"] = (i * 0.5, str(i))
    text = json.dumps(table)
    total = 0.0
    for value, _ in table.values():
        total += value * value
    a = _WAVE
    for _ in range(50):
        a = np.sin(a) + 0.1
    return total + float(a.sum()) + len(text)


def sampling(workdir: str) -> float:
    """Draws, a search and a gather over arrays larger than the inner caches,
    as in Monte Carlo sampling."""
    total = 0
    for _ in range(3):
        _RNG.random(out=_UNIFORM)
        idx = np.searchsorted(_CUMULATIVE, _UNIFORM, side="right")
        np.take(_INDICATOR, np.minimum(idx, 7, out=idx), out=_PICKED)
        total += int(_PICKED.sum())
    return float(total)


def files(workdir: str) -> float:
    """Creates, writes, renames and deletes small files, as every report
    that is written and then kept or deleted does."""
    for i in range(2):
        path = os.path.join(workdir, f"kernel-{i}.txt")
        with open(path, "w", encoding="utf-8") as f:
            f.write(_TEXT)
        os.replace(path, path + ".kept")
        os.unlink(path + ".kept")
    return 0.0


# Each workload's kernel resembles what its ops spend their time on.  With
# the sampling part, the small-report workload's spread between runs grew
# from 4% to 14%; without it, the Monte Carlo workload's tail spread was 17%
# instead of 8%.  The small-report workload writes a file in every 4 ms op,
# and creating files on the machine this was built on slows down by up to
# 5x over minutes of such churn.  Over ten runs in a row its reports/s,
# scaled by the interpreted part alone, fell 12% from the first run to the
# last; with the files part added it stayed within 3%.
KERNELS = {
    "sweep": (interpreted,),
    "exact": (interpreted, files),
    "montecarlo": (interpreted, sampling),
}


def kernel(workload: str, workdir: str) -> dict[str, float]:
    """Runs the workload's kernel with the garbage collector off; returns
    each part's seconds."""
    times = {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        for part in KERNELS[workload]:
            start = time.perf_counter()
            part(workdir)
            times[part.__name__] = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    return times


def nominal_s(workload: str) -> float:
    return sum(NOMINAL_S[part.__name__] for part in KERNELS[workload])


class Meter:
    """Runs the kernel from a SIGALRM timer while the block it guards runs.

    starts and samples hold each kernel run's start and duration; callers
    subtract the runs that fell inside what they measure.  interpreted holds
    the duration of each run's interpreted part, which scales set-up time."""

    def __init__(self, workload: str, workdir: str):
        self.workload = workload
        self.workdir = workdir
        self.starts: list[float] = []
        self.samples: list[float] = []
        self.interpreted: list[float] = []
        self._busy = False

    def _tick(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            parts = kernel(self.workload, self.workdir)
            self.starts.append(start)
            self.samples.append(sum(parts.values()))
            self.interpreted.append(parts["interpreted"])
        finally:
            self._busy = False

    def __enter__(self):
        # one sample at each end, so that even a very short block has some
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()


def op_scales(spans: list[tuple[float, float]], starts: list[float],
              samples: list[float], nominal: float) -> list[float]:
    """For each op's (start, end), the factor that turns its measured seconds
    into seconds at nominal speed: the kernel's nominal time over its mean
    time during the op, or over the kernel sample nearest to it when none ran
    during it."""
    out = []
    for start, end in spans:
        lo, hi = bisect.bisect_left(starts, start), bisect.bisect_left(starts, end)
        if hi > lo:
            out.append(nominal / statistics.fmean(samples[lo:hi]))
            continue
        near = [i for i in (lo - 1, lo) if 0 <= i < len(samples)]
        nearest = min(near, key=lambda i: min(abs(starts[i] - start), abs(starts[i] - end)))
        out.append(nominal / samples[nearest])
    return out

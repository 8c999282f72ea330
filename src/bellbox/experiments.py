"""Quantitative contrasts between the entangled states and their classical
ensembles: the inequality-violating point and sweep, seeded Monte Carlo
cross-checks, the order-dependence demonstration, and the parity contradiction.

Angle conventions: the three measurement directions all lie in the xz-plane,
at polar angles 0, theta1 and theta2.  The pairwise coincidence probabilities
then have closed forms

    p_AB = sin^2(theta1 / 2) / 2
    p_BC = sin^2((theta2 - theta1) / 2) / 2
    p_AC = sin^2(theta2 / 2) / 2

quantum_bell_point cross-checks them against the state-vector computation;
quantum_bell_sweep evaluates them alone, over the grid.

Monte Carlo determinism: estimates depend only on (seed, shards).  Each shard
draws from an independent stream seeded with the pair [seed, shard index], so
sharded runs can be reproduced piecewise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .lhv import (
    COINCIDENCE_PAIRS,
    CorrelationReport,
    Ensemble,
    GhzBoxing,
    MIXED_PATTERNS,
    PARITY_PATTERNS,
    _gap_and_flag,
    _tallies,
    build_ghz_ensemble,
    coincides,
    parity_product,
    sample_indices,
)
from .quantum import (
    ATOL,
    MeasurementAxis,
    ghz_state,
    joint_outcome_prob,
    maximally_mixed,
    pauli_observable,
    principal_angle,
    product_expectation,
    sequential_measure_prob,
    singlet_state,
)


class PhysicsAssertionError(RuntimeError):
    """A quantity the underlying theory pins down came out wrong.

    Distinguishes broken math from broken plumbing: callers map this to its
    own process exit code.
    """


def _directions(theta1: float, theta2: float) -> tuple[MeasurementAxis, ...]:
    """The three measurement directions, at polar angles 0, theta1 and theta2."""
    if not (math.isfinite(theta1) and math.isfinite(theta2)):
        raise ValueError("angles must be finite")
    return MeasurementAxis(0.0), MeasurementAxis(theta1), MeasurementAxis(theta2)


def _pair_axes(theta1: float, theta2: float) -> dict[str, tuple[MeasurementAxis, MeasurementAxis]]:
    """Site-1/site-2 axis assignments for the three coincidence probabilities."""
    n1, n2, n3 = _directions(theta1, theta2)
    return {"AB": (n1, n2), "BC": (n2, n3), "AC": (n1, n3)}


def _closed_form_probs(theta1, theta2):
    """(p_AB, p_BC, p_AC) from the closed forms; angles may be floats or
    arrays that broadcast together.  p_AB reads theta1 alone and p_AC theta2
    alone, so each takes its angle's shape."""
    return (
        0.5 * np.sin(theta1 / 2.0) ** 2,
        0.5 * np.sin((theta2 - theta1) / 2.0) ** 2,
        0.5 * np.sin(theta2 / 2.0) ** 2,
    )


@dataclass(frozen=True)
class BellPoint:
    """Singlet coincidence probabilities at one pair of angles."""

    theta1: float
    theta2: float
    p_q_AB: float
    p_q_BC: float
    p_q_AC: float
    bell_gap: float
    violated: bool

    def __post_init__(self):
        _check_bell_fields(self.p_q_AB, self.p_q_BC, self.p_q_AC, self.bell_gap, self.violated)

    @classmethod
    def from_probs(cls, theta1, theta2, p_ab, p_bc, p_ac) -> BellPoint:
        return cls(theta1, theta2, p_ab, p_bc, p_ac, *_gap_and_flag(p_ab, p_bc, p_ac))


# A BellPoint's fields as a record; a sweep's points hold the three that
# read both angles.
BELL_POINT_DTYPE = np.dtype(
    [(f.name, np.bool_ if f.name == "violated" else np.float64) for f in fields(BellPoint)]
)


def _check_bell_fields(p_ab, p_bc, p_ac, bell_gap, violated) -> None:
    """The probabilities lie in [0, 1/2]; bell_gap and violated follow from them.

    The fields are one BellPoint's or, as arrays that broadcast together, a
    block of sweep points'; a message gives the block's range.
    """
    for name, p in zip(("p_q_AB", "p_q_BC", "p_q_AC"), (p_ab, p_bc, p_ac)):
        if not np.all((0.0 <= p) & (p <= 0.5 + ATOL)):
            raise ValueError(f"{name} out of [0, 1/2]: {np.min(p)} to {np.max(p)}")
    gap, flag = _gap_and_flag(p_ab, p_bc, p_ac)
    if np.any(bell_gap != gap) or np.any(violated != flag):
        raise ValueError("bell_gap or violated inconsistent with the probabilities")


def quantum_bell_point(theta1: float, theta2: float) -> BellPoint:
    """Closed-form coincidence probabilities at (theta1, theta2), verified
    against the Born-rule computation on the singlet state."""
    pair_axes = _pair_axes(theta1, theta2)
    # The closed forms see the angles reduced as each axis reduces its own;
    # on huge raw angles theta2 - theta1 would lose the smaller one.
    reduced = (principal_angle(theta1), principal_angle(theta2))
    closed = [float(p) for p in _closed_form_probs(*reduced)]
    state = singlet_state()
    for (label, axes), value in zip(pair_axes.items(), closed):
        born = joint_outcome_prob(state, axes, (1, 1))
        if abs(born - value) > ATOL:
            raise PhysicsAssertionError(
                f"closed form and state-vector probability disagree for {label}: "
                f"{value} vs {born}"
            )
    try:
        return BellPoint.from_probs(theta1, theta2, *closed)
    except ValueError as exc:
        raise PhysicsAssertionError(str(exc)) from exc


@dataclass(frozen=True, eq=False)
class BellSweep:
    """A grid of points as read-only arrays, with the most negative gap
    singled out.  theta1 and theta2 are the axes, one array, as the grid is
    square; p_q_AB holds one value per theta1 and p_q_AC one per theta2;
    points holds p_q_BC, bell_gap and violated per point (17 bytes), in
    grid order: points.reshape(shape) is the grid, theta1 along axis 0."""

    theta1: np.ndarray
    theta2: np.ndarray
    p_q_AB: np.ndarray
    p_q_AC: np.ndarray
    points: np.recarray
    minimum: BellPoint

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.theta1), len(self.theta2)


# Largest grid a sweep evaluates: a 0.1 degree grid over [0, 180] squared
# (1801 x 1801 = 3,243,601 points) fits, 0.05 degree does not.  The cap
# bounds a report's time, not its memory: the bell-sweep report holds 17
# bytes a point beside one render block's cell texts (at 0.1 degrees 102 to
# 110 MiB in all, and 4 to 9 s on 2 vCPUs).
MAX_SWEEP_POINTS = 4_000_000
_TOO_FINE = f"grid step too fine: more than {MAX_SWEEP_POINTS:,} points"
# About how many grid points a sweep computes at a time: enough to make the
# per-block cost small, few enough that a block's temporaries stay far under
# the whole grid's.  The cli reads it too, for blocks of its own.
_BLOCK_ROWS = 8192
# Most draws one Monte Carlo call makes.  A shard's draws are held as arrays
# of about 16 bytes each: a report at the cap peaks at about 190 MB.
MAX_SAMPLES = 10**7


def _axis_count(step: float) -> int:
    """Points on each axis of the sweep grid: 0, step, ... up to the last
    not past pi; a last point past pi by rounding alone (under 1e-9 of a
    step) still counts.  Found without allocating the grid.  Raises
    ValueError for a bad step, or for a grid larger than MAX_SWEEP_POINTS."""
    if not (step > 0.0 and math.isfinite(step)):
        raise ValueError("step must be positive and finite")
    # pi / step overflows to inf for a subnormal step
    count = math.floor(min(math.pi / step, MAX_SWEEP_POINTS) + 1e-9) + 1
    if count * count > MAX_SWEEP_POINTS:
        raise ValueError(_TOO_FINE)
    return count


def quantum_bell_sweep(step: float) -> BellSweep:
    """Evaluate the closed forms on the square grid over [0, pi] and report
    the minimum.

    Both angles run over one axis, from 0 in whole steps up to the last
    point not past pi, so theta2 is theta1.  Grid order is theta1-major,
    both angles ascending.  Ties on the minimum resolve to the first point
    in that order.  The points are computed and checked a block of whole
    theta1 rows (about _BLOCK_ROWS points) at a time, so no temporary spans
    the grid.
    """
    count = _axis_count(step)
    theta = step * np.arange(count)
    names = ("p_q_BC", "bell_gap", "violated")
    points = np.recarray(count * count, dtype=[(name, BELL_POINT_DTYPE[name]) for name in names])
    grid, p_ab = points.reshape(count, count), np.empty_like(theta)
    rows = max(1, _BLOCK_ROWS // count)
    least = 0
    for start in range(0, count, rows):
        # a column of theta1 values meets the row of theta2 values, so p_AB
        # is computed once per theta1 and p_AC once per theta2
        block_ab, p_bc, p_ac = _closed_form_probs(theta[start:start + rows, None], theta[None, :])
        p_ab[start:start + rows] = block_ab[:, 0]
        block = grid[start:start + rows]
        for name, values in zip(names, (p_bc, *_gap_and_flag(block_ab, p_bc, p_ac))):
            block[name] = values
        # the checks read what is held, so a field held too coarsely fails
        try:
            _check_bell_fields(p_ab[start:start + rows, None], block.p_q_BC, p_ac,
                               block.bell_gap, block.violated)
        except ValueError as exc:
            raise PhysicsAssertionError(str(exc)) from exc
        i = start * count + int(np.argmin(block.bell_gap))
        if points.bell_gap[i] < points.bell_gap[least]:
            least = i
    p_ac = p_ac[0]
    # the block checks hold only while the arrays stay as computed
    for array in (theta, p_ab, p_ac, points):
        array.flags.writeable = False
    i, j = divmod(least, count)
    minimum = BellPoint.from_probs(
        *(float(v) for v in (theta[i], theta[j], p_ab[i], points.p_q_BC[least], p_ac[j])))
    return BellSweep(theta, theta, p_ab, p_ac, points, minimum)


@dataclass(frozen=True)
class McEstimate:
    """One sampled probability with its binomial standard error."""

    estimate: float
    samples: int
    std_error: float
    seed: int

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if not 0.0 <= self.estimate <= 1.0:
            raise ValueError(f"estimate out of [0, 1]: {self.estimate}")

    @classmethod
    def from_hits(cls, hits: int, samples: int, seed: int) -> McEstimate:
        est = hits / samples
        return cls(est, samples, binomial_std_error(est, samples), seed)


def binomial_std_error(estimate: float, samples: int) -> float:
    """Standard error of a probability estimated as a hit fraction of samples
    independent draws."""
    return math.sqrt(estimate * (1.0 - estimate) / samples)


def _check_sampling(samples: int, shards: int) -> None:
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be at most {MAX_SAMPLES:,}")
    if shards < 1:
        raise ValueError("shards must be at least 1")


def _shard_streams(samples: int, seed: int, shards: int):
    """(generator, draws) for each shard that draws at all.  Shard i draws
    samples // shards, one more if i < samples % shards, from the stream
    seeded with [seed, i]; only the last shards can draw nothing."""
    base, extra = divmod(samples, shards)
    for shard in range(min(samples, shards)):
        yield np.random.default_rng([seed, shard]), base + (shard < extra)


def mc_bell_estimate(
    theta1: float,
    theta2: float,
    samples: int,
    seed: int,
    shards: int = 1,
) -> dict[str, McEstimate]:
    """Sampled coincidence probabilities for the three axis pairs.

    Each pair reads its both-positive Born probability p once; a draw is a
    hit with probability p, one uniform a draw.  Within a shard the pairs are
    drawn in AB, BC, AC order from one stream.
    """
    _check_sampling(samples, shards)
    state = singlet_state()
    pair_probs = {
        label: joint_outcome_prob(state, axes, (1, 1))
        for label, axes in _pair_axes(theta1, theta2).items()
    }
    hits = dict.fromkeys(pair_probs, 0)
    for rng, size in _shard_streams(samples, seed, shards):
        for label, p in pair_probs.items():
            hits[label] += int(_tallies([p, 1.0 - p], rng, size)[0])
    return {label: McEstimate.from_hits(h, samples, seed) for label, h in hits.items()}


@dataclass(frozen=True)
class GhzSampleReport:
    """Per-pattern sampled parity products over a three-compartment ensemble.

    means follows PARITY_PATTERNS order; constant_on_draws records whether
    every box drawn at least once has the same product value.
    """

    means: tuple[float, float, float, float]
    constant_on_draws: tuple[bool, bool, bool, bool]
    samples: int
    seed: int


def mc_classical_estimate(
    ens: Ensemble,
    samples: int,
    seed: int,
    shards: int = 1,
):
    """Sampled correlation report for a two-compartment ensemble, or a sampled
    parity report for a three-compartment one.

    Boxes are drawn whole and tallied per box; every reported number is read
    from those tallies.  The result is deterministic given (seed, shards).
    """
    _check_sampling(samples, shards)
    boxes = [b for b, _ in ens.entries]
    counts = sum(
        sample_indices(ens, rng, size) for rng, size in _shard_streams(samples, seed, shards)
    ).tolist()
    if ens.boxing_type is GhzBoxing:
        products = [[b.pattern_product(p) for b in boxes] for p in PARITY_PATTERNS]
        return GhzSampleReport(
            means=tuple(
                sum(v * c for v, c in zip(row, counts)) / samples for row in products
            ),
            constant_on_draws=tuple(
                len({v for v, c in zip(row, counts) if c}) == 1 for row in products
            ),
            samples=samples,
            seed=seed,
        )
    hits = (
        sum(c for b, c in zip(boxes, counts) if coincides(b, p1, p2))
        for p1, p2 in COINCIDENCE_PAIRS
    )
    return CorrelationReport.from_probs(*(h / samples for h in hits), "sampled")


@dataclass(frozen=True)
class OrderReport:
    """Probabilities of the same three-outcome sequence measured in two orders."""

    theta1: float
    theta2: float
    prob_order_123: float
    prob_order_132: float
    equal: bool


def order_dependence_report(theta1: float, theta2: float) -> OrderReport:
    """Sequential collapse probabilities for outcome (+, -, -) measured along
    the three directions in order 1,2,3 versus 1,3,2, starting from the
    axis-independent mixed state.

    The two generally differ; they coincide exactly when theta1 = theta2.
    """
    n1, n2, n3 = _directions(theta1, theta2)
    rho = maximally_mixed()
    p123 = sequential_measure_prob(rho, [(n1, 1), (n2, -1), (n3, -1)])
    p132 = sequential_measure_prob(rho, [(n1, 1), (n3, -1), (n2, -1)])
    return OrderReport(theta1, theta2, p123, p132, abs(p123 - p132) <= ATOL)


@dataclass(frozen=True)
class GhzParityReport:
    """Quantum parity expectations against the classical ensemble constants.

    contradiction is true when the all-dark-direction pattern has quantum
    expectation -1 while the classical product is locked to +1.
    """

    quantum: dict[str, float]
    classical: dict[str, int]
    contradiction: bool


def ghz_contradiction_report() -> GhzParityReport:
    state = ghz_state()
    quantum = {
        pattern: product_expectation(state, pauli_observable(pattern))
        for pattern in PARITY_PATTERNS
    }
    ens = build_ghz_ensemble()
    classical = {}
    for pattern in PARITY_PATTERNS:
        report = parity_product(ens, pattern)
        if report.constant is None:
            raise PhysicsAssertionError(
                f"designed ensemble parity {pattern} is not constant"
            )
        classical[pattern] = report.constant
    contradiction = abs(quantum["xxx"] + 1.0) <= ATOL and classical["xxx"] == 1
    return GhzParityReport(quantum, classical, contradiction)


@dataclass(frozen=True)
class OutcomeRow:
    setting: str
    outcomes: tuple[int, int, int]
    prob: float
    expected: float
    ok: bool


@dataclass(frozen=True)
class ImpossibleOutcomesReport:
    """Every outcome pattern for the three mixed-parity settings, with its
    probability against the 0-or-1/4 target."""

    rows: tuple[OutcomeRow, ...]
    all_ok: bool


def impossible_outcomes_check() -> ImpossibleOutcomesReport:
    """For each mixed-parity setting on the three-site state, negative-parity
    outcome patterns must have probability 0 and the four positive-parity
    patterns probability 1/4 each."""
    state = ghz_state()
    rows = []
    for setting in MIXED_PATTERNS:
        axes = pauli_observable(setting).factors
        for signs in itertools.product((1, -1), repeat=3):
            prob = joint_outcome_prob(state, axes, signs)
            expected = 0.25 if signs[0] * signs[1] * signs[2] == 1 else 0.0
            rows.append(
                OutcomeRow(setting, signs, prob, expected, abs(prob - expected) <= ATOL)
            )
    return ImpossibleOutcomesReport(tuple(rows), all(r.ok for r in rows))


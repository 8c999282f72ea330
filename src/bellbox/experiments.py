"""Quantitative contrasts between the entangled states and their classical
ensembles: the inequality-violating point and sweep, seeded Monte Carlo
cross-checks, the order-dependence demonstration, and the parity contradiction.

Angle conventions: the three measurement directions all lie in the xz-plane,
at polar angles 0, theta1 and theta2.  The pairwise coincidence probabilities
then have closed forms

    p_AB = sin^2(theta1 / 2) / 2
    p_BC = sin^2((theta2 - theta1) / 2) / 2
    p_AC = sin^2(theta2 / 2) / 2

which every code path here cross-checks against the state-vector computation.

Monte Carlo determinism: estimates depend only on (seed, shards).  Each shard
draws from an independent stream seeded with the pair [seed, shard index], so
sharded runs can be reproduced piecewise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lhv import (
    CorrelationReport,
    Ensemble,
    GhzBoxing,
    PARITY_PATTERNS,
    bell_check,
    build_ghz_ensemble,
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
    product_expectation,
    sequential_measure_prob,
    singlet_state,
)


class PhysicsAssertionError(RuntimeError):
    """A quantity the underlying theory pins down came out wrong.

    Distinguishes broken math from broken plumbing: callers map this to its
    own process exit code.
    """


def _pair_axes(theta1: float, theta2: float) -> dict[str, tuple[MeasurementAxis, MeasurementAxis]]:
    """Site-1/site-2 axis assignments for the three coincidence probabilities."""
    n1 = MeasurementAxis(0.0)
    n2 = MeasurementAxis(theta1)
    n3 = MeasurementAxis(theta2)
    return {"AB": (n1, n2), "BC": (n2, n3), "AC": (n1, n3)}


def _closed_form_probs(theta1, theta2):
    """(p_AB, p_BC, p_AC) from the closed forms; angles may be floats or
    arrays of one shape."""
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
        for name in ("p_q_AB", "p_q_BC", "p_q_AC"):
            p = getattr(self, name)
            if not 0.0 <= p <= 0.5 + ATOL:
                raise ValueError(f"{name} out of [0, 1/2]: {p}")
        if self.violated != (self.bell_gap < 0.0):
            raise ValueError("violated flag inconsistent with bell_gap sign")

    @classmethod
    def from_probs(cls, theta1, theta2, p_ab, p_bc, p_ac) -> BellPoint:
        gap = p_ab + p_bc - p_ac
        return cls(theta1, theta2, p_ab, p_bc, p_ac, gap, gap < 0.0)


# One record per grid point, fields named as on BellPoint.
BELL_POINT_DTYPE = np.dtype(
    [(name, np.float64) for name in
     ("theta1", "theta2", "p_q_AB", "p_q_BC", "p_q_AC", "bell_gap")]
    + [("violated", np.bool_)]
)


def _check_bell_columns(points: np.ndarray) -> None:
    """BellPoint's checks, run once on whole columns of points."""
    for name in ("p_q_AB", "p_q_BC", "p_q_AC"):
        p = points[name]
        if not np.all((0.0 <= p) & (p <= 0.5 + ATOL)):
            raise ValueError(f"{name} out of [0, 1/2]: {p.min()} to {p.max()}")
    if not np.array_equal(points["violated"], points["bell_gap"] < 0.0):
        raise ValueError("violated flag inconsistent with bell_gap sign")


def quantum_bell_point(theta1: float, theta2: float) -> BellPoint:
    """Closed-form coincidence probabilities at (theta1, theta2), verified
    against the Born-rule computation on the singlet state."""
    if not (math.isfinite(theta1) and math.isfinite(theta2)):
        raise ValueError("angles must be finite")
    closed = [float(p) for p in _closed_form_probs(theta1, theta2)]
    state = singlet_state()
    pair_axes = _pair_axes(theta1, theta2)
    for label, value in zip(("AB", "BC", "AC"), closed):
        born = joint_outcome_prob(state, pair_axes[label], (1, 1))
        if abs(born - value) > ATOL:
            raise PhysicsAssertionError(
                f"closed form and state-vector probability disagree for {label}: "
                f"{value} vs {born}"
            )
    return BellPoint.from_probs(theta1, theta2, *closed)


@dataclass(frozen=True, eq=False)
class BellSweep:
    """Grid of points, as a record array of BELL_POINT_DTYPE in grid order,
    with the most negative gap singled out."""

    step: float
    points: np.recarray
    minimum: BellPoint

    @property
    def min_gap(self) -> float:
        return self.minimum.bell_gap

    @property
    def argmin(self) -> tuple[float, float]:
        return (self.minimum.theta1, self.minimum.theta2)


# Largest grid quantum_bell_sweep evaluates: a 0.1 degree grid over
# [0, 180] squared (1801 x 1801 = 3,243,601 points) fits, 0.05 degree does not.
MAX_SWEEP_POINTS = 4_000_000
_TOO_FINE = f"grid step too fine: more than {MAX_SWEEP_POINTS:,} points"


def _axis_size(lo: float, hi: float, step: float) -> int:
    """Number of points lo, lo + step, ... that stay within hi.  A last point
    past hi by rounding alone (under 1e-9 of a step) still counts."""
    if hi < lo:
        raise ValueError("range must be ordered low to high")
    steps = (hi - lo) / step
    if steps >= MAX_SWEEP_POINTS:
        raise ValueError(_TOO_FINE)
    return math.floor(steps + 1e-9) + 1


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    return lo + step * np.arange(_axis_size(lo, hi, step))


def _sweep_point_count(
    step: float,
    theta1_range: tuple[float, float] = (0.0, math.pi),
    theta2_range: tuple[float, float] = (0.0, math.pi),
) -> int:
    """Points quantum_bell_sweep would evaluate, found without allocating the
    grid.  Raises ValueError for a bad step or range, or for a grid larger
    than MAX_SWEEP_POINTS."""
    if not (step > 0.0 and math.isfinite(step)):
        raise ValueError("step must be positive and finite")
    count = _axis_size(*theta1_range, step) * _axis_size(*theta2_range, step)
    if count > MAX_SWEEP_POINTS:
        raise ValueError(_TOO_FINE)
    return count


def quantum_bell_sweep(
    step: float,
    theta1_range: tuple[float, float] = (0.0, math.pi),
    theta2_range: tuple[float, float] = (0.0, math.pi),
) -> BellSweep:
    """Evaluate the closed forms on an inclusive grid and report the minimum.

    Each axis runs from its low end in whole steps up to its high end; the
    last point is the last one not past the high end.  Grid order is
    theta1-major, both angles ascending.  Ties on the minimum resolve to the
    first point in that order.
    """
    _sweep_point_count(step, theta1_range, theta2_range)
    t1 = _grid(*theta1_range, step)
    t2 = _grid(*theta2_range, step)
    g1, g2 = np.meshgrid(t1, t2, indexing="ij")
    p_ab, p_bc, p_ac = _closed_form_probs(g1, g2)
    gap = p_ab + p_bc - p_ac
    points = np.rec.fromarrays(
        [a.reshape(-1) for a in (g1, g2, p_ab, p_bc, p_ac, gap, gap < 0.0)],
        dtype=BELL_POINT_DTYPE,
    )
    _check_bell_columns(points)
    # the checks above hold only while the records stay as computed
    points.flags.writeable = False
    minimum = BellPoint(*points[int(np.argmin(points.bell_gap))].tolist())
    return BellSweep(step=step, points=points, minimum=minimum)


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
        return cls(est, samples, math.sqrt(est * (1.0 - est) / samples), seed)


def _shard_sizes(samples: int, shards: int) -> list[int]:
    base, extra = divmod(samples, shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]


def _categorical_hits(
    rng: np.random.Generator, probs: list[float], count: int, want: int
) -> int:
    """Draws from a finite distribution; returns how often index `want` came up.

    Cumulative boundaries use right-side search so zero-probability outcomes
    are never drawn, even when a uniform lands exactly on a boundary.
    """
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    drawn = np.searchsorted(cum, rng.random(count), side="right")
    return int(np.count_nonzero(drawn == want))


def mc_bell_estimate(
    theta1: float,
    theta2: float,
    samples: int,
    seed: int,
    shards: int = 1,
) -> dict[str, McEstimate]:
    """Sampled coincidence probabilities for the three axis pairs.

    Each pair is simulated by drawing joint outcomes from its exact four-point
    Born distribution; the estimate counts the both-positive outcome.  Within
    a shard the pairs are drawn in AB, BC, AC order from one stream.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if shards < 1:
        raise ValueError("shards must be at least 1")
    state = singlet_state()
    pair_axes = _pair_axes(theta1, theta2)
    outcome_patterns = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    pair_probs = {
        label: [joint_outcome_prob(state, axes, pat) for pat in outcome_patterns]
        for label, axes in pair_axes.items()
    }
    hits = {label: 0 for label in pair_axes}
    for shard, size in enumerate(_shard_sizes(samples, shards)):
        if size == 0:
            continue
        rng = np.random.default_rng([seed, shard])
        for label in ("AB", "BC", "AC"):
            hits[label] += _categorical_hits(rng, pair_probs[label], size, want=0)
    return {
        label: McEstimate.from_hits(hits[label], samples, seed) for label in pair_axes
    }


@dataclass(frozen=True)
class GhzSampleReport:
    """Per-pattern sampled parity products over a three-compartment ensemble.

    means follows PARITY_PATTERNS order; constant_on_draws records whether
    every single draw produced the same product value.
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

    Boxes are drawn whole, so one draw feeds all tallied quantities at once;
    the merged result is deterministic given (seed, shards).
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if shards < 1:
        raise ValueError("shards must be at least 1")
    if ens.boxing_type is GhzBoxing:
        return _mc_ghz(ens, samples, seed, shards)
    return _mc_singlet(ens, samples, seed, shards)


def _mc_singlet(ens: Ensemble, samples: int, seed: int, shards: int) -> CorrelationReport:
    pairs = (("dark", "round"), ("round", "swiss"), ("dark", "swiss"))
    indicators = [
        np.array(
            [
                int(b.compartment1.get(p1) == 1 and b.compartment2.get(p2) == 1)
                for b, _ in ens.entries
            ]
        )
        for p1, p2 in pairs
    ]
    hits = [0, 0, 0]
    for shard, size in enumerate(_shard_sizes(samples, shards)):
        if size == 0:
            continue
        idx = sample_indices(ens, np.random.default_rng([seed, shard]), size)
        for k, ind in enumerate(indicators):
            hits[k] += int(ind[idx].sum())
    return CorrelationReport.from_probs(
        hits[0] / samples, hits[1] / samples, hits[2] / samples, "sampled"
    )


def _mc_ghz(ens: Ensemble, samples: int, seed: int, shards: int) -> GhzSampleReport:
    products = [
        np.array([b.pattern_product(pattern) for b, _ in ens.entries])
        for pattern in PARITY_PATTERNS
    ]
    totals = [0] * len(PARITY_PATTERNS)
    lows = [2] * len(PARITY_PATTERNS)
    highs = [-2] * len(PARITY_PATTERNS)
    for shard, size in enumerate(_shard_sizes(samples, shards)):
        if size == 0:
            continue
        idx = sample_indices(ens, np.random.default_rng([seed, shard]), size)
        for k, prod in enumerate(products):
            values = prod[idx]
            totals[k] += int(values.sum())
            lows[k] = min(lows[k], int(values.min()))
            highs[k] = max(highs[k], int(values.max()))
    return GhzSampleReport(
        means=tuple(t / samples for t in totals),
        constant_on_draws=tuple(lo == hi for lo, hi in zip(lows, highs)),
        samples=samples,
        seed=seed,
    )


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
    if not (math.isfinite(theta1) and math.isfinite(theta2)):
        raise ValueError("angles must be finite")
    n1 = MeasurementAxis(0.0)
    n2 = MeasurementAxis(theta1)
    n3 = MeasurementAxis(theta2)
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
    for setting in ("xyy", "yxy", "yyx"):
        axes = pauli_observable(setting).factors
        for signs in (
            (s1, s2, s3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)
        ):
            prob = joint_outcome_prob(state, axes, signs)
            expected = 0.25 if signs[0] * signs[1] * signs[2] == 1 else 0.0
            rows.append(
                OutcomeRow(setting, signs, prob, expected, abs(prob - expected) <= ATOL)
            )
    return ImpossibleOutcomesReport(tuple(rows), all(r.ok for r in rows))


def closed_form_sequential(theta1: float, theta2: float) -> tuple[float, float]:
    """Reference values for order_dependence_report: half the squared sine of
    half the first measured angle times the squared cosine of half the angle
    between the later two."""
    shared = math.cos((theta2 - theta1) / 2.0) ** 2
    return (
        0.5 * math.sin(theta1 / 2.0) ** 2 * shared,
        0.5 * math.sin(theta2 / 2.0) ** 2 * shared,
    )

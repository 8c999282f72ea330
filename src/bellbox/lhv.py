"""Deterministic attribute assignments and exact rational ensembles.

The classical side of the library: items carry three pre-assigned two-valued
properties (dark, round, swiss, each stored as a sign, +1 = has it), boxes
group items under a packing rule, and an ensemble is a rational-weighted
mixture of boxes.  Everything here is exact: weights and probabilities are
fractions.Fraction values, never floats, so statements like "equals 1/4" or
"the inequality holds" are decided by integer arithmetic.

Sign encoding makes three-way parity checks literal products: a triple of
attributes multiplies to +1 or -1 with no case analysis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

PROPERTIES = ("dark", "round", "swiss")

# The three mixed patterns the three-compartment packing rule fixes to +1;
# their product forces the all-dark pattern xxx to +1 as well.
MIXED_PATTERNS = ("xyy", "yxy", "yyx")

PARITY_PATTERNS = (*MIXED_PATTERNS, "xxx")


def _checked_sign(value: int, name: str) -> None:
    # only an int: 1.0 == 1, and bool is an int subclass
    if type(value) is not int or value not in (1, -1):
        raise ValueError(f"{name} must be +1 or -1, got {value!r}")


def _checked_property(prop: str) -> str:
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}, expected one of {PROPERTIES}")
    return prop


@dataclass(frozen=True)
class AttributeTriple:
    """One item's three property signs."""

    dark: int
    round: int
    swiss: int

    def __post_init__(self):
        for name in PROPERTIES:
            _checked_sign(getattr(self, name), name)

    def get(self, prop: str) -> int:
        return getattr(self, _checked_property(prop))

    def negated(self) -> AttributeTriple:
        return AttributeTriple(-self.dark, -self.round, -self.swiss)


@dataclass(frozen=True)
class SingletBoxing:
    """Two-compartment box obeying the packing rule: compartment 2 is the
    attribute-wise opposite of compartment 1."""

    compartment1: AttributeTriple
    compartment2: AttributeTriple

    def __post_init__(self):
        if self.compartment2 != self.compartment1.negated():
            raise ValueError(
                "compartment 2 must be the attribute-wise opposite of compartment 1"
            )

    @classmethod
    def from_first(cls, triple: AttributeTriple) -> SingletBoxing:
        return cls(triple, triple.negated())


def _pattern_product(dark, round_, pattern: str) -> int:
    """Product of one sign per compartment: dark for pattern letter x, round for y."""
    out = 1
    for d, r, letter in zip(dark, round_, pattern):
        out *= d if letter == "x" else r
    return out


def _obeys_parity_rule(d: tuple[int, int, int], r: tuple[int, int, int]) -> bool:
    """The three-compartment packing rule on dark signs d and round signs r:
    every mixed parity product dark_i * round_j * round_k (i, j, k distinct)
    is +1."""
    return all(_pattern_product(d, r, pattern) == 1 for pattern in MIXED_PATTERNS)


@dataclass(frozen=True)
class GhzBoxing:
    """Three-compartment box; per-compartment dark and round signs, one shared
    swiss sign, constrained so that every mixed parity product
    dark_i * round_j * round_k (i, j, k distinct) equals +1."""

    dark: tuple[int, int, int]
    round: tuple[int, int, int]
    swiss: int

    def __post_init__(self):
        for name in ("dark", "round"):
            signs = getattr(self, name)
            if not (isinstance(signs, tuple) and len(signs) == 3):
                raise ValueError(f"{name} must be a tuple of 3 signs")
            for i, s in enumerate(signs):
                _checked_sign(s, f"{name}[{i}]")
        _checked_sign(self.swiss, "swiss")
        if not _obeys_parity_rule(self.dark, self.round):
            raise ValueError("attribute signs violate the parity packing rule")

    def pattern_product(self, pattern: str) -> int:
        """Product of one attribute sign per compartment, chosen by letter:
        x = dark, y = round.  E.g. "xyy" multiplies dark(1), round(2), round(3)."""
        if len(pattern) != 3 or any(ch not in "xy" for ch in pattern):
            raise ValueError(f"pattern must be 3 letters from x/y, got {pattern!r}")
        return _pattern_product(self.dark, self.round, pattern)


@dataclass(frozen=True)
class Ensemble:
    """Mixture of boxings with positive exact-rational weights summing to 1.

    All boxings in one ensemble must be of the same kind; floats are rejected
    outright so exactness cannot erode silently.
    """

    entries: tuple[tuple[object, Fraction], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("ensemble needs at least one entry")
        normalized = []
        kind = type(self.entries[0][0])
        for boxing, weight in self.entries:
            if type(boxing) is not kind:
                raise ValueError("all boxings in an ensemble must have the same type")
            if isinstance(weight, float):
                raise ValueError("weights must be exact rationals, not floats")
            weight = Fraction(weight)
            if weight <= 0:
                raise ValueError(f"weights must be positive, got {weight}")
            normalized.append((boxing, weight))
        if sum(w for _, w in normalized) != 1:
            raise ValueError("weights must sum to exactly 1")
        object.__setattr__(self, "entries", tuple(normalized))

    @classmethod
    def from_counts(cls, pairs: Iterable[tuple[object, int]]) -> Ensemble:
        pairs = [(b, int(c)) for b, c in pairs]
        total = sum(c for _, c in pairs)
        return cls(tuple((b, Fraction(c, total)) for b, c in pairs if c > 0))

    @property
    def boxing_type(self) -> type:
        return type(self.entries[0][0])


def build_singlet_ensemble() -> Ensemble:
    """Uniform mixture of the eight rule-respecting two-compartment boxings,
    compartment 1 ranging over all attribute triples."""
    w = Fraction(1, 8)
    triples = (AttributeTriple(*signs) for signs in itertools.product((1, -1), repeat=3))
    return Ensemble(tuple((SingletBoxing.from_first(t), w) for t in triples))


# The eight designed three-compartment boxings, as (dark signs, round signs)
# per compartment.  Each row satisfies the parity packing rule; the swiss sign
# is shared per box, positive for the first four rows and negative for the rest.
_GHZ_ROWS = (
    ((-1, -1, 1), (1, 1, -1)),
    ((-1, -1, 1), (-1, -1, 1)),
    ((-1, 1, -1), (1, -1, 1)),
    ((-1, 1, -1), (-1, 1, -1)),
    ((1, -1, -1), (-1, 1, 1)),
    ((1, -1, -1), (1, -1, -1)),
    ((1, 1, 1), (1, 1, 1)),
    ((1, 1, 1), (-1, -1, -1)),
)


def build_ghz_ensemble() -> Ensemble:
    """Uniform mixture of the eight designed three-compartment boxings."""
    w = Fraction(1, 8)
    entries = []
    for i, (dark, rnd) in enumerate(_GHZ_ROWS):
        swiss = 1 if i < 4 else -1
        entries.append((GhzBoxing(dark, rnd, swiss), w))
    return Ensemble(tuple(entries))


# The three coincidences the inequality compares, p_AB, p_BC and p_AC, as
# (compartment-1 property, compartment-2 property).
COINCIDENCE_PAIRS = (("dark", "round"), ("round", "swiss"), ("dark", "swiss"))


def _gap_and_flag(p_ab, p_bc, p_ac):
    """bell_gap = p_AB + p_BC - p_AC and violated = bell_gap < 0: Fractions, floats or arrays."""
    gap = p_ab + p_bc - p_ac
    return gap, gap < 0


def coincides(boxing, prop1: str, prop2: str) -> bool:
    """True when compartment 1 of a two-compartment boxing has prop1 and
    compartment 2 has prop2."""
    return boxing.compartment1.get(prop1) == 1 and boxing.compartment2.get(prop2) == 1


def correlation_prob(ens: Ensemble, prop1: str, prop2: str) -> Fraction:
    """Probability that compartment 1 has prop1 and compartment 2 has prop2."""
    _checked_property(prop1)
    _checked_property(prop2)
    return sum((w for b, w in ens.entries if coincides(b, prop1, prop2)), Fraction(0))


@dataclass(frozen=True)
class CorrelationReport:
    """The three pairwise coincidence probabilities and the inequality verdict.

    satisfied means p_AB + p_BC >= p_AC, the constraint every rule-respecting
    mixture obeys.  Values are exact rationals when source is "exact" and
    floats when source is "sampled".
    """

    p_AB: Fraction | float
    p_BC: Fraction | float
    p_AC: Fraction | float
    bell_lhs: Fraction | float
    satisfied: bool
    source: str

    def __post_init__(self):
        if self.source not in ("exact", "sampled"):
            raise ValueError(f"source must be exact or sampled, got {self.source!r}")
        for name in ("p_AB", "p_BC", "p_AC"):
            p = getattr(self, name)
            if not 0 <= p <= 1:
                raise ValueError(f"{name} out of [0, 1]: {p}")

    @classmethod
    def from_probs(cls, p_ab, p_bc, p_ac, source: str) -> CorrelationReport:
        violated = _gap_and_flag(p_ab, p_bc, p_ac)[1]
        return cls(p_ab, p_bc, p_ac, p_ab + p_bc, not violated, source)


def bell_check(ens: Ensemble) -> CorrelationReport:
    """Exact pairwise coincidence probabilities (dark-round, round-swiss,
    dark-swiss) and whether the first two sum to at least the third."""
    return CorrelationReport.from_probs(
        *(correlation_prob(ens, p1, p2) for p1, p2 in COINCIDENCE_PAIRS), "exact"
    )


@dataclass(frozen=True)
class ParityReport:
    """Weighted distribution of one parity product over an ensemble; constant
    holds the common value when the product is the same for every boxing."""

    pattern: str
    constant: int | None
    distribution: tuple[tuple[int, Fraction], ...]


def parity_product(ens: Ensemble, pattern: str) -> ParityReport:
    """Distribution of a three-letter parity product over a GHZ-type ensemble."""
    weights = {1: Fraction(0), -1: Fraction(0)}
    for boxing, weight in ens.entries:
        weights[boxing.pattern_product(pattern)] += weight
    distribution = tuple((v, w) for v, w in weights.items() if w > 0)
    constant = distribution[0][0] if len(distribution) == 1 else None
    return ParityReport(pattern, constant, distribution)


@dataclass(frozen=True)
class SingletVertex:
    """One deterministic boxing with its 0/1 coincidence indicators."""

    triple: AttributeTriple
    i_AB: int
    i_BC: int
    i_AC: int

    @property
    def gap(self) -> int:
        return _gap_and_flag(self.i_AB, self.i_BC, self.i_AC)[0]


@dataclass(frozen=True)
class SingletEnumeration:
    """Exhaustive inequality certificate over the eight deterministic boxings."""

    vertices: tuple[SingletVertex, ...]
    min_gap: int
    tight_vertices: tuple[AttributeTriple, ...]
    all_satisfied: bool
    uniform_report: CorrelationReport


def enumerate_singlet_lhv() -> SingletEnumeration:
    """Certify the inequality on every deterministic two-compartment boxing.

    Each vertex contributes 0/1 indicators for the three coincidences; any
    mixture's probabilities are weighted averages of these, so a nonnegative
    gap on all eight vertices settles the general case by linearity.
    """
    vertices = []
    for signs in itertools.product((1, -1), repeat=3):
        t = AttributeTriple(*signs)
        box = SingletBoxing.from_first(t)
        indicators = (int(coincides(box, p1, p2)) for p1, p2 in COINCIDENCE_PAIRS)
        vertices.append(SingletVertex(t, *indicators))
    verdicts = [_gap_and_flag(v.i_AB, v.i_BC, v.i_AC) for v in vertices]
    min_gap = min(gap for gap, _ in verdicts)
    return SingletEnumeration(
        vertices=tuple(vertices),
        min_gap=min_gap,
        tight_vertices=tuple(v.triple for v in vertices if v.gap == min_gap),
        all_satisfied=not any(violated for _, violated in verdicts),
        uniform_report=bell_check(build_singlet_ensemble()),
    )


@dataclass(frozen=True)
class GhzAssignment:
    """One of the 64 candidate sign assignments, kept if it passes the rule."""

    dark: tuple[int, int, int]
    round: tuple[int, int, int]

    @property
    def xxx_product(self) -> int:
        return _pattern_product(self.dark, self.round, "xxx")


@dataclass(frozen=True)
class GhzEnumeration:
    """Brute-force certificate for the three-compartment parity rule."""

    total_assignments: int
    survivors: tuple[GhzAssignment, ...]
    all_xxx_positive: bool
    matches_designed_ensemble: bool


def enumerate_ghz_lhv() -> GhzEnumeration:
    """Filter all 64 (dark, round) sign assignments through the three mixed
    parity constraints and certify what remains: exactly eight survivors, every
    one with positive all-dark product, and the survivor set identical to the
    designed ensemble's boxings."""
    survivors = []
    total = 0
    for signs in itertools.product((1, -1), repeat=6):
        total += 1
        d, r = signs[:3], signs[3:]
        if _obeys_parity_rule(d, r):
            survivors.append(GhzAssignment(d, r))
    designed = {(b.dark, b.round) for b, _ in build_ghz_ensemble().entries}
    survivor_set = {(a.dark, a.round) for a in survivors}
    return GhzEnumeration(
        total_assignments=total,
        survivors=tuple(survivors),
        all_xxx_positive=all(a.xxx_product == 1 for a in survivors),
        matches_designed_ensemble=survivor_set == designed,
    )


def _tallies(probs, rng: np.random.Generator, count: int) -> np.ndarray:
    """Per-outcome tallies of `count` independent draws from the finite
    distribution `probs`, one uniform a draw.  Cumulative boundaries use
    right-side search, so an outcome of probability zero is never drawn, even
    when a uniform lands exactly on a boundary."""
    cum = np.cumsum(probs)
    cum[-1] = 1.0  # absorb float rounding so every draw lands on an outcome
    drawn = np.searchsorted(cum, rng.random(count), side="right")
    return np.bincount(drawn, minlength=len(probs))


def sample_indices(ens: Ensemble, rng: np.random.Generator, count: int) -> np.ndarray:
    """Per-entry tallies of `count` independent, weight-proportional draws,
    deterministic given the generator state.  The name is kept for the
    benchmark's traced metric lhv.sample_indices.draws, which reads `count`."""
    if count < 1:
        raise ValueError("count must be at least 1")
    return _tallies([float(w) for _, w in ens.entries], rng, count)

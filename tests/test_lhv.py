"""Exact-arithmetic checks for the classical boxed-attribute side.

Every probability here is a Fraction; equality assertions are exact, with no
floating-point tolerance anywhere except the sampling-frequency test."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles

from bellbox.lhv import (
    AttributeTriple,
    CorrelationReport,
    Ensemble,
    GhzBoxing,
    PARITY_PATTERNS,
    PROPERTIES,
    SingletBoxing,
    bell_check,
    build_ghz_ensemble,
    build_singlet_ensemble,
    correlation_prob,
    enumerate_ghz_lhv,
    enumerate_singlet_lhv,
    parity_product,
    sample_indices,
    _exact_sum,
)

ALL_TRIPLES = [
    AttributeTriple(d, r, s) for d in (1, -1) for r in (1, -1) for s in (1, -1)
]


class TestTypes:
    def test_attribute_triple_signs_enforced(self):
        with pytest.raises(ValueError):
            AttributeTriple(1, 0, 1)
        with pytest.raises(ValueError):
            AttributeTriple(True, 1, 1)

    @pytest.mark.parametrize("make", [
        lambda: AttributeTriple(1.0, 1, 1),
        lambda: AttributeTriple(1, 1, -1.0),
        lambda: GhzBoxing((1.0, 1, 1), (1, 1, 1), 1),
        lambda: GhzBoxing((1, 1, 1), (1, 1, 1), 1.0),
    ], ids=["triple-dark", "triple-swiss", "ghz-dark", "ghz-swiss"])
    def test_float_sign_rejected(self, make):
        # 1.0 == 1, so only the type tells a float sign from an int one
        with pytest.raises(ValueError, match=r"must be \+1 or -1"):
            make()

    def test_negated(self):
        t = AttributeTriple(1, -1, 1)
        assert t.negated() == AttributeTriple(-1, 1, -1)
        assert t.negated().negated() == t

    def test_get_rejects_unknown_property(self):
        with pytest.raises(ValueError):
            AttributeTriple(1, 1, 1).get("shiny")

    def test_singlet_boxing_rule_enforced(self):
        for t in ALL_TRIPLES:
            box = SingletBoxing(t)
            assert box.compartment2 == t.negated()
            assert box == SingletBoxing(t) and hash(box) == hash(SingletBoxing(t))
        # compartment 2 is derived, never given
        t = AttributeTriple(1, 1, -1)
        with pytest.raises(TypeError):
            SingletBoxing(t, t)

    def test_ghz_boxing_rule_enforced(self):
        GhzBoxing((1, 1, 1), (1, 1, 1), 1)
        with pytest.raises(ValueError):
            GhzBoxing((-1, 1, 1), (1, 1, 1), 1)

    def test_ghz_pattern_product(self):
        box = GhzBoxing((-1, -1, 1), (1, 1, -1), 1)
        assert box.pattern_product("xyy") == 1
        assert box.pattern_product("xxx") == 1
        assert box.pattern_product("yyy") == -1
        with pytest.raises(ValueError):
            box.pattern_product("xz")
        # a pattern is a str: a sequence of the same letters is refused
        for pattern in (["x", "y", "y"], ("x", "y", "y"), None):
            with pytest.raises(ValueError, match="pattern must be 3 letters"):
                box.pattern_product(pattern)

    def test_ensemble_validation(self):
        t = AttributeTriple(1, 1, 1)
        box = SingletBoxing(t)
        with pytest.raises(ValueError):
            Ensemble(())
        with pytest.raises(ValueError):
            Ensemble(((box, 0.5), (box, 0.5)))  # floats rejected
        with pytest.raises(ValueError):
            Ensemble(((box, Fraction(1, 2)),))  # does not sum to 1
        with pytest.raises(ValueError):
            Ensemble(((box, Fraction(3, 2)), (box, Fraction(-1, 2))))
        with pytest.raises(ValueError):
            Ensemble(
                (
                    (box, Fraction(1, 2)),
                    (GhzBoxing((1, 1, 1), (1, 1, 1), 1), Fraction(1, 2)),
                )
            )

    def test_from_counts_drops_zero_rows_and_normalizes(self):
        t0, t1 = ALL_TRIPLES[0], ALL_TRIPLES[1]
        ens = oracles.ensemble_from_counts(
            [
                (SingletBoxing(t0), 3),
                (SingletBoxing(t1), 1),
                (SingletBoxing(ALL_TRIPLES[2]), 0),
            ]
        )
        assert len(ens.entries) == 2
        assert ens.entries[0][1] == Fraction(3, 4)


class TestDesignedEnsembles:
    def test_singlet_ensemble_shape(self):
        ens = build_singlet_ensemble()
        assert len(ens.entries) == 8
        assert all(w == Fraction(1, 8) for _, w in ens.entries)
        firsts = {b.compartment1 for b, _ in ens.entries}
        assert firsts == set(ALL_TRIPLES)

    def test_singlet_marginals_are_half(self):
        ens = build_singlet_ensemble()
        for prop in PROPERTIES:
            for compartment in ("compartment1", "compartment2"):
                mass = sum(
                    w
                    for b, w in ens.entries
                    if getattr(b, compartment).get(prop) == 1
                )
                assert mass == Fraction(1, 2)

    def test_ghz_ensemble_shape(self):
        ens = build_ghz_ensemble()
        assert len(ens.entries) == 8
        assert all(w == Fraction(1, 8) for _, w in ens.entries)
        assert len({(b.dark, b.round) for b, _ in ens.entries}) == 8
        swiss = [b.swiss for b, _ in ens.entries]
        assert swiss.count(1) == 4 and swiss.count(-1) == 4

    @pytest.mark.parametrize("build", [build_singlet_ensemble, build_ghz_ensemble],
                             ids=["singlet", "ghz"])
    def test_one_frozen_object(self, build):
        ens = build()
        assert ens is build()
        assert isinstance(ens.entries, tuple) and all(type(e) is tuple for e in ens.entries)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ens.entries = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            ens.entries[0][0].swiss = 1

    def test_ghz_marginals_are_half(self):
        ens = build_ghz_ensemble()
        for attr in ("dark", "round"):
            for site in range(3):
                mass = sum(w for b, w in ens.entries if getattr(b, attr)[site] == 1)
                assert mass == Fraction(1, 2)


class TestCorrelations:
    def test_known_pair_probabilities(self):
        ens = build_singlet_ensemble()
        assert correlation_prob(ens, "dark", "round") == Fraction(1, 4)
        assert correlation_prob(ens, "dark", "dark") == 0
        assert correlation_prob(ens, "swiss", "round") == Fraction(1, 4)


class TestBellCheck:
    def test_designed_ensemble(self):
        report = bell_check(build_singlet_ensemble())
        assert (report.p_AB, report.p_BC, report.p_AC) == (
            Fraction(1, 4),
            Fraction(1, 4),
            Fraction(1, 4),
        )
        assert report.bell_lhs == Fraction(1, 2)
        assert report.satisfied
        assert all(type(p) is Fraction for p in (report.p_AB, report.p_BC, report.p_AC))

    def test_every_point_mass_satisfies(self):
        for t in ALL_TRIPLES:
            ens = Ensemble(((SingletBoxing(t), Fraction(1)),))
            assert bell_check(ens).satisfied

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 10**12), min_size=8, max_size=8).filter(any))
    def test_random_mixtures_satisfy_exactly(self, counts):
        # integer counts over the 8 boxings give every rational mixture of
        # them, point masses and mixtures of a few boxings included
        boxings = [SingletBoxing(t) for t in ALL_TRIPLES]
        report = bell_check(oracles.ensemble_from_counts(zip(boxings, counts)))
        assert report.satisfied
        assert report.bell_lhs >= report.p_AC

    def test_report_validation(self):
        with pytest.raises(ValueError):
            CorrelationReport.from_probs(Fraction(3, 2), Fraction(0), Fraction(0))


class TestParityProduct:
    def test_designed_ensemble_constants(self):
        ens = build_ghz_ensemble()
        for pattern in PARITY_PATTERNS:
            report = parity_product(ens, pattern)
            assert report.constant == 1
            assert report.distribution == ((1, Fraction(1)),)

    def test_point_mass_all_positive(self):
        ens = Ensemble(((GhzBoxing((1, 1, 1), (1, 1, 1), 1), Fraction(1)),))
        for pattern in PARITY_PATTERNS:
            assert parity_product(ens, pattern).constant == 1

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 10**12), min_size=16, max_size=16).filter(any))
    def test_random_mixtures_are_all_positive(self, counts):
        # integer counts over the 16 rule-respecting boxes, each enumeration
        # survivor with either swiss sign, give every rational mixture of them
        boxes = [GhzBoxing(a.dark, a.round, swiss)
                 for a in enumerate_ghz_lhv().survivors for swiss in (1, -1)]
        assert len(set(boxes)) == 16
        ens = oracles.ensemble_from_counts(zip(boxes, counts))
        for pattern in PARITY_PATTERNS:
            report = parity_product(ens, pattern)
            assert report.constant == 1
            assert report.distribution == ((1, Fraction(1)),)

    def test_mixture_with_both_values_has_no_constant(self):
        # yyy is unconstrained, so it can vary across the designed rows
        report = parity_product(build_ghz_ensemble(), "yyy")
        assert report.constant is None
        assert sum(w for _, w in report.distribution) == 1


class TestExactSum:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.builds(Fraction, st.integers(-2**80, 2**80), st.integers(1, 2**70))
                    | st.fractions(max_denominator=10**6), max_size=12))
    @example([])
    @example([Fraction(1, 8)])
    @example([Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)])
    @example([Fraction(2**64 + 1, 3), Fraction(2**65, 7), Fraction(-(2**70), 2**64 + 13)])
    def test_equals_the_fraction_sum(self, weights):
        total = _exact_sum(weights)
        assert type(total) is Fraction
        assert total == sum(weights, Fraction(0))


class TestEnsembleKind:
    # each function reads boxes of one kind and names it for the other
    def test_parity_product_needs_three_compartments(self):
        with pytest.raises(ValueError, match="GhzBoxing"):
            parity_product(build_singlet_ensemble(), "xyy")

    def test_correlation_prob_needs_two_compartments(self):
        with pytest.raises(ValueError, match="SingletBoxing"):
            correlation_prob(build_ghz_ensemble(), "dark", "round")

    def test_bell_check_needs_two_compartments(self):
        with pytest.raises(ValueError, match="SingletBoxing"):
            bell_check(build_ghz_ensemble())


class TestEnumeration:
    def test_singlet_certificate(self):
        cert = enumerate_singlet_lhv()
        assert len(cert.vertices) == 8
        assert cert.min_gap == 0
        assert cert.all_satisfied
        assert len(cert.tight_vertices) > 0
        assert cert.uniform_report.p_AB == Fraction(1, 4)

    def test_singlet_vertices_match_point_mass_probabilities(self):
        for vertex in enumerate_singlet_lhv().vertices:
            ens = Ensemble(((SingletBoxing(vertex.triple), Fraction(1)),))
            report = bell_check(ens)
            assert report.p_AB == vertex.i_AB
            assert report.p_BC == vertex.i_BC
            assert report.p_AC == vertex.i_AC

    def test_singlet_vertices_are_the_designed_boxings_in_order(self):
        # lhv-enumerate singlet prints the vertices in this order
        designed = [b.compartment1 for b, _ in build_singlet_ensemble().entries]
        assert [v.triple for v in enumerate_singlet_lhv().vertices] == designed

    def test_ghz_certificate(self):
        cert = enumerate_ghz_lhv()
        assert cert.total_assignments == 64
        assert len(cert.survivors) == 8
        assert cert.all_xxx_positive
        assert cert.matches_designed_ensemble
        assert len({(a.dark, a.round) for a in cert.survivors}) == 8

    def test_ghz_survivors_satisfy_constraints(self):
        for a in enumerate_ghz_lhv().survivors:
            d, r = a.dark, a.round
            assert d[0] * r[1] * r[2] == 1
            assert r[0] * d[1] * r[2] == 1
            assert r[0] * r[1] * d[2] == 1


# Random mixtures of one kind's eight boxings: integer weights, some zero.
MIXTURES = st.tuples(
    st.sampled_from([build_singlet_ensemble, build_ghz_ensemble]),
    st.lists(st.integers(0, 10**6), min_size=8, max_size=8).filter(any),
).map(lambda spec: oracles.ensemble_from_counts(
    zip((b for b, _ in spec[0]().entries), spec[1])))


class TestSampling:
    @pytest.mark.parametrize("build", [build_singlet_ensemble, build_ghz_ensemble],
                             ids=["singlet", "ghz"])
    def test_frequencies_near_uniform(self, build):
        ens = build()
        rng = np.random.default_rng(42)
        n = 100_000
        tallies = sample_indices(ens, rng, n)
        sigma = math.sqrt(n * (1 / 8) * (7 / 8))
        assert tallies.shape == (8,)
        assert np.all(np.abs(tallies - n / 8) < 4 * sigma)
        if ens.boxing_type is GhzBoxing:
            # every PARITY_PATTERNS product is +1 on every box, so only a
            # pattern that varies across boxes shows the draws: yyy is +1 on
            # half the boxes and -1 on the rest, mean 0 and sigma 1/sqrt(n)
            yyy = [b.pattern_product("yyy") for b, _ in ens.entries]
            assert parity_product(ens, "yyy").distribution == ((1, Fraction(1, 2)),
                                                               (-1, Fraction(1, 2)))
            assert abs(np.dot(yyy, tallies) / n) < 4 / math.sqrt(n)

    def test_determinism(self):
        ens = build_ghz_ensemble()
        a = sample_indices(ens, np.random.default_rng(123), 1000)
        b = sample_indices(ens, np.random.default_rng(123), 1000)
        assert np.array_equal(a, b)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_indices(build_singlet_ensemble(), np.random.default_rng(0), 0)

    @settings(max_examples=200, deadline=None)
    @given(MIXTURES, st.integers(1, 10**4), st.integers(min_value=0))
    def test_tallies_count_every_draw(self, ens, count, seed):
        tallies = sample_indices(ens, np.random.default_rng(seed), count)
        assert tallies.dtype.kind == "i"
        assert tallies.shape == (len(ens.entries),)
        assert np.all(tallies >= 0)
        assert tallies.sum() == count

    @settings(max_examples=200, deadline=None)
    @given(MIXTURES, st.integers(1, 5000), st.integers(min_value=0))
    def test_tallies_match_the_per_draw_oracle(self, ens, count, seed):
        probs = [float(w) for _, w in ens.entries]
        drawn = oracles.draw_indices(probs, np.random.default_rng(seed), count)
        assert np.array_equal(sample_indices(ens, np.random.default_rng(seed), count),
                              np.bincount(drawn, minlength=len(probs)))

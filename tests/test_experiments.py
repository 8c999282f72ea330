"""Checks for the contrast experiments: the violating point and sweep, the
seeded Monte Carlo estimators, order dependence, and the parity contradiction.

Closed-form reference values are recomputed here from scratch with math.sin
so the module under test cannot vouch for itself."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bellbox import experiments
from bellbox.experiments import (
    BELL_POINT_DTYPE,
    MAX_SAMPLES,
    MAX_SWEEP_POINTS,
    BellPoint,
    GhzSampleReport,
    McEstimate,
    PhysicsAssertionError,
    ghz_contradiction_report,
    impossible_outcomes_check,
    mc_bell_estimate,
    mc_classical_estimate,
    order_dependence_report,
    quantum_bell_point,
    quantum_bell_sweep,
    _axis_count,
)
from bellbox.lhv import (
    AttributeTriple,
    CorrelationReport,
    Ensemble,
    SingletBoxing,
    build_ghz_ensemble,
    build_singlet_ensemble,
    enumerate_singlet_lhv,
)
from bellbox.quantum import ATOL, MeasurementAxis, joint_outcome_prob, singlet_state
from fractions import Fraction

from oracles import bell_sweep_records, closed_form_sequential, mc_bell_tallies, sweep_records

REF_T1 = math.pi / 3.0
REF_T2 = 2.0 * math.pi / 3.0


def reference_probs(t1, t2):
    return (
        0.5 * math.sin(t1 / 2.0) ** 2,
        0.5 * math.sin((t2 - t1) / 2.0) ** 2,
        0.5 * math.sin(t2 / 2.0) ** 2,
    )


class TestBellPoint:
    def test_reference_angles(self):
        point = quantum_bell_point(REF_T1, REF_T2)
        assert point.p_q_AB == pytest.approx(0.125, abs=1e-12)
        assert point.p_q_BC == pytest.approx(0.125, abs=1e-12)
        assert point.p_q_AC == pytest.approx(0.375, abs=1e-12)
        assert point.bell_gap == pytest.approx(-0.125, abs=1e-12)
        assert point.violated

    def test_zero_angles(self):
        point = quantum_bell_point(0.0, 0.0)
        assert (point.p_q_AB, point.p_q_BC, point.p_q_AC) == (0.0, 0.0, 0.0)
        assert not point.violated

    def test_boundary_gap_is_numerically_zero(self):
        # equality case of the inequality: the flag may go either way on
        # rounding noise, so only the magnitude is pinned
        point = quantum_bell_point(math.pi / 2.0, math.pi)
        assert point.p_q_AB == pytest.approx(0.25, abs=1e-12)
        assert point.p_q_BC == pytest.approx(0.25, abs=1e-12)
        assert point.p_q_AC == pytest.approx(0.5, abs=1e-12)
        assert abs(point.bell_gap) <= 1e-12

    def test_equal_angles_gap_is_exactly_zero(self):
        for t in (0.3, 1.0, 2.5):
            assert quantum_bell_point(t, t).bell_gap == 0.0

    def test_matches_reference_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            t1, t2 = rng.uniform(0.0, math.pi, size=2)
            point = quantum_bell_point(t1, t2)
            ref = reference_probs(t1, t2)
            assert point.p_q_AB == pytest.approx(ref[0], abs=1e-12)
            assert point.p_q_BC == pytest.approx(ref[1], abs=1e-12)
            assert point.p_q_AC == pytest.approx(ref[2], abs=1e-12)

    def test_nonfinite_angle_rejected(self):
        with pytest.raises(ValueError):
            quantum_bell_point(math.nan, 0.0)

    def test_large_angle_is_not_a_physics_failure(self):
        # the float 2 pi is not a whole turn: a remainder by it moved the
        # axis of 1e6 rad away from the closed form's angle
        point = quantum_bell_point(1e6, 2.0)
        assert point.p_q_AB == pytest.approx(0.5 * math.sin(5e5) ** 2, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_closed_form_matches_born_at_any_finite_angles(self, theta1, theta2):
        point = quantum_bell_point(theta1, theta2)
        state = singlet_state()
        n1, n2, n3 = (MeasurementAxis(t) for t in (0.0, theta1, theta2))
        for p, axes in ((point.p_q_AB, (n1, n2)), (point.p_q_BC, (n2, n3)),
                        (point.p_q_AC, (n1, n3))):
            assert 0.0 <= p <= 0.5
            assert abs(joint_outcome_prob(state, axes, (1, 1)) - p) <= ATOL

    def test_validation(self):
        with pytest.raises(ValueError):
            BellPoint(0.0, 0.0, 0.7, 0.0, 0.0, 0.7, False)
        with pytest.raises(ValueError):
            BellPoint(0.0, 0.0, 0.1, 0.1, 0.1, 0.1, True)


class TestVerdicts:
    """CorrelationReport.satisfied and BellPoint.violated read one inequality,
    p_AB + p_BC >= p_AC; gap exactly 0 satisfies it."""

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 0.5), st.floats(0.0, 0.5), st.floats(0.0, 0.5))
    @example(0.25, 0.25, 0.5)
    @example(0.0, 0.0, 0.0)
    @example(0.5, 0.0, 0.5)
    @example(0.0, 0.5, 0.5)
    def test_float_verdicts_agree(self, a, b, c):
        report = CorrelationReport.from_probs(a, b, c, "sampled")
        assert report.satisfied == (not BellPoint.from_probs(0.0, 0.0, a, b, c).violated)

    @settings(max_examples=300, deadline=None)
    @given(st.fractions(0, 1), st.fractions(0, 1), st.fractions(0, 1))
    @example(Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    def test_exact_verdict_is_the_inequality(self, a, b, c):
        assert CorrelationReport.from_probs(a, b, c, "exact").satisfied == (a + b - c >= 0)

    def test_tight_vertices_satisfy_both_verdicts(self):
        tight = [v for v in enumerate_singlet_lhv().vertices if v.gap == 0]
        assert tight
        for v in tight:
            indicators = (v.i_AB, v.i_BC, v.i_AC)
            assert CorrelationReport.from_probs(*map(Fraction, indicators), "exact").satisfied
            assert not BellPoint.from_probs(0.0, 0.0, *(i / 2 for i in indicators)).violated


class TestBellSweep:
    def test_one_degree_sweep_finds_the_minimum(self):
        sweep = quantum_bell_sweep(math.radians(1.0))
        assert len(sweep.points) == 181 * 181
        assert sweep.minimum.bell_gap == pytest.approx(-0.125, abs=1e-9)
        assert sweep.minimum.theta1 == pytest.approx(REF_T1, abs=1e-9)
        assert sweep.minimum.theta2 == pytest.approx(REF_T2, abs=1e-9)

    def test_grid_order_and_pointwise_agreement(self):
        sweep = quantum_bell_sweep(math.radians(5.0))
        size = 37
        assert sweep.theta2 is sweep.theta1
        assert len(sweep.points) == size * size
        records = sweep_records(sweep)
        rng = np.random.default_rng(13)
        for flat in rng.integers(0, size * size, size=60):
            point = records[int(flat)]
            i, j = divmod(int(flat), size)
            assert point.theta1 == pytest.approx(math.radians(5.0 * i), abs=1e-12)
            assert point.theta2 == pytest.approx(math.radians(5.0 * j), abs=1e-12)
            direct = quantum_bell_point(point.theta1, point.theta2)
            assert point.bell_gap == pytest.approx(direct.bell_gap, abs=1e-12)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            quantum_bell_sweep(0.0)
        with pytest.raises(ValueError):
            quantum_bell_sweep(-0.1)
        for step in (math.nan, math.inf):
            with pytest.raises(ValueError):
                quantum_bell_sweep(step)

    def test_points_are_columns(self):
        sweep = quantum_bell_sweep(math.radians(5.0))
        # 17 bytes a point: the fields that read both angles
        assert sweep.points.dtype.names == ("p_q_BC", "bell_gap", "violated")
        assert sweep.points.itemsize == 17
        points = sweep_records(sweep)
        assert points.dtype == BELL_POINT_DTYPE
        ref = np.vectorize(reference_probs)(points.theta1, points.theta2)
        for column, expected in zip((points.p_q_AB, points.p_q_BC, points.p_q_AC), ref):
            np.testing.assert_allclose(column, expected, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(points.bell_gap, points.p_q_AB + points.p_q_BC - points.p_q_AC)
        np.testing.assert_array_equal(points.violated, points.bell_gap < 0.0)
        assert isinstance(sweep.minimum, BellPoint)
        assert sweep.minimum == BellPoint(*points[int(np.argmin(points.bell_gap))].tolist())

    def test_points_are_read_only(self):
        sweep = quantum_bell_sweep(math.radians(30.0))
        with pytest.raises(ValueError, match="read-only"):
            sweep.points.bell_gap[0] = -1.0
        for name in ("theta1", "theta2", "p_q_AB", "p_q_AC", "points"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(sweep, name)[0] = 0.0

    def test_column_checks_run(self, monkeypatch):
        # only the grid's last theta1 row (180 degrees) goes out of range,
        # away from the minimum, which BellPoint checks on its own.  Blocks
        # of two 7-point rows leave that row alone in the last block.
        def out_of_range(t1, t2):
            p_ab, p_bc, p_ac = np.vectorize(reference_probs)(t1, t2)
            return np.where(t1 > math.radians(170.0), p_ab + 0.6, p_ab), p_bc, p_ac

        monkeypatch.setattr(experiments, "_BLOCK_ROWS", 14)
        monkeypatch.setattr(experiments, "_closed_form_probs", out_of_range)
        # the message gives the range of the failing block: the last row's
        grid = math.radians(30.0) * np.arange(7)
        p_ab = np.vectorize(reference_probs)(grid[-1], grid)[0] + 0.6
        message = f"p_q_AB out of [0, 1/2]: {np.min(p_ab)} to {np.max(p_ab)}"
        with pytest.raises(PhysicsAssertionError, match=f"^{re.escape(message)}$"):
            quantum_bell_sweep(math.radians(30.0))

    @settings(max_examples=200, deadline=None)
    # steps that give 1 to 31 points an axis
    @given(st.floats(min_value=math.pi / 30.5, max_value=4.0), st.integers(1, 100))
    # a 1x1 grid, one-row blocks of 21 points, and blocks of 2 rows of 13
    # whose last holds 1
    @example(4.0, 7)
    @example(math.pi / 20, 7)
    @example(math.pi / 12, 30)
    def test_records_match_the_whole_grid_oracle(self, step, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "_BLOCK_ROWS", block)
            sweep = quantum_bell_sweep(step)
        # each one-angle field is held once per axis value, so the whole-grid
        # oracle's must not vary, bit for bit, along the other axis
        assert len(sweep.points) == sweep.shape[0] * sweep.shape[1]
        assert sweep_records(sweep).tobytes() == bell_sweep_records(step).tobytes()

    @pytest.mark.parametrize("step_deg", [1.0, 0.5, 0.3])
    def test_records_match_the_whole_grid_oracle_at_full_blocks(self, step_deg):
        # 45 of 181 rows, 22 of 361 and 13 of 601 fill a block: each grid
        # ends in a partial one
        step = math.radians(step_deg)
        sweep = quantum_bell_sweep(step)
        assert sweep_records(sweep).tobytes() == bell_sweep_records(step).tobytes()

    def test_peak_memory_follows_the_records(self):
        # less the four arrays a sweep holds, the 0.5 degree sweep (130,321
        # points) must peak within 0.25 MiB of the 1 degree one (32,761):
        # a block's temporaries are a fixed cost, whatever the grid
        def traced(step_deg):
            tracemalloc.start()
            try:
                sweep = quantum_bell_sweep(math.radians(step_deg))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # theta2 is theta1
            arrays = (sweep.theta1, sweep.p_q_AB, sweep.p_q_AC, sweep.points)
            return peak - sum(array.nbytes for array in arrays)

        assert abs(traced(0.5) - traced(1.0)) <= 2**18

    def test_steps_dividing_180_keep_their_point_count(self):
        for step in (0.1, 0.25, 0.5, 0.75, 1, 2.5, 5, 7.5, 10, 15, 30, 45, 60, 90, 180):
            per_axis = round(180 / step) + 1
            assert _axis_count(math.radians(step)) == per_axis, step

    def test_grid_size_is_capped(self):
        assert _axis_count(math.radians(0.1)) ** 2 == 3_243_601 <= MAX_SWEEP_POINTS
        # the cap is inclusive: 2000 points an axis fit, 2001 do not
        assert _axis_count(math.radians(180.0 / 1999)) ** 2 == MAX_SWEEP_POINTS
        for step in (math.radians(0.09), math.radians(0.05), 1e-300, 5e-324):
            with pytest.raises(ValueError, match="too fine"):
                _axis_count(step)
            with pytest.raises(ValueError, match="too fine"):
                quantum_bell_sweep(step)

    @settings(max_examples=200, deadline=None)
    # from the finest step the cap admits, 2000 points an axis
    @given(st.floats(min_value=180.0 / 1999, max_value=200.0))
    def test_grid_ends_at_the_last_step_within_range(self, step_deg):
        step = math.radians(step_deg)
        last = step * (_axis_count(step) - 1)
        assert math.degrees(last) <= 180.0 + 1e-9 * step_deg
        assert math.degrees(last + step) > 180.0


# Finite angle pairs; aligned axes (0, pi, theta1 == theta2) turn up often.
ANGLES = st.sampled_from([0.0, math.pi]) | st.floats(allow_nan=False, allow_infinity=False)
ANGLE_PAIRS = st.tuples(ANGLES, ANGLES) | ANGLES.map(lambda theta: (theta, theta))


class TestMcBell:
    def test_estimates_near_exact_values(self):
        estimates = mc_bell_estimate(REF_T1, REF_T2, samples=1_000_000, seed=1)
        for label, exact in (("AB", 0.125), ("BC", 0.125), ("AC", 0.375)):
            est = estimates[label]
            sigma = math.sqrt(exact * (1.0 - exact) / est.samples)
            assert abs(est.estimate - exact) < 4.0 * sigma
            assert est.samples == 1_000_000
            assert est.seed == 1

    def test_impossible_outcome_never_drawn(self):
        # aligned axes perfectly anticorrelate, so both-positive has measure 0
        estimates = mc_bell_estimate(0.0, 0.0, samples=1000, seed=5)
        assert estimates["AB"].estimate == 0.0
        assert estimates["AC"].estimate == 0.0

    def test_determinism(self):
        a = mc_bell_estimate(REF_T1, REF_T2, samples=20_000, seed=9)
        b = mc_bell_estimate(REF_T1, REF_T2, samples=20_000, seed=9)
        assert a == b
        sharded = [
            mc_bell_estimate(REF_T1, REF_T2, samples=20_000, seed=9, shards=4)
            for _ in range(2)
        ]
        assert sharded[0] == sharded[1]

    @settings(max_examples=200, deadline=None)
    @given(ANGLE_PAIRS, st.integers(1, 5000), st.integers(min_value=0), st.integers(1, 6))
    @example((0.0, 0.0), 3, 12, 5)
    def test_hits_match_the_four_outcome_oracle(self, angles, samples, seed, shards):
        tallies = mc_bell_tallies(*angles, samples, seed, shards)
        assert mc_bell_estimate(*angles, samples, seed, shards) == {
            label: McEstimate.from_hits(int(counts[0]), samples, seed)
            for label, counts in tallies.items()
        }

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            mc_bell_estimate(0.0, 0.0, samples=0, seed=0)
        with pytest.raises(ValueError):
            mc_bell_estimate(0.0, 0.0, samples=10, seed=0, shards=0)
        # rejected before anything is drawn
        for samples in (MAX_SAMPLES + 1, 10**23):
            with pytest.raises(ValueError, match="at most 10,000,000"):
                mc_bell_estimate(0.0, 0.0, samples=samples, seed=0)


class TestMcClassical:
    def test_singlet_estimates_near_quarter(self):
        report = mc_classical_estimate(build_singlet_ensemble(), samples=1_000_000, seed=7)
        sigma = math.sqrt(0.25 * 0.75 / 1_000_000)
        for p in (report.p_AB, report.p_BC, report.p_AC):
            assert abs(p - 0.25) < 4.0 * sigma
        assert report.satisfied
        assert report.source == "sampled"

    def test_point_mass_reproduces_indicators(self):
        box = SingletBoxing.from_first(AttributeTriple(1, -1, 1))
        ens = Ensemble(((box, Fraction(1)),))
        report = mc_classical_estimate(ens, samples=500, seed=2)
        assert (report.p_AB, report.p_BC, report.p_AC) == (1.0, 0.0, 0.0)

    def test_ghz_parities_constant_on_draws(self):
        report = mc_classical_estimate(build_ghz_ensemble(), samples=100_000, seed=3)
        assert report.means == (1.0, 1.0, 1.0, 1.0)
        assert report.constant_on_draws == (True, True, True, True)
        assert report.samples == 100_000

    def test_sample_cap(self):
        for ens in (build_singlet_ensemble(), build_ghz_ensemble()):
            for samples in (MAX_SAMPLES + 1, 10**23):
                with pytest.raises(ValueError, match="at most 10,000,000"):
                    mc_classical_estimate(ens, samples, seed=0)

    def test_determinism(self):
        ens = build_singlet_ensemble()
        assert mc_classical_estimate(ens, 10_000, seed=4) == mc_classical_estimate(
            ens, 10_000, seed=4
        )


# Hit counts (AB, BC, AC) the estimators gave at seed 12 before they read
# per-outcome tallies, keyed by (samples, shards); (3, 5) has more shards than
# samples.  They pin the seeded draw streams: ROADMAP item 2's multinomial
# sampler changes the draws and will replace these pins.
PINNED_SEED = 12
PINNED_HITS = {
    (1000, 1): {"bell": (143, 104, 390), "singlet": (240, 237, 237), "skewed": (114, 72, 153)},
    (1000, 4): {"bell": (135, 110, 369), "singlet": (261, 244, 279), "skewed": (89, 68, 131)},
    (3, 5): {"bell": (0, 1, 3), "singlet": (2, 1, 1), "skewed": (1, 0, 1)},
}


class TestPinnedSeededValues:
    @pytest.mark.parametrize("samples, shards", list(PINNED_HITS))
    def test_seeded_values(self, samples, shards):
        pins = {k: tuple(h / samples for h in v) for k, v in PINNED_HITS[samples, shards].items()}
        bell = mc_bell_estimate(REF_T1, REF_T2, samples, PINNED_SEED, shards)
        assert tuple(bell[label].estimate for label in ("AB", "BC", "AC")) == pins["bell"]
        skewed = Ensemble.from_counts(
            (SingletBoxing.from_first(AttributeTriple(d, r, s)), count)
            for (d, r, s), count in zip(
                itertools.product((1, -1), repeat=3), (5, 1, 0, 3, 9, 1, 2, 7)
            )
        )
        for name, ens in (("singlet", build_singlet_ensemble()), ("skewed", skewed)):
            report = mc_classical_estimate(ens, samples, PINNED_SEED, shards)
            assert (report.p_AB, report.p_BC, report.p_AC) == pins[name]
        # every rule-respecting box has product +1 on each pattern, so any
        # draws give this report
        ghz = mc_classical_estimate(build_ghz_ensemble(), samples, PINNED_SEED, shards)
        assert ghz == GhzSampleReport((1.0,) * 4, (True,) * 4, samples, PINNED_SEED)


class TestOrderDependence:
    def test_reference_angles(self):
        report = order_dependence_report(REF_T1, REF_T2)
        assert report.prob_order_123 == pytest.approx(0.09375, abs=1e-12)
        assert report.prob_order_132 == pytest.approx(0.28125, abs=1e-12)
        assert not report.equal

    def test_equal_angles_coincide(self):
        report = order_dependence_report(1.1, 1.1)
        assert report.equal
        assert report.prob_order_123 == pytest.approx(report.prob_order_132, abs=1e-15)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(17)
        pairs = [(0.7, 1.9)] + [tuple(rng.uniform(0.0, math.pi, size=2)) for _ in range(50)]
        for t1, t2 in pairs:
            report = order_dependence_report(t1, t2)
            ref123, ref132 = closed_form_sequential(t1, t2)
            assert report.prob_order_123 == pytest.approx(ref123, abs=1e-12)
            assert report.prob_order_132 == pytest.approx(ref132, abs=1e-12)

    def test_orders_differ_when_they_should(self):
        # difference factors as (sin^2 half-angle mismatch) x (shared cosine)
        report = order_dependence_report(0.3, 1.1)
        assert not report.equal
        assert report.prob_order_123 < report.prob_order_132


class TestGhzContradiction:
    def test_report(self):
        report = ghz_contradiction_report()
        for pattern in ("xyy", "yxy", "yyx"):
            assert report.quantum[pattern] == pytest.approx(1.0, abs=1e-12)
        assert report.quantum["xxx"] == pytest.approx(-1.0, abs=1e-12)
        assert report.classical == {"xyy": 1, "yxy": 1, "yyx": 1, "xxx": 1}
        assert report.contradiction

    def test_impossible_outcomes(self):
        report = impossible_outcomes_check()
        assert len(report.rows) == 24
        assert report.all_ok
        for row in report.rows:
            parity = row.outcomes[0] * row.outcomes[1] * row.outcomes[2]
            assert row.expected == (0.25 if parity == 1 else 0.0)
            if parity == -1:
                assert row.prob <= 1e-12


class TestEstimateValidation:
    def test_mc_estimate(self):
        with pytest.raises(ValueError):
            McEstimate(0.5, 0, 0.0, 0)
        with pytest.raises(ValueError):
            McEstimate(1.5, 10, 0.0, 0)

    def test_physics_assertion_is_a_runtime_error(self):
        assert issubclass(PhysicsAssertionError, RuntimeError)

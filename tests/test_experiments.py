"""Checks for the contrast experiments: the violating point and sweep, the
seeded Monte Carlo estimators, order dependence, and the parity contradiction.

Closed-form reference values are recomputed here from scratch with math.sin
so the module under test cannot vouch for itself."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellbox import experiments
from bellbox.experiments import (
    BELL_POINT_DTYPE,
    MAX_SWEEP_POINTS,
    BellPoint,
    McEstimate,
    PhysicsAssertionError,
    closed_form_sequential,
    ghz_contradiction_report,
    impossible_outcomes_check,
    mc_bell_estimate,
    mc_classical_estimate,
    order_dependence_report,
    quantum_bell_point,
    quantum_bell_sweep,
    _sweep_point_count,
)
from bellbox.lhv import (
    AttributeTriple,
    Ensemble,
    SingletBoxing,
    build_ghz_ensemble,
    build_singlet_ensemble,
)
from fractions import Fraction

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

    def test_validation(self):
        with pytest.raises(ValueError):
            BellPoint(0.0, 0.0, 0.7, 0.0, 0.0, 0.7, False)
        with pytest.raises(ValueError):
            BellPoint(0.0, 0.0, 0.1, 0.1, 0.1, 0.1, True)


class TestBellSweep:
    def test_one_degree_sweep_finds_the_minimum(self):
        sweep = quantum_bell_sweep(math.radians(1.0))
        assert len(sweep.points) == 181 * 181
        assert sweep.min_gap == pytest.approx(-0.125, abs=1e-9)
        assert sweep.argmin[0] == pytest.approx(REF_T1, abs=1e-9)
        assert sweep.argmin[1] == pytest.approx(REF_T2, abs=1e-9)

    def test_grid_order_and_pointwise_agreement(self):
        sweep = quantum_bell_sweep(math.radians(5.0))
        size = 37
        assert len(sweep.points) == size * size
        rng = np.random.default_rng(13)
        for flat in rng.integers(0, size * size, size=60):
            point = sweep.points[int(flat)]
            i, j = divmod(int(flat), size)
            assert point.theta1 == pytest.approx(math.radians(5.0 * i), abs=1e-12)
            assert point.theta2 == pytest.approx(math.radians(5.0 * j), abs=1e-12)
            direct = quantum_bell_point(point.theta1, point.theta2)
            assert point.bell_gap == pytest.approx(direct.bell_gap, abs=1e-12)

    def test_single_cell_ranges(self):
        sweep = quantum_bell_sweep(
            0.1, theta1_range=(REF_T1, REF_T1), theta2_range=(REF_T2, REF_T2)
        )
        assert len(sweep.points) == 1
        assert sweep.min_gap == pytest.approx(-0.125, abs=1e-12)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            quantum_bell_sweep(0.0)
        with pytest.raises(ValueError):
            quantum_bell_sweep(-0.1)
        with pytest.raises(ValueError):
            quantum_bell_sweep(0.1, theta1_range=(1.0, 0.5))

    def test_points_are_columns(self):
        sweep = quantum_bell_sweep(math.radians(5.0))
        points = sweep.points
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

    def test_column_checks_run(self, monkeypatch):
        # only the last row goes out of range, away from the minimum, which
        # BellPoint checks on its own
        def out_of_range(t1, t2):
            p_ab, p_bc, p_ac = np.vectorize(reference_probs)(t1, t2)
            return np.where(t1 == t1.max(), p_ab + 0.6, p_ab), p_bc, p_ac

        monkeypatch.setattr(experiments, "_closed_form_probs", out_of_range)
        with pytest.raises(ValueError, match="p_q_AB"):
            quantum_bell_sweep(math.radians(30.0))

    def test_steps_dividing_180_keep_their_point_count(self):
        for step in (0.1, 0.25, 0.5, 0.75, 1, 2.5, 5, 7.5, 10, 15, 30, 45, 60, 90, 180):
            per_axis = round(180 / step) + 1
            assert _sweep_point_count(math.radians(step)) == per_axis * per_axis, step

    def test_grid_size_is_capped(self):
        assert _sweep_point_count(math.radians(0.1)) == 3_243_601 <= MAX_SWEEP_POINTS
        for step in (math.radians(0.05), 1e-300, 5e-324):
            with pytest.raises(ValueError, match="too fine"):
                _sweep_point_count(step)
            with pytest.raises(ValueError, match="too fine"):
                quantum_bell_sweep(step)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.05, max_value=200.0))
    def test_grid_ends_at_the_last_step_within_range(self, step_deg):
        step = math.radians(step_deg)
        sweep = quantum_bell_sweep(step, theta2_range=(0.0, 0.0))
        last = sweep.points[-1].theta1
        assert len(sweep.points) == _sweep_point_count(step, theta2_range=(0.0, 0.0))
        assert math.degrees(last) <= 180.0 + 1e-9 * step_deg
        assert math.degrees(last + step) > 180.0


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

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            mc_bell_estimate(0.0, 0.0, samples=0, seed=0)
        with pytest.raises(ValueError):
            mc_bell_estimate(0.0, 0.0, samples=10, seed=0, shards=0)


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

    def test_determinism(self):
        ens = build_singlet_ensemble()
        assert mc_classical_estimate(ens, 10_000, seed=4) == mc_classical_estimate(
            ens, 10_000, seed=4
        )


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

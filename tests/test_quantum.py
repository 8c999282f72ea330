"""State construction, measurement, and collapse against hand-rolled oracles.

Oracles here are built from first principles in the test body (explicit 2x2
spin matrices, explicit partial-trace loops, Kronecker products) so they fail
independently of the library's own linear algebra."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles

from bellbox.quantum import (
    ATOL,
    DensityMatrix,
    MeasurementAxis,
    ProductObservable,
    PureState,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    axis_eigenstates,
    ghz_state,
    joint_outcome_prob,
    maximally_mixed,
    mixed_vs_superposition_report,
    partial_trace,
    pauli_observable,
    product_expectation,
    sequential_measure_prob,
    singlet_invariance_residual,
    singlet_state,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def spin_matrix(theta, phi):
    return (
        math.sin(theta) * math.cos(phi) * SX
        + math.sin(theta) * math.sin(phi) * SY
        + math.cos(theta) * SZ
    )


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def states(draw):
    """A normalized state of 1 to 3 sites, with any complex amplitudes."""
    size = 2 ** draw(st.integers(1, 3))
    parts = np.array(draw(st.lists(st.floats(-1, 1), min_size=2 * size, max_size=2 * size)))
    amps = parts[:size] + 1j * parts[size:]
    assume(np.linalg.norm(amps) > 1e-3)
    return PureState(amps / np.linalg.norm(amps))


def random_axis(rng):
    return MeasurementAxis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))


def random_state(rng, num_sites):
    amps = rng.normal(size=2**num_sites) + 1j * rng.normal(size=2**num_sites)
    return PureState(amps / np.linalg.norm(amps))


class TestMeasurementAxis:
    def test_z_axis_unit_vector(self):
        assert oracles.unit_vector(Z_AXIS) == pytest.approx((0, 0, 1), abs=1e-15)

    def test_normalization_reflects_theta_into_range(self):
        axis = MeasurementAxis(-math.pi / 4)
        assert axis.theta == pytest.approx(math.pi / 4)
        assert axis.phi == pytest.approx(math.pi)

    def test_normalization_preserves_direction(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            theta = rng.uniform(-10, 10)
            phi = rng.uniform(-10, 10)
            raw = (
                math.sin(theta) * math.cos(phi),
                math.sin(theta) * math.sin(phi),
                math.cos(theta),
            )
            axis = MeasurementAxis(theta, phi)
            assert oracles.unit_vector(axis) == pytest.approx(raw, abs=1e-12)

    def test_canonical_ranges(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            axis = MeasurementAxis(rng.uniform(-20, 20), rng.uniform(-20, 20))
            assert 0 <= axis.theta <= math.pi
            assert 0 <= axis.phi < 2 * math.pi
        # the remainder by 2 pi of a tiny negative phi rounds up to 2 pi
        assert MeasurementAxis(0.0, -2.45e-250).phi == 0.0

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_any_finite_angles_keep_their_direction(self, theta, phi):
        # libm's sin and cos reduce any finite argument exactly
        raw = (
            math.sin(theta) * math.cos(phi),
            math.sin(theta) * math.sin(phi),
            math.cos(theta),
        )
        axis = MeasurementAxis(theta, phi)
        assert oracles.unit_vector(axis) == pytest.approx(raw, abs=1e-12)
        assert 0 <= axis.theta <= math.pi
        assert 0 <= axis.phi < 2 * math.pi

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            MeasurementAxis(math.nan)
        with pytest.raises(ValueError):
            MeasurementAxis(0.0, math.inf)

    def test_operator_matches_component_sum(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            axis = random_axis(rng)
            expected = spin_matrix(axis.theta, axis.phi)
            assert np.allclose(axis.operator(), expected, atol=1e-12)


class TestEigenstates:
    def test_z_axis_gives_computational_basis(self):
        plus, minus = axis_eigenstates(Z_AXIS)
        assert np.array_equal(plus.amplitudes, [1, 0])
        assert np.array_equal(minus.amplitudes, [0, 1])

    def test_x_axis_equal_weights(self):
        plus, minus = axis_eigenstates(X_AXIS)
        r = 1 / math.sqrt(2)
        assert plus.amplitudes == pytest.approx([r, r], abs=1e-15)
        assert minus.amplitudes == pytest.approx([-r, r], abs=1e-15)

    def test_eigen_relation_at_pi_third(self):
        plus, minus = axis_eigenstates(MeasurementAxis(math.pi / 3))
        op = spin_matrix(math.pi / 3, 0.0)
        assert np.vdot(plus.amplitudes, op @ plus.amplitudes).real == pytest.approx(1.0, abs=ATOL)
        assert np.vdot(minus.amplitudes, op @ minus.amplitudes).real == pytest.approx(-1.0, abs=ATOL)

    def test_eigen_relation_random_axes(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            axis = random_axis(rng)
            op = spin_matrix(axis.theta, axis.phi)
            plus, minus = axis_eigenstates(axis)
            assert np.allclose(op @ plus.amplitudes, plus.amplitudes, atol=1e-12)
            assert np.allclose(op @ minus.amplitudes, -minus.amplitudes, atol=1e-12)
            assert abs(np.vdot(plus.amplitudes, minus.amplitudes)) < 1e-12


class TestEigenbasisOracle:
    """The stored eigenbasis and the Born rule give the bits of the earlier
    per-call formula: ghz-parity and state-report print residues near 1e-32."""

    @settings(max_examples=300, deadline=None)
    @given(FINITE, FINITE)
    def test_basis_columns_equal_the_formula(self, theta, phi):
        axis = MeasurementAxis(theta, phi)
        plus, minus = oracles.axis_eigenvectors(axis.theta, axis.phi)
        assert axis.basis[:, 0].tobytes() == plus.tobytes()
        assert axis.basis[:, 1].tobytes() == minus.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(states(), st.lists(st.none() | st.tuples(FINITE, FINITE), min_size=3, max_size=3))
    @example(ghz_state(), [(math.pi / 2, 0.0), (math.pi / 2, math.pi / 2), (math.pi / 2, math.pi / 2)])
    @example(singlet_state(), [(0.0, 0.0), (math.pi / 3, 0.0), None])
    def test_joint_outcome_prob_equals_the_oracle(self, state, angles):
        axes = [None if a is None else MeasurementAxis(*a) for a in angles[: state.num_sites]]
        canonical = [None if a is None else (a.theta, a.phi) for a in axes]
        for outcomes in itertools.product(*[(1, -1) if a else (None,) for a in axes]):
            assert joint_outcome_prob(state, axes, outcomes) == oracles.joint_outcome_prob(
                state.amplitudes, canonical, outcomes)


class TestSharedStates:
    @pytest.mark.parametrize("make", [singlet_state, ghz_state, maximally_mixed])
    def test_one_object(self, make):
        assert make() is make()

    @pytest.mark.parametrize("array", [
        singlet_state().amplitudes,
        ghz_state().amplitudes,
        maximally_mixed().entries,
        X_AXIS.basis,
        MeasurementAxis(1.234, 5.678).basis,
    ], ids=["singlet", "ghz", "mixed", "x-axis", "axis"])
    def test_writes_raise(self, array):
        with pytest.raises(ValueError):
            array[0] = 0.5

    def test_measurement_leaves_the_bytes_unchanged(self):
        shared = [singlet_state().amplitudes, ghz_state().amplitudes,
                  maximally_mixed().entries, Y_AXIS.basis]
        before = [a.tobytes() for a in shared]
        axes = (X_AXIS, Y_AXIS, MeasurementAxis(1.234, 5.678))
        for state in (singlet_state(), ghz_state()):
            for outcomes in itertools.product((1, -1), repeat=state.num_sites):
                joint_outcome_prob(state, axes[: state.num_sites], outcomes)
            for site in range(1, state.num_sites + 1):
                rho = partial_trace(state, site)
                sequential_measure_prob(rho, [(a, 1) for a in axes])
        sequential_measure_prob(maximally_mixed(), [(a, -1) for a in axes])
        assert [a.tobytes() for a in shared] == before


class TestStates:
    def test_singlet_amplitudes(self):
        r = 1 / math.sqrt(2)
        assert singlet_state().amplitudes == pytest.approx([0, r, -r, 0], abs=1e-15)

    def test_singlet_is_antisymmetric_under_site_swap(self):
        amps = singlet_state().amplitudes
        swapped = amps[[0, 2, 1, 3]]  # exchange the up-down and down-up slots
        assert np.allclose(swapped, -amps, atol=1e-15)

    def test_ghz_amplitudes(self):
        amps = ghz_state().amplitudes
        assert np.count_nonzero(amps) == 2
        assert amps[0] == pytest.approx(1 / math.sqrt(2))
        assert amps[7] == pytest.approx(-1 / math.sqrt(2))

    def test_ghz_zz_identity_expectation(self):
        assert product_expectation(ghz_state(), pauli_observable("zzi")) == pytest.approx(1.0, abs=ATOL)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]))

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 0.0, 0.0]))

    def test_density_matrix_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]))  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.7, 0.0], [0.0, 0.7]]))  # trace != 1
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue

    def test_maximally_mixed(self):
        assert np.allclose(maximally_mixed().entries, 0.5 * np.eye(2))


class TestPartialTrace:
    def test_singlet_reduces_to_even_mixture(self):
        rho = partial_trace(singlet_state(), 1)
        assert np.allclose(rho.entries, 0.5 * np.eye(2), atol=ATOL)

    def test_product_state_keeps_pure_factor(self):
        state = PureState(np.array([0, 1, 0, 0], dtype=float))  # up (x) down
        assert np.allclose(partial_trace(state, 1).entries, np.diag([1.0, 0.0]), atol=ATOL)
        assert np.allclose(partial_trace(state, 2).entries, np.diag([0.0, 1.0]), atol=ATOL)

    def test_ghz_site2(self):
        rho = partial_trace(ghz_state(), 2)
        assert np.allclose(rho.entries, 0.5 * np.eye(2), atol=ATOL)

    def test_matches_explicit_sum(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            state = random_state(rng, 3)
            tensor = state.amplitudes.reshape(2, 2, 2)
            for site in (1, 2, 3):
                expected = np.zeros((2, 2), dtype=complex)
                for a in range(2):
                    for b in range(2):
                        for r in range(2):
                            for s in range(2):
                                idx_a = [r, s]
                                idx_b = [r, s]
                                idx_a.insert(site - 1, a)
                                idx_b.insert(site - 1, b)
                                expected[a, b] += tensor[tuple(idx_a)] * np.conj(tensor[tuple(idx_b)])
                assert np.allclose(partial_trace(state, site).entries, expected, atol=1e-12)

    def test_invalid_site_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(singlet_state(), 3)
        with pytest.raises(ValueError):
            partial_trace(singlet_state(), 0)


class TestJointOutcomeProb:
    def test_reference_pair_values(self):
        state = singlet_state()
        n1 = MeasurementAxis(0.0)
        p = joint_outcome_prob(state, (n1, MeasurementAxis(math.pi / 3)), (1, 1))
        assert p == pytest.approx(0.125, abs=ATOL)
        p = joint_outcome_prob(state, (n1, MeasurementAxis(2 * math.pi / 3)), (1, 1))
        assert p == pytest.approx(0.375, abs=ATOL)

    def test_perfect_anticorrelation_random_axes(self):
        state = singlet_state()
        rng = np.random.default_rng(41)
        for _ in range(100):
            axis = random_axis(rng)
            assert joint_outcome_prob(state, (axis, axis), (1, 1)) == pytest.approx(0.0, abs=ATOL)
            assert joint_outcome_prob(state, (axis, axis), (1, -1)) == pytest.approx(0.5, abs=ATOL)

    def test_born_completeness(self):
        rng = np.random.default_rng(42)
        for sites in (1, 2, 3):
            for _ in range(10):
                state = random_state(rng, sites)
                axes = tuple(random_axis(rng) for _ in range(sites))
                total = 0.0
                for pattern in np.ndindex(*(2,) * sites):
                    outcomes = tuple(1 if b == 0 else -1 for b in pattern)
                    total += joint_outcome_prob(state, axes, outcomes)
                assert total == pytest.approx(1.0, abs=ATOL)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from((singlet_state, ghz_state)),
           st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(allow_nan=False, allow_infinity=False),
                              st.booleans()), min_size=3, max_size=3))
    def test_outcomes_sum_to_one_at_any_finite_axes(self, make_state, angles):
        # each site is measured along (theta, phi), or left unmeasured
        state = make_state()
        axes = tuple(MeasurementAxis(theta, phi) if measured else None
                     for theta, phi, measured in angles[: state.num_sites])
        signs = [(1, -1) if axis else (None,) for axis in axes]
        total = sum(joint_outcome_prob(state, axes, outcomes)
                    for outcomes in itertools.product(*signs))
        assert total == pytest.approx(1.0, abs=ATOL)

    def test_marginal_via_identity_slots(self):
        state = singlet_state()
        rng = np.random.default_rng(43)
        for _ in range(100):
            axis = random_axis(rng)
            for site_axes in ((axis, None), (None, axis)):
                outcomes = tuple(None if a is None else 1 for a in site_axes)
                assert joint_outcome_prob(state, site_axes, outcomes) == pytest.approx(0.5, abs=ATOL)

    def test_mismatched_lengths_rejected(self):
        state = singlet_state()
        with pytest.raises(ValueError):
            joint_outcome_prob(state, (Z_AXIS,), (1,))
        with pytest.raises(ValueError):
            joint_outcome_prob(state, (Z_AXIS, None), (1, 1))
        with pytest.raises(ValueError):
            joint_outcome_prob(state, (Z_AXIS, Z_AXIS), (1, 2))


class TestProductExpectation:
    def test_ghz_parities(self):
        state = ghz_state()
        assert product_expectation(state, pauli_observable("xyy")) == pytest.approx(1.0, abs=ATOL)
        assert product_expectation(state, pauli_observable("yxy")) == pytest.approx(1.0, abs=ATOL)
        assert product_expectation(state, pauli_observable("yyx")) == pytest.approx(1.0, abs=ATOL)
        assert product_expectation(state, pauli_observable("xxx")) == pytest.approx(-1.0, abs=ATOL)

    def test_singlet_zz(self):
        assert product_expectation(singlet_state(), pauli_observable("zz")) == pytest.approx(-1.0, abs=ATOL)

    def test_singlet_same_axis_always_minus_one(self):
        state = singlet_state()
        rng = np.random.default_rng(51)
        for _ in range(50):
            axis = random_axis(rng)
            obs = ProductObservable((axis, axis))
            assert product_expectation(state, obs) == pytest.approx(-1.0, abs=ATOL)

    def test_matches_kron_oracle(self):
        rng = np.random.default_rng(52)
        letters = {"x": SX, "y": SY, "z": SZ, "i": np.eye(2, dtype=complex)}
        for _ in range(20):
            state = random_state(rng, 3)
            word = "".join(rng.choice(list("xyzi"), size=3))
            matrix = np.kron(np.kron(letters[word[0]], letters[word[1]]), letters[word[2]])
            expected = np.vdot(state.amplitudes, matrix @ state.amplitudes).real
            assert product_expectation(state, pauli_observable(word)) == pytest.approx(expected, abs=1e-12)

    def test_factor_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            product_expectation(singlet_state(), pauli_observable("zzz"))

    def test_unknown_letter_rejected(self):
        with pytest.raises(ValueError):
            pauli_observable("xq")


class TestSequentialMeasurement:
    def test_reference_order_123(self):
        steps = [
            (MeasurementAxis(0.0), 1),
            (MeasurementAxis(math.pi / 3), -1),
            (MeasurementAxis(2 * math.pi / 3), -1),
        ]
        assert sequential_measure_prob(maximally_mixed(), steps) == pytest.approx(0.09375, abs=ATOL)

    def test_reference_order_132(self):
        steps = [
            (MeasurementAxis(0.0), 1),
            (MeasurementAxis(2 * math.pi / 3), -1),
            (MeasurementAxis(math.pi / 3), -1),
        ]
        assert sequential_measure_prob(maximally_mixed(), steps) == pytest.approx(0.28125, abs=ATOL)

    def test_closed_form_cross_check(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            t1, t2 = rng.uniform(0, math.pi, size=2)
            steps = [
                (MeasurementAxis(0.0), 1),
                (MeasurementAxis(t1), -1),
                (MeasurementAxis(t2), -1),
            ]
            expected = 0.5 * math.sin(t1 / 2) ** 2 * math.cos((t2 - t1) / 2) ** 2
            assert sequential_measure_prob(maximally_mixed(), steps) == pytest.approx(expected, abs=ATOL)

    def test_eigenstate_remeasured(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        assert sequential_measure_prob(rho, [(Z_AXIS, 1)]) == 1.0

    def test_impossible_branch_gives_zero(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        steps = [(Z_AXIS, -1), (X_AXIS, 1)]
        assert sequential_measure_prob(rho, steps) == 0.0

    def test_sequence_completeness(self):
        # over all 8 sign patterns of three fixed axes the probabilities sum to 1
        rng = np.random.default_rng(62)
        for _ in range(10):
            axes = [random_axis(rng) for _ in range(3)]
            total = 0.0
            for pattern in np.ndindex(2, 2, 2):
                steps = [(a, 1 if b == 0 else -1) for a, b in zip(axes, pattern)]
                total += sequential_measure_prob(maximally_mixed(), steps)
            assert total == pytest.approx(1.0, abs=ATOL)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            sequential_measure_prob(maximally_mixed(), [(Z_AXIS, 0)])

    def test_multi_site_initial_rejected(self):
        rho = DensityMatrix(0.25 * np.eye(4))
        with pytest.raises(ValueError):
            sequential_measure_prob(rho, [(Z_AXIS, 1)])


class TestInvarianceResidual:
    def test_defining_basis(self):
        assert singlet_invariance_residual(Z_AXIS) <= ATOL

    def test_x_axis(self):
        assert singlet_invariance_residual(X_AXIS) <= ATOL

    def test_arbitrary_axis(self):
        assert singlet_invariance_residual(MeasurementAxis(1.234, 5.678)) <= ATOL

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_any_finite_axis(self, theta, phi):
        assert singlet_invariance_residual(MeasurementAxis(theta, phi)) <= ATOL


class TestMixedVsSuperposition:
    def test_z_axis_indistinguishable(self):
        report = mixed_vs_superposition_report(Z_AXIS)
        assert report.mixed == pytest.approx((0.5, 0.5), abs=ATOL)
        assert report.superposition == pytest.approx((0.5, 0.5), abs=ATOL)

    def test_x_axis_certain_for_superposition(self):
        report = mixed_vs_superposition_report(X_AXIS)
        assert report.mixed == pytest.approx((0.5, 0.5), abs=ATOL)
        assert report.superposition == pytest.approx((1.0, 0.0), abs=ATOL)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_formula_on_random_axes(self, theta, phi):
        # mixed stays even; the superposition follows (1 + sin(theta)cos(phi)) / 2
        axis = MeasurementAxis(theta, phi)
        report = mixed_vs_superposition_report(axis)
        assert report.mixed == pytest.approx((0.5, 0.5), abs=ATOL)
        p_plus = 0.5 * (1.0 + math.sin(axis.theta) * math.cos(axis.phi))
        assert report.superposition[0] == pytest.approx(p_plus, abs=ATOL)
        assert sum(report.superposition) == pytest.approx(1.0, abs=ATOL)

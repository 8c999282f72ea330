"""Exact states and projective measurement for one to three spin-1/2 sites.

Conventions fixed here and relied on by every other module:

* Basis order: site 1 is the most significant bit of the amplitude index,
  and bit value 0 means spin up along z.  For two sites the basis order is
  therefore up-up, up-down, down-up, down-down.
* Axis eigenstates carry half-angle phases, exp(-i*phi/2) on the up
  component and exp(+i*phi/2) on the down component.  With this phase
  choice the two-site antisymmetric state keeps exactly the same
  amplitudes when rewritten in the eigenbasis of any axis, as an equality
  of vectors rather than equality up to a global phase
  (see singlet_invariance_residual).
* Measurement outcomes are signs: +1 projects onto the +1 eigenstate of
  the axis operator, -1 onto the -1 eigenstate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

ATOL = 1e-12

_SQRT2 = math.sqrt(2.0)


def principal_angle(angle: float) -> float:
    """A finite angle moved by whole turns to within [-2*pi, 2*pi].

    One within that range is returned as given.  A larger one becomes the
    atan2 of its sine and cosine, in (-pi, pi]: libm reduces the argument of
    sin and cos exactly, while a remainder by the float 2*pi, which is not
    exactly a turn, drifts further from the true angle the larger it is."""
    if abs(angle) <= 2.0 * math.pi:
        return angle
    return math.atan2(math.sin(angle), math.cos(angle))


@dataclass(frozen=True)
class MeasurementAxis:
    """Spin measurement direction, stored with theta in [0, pi] and phi in [0, 2*pi), and
    its read-only eigenbasis: columns for eigenvalues +1 and -1, with half-angle phases."""

    theta: float
    phi: float = 0.0
    basis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError("axis angles must be finite")
        theta = principal_angle(self.theta) % (2.0 * math.pi)
        phi = principal_angle(self.phi)
        if theta > math.pi:
            # same direction, reflected into the canonical range
            theta = 2.0 * math.pi - theta
            phi = phi + math.pi
        phi = phi % (2.0 * math.pi)
        if phi == 2.0 * math.pi:
            phi = 0.0  # a tiny negative phi rounds up to a whole turn
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)
        half = 0.5 * theta
        up_phase = complex(math.cos(0.5 * phi), -math.sin(0.5 * phi))
        down_phase = up_phase.conjugate()
        basis = np.array([[up_phase * math.cos(half), -up_phase * math.sin(half)],
                          [down_phase * math.sin(half), down_phase * math.cos(half)]])
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)

    def operator(self) -> np.ndarray:
        """2x2 Hermitian matrix of the spin component along this axis."""
        return (self.basis * [1, -1]) @ self.basis.conj().T


X_AXIS = MeasurementAxis(math.pi / 2.0, 0.0)
Y_AXIS = MeasurementAxis(math.pi / 2.0, math.pi / 2.0)
Z_AXIS = MeasurementAxis(0.0, 0.0)


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized amplitude vector over the 2**n basis states, n in 1..3."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.shape[0] not in (2, 4, 8):
            raise ValueError("amplitude vector must have length 2, 4 or 8")
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        if abs(np.linalg.norm(amps) - 1.0) > ATOL:
            raise ValueError("state is not normalized")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def num_sites(self) -> int:
        return self.amplitudes.shape[0].bit_length() - 1

    def as_tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.num_sites)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over 2**n basis states."""

    entries: np.ndarray

    def __post_init__(self):
        mat = np.array(self.entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] not in (2, 4, 8):
            raise ValueError("density matrix must be square with dimension 2, 4 or 8")
        if not np.all(np.isfinite(mat.view(float))):
            raise ValueError("entries must be finite")
        if np.max(np.abs(mat - mat.conj().T)) > ATOL:
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(mat).real - 1.0) > ATOL or abs(np.trace(mat).imag) > ATOL:
            raise ValueError("density matrix must have unit trace")
        if np.min(np.linalg.eigvalsh(mat)) < -1e-10:
            raise ValueError("density matrix must be positive semidefinite")
        mat.flags.writeable = False
        object.__setattr__(self, "entries", mat)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class ProductObservable:
    """Per-site factors, each a MeasurementAxis (spin component) or None (identity)."""

    factors: tuple[MeasurementAxis | None, ...]

    def __post_init__(self):
        if not 1 <= len(self.factors) <= 3:
            raise ValueError("observable must have 1 to 3 factors")
        for f in self.factors:
            if f is not None and not isinstance(f, MeasurementAxis):
                raise ValueError("each factor must be a MeasurementAxis or None")


_PAULI_AXES = {"x": X_AXIS, "y": Y_AXIS, "z": Z_AXIS}


def pauli_observable(letters: str) -> ProductObservable:
    """Build a product observable from per-site letters, e.g. "xyy" or "zzi" (i = identity)."""
    factors: list[MeasurementAxis | None] = []
    for ch in letters.lower():
        if ch == "i":
            factors.append(None)
        elif ch in _PAULI_AXES:
            factors.append(_PAULI_AXES[ch])
        else:
            raise ValueError(f"unknown factor letter {ch!r}, expected x, y, z or i")
    return ProductObservable(tuple(factors))


def axis_eigenstates(axis: MeasurementAxis) -> tuple[PureState, PureState]:
    """Unit eigenvectors of the axis spin component, eigenvalues +1 and -1."""
    plus, minus = axis.basis.T
    return PureState(plus), PureState(minus)


_SINGLET = PureState(np.array([0.0, 1.0, -1.0, 0.0]) / _SQRT2)
_GHZ = PureState(np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0]) / _SQRT2)
_MAXIMALLY_MIXED = DensityMatrix(0.5 * np.eye(2))


def singlet_state() -> PureState:
    """Two-site antisymmetric state: (up-down minus down-up) / sqrt(2); one shared object."""
    return _SINGLET


def ghz_state() -> PureState:
    """Three-site state: (up-up-up minus down-down-down) / sqrt(2); one shared object."""
    return _GHZ


def maximally_mixed() -> DensityMatrix:
    """Single-site state with probability 1/2 for either outcome along every axis;
    one shared object."""
    return _MAXIMALLY_MIXED


def partial_trace(state: PureState, keep_site: int) -> DensityMatrix:
    """Reduced density matrix of one site (1-based), tracing out the others."""
    n = state.num_sites
    if n < 2:
        raise ValueError("partial trace needs a state with at least 2 sites")
    if not 1 <= keep_site <= n:
        raise ValueError(f"keep_site must be in 1..{n}, got {keep_site}")
    kept_first = np.moveaxis(state.as_tensor(), keep_site - 1, 0).reshape(2, -1)
    return DensityMatrix(kept_first @ kept_first.conj().T)


def _check_measurement_args(
    num_sites: int,
    axes: Sequence[MeasurementAxis | None],
    outcomes: Sequence[int | None],
) -> None:
    if len(axes) != num_sites or len(outcomes) != num_sites:
        raise ValueError(f"need one axis and one outcome per site ({num_sites})")
    for axis, outcome in zip(axes, outcomes):
        if (axis is None) != (outcome is None):
            raise ValueError("axis and outcome must both be given or both be None")
        if outcome is not None and outcome not in (1, -1):
            raise ValueError("outcome signs must be +1 or -1")


def joint_outcome_prob(
    state: PureState,
    axes: Sequence[MeasurementAxis | None],
    outcomes: Sequence[int | None],
) -> float:
    """Born probability of the given outcome signs on the measured sites.

    Sites with axis None are left unmeasured, giving the marginal probability
    over their outcomes.  Over all sign patterns on the measured sites the
    probabilities sum to 1.
    """
    _check_measurement_args(state.num_sites, axes, outcomes)
    tensor = state.as_tensor()
    # contract measured sites from the last axis down so the remaining
    # axis positions stay valid
    for k in range(state.num_sites - 1, -1, -1):
        axis, outcome = axes[k], outcomes[k]
        if axis is None:
            continue
        eigvec = axis.basis[:, 0 if outcome == 1 else 1]
        tensor = np.tensordot(eigvec.conj(), tensor, axes=([0], [k]))
    return float(np.sum(np.abs(tensor) ** 2))


def product_expectation(state: PureState, obs: ProductObservable) -> float:
    """Expectation value of a product observable in the given state."""
    n = state.num_sites
    if len(obs.factors) != n:
        raise ValueError(f"observable has {len(obs.factors)} factors for a {n}-site state")
    tensor = state.as_tensor()
    for k, factor in enumerate(obs.factors):
        if factor is None:
            continue
        tensor = np.moveaxis(np.tensordot(factor.operator(), tensor, axes=([1], [k])), 0, k)
    value = np.vdot(state.amplitudes, tensor.reshape(-1))
    if abs(value.imag) > ATOL:
        raise ValueError("expectation of a Hermitian product came out non-real")
    return float(value.real)


def sequential_measure_prob(
    initial: DensityMatrix,
    steps: Sequence[tuple[MeasurementAxis, int]],
) -> float:
    """Probability of an ordered outcome sequence on one site under collapse.

    After each step the state is projected onto the observed eigenstate and
    renormalized.  A zero-probability intermediate outcome makes the whole
    sequence impossible and returns 0 without error.
    """
    if initial.dim != 2:
        raise ValueError("sequential measurement is defined for a single site")
    rho = initial.entries
    total = 1.0
    for axis, sign in steps:
        if sign not in (1, -1):
            raise ValueError("outcome signs must be +1 or -1")
        eigvec = axis.basis[:, 0 if sign == 1 else 1]
        prob = float(np.real(np.vdot(eigvec, rho @ eigvec)))
        if prob <= 0.0:
            return 0.0
        # rank-1 projector: the collapsed state is the eigenstate itself
        rho = np.outer(eigvec, eigvec.conj())
        total *= prob
    return total


def singlet_invariance_residual(axis: MeasurementAxis) -> float:
    """Norm distance between the two-site antisymmetric state and its
    rewrite (plus,minus) - (minus,plus) over sqrt(2) in the axis eigenbasis.

    Zero for every axis under the half-angle phase convention used here.
    """
    plus, minus = axis.basis.T
    rewritten = (np.kron(plus, minus) - np.kron(minus, plus)) / _SQRT2
    return float(np.linalg.norm(_SINGLET.amplitudes - rewritten))


class AxisDistributions(NamedTuple):
    mixed: tuple[float, float]
    superposition: tuple[float, float]


def mixed_vs_superposition_report(axis: MeasurementAxis) -> AxisDistributions:
    """Outcome distributions along one axis for the maximally mixed state and
    for the equal superposition (up plus down) / sqrt(2).

    The two agree along z and differ along most other axes, which is what
    makes them physically distinct preparations.
    """
    rho = maximally_mixed()
    phi_state = PureState(np.array([1.0, 1.0]) / _SQRT2)
    return AxisDistributions(
        mixed=tuple(sequential_measure_prob(rho, [(axis, s)]) for s in (1, -1)),
        superposition=tuple(joint_outcome_prob(phi_state, [axis], [s]) for s in (1, -1)),
    )

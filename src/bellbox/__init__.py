"""Exact and sampled correlation contrasts between small entangled spin
states and their closest classical boxed-attribute ensembles."""

__version__ = "0.1.0"

from .quantum import (
    MeasurementAxis,
    PureState,
    DensityMatrix,
    ProductObservable,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    axis_eigenstates,
    singlet_state,
    ghz_state,
    maximally_mixed,
    partial_trace,
    joint_outcome_prob,
    joint_outcome_probs,
    product_expectation,
    sequential_measure_prob,
    singlet_invariance_residual,
    mixed_vs_superposition_report,
    pauli_observable,
)
from .lhv import (
    AttributeTriple,
    SingletBoxing,
    GhzBoxing,
    Ensemble,
    CorrelationReport,
    build_singlet_ensemble,
    build_ghz_ensemble,
    correlation_prob,
    bell_check,
    parity_product,
    enumerate_singlet_lhv,
    enumerate_ghz_lhv,
    sample_indices,
)
from .experiments import (
    PhysicsAssertionError,
    BellPoint,
    BellSweep,
    McEstimate,
    GhzParityReport,
    quantum_bell_point,
    quantum_bell_sweep,
    mc_bell_estimate,
    mc_classical_estimate,
    order_dependence_report,
    ghz_contradiction_report,
    impossible_outcomes_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]

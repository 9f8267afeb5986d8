"""Dense full-state simulator substrate (the Intel-QS role in the paper)."""

from .dense import DenseSimulator, simulate_statevector
from .measurement import (
    collapse_qubit,
    expectation_z,
    marginal_probability,
    measure_qubit,
    norm_error,
    normalize,
    probabilities,
    sample_counts,
    state_fidelity,
)
from .ops import (
    apply_controlled_single_qubit,
    apply_gate_to_vector,
    apply_single_qubit,
)

__all__ = [
    "DenseSimulator",
    "simulate_statevector",
    "probabilities",
    "marginal_probability",
    "sample_counts",
    "measure_qubit",
    "collapse_qubit",
    "expectation_z",
    "state_fidelity",
    "normalize",
    "norm_error",
    "apply_single_qubit",
    "apply_controlled_single_qubit",
    "apply_gate_to_vector",
]

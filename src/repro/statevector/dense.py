"""Dense full-state Schrödinger simulator.

This plays the role of Intel-QS in the paper: the compression-free reference
against which the compressed simulator's fidelity and memory footprint are
compared.  It stores all ``2^n`` double-precision complex amplitudes in one
NumPy array and applies gates with the vectorised pair-update kernels in
:mod:`repro.statevector.ops`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..circuits import Gate, QuantumCircuit
from . import measurement, ops

__all__ = ["DenseSimulator", "simulate_statevector"]


class DenseSimulator:
    """Reference full-state simulator keeping the entire vector in memory.

    Parameters
    ----------
    num_qubits:
        Number of qubits; the state has ``2**num_qubits`` amplitudes.
    initial_state:
        Either ``None`` (start in ``|0...0>``), an integer basis state, or a
        full ``2**num_qubits`` complex vector (copied and normalised).
    """

    def __init__(
        self,
        num_qubits: int,
        initial_state: int | np.ndarray | None = None,
    ) -> None:
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        if num_qubits > 28:
            raise ValueError(
                f"{num_qubits} qubits would need {(1 << (num_qubits + 4)) / 2**30:.0f} GiB; "
                "the dense reference simulator is capped at 28 qubits"
            )
        self._num_qubits = int(num_qubits)
        size = 1 << num_qubits
        if initial_state is None:
            self._state = np.zeros(size, dtype=np.complex128)
            self._state[0] = 1.0
        elif isinstance(initial_state, (int, np.integer)):
            if not 0 <= int(initial_state) < size:
                raise ValueError(f"basis state {initial_state} out of range")
            self._state = np.zeros(size, dtype=np.complex128)
            self._state[int(initial_state)] = 1.0
        else:
            vector = np.asarray(initial_state, dtype=np.complex128)
            if vector.shape != (size,):
                raise ValueError(
                    f"initial state must have shape ({size},), got {vector.shape}"
                )
            self._state = measurement.normalize(vector)
        self._gate_count = 0

    # -- properties -------------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Number of qubits the dense state represents."""

        return self._num_qubits

    @property
    def gate_count(self) -> int:
        """Number of gates applied so far."""

        return self._gate_count

    @property
    def state(self) -> np.ndarray:
        """A read-only view of the current state vector."""

        view = self._state.view()
        view.flags.writeable = False
        return view

    def statevector(self) -> np.ndarray:
        """A copy of the current state vector."""

        return self._state.copy()

    def memory_bytes(self) -> int:
        """Bytes held by the amplitude array (``2^{n+4}`` per the paper)."""

        return self._state.nbytes

    # -- gate application --------------------------------------------------------

    def apply_gate(self, gate: Gate) -> None:
        """Apply one gate in place."""

        if gate.max_qubit() >= self._num_qubits:
            raise ValueError(
                f"gate {gate.name} touches qubit {gate.max_qubit()} outside the register"
            )
        ops.apply_gate_to_vector(self._state, gate)
        self._gate_count += 1

    def apply_circuit(self, circuit: QuantumCircuit | Iterable[Gate]) -> None:
        """Apply every gate of *circuit* in order."""

        for gate in circuit:
            self.apply_gate(gate)

    # -- measurement and analysis -------------------------------------------------

    def probabilities(self) -> np.ndarray:
        """Measurement probabilities of every computational basis state."""

        return measurement.probabilities(self._state)

    def probability_of(self, basis_state: int) -> float:
        """Probability of measuring the given computational *basis_state*."""

        return float(np.abs(self._state[basis_state]) ** 2)

    def marginal_probability(self, qubit: int) -> float:
        """Probability that measuring *qubit* alone yields 1."""

        return measurement.marginal_probability(self._state, qubit)

    def expectation_z(self, qubit: int) -> float:
        """Expectation value of the Pauli-Z observable on *qubit*."""

        return measurement.expectation_z(self._state, qubit)

    def sample_counts(
        self, shots: int, rng: np.random.Generator | None = None
    ) -> dict[int, int]:
        """Sample *shots* measurement outcomes; ``{basis_state: count}``."""

        return measurement.sample_counts(self._state, shots, rng)

    def measure(
        self, qubit: int, rng: np.random.Generator | None = None
    ) -> int:
        """Projectively measure *qubit*, collapsing the stored state."""

        outcome, collapsed = measurement.measure_qubit(self._state, qubit, rng)
        self._state = collapsed
        return outcome

    def fidelity_with(self, other: "DenseSimulator | np.ndarray") -> float:
        """Pure-state fidelity between this state and *other* (Eq. 9)."""

        other_state = other.state if isinstance(other, DenseSimulator) else other
        return measurement.state_fidelity(self._state, other_state)

    def norm_error(self) -> float:
        """Deviation of the state norm from 1 (numerical-drift check)."""

        return measurement.norm_error(self._state)


def simulate_statevector(
    circuit: QuantumCircuit, initial_state: int | np.ndarray | None = None
) -> np.ndarray:
    """Convenience helper: run *circuit* on a fresh dense simulator."""

    simulator = DenseSimulator(circuit.num_qubits, initial_state)
    simulator.apply_circuit(circuit)
    return simulator.statevector()

"""Measurement, sampling and state-comparison utilities.

The paper motivates full-state simulation with intermediate measurement and
full-state assertion checking (Section 1), so the reproduction exposes the
same capabilities against both the dense and the compressed simulators:
probabilities, marginal probabilities, sampling, projective measurement with
state collapse, expectation values and the pure-state fidelity of Eq. 9.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "probabilities",
    "marginal_probability",
    "sample_counts",
    "measure_qubit",
    "collapse_qubit",
    "expectation_z",
    "walsh_hadamard",
    "diagonal_partials",
    "state_fidelity",
    "normalize",
    "norm_error",
]


def probabilities(state: np.ndarray) -> np.ndarray:
    """Return ``|a_i|^2`` for every amplitude."""

    return np.abs(np.asarray(state)) ** 2


def normalize(state: np.ndarray) -> np.ndarray:
    """Return a unit-norm copy of *state* (no-op for the zero vector)."""

    state = np.asarray(state, dtype=np.complex128)
    norm = np.linalg.norm(state)
    if norm == 0.0:
        return state.copy()
    return state / norm


def norm_error(state: np.ndarray) -> float:
    """Absolute deviation of the squared norm from 1 (Eq. 4 check)."""

    return abs(float(np.sum(np.abs(state) ** 2)) - 1.0)


def marginal_probability(state: np.ndarray, qubit: int) -> float:
    """Probability of measuring ``|1>`` on *qubit*."""

    size = state.shape[0]
    num_qubits = size.bit_length() - 1
    if not 0 <= qubit < num_qubits:
        raise ValueError(f"qubit {qubit} out of range")
    view = np.abs(state.reshape(-1, 2, 1 << qubit)) ** 2
    return float(view[:, 1, :].sum())


def sample_counts(
    state: np.ndarray, shots: int, rng: np.random.Generator | None = None
) -> dict[int, int]:
    """Sample *shots* basis-state outcomes from the state distribution."""

    if shots < 0:
        raise ValueError("shots must be non-negative")
    if rng is None:
        rng = np.random.default_rng()
    probs = probabilities(state)
    total = probs.sum()
    if total <= 0:
        raise ValueError("cannot sample from a zero state")
    probs = probs / total
    outcomes = rng.choice(len(probs), size=shots, p=probs)
    counts: dict[int, int] = {}
    for outcome in outcomes:
        counts[int(outcome)] = counts.get(int(outcome), 0) + 1
    return counts


def measure_qubit(
    state: np.ndarray, qubit: int, rng: np.random.Generator | None = None
) -> tuple[int, np.ndarray]:
    """Projectively measure *qubit*; return (outcome, collapsed state).

    The input state is not modified; the collapsed state is renormalised.
    This supports the "intermediate measurement" use case highlighted in the
    paper's introduction.
    """

    if rng is None:
        rng = np.random.default_rng()
    p_one = marginal_probability(state, qubit)
    outcome = 1 if rng.random() < p_one else 0
    return outcome, collapse_qubit(state, qubit, outcome)


def collapse_qubit(state: np.ndarray, qubit: int, outcome: int) -> np.ndarray:
    """Project *state* onto ``qubit == outcome`` and renormalise."""

    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    size = state.shape[0]
    low = 1 << qubit
    collapsed = np.array(state, dtype=np.complex128, copy=True)
    view = collapsed.reshape(-1, 2, low)
    view[:, 1 - outcome, :] = 0.0
    norm = np.linalg.norm(collapsed)
    if norm == 0.0:
        raise ValueError(
            f"cannot collapse onto outcome {outcome}: probability is zero"
        )
    return collapsed / norm


def expectation_z(state: np.ndarray, qubit: int) -> float:
    """Expectation value of the Pauli-Z operator on *qubit*."""

    p_one = marginal_probability(state, qubit)
    return 1.0 - 2.0 * p_one


def walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh–Hadamard transform of a length-``2^k`` float vector.

    Entry ``s`` of the result is ``Σ_j values[j] · (-1)^{popcount(j & s)}``.
    Constant-geometry form: each of the ``k`` add/subtract passes pairs
    adjacent entries and writes their sums to the first half, their
    differences to the second, ping-ponging between *values* and one buffer
    of the same size — so *values* is overwritten, and the returned array
    is one of the two.
    """

    size = values.size
    half = size // 2
    src, dst = values, np.empty_like(values)
    for _ in range(size.bit_length() - 1):
        even, odd = src[0::2], src[1::2]
        np.add(even, odd, out=dst[:half])
        np.subtract(even, odd, out=dst[half:])
        src, dst = dst, src
    return src


def diagonal_partials(
    probs: np.ndarray, base: int, zmasks: Sequence[int]
) -> np.ndarray:
    """``Σ_j probs[j] · (-1)^{popcount((base + j) & zmask)}`` per *zmask*.

    *probs* is one block of ``|a|²`` whose first entry is basis state *base*
    (a multiple of the block size ``B``), and each *zmask* selects the
    qubits of one diagonal Pauli term, so this is the block's share of every
    term's expectation.  One :func:`walsh_hadamard` of the block serves every
    term: the in-block bits of a mask index the spectrum, and the bits above
    the block boundary see the same value for every amplitude, so they give
    one sign per block — the bit-mask algebra of
    :func:`repro.statevector.ops.block_phase`.  *probs* is overwritten.
    """

    if not zmasks:
        return np.empty(0)
    local = probs.size - 1
    spectrum = walsh_hadamard(probs)
    return np.array(
        [
            -spectrum[zmask & local]
            if (base & zmask).bit_count() & 1
            else spectrum[zmask & local]
            for zmask in zmasks
        ]
    )


def state_fidelity(state_a: np.ndarray, state_b: np.ndarray) -> float:
    """Pure-state fidelity ``|<a|b>|`` (Eq. 9 of the paper)."""

    a = np.asarray(state_a, dtype=np.complex128).ravel()
    b = np.asarray(state_b, dtype=np.complex128).ravel()
    if a.shape != b.shape:
        raise ValueError("states must have the same dimension")
    return float(abs(np.vdot(a, b)))

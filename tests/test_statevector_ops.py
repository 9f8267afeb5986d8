"""Unit tests for the vectorised gate kernels (repro.statevector.ops).

The controlled 2x2 update is compared byte for byte with the index-array
kernel it replaced, and a 2x2 on the top bit of two blocks side by side with
the pairwise block-pair kernel (:mod:`reference_kernels`).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels
from repro.circuits import gates, standard_gate
from repro.core import ScratchPool
from repro.core.kernel import BlockKernel, resolve_step
from repro.statevector import ops


def _dense_single_qubit_operator(matrix: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    """Eq. 5: build the full 2^n x 2^n operator by Kronecker products."""

    operator = np.array([[1.0]], dtype=complex)
    for position in reversed(range(num_qubits)):
        factor = matrix if position == qubit else np.eye(2)
        operator = np.kron(operator, factor)
    return operator


def _random_state(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    state = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return state / np.linalg.norm(state)


class TestApplySingleQubit:
    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 5])
    @pytest.mark.parametrize("gate_name", ["h", "x", "t", "sx"])
    def test_matches_kronecker_construction(self, num_qubits, gate_name, rng):
        matrix = gates.GATE_ALIASES[gate_name]
        for qubit in range(num_qubits):
            state = _random_state(num_qubits, rng)
            expected = _dense_single_qubit_operator(matrix, qubit, num_qubits) @ state
            actual = state.copy()
            ops.apply_single_qubit(actual, matrix, qubit)
            assert np.allclose(actual, expected, atol=1e-12)

    def test_preserves_norm(self, rng):
        state = _random_state(6, rng)
        ops.apply_single_qubit(state, gates.H, 3)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_qubit(self, rng):
        state = _random_state(3, rng)
        with pytest.raises(ValueError):
            ops.apply_single_qubit(state, gates.H, 3)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            ops.apply_single_qubit(np.zeros(6, dtype=complex), gates.H, 0)

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            ops.apply_single_qubit(np.zeros((2, 2), dtype=complex), gates.H, 0)


class TestApplyControlled:
    def test_cnot_truth_table(self):
        # CNOT with control 1, target 0 on computational basis states.
        for control_value in (0, 1):
            for target_value in (0, 1):
                index = (control_value << 1) | target_value
                state = np.zeros(4, dtype=complex)
                state[index] = 1.0
                ops.apply_controlled_single_qubit(state, gates.X, 0, (1,))
                expected_target = target_value ^ control_value
                expected_index = (control_value << 1) | expected_target
                assert np.argmax(np.abs(state)) == expected_index

    @pytest.mark.parametrize("num_qubits", [2, 3, 4])
    def test_matches_dense_controlled_operator(self, num_qubits, rng):
        state = _random_state(num_qubits, rng)
        control, target = 1, 0
        # Build controlled-U densely: identity on |control=0>, U on |control=1>.
        dim = 1 << num_qubits
        operator = np.eye(dim, dtype=complex)
        u = gates.T
        for index in range(dim):
            if (index >> control) & 1 and not (index >> target) & 1:
                j = index | (1 << target)
                operator[index, index] = u[0, 0]
                operator[index, j] = u[0, 1]
                operator[j, index] = u[1, 0]
                operator[j, j] = u[1, 1]
        expected = operator @ state
        actual = state.copy()
        ops.apply_controlled_single_qubit(actual, u, target, (control,))
        assert np.allclose(actual, expected, atol=1e-12)

    def test_toffoli_only_flips_when_both_controls_set(self):
        state = np.zeros(8, dtype=complex)
        state[0b011] = 1.0  # controls (bits 0,1) set, target bit 2 clear
        ops.apply_controlled_single_qubit(state, gates.X, 2, (0, 1))
        assert np.argmax(np.abs(state)) == 0b111

        state = np.zeros(8, dtype=complex)
        state[0b001] = 1.0  # only one control set
        ops.apply_controlled_single_qubit(state, gates.X, 2, (0, 1))
        assert np.argmax(np.abs(state)) == 0b001

    def test_empty_controls_falls_back_to_single_qubit(self, rng):
        state = _random_state(3, rng)
        expected = state.copy()
        ops.apply_single_qubit(expected, gates.H, 1)
        actual = state.copy()
        ops.apply_controlled_single_qubit(actual, gates.H, 1, ())
        assert np.allclose(actual, expected)

    def test_control_equals_target_rejected(self, rng):
        state = _random_state(3, rng)
        with pytest.raises(ValueError):
            ops.apply_controlled_single_qubit(state, gates.X, 1, (1,))

    def test_control_out_of_range_rejected(self, rng):
        state = _random_state(3, rng)
        with pytest.raises(ValueError):
            ops.apply_controlled_single_qubit(state, gates.X, 1, (5,))


@st.composite
def controlled_updates(draw):
    """A ``2^1``–``2^12``-amplitude vector, a target, 0–3 distinct controls
    above and below it in any order, and a random complex 2x2."""

    num_qubits = draw(st.integers(min_value=1, max_value=12))
    qubits = draw(st.permutations(range(num_qubits)))
    num_controls = draw(st.integers(min_value=0, max_value=min(3, num_qubits - 1)))
    entries = st.complex_numbers(
        max_magnitude=4.0, allow_nan=False, allow_infinity=False
    )
    matrix = np.array(
        [[draw(entries), draw(entries)], [draw(entries), draw(entries)]],
        dtype=np.complex128,
    )
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    size = 1 << num_qubits
    state = rng.normal(size=size) + 1j * rng.normal(size=size)
    # Signed zeros in both parts, where the arithmetic's sign rules show.
    state[rng.random(size) < 0.2] = complex(-0.0, 0.0)
    state[rng.random(size) < 0.2] = complex(0.0, -0.0)
    return state, matrix, qubits[0], tuple(qubits[1 : 1 + num_controls])


class TestControlledMatchesIndexArrays:
    @given(controlled_updates())
    @settings(max_examples=300, deadline=None)
    def test_bytes_equal_the_index_array_kernel(self, case):
        state, matrix, target, controls = case
        expected = state.copy()
        reference_kernels.apply_controlled_single_qubit(
            expected, matrix, target, controls
        )
        ops.apply_controlled_single_qubit(state, matrix, target, controls)
        assert state.tobytes() == expected.tobytes()


#: Local controls of a block-pair 2x2, as a function of the buffer's top
#: bit: none, the lowest in-block bit, and the lowest and highest.
PAIR_CONTROLS = {
    "uncontrolled": lambda top: (),
    "lowest": lambda top: (0,),
    "lowest-and-highest": lambda top: (0, top - 1),
}


class TestPairwiseKernel:
    """Two blocks side by side are one buffer whose top bit is the pair's
    target: a 2x2 on that bit is the pairwise update of the two blocks, the
    identity the block kernel's virtual block rests on."""

    @staticmethod
    def _pair(rng, size: int) -> np.ndarray:
        """Two *size*-amplitude blocks side by side, with zeros of both signs."""

        pair = rng.normal(size=2 * size) + 1j * rng.normal(size=2 * size)
        parts = pair.view(np.float64)
        zeros = rng.random(parts.size) < 0.25
        parts[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
        return pair

    @staticmethod
    def _oracle(pair: np.ndarray, matrix: np.ndarray, controls) -> np.ndarray:
        size = pair.size // 2
        offsets = np.arange(size)
        mask = None  # uncontrolled: the oracle's unmasked form
        for control in controls:
            bit = (offsets >> control & 1).astype(bool)
            mask = bit if mask is None else mask & bit
        out = pair.copy()
        reference_kernels.apply_single_qubit_pairwise_masked(
            out[:size], out[size:], matrix, mask
        )
        return out

    @pytest.mark.parametrize("controls_of", list(PAIR_CONTROLS))
    @pytest.mark.parametrize("top", [4, 10, 16])
    def test_top_bit_2x2_is_the_pairwise_update_bit_for_bit(
        self, top, controls_of, rng
    ):
        # Entries that are not powers of two, so an operand-order change in
        # the complex multiply shows in the last bit.
        matrix = gates.u3(0.7, 0.3, -1.1)
        controls = PAIR_CONTROLS[controls_of](top)
        pair = self._pair(rng, 1 << top)
        assert (np.signbit(pair.real) & (pair.real == 0)).any()
        expected = self._oracle(pair, matrix, controls)
        ops.apply_controlled_single_qubit(pair, matrix, top, controls)
        assert np.array_equal(pair.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("controls_of", list(PAIR_CONTROLS))
    @pytest.mark.parametrize("name, params", [("t", ()), ("rz", (0.37,))])
    def test_top_bit_diagonal_equals_the_pairwise_update(
        self, name, params, controls_of, rng
    ):
        # A phase's contract: equal values, a zero's sign may differ.
        top = 10
        controls = PAIR_CONTROLS[controls_of](top)
        matrix = standard_gate(name, top, params=params).matrix
        pair = self._pair(rng, 1 << top)
        expected = self._oracle(pair, matrix, controls)
        kernel = BlockKernel(ScratchPool(1 << top))
        step = resolve_step(pair.size, matrix, 1 << top, 0, controls, 0, False)
        kernel._apply_step(pair, 0, step)
        assert np.array_equal(pair, expected)


class TestApplyPhase:
    """A diagonal gate above the block, seen from one block at a time."""

    #: 13 qubits: the target (12) splits the vector into two 4096-amplitude
    #: contiguous halves, each one "block" of uniform target bit.
    NUM_QUBITS = 13

    @pytest.mark.parametrize(
        "name, params, controls",
        [
            ("z", (), ()),
            ("t", (), ()),
            ("rz", (0.37,), ()),
            ("p", (1.1,), ()),
            ("p", (-2.3,), (3,)),  # cp under a control inside the block
        ],
    )
    def test_equals_the_pairwise_update_bit_for_bit(self, name, params, controls, rng):
        # NumPy's SIMD complex multiply is fused and not operand-symmetric:
        # x * phase differs from phase * x in the last bit, and only the
        # scalar-first order is what the 2x2 kernels compute.
        target = self.NUM_QUBITS - 1
        gate = standard_gate(name, target, controls=controls, params=params)
        state = rng.normal(size=1 << self.NUM_QUBITS) + 1j * rng.normal(
            size=1 << self.NUM_QUBITS
        )
        expected = state.copy()
        ops.apply_controlled_single_qubit(expected, gate.matrix, target, controls)
        half = 1 << target
        shape, ((_, where),) = ops.slab(half, 0, controls)
        for side in (0, 1):
            block = state[side * half : (side + 1) * half].copy()
            assert block.size >= 4096
            ops.apply_phase(block.reshape(shape)[where], gate.matrix[side, side])
            assert np.array_equal(block, expected[side * half : (side + 1) * half])

    @pytest.mark.parametrize("controls", [(), (2,)])
    def test_keeps_zeros_positive(self, controls):
        # (-1+0j) * (0+0j) is -0.0+0.0j; the pairwise sum 0*low + m11*high
        # yields +0, and so must this: a zero block has to stay byte-equal to
        # the compressor's zero blob.
        block = np.zeros(16, dtype=np.complex128)
        shape, ((_, where),) = ops.slab(16, 0, controls)
        for phase in (gates.Z[1, 1], gates.phase(2.0)[1, 1], gates.rz(-1.0)[0, 0]):
            ops.apply_phase(block.reshape(shape)[where], phase)
            assert block.tobytes() == bytes(16 * 16)


class TestSlab:
    """The one layout every in-block update selects its amplitudes from."""

    @pytest.mark.parametrize(
        "bits, controls", [(0, ()), (0, (2,)), (0b100000, (1, 3)), (0b10010, (0,))]
    )
    def test_selections_are_views_of_the_masked_offsets(self, bits, controls):
        size = 64
        offsets = np.arange(size)
        shape, selections = ops.slab(size, bits, controls)
        assert len(selections) == 1 << bits.bit_count()
        control_mask = reference_kernels.local_control_mask(size, controls)
        if control_mask is None:
            control_mask = np.ones(size, dtype=bool)
        seen = []
        for parity, where in selections:
            selected = offsets.reshape(shape)[where]
            assert np.shares_memory(selected, offsets)  # a view, not a copy
            value = int(selected.flat[0]) & bits
            seen.append(value)
            assert parity == value.bit_count() & 1
            expected = offsets[control_mask & ((offsets & bits) == value)]
            assert np.array_equal(np.sort(selected, axis=None), expected)
        assert seen == sorted(seen)

    def test_is_validated(self):
        with pytest.raises(ValueError, match="power of two"):
            ops.slab(48, 1, ())
        with pytest.raises(ValueError, match="out of range"):
            ops.slab(16, 1 << 4, ())
        with pytest.raises(ValueError, match="out of range"):
            ops.slab(16, 1, (4,))
        with pytest.raises(ValueError, match="equals target"):
            ops.slab(16, 0b11, (1,))


class TestParityClasses:
    """The class vector the gathered phase indexes its two entries with."""

    @pytest.mark.parametrize("bits", [0, 0b1, 0b100000, 0b10010])
    def test_is_each_offsets_parity_read_only(self, bits):
        classes = ops.parity_classes(64, bits)
        expected = reference_kernels.local_parity_mask(64, bits)
        assert classes.dtype == np.uint8
        assert np.array_equal(classes, expected.astype(np.uint8))
        assert not classes.flags.writeable  # one cached array for every caller

    def test_is_validated(self):
        with pytest.raises(ValueError, match="power of two"):
            ops.parity_classes(48, 1)
        with pytest.raises(ValueError, match="out of range"):
            ops.parity_classes(16, 1 << 4)


class TestApplyGateToVector:
    def test_dispatches_on_controls(self, rng):
        state = _random_state(4, rng)
        uncontrolled = standard_gate("h", 2)
        controlled = standard_gate("x", 0, controls=(3,))
        a = state.copy()
        ops.apply_gate_to_vector(a, uncontrolled)
        b = state.copy()
        ops.apply_single_qubit(b, gates.H, 2)
        assert np.allclose(a, b)

        a = state.copy()
        ops.apply_gate_to_vector(a, controlled)
        b = state.copy()
        ops.apply_controlled_single_qubit(b, gates.X, 0, (3,))
        assert np.allclose(a, b)

"""Vectorised state-vector gate kernels.

These kernels implement Eq. 6 / Eq. 7 of the paper: applying a single-qubit
unitary ``U`` to qubit ``k`` multiplies every amplitude pair whose indices
differ only in bit ``k`` by ``U``; a controlled gate does the same but only
for pairs whose control bits are all 1.

The functions operate *in place* on a flat ``complex128`` array whose length
is a power of two.  They are shared by

* the dense reference simulator (:mod:`repro.statevector.dense`), which calls
  them on the full ``2^n`` vector, and
* the block kernel (:mod:`repro.core.kernel`), which calls them on a
  *virtual block*: the one or two decompressed blocks of a task side by side
  in one scratch buffer, where the planner has already translated each qubit
  to a bit of that buffer — an in-block qubit to its own bit, a staged
  non-local target to the bit above the block.  A block pair's 2x2 is then
  an ordinary 2x2 on the buffer's top bit.

Following the HPC-Python guidance, all pair selection is done with reshapes
and strided views — no Python-level loops over amplitudes: a (controlled) 2x2
reshapes the vector so its target and every control is a length-2 axis, and
indexes the two sides as views.  An exactly diagonal 2x2 (:func:`apply_diagonal`)
is a phase on the side(s) whose entry is not exactly 1; like every phase here
(:func:`apply_phase`) it equals the 2x2's values, and a zero's sign may differ.
The kernel's other updates — a phase above the block under local controls,
a parity phase on two or more bits of the buffer — select amplitudes with
boolean masks.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "apply_single_qubit",
    "apply_phase",
    "block_phase",
    "local_parity_mask",
    "apply_controlled_single_qubit",
    "apply_diagonal",
    "local_control_mask",
    "apply_gate_to_vector",
]


@lru_cache(maxsize=256)
def _slab(
    size: int, target: int, controls: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple, tuple]:
    """The strided layout of a (controlled) 2x2 on a *size*-amplitude vector.

    Returns ``(shape, low, high)``: reshaped to *shape*, the vector has one
    length-2 axis per bit of *target* and *controls*, and indexing it with
    *low* / *high* (basic indices, so views) selects the amplitudes whose
    control bits are all 1 and whose target bit is 0 / 1.  The layout is a
    pure function of its arguments, so it is built — and validated — once.
    """

    if size == 0 or size & (size - 1):
        raise ValueError(f"state vector length {size} is not a power of two")
    num_qubits = size.bit_length() - 1
    if not 0 <= target < num_qubits:
        raise ValueError(f"qubit {target} out of range for {num_qubits}-qubit state")
    for control in controls:
        if not 0 <= control < num_qubits:
            raise ValueError(
                f"control qubit {control} out of range for {num_qubits}-qubit state"
            )
        if control == target:
            raise ValueError("control qubit equals target qubit")
    shape: list[int] = []
    low: list = []
    high: list = []
    above = num_qubits
    for bit in sorted({target, *controls}, reverse=True):
        shape += [1 << (above - bit - 1), 2]
        low += [slice(None), 0 if bit == target else 1]
        high += [slice(None), 1]
        above = bit
    shape.append(1 << above)
    low.append(slice(None))
    high.append(slice(None))
    return tuple(shape), tuple(low), tuple(high)


def _sides(
    state: np.ndarray, target: int, controls: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Views of the amplitudes a 2x2 on *target* under *controls* pairs up:
    those with the target bit 0 and their partners with it 1."""

    if state.ndim != 1:
        raise ValueError("state vector must be one-dimensional")
    shape, low, high = _slab(state.shape[0], target, controls)
    view = state.reshape(shape)
    return view[low], view[high]


def apply_single_qubit(state: np.ndarray, matrix: np.ndarray, qubit: int) -> None:
    """Apply a 2x2 *matrix* to bit position *qubit* of *state*, in place.

    The uncontrolled :func:`apply_controlled_single_qubit`: the vector is
    viewed as a ``(high, 2, low)`` tensor where ``low = 2**qubit``, axis 1
    enumerates the qubit value, and the update is two fused scalar-vector
    multiply-adds over its two sides.
    """

    apply_controlled_single_qubit(state, matrix, qubit, ())


def apply_phase(
    vector: np.ndarray, phase: complex, mask: np.ndarray | None = None
) -> None:
    """Multiply the amplitudes *mask* selects by the scalar *phase*, in place.

    This is a diagonal gate on a target above the block boundary, seen from
    one block: every amplitude of the block has the same target bit ``b``, so
    the update is ``m[b, b] * x`` under the local-control mask — no partner
    block is read.  A parity phase ``d`` on ``x_c ⊕ x_t`` is the same update
    on the amplitudes of one parity (the mask, :func:`local_parity_mask`,
    combined with the controls').

    It computes ``phase * x + 0.0``.  The contract with the 2x2 update
    ``phase * x + 0 * partner`` is *equal values; a zero's sign may differ*:
    where ``phase * x`` and ``0 * partner`` are both ``-0.0`` the 2x2's
    sum is ``-0.0`` and this is ``+0.0``.  Every phase in this module
    (:func:`apply_diagonal` too) holds that contract.

    * scalar first, the operand order :func:`apply_single_qubit` uses
      (``u00 * a``) — NumPy's SIMD complex multiply is fused and not
      operand-symmetric, ``x * phase`` can differ in the last bit;
    * ``+ 0.0`` turns the ``-0.0`` of e.g. ``(-1+0j) * (0+0j)`` into
      ``+0.0``, so an all-zero block stays byte-equal to its compressor's
      zero blob.
    """

    if mask is None:
        vector[:] = phase * vector + 0.0
    else:
        vector[mask] = phase * vector[mask] + 0.0


def block_phase(matrix: np.ndarray, bits: int, index: int) -> complex | None:
    """The phase a diagonal *matrix* multiplies one whole block by, or
    ``None`` when it is exactly 1 and the block is left alone.

    *bits* is a mask over the global block index *index*: the qubits above
    the block boundary whose parity selects the diagonal entry, so every
    amplitude of the block sees the same parity ``b`` of ``index & bits``
    and the phase is ``matrix[b, b]``.  A diagonal gate on a non-local
    target is the one-bit case; a parity phase ``d`` on ``x_c ⊕ x_t`` is
    two bits (``0`` when both lie inside the block: ``b = 0``).  Planner and
    kernel both ask here, so a block is staged exactly when it is changed.
    """

    side = (index & bits).bit_count() & 1
    phase = matrix[side, side]
    return None if phase == 1 else phase


def local_parity_mask(size: int, bits: int) -> np.ndarray:
    """Boolean mask over *size* block offsets whose *bits* have odd parity.

    The in-block half of a parity phase: with the block-index parity ``b``
    (:func:`block_phase`), offsets outside the mask take ``m[b, b]`` and
    offsets inside it take the other diagonal entry.
    """

    offsets = np.arange(size, dtype=np.int64)
    odd = np.zeros(size, dtype=bool)
    for bit in range(bits.bit_length()):
        if bits >> bit & 1:
            odd ^= (offsets >> bit & 1).astype(bool)
    return odd


def local_control_mask(
    size: int, local_controls: tuple[int, ...]
) -> np.ndarray | None:
    """Boolean mask over *size* block offsets whose control bits are all 1.

    ``None`` when there are no local controls (the uncontrolled fast path).
    Every tier's block kernel derives its masks here, so a plan's
    ``local_controls`` yield byte-identical masks wherever the task runs.
    """

    if not local_controls:
        return None
    control_bits = 0
    for control in local_controls:
        control_bits |= 1 << control
    offsets = np.arange(size, dtype=np.int64)
    return (offsets & control_bits) == control_bits


def apply_controlled_single_qubit(
    state: np.ndarray,
    matrix: np.ndarray,
    qubit: int,
    control_qubits: tuple[int, ...],
) -> None:
    """Apply *matrix* to *qubit* only where every control bit is 1, in place.

    The pairs are two strided views of *state* (:func:`_slab`) and the update
    is ``u00 * a + u01 * b``, ``u10 * a + u11 * b`` over them.
    """

    a, b = _sides(state, qubit, tuple(control_qubits))
    u00, u01 = matrix[0, 0], matrix[0, 1]
    u10, u11 = matrix[1, 0], matrix[1, 1]
    new_a = u00 * a + u01 * b
    new_b = u10 * a + u11 * b
    a[...] = new_a
    b[...] = new_b


def apply_diagonal(
    state: np.ndarray,
    matrix: np.ndarray,
    qubit: int,
    controls: tuple[int, ...],
) -> None:
    """Apply an exactly diagonal *matrix* to *qubit* where every control bit
    is 1, in place.

    Only a side whose entry is not exactly 1 is touched: :func:`apply_phase`
    on that side's strided view, with its contract — the values equal
    :func:`apply_controlled_single_qubit`'s, a zero's sign may differ.
    A side at 1 keeps its bytes, ``-0.0`` included, where the 2x2 would
    rewrite it as ``1 * x + 0 * partner``.
    """

    for side, x in enumerate(_sides(state, qubit, tuple(controls))):
        phase = matrix[side, side]
        if phase != 1:
            apply_phase(x, phase)


def apply_gate_to_vector(state: np.ndarray, gate) -> None:
    """Apply a :class:`repro.circuits.Gate` to a full state vector, in place."""

    apply_controlled_single_qubit(state, gate.matrix, gate.target, gate.controls)

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

Following the HPC-Python guidance, every update selects its amplitudes as
strided views of one cached layout (:func:`slab`) — no Python-level loops
over amplitudes, no index arrays or boolean masks: the vector is reshaped so
each qubit the update reads is a length-2 axis, and basic indexing picks one
side of those axes.  A (controlled) 2x2 mixes the two sides of its target;
a phase (:func:`apply_phase`) multiplies one side by a scalar.  The block
kernel applies an exactly diagonal 2x2 or a parity phase as a phase on each
side whose entry (:func:`block_phase`) is not exactly 1: the values equal
the 2x2's, and a zero's sign may differ.  On a small vector a phase that
moves every amplitude is instead one gathered multiply over the whole vector
— one ufunc set-up rather than one per view — (:func:`apply_phase_table` on
the cached :func:`parity_classes`), with the same operands per amplitude.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "apply_single_qubit",
    "apply_phase",
    "apply_phase_table",
    "block_phase",
    "parity_classes",
    "slab",
    "apply_controlled_single_qubit",
    "apply_gate_to_vector",
]


@lru_cache(maxsize=256)
def slab(
    size: int, bits: int, controls: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[tuple[int, tuple], ...]]:
    """The strided layout of an update on the qubits of the mask *bits* under
    *controls*, on a *size*-amplitude vector.

    Returns ``(shape, selections)``: reshaped to *shape*, the vector has one
    length-2 axis per qubit of *bits* and per control.  There is one
    ``(parity, index)`` selection per assignment of the *bits* qubits, in
    increasing order of the assignment's value: indexing the reshaped vector
    with *index* (basic indices, so a view) selects the amplitudes with that
    assignment and every control bit 1, and *parity* is the parity of the
    assignment's set bits.  A one-bit mask gives a 2x2's two sides, target
    bit 0 then 1; an empty mask the one side a phase under *controls* moves.
    The layout is a pure function of its arguments, so it is built — and
    validated — once.
    """

    if size == 0 or size & (size - 1):
        raise ValueError(f"state vector length {size} is not a power of two")
    num_qubits = size.bit_length() - 1
    if bits < 0 or bits >> num_qubits:
        raise ValueError(
            f"qubit mask {bits:#b} out of range for {num_qubits}-qubit state"
        )
    for control in controls:
        if not 0 <= control < num_qubits:
            raise ValueError(
                f"control qubit {control} out of range for {num_qubits}-qubit state"
            )
        if bits >> control & 1:
            raise ValueError("control qubit equals target qubit")
    qubits = [qubit for qubit in range(num_qubits) if bits >> qubit & 1]
    assignments = [0]
    for qubit in qubits:  # ascending qubits keep the values increasing
        assignments += [value | 1 << qubit for value in assignments]
    axes = sorted({*qubits, *controls}, reverse=True)
    shape: list[int] = []
    above = num_qubits
    for qubit in axes:
        shape += [1 << (above - qubit - 1), 2]
        above = qubit
    shape.append(1 << above)
    selections = []
    for value in assignments:
        index: list = []
        for qubit in axes:
            index += [slice(None), value >> qubit & 1 if qubit in qubits else 1]
        index.append(slice(None))
        selections.append((value.bit_count() & 1, tuple(index)))
    return tuple(shape), tuple(selections)


def _sides(
    state: np.ndarray, target: int, controls: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Views of the amplitudes a 2x2 on *target* under *controls* pairs up:
    those with the target bit 0 and their partners with it 1."""

    if state.ndim != 1:
        raise ValueError("state vector must be one-dimensional")
    shape, ((_, low), (_, high)) = slab(state.shape[0], 1 << target, controls)
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


def apply_phase(vector: np.ndarray, phase: complex) -> None:
    """Multiply every amplitude of *vector* by the scalar *phase*, in place.

    *vector* is one side of a :func:`slab` layout: the amplitudes of a block
    that share one assignment of the bits a diagonal reads — every amplitude,
    for a diagonal gate on a target above the block boundary; one side of
    an in-block target; one assignment of a parity phase's in-block bits —
    under the local controls.  No partner amplitude is read.

    It computes ``phase * x + 0.0``.  The contract with the 2x2 update
    ``phase * x + 0 * partner`` is *equal values; a zero's sign may differ*:
    where ``phase * x`` and ``0 * partner`` are both ``-0.0`` the 2x2's
    sum is ``-0.0`` and this is ``+0.0``.

    * scalar first, the operand order :func:`apply_single_qubit` uses
      (``u00 * a``) — NumPy's SIMD complex multiply is fused and not
      operand-symmetric, ``x * phase`` can differ in the last bit;
    * ``+ 0.0`` turns the ``-0.0`` of e.g. ``(-1+0j) * (0+0j)`` into
      ``+0.0``, so an all-zero block stays byte-equal to its compressor's
      zero blob.
    """

    vector[...] = phase * vector + 0.0


@lru_cache(maxsize=64)
def parity_classes(size: int, bits: int) -> np.ndarray:
    """The parity of each offset's *bits* on a *size*-amplitude vector: a
    read-only ``uint8`` array of 0s and 1s, the class
    :func:`apply_phase_table` indexes its table with.  Cached, so build it
    only for the small vectors the gathered phase is used on.
    """

    if size == 0 or size & (size - 1):
        raise ValueError(f"state vector length {size} is not a power of two")
    if bits < 0 or bits >> (size.bit_length() - 1):
        raise ValueError(f"qubit mask {bits:#b} out of range for {size} amplitudes")
    offsets = np.arange(size)
    classes = np.zeros(size, dtype=np.uint8)
    for qubit in range(bits.bit_length()):
        if bits >> qubit & 1:
            classes ^= (offsets >> qubit & 1).astype(np.uint8)
    classes.flags.writeable = False
    return classes


def apply_phase_table(
    vector: np.ndarray, table: np.ndarray, classes: np.ndarray
) -> None:
    """Multiply each amplitude of *vector* by its class's entry of *table*,
    in place: ``vector[...] = table[classes] * vector + 0.0``.

    *classes* is a :func:`parity_classes` array over *vector*, *table* the
    two entries of parity 0 and 1.  Per amplitude these are
    :func:`apply_phase`'s operands in its order, so the bytes are those of a
    phase on each side — but an entry of exactly 1 is multiplied too, which
    rewrites a ``-0.0``: use it only when neither entry is 1.
    """

    np.multiply(table.take(classes), vector, out=vector)
    np.add(vector, 0.0, out=vector)


def block_phase(matrix: np.ndarray, bits: int) -> complex | None:
    """The diagonal entry ``matrix[p, p]`` where ``p`` is the parity of
    *bits*, or ``None`` when it is exactly 1 and its amplitudes are left
    alone (a side at 1 keeps its bytes, ``-0.0`` included, where the 2x2
    would rewrite it as ``1 * x + 0 * partner``).

    The planner asks with the bits of a block's global index that a diagonal
    reads above the block boundary — the target of a diagonal gate on a
    non-local qubit, or a parity phase's ``x_c ⊕ x_t`` bits there — so every
    amplitude of the block sees the same entry.  The kernel asks for both
    entries of each phase step, once per plan.  Both ask here, so a block is
    staged exactly when it is changed.
    """

    side = bits.bit_count() & 1
    phase = matrix[side, side]
    return None if phase == 1 else phase


def apply_controlled_single_qubit(
    state: np.ndarray,
    matrix: np.ndarray,
    qubit: int,
    control_qubits: tuple[int, ...],
) -> None:
    """Apply *matrix* to *qubit* only where every control bit is 1, in place.

    The pairs are two strided views of *state* (:func:`slab`) and the update
    is ``u00 * a + u01 * b``, ``u10 * a + u11 * b`` over them.
    """

    a, b = _sides(state, qubit, tuple(control_qubits))
    u00, u01 = matrix[0, 0], matrix[0, 1]
    u10, u11 = matrix[1, 0], matrix[1, 1]
    new_a = u00 * a + u01 * b
    new_b = u10 * a + u11 * b
    a[...] = new_a
    b[...] = new_b


def apply_gate_to_vector(state: np.ndarray, gate) -> None:
    """Apply a :class:`repro.circuits.Gate` to a full state vector, in place."""

    apply_controlled_single_qubit(state, gate.matrix, gate.target, gate.controls)

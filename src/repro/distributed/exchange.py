"""Gate-to-communication planning.

Given a :class:`~repro.distributed.partition.Partition` and a schedule
element (a gate, a :class:`~repro.circuits.fusion.ParityPhase`, or a
:class:`~repro.circuits.fusion.Run`), this module answers what the element
needs staged:

* which blocks it touches at all — block- and rank-level controls prune
  whole blocks and ranks, and a diagonal step skips the blocks it multiplies
  by exactly 1;
* which of them have to be co-resident in scratch memory as a pair — only
  those a step actually *mixes*: a diagonal gate or parity phase never mixes
  an amplitude pair, so wherever its qubits lie it plans one block at a
  time, and when it rides a pair run it reads each staged block at that
  block's own index;
* whether those pairs require inter-rank exchanges (all of them or none);
  and
* where each step's qubits land (:class:`BlockOp`): a task's blocks are
  staged side by side as one *virtual block* (:class:`GatePlan`), the staged
  target as the bit above the block, so every step — a pair's 2x2 included
  — is an in-block step there, and what is left of its controls and parity
  is a mask over the global block index.

Keeping the planning separate from the execution makes the index arithmetic
(the trickiest part of Section 3.3) directly unit-testable against a dense
reference, and leaves the kernel one step path with no qubit arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from ..circuits.fusion import Run, Step, constituents, parity_of
from ..compression.interface import Compressor
from ..statevector.ops import block_phase
from .partition import Partition, QubitSegment

__all__ = ["BlockOp", "GatePlan", "plan_gate"]


class BlockOp(NamedTuple):
    """One schedule element — a gate or a :class:`~repro.circuits.fusion.Run`
    — as the block tasks of its plan see it.

    The first six fields are parallel, one entry per step, and written over
    a task's virtual block (:class:`GatePlan`): step ``i`` applies
    ``matrices[i]`` on the parity of ``local_parities[i]`` and
    ``block_parities[i]`` under ``local_controls[i]`` on the blocks
    ``block_controls[i]`` lets through, as a 2x2 on one bit of the virtual
    block when ``mixes[i]``, else as a phase.  A gate is one step.  The fields are
    flat (one array, ints and tuples of ints) because the op rides every
    ranked-tier gate message.  :func:`plan_gate` leaves ``compressor`` unset
    (``None``); the simulator sets it and appends its ``describe()`` to
    ``op_key`` before running the plan.
    """

    #: The 2x2 unitaries, stacked: shape ``(steps, 2, 2)``.
    matrices: np.ndarray
    #: Per step, the virtual-block bits of its target or parity
    #: (:func:`~repro.circuits.fusion.parity_of`).
    local_parities: tuple[int, ...]
    #: Per step, the rest of its parity as a mask over the global block index
    #: ``rank * blocks_per_rank + block`` (a non-local qubit ``q`` is bit
    #: ``q - offset_bits``); a staged target is never in it.
    block_parities: tuple[int, ...]
    #: Per step, the controls that must be applied per amplitude inside the
    #: virtual block — a control on a staged target among them.
    local_controls: tuple[tuple[int, ...], ...]
    #: Per step, its other controls as a mask over the global block index.
    #: A pair plan's tasks are already pruned by its pair steps' mask; the
    #: kernel tests it per task and step.
    block_controls: tuple[int, ...]
    #: Per step, whether it mixes the two sides of its target — a 2x2 that
    #: is not exactly diagonal, always on one bit of the virtual block.
    #: Every other step (a diagonal 2x2, a parity phase) is a phase.
    mixes: tuple[bool, ...]
    #: The block-index bits a task reads: every step's ``block_controls`` and
    #: ``block_parities``.
    index_mask: int
    #: Compressor for the output blobs (the controller's current level).
    compressor: Compressor
    #: Block-cache ``OP`` field: the gate's key — or the run's, one gate key
    #: per step — plus ``compressor.describe()`` once the simulator sets it.
    op_key: tuple


@dataclass(frozen=True)
class GatePlan:
    """Everything a tier's state needs to run one gate, or one
    :class:`~repro.circuits.fusion.Run`, over its blocks.

    Each task is the tuple of global block indices (``rank *
    blocks_per_rank + block``) it stages, in virtual-block order: ``(i,)``,
    or a pair ``(i, i | target_bit)``.  A task stages its blocks side by
    side in one scratch buffer, a *virtual block* of ``2^k`` blocks for
    ``k = len(staged)``: bit ``i`` of an offset is qubit ``i`` below
    ``offset_bits``, and bit ``offset_bits + i`` is the staged non-local
    target ``staged[i]``.  :attr:`op`'s per-step fields are written over
    that buffer and the global block index of the task's first block, so the
    kernel never maps a qubit itself.
    """

    segment: QubitSegment
    tasks: tuple[tuple[int, ...], ...]
    #: The non-local targets a task stages, in virtual-bit order: one for a
    #: pair plan, none for a one-block plan.
    staged: tuple[int, ...]
    #: The element's steps as every task applies them.
    op: BlockOp
    #: Number of inter-rank block exchanges: every task of a RANK-segment
    #: pair plan crosses ranks, no task of any other plan does.
    exchange_count: int

    @property
    def touched_buffers(self) -> int:
        """Total buffer stagings the plan implies (cache misses pay these)."""

        return sum(len(task) for task in self.tasks)

    # Kept only for benchmarks/e2e/e2e_trace.py (its ``exchange.waves``
    # metric); no tier reads it.
    def independent_groups(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Partition the tasks into waves of mutually independent tasks.

        Two tasks are independent when their block index sets are disjoint.
        :func:`plan_gate` stages every block at most once, so its plans are
        always one wave.  Waves cut the task list at the first block
        conflict, never hoisting a later task past a conflicting earlier one.
        """

        waves: list[list[tuple[int, ...]]] = []
        used: set[int] = set()
        for task in self.tasks:
            if not waves or used.intersection(task):
                waves.append([])
                used = set()
            waves[-1].append(task)
            used.update(task)
        return tuple(tuple(wave) for wave in waves)


def _split(
    qubits: Iterable[int], offset_bits: int, staged: tuple[int, ...]
) -> tuple[tuple[int, ...], int]:
    """Split *qubits* into virtual-block bits (see :class:`GatePlan`) and a
    mask of the others over the global block index."""

    local, mask = [], 0
    for qubit in qubits:
        if qubit < offset_bits:
            local.append(qubit)
        elif qubit in staged:
            local.append(offset_bits + staged.index(qubit))
        else:
            mask |= 1 << (qubit - offset_bits)
    return tuple(local), mask


def _split_mask(
    qubits: int, offset_bits: int, staged: tuple[int, ...]
) -> tuple[int, int]:
    """:func:`_split` for a bit mask of qubits: the virtual-block bits and
    the global block-index bits, both as masks."""

    local, mask = qubits & ((1 << offset_bits) - 1), qubits >> offset_bits
    for position, target in enumerate(staged):
        bit = 1 << (target - offset_bits)
        if mask & bit:
            mask ^= bit
            local |= 1 << (offset_bits + position)
    return local, mask


def _moves(step: Step, local_parity: int) -> tuple[bool, bool]:
    """Whether *step* changes a block whose index bits in its block parity
    have parity 0, and parity 1 — the test
    :meth:`repro.core.kernel.BlockKernel._apply_step` applies on the blocks
    its block controls let through.  A step whose parity reaches into the
    block changes every such block; one wholly above it leaves the blocks
    whose entry is exactly 1 alone."""

    if local_parity:
        return True, True
    return tuple(block_phase(step.matrix, side) is not None for side in (0, 1))


def plan_gate(partition: Partition, gate: Step | Run) -> GatePlan:
    """Build the :class:`GatePlan` for *gate* under *partition*.

    Control qubits in the block / rank segments prune whole blocks / ranks
    (Section 3.3's three control cases); local controls are left in the plan
    for the block kernel to apply as axes of its strided views.

    An element whose every step is one-block — an in-block target, a
    diagonal 2x2, or a parity phase — stages nothing above the block: it
    plans as one-block tasks ``(i,)`` with no exchange (and reports
    ``QubitSegment.LOCAL``), on exactly the blocks where at least one step
    does something: all of the step's non-local control bits set in the
    block's global index ``i`` and, for a diagonal whose target (or parity)
    lies wholly above the block, ``m[b, b] != 1`` where ``b`` is the parity
    of those bits of ``i``.  Anything else is a pair element that stages the
    non-local target ``T`` of its first mixing gate, planned as ``T``'s
    block pairs ``(i, i | target_bit)`` under that gate's non-local
    controls.  Its *pair steps* are
    the gates on ``T`` under those same controls — a diagonal on ``T`` among
    them — and every mixing gate must be one.  The other steps are
    *riders*: one-block steps, allowed only when the pair has no non-local
    controls (then every block is staged).  Every step, pair step or rider,
    is written over the task's virtual block (:class:`GatePlan`), where
    ``T`` is the bit above the block.
    """

    steps = constituents(gate)
    offset = partition.offset_bits
    mixes = tuple(not step.is_diagonal for step in steps)
    mixing = [
        i for i, step in enumerate(steps) if mixes[i] and step.target >= offset
    ]
    staged = (steps[mixing[0]].target,) if mixing else ()
    parities = [_split_mask(parity_of(step), offset, staged) for step in steps]
    controls = [_split(step.controls, offset, staged) for step in steps]
    local_parities = tuple(local for local, _ in parities)
    block_parities = tuple(mask for _, mask in parities)
    block_controls = tuple(mask for _, mask in controls)
    index_mask = 0
    for required, bits in zip(block_controls, block_parities):
        index_mask |= required | bits
    # Every qubit a step reads is in its parity or its controls, so it is a
    # bit below the block boundary, the staged target or a block-index bit.
    block_bits = partition.num_qubits - offset
    if index_mask >> block_bits or any(q - offset >= block_bits for q in staged):
        raise ValueError(
            f"gate {gate.name} touches qubit {gate.max_qubit()} outside the "
            f"{partition.num_qubits}-qubit partition"
        )
    op = BlockOp(
        np.array([step.matrix for step in steps]),
        local_parities,
        block_parities,
        tuple(local for local, _ in controls),
        block_controls,
        mixes,
        index_mask,
        compressor=None,
        op_key=gate.key(),
    )

    if not staged:
        tests = [
            (required, bits, _moves(step, local))
            for step, local, bits, required in zip(
                steps, local_parities, block_parities, block_controls
            )
        ]
        tasks = tuple(
            (index,)
            for index in range(partition.total_blocks)
            if any(
                index & required == required
                and moves[(index & bits).bit_count() & 1]
                for required, bits, moves in tests
            )
        )
        return GatePlan(QubitSegment.LOCAL, tasks, staged, op, exchange_count=0)

    (target,) = staged
    required = block_controls[mixing[0]]
    # A pair step is a gate on the staged bit alone under the pair's controls.
    pair_step = (1 << offset, 0, required)
    riders = [
        i
        for i, mapped in enumerate(zip(local_parities, block_parities, block_controls))
        if mapped != pair_step
    ]
    if riders and (
        required or any(mixes[i] and steps[i].target >= offset for i in riders)
    ):
        raise ValueError(
            f"{gate.name} is not a run under this partition: every step must "
            "be one-block (an in-block target, a diagonal 2x2 or a parity "
            "phase), or the mixing gates must share one non-local target and "
            "one set of non-local controls, and other one-block steps may "
            "join them only when that set is empty"
        )
    target_bit = 1 << (target - offset)
    # The pair's blocks differ only in the target bit, which no control can
    # be, so testing the controls on the bit-0 block covers both.
    tasks = tuple(
        (index, index | target_bit)
        for index in range(partition.total_blocks)
        if not index & target_bit and index & required == required
    )
    segment = partition.segment_of(target)
    exchanges = len(tasks) if segment is QubitSegment.RANK else 0
    return GatePlan(segment, tasks, staged, op, exchanges)

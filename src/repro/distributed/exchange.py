"""Gate-to-communication planning.

Given a :class:`~repro.distributed.partition.Partition` and a schedule
element (a gate, a :class:`~repro.circuits.fusion.ParityPhase`, or a
:class:`~repro.circuits.fusion.Run`), this module answers what the element
needs staged:

* which (rank, block) buffers it touches at all — block- and rank-level
  controls prune whole blocks and ranks, and a diagonal step skips the
  blocks it multiplies by exactly 1;
* which of them have to be co-resident in scratch memory as a pair — only
  those a step actually *mixes*: a diagonal gate or parity phase never mixes
  an amplitude pair, so wherever its qubits lie it plans one block at a
  time, and when it rides a pair run it is applied to each staged block of
  the pair on its own; and
* which of those pairs require an inter-rank exchange.

Keeping the planning separate from the execution makes the index arithmetic
(the trickiest part of Section 3.3) directly unit-testable against a dense
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..circuits.fusion import Run, Step, constituents, parity_of
from ..statevector.ops import block_phase
from .partition import Partition, QubitSegment

__all__ = ["BlockTask", "GatePlan", "plan_gate"]


@dataclass(frozen=True)
class BlockTask:
    """One unit of work: decompress the listed buffers, update, recompress.

    ``first`` is always present; ``second`` is ``None`` for one-block
    elements (the pair lives inside one block, or the gate is diagonal and
    mixes no pair).  Each buffer is identified by ``(rank, block)``.
    """

    first: tuple[int, int]
    second: tuple[int, int] | None
    crosses_ranks: bool

    @property
    def buffers(self) -> tuple[tuple[int, int], ...]:
        """The (rank, block) buffers this task stages (one or two)."""

        if self.second is None:
            return (self.first,)
        return (self.first, self.second)


@dataclass(frozen=True)
class GatePlan:
    """Everything a tier's state needs to run one gate, or one
    :class:`~repro.circuits.fusion.Run`, over its blocks."""

    segment: QubitSegment
    tasks: tuple[BlockTask, ...]
    #: Per step (a single gate is a one-step plan), the controls that must be
    #: applied per-amplitude inside the scratch buffers.
    local_controls: tuple[tuple[int, ...], ...]
    #: Per step, its block- and rank-level controls as a mask over the global
    #: block index ``rank * blocks_per_rank + block`` (a non-local qubit ``q``
    #: is bit ``q - offset_bits``).  A pair plan's tasks are already pruned
    #: by its pair steps' mask; the kernel tests it per block and step.
    block_controls: tuple[int, ...]
    #: The block-index bits a task reads: every step's ``block_controls``,
    #: and the block-index bits of each one-block step's target or parity
    #: (:func:`~repro.circuits.fusion.parity_of`) — every step of a one-block
    #: plan, the riders of a pair plan.  A pair plan without riders reads
    #: only its controls, which are set in every task's index.
    index_mask: int
    #: The non-local target a pair plan pairs its blocks on; ``None`` for a
    #: one-block plan.
    pair_target: int | None
    #: Number of inter-rank block exchanges the plan implies.
    exchange_count: int

    @property
    def touched_buffers(self) -> int:
        """Total buffer stagings the plan implies (cache misses pay these)."""

        return sum(len(task.buffers) for task in self.tasks)

    # Kept only for benchmarks/e2e/e2e_trace.py (its ``exchange.waves``
    # metric); no tier reads it.
    def independent_groups(self) -> tuple[tuple[BlockTask, ...], ...]:
        """Partition the tasks into waves of mutually independent tasks.

        Two tasks are independent when their (rank, block) buffer sets are
        disjoint.  :func:`plan_gate` stages every block at most once, so its
        plans are always one wave.  Waves cut the task list at the first
        buffer conflict, never hoisting a later task past a conflicting
        earlier one.
        """

        waves: list[list[BlockTask]] = []
        used: set[tuple[int, int]] = set()
        for task in self.tasks:
            buffers = set(task.buffers)
            if not waves or used & buffers:
                waves.append([])
                used = set()
            waves[-1].append(task)
            used |= buffers
        return tuple(tuple(wave) for wave in waves)


def _split_controls(
    controls: tuple[int, ...], offset_bits: int
) -> tuple[tuple[int, ...], int]:
    """Split control qubits into the local ones and a mask of the others
    over the global block index (see :attr:`GatePlan.block_controls`)."""

    mask = 0
    for control in controls:
        if control >= offset_bits:
            mask |= 1 << (control - offset_bits)
    return tuple(c for c in controls if c < offset_bits), mask


def _acts_on(step: Step, required: int, index: int, offset_bits: int) -> bool:
    """Whether one-block *step* changes the block with global index *index*
    (the test :meth:`repro.core.kernel.BlockKernel.run` applies per step)."""

    if index & required != required:
        return False
    parity = parity_of(step)
    if parity & ((1 << offset_bits) - 1):
        return True  # an in-block target or parity bit: amplitudes differ
    return block_phase(step.matrix, parity >> offset_bits, index) is not None


def _is_one_block(step: Step, offset_bits: int) -> bool:
    """Whether *step* can be applied to one block on its own: an in-block
    target, or a diagonal (a gate's 2x2 or a parity phase) anywhere."""

    return step.target < offset_bits or step.is_diagonal


def _mask_of(steps: Iterable[tuple[Step, int]], offset_bits: int) -> int:
    """The block-index bits the one-block ``(step, block_controls)`` pairs
    *steps* read (see :attr:`GatePlan.index_mask`)."""

    mask = 0
    for step, required in steps:
        mask |= required | parity_of(step) >> offset_bits
    return mask


def plan_gate(partition: Partition, gate: Step | Run) -> GatePlan:
    """Build the :class:`GatePlan` for *gate* under *partition*.

    Control qubits in the block / rank segments prune whole blocks / ranks
    (Section 3.3's three control cases); local controls are left in the plan
    for the block kernel to apply as element masks.

    An element whose every step is one-block — an in-block target, a
    diagonal 2x2, or a parity phase — plans as ``second=None`` tasks with no
    exchange (and reports ``QubitSegment.LOCAL``), on exactly the blocks
    where at least one step does something: all of the step's non-local
    control bits set in the block's global index ``i`` and, for a diagonal
    whose target (or parity) lies wholly above the block, ``m[b, b] != 1``
    where ``b`` is the parity of those bits of ``i``.  Anything else is a
    pair element on the non-local target ``T`` of its first mixing gate,
    planned as ``T``'s block pairs under that gate's non-local controls.
    Its *pair steps* are the gates on ``T`` under those same controls — a
    diagonal on ``T`` among them — and every mixing gate must be one.  The
    other steps are *riders*: one-block steps applied to each staged block
    on its own, allowed only when the pair has no non-local controls (then
    every block is staged).
    """

    if gate.max_qubit() >= partition.num_qubits:
        raise ValueError(
            f"gate {gate.name} touches qubit {gate.max_qubit()} outside the "
            f"{partition.num_qubits}-qubit partition"
        )
    steps = constituents(gate)
    offset = partition.offset_bits
    per_rank = partition.blocks_per_rank
    split = [_split_controls(step.controls, offset) for step in steps]
    local_controls = tuple(local for local, _ in split)
    block_controls = tuple(required for _, required in split)

    if all(_is_one_block(step, offset) for step in steps):
        tasks = [
            BlockTask(divmod(index, per_rank), None, crosses_ranks=False)
            for index in range(partition.total_blocks)
            if any(
                _acts_on(step, required, index, offset)
                for step, required in zip(steps, block_controls)
            )
        ]
        return GatePlan(
            QubitSegment.LOCAL,
            tuple(tasks),
            local_controls,
            block_controls,
            _mask_of(zip(steps, block_controls), offset),
            pair_target=None,
            exchange_count=0,
        )

    target, required = next(
        (step.target, mask)
        for step, mask in zip(steps, block_controls)
        if not _is_one_block(step, offset)
    )
    riders = [
        (step, mask)
        for step, mask in zip(steps, block_controls)
        if parity_of(step) != 1 << target or mask != required
    ]
    if riders and (
        required or not all(_is_one_block(step, offset) for step, _ in riders)
    ):
        raise ValueError(
            f"{gate.name} is not a run under this partition: every step must "
            "be one-block (an in-block target, a diagonal 2x2 or a parity "
            "phase), or the mixing gates must share one non-local target and "
            "one set of non-local controls, and other one-block steps may "
            "join them only when that set is empty"
        )
    target_bit = 1 << (target - offset)
    tasks = []
    for index in range(partition.total_blocks):
        # The pair's blocks differ only in the target bit, which no control
        # can be, so testing the controls on the bit-0 block covers both.
        if index & target_bit or index & required != required:
            continue
        first, second = divmod(index, per_rank), divmod(index | target_bit, per_rank)
        tasks.append(BlockTask(first, second, crosses_ranks=first[0] != second[0]))
    return GatePlan(
        partition.segment_of(target),
        tuple(tasks),
        local_controls,
        block_controls,
        required | _mask_of(riders, offset),
        pair_target=target,
        exchange_count=sum(task.crosses_ranks for task in tasks),
    )

"""Gate-to-communication planning.

Given a :class:`~repro.distributed.partition.Partition` and a gate, this
module answers two questions the simulator (and the tests) need:

* which pairs of (rank, block) buffers have to be co-resident in scratch
  memory for the gate, and
* which of those pairs require an inter-rank exchange.

Keeping the planning separate from the execution makes the index arithmetic
(the trickiest part of Section 3.3) directly unit-testable against a dense
reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..circuits import Gate
from ..circuits.fusion import Run, constituents
from .partition import Partition, QubitSegment

__all__ = ["BlockTask", "GatePlan", "plan_gate"]


@dataclass(frozen=True)
class BlockTask:
    """One unit of work: decompress the listed buffers, update, recompress.

    ``first`` is always present; ``second`` is ``None`` for local-qubit gates
    (the pair lives inside one block).  Each buffer is identified by
    ``(rank, block)``.
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
    """Everything the executor needs to run one gate, or one
    :class:`~repro.circuits.fusion.Run`, over the block store."""

    segment: QubitSegment
    tasks: tuple[BlockTask, ...]
    #: Per step (a single gate is a one-step plan), the controls that must be
    #: applied per-amplitude inside the scratch buffers.
    local_controls: tuple[tuple[int, ...], ...]
    #: Number of inter-rank block exchanges the plan implies.
    exchange_count: int

    @property
    def touched_buffers(self) -> int:
        """Total buffer stagings the plan implies (cache misses pay these)."""

        return sum(len(task.buffers) for task in self.tasks)

    def independent_groups(self) -> tuple[tuple[BlockTask, ...], ...]:
        """Partition the tasks into waves of mutually independent tasks.

        Two tasks are independent when their (rank, block) buffer sets are
        disjoint — they read and write different compressed blocks, so the
        executor may run them concurrently.  Tasks of a single-gate plan are
        pairwise disjoint by construction (every block appears in exactly one
        pair), so such plans yield one wave.  Waves cut the task list at the
        first buffer conflict, never hoisting a later task past a conflicting
        earlier one, so executing waves in order preserves the plan's
        sequential semantics even for plans that revisit a buffer.
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


def _control_filters(
    partition: Partition, controls: tuple[int, ...]
) -> tuple[tuple[int, ...], list[int], list[int]]:
    """Split control qubits into (local, block-level bits, rank-level bits)."""

    local: list[int] = []
    block_bits: list[int] = []
    rank_bits: list[int] = []
    for control in controls:
        segment = partition.segment_of(control)
        if segment is QubitSegment.LOCAL:
            local.append(control)
        elif segment is QubitSegment.BLOCK:
            block_bits.append(partition.block_bit(control))
        else:
            rank_bits.append(partition.rank_bit(control))
    return tuple(local), block_bits, rank_bits


def _passes(index: int, required_bits: list[int]) -> bool:
    """True when *index* has every bit in *required_bits* set."""

    return all(index >> bit & 1 for bit in required_bits)


def plan_gate(partition: Partition, gate: Gate | Run) -> GatePlan:
    """Build the :class:`GatePlan` for *gate* under *partition*.

    Control qubits in the block / rank segments prune whole blocks / ranks
    (Section 3.3's three control cases); local controls are left in the plan
    for the executor to apply as element masks.

    A :class:`~repro.circuits.fusion.Run` plans as its first gate, with one
    ``local_controls`` entry per constituent.  Every constituent must stage
    what the first does: the same segment under the same block/rank controls
    and, above the block boundary, the same target and local control set.
    """

    if gate.max_qubit() >= partition.num_qubits:
        raise ValueError(
            f"gate {gate.name} touches qubit {gate.max_qubit()} outside the "
            f"{partition.num_qubits}-qubit partition"
        )
    first, *rest = constituents(gate)
    target = first.target
    segment = partition.segment_of(target)
    local_controls, block_control_bits, rank_control_bits = _control_filters(
        partition, first.controls
    )
    step_controls = [local_controls]
    for step in rest:
        local, block_bits, rank_bits = _control_filters(partition, step.controls)
        same_blocks = (
            partition.segment_of(step.target) is segment
            and set(block_bits) == set(block_control_bits)
            and set(rank_bits) == set(rank_control_bits)
        )
        same_pairs = segment is QubitSegment.LOCAL or (
            step.target == target and set(local) == set(local_controls)
        )
        if not (same_blocks and same_pairs):
            raise ValueError(
                f"{gate.name} is not a run under this partition: every gate "
                "must target the block-offset segment under the same "
                "block/rank controls, or share one non-local target and "
                "control set"
            )
        step_controls.append(local)

    tasks: list[BlockTask] = []
    exchange_count = 0

    if segment is QubitSegment.LOCAL:
        for rank in range(partition.num_ranks):
            if not _passes(rank, rank_control_bits):
                continue
            for block in range(partition.blocks_per_rank):
                if not _passes(block, block_control_bits):
                    continue
                tasks.append(BlockTask((rank, block), None, crosses_ranks=False))

    elif segment is QubitSegment.BLOCK:
        for rank in range(partition.num_ranks):
            if not _passes(rank, rank_control_bits):
                continue
            for block0, block1 in partition.block_pairs(target):
                # A block-level control must hold for the *pair*; the pair's
                # blocks only differ in the target bit, so testing block0 is
                # equivalent unless the control bit IS the target bit (which
                # cannot happen: a control never equals the target).
                if not _passes(block0, block_control_bits):
                    continue
                tasks.append(
                    BlockTask((rank, block0), (rank, block1), crosses_ranks=False)
                )

    else:  # RANK segment
        for rank0, rank1 in partition.rank_pairs(target):
            if not _passes(rank0, rank_control_bits):
                continue
            for block in range(partition.blocks_per_rank):
                if not _passes(block, block_control_bits):
                    continue
                tasks.append(
                    BlockTask((rank0, block), (rank1, block), crosses_ranks=True)
                )
                exchange_count += 1

    return GatePlan(
        segment=segment,
        tasks=tuple(tasks),
        local_controls=tuple(step_controls),
        exchange_count=exchange_count,
    )


"""The block-task kernel: decompress → apply → recompress, written once.

The paper's execution model is one loop (Figure 2): consult the compressed
block cache, decompress a block or block pair into scratch, apply the 2x2
unitary — or, for a run of consecutive gates sharing one staging, each of
its unitaries in order — and recompress at the current error bound.
:class:`BlockKernel` is that loop.  It stages only what the element mixes: a
pair of blocks for a mixing 2x2 on a target above the block boundary, one
block for everything else — an in-block target, a diagonal 2x2 wherever its
target lies, or a parity phase (``cx · d · cx``, ``d`` on ``x_c ⊕ x_t``,
:class:`~repro.circuits.fusion.ParityPhase`) wherever ``c`` and ``t`` lie.
An in-block target is a 2x2 inside the block on two strided views, and an
exactly diagonal one is a phase on the side(s) whose entry is not exactly 1
(:func:`repro.statevector.ops.apply_diagonal`).  A diagonal above the block,
or a parity phase, is a phase (:func:`repro.statevector.ops.apply_phase`):
one scalar when its qubits all lie above the block, otherwise one per side of
the in-block parity — a phase on one in-block qubit, or on the offsets where
``x_c ⊕ x_t`` is 0 and where it is 1.  Every phase equals the 2x2's values;
a zero's sign may differ (``apply_phase``'s contract).  A one-block task
applies the steps whose block- and rank-level controls are set in its
block's index, so one run may hold steps under different controls.  A pair run without non-local
controls also carries *riders* — one-block steps between its steps on the
pair's target — which the pair task applies to each staged block at that
block's own index, exactly as a one-block task would.

Both execution tiers call it — the sequential
:class:`~repro.core.compressed_state.CompressedStateVector` in the parent
process and the rank workers of :mod:`repro.distributed.ranked` — so the
tiers differ only in where the block table lives, and bit-identity across
tiers holds by construction.  Both hand a plan's tasks to the same
:meth:`BlockKernel.run_tasks`, which groups them with :func:`group_tasks`
first: tasks that read byte-identical inputs (the Section 3.4 redundancy) run
once as one kernel call with ``copies=``, and the block cache is left with
the repeats *across* plans.  A pair has one path on every tier: a cross-rank
pair is one :meth:`BlockKernel.run` call on one of its two ranks, which
receives the peer's input blob and sends back the peer's output blob.

A :class:`BlockOp` is all a block task needs to know about the gate or run; a
:class:`TaskStats` collects what the round trips cost and is folded into the
:class:`~repro.core.report.SimulationReport` by whichever tier ran them.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, MutableMapping, NamedTuple, TypeVar

import numpy as np

from ..circuits.gates import is_exactly_diagonal
from ..compression.interface import Compressor
from ..statevector import ops
from .blocks import CompressedBlock, ScratchPool
from .cache import BlockCache
from .report import SimulationReport

__all__ = ["BlockOp", "TaskStats", "BlockKernel", "group_tasks"]

Task = TypeVar("Task")


class BlockOp(NamedTuple):
    """One schedule element — a gate or a :class:`~repro.circuits.fusion.Run`
    — as the block tasks of its plan see it.

    The first five fields are parallel, one entry per step: step ``i``
    applies ``matrices[i]`` to ``targets[i]`` (a diagonal on the parity of
    ``parities[i]``) under ``local_controls[i]`` on the blocks
    ``block_controls[i]`` lets through.  A gate is one step.  The fields are
    flat (one array, ints and tuples of ints) because the op rides every
    ranked-tier gate message.
    """

    #: The 2x2 unitaries, stacked: shape ``(steps, 2, 2)``.
    matrices: np.ndarray
    #: Target qubit per step.
    targets: tuple[int, ...]
    #: Per step, the qubit mask whose parity picks a diagonal's entry
    #: (:func:`~repro.circuits.fusion.parity_of`): ``1 << target`` for a
    #: gate, the ``c`` and ``t`` bits for a parity phase.  A pair task applies
    #: the steps whose parity is ``1 << pair_target`` pairwise.
    parities: tuple[int, ...]
    #: Per step, the controls applied per amplitude inside the scratch buffers.
    local_controls: tuple[tuple[int, ...], ...]
    #: Per step, the block- and rank-level controls as a mask over the global
    #: block index (:attr:`~repro.distributed.exchange.GatePlan.block_controls`).
    block_controls: tuple[int, ...]
    #: The block-index bits a task's outcome depends on
    #: (:attr:`~repro.distributed.exchange.GatePlan.index_mask`).
    index_mask: int
    #: The non-local target a pair task's blocks are paired on; ``None`` for
    #: a one-block element.
    pair_target: int | None
    #: Compressor for the output blobs (the controller's current level).
    compressor: Compressor
    #: Block-cache ``OP`` field: the gate's key — or the run's, one gate key
    #: per step — plus ``compressor.describe()``.
    op_key: tuple


@dataclass
class TaskStats:
    """What a run of block tasks cost: counters plus the three bucket seconds.

    ``duplicates`` are tasks served by a byte-identical task of the same plan
    (no cache lookup, no codec call).  Cache hits and misses are the lookups
    the kernel's cache *counted* — a self-disabled cache counts neither,
    exactly like :class:`BlockCache`'s own statistics.
    """

    tasks: int = 0
    duplicates: int = 0
    decompress_calls: int = 0
    compress_calls: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    decompression: float = 0.0
    computation: float = 0.0
    compression: float = 0.0

    def __reduce__(self) -> tuple:
        # One of these rides every worker -> parent reply: a flat argument
        # tuple pickles in a fraction of a default dataclass's state dict.
        return (TaskStats, tuple(vars(self).values()))

    def fold_into(self, report: SimulationReport) -> None:
        """Add these stats to *report* — on every tier the
        one way task counters and cache outcomes reach a report."""

        for counter, amount in (
            ("tasks_executed", self.tasks),
            ("duplicate_tasks", self.duplicates),
            ("decompress_calls", self.decompress_calls),
            ("compress_calls", self.compress_calls),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
        ):
            if amount:
                report.add_count(counter, amount)
        for bucket in ("decompression", "computation", "compression"):
            seconds = getattr(self, bucket)
            if seconds:
                report.add_time(bucket, seconds)


def group_tasks(
    op: BlockOp, staged: Iterable[tuple[Task, tuple[CompressedBlock, ...], int]]
) -> list[tuple[tuple, list[Task]]]:
    """Group a plan's tasks by exactly what :meth:`BlockKernel.run` reads.

    *staged* yields ``(task, entries, index)``: the caller's handle for a
    task, the one or two stored blocks it stages and its first block's
    global index.  Tasks share a group when their blobs and codec names are
    equal and so are the bits of *index* that *op* reads.
    Groups come back in first-seen order as ``(inputs, tasks)``: *inputs*
    are the positional arguments of :meth:`BlockKernel.run` after
    ``(op, stats)``; run them once with ``copies=len(tasks)`` and store the
    outputs for every task.  This is safe because a plan stages each
    (rank, block) at most once, so no task's inputs are another's outputs.
    """

    groups: dict[tuple, list[Task]] = {}
    for task, entries, index in staged:
        if len(entries) == 1:
            (entry,) = entries
            blobs = (entry.blob, entry.compressor, None, None)
        else:
            low, high = entries
            blobs = (low.blob, low.compressor, high.blob, high.compressor)
        inputs = blobs + (index & op.index_mask,)
        groups.setdefault(inputs, []).append(task)
    return list(groups.items())


class BlockKernel:
    """Warm state for block round trips plus the one function that runs them.

    Parameters
    ----------
    decompressors:
        Compressor-name → instance map used to decode input blobs.  Shared
        with the caller (not copied): :meth:`compressor_for` registers new
        decoders in it.
    scratch:
        The two buffers a block (or block pair) is staged in.
    cache:
        Optional compressed block cache (Section 3.4) — the simulator's own
        in the parent, a private shard in a worker.
    """

    def __init__(
        self,
        decompressors: dict[str, Compressor],
        scratch: ScratchPool,
        cache: BlockCache | None = None,
    ) -> None:
        self.decompressors = decompressors
        self.scratch = scratch
        self.cache = cache
        self._offset_bits = scratch.block_amplitudes.bit_length() - 1
        self._compressors: dict[str, Compressor] = {}
        self._masks: dict[tuple[int, ...], np.ndarray | None] = {}
        self._parity_masks: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def compressor_for(self, compressor: Compressor) -> Compressor:
        """Warm instance equal to *compressor* (keyed by ``describe()``).

        Workers receive a freshly unpickled compressor with every message;
        recompressing with the first instance seen keeps its tables warm
        across gates.  The same class decodes every blob it produced, so the
        decompressor map is kept in sync — escalated-level blobs always find
        a decoder.
        """

        warm = self._compressors.get(compressor.describe())
        if warm is None:
            warm = self._compressors[compressor.describe()] = compressor
            self.decompressors.setdefault(compressor.name, compressor)
        return warm

    def reset(self) -> None:
        """Fresh-simulator state: empty cache, no warm compressors."""

        if self.cache is not None:
            self.cache.reset()
        self._compressors.clear()

    def run_tasks(
        self,
        op: BlockOp,
        stats: TaskStats,
        table: MutableMapping[int, CompressedBlock] | list[CompressedBlock],
        tasks: Iterable[tuple[int, ...]],
    ) -> None:
        """Run a plan's tasks on *table* and store their outputs in it.

        *table* maps a global block index (``rank * blocks_per_rank +
        block``) to its stored block; each task is the global index of the
        one block it updates, or of a pair's two blocks, target bit 0 first.
        The tasks are grouped with :func:`group_tasks`, each group is one
        :meth:`run`, and its outputs are stored for every task of the group
        before the next group runs, so when a group raises, the groups before
        it stay committed and counted in *stats*.
        """

        name, bound = op.compressor.name, op.compressor.bound
        staged = (
            (task, tuple(table[index] for index in task), task[0]) for task in tasks
        )
        for inputs, group in group_tasks(op, staged):
            outputs = self.run(op, stats, *inputs, copies=len(group))
            for task in group:
                for index, blob in zip(task, outputs):
                    table[index] = CompressedBlock(blob, name, bound)

    def _mask_for(self, local_controls: tuple[int, ...]) -> np.ndarray | None:
        if local_controls not in self._masks:
            self._masks[local_controls] = ops.local_control_mask(
                self.scratch.block_amplitudes, local_controls
            )
        return self._masks[local_controls]

    def _parity_masks_for(
        self, local_controls: tuple[int, ...], bits: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The offsets under *local_controls* whose in-block *bits* have even
        and odd parity (the two sides of a parity phase)."""

        key = (local_controls, bits)
        if key not in self._parity_masks:
            odd = ops.local_parity_mask(self.scratch.block_amplitudes, bits)
            even = ~odd
            controls = self._mask_for(local_controls)
            if controls is not None:
                even &= controls
                odd &= controls
            self._parity_masks[key] = (even, odd)
        return self._parity_masks[key]

    def run(
        self,
        op: BlockOp,
        stats: TaskStats,
        blob1: bytes,
        name1: str,
        blob2: bytes | None = None,
        name2: str | None = None,
        index: int = 0,
        copies: int = 1,
    ) -> tuple[bytes, bytes | None]:
        """One block task: returns the output blobs ``(out1, out2)``.

        Every step of *op* is applied in order between one decompress and
        one compress per blob.  Only the bits of *index* in
        ``op.index_mask`` are read.

        One blob is a one-block update of the block with global index *index*
        (``rank * blocks_per_rank + block``): each step goes through
        :meth:`_apply_step`.  The cache key carries the bits read, since
        byte-identical blocks on opposite sides of such a bit have different
        outputs.

        Two blobs are a block pair: *blob1* holds the amplitudes whose
        ``op.pair_target`` bit is 0, *blob2* their partners, and *index* is
        the first one's global index.  A step on the pair's target (parity
        ``1 << op.pair_target``) updates the amplitude pairs where its block
        controls are set in *index*; every other step is a rider, applied
        through :meth:`_apply_step` to each buffer at its own index.  Both
        blobs are rewritten.  A cross-rank pair is the same call, made once
        by whichever of its two ranks owns it.

        A cache hit makes no codec call and stages nothing in scratch.
        *copies* is the size of the :func:`group_tasks` group this call
        serves: it counts as that many tasks, all but one of them duplicates.
        """

        stats.tasks += copies
        stats.duplicates += copies - 1
        cache = self.cache
        op_key = op.op_key + (index & op.index_mask,)
        if cache is not None and cache.enabled:
            cached = cache.lookup(op_key, blob1, blob2)
            if cached is not None:
                stats.cache_hits += 1
                return cached
            stats.cache_misses += 1

        pair = blob2 is not None
        scratch = self.scratch
        compress = op.compressor.compress
        buffer1, buffer2 = scratch.buffers
        start = perf_counter()
        scratch.fill(buffer1, self.decompressors[name1].decompress(blob1))
        if pair:
            scratch.fill(buffer2, self.decompressors[name2].decompress(blob2))
        decoded = perf_counter()
        steps = zip(
            op.matrices, op.targets, op.parities, op.local_controls, op.block_controls
        )
        if not pair:
            for step in steps:
                self._apply_step(buffer1, index, *step)
        else:
            pair_parity = 1 << op.pair_target
            high_index = index | pair_parity >> self._offset_bits
            for step in steps:
                matrix, _, parity, controls, required = step
                if parity != pair_parity:
                    self._apply_step(buffer1, index, *step)
                    self._apply_step(buffer2, high_index, *step)
                elif index & required == required:
                    ops.apply_single_qubit_pairwise_masked(
                        buffer1, buffer2, matrix, self._mask_for(controls)
                    )
        applied = perf_counter()
        out1 = compress(buffer1.view(np.float64))
        out2 = compress(buffer2.view(np.float64)) if pair else None
        done = perf_counter()
        stats.decompression += decoded - start
        stats.computation += applied - decoded
        stats.compression += done - applied
        stats.decompress_calls += 2 if pair else 1
        stats.compress_calls += 2 if pair else 1

        if cache is not None:
            cache.insert(op_key, blob1, blob2, out1, out2)
        return out1, out2

    def _apply_step(
        self,
        buffer: np.ndarray,
        index: int,
        matrix: np.ndarray,
        target: int,
        parity: int,
        controls: tuple[int, ...],
        required: int,
    ) -> None:
        """Apply one one-block step to *buffer*, the block with global index
        *index*, in place.

        The step applies when all its *required* block-control bits are set
        in *index* — as a 2x2 on an in-block target, or, when that 2x2 is
        exactly diagonal, as a phase on the side(s) whose entry is not
        exactly 1 (the side at 1 keeps its bytes); for a diagonal whose
        parity bits all lie above the block, as the phase ``m[b, b]`` of
        their parity ``b`` in *index* unless that is exactly 1; and for a
        parity with in-block bits, as ``m[b, b]`` on the offsets where those
        bits have even parity and the other entry where they have odd.  A
        phase equals the 2x2's values; a zero's sign may differ.
        """

        if index & required != required:
            return
        offset_bits = self._offset_bits
        local = parity & (1 << offset_bits) - 1
        if local and parity == 1 << target:  # an in-block target
            if is_exactly_diagonal(matrix):
                ops.apply_diagonal(buffer, matrix, target, controls)
            else:
                ops.apply_controlled_single_qubit(buffer, matrix, target, controls)
            return
        if local:  # a parity with in-block bits: two sides
            even, odd = self._parity_masks_for(controls, local)
            # Reversing both axes swaps a diagonal's two entries.
            sides = ((even, matrix), (odd, matrix[::-1, ::-1]))
        else:
            sides = ((self._mask_for(controls), matrix),)
        for mask, entries in sides:
            phase = ops.block_phase(entries, parity >> offset_bits, index)
            if phase is not None:
                ops.apply_phase(buffer, phase, mask)

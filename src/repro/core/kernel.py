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
An in-block target is a 2x2 inside the block.  A diagonal above the block,
or a parity phase, is a phase (:func:`repro.statevector.ops.apply_phase`):
one scalar when its qubits all lie above the block, otherwise one per side of
the in-block parity — a phase on one in-block qubit, or on the offsets where
``x_c ⊕ x_t`` is 0 and where it is 1.  A one-block task applies the steps
whose block- and rank-level controls are set in its block's index, so one run
may hold steps under different controls.

Both execution tiers call it — :class:`~repro.core.executor.TaskExecutor`
in the parent process and the rank workers of
:mod:`repro.distributed.ranked` — so the tiers differ
only in how blobs reach the kernel and where its outputs are stored, and
bit-identity across tiers holds by construction.  Every tier also groups a
plan's tasks with :func:`group_tasks` first: tasks that read byte-identical
inputs (the Section 3.4 redundancy) run once as one kernel call with
``copies=``, and the block cache is left with the repeats *across* plans.

A :class:`BlockOp` is all a block task needs to know about the gate or run; a
:class:`TaskStats` collects what the round trips cost and is folded into the
:class:`~repro.core.report.SimulationReport` by whichever transport ran them.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, NamedTuple, TypeVar

import numpy as np

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
    #: Target qubit per step (only read by one-block tasks; a pair task's
    #: steps share the target the plan paired the blocks on).
    targets: tuple[int, ...]
    #: Per step, the qubit mask whose parity picks a diagonal's entry
    #: (:func:`~repro.circuits.fusion.parity_of`): ``1 << target`` for a
    #: gate, the ``c`` and ``t`` bits for a parity phase.  Only read by
    #: one-block tasks.
    parities: tuple[int, ...]
    #: Per step, the controls applied per amplitude inside the scratch buffers.
    local_controls: tuple[tuple[int, ...], ...]
    #: Per step, the block- and rank-level controls as a mask over the global
    #: block index (:attr:`~repro.distributed.exchange.GatePlan.block_controls`);
    #: only read by one-block tasks — a pair plan is already pruned by it.
    block_controls: tuple[int, ...]
    #: The block-index bits a one-block task's outcome depends on.
    index_mask: int
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
    task, the one or two stored blocks it stages and its block's global
    index.  Tasks share a group when their blobs and codec names are equal
    and, for one-block tasks, so are the bits of *index* that *op* reads.
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
            index &= op.index_mask
            inputs = (entry.blob, entry.compressor, None, None, None, index)
        else:
            low, high = entries
            inputs = (low.blob, low.compressor, high.blob, high.compressor)
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
        row: int | None = None,
        index: int = 0,
        copies: int = 1,
    ) -> tuple[bytes, bytes | None]:
        """One block task: returns the output blobs ``(out1, out2)``.

        Every step of *op* is applied in order between one decompress and
        one compress per blob.

        One blob is a one-block update of the block with global index *index*
        (``rank * blocks_per_rank + block``; only the bits in
        ``op.index_mask`` are read): a step applies when all its
        ``block_controls`` bits are set in *index* — as a 2x2 on an in-block
        target; for a diagonal whose parity bits all lie above the block, as
        the phase ``m[b, b]`` of their parity ``b`` in *index* unless that is
        exactly 1; and for a parity with in-block bits, as ``m[b, b]`` on the
        offsets where those bits have even parity and the other entry where
        they have odd.  The cache key carries the bits read, since
        byte-identical blocks on opposite sides of such a bit have different
        outputs.

        Two blobs are a block pair (*blob1* holds the target-bit-0
        amplitudes) and both are rewritten — unless *row* is given: then this
        is one rank's half of a cross-rank pair, *blob1* is the block this
        rank owns, *blob2* the peer's, *row* says which side of the pair
        *blob1* is, and only ``out1`` is produced (``out2`` is ``None``).
        Both ranks of such a pair stage the same two buffers and run the same
        steps, the last one only for the half they keep, so the halves equal
        the whole pair task's outputs bit for bit.  The cache key carries
        *row* so the two halves of one pair never alias each other's entries.

        A cache hit makes no codec call and stages nothing in scratch.
        *copies* is the size of the :func:`group_tasks` group this call
        serves: it counts as that many tasks, all but one of them duplicates.
        """

        stats.tasks += copies
        stats.duplicates += copies - 1
        cache = self.cache
        if blob2 is None:
            op_key = op.op_key + (index & op.index_mask,)
        else:
            op_key = op.op_key if row is None else op.op_key + ("xchg", row)
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
        if not pair:
            offset_bits = self._offset_bits
            for matrix, target, parity, controls, required in zip(
                op.matrices,
                op.targets,
                op.parities,
                op.local_controls,
                op.block_controls,
            ):
                if index & required != required:
                    continue
                local = parity & (1 << offset_bits) - 1
                if local and parity == 1 << target:  # an in-block target
                    ops.apply_controlled_single_qubit(buffer1, matrix, target, controls)
                    continue
                if local:  # a parity with in-block bits: two sides
                    even, odd = self._parity_masks_for(controls, local)
                    # Reversing both axes swaps a diagonal's two entries.
                    sides = ((even, matrix), (odd, matrix[::-1, ::-1]))
                else:
                    sides = ((self._mask_for(controls), matrix),)
                for mask, entries in sides:
                    phase = ops.block_phase(entries, parity >> offset_bits, index)
                    if phase is not None:
                        ops.apply_phase(buffer1, phase, mask)
        else:
            low, high = (buffer2, buffer1) if row == 1 else (buffer1, buffer2)
            last = len(op.matrices) - 1
            for step, (matrix, controls) in enumerate(
                zip(op.matrices, op.local_controls)
            ):
                mask = self._mask_for(controls)
                if row is None or step < last:
                    ops.apply_single_qubit_pairwise_masked(low, high, matrix, mask)
                else:
                    ops.apply_single_qubit_pairwise_half(low, high, matrix, row, mask)
        applied = perf_counter()
        out1 = compress(buffer1.view(np.float64))
        out2 = compress(buffer2.view(np.float64)) if pair and row is None else None
        done = perf_counter()
        stats.decompression += decoded - start
        stats.computation += applied - decoded
        stats.compression += done - applied
        stats.decompress_calls += 2 if pair else 1
        stats.compress_calls += 1 if out2 is None else 2

        if cache is not None:
            cache.insert(op_key, blob1, blob2, out1, out2)
        return out1, out2

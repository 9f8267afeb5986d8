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

A task's blobs are decompressed side by side into one scratch buffer, a
*virtual block* whose bit above the block is the pair's target (Eq. 6–7: a
gate on that target mixes each amplitude with its partner in the other
block).  The planner has already written every step over that buffer
(:class:`~repro.distributed.exchange.GatePlan`), so each step goes through
:meth:`BlockKernel._apply_step`, which has two paths.  A 2x2 on one bit of
the buffer that is not exactly diagonal — a pair's 2x2 on the top bit — mixes
two strided views.  Every other step is a phase: the buffer is reshaped to
the :func:`repro.statevector.ops.slab` layout of its parity's bits inside the
buffer — none for a diagonal whose qubits all lie above it, one for a
diagonal, two for a parity phase — under its local controls, and each side
whose diagonal entry is not exactly 1 is multiplied by it
(:func:`repro.statevector.ops.apply_phase`), the entries swapped when the
parity's bits above the buffer are odd.  Every phase equals the 2x2's
values; a zero's sign may differ (``apply_phase``'s contract).  A step
applies to a task whose block index has its block- and rank-level controls
set, so one run may hold steps under different controls, and a pair run
without non-local controls may carry *riders* — one-block steps between its
steps on the pair's target — which read each half of the buffer at that
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

A :class:`~repro.distributed.exchange.BlockOp` (built by the planner,
re-exported here) is all a block task needs to know about the gate or run; a
:class:`TaskStats` collects what the round trips cost and is folded into the
:class:`~repro.core.report.SimulationReport` by whichever tier ran them.  A
task's cache line is its op key plus its k input blobs, then its k output
blobs — one block or two, whatever the plan staged.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, MutableMapping, TypeVar

import numpy as np

from ..circuits.gates import is_exactly_diagonal
from ..compression.interface import Compressor
from ..distributed.exchange import BlockOp
from ..statevector import ops
from .blocks import CompressedBlock, ScratchPool
from .cache import BlockCache
from .report import SimulationReport

__all__ = ["BlockOp", "TaskStats", "BlockKernel", "group_tasks"]

Task = TypeVar("Task")


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
    ``(op, stats)`` — the ``(blob, name)`` tuple and the read index bits;
    run them once with ``copies=len(tasks)`` and store the outputs for every
    task.  This is safe because a plan stages each block at most
    once, so no task's inputs are another's outputs.
    """

    groups: dict[tuple, list[Task]] = {}
    for task, entries, index in staged:
        blobs = tuple((entry.blob, entry.compressor) for entry in entries)
        groups.setdefault((blobs, index & op.index_mask), []).append(task)
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
        The pool whose buffer a block (or block pair) is staged in.
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
        self._compressors: dict[str, Compressor] = {}

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

    def run(
        self,
        op: BlockOp,
        stats: TaskStats,
        inputs: tuple[tuple[bytes, str], ...],
        index: int = 0,
        copies: int = 1,
    ) -> tuple[bytes, ...]:
        """One block task: returns one output blob per ``(blob, name)`` of
        *inputs*.

        *inputs* are the task's blocks in virtual-block order — one block,
        or a pair with its target bit 0 first — and *index* is the first
        one's global index (``rank * blocks_per_rank + block``); only its
        bits in ``op.index_mask`` are read, and the cache key carries them,
        since byte-identical blocks on opposite sides of such a bit have
        different outputs.  The blobs are decompressed side by side into the
        scratch buffer, every step of *op* goes through :meth:`_apply_step`
        on that virtual block in order, and each block is recompressed.  A
        cross-rank pair is the same call, made once by whichever of its two
        ranks owns it.

        A cache hit makes no codec call and stages nothing in scratch.
        *copies* is the size of the :func:`group_tasks` group this call
        serves: it counts as that many tasks, all but one of them duplicates.
        """

        stats.tasks += copies
        stats.duplicates += copies - 1
        cache = self.cache
        op_key = op.op_key + (index & op.index_mask,)
        blobs = tuple(blob for blob, _ in inputs)
        if cache is not None and cache.enabled:
            cached = cache.lookup(op_key, *blobs)
            if cached is not None:
                stats.cache_hits += 1
                return cached
            stats.cache_misses += 1

        scratch = self.scratch
        compress = op.compressor.compress
        size = scratch.block_amplitudes
        buffer = scratch.buffer[: len(inputs) * size]
        blocks = buffer.reshape(len(inputs), size)
        start = perf_counter()
        for block, (blob, name) in zip(blocks, inputs):
            scratch.fill(block, self.decompressors[name].decompress(blob))
        decoded = perf_counter()
        for step in zip(
            op.matrices,
            op.local_parities,
            op.block_parities,
            op.local_controls,
            op.block_controls,
        ):
            self._apply_step(buffer, index, *step)
        applied = perf_counter()
        outputs = tuple(compress(block.view(np.float64)) for block in blocks)
        done = perf_counter()
        stats.decompression += decoded - start
        stats.computation += applied - decoded
        stats.compression += done - applied
        stats.decompress_calls += len(inputs)
        stats.compress_calls += len(inputs)

        if cache is not None:
            cache.insert(op_key, *blobs, *outputs)
        return outputs

    def _apply_step(
        self,
        buffer: np.ndarray,
        index: int,
        matrix: np.ndarray,
        local_parity: int,
        block_parity: int,
        controls: tuple[int, ...],
        required: int,
    ) -> None:
        """Apply one step to *buffer*, the virtual block whose first block
        has global index *index*, in place.

        The step applies when all its *required* block-control bits are set
        in *index*.  A 2x2 on one bit of *buffer* (*local_parity*) that is
        not exactly diagonal mixes its two sides.  Every other step is a
        phase on the sides of the :func:`~repro.statevector.ops.slab` layout
        of *local_parity* under *controls* — one side when no bit of its
        parity lies in *buffer*, two for a diagonal on one bit, four for a
        parity phase on two: a side of parity ``p`` takes ``m[e, e]``,
        ``e = p ^ b``, where ``b`` is the parity of *index*'s bits in
        *block_parity*, unless that entry is exactly 1.  A phase equals the
        2x2's values; a zero's sign may differ.
        """

        if index & required != required:
            return
        if local_parity.bit_count() == 1 and not is_exactly_diagonal(matrix):
            bit = local_parity.bit_length() - 1
            ops.apply_controlled_single_qubit(buffer, matrix, bit, controls)
            return
        shape, selections = ops.slab(buffer.size, local_parity, controls)
        view = buffer.reshape(shape)
        side = (index & block_parity).bit_count() & 1
        for parity, where in selections:
            phase = ops.block_phase(matrix, parity ^ side)
            if phase is not None:
                ops.apply_phase(view[where], phase)

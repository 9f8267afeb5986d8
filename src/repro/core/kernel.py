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
(:class:`~repro.distributed.exchange.GatePlan`), so each step takes the one
path :meth:`BlockKernel._apply_step`, chosen by how many of the buffer's
bits its parity has.  None: a diagonal whose qubits all lie above the
buffer, one scalar phase (:func:`repro.statevector.ops.apply_phase`).  One:
a 2x2 on that bit on two strided views — a pair's 2x2 on the top bit — or,
exactly diagonal, a phase on the side(s) whose entry is not exactly 1
(:func:`repro.statevector.ops.apply_diagonal`), the entries swapped when the
parity's bits above the buffer are odd.  Two or more: a parity phase on the
offsets where those bits are even and where they are odd.  Every phase
equals the 2x2's values; a zero's sign may differ (``apply_phase``'s
contract).  A step applies to a task whose block index has its block- and
rank-level controls set, so one run may hold steps under different
controls, and a pair run without non-local controls may carry *riders* —
one-block steps between its steps on the pair's target — which read each
half of the buffer at that block's own index, exactly as a one-block task
would.

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
        self._masks: dict[tuple, np.ndarray | None] = {}
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

    def _mask_for(
        self, size: int, local_controls: tuple[int, ...]
    ) -> np.ndarray | None:
        key = (size, local_controls)
        if key not in self._masks:
            self._masks[key] = ops.local_control_mask(size, local_controls)
        return self._masks[key]

    def _parity_masks_for(
        self, size: int, local_controls: tuple[int, ...], bits: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The offsets of a *size*-amplitude buffer under *local_controls*
        whose *bits* have even and odd parity (the two sides of a parity
        phase)."""

        key = (size, local_controls, bits)
        if key not in self._parity_masks:
            odd = ops.local_parity_mask(size, bits)
            even = ~odd
            controls = self._mask_for(size, local_controls)
            if controls is not None:
                even &= controls
                odd &= controls
            self._parity_masks[key] = (even, odd)
        return self._parity_masks[key]

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
        in *index*.  Its parity ``b`` over the bits of *block_parity* set in
        *index* picks the diagonal entry ``m[b, b]`` every amplitude starts
        from, and *local_parity* says where in *buffer* the other one lies:

        * no bit — one scalar phase ``m[b, b]`` unless it is exactly 1;
        * one bit — a 2x2 on it, or, when the 2x2 is exactly diagonal, a
          phase on the side(s) whose entry is not exactly 1 (the side at 1
          keeps its bytes), the entries swapped when ``b`` is 1;
        * two or more — ``m[b, b]`` on the offsets where those bits have
          even parity and the other entry where they have odd.

        A phase equals the 2x2's values; a zero's sign may differ.
        """

        if index & required != required:
            return
        if local_parity & (local_parity - 1):  # two or more bits: two sides
            even, odd = self._parity_masks_for(buffer.size, controls, local_parity)
            # Reversing both axes swaps a diagonal's two entries.
            sides = ((even, matrix), (odd, matrix[::-1, ::-1]))
        elif local_parity:  # one bit
            bit = local_parity.bit_length() - 1
            if not is_exactly_diagonal(matrix):
                ops.apply_controlled_single_qubit(buffer, matrix, bit, controls)
            elif (index & block_parity).bit_count() & 1:
                ops.apply_diagonal(buffer, matrix[::-1, ::-1], bit, controls)
            else:
                ops.apply_diagonal(buffer, matrix, bit, controls)
            return
        else:
            sides = ((self._mask_for(buffer.size, controls), matrix),)
        for mask, entries in sides:
            phase = ops.block_phase(entries, block_parity, index)
            if phase is not None:
                ops.apply_phase(buffer, phase, mask)

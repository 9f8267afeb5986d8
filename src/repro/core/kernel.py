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
(:class:`~repro.distributed.exchange.GatePlan`) and said which steps mix, so
what a step does to a buffer of a given size is decided once per plan, not
per task (:func:`resolve_step`, after qHiPSTER's kernel chosen per gate):
every task of a plan runs the same op, and the kernel keeps the resolution of
the last op it ran.  A step that mixes — a 2x2 on one bit of the buffer, a
pair's 2x2 on the top bit — mixes two strided views.  Every other step is a
phase, and its two diagonal entries are read once: the buffer is reshaped to
the :func:`repro.statevector.ops.slab` layout of its parity's bits inside the
buffer — none for a diagonal whose qubits all lie above it, one for a
diagonal, two for a parity phase — under its local controls, and each side
whose diagonal entry is not exactly 1 is multiplied by it
(:func:`repro.statevector.ops.apply_phase`), the entries swapped when the
parity's bits above the buffer are odd.  On a small buffer
(:data:`GATHER_MAX_AMPLITUDES`) a phase with a bit in the buffer, no local
control and no entry at 1 is one gathered multiply over the whole buffer
instead (:func:`repro.statevector.ops.apply_phase_table`), with the same
operands per amplitude.  Every phase equals the 2x2's values; a zero's sign
may differ (``apply_phase``'s contract).  A step
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
from typing import Callable, Iterable, MutableMapping, NamedTuple, TypeVar

import numpy as np

from ..compression.interface import Compressor, decode
from ..distributed.exchange import BlockOp
from ..statevector import ops
from .blocks import CompressedBlock, ScratchPool
from .cache import BlockCache
from .report import SimulationReport

__all__ = [
    "BlockOp",
    "TaskStats",
    "BlockKernel",
    "ResolvedStep",
    "resolve_step",
    "group_tasks",
]

Task = TypeVar("Task")

#: The largest virtual block (amplitudes) on which a phase that moves every
#: amplitude is one gathered multiply rather than one multiply per strided
#: view.  ``bench_kernels.py``'s phase-form rows read the gathered form
#: faster for such a phase at every size they time (2^9-2^16), so the bound
#: is one of memory: the form reads a cached ``uint8`` class vector per
#: buffer size and parity (:func:`~repro.statevector.ops.parity_classes`),
#: and this keeps it below the smallest Grover block, 2^12 amplitudes.  A
#: phase with an entry of exactly 1 keeps the views, which skip that side.
GATHER_MAX_AMPLITUDES = 1 << 11


class ResolvedStep(NamedTuple):
    """One step of a :class:`BlockOp` as a task runs it (:func:`resolve_step`):
    ``form(buffer, *sides[b])`` on the tasks whose block index has the
    *required* bits set, ``b`` the parity of its bits in *block_parity*."""

    required: int
    block_parity: int
    form: Callable[..., None]
    #: The form's arguments after the buffer, for ``b = 0`` and ``b = 1``.
    sides: tuple[tuple, tuple]


def _apply_views(buffer: np.ndarray, shape: tuple[int, ...], phases: tuple) -> None:
    """:func:`repro.statevector.ops.apply_phase` on each ``(index, phase)``
    of *phases*, a view of *buffer* reshaped to *shape*."""

    view = buffer.reshape(shape)
    for where, phase in phases:
        ops.apply_phase(view[where], phase)


def _phase_views(
    size: int, local_parity: int, controls: tuple[int, ...], entries: tuple
) -> tuple[Callable[..., None], tuple[tuple, tuple]]:
    """A phase step as one multiply per :func:`~repro.statevector.ops.slab`
    view whose entry is not ``None`` (exactly 1): the form and its
    arguments for either block parity.  *entries* are the phases of parity 0
    and 1, a view of parity ``p`` takes ``entries[p ^ b]``."""

    shape, selections = ops.slab(size, local_parity, controls)
    sides = tuple(
        (
            shape,
            tuple(
                (where, entries[parity ^ side])
                for parity, where in selections
                if entries[parity ^ side] is not None
            ),
        )
        for side in (0, 1)
    )
    return _apply_views, sides


def _phase_table(
    size: int, local_parity: int, entries: tuple
) -> tuple[Callable[..., None], tuple[tuple, tuple]]:
    """A phase step as one gathered multiply over the whole buffer
    (:func:`~repro.statevector.ops.apply_phase_table`): the form and its
    arguments for either block parity.  Rewrites a ``-0.0`` where an entry
    is 1, so only for two entries that are not."""

    classes = ops.parity_classes(size, local_parity)
    table = np.array(entries)
    return ops.apply_phase_table, ((table, classes), (table[::-1].copy(), classes))


def resolve_step(
    size: int,
    matrix: np.ndarray,
    local_parity: int,
    block_parity: int,
    controls: tuple[int, ...],
    required: int,
    mixes: bool,
) -> ResolvedStep:
    """Decide how one step of a :class:`BlockOp` (its fields in op order)
    runs on a *size*-amplitude virtual block — once per plan, not per task.

    A step that *mixes* is a 2x2 on the bit *local_parity* under *controls*
    (two strided views).  Every other step is a phase: its two entries
    (:func:`~repro.statevector.ops.block_phase`, ``None`` for exactly 1)
    are read here, and it is one gathered multiply over the buffer when its
    parity has a bit in the buffer, it has no local control, neither entry
    is 1 and the buffer has at most :data:`GATHER_MAX_AMPLITUDES`
    amplitudes; otherwise a multiply per strided view whose entry is not 1.
    Both give the bytes of a phase on each side; a side at 1 keeps its
    bytes, ``-0.0`` included.
    """

    if mixes:
        args = (matrix, local_parity.bit_length() - 1, controls)
        form = ops.apply_controlled_single_qubit
        return ResolvedStep(required, 0, form, (args, args))
    entries = (ops.block_phase(matrix, 0), ops.block_phase(matrix, 1))
    if (
        local_parity
        and not controls
        and size <= GATHER_MAX_AMPLITUDES
        and all(entry is not None for entry in entries)
    ):
        form, sides = _phase_table(size, local_parity, entries)
    else:
        form, sides = _phase_views(size, local_parity, controls, entries)
    return ResolvedStep(required, block_parity, form, sides)


@dataclass
class TaskStats:
    """What a run of block tasks cost: counters plus the three bucket seconds.

    ``duplicates`` are tasks served by a byte-identical task of the same plan
    (no cache lookup, no codec call).  Cache hits and misses are the lookups
    the kernel's cache *counted* — a self-disabled cache counts neither,
    exactly like :class:`BlockCache`'s own statistics — and
    ``cache_peak_bytes`` is that cache's ``peak_bytes`` after its last insert.
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
    cache_peak_bytes: int = 0

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
        if self.cache_peak_bytes > report.peak_cache_bytes:
            report.peak_cache_bytes = self.cache_peak_bytes


def group_tasks(
    op: BlockOp, staged: Iterable[tuple[Task, tuple[CompressedBlock, ...], int]]
) -> list[tuple[tuple, list[Task]]]:
    """Group a plan's tasks by exactly what :meth:`BlockKernel.run` reads.

    *staged* yields ``(task, entries, index)``: the caller's handle for a
    task, the one or two stored blocks it stages and its first block's
    global index.  Tasks share a group when their blobs are equal (a blob
    names its own codec) and so are the bits of *index* that *op* reads.
    Groups come back in first-seen order as ``(inputs, tasks)``: *inputs*
    are the positional arguments of :meth:`BlockKernel.run` after
    ``(op, stats)`` — the blob tuple and the read index bits;
    run them once with ``copies=len(tasks)`` and store the outputs for every
    task.  This is safe because a plan stages each block at most
    once, so no task's inputs are another's outputs.
    """

    groups: dict[tuple, list[Task]] = {}
    for task, entries, index in staged:
        blobs = tuple(entry.blob for entry in entries)
        groups.setdefault((blobs, index & op.index_mask), []).append(task)
    return list(groups.items())


class BlockKernel:
    """Warm state for block round trips plus the one function that runs them.

    Input blobs decode through :func:`~repro.compression.interface.decode`,
    by their header tags.

    Parameters
    ----------
    scratch:
        The pool whose buffer a block (or block pair) is staged in.
    cache:
        Optional compressed block cache (Section 3.4) — the simulator's own
        in the parent, a private shard in a worker.
    """

    def __init__(self, scratch: ScratchPool, cache: BlockCache | None = None) -> None:
        self.scratch = scratch
        self.cache = cache
        self._compressors: dict[str, Compressor] = {}
        self._last: tuple[BlockOp, int, tuple[ResolvedStep, ...]] | None = None

    def compressor_for(self, compressor: Compressor) -> Compressor:
        """Warm instance equal to *compressor* (keyed by ``describe()``).

        Workers receive a freshly unpickled compressor with every message;
        recompressing with the first instance seen keeps its tables warm
        across gates.
        """

        return self._compressors.setdefault(compressor.describe(), compressor)

    def reset(self) -> None:
        """Fresh-simulator state: empty cache, no warm compressors."""

        if self.cache is not None:
            self.cache.reset()
        self._compressors.clear()
        self._last = None

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

        bound = op.compressor.bound
        staged = (
            (task, tuple(table[index] for index in task), task[0]) for task in tasks
        )
        for inputs, group in group_tasks(op, staged):
            outputs = self.run(op, stats, *inputs, copies=len(group))
            for task in group:
                for index, blob in zip(task, outputs):
                    table[index] = CompressedBlock(blob, bound)

    def run(
        self,
        op: BlockOp,
        stats: TaskStats,
        inputs: tuple[bytes, ...],
        index: int = 0,
        copies: int = 1,
    ) -> tuple[bytes, ...]:
        """One block task: returns one output blob per blob of *inputs*.

        *inputs* are the task's blocks in virtual-block order — one block,
        or a pair with its target bit 0 first — and *index* is the first
        one's global index (``rank * blocks_per_rank + block``); only its
        bits in ``op.index_mask`` are read, and the cache key carries them,
        since byte-identical blocks on opposite sides of such a bit have
        different outputs.  The blobs are decompressed side by side into the
        scratch buffer, every step of *op* — resolved once per plan
        (:meth:`_resolved`) — goes through :meth:`_apply_step` on that
        virtual block in order, and each block is recompressed.  A
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
        if cache is not None and cache.enabled:
            cached = cache.lookup(op_key, *inputs)
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
        for block, blob in zip(blocks, inputs):
            scratch.fill(block, decode(blob))
        decoded = perf_counter()
        for step in self._resolved(op, buffer.size):
            self._apply_step(buffer, index, step)
        applied = perf_counter()
        outputs = tuple(compress(block.view(np.float64)) for block in blocks)
        done = perf_counter()
        stats.decompression += decoded - start
        stats.computation += applied - decoded
        stats.compression += done - applied
        stats.decompress_calls += len(inputs)
        stats.compress_calls += len(inputs)

        if cache is not None:
            cache.insert(op_key, *inputs, *outputs)
            stats.cache_peak_bytes = cache.stats.peak_bytes
        return outputs

    def _resolved(self, op: BlockOp, size: int) -> tuple[ResolvedStep, ...]:
        """*op*'s steps resolved for a *size*-amplitude virtual block —
        once per plan: every task of a plan runs the same op object, so the
        last resolution is kept and reused while it is that op's."""

        last = self._last
        if last is None or last[0] is not op or last[1] != size:
            steps = zip(
                op.matrices,
                op.local_parities,
                op.block_parities,
                op.local_controls,
                op.block_controls,
                op.mixes,
            )
            resolved = tuple(resolve_step(size, *step) for step in steps)
            last = self._last = (op, size, resolved)
        return last[2]

    @staticmethod
    def _apply_step(buffer: np.ndarray, index: int, step: ResolvedStep) -> None:
        """Apply one resolved step to *buffer*, the virtual block whose first
        block has global index *index*, in place.

        The step applies when all its block-control bits are set in *index*;
        it then runs the form :func:`resolve_step` chose with the arguments
        of the side ``b``, the parity of *index*'s bits in the step's block
        parity.  Nothing is decided here: the entries, the form and the
        strided layout were all fixed when the plan's op was resolved.
        """

        if index & step.required == step.required:
            side = (index & step.block_parity).bit_count() & 1
            step.form(buffer, *step.sides[side])

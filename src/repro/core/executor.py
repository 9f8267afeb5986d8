"""Block-task execution engine: the in-process transport.

Every block task is one call to :meth:`repro.core.kernel.BlockKernel.run`
(cache lookup, decompress, apply, recompress); the executor here decides only
*where* that call happens and commits its output blobs to the block store.

:class:`TaskExecutor` runs the kernel in the parent process — inline, or on
an optional thread pool.  Either way it first groups the whole plan with
:func:`~repro.core.kernel.group_tasks`: byte-identical tasks run once and
their outputs go to every task of the group.  A plan stages each
(rank, block) at most once, so the groups touch pairwise-disjoint blocks and
can run concurrently — each leases its own scratch buffers from the shared
:class:`~repro.core.blocks.ScratchPool`, and the block cache and report use
internal locks.  The NumPy kernels and the zlib/lzma/bz2 backends release the
GIL on block-sized payloads, which is where the wall-clock win comes from.

With ``num_workers=1`` (the default) the groups run one after another on the
calling thread.  Results and counters are the same either way: groups write
disjoint blocks, the compressors are deterministic pure functions of their
input, and a cache hit returns the same bytes recomputation would produce.

Communication accounting stays in the calling thread: the simulated
communicator's modelled-time delta is order-dependent, so the executor
accounts every cross-rank exchange of the plan up front, before dispatch.
The block store is written from the calling thread too (:meth:`_commit`).

The process-parallel transport is the ranked tier
(:class:`repro.distributed.ranked.RankedExecutor`): one worker process per
rank, each owning its slice of the blocks and running the same kernel.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from ..compression.interface import Compressor
from ..distributed.comm import SimulatedCommunicator
from ..distributed.exchange import BlockTask, GatePlan
from .blocks import ScratchPool
from .cache import BlockCache
from .compressed_state import CompressedStateVector
from .kernel import BlockKernel, BlockOp, TaskStats, group_tasks
from .report import SimulationReport

__all__ = ["TaskExecutor"]


class TaskExecutor:
    """Runs the block tasks of one plan (a gate's, or a run's).

    Parameters
    ----------
    state:
        The compressed state whose blocks the tasks read and write.
    scratch:
        Shared scratch pool; must hold at least two buffers per worker so a
        block-pair task can always lease both of its buffers atomically.
    cache:
        Optional compressed block cache (Section 3.4); must be thread-safe.
    decompressors:
        Compressor-name → instance map used to decode stored blobs.
    report:
        Time/counter accumulator; must be thread-safe.
    comm:
        Simulated communicator for cross-rank exchanges (main thread only).
    num_workers:
        Thread-pool width; ``1`` executes sequentially with no pool at all.
    """

    def __init__(
        self,
        *,
        state: CompressedStateVector,
        scratch: ScratchPool,
        cache: BlockCache | None,
        decompressors: dict[str, Compressor],
        report: SimulationReport,
        comm: SimulatedCommunicator,
        num_workers: int = 1,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if num_workers > 1 and scratch.num_buffers < 2 * num_workers:
            raise ValueError(
                f"scratch pool has {scratch.num_buffers} buffers; "
                f"{num_workers} workers need {2 * num_workers}"
            )
        self._state = state
        self._kernel = BlockKernel(decompressors, scratch, cache)
        self._report = report
        self._comm = comm
        self._num_workers = int(num_workers)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_guard = threading.Lock()

    @property
    def num_workers(self) -> int:
        """How many pool threads execute block tasks (1 = sequential)."""

        return self._num_workers

    def reset_workers(self) -> None:
        """Restore fresh-simulator worker state between batched circuits.

        Pool threads keep no per-worker state, so this is a no-op; the
        ranked executor clears every rank's block-cache shard and
        warm-compressor map here.
        """

    def rebind_report(self, report: SimulationReport) -> None:
        """Point the executor at a fresh report accumulator.

        Called by :meth:`CompressedSimulator.reset` between batched circuits
        so each circuit gets its own report while the executor (and its
        worker pool) stays warm.
        """

        self._report = report

    def close(self) -> None:
        """Shut down the worker pool (idempotent; sequential mode is a no-op)."""

        with self._pool_guard:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "TaskExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_guard:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._num_workers,
                    thread_name_prefix="repro-block-task",
                )
            return self._pool

    # -- plan execution ---------------------------------------------------------------

    def run_plan(self, op: BlockOp, plan: GatePlan) -> None:
        """Execute every task of *plan*, applying *op*'s steps."""

        self._account_exchanges(plan)
        state = self._state
        per_rank = state.partition.blocks_per_rank
        groups = group_tasks(
            op,
            (
                (
                    task,
                    tuple(state.get_block(*buffer) for buffer in task.buffers),
                    task.first[0] * per_rank + task.first[1],
                )
                for task in plan.tasks
            ),
        )
        if self._num_workers == 1 or len(groups) < 2:
            self._run_inline(op, groups)
            return
        pool = self._ensure_pool()
        futures = [
            (pool.submit(self._run_on_thread, op, inputs, len(tasks)), tasks)
            for inputs, tasks in groups
        ]
        for future, tasks in futures:
            self._commit(op, tasks, *future.result())

    def _run_inline(
        self, op: BlockOp, groups: list[tuple[tuple, list[BlockTask]]]
    ) -> None:
        """Run task groups one after another on the calling thread.

        Each group commits before the next one runs, and the counters of the
        groups that finished reach the report even when a later one raises.
        """

        stats = TaskStats()
        try:
            for inputs, tasks in groups:
                outputs = self._kernel.run(op, stats, *inputs, copies=len(tasks))
                self._commit(op, tasks, *outputs)
        finally:
            stats.fold_into(self._report)

    def _run_on_thread(
        self, op: BlockOp, inputs: tuple, copies: int
    ) -> tuple[bytes, bytes | None]:
        """Pool-thread body: one group's round trip; the caller commits."""

        stats = TaskStats()
        try:
            return self._kernel.run(op, stats, *inputs, copies=copies)
        finally:
            stats.fold_into(self._report)

    def _commit(
        self,
        op: BlockOp,
        tasks: list[BlockTask],
        out1: bytes,
        out2: bytes | None = None,
    ) -> None:
        """Store a task group's output blobs (calling thread only)."""

        for task in tasks:
            self._state.put_block(task.first[0], task.first[1], out1, op.compressor)
            if task.second is not None and out2 is not None:
                self._state.put_block(
                    task.second[0], task.second[1], out2, op.compressor
                )

    def _account_exchanges(self, plan: GatePlan) -> None:
        """Record the plan's inter-rank block exchanges (Section 3.3).

        Each rank ships its compressed block to the other before the update;
        the modelled-seconds delta must be observed serially, so this runs in
        the calling thread before any task is dispatched.
        """

        for task in plan.tasks:
            if not task.crosses_ranks or task.second is None:
                continue
            entry1 = self._state.get_block(*task.first)
            entry2 = self._state.get_block(*task.second)
            before = self._comm.modelled_seconds
            self._comm.exchange_blocks(
                task.first[0], task.second[0], max(entry1.nbytes, entry2.nbytes)
            )
            self._report.add_time("communication", self._comm.modelled_seconds - before)

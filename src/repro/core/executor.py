"""Block-task execution engine: the in-process transport.

Every block task is one call to :meth:`repro.core.kernel.BlockKernel.run`
(cache lookup, decompress, apply, recompress); the executor here decides only
*where* that call happens and commits its output blobs to the block store.

:class:`TaskExecutor` runs the kernel on the calling thread.  It first
groups the whole plan with :func:`~repro.core.kernel.group_tasks`:
byte-identical tasks run once and their outputs go to every task of the
group, one group after another.

The parallel transport is the ranked tier
(:class:`repro.distributed.ranked.RankedExecutor`): one worker process per
rank, each owning its slice of the blocks and running the same kernel.
"""

from __future__ import annotations

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
        The two scratch buffers block tasks are staged in.
    cache:
        Optional compressed block cache (Section 3.4).
    decompressors:
        Compressor-name → instance map used to decode stored blobs.
    report:
        Time/counter accumulator.
    comm:
        Simulated communicator for cross-rank exchanges.
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
    ) -> None:
        self._state = state
        self._kernel = BlockKernel(decompressors, scratch, cache)
        self._report = report
        self._comm = comm

    def reset_workers(self) -> None:
        """Restore fresh-simulator worker state between batched circuits.

        This executor keeps no per-worker state, so this is a no-op;
        the ranked executor clears every rank's block-cache shard and
        warm-compressor map here.
        """

    def rebind_report(self, report: SimulationReport) -> None:
        """Point the executor at a fresh report accumulator.

        Called by :meth:`CompressedSimulator.reset` between batched circuits
        so each circuit gets its own report while the executor stays warm.
        """

        self._report = report

    def close(self) -> None:
        """Nothing to release; the ranked executor stops its rank workers."""

    def __enter__(self) -> "TaskExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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
        stats = TaskStats()
        try:
            # Each group commits before the next one runs, and the counters
            # of the groups that finished reach the report even when a later
            # one raises.
            for inputs, tasks in groups:
                outputs = self._kernel.run(op, stats, *inputs, copies=len(tasks))
                self._commit(op, tasks, *outputs)
        finally:
            stats.fold_into(self._report)

    def _commit(
        self,
        op: BlockOp,
        tasks: list[BlockTask],
        out1: bytes,
        out2: bytes | None = None,
    ) -> None:
        """Store a task group's output blobs."""

        for task in tasks:
            self._state.put_block(task.first[0], task.first[1], out1, op.compressor)
            if task.second is not None and out2 is not None:
                self._state.put_block(
                    task.second[0], task.second[1], out2, op.compressor
                )

    def _account_exchanges(self, plan: GatePlan) -> None:
        """Record the plan's inter-rank block exchanges (Section 3.3).

        Each rank ships its compressed block to the other before the update,
        so this runs before any task of the plan.
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

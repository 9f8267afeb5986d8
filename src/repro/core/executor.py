"""Block-task execution engine: the in-process and process-pool transports.

Every block task is one call to :meth:`repro.core.kernel.BlockKernel.run`
(cache lookup, decompress, apply, recompress); the executors here decide only
*where* that call happens and commit its output blobs to the block store.

:class:`TaskExecutor` runs the kernel in the parent process — inline, or on
an optional thread pool: the tasks of one gate plan touch pairwise-disjoint
(rank, block) sets (:meth:`GatePlan.independent_groups`), so they can run
concurrently — each task leases its own scratch buffers from the shared
:class:`~repro.core.blocks.ScratchPool`, and the block cache and report use
internal locks.  The NumPy kernels and the zlib/lzma/bz2 backends release the
GIL on block-sized payloads, which is where the wall-clock win comes from.

With ``num_workers=1`` (the default) execution is exactly the seed's
sequential loop.  Results are bit-identical either way: tasks write disjoint
blocks, the compressors are deterministic pure functions of their input, and
a cache hit returns the same bytes recomputation would produce.

Communication accounting stays in the calling thread: the simulated
communicator's modelled-time delta is order-dependent, so the executor
accounts every cross-rank exchange of the plan up front, before dispatch.
The block store is written from the calling thread too (:meth:`_commit`).

:class:`ProcessTaskExecutor` is the second tier (``SimulatorConfig.executor
= "process"``): the same plan semantics, but the tasks ship to a persistent
pool of worker *processes* (:mod:`repro.core.procpool`), each a
:class:`BlockTaskWorker` holding a warm kernel — decompressor map, scratch
buffers and a block-cache shard.  Blobs move through shared-memory slots
rather than pickle, and the codec work — which the thread tier cannot
parallelise because NumPy fancy-index gathers hold the GIL — runs truly
concurrently.  Results are bit-identical across both tiers and the
sequential path: tasks write disjoint blocks and every worker runs the exact
same kernel on the exact same bytes.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable

from ..compression.interface import Compressor
from ..distributed.comm import SimulatedCommunicator
from ..distributed.exchange import BlockTask, GatePlan
from ..errors import BlockCorruptionError, WorkerCrashedError
from ..resilience import FaultPolicy, resolve_fault_policy
from .blocks import ScratchPool
from .cache import BlockCache
from .compressed_state import CompressedStateVector
from .kernel import BlockKernel, BlockOp, TaskStats
from .procpool import (
    SLOTS_PER_WORKER,
    ProcessPool,
    SlotArena,
    _pack_frames,
    _read_frame,
    block_slot_bytes,
    raise_worker_error,
)
from .report import SimulationReport

__all__ = ["TaskExecutor", "ProcessTaskExecutor", "BlockTaskWorker"]

#: A task's kernel inputs — ``(blob1, name1)`` or ``(blob1, name1, blob2,
#: name2)`` — with the tasks that read exactly those bytes: one runs, the
#: outputs go to all.
TaskGroup = tuple[tuple, list[BlockTask]]


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
        self._validate_scratch(scratch, num_workers)
        self._state = state
        self._kernel = BlockKernel(decompressors, scratch, cache)
        self._report = report
        self._comm = comm
        self._num_workers = int(num_workers)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_guard = threading.Lock()

    @staticmethod
    def _validate_scratch(scratch: ScratchPool, num_workers: int) -> None:
        if num_workers > 1 and scratch.num_buffers < 2 * num_workers:
            raise ValueError(
                f"scratch pool has {scratch.num_buffers} buffers; "
                f"{num_workers} workers need {2 * num_workers}"
            )

    @property
    def num_workers(self) -> int:
        """How many workers execute block tasks (1 for the thread tier)."""

        return self._num_workers

    def reset_workers(self) -> None:
        """Restore fresh-simulator worker state between batched circuits.

        The thread tier keeps no per-worker state beyond the pool itself, so
        this is a no-op; the process tier overrides it to clear every
        worker's block-cache shard and warm-compressor map.
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
        if self._num_workers == 1 or len(plan.tasks) < 2:
            self._run_inline(op, ((self._inputs(task), [task]) for task in plan.tasks))
            return
        pool = self._ensure_pool()
        for wave in plan.independent_groups():
            futures = [
                (pool.submit(self._run_on_thread, op, inputs), tasks)
                for inputs, tasks in self._dedupe_wave(wave)
            ]
            for future, tasks in futures:
                self._commit(op, tasks, *future.result())

    def _inputs(self, task: BlockTask) -> tuple:
        """The stored blobs (and their codec names) *task* reads."""

        entry1 = self._state.get_block(*task.first)
        if task.second is None:
            return entry1.blob, entry1.compressor
        entry2 = self._state.get_block(*task.second)
        return entry1.blob, entry1.compressor, entry2.blob, entry2.compressor

    def _dedupe_wave(self, wave: tuple[BlockTask, ...]) -> list[TaskGroup]:
        """Group a wave's tasks by byte-identical input blobs.

        This is the Section 3.4 redundancy the block cache exploits.  Running
        duplicates concurrently would make every copy miss the cache and pay
        a full round trip; instead one representative computes and the output
        blobs fan out to the duplicates — the same total compressor work the
        sequential path achieves via cache hits.
        """

        groups: dict[tuple, list[BlockTask]] = {}
        for task in wave:
            groups.setdefault(self._inputs(task), []).append(task)
        return list(groups.items())

    def _run_inline(self, op: BlockOp, groups: Iterable[TaskGroup]) -> None:
        """Run task groups one after another on the calling thread.

        Each group commits before the next one runs, and the counters of the
        groups that finished reach the report even when a later one raises.
        """

        stats = TaskStats()
        try:
            for inputs, tasks in groups:
                self._commit(op, tasks, *self._kernel.run(op, stats, *inputs))
        finally:
            stats.fold_into(self._report)

    def _run_on_thread(
        self, op: BlockOp, inputs: tuple
    ) -> tuple[bytes, bytes | None]:
        """Pool-thread body: one round trip; the caller commits the outputs."""

        stats = TaskStats()
        try:
            return self._kernel.run(op, stats, *inputs)
        finally:
            stats.fold_into(self._report)

    def _commit(
        self,
        op: BlockOp,
        tasks: list[BlockTask],
        out1: bytes,
        out2: bytes | None = None,
    ) -> None:
        """Store a task group's output blobs (calling thread only).

        ``tasks[0]`` is the task that ran; the rest are its byte-identical
        duplicates, which count as executed tasks without a round trip.
        """

        for task in tasks:
            self._state.put_block(task.first[0], task.first[1], out1, op.compressor)
            if task.second is not None and out2 is not None:
                self._state.put_block(
                    task.second[0], task.second[1], out2, op.compressor
                )
        if len(tasks) > 1:
            self._report.add_count("tasks_executed", len(tasks) - 1)

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


class ProcessTaskExecutor(TaskExecutor):
    """Runs block tasks on a persistent pool of worker *processes*.

    Same contract as :class:`TaskExecutor` — bit-identical results, disjoint
    block writes, exchange accounting up front — but the decompress → apply
    → recompress round trip happens in worker processes, so the codec path
    scales past the GIL.  Compressed blobs travel through per-worker
    shared-memory slots (:mod:`repro.core.procpool`); the control pipe only
    carries the 2x2 matrices, control metadata and frame references.

    Tasks route to workers by block affinity (flat index of the task's first
    block modulo the pool width), so each worker's block-cache shard sees
    every recurrence of its blocks' patterns and the assignment — hence the
    result — is deterministic.  Wave dedupe runs in the parent exactly as in
    the thread tier, so byte-identical duplicate tasks are computed once.

    Parameters beyond :class:`TaskExecutor`'s: *cache_lines*,
    *cache_miss_disable_threshold* and *cache_enabled* configure the
    per-worker cache shards (the parent's :class:`BlockCache` object is kept
    only as the stats sink the simulator reports from), *start_method*
    picks the ``multiprocessing`` start method (``None`` = platform
    default; ``"fork"`` and ``"spawn"`` are both supported and produce
    bit-identical states), and *fault_policy* opts into recovery.

    Failure handling (:mod:`repro.resilience`): the parent holds the
    authoritative block blobs until a wave commits, so when a worker dies or
    a shared-memory payload fails its checksum, the already-collected
    results of the wave stay committed, the dead workers are respawned in
    place and only the still-uncommitted task groups are re-dispatched —
    idempotent, bit-identical replay.  When ``max_retries`` is exhausted the
    ``degrade_to`` ladder (if any) finishes the wave inline and moves the
    executor down a tier (thread or sequential) for the rest of the run.
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
        cache_lines: int = 64,
        cache_miss_disable_threshold: int | None = 256,
        start_method: str | None = None,
        fault_policy: FaultPolicy | None = None,
    ) -> None:
        super().__init__(
            state=state,
            scratch=scratch,
            cache=cache,
            decompressors=decompressors,
            report=report,
            comm=comm,
            num_workers=num_workers,
        )
        self._cache_lines = int(cache_lines)
        self._cache_threshold = cache_miss_disable_threshold
        self._start_method = start_method
        self._proc_pool: ProcessPool | None = None
        self._policy = resolve_fault_policy(fault_policy)
        #: Tier the executor degraded to after exhausting retries, or None
        #: while the process tier is healthy.
        self._degraded: str | None = None

    @staticmethod
    def _validate_scratch(scratch: ScratchPool, num_workers: int) -> None:
        # Workers hold their own scratch pools; the parent pool only serves
        # sequential fallbacks and needs no per-worker sizing.
        if scratch.num_buffers < 2:
            raise ValueError("process executor needs >= 2 parent scratch buffers")

    # -- pool lifecycle ----------------------------------------------------------------

    def _ensure_proc_pool(self) -> ProcessPool:
        if self._proc_pool is None:
            kernel = self._kernel
            block_amplitudes = kernel.scratch.block_amplitudes
            self._proc_pool = ProcessPool(
                self._num_workers,
                BlockTaskWorker,
                init_args=(
                    block_amplitudes,
                    kernel.decompressors,
                    self._cache_lines,
                    self._cache_threshold,
                    kernel.cache is not None,
                ),
                slot_bytes=block_slot_bytes(block_amplitudes),
                start_method=self._start_method,
                fault_policy=self._policy,
            )
        return self._proc_pool

    @property
    def pool(self) -> ProcessPool | None:
        """The live worker pool, or ``None`` before the first plan runs."""

        return self._proc_pool

    def reset_workers(self) -> None:
        """Clear every worker's cache shard and warm-compressor map.

        Called by :meth:`CompressedSimulator.reset` so a batched circuit sees
        the same cache behaviour as a fresh simulator while the processes
        themselves (and their decompressor maps and scratch pools) stay warm.
        """

        if self._proc_pool is not None:
            self._proc_pool.broadcast(("reset",))

    def close(self) -> None:
        """Shut down the worker processes and any degrade-tier thread pool."""

        pool, self._proc_pool = self._proc_pool, None
        if pool is not None:
            pool.close()
        super().close()

    @property
    def degraded_tier(self) -> str | None:
        """Tier the executor fell back to ("thread"/"sequential"), or None."""

        return self._degraded

    # -- plan execution ----------------------------------------------------------------

    def run_plan(self, op: BlockOp, plan: GatePlan) -> None:
        """Execute one gate plan across the pool (inline once degraded)."""

        if self._degraded is not None or self._num_workers == 1:
            # The documented num_workers=1 contract is the seed's sequential
            # execution; a one-process pool would pay IPC per task for zero
            # parallelism.  The base class runs the plan in this process —
            # on threads after a degrade to "thread", inline otherwise.
            super().run_plan(op, plan)
            return
        self._account_exchanges(plan)
        pool = self._ensure_proc_pool()
        # The op rides the message flat: a nested NamedTuple costs ~4 us per
        # task to pickle, which the one-message-per-task wire cannot hide.
        base_message = ("task", *op)
        for wave_index, wave in enumerate(plan.independent_groups()):
            groups = self._dedupe_wave(wave)
            if self._degraded is not None:
                # A mid-plan degrade finishes the remaining waves inline.
                self._run_inline(op, groups)
                continue
            self._execute_wave(pool, op, wave_index, groups, base_message)

    def _execute_wave(
        self,
        pool: ProcessPool,
        op: BlockOp,
        wave_index: int,
        groups: list[TaskGroup],
        base_message: tuple,
    ) -> None:
        """Run one wave's task groups on the pool, recovering per the policy.

        Committed groups stay committed across retries — the parent's block
        store is authoritative, every group commits atomically at collect
        time, and only still-pending groups are re-dispatched — so replay
        after a worker death or a corrupted frame is bit-identical to an
        undisturbed run.
        """

        blocks_per_rank = self._state.partition.blocks_per_rank
        pending = groups
        attempt = 0
        while True:
            queues: dict[int, list[TaskGroup]] = {}
            for group in pending:
                rank, block = group[1][0].first
                worker_id = (rank * blocks_per_rank + block) % pool.num_workers
                queues.setdefault(worker_id, []).append(group)
            in_flight: dict[tuple[int, int], TaskGroup] = {}
            try:
                while queues or in_flight:
                    for worker_id in list(queues):
                        queue = queues[worker_id]
                        while queue and pool.can_submit(worker_id):
                            # Pop only after the submit succeeds: a crash
                            # detected at dispatch leaves the group queued
                            # for the retry pass.
                            inputs = queue[0][0]
                            ticket = pool.submit(
                                worker_id,
                                base_message + (inputs[1::2],),
                                inputs[::2],
                            )
                            in_flight[(worker_id, ticket)] = queue.pop(0)
                        if not queue:
                            del queues[worker_id]
                    if in_flight:
                        self._collect_one(pool, op, in_flight)
                return
            except (WorkerCrashedError, BlockCorruptionError) as exc:
                lost_start = time.perf_counter()
                self._drain_survivors(pool, op, in_flight)
                pending = [group for queue in queues.values() for group in queue]
                pending.extend(in_flight.values())
                if not pending:  # pragma: no cover - defensive
                    return
                if attempt < self._policy.max_retries:
                    attempt += 1
                    restarted = pool.heal()
                    self._report.record_recovery(
                        retries=1,
                        waves_replayed=1,
                        restarts=len(restarted),
                        time_lost_seconds=time.perf_counter() - lost_start,
                    )
                    delay = self._policy.backoff_seconds(attempt - 1)
                    if delay > 0:
                        time.sleep(delay)
                    continue
                if self._policy.degrade_to:
                    tier = self._policy.degrade_to[0]
                    self._enter_degraded(tier)
                    self._report.record_recovery(
                        degraded_to=tier,
                        time_lost_seconds=time.perf_counter() - lost_start,
                    )
                    self._run_inline(op, pending)
                    return
                exc.wave_index = wave_index
                exc.gate = op.name
                raise

    def _drain_survivors(
        self,
        pool: ProcessPool,
        op: BlockOp,
        in_flight: dict[tuple[int, int], TaskGroup],
    ) -> None:
        """Collect every still-valid reply after a failure surfaced.

        Healthy workers' results commit normally (and leave ``in_flight``);
        further corrupted frames stay pending for replay; dead workers'
        outstanding tickets are abandoned (their replies can never arrive).
        On return the pool owes nothing, and ``in_flight`` holds exactly the
        groups that must be re-dispatched.
        """

        while pool.has_outstanding():
            try:
                self._collect_one(pool, op, in_flight)
            except BlockCorruptionError:
                continue
            except WorkerCrashedError as exc:
                if exc.worker_id is not None:
                    pool.abandon_outstanding(exc.worker_id)
                    continue
                dead = pool.dead_workers()
                if not dead:
                    raise  # not a corpse: a stuck pool cannot be drained
                for worker_id in dead:
                    pool.abandon_outstanding(worker_id)

    def _enter_degraded(self, tier: str) -> None:
        """Tear down the process pool and move to a lower executor tier.

        The thread tier leases two scratch buffers per concurrent task from
        the *parent* pool (workers held their own), so the scratch pool is
        regrown before the first threaded wave runs; the sequential tier is
        the base class at width one.
        """

        self._degraded = tier
        pool, self._proc_pool = self._proc_pool, None
        if pool is not None:
            pool.close(join_timeout=0.5)
        scratch = self._kernel.scratch
        if tier != "thread":
            self._num_workers = 1
        elif scratch.num_buffers < 2 * self._num_workers:
            self._kernel.scratch = ScratchPool(
                scratch.block_amplitudes, buffers=2 * self._num_workers
            )

    def _collect_one(
        self,
        pool: ProcessPool,
        op: BlockOp,
        in_flight: dict[tuple[int, int], TaskGroup],
    ) -> None:
        worker_id, reply = pool.recv_any()
        if reply[0] == "err":
            raise_worker_error(reply, f"block task failed in pool worker {worker_id}")
        _, ticket, out_refs, stats = reply
        # Read every frame before committing anything: a corrupted frame
        # must leave the group fully uncommitted (still in in_flight) so the
        # recovery pass replays it from the parent's authoritative blobs.
        try:
            outs = [pool.read_frame(worker_id, ref) for ref in out_refs]
        except BlockCorruptionError as exc:
            exc.ticket = ticket
            raise
        _, tasks = in_flight.pop((worker_id, ticket))
        self._commit(op, tasks, *outs)
        # Shard lookups happen worker-side; folding their counted outcomes
        # into the parent cache object gives reports one aggregate view.
        stats.fold_into(self._report, self._kernel.cache)


class BlockTaskWorker:
    """Warm per-process state executing block tasks.

    Initialised once per worker: a :class:`~repro.core.kernel.BlockKernel`
    with its own decompressor map (one instance per codec class, exactly
    like the parent simulator's), two scratch buffers and an optional
    :class:`BlockCache` shard.  Tasks are routed to workers by block
    affinity, so a shard sees every recurrence of its blocks' patterns.
    """

    #: Dominant message kind, consulted by the fault harness when arming
    #: chaos injection for a pool of these workers.
    POOL_KIND = "task"

    def __init__(
        self,
        block_amplitudes: int,
        decompressors: dict[str, Compressor],
        cache_lines: int,
        cache_miss_disable_threshold: int | None,
        cache_enabled: bool,
    ) -> None:
        self._kernel = BlockKernel(
            dict(decompressors),
            ScratchPool(block_amplitudes, buffers=2),
            BlockCache(cache_lines, cache_miss_disable_threshold)
            if cache_enabled
            else None,
        )
        self._in_arena: SlotArena | None = None
        self._out_arena: SlotArena | None = None

    def bind_arenas(
        self, in_arena: SlotArena | None, out_arena: SlotArena | None
    ) -> None:
        """Receive the worker's payload slot arenas from the worker main loop."""

        self._in_arena = in_arena
        self._out_arena = out_arena

    def handle(self, message: tuple) -> tuple:
        """Serve one control message (``task`` / ``reset`` / ``ping`` / ``die``)."""

        kind = message[0]
        if kind == "task":
            return self._run_task(message)
        if kind == "reset":
            self._kernel.reset()
            return ("reset-ok", message[-2])
        if kind == "ping":
            return ("pong", message[-2])
        if kind == "die":  # test hook for the worker-failure path
            os._exit(17)
        raise ValueError(f"unknown block-task message {kind!r}")

    def _run_task(self, message: tuple) -> tuple:
        names, ticket, frames = message[6:]
        op = BlockOp(*message[1:4], self._kernel.compressor_for(message[4]), message[5])
        inputs = []
        for frame, name in zip(frames, names):
            inputs += (_read_frame(self._in_arena, frame), name)
        stats = TaskStats()
        outs = self._kernel.run(op, stats, *inputs)
        out_refs = _pack_frames(
            self._out_arena,
            ticket % SLOTS_PER_WORKER,
            [out for out in outs if out is not None],
        )
        return ("done", ticket, out_refs, stats)

"""The multi-rank distributed execution tier (real inter-rank block exchange).

This module reproduces the paper's distributed execution model (Sections 3.3
and 4) with *actual* data movement, not just accounting: the compressed state
is split over ``num_ranks`` persistent worker processes, each owning the
disjoint :class:`~repro.distributed.partition.Partition` slice an MPI rank
would own, and a gate that mixes amplitude pairs across the rank index
segment (a non-diagonal 2x2 on a rank-segment target; a diagonal there is a
one-block phase each rank applies on its own) moves real compressed blobs
between rank processes through
:class:`~repro.distributed.process_comm.ProcessCommunicator`, the
socket-pair stand-in for an MPI communicator.

Selected with ``SimulatorConfig(comm="process", num_ranks=...)`` — or its
other spelling, ``num_workers=num_ranks`` — and therefore
reachable from ``repro.run(...)`` like every other execution mode.
Two transports, each used for one thing: parent↔rank messages (gate batches,
readout reductions, and the blobs of hit-block sampling, checkpoints and
restore) ride one control pipe per worker; rank↔rank block exchange goes
over one connected socket pair per hypercube neighbour pair
(:func:`~repro.distributed.process_comm.rank_links`).
Two classes cooperate:

* :class:`RankWorker` — the warm per-process state of one rank (its block
  slice, its :class:`~repro.core.kernel.BlockKernel` and its communicator
  endpoint), driven through the :class:`~repro.core.procpool.ProcessPool`
  message loop.
* :class:`RankedStateVector` — the parent-side state: a
  :class:`~repro.core.compressed_state.CompressedStateVector` whose blocks
  live in the rank workers, and the driver of its
  :class:`~repro.core.procpool.ProcessPool`.  Per gate it distributes the
  :class:`~repro.distributed.exchange.GatePlan`'s tasks to their owning
  ranks as **one batched message per rank** (amortising IPC over the whole
  plan), then folds the per-rank codec/cache/communication statistics into
  the simulator's :class:`~repro.core.report.SimulationReport`, the one
  ledger of the traffic the ranks measured.  Block masses and diagonal
  observable partials (and with them the norm) are reduced in the rank
  workers — numbers cross the pipes, not blobs — and the remaining
  parent-side queries (the hit blocks of sampling, statevector
  materialisation, checkpointing) fetch blobs on demand
  (:meth:`RankedStateVector.get_block` / :meth:`RankedStateVector.put_block`).

Results are bit-identical to the single-process simulator: every rank runs
the exact same kernels and codecs on the exact same bytes.  A cross-rank pair
is computed once, by one of its two ranks, with the same
:meth:`repro.core.kernel.BlockKernel.run` call the sequential tier makes: the
two ranks split their shared pairs, each receives the input blob of the pairs
it computes, stages it beside its own as one virtual block, and returns the
peer's output blob (:meth:`RankWorker._run_gate`).
Each rank runs the non-exchange tasks of its batch through the same
:meth:`~repro.core.kernel.BlockKernel.run_tasks` the sequential state runs,
so byte-identical tasks are computed once; exchange tasks are never
grouped — as over MPI, the communication happens regardless, and only the codec work can be saved, by
the owning rank's cache shard.  The shards are the only block caches of this
tier: the parent keeps none, and their hits and misses reach the report with
the rest of each reply's :class:`~repro.core.kernel.TaskStats`.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

from ..compression.interface import Compressor
from ..core.blocks import CompressedBlock, ScratchPool
from ..core.compressed_state import (
    CompressedStateVector,
    initial_rank_blocks,
    reduce_blocks,
)
from ..core.cache import BlockCache
from ..core.kernel import BlockKernel, TaskStats
from ..core.procpool import ProcessPool, raise_worker_error
from ..core.report import SimulationReport
from ..errors import PoolProtocolError, ProcessCommTimeout
from ..resilience import faults
from .exchange import BlockOp, GatePlan
from .partition import Partition
from .process_comm import CommunicationStats, ProcessCommunicator, rank_links

__all__ = ["RankWorker", "RankedStateVector"]


class RankWorker:
    """Warm per-process state of one simulated-MPI rank.

    Owns the rank's slice of the compressed state (global block index →
    :class:`~repro.core.blocks.CompressedBlock`, in ascending order), a
    :class:`~repro.core.kernel.BlockKernel` (a scratch buffer of two
    blocks, warm compressors, an optional
    :class:`~repro.core.cache.BlockCache` shard) and the rank's
    :class:`~repro.distributed.process_comm.ProcessCommunicator` endpoint.
    Constructed once per worker process by the pool; every control message
    is served by :meth:`handle`.

    Parameters
    ----------
    num_qubits, num_ranks, block_amplitudes:
        The partition geometry (every rank derives the same
        :class:`~repro.distributed.partition.Partition`).
    cache_enabled:
        Whether this rank keeps a block-cache shard (the paper's 64 lines).
    comm_timeout:
        Deadline of any single blocking communicator operation.
    rank, links, fault_state:
        This worker's rank index, its ends of the rank↔rank socket pairs and
        the comm injections the parent armed for it (usually ``None``),
        appended per worker by the pool.
    """

    def __init__(
        self,
        num_qubits: int,
        num_ranks: int,
        block_amplitudes: int,
        cache_enabled: bool,
        comm_timeout: float,
        rank: int,
        links: dict,
        fault_state: faults.CommFaultState | None,
    ) -> None:
        self._rank = int(rank)
        self._partition = Partition(
            num_qubits=num_qubits,
            num_ranks=num_ranks,
            block_amplitudes=block_amplitudes,
        )
        self._comm = ProcessCommunicator(
            rank,
            num_ranks,
            links,
            timeout=comm_timeout,
            fault_state=fault_state,
        )
        self._blocks: dict[int, CompressedBlock] = {}
        self._kernel = BlockKernel(
            ScratchPool(block_amplitudes),
            BlockCache() if cache_enabled else None,
        )

    def close(self) -> None:
        """Close the communicator endpoint (called at worker shutdown)."""

        self._comm.close()

    def _rank_bytes(self) -> int:
        """Compressed bytes currently held by this rank's slice."""

        return sum(entry.nbytes for entry in self._blocks.values())

    # -- message handling -------------------------------------------------------------

    def handle(self, message: tuple) -> tuple:
        """Serve one control message; returns the reply tuple.

        Message kinds: ``init`` (a fresh rank: empty cache shard, no warm
        compressors, zero comm counters, the slice rebuilt to a basis
        state), ``gate`` (run this rank's batch of one gate plan's tasks),
        ``get`` / ``put`` (parent-side block access by global block index,
        the blob riding in the message), ``reduce`` (per-block masses and
        diagonal Pauli partials, numbers only), ``ping`` and the test hook
        ``die``.
        """

        kind = message[0]
        if kind == "gate":
            return self._run_gate(message)
        if kind == "init":
            _, compressor, basis_state = message
            self._kernel.reset()
            self._comm.stats = CommunicationStats()
            compressor = self._kernel.compressor_for(compressor)
            self._blocks, _ = initial_rank_blocks(
                self._partition, compressor, basis_state, self._rank
            )
            return ("init-ok", self._rank_bytes())
        if kind == "get":
            entry = self._blocks[message[1]]
            return ("block", entry.blob, entry.bound)
        if kind == "put":
            _, index, bound, blob = message
            self._blocks[index] = CompressedBlock(blob, bound)
            return ("put-ok", self._rank_bytes())
        if kind == "reduce":
            offset_bits = self._partition.offset_bits
            masses, partials = reduce_blocks(
                (
                    (index << offset_bits, entry)
                    for index, entry in self._blocks.items()
                ),
                message[1],
            )
            return ("reduce-ok", masses, partials)
        if kind == "ping":
            return ("pong",)
        if kind == "die":  # test hook for the rank-death path
            os._exit(19)
        raise ValueError(f"unknown rank-worker message {kind!r}")

    # -- gate execution ---------------------------------------------------------------

    def _run_gate(self, message: tuple) -> tuple:
        """Run this rank's batch of one gate plan's tasks.

        ``("gate", op, None, tasks)`` holds one-block and intra-rank pair
        tasks as tuples of global block indices, run through
        :meth:`~repro.core.kernel.BlockKernel.run_tasks` like the sequential
        state's.  ``("gate", op, peer, blocks)`` holds cross-rank pairs: this
        rank's local *blocks*, each paired with the same local block of
        *peer*; the kernel gets each pair's target-bit-0 global index, whose
        block lives on the lower of the two ranks.

        Both ranks of a cross-rank pair list their pairs in the same order
        and take them two at a time: the lower rank owns a chunk's first
        pair, the upper rank its second.  The first exchange sends the peer
        this rank's input blob of the pair the peer owns; each rank then
        stages the pair it owns — its own blob and the borrowed one, target
        bit 0 first — as one virtual block through the same kernel call as
        any pair, and the second exchange returns the peer's output blob.
        An odd last chunk is the same two exchanges with one side empty.  So every pair
        is computed once, a rank holds at most one foreign blob at a time,
        and only the codec round trip can be skipped, by a cache hit on the
        owner's shard.
        """

        _, op, peer, tasks = message
        kernel = self._kernel
        op = op._replace(compressor=kernel.compressor_for(op.compressor))
        stats = TaskStats()
        if peer is None:
            kernel.run_tasks(op, stats, self._blocks, tasks)
        else:
            self._exchange_pairs(op, stats, peer, tasks)
        return ("gate-ok", self._rank_bytes(), stats, self._comm.stats.as_dict())

    def _exchange_pairs(
        self, op: BlockOp, stats: TaskStats, peer: int, blocks: tuple[int, ...]
    ) -> None:
        """Compute this rank's share of the cross-rank pairs with *peer* (the
        protocol :meth:`_run_gate` describes) and store every output."""

        per_rank = self._partition.blocks_per_rank
        base, low_base = self._rank * per_rank, min(self._rank, peer) * per_rank
        row = int(self._rank > peer)  # 0: this rank holds target-bit-0 blocks
        bound = op.compressor.bound
        for start in range(0, len(blocks), 2):
            chunk = blocks[start : start + 2]
            owned = chunk[row] if row < len(chunk) else None
            lent = chunk[1 - row] if 1 - row < len(chunk) else None
            payload = b"" if lent is None else self._blocks[base + lent].blob
            received = self._comm.sendrecv_bytes(peer, payload, pairs=len(chunk))
            payload = b""
            if owned is not None:
                mine = self._blocks[base + owned].blob
                low, high = (mine, received) if row == 0 else (received, mine)
                outs = self._kernel.run(op, stats, (low, high), index=low_base + owned)
                self._blocks[base + owned] = CompressedBlock(outs[row], bound)
                payload = outs[1 - row]
            received = self._comm.sendrecv_bytes(peer, payload, pairs=0)
            if lent is not None:
                self._blocks[base + lent] = CompressedBlock(received, bound)


class RankedStateVector(CompressedStateVector):
    """A :class:`~repro.core.compressed_state.CompressedStateVector` whose
    blocks live in rank worker processes, and the parent-side driver of
    those workers.

    One persistent :class:`~repro.core.procpool.ProcessPool` worker per rank
    (:class:`RankWorker`), reached over that worker's control pipe; the
    socket pairs the rank endpoints exchange blocks over are created here,
    handed to the workers and closed on this side before the constructor
    returns.  Initialisation and :meth:`reset` broadcast the basis state
    (each rank compresses its own slice — byte-identical to the sequential
    path, the codecs being deterministic); :meth:`get_block` /
    :meth:`put_block` move one blob per request over the pipes, off the gate
    hot path; :meth:`reduce_blocks` runs in the rank workers.  The parent
    keeps no scratch pool and no block cache: the rank workers own all
    staging and the cache shards.

    Per gate, :meth:`run_plan` groups the plan's tasks by owning rank and
    ships them as one batched message per rank; each reply carries the
    rank's :class:`~repro.core.kernel.TaskStats` (codec timings, task,
    duplicate and cache-shard counts), slice footprint and cumulative
    :class:`~repro.distributed.process_comm.CommunicationStats`, which are
    folded into the report — ``communication_seconds`` grows by the
    *maximum* per-rank exchange-time delta of the gate (the critical path;
    the ranks communicate concurrently), while the codec buckets sum
    CPU-style across ranks.

    Parameters
    ----------
    partition, compressor, initial_basis_state, cache_enabled:
        As for :class:`~repro.core.compressed_state.CompressedStateVector`;
        *cache_enabled* gives every rank a shard.
    start_method:
        ``multiprocessing`` start method for the rank workers.
    comm_timeout:
        Deadline for any single blocking communicator operation inside the
        workers.

    Injected comm faults are armed here, in the parent, one
    :class:`~repro.resilience.faults.CommFaultState` per rank riding that
    rank's worker arguments; arming spends them, so the state the simulator
    rebuilds after a failure runs clean.  Rank death itself is recovered one
    level up (the simulator tears the pool down and resumes from its last
    resilience checkpoint).
    """

    # The block table, kernel and scratch pool of the base class live in the
    # rank workers, so its constructor is not run here.
    def __init__(
        self,
        partition: Partition,
        compressor: Compressor,
        initial_basis_state: int = 0,
        *,
        cache_enabled: bool,
        start_method: str | None = None,
        comm_timeout: float = 120.0,
    ) -> None:
        self._partition = partition
        num_ranks = partition.num_ranks
        # The workers hold the only open ends once the pool is up (or has
        # failed to come up): a socket is a descriptor, and this process may
        # build many simulators.
        with rank_links(num_ranks) as links:
            self._pool: ProcessPool | None = ProcessPool(
                num_ranks,
                RankWorker,
                init_args=(
                    partition.num_qubits,
                    num_ranks,
                    partition.block_amplitudes,
                    cache_enabled,
                    comm_timeout,
                ),
                worker_args=[
                    (rank, links[rank], faults.arm_for_comm(rank))
                    for rank in range(num_ranks)
                ],
                start_method=start_method,
            )
        self._rank_bytes = [0] * num_ranks
        try:
            self.reset(compressor, initial_basis_state)
        except BaseException:
            self.close()
            raise

    @property
    def pool(self) -> ProcessPool | None:
        """The live rank-worker pool (``None`` after :meth:`close`)."""

        return self._pool

    @property
    def cache(self) -> None:
        """``None``: the block-cache shards live in the rank workers."""

        return None

    def reset(self, compressor: Compressor, initial_basis_state: int = 0) -> None:
        """Re-initialise every rank's slice to ``|initial_basis_state>`` and
        restart every rank's cache shard, warm compressors and comm counters,
        keeping the rank processes (the batched-run reset path)."""

        pool = self._require_pool()
        num_ranks = self._partition.num_ranks
        for rank in range(num_ranks):
            pool.submit(rank, ("init", compressor, initial_basis_state))
        for worker_id, reply in self._collect(pool, num_ranks, "state initialisation"):
            self._rank_bytes[worker_id] = reply[1]
        self._rank_comm = [CommunicationStats().as_dict()] * num_ranks

    def close(self, join_timeout: float = 3.0) -> None:
        """Shut down the rank workers (idempotent).

        ``join_timeout`` bounds the graceful-exit wait per worker; recovery
        paths pass a short timeout because surviving ranks may be blocked in
        a communicator exchange with a dead peer and need the SIGTERM/SIGKILL
        escalation anyway.
        """

        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close(join_timeout=join_timeout)

    def new_report(self) -> SimulationReport:
        """An empty report carrying every rank's (zero) comm counters."""

        report = super().new_report()
        self._publish_comm(report)
        return report

    # -- plan execution ---------------------------------------------------------------

    def run_plan(self, op: BlockOp, plan: GatePlan, report: SimulationReport) -> None:
        """Distribute one gate's or run's plan across the ranks and fold
        the replies into *report*."""

        pool = self._require_pool()
        per_rank = self._partition.blocks_per_rank
        batches: dict[int, list] = {}
        peers: dict[int, int] = {}
        for task in plan.tasks:
            rank, block = divmod(task[0], per_rank)
            if plan.exchange_count:
                peer = task[1] // per_rank
                batches.setdefault(rank, []).append(block)
                batches.setdefault(peer, []).append(block)
                peers[rank], peers[peer] = peer, rank
            else:
                batches.setdefault(rank, []).append(task)
        for rank, tasks in batches.items():
            pool.submit(rank, ("gate", op, peers.get(rank), tuple(tasks)))
        comm_deltas = [0.0]
        for worker_id, reply in self._collect(pool, len(batches), "gate batch"):
            _, rank_bytes, stats, comm = reply
            self._rank_bytes[worker_id] = rank_bytes
            stats.fold_into(report)
            # The rank's exchange-seconds delta, for critical-path comm time.
            previous = self._rank_comm[worker_id]["exchange_seconds"]
            comm_deltas.append(comm["exchange_seconds"] - previous)
            self._rank_comm[worker_id] = comm
        report.add_time("communication", max(comm_deltas))
        self._publish_comm(report)

    def _publish_comm(self, report: SimulationReport) -> None:
        """Write the per-rank counters and their aggregate into *report*.

        Each endpoint counted what it sent, so bytes sum over the ranks, and
        every cross-rank pair ticked at both of its ranks.
        """

        per_rank = self._rank_comm
        report.communication_bytes = sum(entry["bytes_sent"] for entry in per_rank)
        report.block_exchanges = sum(entry["exchanges"] for entry in per_rank) // 2
        report.rank_comm = [
            {"rank": rank, **entry} for rank, entry in enumerate(per_rank)
        ]

    # -- the rank-worker protocol ----------------------------------------------------

    def _require_pool(self) -> ProcessPool:
        if self._pool is None:
            raise PoolProtocolError(
                "the ranked state is closed; its blocks now live nowhere — "
                "rebuild the simulator"
            )
        return self._pool

    def _collect(
        self, pool: ProcessPool, expected: int, context: str
    ) -> list[tuple[int, tuple]]:
        """Collect exactly *expected* replies from a multi-rank dispatch.

        On a worker ``("err", ...)`` reply the *remaining* outstanding
        replies are still drained before the error is re-raised — otherwise
        a later request would receive a stale queued reply and silently
        mis-unpack it.  Two failures skip the drain and propagate
        immediately, because the pool must be torn down either way: a dead
        worker (:class:`WorkerCrashedError`), and a
        :class:`~repro.errors.ProcessCommTimeout` err reply — the rank's
        peers are likely still blocked in the matching exchange and would
        only answer after their *own* deadlines.
        """

        replies: list[tuple[int, tuple]] = []
        error: tuple[int, tuple] | None = None
        for _ in range(expected):
            worker_id, reply = pool.recv_any()
            if reply[0] == "err":
                if isinstance(reply[1], ProcessCommTimeout):
                    raise_worker_error(reply, f"{context} failed on rank {worker_id}")
                if error is None:
                    error = (worker_id, reply)
                continue
            replies.append((worker_id, reply))
        if error is not None:
            raise_worker_error(error[1], f"{context} failed on rank {error[0]}")
        return replies

    def _request(self, rank: int, message: tuple) -> tuple:
        """Synchronous single-worker RPC (no other requests outstanding)."""

        pool = self._require_pool()
        pool.submit(rank, message)
        worker_id, reply = pool.recv_any()
        if reply[0] == "err":
            raise_worker_error(reply, f"request {message[0]!r} failed on rank {rank}")
        if worker_id != rank:  # pragma: no cover - protocol invariant
            raise PoolProtocolError(
                "out-of-band reply from another rank",
                worker_id=worker_id,
                op=message[0],
            )
        return reply

    # -- block-level access ---------------------------------------------------------

    def get_block(self, rank: int, block: int) -> CompressedBlock:
        """Pull one compressed block out of its owning rank worker."""

        _, blob, bound = self._request(rank, ("get", self._index(rank, block)))
        return CompressedBlock(blob=blob, bound=bound)

    def put_block(self, rank: int, block: int, entry: CompressedBlock) -> None:
        """Push one compressed block into its owning rank worker."""

        index = self._index(rank, block)
        reply = self._request(rank, ("put", index, entry.bound, entry.blob))
        self._rank_bytes[rank] = reply[1]

    def compressed_bytes(self) -> int:
        """Total compressed size across all ranks, as the last replies left it."""

        return sum(self._rank_bytes)

    def reduce_blocks(self, zmasks: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Per-block masses and diagonal partials, reduced in the rank workers.

        Each rank decodes its own blocks and replies with numbers only; the
        rows are stacked in rank order, so the result is the rank-major table
        the sequential state would produce for the same blobs.
        """

        pool = self._require_pool()
        zmasks = tuple(zmasks)
        num_ranks = self._partition.num_ranks
        for rank in range(num_ranks):
            pool.submit(rank, ("reduce", zmasks))
        replies = dict(self._collect(pool, num_ranks, "block reduction"))
        return (
            np.concatenate([replies[rank][1] for rank in range(num_ranks)]),
            np.concatenate([replies[rank][2] for rank in range(num_ranks)]),
        )

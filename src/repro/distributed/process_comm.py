"""Shared-memory rank-to-rank communication (the real inter-rank transport).

This module reproduces, at single-node scale, the communication layer the
paper runs over MPI (Sections 3.3 and 4): compressed blocks really do leave
the address space of the rank that owns them.  Each rank of the
:mod:`repro.distributed.ranked` execution tier holds one
:class:`ProcessCommunicator` endpoint attached to a single
:class:`RankCommArena` — a shared-memory segment the parent creates before
the rank workers start — and moves payloads through lock-free chunked
channels inside it:

* **Point-to-point block exchange** (``sendrecv_bytes``): one directed
  channel per hypercube neighbour pair ``(rank, rank ^ 2**k)`` — the only
  pairs a gate plan can generate, since a rank-segment target qubit flips
  exactly one rank bit (:meth:`repro.distributed.partition.Partition.rank_pairs`).
  A channel is a sequence/acknowledge counter pair plus a payload area;
  payloads larger than the area stream through it in chunks, so correctness
  never depends on the channel capacity.
* **Allreduce**: per-rank arrive/depart generation counters plus a value
  slot per rank — a two-phase rendezvous that keeps the value slots stable
  while any rank is still reading them.

Synchronisation is by polling with exponential backoff (hot spin, then
micro-sleeps): the critical sections are block-compression sized, so a
condition-variable handshake would cost more than it saves.  Every blocking
wait carries a deadline (:class:`ProcessCommTimeout`), so a dead peer turns
into a prompt error instead of a hang — the parent's pool additionally
detects dead worker processes on its own (see
:meth:`repro.core.procpool.ProcessPool.recv_any`).

**Memory-ordering assumption.**  The publish/consume counters are plain
stores with no explicit fences (pure Python has none to offer), so the
"payload before counter" ordering the protocol relies on is guaranteed by
x86's total store order — the architecture of the reference container and
of CI.  A weakly-ordered CPU (aarch64) could in principle make a counter
increment visible before the payload bytes it publishes; deploying the
ranked tier there should swap in a fence-bearing transport — most naturally
an mpi4py endpoint offering the same ``sendrecv_bytes`` / ``allreduce_sum``
calls, which is the portable path to multi-node scale anyway.

The accounting convention mirrors :class:`~repro.distributed.comm.SimulatedCommunicator`
so the two are comparable field by field after
:func:`~repro.distributed.comm.aggregate_rank_stats`: each endpoint counts
what it sent, and collectives use the same recursive-doubling cost model the
simulated communicator charges (the physical shared-memory writes are
cheaper, but the modelled volume is what a network implementation would
move).
"""

from __future__ import annotations

import time
from multiprocessing import shared_memory

import numpy as np

from .. import errors
from ..resilience import faults as _faults
from .comm import CommunicationStats

__all__ = ["RankCommArena", "ProcessCommunicator"]

#: Bytes of the per-channel header: seq, ack, message-total, chunk-length.
_CHANNEL_HEADER_BYTES = 32

#: Default per-channel payload capacity when none is derived from the block
#: size (conformance tests exercise far smaller capacities to force chunking).
DEFAULT_CHANNEL_CAPACITY = 1 << 16

#: Default deadline for any single blocking communicator operation.
DEFAULT_TIMEOUT_SECONDS = 120.0


def _is_power_of_two(value: int) -> bool:
    return value > 0 and value & (value - 1) == 0


def _layout(num_ranks: int, channel_capacity: int) -> tuple[int, int, int]:
    """Return ``(collective_bytes, channel_bytes, total_bytes)`` of a segment.

    The collective region holds three per-rank arrays (arrive counters,
    depart counters, float64 value slots); the channel region holds one
    directed channel per (rank, rank-bit) pair.
    """

    rank_bits = num_ranks.bit_length() - 1
    collective = 3 * 8 * num_ranks
    channel = _CHANNEL_HEADER_BYTES + channel_capacity
    total = collective + num_ranks * rank_bits * channel
    return collective, channel, max(1, total)


class RankCommArena:
    """Parent-owned shared-memory segment backing one rank communicator group.

    Created once by the ranked executor before its worker processes start;
    the workers attach endpoints by :attr:`name`.  Only this owner unlinks
    the segment (in :meth:`close`).

    Parameters
    ----------
    num_ranks:
        Number of ranks (power of two).
    channel_capacity:
        Payload bytes per directed channel.  Sized to one compressed block in
        the ranked tier; larger payloads stream through in chunks, so this is
        a throughput knob, not a correctness bound.
    """

    def __init__(
        self, num_ranks: int, channel_capacity: int = DEFAULT_CHANNEL_CAPACITY
    ) -> None:
        if not _is_power_of_two(num_ranks):
            raise ValueError(f"num_ranks ({num_ranks}) must be a power of two")
        if channel_capacity < 1:
            raise ValueError("channel_capacity must be >= 1")
        self._num_ranks = int(num_ranks)
        self._channel_capacity = int(channel_capacity)
        _, _, total = _layout(self._num_ranks, self._channel_capacity)
        self._shm = shared_memory.SharedMemory(create=True, size=total)
        # Counters must start at zero; SharedMemory zero-fills on most
        # platforms but the contract does not guarantee it.
        self._shm.buf[:total] = b"\x00" * total

    @property
    def name(self) -> str:
        """Segment name rank workers attach to."""

        return self._shm.name

    @property
    def num_ranks(self) -> int:
        """Number of ranks the arena is laid out for."""

        return self._num_ranks

    @property
    def channel_capacity(self) -> int:
        """Payload bytes per directed channel."""

        return self._channel_capacity

    def endpoint(
        self, rank: int, timeout: float = DEFAULT_TIMEOUT_SECONDS
    ) -> "ProcessCommunicator":
        """Attach an in-process endpoint for *rank* (tests and tools).

        Rank workers in other processes construct
        :class:`ProcessCommunicator` directly from :attr:`name` instead.
        """

        return ProcessCommunicator(
            self.name,
            rank,
            self._num_ranks,
            self._channel_capacity,
            timeout=timeout,
        )

    def close(self) -> None:
        """Detach and unlink the segment (idempotent)."""

        try:
            self._shm.close()
            self._shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - already gone
            pass


class _Channel:
    """One directed chunked channel inside the arena.

    ``seq`` counts chunks published by the writer, ``ack`` chunks consumed by
    the reader; the writer may only rewrite the payload area when
    ``seq == ack``.  ``msg_total`` carries the full message length (written
    with the first chunk), ``chunk_len`` the bytes of the current chunk.
    """

    def __init__(self, header: np.ndarray, payload: memoryview) -> None:
        self._header = header
        self._payload = payload
        self._capacity = len(payload)

    # -- writer side ---------------------------------------------------------------

    def can_write(self) -> bool:
        return int(self._header[0]) == int(self._header[1])

    def write_chunk(self, chunk: bytes, message_total: int, first: bool) -> None:
        self._payload[: len(chunk)] = chunk
        self._header[3] = len(chunk)
        if first:
            self._header[2] = message_total
        # Publishing the sequence number last makes the chunk visible only
        # after its bytes and lengths are in place.
        self._header[0] = int(self._header[0]) + 1

    # -- reader side ---------------------------------------------------------------

    def can_read(self) -> bool:
        return int(self._header[0]) != int(self._header[1])

    def read_chunk(self) -> tuple[bytes, int]:
        chunk_len = int(self._header[3])
        total = int(self._header[2])
        chunk = bytes(self._payload[:chunk_len])
        self._header[1] = int(self._header[1]) + 1
        return chunk, total

    @property
    def capacity(self) -> int:
        return self._capacity


class _ChunkSender:
    """Progress-based state machine streaming one payload into a channel."""

    def __init__(self, channel: _Channel, payload: bytes) -> None:
        self._channel = channel
        self._payload = payload
        self._cursor = 0
        self._sent_any = False
        self.done = False

    def step(self) -> bool:
        """Write the next chunk if the channel is free; True on progress."""

        if self.done or not self._channel.can_write():
            return False
        end = min(self._cursor + self._channel.capacity, len(self._payload))
        self._channel.write_chunk(
            self._payload[self._cursor : end],
            len(self._payload),
            first=not self._sent_any,
        )
        self._sent_any = True
        self._cursor = end
        if self._cursor >= len(self._payload):
            self.done = True
        return True


class _ChunkReceiver:
    """Progress-based state machine draining one payload from a channel."""

    def __init__(self, channel: _Channel) -> None:
        self._channel = channel
        self._parts: list[bytes] = []
        self._received = 0
        self._total: int | None = None
        self.done = False

    def step(self) -> bool:
        """Consume the next chunk if one is published; True on progress."""

        if self.done or not self._channel.can_read():
            return False
        chunk, total = self._channel.read_chunk()
        if self._total is None:
            self._total = total
        self._parts.append(chunk)
        self._received += len(chunk)
        if self._total is not None and self._received >= self._total:
            self.done = True
        return True

    def result(self) -> bytes:
        return b"".join(self._parts)


class ProcessCommunicator:
    """One rank's endpoint of a shared-memory communicator group.

    One instance is *one endpoint* of a :class:`RankCommArena`: it knows its
    own ``rank`` and the total ``num_ranks``, real payload bytes cross
    process boundaries through the arena's channels, and the allreduce
    synchronises through its generation counters.  It accounts its own
    traffic in :attr:`stats` (what *this* rank sent) and its blocking time in
    :attr:`op_seconds`.  Exchanges are restricted to hypercube neighbours
    (``peer == rank ^ 2**k``) — the only pairs the gate planner produces.

    Parameters
    ----------
    arena_name:
        Shared-memory segment name of the parent's :class:`RankCommArena`.
    rank:
        This endpoint's rank index.
    num_ranks:
        Total ranks (must match the arena's layout).
    channel_capacity:
        Payload bytes per channel (must match the arena's layout).
    timeout:
        Deadline in seconds for any single blocking operation; exceeding it
        raises :class:`ProcessCommTimeout` (a dead peer, not a slow one —
        block compression is bounded work).
    pool_generation:
        Rebuild count of the owning rank pool; forwarded to the fault
        harness so injected comm faults only arm in generation 0 (see
        :func:`repro.resilience.faults.arm_for_comm`).
    """

    def __init__(
        self,
        arena_name: str,
        rank: int,
        num_ranks: int,
        channel_capacity: int = DEFAULT_CHANNEL_CAPACITY,
        timeout: float = DEFAULT_TIMEOUT_SECONDS,
        pool_generation: int = 0,
    ) -> None:
        if not _is_power_of_two(num_ranks):
            raise ValueError(f"num_ranks ({num_ranks}) must be a power of two")
        if not 0 <= rank < num_ranks:
            raise ValueError(f"rank {rank} out of range (0..{num_ranks - 1})")
        self._rank = int(rank)
        self._num_ranks = int(num_ranks)
        self._channel_capacity = int(channel_capacity)
        self._timeout = float(timeout)
        self._rank_bits = num_ranks.bit_length() - 1
        self._shm = shared_memory.SharedMemory(name=arena_name)
        collective, channel_bytes, _ = _layout(num_ranks, channel_capacity)
        buf = self._shm.buf
        self._arrive = np.frombuffer(buf, dtype=np.uint64, count=num_ranks, offset=0)
        self._depart = np.frombuffer(
            buf, dtype=np.uint64, count=num_ranks, offset=8 * num_ranks
        )
        self._values = np.frombuffer(
            buf, dtype=np.float64, count=num_ranks, offset=16 * num_ranks
        )
        self._channels: dict[tuple[int, int], _Channel] = {}
        for src in range(num_ranks):
            for bit in range(self._rank_bits):
                index = src * self._rank_bits + bit
                base = collective + index * channel_bytes
                header = np.frombuffer(buf, dtype=np.uint64, count=4, offset=base)
                payload = buf[
                    base + _CHANNEL_HEADER_BYTES : base + channel_bytes
                ]
                self._channels[(src, src ^ (1 << bit))] = _Channel(header, payload)
        self._generation = 0
        self._stats = CommunicationStats()
        self._op_seconds = {"exchange": 0.0, "allreduce": 0.0}
        self._closed = False
        self._fault_state = _faults.arm_for_comm(self._rank, pool_generation)

    # -- the endpoint surface -------------------------------------------------------

    @property
    def rank(self) -> int:
        """This endpoint's rank index."""

        return self._rank

    @property
    def num_ranks(self) -> int:
        """Total ranks in the communicator group."""

        return self._num_ranks

    @property
    def stats(self) -> CommunicationStats:
        """Traffic this endpoint initiated (endpoint convention; see
        :func:`~repro.distributed.comm.aggregate_rank_stats`)."""

        return self._stats

    @property
    def op_seconds(self) -> dict:
        """Measured seconds spent blocked, per operation kind."""

        return dict(self._op_seconds)

    def sendrecv_bytes(self, peer: int, payload: bytes) -> bytes:
        """Exchange *payload* with *peer*; returns the peer's payload.

        The symmetric block exchange of Section 3.3 (third bullet): both
        ranks of a pair call it with matching *peer* arguments and each
        returns the bytes the other sent.  Both endpoints drive their sender
        and receiver state machines in one loop, so the exchange cannot
        deadlock even when both payloads exceed the channel capacity and
        stream through in chunks.

        Raises
        ------
        ValueError
            If *peer* is out of range, equals this rank, or is not a
            hypercube neighbour (no channel exists — gate plans never
            produce such pairs).
        ProcessCommTimeout
            If the peer stops making progress before the deadline.
        """

        if not 0 <= peer < self._num_ranks:
            raise ValueError(f"peer {peer} out of range (0..{self._num_ranks - 1})")
        if peer == self._rank:
            raise ValueError("cannot exchange with self")
        if (self._rank, peer) not in self._channels:
            raise ValueError(
                f"ranks {self._rank} and {peer} are not hypercube neighbours; "
                "gate plans only exchange blocks between ranks differing in "
                "one rank bit"
            )
        started = time.perf_counter()
        if self._fault_state is not None:
            injected = self._fault_state.on_exchange(self._rank, peer)
            if injected is not None:
                action, seconds = injected
                if action == "drop":
                    # A dropped channel behaves exactly like a dead peer —
                    # the deadline error — without spending the wall-clock
                    # wait (injection is for tests, determinism matters,
                    # latency does not).
                    raise errors.ProcessCommTimeout(
                        f"rank {self._rank}: block exchange with rank "
                        f"{peer} dropped by injected fault plan",
                        rank=self._rank,
                        peer=peer,
                        op="sendrecv",
                        elapsed_seconds=self._timeout,
                        timeout_seconds=self._timeout,
                    )
                time.sleep(seconds)
        sender = _ChunkSender(self._channels[(self._rank, peer)], payload)
        receiver = _ChunkReceiver(self._channels[(peer, self._rank)])
        deadline = time.monotonic() + self._timeout
        spins = 0
        while not (sender.done and receiver.done):
            progressed = sender.step()
            progressed = receiver.step() or progressed
            if progressed:
                spins = 0
                continue
            spins += 1
            if spins > 200:
                time.sleep(5e-5 if spins < 4000 else 1e-3)
                if time.monotonic() > deadline:
                    raise errors.ProcessCommTimeout(
                        f"rank {self._rank}: block exchange with rank {peer} "
                        f"made no progress for {self._timeout:.0f}s "
                        "(peer process dead?)",
                        rank=self._rank,
                        peer=peer,
                        op="sendrecv",
                        elapsed_seconds=time.perf_counter() - started,
                        timeout_seconds=self._timeout,
                    )
        self._stats.exchanges += 1
        self._stats.messages += 1
        self._stats.bytes_sent += len(payload)
        self._op_seconds["exchange"] += time.perf_counter() - started
        return receiver.result()

    def allreduce_sum(self, value: float) -> float:
        """Global sum of one float contribution per rank.

        All ranks read the same value-slot array in ascending rank order, so
        every endpoint returns the bit-identical float.  Accounting uses the
        same recursive-doubling volume model as
        :meth:`~repro.distributed.comm.SimulatedCommunicator.allreduce_sum`
        (per endpoint: ``log2(r)`` messages of 8 bytes), so aggregated real
        stats match the simulated ones field by field.
        """

        started = time.perf_counter()
        self._generation += 1
        self._values[self._rank] = float(value)
        self._arrive[self._rank] = self._generation
        self._wait_counters(self._arrive, "allreduce(arrive)")
        total = float(self._values.sum())
        self._depart[self._rank] = self._generation
        self._wait_counters(self._depart, "allreduce(depart)")
        rounds = max(1, self._num_ranks.bit_length() - 1)
        self._stats.allreduces += 1
        self._stats.messages += rounds
        self._stats.bytes_sent += 8 * rounds
        self._op_seconds["allreduce"] += time.perf_counter() - started
        return total

    # -- internals -------------------------------------------------------------------

    def _wait_counters(self, counters: np.ndarray, what: str) -> None:
        """Poll until every rank's counter reaches the current generation."""

        target = self._generation
        started = time.perf_counter()
        deadline = time.monotonic() + self._timeout
        spins = 0
        while not bool((counters >= target).all()):
            spins += 1
            if spins > 200:
                time.sleep(5e-5 if spins < 4000 else 1e-3)
                if time.monotonic() > deadline:
                    laggards = [
                        rank
                        for rank in range(self._num_ranks)
                        if int(counters[rank]) < target
                    ]
                    raise errors.ProcessCommTimeout(
                        f"rank {self._rank}: {what} stuck waiting on ranks "
                        f"{laggards} for {self._timeout:.0f}s",
                        rank=self._rank,
                        peer=tuple(laggards),
                        op=what,
                        elapsed_seconds=time.perf_counter() - started,
                        timeout_seconds=self._timeout,
                    )

    def reset_stats(self) -> None:
        """Zero this endpoint's counters and measured seconds."""

        self._stats.reset()
        for key in self._op_seconds:
            self._op_seconds[key] = 0.0

    def close(self) -> None:
        """Detach from the arena (idempotent; never unlinks — the parent's
        :class:`RankCommArena` owns the segment)."""

        if self._closed:
            return
        self._closed = True
        # Drop every numpy/memoryview export before closing the mapping, or
        # SharedMemory.close() raises BufferError.
        self._arrive = self._depart = self._values = None
        self._channels = {}
        try:
            self._shm.close()
        except (BufferError, OSError):  # pragma: no cover - defensive
            pass

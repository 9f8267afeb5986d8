"""Socket-pair rank-to-rank communication (the real inter-rank transport).

This module reproduces, at single-node scale, the communication layer the
paper runs over MPI (Sections 3.3 and 4): compressed blocks really do leave
the address space of the rank that owns them.  Each rank of the
:mod:`repro.distributed.ranked` tier holds one :class:`ProcessCommunicator`
whose *links* are one end each of a ``socket.socketpair()`` per hypercube
neighbour ``rank ^ 2**k`` — the only pairs a gate plan can generate, since a
rank-segment target qubit flips exactly one rank bit of a pair task's block
indices (:func:`repro.distributed.exchange.plan_gate`).  The parent
creates every pair with :func:`rank_links` before the rank workers start and
keeps none of them.

The one operation is the block exchange (``sendrecv_bytes``): a
length-prefixed frame each way over the pair's non-blocking link; one loop
advances both directions, so two payloads larger than the kernel socket
buffer cannot block each other.  An ``mpi4py`` endpoint would implement that
call alone (``MPI.Comm.sendrecv``) to let the ranked tier span nodes (parked,
see ROADMAP).

Buffering, ordering and wake-ups are the kernel's.  A wait spins briefly
(the ranks run in lock step, so the peer is usually microseconds away), then
sleeps in ``select`` for what is left of its deadline; every blocking wait
has one (:class:`~repro.errors.ProcessCommTimeout`), and a reset or closed
link raises the same typed error at once.  Peer death is *not* detected
through end-of-file (under fork every rank inherits every end): the deadline
and the parent pool's dead-worker detection remain the contract.

Each endpoint counts what it sent in its :class:`CommunicationStats`; the
ranked state sums them into the simulator's report
(:meth:`~repro.distributed.ranked.RankedStateVector.run_plan`).
"""

from __future__ import annotations

import contextlib
import select
import socket
import time
from dataclasses import asdict, dataclass
from typing import Iterator

from .. import errors
from ..resilience.faults import CommFaultState, DropComm

__all__ = ["CommunicationStats", "ProcessCommunicator", "rank_links"]

#: Bytes of the little-endian length prefix of every frame.
_HEADER_BYTES = 8

#: Fruitless send/receive attempts (a few hundred microseconds) before a wait
#: stops spinning and sleeps in ``select``, which carries the deadline.
_SPIN_ATTEMPTS = 200


@dataclass
class CommunicationStats:
    """What one rank endpoint sent, and the seconds it spent exchanging.

    One :meth:`ProcessCommunicator.sendrecv_bytes` is one message and the
    payload's bytes at *each* of its two endpoints; ``exchanges`` counts the
    block pairs the calls were made for (by default one per call).
    """

    messages: int = 0
    bytes_sent: int = 0
    exchanges: int = 0
    exchange_seconds: float = 0.0

    def as_dict(self) -> dict:
        """Counters as a plain JSON-serialisable mapping."""

        return asdict(self)


def _rank_bits(num_ranks: int) -> int:
    """``log2(num_ranks)``, rejecting anything but a power of two."""

    if num_ranks < 1 or num_ranks & (num_ranks - 1):
        raise ValueError(f"num_ranks ({num_ranks}) must be a power of two")
    return num_ranks.bit_length() - 1


@contextlib.contextmanager
def rank_links(num_ranks: int) -> Iterator[list[dict[int, socket.socket]]]:
    """Create the links of a *num_ranks* communicator group.

    Yields a list whose entry ``r`` maps each hypercube neighbour
    ``r ^ 2**k`` to rank ``r``'s end of that pair's ``socket.socketpair()``
    — the ``links`` argument of rank ``r``'s :class:`ProcessCommunicator`.
    Leaving the block closes the creator's copy of every end: a parent that
    hands them to rank workers (sockets cross ``Process(args=...)`` under
    every start method) keeps no descriptor once the workers run; endpoints
    used in-process must finish inside the block.
    """

    links: list[dict[int, socket.socket]] = [{} for _ in range(num_ranks)]
    try:
        for bit in range(_rank_bits(num_ranks)):
            for rank in range(num_ranks):
                peer = rank ^ (1 << bit)
                if rank < peer:
                    links[rank][peer], links[peer][rank] = socket.socketpair()
        yield links
    finally:
        for ends in links:
            for link in ends.values():
                link.close()


class ProcessCommunicator:
    """One rank's endpoint of a socket-pair communicator group.

    Real payload bytes cross process boundaries over its links, which exist
    for hypercube neighbours only (``peer == rank ^ 2**k``) — the only pairs
    the gate planner produces.

    Parameters
    ----------
    rank, num_ranks:
        This endpoint's rank index and the total ranks (a power of two);
        kept as attributes.
    links:
        Neighbour rank → this rank's end of the pair's connected socket, for
        exactly the ``log2(num_ranks)`` hypercube neighbours (entry *rank* of
        :func:`rank_links`).  The endpoint closes them in :meth:`close`.
    timeout:
        Deadline in seconds for any single blocking operation; exceeding it
        raises :class:`ProcessCommTimeout` (a dead peer, not a slow one —
        block compression is bounded work).
    fault_state:
        The comm injections armed for this rank by
        :func:`repro.resilience.faults.arm_for_comm` in the parent, or
        ``None`` (no active plan).

    Attributes
    ----------
    stats:
        :class:`CommunicationStats` of what *this* rank sent, and the seconds
        it spent in :meth:`sendrecv_bytes`.
    """

    def __init__(
        self,
        rank: int,
        num_ranks: int,
        links: dict[int, socket.socket],
        timeout: float = 120.0,
        fault_state: CommFaultState | None = None,
    ) -> None:
        rank_bits = _rank_bits(num_ranks)
        if not 0 <= rank < num_ranks:
            raise ValueError(f"rank {rank} out of range (0..{num_ranks - 1})")
        neighbours = {rank ^ (1 << bit) for bit in range(rank_bits)}
        if set(links) != neighbours:
            raise ValueError(
                f"rank {rank} of {num_ranks} needs one link per hypercube "
                f"neighbour {sorted(neighbours)}, got {sorted(links)}"
            )
        self.rank = int(rank)
        self.num_ranks = int(num_ranks)
        self._timeout = float(timeout)
        self._links = dict(links)
        for link in self._links.values():
            link.setblocking(False)
        self.stats = CommunicationStats()
        self._fault_state = fault_state

    def sendrecv_bytes(self, peer: int, payload: bytes, pairs: int = 1) -> bytes:
        """Exchange *payload* with *peer*; returns the peer's payload.

        The symmetric block exchange of Section 3.3 (third bullet): both
        ranks of a pair call it with matching *peer* arguments and each
        returns the bytes the other sent.  *pairs* is the number of block
        pairs this frame opens the exchange of, added to ``exchanges`` once
        the call completes; a frame that carries results back passes 0.

        Raises
        ------
        ValueError
            If *peer* is out of range, this rank itself, or not a hypercube
            neighbour (no link exists — gate plans never produce such pairs).
        ProcessCommTimeout
            If the exchange is not complete by the deadline, or the link is
            reset or closed (the ``OSError`` is the ``__cause__``).
        """

        if not 0 <= peer < self.num_ranks:
            raise ValueError(f"peer {peer} out of range (0..{self.num_ranks - 1})")
        if peer == self.rank:
            raise ValueError("cannot exchange with self")
        if peer not in self._links:
            raise ValueError(
                f"ranks {self.rank} and {peer} are not hypercube neighbours; "
                "gate plans only exchange blocks between ranks differing in "
                "one rank bit"
            )
        started = time.perf_counter()
        if self._fault_state is not None:
            injected = self._fault_state.on_exchange(peer)
            if isinstance(injected, DropComm):
                # A dropped link behaves exactly like a dead peer — the
                # deadline error — without spending the wall-clock wait.
                raise self._timed_out(peer, self._timeout, "injected fault plan")
            if injected is not None:
                time.sleep(injected.seconds)
        received = self._exchange(peer, payload)
        self.stats.exchanges += pairs
        self.stats.messages += 1
        self.stats.bytes_sent += len(payload)
        self.stats.exchange_seconds += time.perf_counter() - started
        return received

    def _exchange(self, peer: int, payload: bytes) -> bytes:
        """Send one frame to *peer* and receive one, both under one deadline."""

        link = self._links[peer]
        started = time.perf_counter()
        deadline = time.monotonic() + self._timeout
        outgoing = memoryview(len(payload).to_bytes(_HEADER_BYTES, "little") + payload)
        incoming = memoryview(bytearray(_HEADER_BYTES))
        filled, idle, in_header = 0, 0, True
        try:
            while outgoing or filled < len(incoming):
                idle += 1
                if outgoing:
                    try:
                        outgoing = outgoing[link.send(outgoing) :]
                        idle = 0
                    except BlockingIOError:
                        pass
                if filled < len(incoming):
                    try:
                        count = link.recv_into(incoming[filled:])
                        if not count:
                            raise ConnectionResetError("link closed by the peer")
                        filled += count
                        idle = 0
                    except BlockingIOError:
                        pass
                if in_header and filled == _HEADER_BYTES:
                    in_header = False
                    size = int.from_bytes(incoming, "little")
                    incoming, filled = memoryview(bytearray(size)), 0
                    continue
                if idle > _SPIN_ATTEMPTS:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError("deadline passed")
                    reading = [link] if filled < len(incoming) else []
                    select.select(reading, [link] if outgoing else [], [], remaining)
        except OSError as exc:  # TimeoutError and link resets alike
            elapsed = time.perf_counter() - started
            raise self._timed_out(peer, elapsed, exc) from exc
        return bytes(incoming)

    def _timed_out(self, peer: int, elapsed: float, why: object):
        """The typed error of an exchange with *peer* that cannot complete."""

        return errors.ProcessCommTimeout(
            f"rank {self.rank}: sendrecv with rank {peer} incomplete after {elapsed:.2f}s"
            f" (deadline {self._timeout:.0f}s; {why}; peer process dead?)",
            rank=self.rank,
            peer=peer,
            op="sendrecv",
            elapsed_seconds=elapsed,
            timeout_seconds=self._timeout,
        )

    def close(self) -> None:
        """Close this endpoint's links (idempotent)."""

        for link in self._links.values():
            link.close()

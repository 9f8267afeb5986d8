"""The two communicators: simulated and process-backed.

The paper runs Intel-QS over MPI on up to 4,096 Theta nodes (Section 4).
This reproduction models that layer with the subset of MPI the simulator
needs — point-to-point block exchange and an allreduce for norms:

* :class:`SimulatedCommunicator` — every rank's compressed blocks live in one
  process and the communicator only *records* the traffic (messages and
  bytes) a real MPI execution would have generated: the quantity behind the
  "Communication Time" rows of Table 2 and the Figure 16 bandwidth model.
* :class:`~repro.distributed.process_comm.ProcessCommunicator` — the real
  thing at single-node scale: each rank is a worker process owning its
  partition slice (:mod:`repro.distributed.ranked`), and compressed blobs
  actually cross process boundaries over kernel socket pairs.

A rank worker reaches its endpoint through two calls, ``sendrecv_bytes(peer,
payload)`` and ``allreduce_sum(value)``; an ``mpi4py`` wrapper offering the
same two (``MPI.Comm.sendrecv`` / ``MPI.Comm.allreduce``) would let the
ranked tier span nodes without touching the executor (parked, see ROADMAP).

Both real and simulated communicators account their traffic in the same
:class:`CommunicationStats` counters;
:func:`aggregate_rank_stats` normalises per-endpoint counters of a real
communicator onto the conventions of the shared simulated object so reports
and tests can compare them field by field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "CommunicationStats",
    "SimulatedCommunicator",
    "aggregate_rank_stats",
]


@dataclass
class CommunicationStats:
    """Aggregate counters of simulated inter-rank traffic."""

    messages: int = 0
    bytes_sent: int = 0
    exchanges: int = 0
    allreduces: int = 0

    def reset(self) -> None:
        """Zero every counter."""

        self.messages = 0
        self.bytes_sent = 0
        self.exchanges = 0
        self.allreduces = 0

    def as_dict(self) -> dict:
        """Counters as a plain JSON-serialisable mapping."""

        return {
            "messages": self.messages,
            "bytes_sent": self.bytes_sent,
            "exchanges": self.exchanges,
            "allreduces": self.allreduces,
        }


class SimulatedCommunicator:
    """In-process stand-in for an MPI communicator over *num_ranks* ranks.

    Simulation is one tier of the hierarchy, not the only option: it is the
    default (``SimulatorConfig(comm="simulated")``), while
    ``comm="process"`` swaps in real inter-rank data movement through
    :class:`~repro.distributed.process_comm.ProcessCommunicator`.  This
    class also doubles as the parent-side aggregate *stats sink* of a ranked
    run (the executor folds real per-endpoint counters into :attr:`stats`
    via :func:`aggregate_rank_stats`).

    Parameters
    ----------
    num_ranks:
        Number of simulated ranks.
    bandwidth_bytes_per_s:
        Optional modelled interconnect bandwidth.  When set, the communicator
        accumulates a *modelled* communication time
        (``bytes / bandwidth + messages * latency``) which the reports can
        show alongside measured wall-clock time.
    latency_s:
        Optional modelled per-message latency.
    """

    def __init__(
        self,
        num_ranks: int,
        bandwidth_bytes_per_s: float | None = None,
        latency_s: float = 0.0,
    ) -> None:
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        self._num_ranks = int(num_ranks)
        self._bandwidth = bandwidth_bytes_per_s
        self._latency = float(latency_s)
        self.stats = CommunicationStats()
        self._modelled_seconds = 0.0

    @property
    def num_ranks(self) -> int:
        """Number of simulated ranks the traffic model spans."""

        return self._num_ranks

    @property
    def modelled_seconds(self) -> float:
        """Modelled communication time (0 when no bandwidth model is set)."""

        return self._modelled_seconds

    # -- traffic accounting -------------------------------------------------------

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self._num_ranks:
            raise ValueError(f"rank {rank} out of range (0..{self._num_ranks - 1})")

    def _account(self, num_bytes: int, messages: int) -> None:
        self.stats.messages += messages
        self.stats.bytes_sent += num_bytes
        if self._bandwidth:
            self._modelled_seconds += num_bytes / self._bandwidth
        self._modelled_seconds += messages * self._latency

    def exchange_blocks(self, rank_a: int, rank_b: int, num_bytes: int) -> None:
        """Record a symmetric block exchange between two ranks.

        This is the operation triggered by gates whose target qubit lies in
        the rank segment (Section 3.3, third bullet): each rank sends one
        compressed block to the other.
        """

        self._check_rank(rank_a)
        self._check_rank(rank_b)
        if rank_a == rank_b:
            return
        self.stats.exchanges += 1
        self._account(2 * num_bytes, 2)

    # -- collectives ------------------------------------------------------------------

    def allreduce_sum(self, per_rank_values: np.ndarray | list[float]) -> float:
        """Sum a per-rank scalar, recording the collective."""

        values = np.asarray(per_rank_values, dtype=np.float64)
        if values.size != self._num_ranks:
            raise ValueError(
                f"expected one value per rank ({self._num_ranks}), got {values.size}"
            )
        self.stats.allreduces += 1
        # A recursive-doubling allreduce moves log2(r) messages of 8 bytes per
        # rank; account for it so communication volume scales with rank count.
        rounds = max(1, self._num_ranks.bit_length() - 1)
        self._account(8 * self._num_ranks * rounds, self._num_ranks * rounds)
        return float(values.sum())

    def reset(self) -> None:
        """Clear all counters."""

        self.stats.reset()
        self._modelled_seconds = 0.0


def aggregate_rank_stats(
    per_rank: Iterable[Mapping[str, int] | CommunicationStats],
) -> CommunicationStats:
    """Fold per-endpoint counters of a real communicator into one view.

    A real communicator counts at each endpoint: a symmetric exchange of
    ``n`` bytes is *one* ``exchanges`` tick, *one* message and ``n`` bytes on
    **each** of the two endpoints, and every rank of a collective counts it
    once.  The shared :class:`SimulatedCommunicator` instead counts each
    pairwise exchange once (2 messages, ``2n`` bytes) and each collective
    once.  This helper maps the first convention onto the second — messages
    and bytes are summed (each endpoint counted what it physically sent),
    ``exchanges`` is halved (two endpoints per pairwise exchange), and
    collective counts take the maximum across ranks (every rank participated
    in the same collectives) — so reports and conformance tests can compare a
    real run against a simulated one field by field.

    Parameters
    ----------
    per_rank:
        One :class:`CommunicationStats` (or its ``as_dict()`` mapping) per
        rank.

    Returns
    -------
    CommunicationStats
        The aggregate, in :class:`SimulatedCommunicator` conventions.
    """

    total = CommunicationStats()
    endpoint_exchanges = 0
    for entry in per_rank:
        data = entry.as_dict() if isinstance(entry, CommunicationStats) else entry
        total.messages += int(data["messages"])
        total.bytes_sent += int(data["bytes_sent"])
        endpoint_exchanges += int(data["exchanges"])
        total.allreduces = max(total.allreduces, int(data["allreduces"]))
    total.exchanges = endpoint_exchanges // 2
    return total

"""Distributed decomposition substrate: partitioning, planning, communication.

Reproduces the paper's distribution model (Figure 3, Section 3.3): the state
is split over ranks and blocks (:mod:`~repro.distributed.partition`), gates
are planned into per-block tasks and inter-rank exchanges
(:mod:`~repro.distributed.exchange`), and the communication layer comes in
two interchangeable tiers — the traffic-accounting
:class:`SimulatedCommunicator` and the real socket-pair
:class:`ProcessCommunicator` behind the multi-rank execution tier of
:mod:`~repro.distributed.ranked` (``SimulatorConfig(comm="process")``).
"""

from .partition import Partition, QubitSegment
from .comm import (
    CommunicationStats,
    SimulatedCommunicator,
    aggregate_rank_stats,
)
from .exchange import BlockTask, GatePlan, plan_gate
from .process_comm import ProcessCommunicator, rank_links

#: Names that live in :mod:`repro.distributed.ranked`, which imports from
#: :mod:`repro.core` and therefore cannot load eagerly here (``repro.core``
#: itself imports this package first).  PEP 562 resolves them on first use.
_RANKED_EXPORTS = ("RankedExecutor", "RankedStateVector", "RankWorker")


def __getattr__(name: str):
    if name in _RANKED_EXPORTS:
        from . import ranked

        return getattr(ranked, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Partition",
    "QubitSegment",
    "SimulatedCommunicator",
    "CommunicationStats",
    "aggregate_rank_stats",
    "ProcessCommunicator",
    "rank_links",
    "RankedExecutor",
    "RankedStateVector",
    "RankWorker",
    "BlockTask",
    "GatePlan",
    "plan_gate",
]

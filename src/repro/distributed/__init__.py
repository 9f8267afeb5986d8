"""Distributed decomposition substrate: partitioning, planning, communication.

Reproduces the paper's distribution model (Figure 3, Section 3.3): the state
is split over ranks and blocks (:mod:`~repro.distributed.partition`), gates
are planned into per-block tasks and inter-rank exchanges
(:mod:`~repro.distributed.exchange`), and the multi-rank execution tier of
:mod:`~repro.distributed.ranked` (``SimulatorConfig(comm="process")``) moves
real blobs between rank processes over the socket-pair
:class:`ProcessCommunicator`.  Either way the simulator's
:class:`~repro.core.report.SimulationReport` is the one ledger of the
inter-rank traffic.
"""

from .partition import Partition, QubitSegment
from .exchange import BlockOp, GatePlan, plan_gate
from .process_comm import CommunicationStats, ProcessCommunicator, rank_links

#: Names that live in :mod:`repro.distributed.ranked`, which imports from
#: :mod:`repro.core` and therefore cannot load eagerly here (``repro.core``
#: itself imports this package first).  PEP 562 resolves them on first use.
_RANKED_EXPORTS = ("RankedStateVector", "RankWorker")


def __getattr__(name: str):
    if name in _RANKED_EXPORTS:
        from . import ranked

        return getattr(ranked, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Partition",
    "QubitSegment",
    "CommunicationStats",
    "ProcessCommunicator",
    "rank_links",
    "RankedStateVector",
    "RankWorker",
    "BlockOp",
    "GatePlan",
    "plan_gate",
]

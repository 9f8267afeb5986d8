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

import importlib

from .partition import Partition, QubitSegment
from .exchange import BlockOp, GatePlan, plan_gate

#: Names resolved on first use (PEP 562): ``ranked`` imports from
#: :mod:`repro.core`, which imports this package first, and ``process_comm``
#: loads ``socket``, which only the ranked tier needs.
_LAZY_EXPORTS = {
    "RankedStateVector": "ranked",
    "RankWorker": "ranked",
    "CommunicationStats": "process_comm",
    "ProcessCommunicator": "process_comm",
    "rank_links": "process_comm",
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        module = importlib.import_module(f".{_LAZY_EXPORTS[name]}", __name__)
        return getattr(module, name)
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

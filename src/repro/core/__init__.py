"""Core contribution: the compressed-state full-circuit simulator."""

from .adaptive import AdaptiveErrorController, EscalationEvent
from .blocks import CompressedBlock, ScratchPool
from .cache import BlockCache, CacheStats
from .checkpoint import load_checkpoint, save_checkpoint
from .compressed_state import CompressedStateVector
from .config import PAPER_BLOCK_AMPLITUDES, SimulatorConfig
from .procpool import ProcessPool, effective_cpu_count
from .fidelity import FidelityTracker, fidelity_curve, fidelity_lower_bound
from .report import SimulationReport
from .simulator import CompressedSimulator

__all__ = [
    "CompressedSimulator",
    "ProcessPool",
    "effective_cpu_count",
    "CompressedStateVector",
    "SimulatorConfig",
    "PAPER_BLOCK_AMPLITUDES",
    "SimulationReport",
    "AdaptiveErrorController",
    "EscalationEvent",
    "BlockCache",
    "CacheStats",
    "CompressedBlock",
    "ScratchPool",
    "FidelityTracker",
    "fidelity_lower_bound",
    "fidelity_curve",
    "save_checkpoint",
    "load_checkpoint",
]

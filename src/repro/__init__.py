"""repro: full-state quantum circuit simulation by using data compression.

Reproduction of Wu et al., "Full-State Quantum Circuit Simulation by Using
Data Compression" (SC 2019).  The package is organised as:

* :mod:`repro.circuits` — gates and circuit construction,
* :mod:`repro.statevector` — the dense (compression-free) reference simulator,
* :mod:`repro.distributed` — rank / block decomposition, the communicator
  hierarchy (simulated / shared-memory process / future MPI) and the
  multi-rank execution tier,
* :mod:`repro.compression` — lossless and error-bounded lossy compressors,
* :mod:`repro.core` — the compressed-state simulator (the paper's contribution),
* :mod:`repro.backends` — the unified ``run()`` API over pluggable engines,
* :mod:`repro.applications` — Grover, random-circuit, QAOA, QFT workloads,
* :mod:`repro.analysis` — memory models, fidelity bounds and reporting.

The one-call entry point is :func:`repro.run`::

    import repro

    circuit = repro.QuantumCircuit(20).h(0).cx(0, 1)
    result = repro.run(circuit, backend="compressed", shots=1000, seed=7)
    print(result.counts, result.report["fidelity_lower_bound"])

Batches, observables and engine selection ride the same call::

    energy = repro.run(
        qaoa_circuits,                       # ResultSet, one warm simulator
        observables=repro.PauliObservable("ZZII"),
    )
"""

from __future__ import annotations

from .circuits import Gate, QuantumCircuit
from .compression import (
    Compressor,
    ErrorBoundMode,
    available_compressors,
    get_compressor,
)
from .core import (
    CompressedSimulator,
    SimulationReport,
    SimulatorConfig,
    load_checkpoint,
    save_checkpoint,
)
from .errors import (
    CheckpointError,
    PoolProtocolError,
    ProcessCommTimeout,
    ReproError,
    WorkerCrashedError,
)
from .resilience import FaultPolicy, resolve_fault_policy
from .statevector import DenseSimulator, simulate_statevector, state_fidelity
from .backends import (
    Backend,
    BackendError,
    CompressedBackend,
    DenseBackend,
    PauliObservable,
    Result,
    ResultSet,
    available_backends,
    get_backend,
    register_backend,
    run,
)

__version__ = "1.27.0"

__all__ = [
    "__version__",
    "QuantumCircuit",
    "Gate",
    "CompressedSimulator",
    "SimulatorConfig",
    "SimulationReport",
    "save_checkpoint",
    "load_checkpoint",
    "ReproError",
    "WorkerCrashedError",
    "ProcessCommTimeout",
    "CheckpointError",
    "PoolProtocolError",
    "FaultPolicy",
    "resolve_fault_policy",
    "DenseSimulator",
    "simulate_statevector",
    "state_fidelity",
    "Compressor",
    "ErrorBoundMode",
    "get_compressor",
    "available_compressors",
    "run",
    "Backend",
    "BackendError",
    "register_backend",
    "get_backend",
    "available_backends",
    "CompressedBackend",
    "DenseBackend",
    "PauliObservable",
    "Result",
    "ResultSet",
]

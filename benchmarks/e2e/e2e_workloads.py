"""The seven end-to-end workloads: name, reason, and seed -> inputs.

Every workload is one ``repro.run()`` call per iteration.  ``build(seed,
smoke)`` returns the generated circuits plus the fixed run options; the
program under test receives only those.  ``smoke=True`` shrinks every
register to 8 qubits (same configs, four 32-amplitude blocks per rank, three
sweep points) so the whole set runs in seconds for the smoke test.

What the seed may vary is deliberately narrow where the metrics are
data-dependent: compression ratio, footprint and codec time follow the
amplitudes, so a free basis state (QFT) or a free graph (QAOA) moves
``min_ratio`` by 15-25 % between seeds and would drown any regression.  The
seed therefore picks inputs of equal structure - every blob differs between
seeds, the task counts do not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import PauliObservable, QuantumCircuit
from repro.applications import (
    maxcut_observable,
    qaoa_maxcut_circuit,
    random_regular_graph,
    random_supremacy_circuit,
)
from repro.circuits import prepare_basis_state, qft_circuit

__all__ = ["Case", "Workload", "WORKLOADS"]

SMOKE_QUBITS = 8
SMOKE_BLOCK = 32


@dataclass
class Case:
    """Generated inputs and fixed options of one workload at one seed."""

    circuits: list[QuantumCircuit]
    config: dict
    shots: int = 0
    observable: PauliObservable | None = None

    @property
    def num_qubits(self) -> int:
        return self.circuits[0].num_qubits

    @property
    def source_gates(self) -> int:
        return sum(len(circuit) for circuit in self.circuits)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Timed iterations when no ``--seconds`` is given (ISSUE 11's N).
    iterations: int
    build: Callable[[int, bool], Case] = field(repr=False)
    #: Needs two effective CPUs; recorded as "skipped" on a smaller host.
    parallel: bool = False


def _qft15_sz(seed: int, smoke: bool) -> Case:
    width = SMOKE_QUBITS if smoke else 15
    # qft_benchmark_circuit(width, seed) with the basis state held to one
    # family: top bits 1000 (the SZ ratio of QFT|x> follows x / 2^n), odd, and
    # a fixed number of X gates, so only the middle bits are the seed's.
    rng = np.random.default_rng(seed)
    middle = np.arange(1, width - 4)
    chosen = rng.choice(middle, size=len(middle) // 2, replace=False)
    basis_state = (1 << (width - 1)) | 1 | sum(1 << int(bit) for bit in chosen)
    circuit = QuantumCircuit(width, name=f"qft_bench_{width}")
    circuit.compose(prepare_basis_state(width, basis_state))
    circuit.compose(qft_circuit(width))
    return Case(
        circuits=[circuit],
        config=dict(
            num_ranks=2,
            lossy_compressor="sz",
            start_lossless=False,
            use_block_cache=False,
        ),
    )


#: Depth-2 QAOA angles the seed jitters by +-5 %: near enough that the
#: escalation gate and every task count stay put, far enough that no blob
#: repeats between seeds.
_QAOA_GAMMAS = (0.6, 0.35)
_QAOA_BETAS = (0.45, 0.25)


def _qaoa16_budget(seed: int, smoke: bool) -> Case:
    width = SMOKE_QUBITS if smoke else 16
    block = SMOKE_BLOCK if smoke else 4096
    graph = random_regular_graph(width, 4, seed=16)
    jitter = 1.0 + 0.05 * np.random.default_rng(seed).uniform(-1.0, 1.0, size=4)
    gammas = [g * j for g, j in zip(_QAOA_GAMMAS, jitter[:2])]
    betas = [b * j for b, j in zip(_QAOA_BETAS, jitter[2:])]
    scratch_bytes = 2 * block * 16 * 2  # Eq. 8: two blocks per rank, two ranks
    dense_bytes = (1 << width) * 16
    return Case(
        circuits=[qaoa_maxcut_circuit(graph, gammas, betas)],
        config=dict(
            num_ranks=2,
            block_amplitudes=block,
            memory_budget_bytes=scratch_bytes + dense_bytes // 2,
        ),
        shots=4096,
        observable=maxcut_observable(graph),
    )


def _rcs16(**tier: object) -> Callable[[int, bool], Case]:
    def build(seed: int, smoke: bool) -> Case:
        rows, cols = (2, 4) if smoke else (4, 4)
        circuit = random_supremacy_circuit(rows, cols, depth=16, seed=seed)
        block = SMOKE_BLOCK if smoke else 1024
        config = dict(num_ranks=2, block_amplitudes=block, **tier)
        return Case(circuits=[circuit], config=config)

    return build


def _sweep12_batch(seed: int, smoke: bool) -> Case:
    width = SMOKE_QUBITS if smoke else 12
    graph = random_regular_graph(width, 4, seed=12)
    rng = np.random.default_rng(seed)
    circuits = [
        qaoa_maxcut_circuit(
            graph, rng.uniform(0.0, np.pi, size=2), rng.uniform(0.0, np.pi / 2, size=2)
        )
        for _ in range(3 if smoke else 12)
    ]
    return Case(
        circuits=circuits,
        config=dict(num_ranks=2),
        shots=1024,
        observable=maxcut_observable(graph),
    )


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "qft15_sz",
        "codec-bound: SZ quantize + Huffman is ~96 % of wall; cache, transports "
        "and readout are bypassed, so only encode/decode work moves it",
        5,
        _qft15_sz,
    ),
    Workload(
        "qaoa16_budget",
        "the paper's regime: lossless start, budget-forced escalation to 1e-5, "
        "then sampling and an observable read off the compressed state",
        3,
        _qaoa16_budget,
    ),
    Workload(
        "rcs16_seq",
        "single-process baseline of the tier family; 7264 small block tasks, "
        "so per-task Python overhead and the block cache (43 % hits) show",
        7,
        _rcs16(),
    ),
    Workload(
        "rcs16_thread2",
        "same circuit on the 2-thread executor: shared-memory transport, the "
        "reference the process tier must beat",
        7,
        _rcs16(num_workers=2, executor="thread"),
        parallel=True,
    ),
    Workload(
        "rcs16_process2",
        "same circuit on 2 worker processes: IPC-bound, one message per task "
        "per gate through shm slot rings",
        7,
        _rcs16(num_workers=2, executor="process"),
        parallel=True,
    ),
    Workload(
        "rcs16_ranked2",
        "same circuit with one process per rank and real blob exchange: the "
        "paper's MPI tier, the only workload with comm.* above zero",
        7,
        _rcs16(comm="process"),
        parallel=True,
    ),
    Workload(
        "sweep12_batch",
        "overhead-bound: 12 small QAOA circuits in one run() call; session "
        "reuse, fusion, planning and result assembly dominate tiny blocks",
        5,
        _sweep12_batch,
    ),
)


"""Gate fusion speedup.

The paper's time breakdown (Table 2) shows the per-gate decompress → apply →
recompress round trip dominating the runtime.  This bench quantifies the
attack this repo mounts on that bottleneck:

* **Runs** — consecutive gates that can share one staging share one round
  trip per block, their steps applied in order: one-block steps (an
  in-block target, a diagonal 2x2 wherever its target lies — it needs no
  partner block — or a ``cx · d · cx`` sandwich, one diagonal on
  ``x_c ⊕ x_t``) whatever their controls, or gates on one non-local target
  under one set of non-local controls — with every one-block step next to
  them riding along when that set is empty, since such a pair stages every
  block.  Measured as the reduction in compressor invocations on a QFT-style
  workload of per-qubit rotation chains, and counted with ``plan_gate`` as
  blob round trips (buffers staged) before and after run formation, for the
  Table-2 circuits at two block sizes, and as wall-clock against the seed's
  gate-by-gate path.

Set ``REPRO_BENCH_QUICK=1`` for a CI-sized smoke run.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from repro.analysis import format_table
from repro.applications import (
    grover_circuit,
    qaoa_maxcut_circuit,
    random_regular_graph,
    random_supremacy_circuit,
)
from repro.circuits import QuantumCircuit, form_runs, qft_circuit
from repro.core import CompressedSimulator, SimulatorConfig
from repro.distributed import Partition, plan_gate

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

NUM_QUBITS = 10 if QUICK else 14
BLOCK_AMPLITUDES = 64 if QUICK else 1024
LAYERS = 2 if QUICK else 3
NUM_RANKS = 2
#: The two block sizes of the round-trip table: the bench's own and 4x it.
RUN_TABLE_BLOCKS = (BLOCK_AMPLITUDES, 4 * BLOCK_AMPLITUDES)


def chain_qft_circuit(num_qubits: int, layers: int) -> QuantumCircuit:
    """QFT-style workload with consecutive same-target rotation chains.

    Each layer applies a 4-gate single-qubit chain per qubit (one run per
    chain wherever the qubit lies; think QFT surrounded by phase-estimation
    pre/post rotations) followed by a controlled-phase ladder.
    """

    circuit = QuantumCircuit(num_qubits, name=f"chain_qft_{num_qubits}")
    for layer in range(layers):
        for qubit in range(num_qubits):
            circuit.h(qubit)
            circuit.t(qubit)
            circuit.rz(0.3 * (qubit + 1) * (layer + 1), qubit)
            circuit.s(qubit)
        for qubit in range(num_qubits - 1):
            circuit.cp(math.pi / (2 + qubit + layer), qubit, qubit + 1)
    return circuit


def _run(circuit, num_qubits: int, *, fusion: bool) -> dict:
    config = SimulatorConfig(
        num_ranks=NUM_RANKS,
        block_amplitudes=BLOCK_AMPLITUDES,
        use_block_cache=False,  # keep the round-trip accounting undiluted
        fusion_enabled=fusion,
    )
    with CompressedSimulator(num_qubits, config) as simulator:
        start = time.perf_counter()
        report = simulator.apply_circuit(circuit)
        elapsed = time.perf_counter() - start
        state = simulator.statevector()
    return {
        "seconds": elapsed,
        "compress_calls": report.compress_calls,
        "decompress_calls": report.decompress_calls,
        "gates": report.gates_executed,
        "tasks": report.tasks_executed,
        "state": state,
    }


def test_fusion_roundtrip_reduction(emit):
    """Fusion must cut compressor invocations >= 2x on the chain workload."""

    circuit = chain_qft_circuit(NUM_QUBITS, LAYERS)
    baseline = _run(circuit, NUM_QUBITS, fusion=False)
    with_fusion = _run(circuit, NUM_QUBITS, fusion=True)

    reduction = baseline["compress_calls"] / max(1, with_fusion["compress_calls"])
    rows = [
        {
            "mode": "fusion off",
            "gates": baseline["gates"],
            "compress_calls": baseline["compress_calls"],
            "seconds": f"{baseline['seconds']:.3f}",
        },
        {
            "mode": "fusion on",
            "gates": with_fusion["gates"],
            "compress_calls": with_fusion["compress_calls"],
            "seconds": f"{with_fusion['seconds']:.3f}",
        },
    ]
    emit(
        f"Fusion round-trip reduction ({NUM_QUBITS} qubits, "
        f"{len(circuit)} gates -> {with_fusion['gates']} after run formation)",
        format_table(rows)
        + f"\ncompressor-invocation reduction: {reduction:.2f}x "
        f"(gate reduction {len(circuit) / with_fusion['gates']:.2f}x)",
    )

    # A run applies its gates' own steps in order: lossless, the two
    # executions produce the same state to the last bit.
    assert np.array_equal(baseline["state"], with_fusion["state"])
    assert reduction >= 2.0


def table2_circuits(num_qubits: int) -> dict[str, QuantumCircuit]:
    """The paper's Table-2 workloads at *num_qubits* (even)."""

    graph = random_regular_graph(num_qubits, 4, seed=num_qubits)
    return {
        "qft": qft_circuit(num_qubits),
        "qaoa": qaoa_maxcut_circuit(graph, [0.6, 0.35], [0.45, 0.25]),
        "random": random_supremacy_circuit(2, num_qubits // 2, depth=16, seed=11),
        "grover": grover_circuit(num_qubits, marked=5, iterations=2),
    }


def test_run_formation_roundtrip_reduction(emit):
    """Run formation must cut QFT's blob round trips >= 2x at the larger block.

    The saving grows with the share of qubits that sit inside a block (6 and
    8 of 10 in quick mode, 10 and 12 of 14 at full size), so the floor is
    asserted where at most two qubits select the block and rank.  QAOA's
    cost layer is one ``cx · rz · cx`` sandwich per edge, each one diagonal
    step, so its saving must be at least QFT's at both block sizes.
    """

    rows = []
    reductions = {}
    for name, circuit in table2_circuits(NUM_QUBITS).items():
        gates = circuit.gates
        for block in RUN_TABLE_BLOCKS:
            partition = Partition(NUM_QUBITS, NUM_RANKS, block)
            schedule = form_runs(gates, partition.offset_bits)
            before, after = (
                sum(plan_gate(partition, element).touched_buffers for element in elements)
                for elements in (gates, schedule)
            )
            rows.append(
                {
                    "circuit": name,
                    "block": block,
                    "gates": len(gates),
                    "elements": len(schedule),
                    "round_trips_before": before,
                    "round_trips_after": after,
                    "reduction": f"{before / after:.2f}x",
                }
            )
            assert after < before
            if name == "qft" and block == max(RUN_TABLE_BLOCKS):
                assert before >= 2 * after
            reductions[name, block] = before / after
    for block in RUN_TABLE_BLOCKS:
        assert reductions["qaoa", block] >= reductions["qft", block]
    emit(
        f"Blob round trips before/after run formation ({NUM_QUBITS} qubits, "
        f"{NUM_RANKS} ranks)",
        format_table(rows),
    )


def test_fusion_beats_sequential_seed_path(emit):
    """Fusion must beat the seed's gate-by-gate path wall-clock."""

    circuit = chain_qft_circuit(NUM_QUBITS, LAYERS)
    # Warm-up run so allocator/zlib effects don't skew the comparison.
    _run(circuit, NUM_QUBITS, fusion=False)

    seed = _run(circuit, NUM_QUBITS, fusion=False)
    fused = _run(circuit, NUM_QUBITS, fusion=True)

    speedup = seed["seconds"] / max(1e-9, fused["seconds"])
    rows = [
        {
            "mode": "seed (fusion off)",
            "seconds": f"{seed['seconds']:.3f}",
            "tasks": seed["tasks"],
        },
        {
            "mode": "fusion on",
            "seconds": f"{fused['seconds']:.3f}",
            "tasks": fused["tasks"],
        },
    ]
    emit(
        f"Fusion wall-clock ({NUM_QUBITS} qubits, {len(circuit)} gates)",
        format_table(rows) + f"\nspeedup: {speedup:.2f}x",
    )

    assert np.array_equal(seed["state"], fused["state"])
    # The work counters shrink deterministically in every mode; the strict
    # wall-clock comparison is only enforced in the full-size run (quick mode
    # exists for CI smoke on shared runners, where timing is too noisy).
    assert fused["compress_calls"] * 2 <= seed["compress_calls"]
    if not QUICK:
        assert fused["seconds"] < seed["seconds"]

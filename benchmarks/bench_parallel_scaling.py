"""The two users of the worker-process pool.

* the cost of in-run resilience checkpoints on the ranked tier (one worker
  process per rank — the only parallel mechanism for one circuit; its
  scaling curve is ``bench_fig16_node_scaling.py``), and
* batched ``repro.run()`` fan-out: a 9-circuit QAOA angle grid executed
  sequentially and with ``parallel="process"``, results required identical
  up to measured wall-clock metadata.

Results land in ``BENCH_parallel.json`` under :func:`recordings.results_dir`;
``meta.available_cpus`` records which regime produced the numbers
(affinity-aware, not raw ``os.cpu_count()``).  The ``executor_scaling``
section of earlier recordings timed the thread tier, which went in v1.17.0:
``num_workers > 1`` is now a spelling of the ranked tier, whose width is
``num_ranks``.

Set ``REPRO_BENCH_QUICK=1`` for a CI-sized smoke run.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

import repro
from repro.analysis import format_table
from repro.applications import (
    maxcut_observable,
    qaoa_maxcut_circuit,
    random_regular_graph,
)
from repro.circuits import QuantumCircuit
from repro.core import CompressedSimulator, SimulatorConfig, effective_cpu_count
from repro.resilience import FaultPolicy

from recordings import merge_json

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

NUM_QUBITS = 8 if QUICK else 12
BLOCK_AMPLITUDES = 32 if QUICK else 256
LAYERS = 2 if QUICK else 4
REPEATS = 1 if QUICK else 2
QAOA_QUBITS = 8 if QUICK else 12
#: Workers the batch fan-out asks for; it runs at most
#: ``effective_cpu_count()`` of them, because more processes than CPUs only
#: time-slice the same cores and the speedup would measure the oversubscription.
FANOUT_WORKERS = 4
#: Timed rounds of the batch fan-out, each running both sides once.
FANOUT_ROUNDS = 3
#: In-run resilience checkpoint cadence sweep (waves between snapshots;
#: 0 = checkpointing off).
CHECKPOINT_INTERVALS = (0, 8, 32)


def _merge_json(section: str, payload) -> None:
    merge_json(
        "BENCH_parallel.json",
        section,
        payload,
        {
            "quick": QUICK,
            "available_cpus": effective_cpu_count(),
            "num_qubits": NUM_QUBITS,
            "block_amplitudes": BLOCK_AMPLITUDES,
        },
    )


def codec_bound_circuit(num_qubits: int, layers: int) -> QuantumCircuit:
    """QFT-style rotation layers: every gate pays an SZ round trip per block."""

    circuit = QuantumCircuit(num_qubits, name=f"codec_bound_{num_qubits}")
    for layer in range(layers):
        for qubit in range(num_qubits):
            circuit.h(qubit)
            circuit.rz(0.3 * (qubit + 1 + layer), qubit)
    return circuit


def test_recovery_overhead(emit):
    """Cost of in-run resilience checkpoints on the ranked tier.

    Sweeps ``FaultPolicy.checkpoint_interval_waves`` (off / 32 / 8 waves)
    on a fault-free multi-rank run: the delta against interval 0 is the
    pure overhead a user pays for a bounded replay window after a rank
    death.  Bit-identity across all intervals is asserted in every mode —
    checkpointing must never perturb the simulation itself.
    """

    circuit = codec_bound_circuit(NUM_QUBITS, LAYERS)
    rows = []
    baseline_state: np.ndarray | None = None
    baseline_seconds: float | None = None
    for interval in CHECKPOINT_INTERVALS:
        policy = FaultPolicy(max_retries=1, checkpoint_interval_waves=interval)
        config = SimulatorConfig(
            num_ranks=2,
            block_amplitudes=BLOCK_AMPLITUDES,
            comm="process",
            fusion_enabled=False,  # keep the wave count fixed across runs
            fault_policy=policy,
        )
        best = float("inf")
        with CompressedSimulator(NUM_QUBITS, config) as simulator:
            for _ in range(REPEATS):
                simulator.reset()
                start = time.perf_counter()
                simulator.apply_circuit(circuit)
                best = min(best, time.perf_counter() - start)
            state = simulator.statevector()
            recovery = simulator.report().recovery
        if baseline_state is None:
            baseline_state, baseline_seconds = state, best
        else:
            # Checkpointing is pure bookkeeping: same bytes, every interval.
            assert np.array_equal(baseline_state, state), interval
        rows.append(
            {
                "interval_waves": interval,
                "seconds": best,
                "overhead": best / baseline_seconds - 1.0,
                "checkpoints_written": (
                    (recovery or {}).get("checkpoints_written", 0)
                ),
            }
        )

    _merge_json(
        "recovery_overhead",
        {
            "workload": {"circuit": circuit.name, "gates": len(circuit)},
            "num_ranks": 2,
            "intervals": rows,
        },
    )
    emit(
        f"Resilience checkpoint overhead, ranked tier ({NUM_QUBITS} qubits, "
        f"{len(circuit)} gates, 2 ranks)",
        format_table(
            [
                {
                    "checkpoint interval": (
                        "off" if row["interval_waves"] == 0
                        else f'every {row["interval_waves"]} waves'
                    ),
                    "seconds": f'{row["seconds"]:.3f}',
                    "overhead": f'{100.0 * row["overhead"]:+.1f}%',
                    "checkpoints": row["checkpoints_written"],
                }
                for row in rows
            ]
        )
        + "\nbit-identity across all intervals asserted",
    )


def _strip_timing(data):
    if isinstance(data, dict):
        return {
            key: (
                0.0
                if "seconds" in key or key.endswith("_fraction")
                else _strip_timing(value)
            )
            for key, value in data.items()
        }
    if isinstance(data, list):
        return [_strip_timing(value) for value in data]
    return data


def test_batched_run_fanout(emit):
    """Sequential vs ``parallel="process"`` on a 9-circuit QAOA batch.

    One untimed warm-up of each side, so neither pays first-call costs, then
    :data:`FANOUT_ROUNDS` rounds that each time both sides back to back; each
    side's best round is its time, so a slow stretch of the host lands on
    both sides alike instead of on one.
    """

    graph = random_regular_graph(QAOA_QUBITS, degree=3, seed=23)
    observable = maxcut_observable(graph)
    circuits = [
        qaoa_maxcut_circuit(graph, [gamma], [beta])
        for gamma in (0.2, 0.4, 0.6)
        for beta in (0.4, 0.8, 1.2)
    ]

    workers = min(FANOUT_WORKERS, effective_cpu_count())
    sides = {
        "sequential": {},
        "parallel": {"parallel": "process", "max_parallel": workers},
    }

    def run(side: str):
        return repro.run(
            circuits, shots=128, observables=observable, seed=7, **sides[side]
        )

    sequential, parallel = run("sequential"), run("parallel")
    rounds = []
    for _ in range(FANOUT_ROUNDS):
        seconds = {}
        for side in sides:
            start = time.perf_counter()
            run(side)
            seconds[f"{side}_seconds"] = time.perf_counter() - start
        rounds.append(seconds)
    sequential_s = min(row["sequential_seconds"] for row in rounds)
    parallel_s = min(row["parallel_seconds"] for row in rounds)

    identical = _strip_timing(json.loads(sequential.to_json())) == _strip_timing(
        json.loads(parallel.to_json())
    )
    assert identical  # enforced in every mode

    speedup = sequential_s / max(parallel_s, 1e-9)
    _merge_json(
        "batch_fanout",
        {
            "circuits": len(circuits),
            "qubits": QAOA_QUBITS,
            "requested_workers": FANOUT_WORKERS,
            "workers": workers,
            "sequential_seconds": sequential_s,
            "parallel_seconds": parallel_s,
            "speedup": speedup,
            "rounds": rounds,
            "results_identical": identical,
        },
    )
    emit(
        f"Batched repro.run() fan-out ({len(circuits)} QAOA circuits, "
        f"{QAOA_QUBITS} qubits, {workers} of {FANOUT_WORKERS} requested workers)",
        format_table(
            [
                {"mode": "sequential", "seconds": f"{sequential_s:.3f}"},
                {
                    "mode": f'parallel="process" ({workers} workers)',
                    "seconds": f"{parallel_s:.3f}",
                },
            ]
        )
        + f"\nbest of {FANOUT_ROUNDS} interleaved rounds after one warm-up each"
        + f"\nspeedup: {speedup:.2f}x; results identical up to wall-clock "
        "metadata: " + str(identical),
    )

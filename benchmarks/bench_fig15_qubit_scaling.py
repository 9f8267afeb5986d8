"""Figure 15 — normalized execution time vs number of qubits on a single node.

The paper runs the Hadamard-per-qubit workload at 34-40 qubits on one KNL
node and reports execution time growing to 169% of the 34-qubit baseline at
40 qubits.  The bench sweeps a scaled-down qubit range (12-20) with the same
workload on one rank of 1024-amplitude blocks.

The asserted quantity is the report's gate-execution time
(``report["total_seconds"]``, best of :data:`REPEATS`): it grows with the
qubit count, and more than doubles over the sweep.  Every block of the
Hadamard state is identical, so grouping runs each plan's kernel once and
that time grows with the gate count (one gate per qubit) and the per-block
grouping pass, not with the state size.  The whole-call wall
(``repro.run()`` including simulator construction and result packaging)
grows with the number of blocks; it is recorded beside it, unasserted.
"""

from __future__ import annotations

import time

import repro
from repro.analysis import format_table
from repro.applications import hadamard_scaling_circuit
from repro.core import SimulatorConfig

QUBIT_RANGE = (12, 13, 14, 15, 16, 17, 18, 19, 20)
#: Runs per width; the fastest is kept, so a scheduling hiccup on one run
#: does not bend the curve.
REPEATS = 3


def _run(num_qubits: int) -> tuple[float, float]:
    """One run: (report gate-execution seconds, whole-call wall seconds)."""

    config = SimulatorConfig(num_ranks=1, block_amplitudes=1024, use_block_cache=False)
    started = time.perf_counter()
    result = repro.run(
        hadamard_scaling_circuit(num_qubits), backend="compressed", config=config
    )
    wall = time.perf_counter() - started
    # The report's bucketed total covers gate execution only — simulator
    # construction and result packaging stay out of the scaling curve, as
    # in the pre-unified-API version of this bench.
    return result.report["total_seconds"], wall


def _best_per_width() -> dict[int, tuple[float, float]]:
    """Fastest report time and fastest wall of each width over
    :data:`REPEATS` rounds.

    One untimed run first, so the first width does not carry the one-time
    costs of the first call; then each round sweeps every width, so a slow
    stretch of the host lands on all widths alike instead of on one.
    """

    _run(QUBIT_RANGE[0])
    runs: dict[int, list[tuple[float, float]]] = {n: [] for n in QUBIT_RANGE}
    for _ in range(REPEATS):
        for n in QUBIT_RANGE:
            runs[n].append(_run(n))
    return {
        n: (min(report for report, _ in rows), min(wall for _, wall in rows))
        for n, rows in runs.items()
    }


def test_fig15_single_node_qubit_scaling(benchmark, emit):
    timings = _best_per_width()
    benchmark.pedantic(_run, args=(QUBIT_RANGE[0],), rounds=1, iterations=1)

    baseline = timings[QUBIT_RANGE[0]][0]
    rows = [
        {
            "qubits": n,
            "seconds": seconds,
            "normalized_time_pct": 100.0 * seconds / baseline,
            "wall_seconds": wall,
        }
        for n, (seconds, wall) in timings.items()
    ]
    emit(
        "Figure 15: normalized execution time vs number of qubits (single node)",
        format_table(rows)
        + f"\n\nseconds: report total_seconds (gate execution), best of {REPEATS};"
        "\nwall_seconds: whole repro.run() call, best of the same runs (not asserted)."
        "\npaper values (34->40 qubits): 100%, 104%, 110%, 117%, 126%, 142%, 169%"
        "\nreproduced shape: monotone growth with qubit count.",
    )

    values = [timings[n][0] for n in QUBIT_RANGE]
    assert values[-1] > values[0]
    # Growth from first to last is substantial (well beyond timing noise).
    assert values[-1] / values[0] > 2.0

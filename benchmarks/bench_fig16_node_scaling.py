"""Figure 16 — strong scaling with node count.

The paper runs a 51-qubit Hadamard workload and reports speedups of 1.70x at
256 nodes and 2.84x at 512 nodes relative to 128 nodes (ideal would be 2x
and 4x).  This bench reproduces the figure's story in two complementary
modes:

* **Modelled** (the original mode), on RCS-16
  (``random_supremacy_circuit(4, 4, depth=16, seed=11)``): per-rank work
  (amplitudes per rank, hence decompress/compute/recompress volume) halves
  with every doubling of ranks while the communication volume per rank stays
  roughly constant, so the modelled critical-path time — measured
  single-rank per-block cost plus the
  :class:`~repro.distributed.SimulatedCommunicator` bandwidth model — shows
  sub-ideal speedup exactly as the paper observes.  The Hadamard workload is
  kept as a labelled row without the scaling assertions: every block of its
  state is identical, so grouping runs each plan's kernel once however many
  ranks there are, and its modelled compute term does not shrink.
* **Real exchange** (``comm="process"``, the ranked tier of
  :mod:`repro.distributed.ranked`): the Hadamard workload runs with the
  state split over actual rank worker processes, and the JSON records the
  *measured* inter-rank traffic — bytes that crossed process boundaries
  over the rank-pair sockets, pairwise exchange counts, and the per-rank
  communicator time buckets from ``SimulationReport.rank_comm``.  More rank
  bits ⇒ more rank-segment qubits ⇒ more real traffic, the mechanism behind
  the figure's communication floor.

Both modes run through the backend registry (``get_backend("compressed")``)
— the modelled mode injecting its custom bandwidth-modelled communicator via
the ``comm=`` session option, the real mode selecting the ranked tier via
``SimulatorConfig(comm="process")`` — so even this bench exercises the same
code path as every other ``repro.run()`` workload.

Results land in ``benchmarks/results/BENCH_fig16.json``.  Set
``REPRO_BENCH_QUICK=1`` for a CI-sized smoke run.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.analysis import format_table
from repro.applications import hadamard_scaling_circuit, random_supremacy_circuit
from repro.backends import get_backend
from repro.core import SimulatorConfig, effective_cpu_count
from repro.distributed import SimulatedCommunicator

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
RESULTS_DIR = Path(__file__).parent / "results"
JSON_PATH = RESULTS_DIR / "BENCH_fig16.json"

#: 16 qubits in every mode: smaller registers make the modelled speedup
#: communication-dominated and the strong-scaling shape disappears.  Quick
#: mode trims the rank ladders instead.
NUM_QUBITS = 16
RANK_COUNTS = (4, 8, 16) if QUICK else (4, 8, 16, 32)
#: Rank counts for the real-exchange mode: every rank is a live worker
#: process, so the ladder stays within what a single node launches quickly.
REAL_RANK_COUNTS = (2, 4) if QUICK else (2, 4, 8)
#: Modelled interconnect: generous bandwidth so communication is a correction,
#: not the dominant term (as on Theta's Aries network).
BANDWIDTH = 2e9
LATENCY = 5e-6


def _merge_json(section: str, payload) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    data = {}
    if JSON_PATH.exists():
        data = json.loads(JSON_PATH.read_text())
    data[section] = payload
    data["meta"] = {
        "quick": QUICK,
        "num_qubits": NUM_QUBITS,
        "available_cpus": effective_cpu_count(),
        "paper": "Figure 16: 51-qubit Hadamard, 128-4096 Theta nodes",
    }
    JSON_PATH.write_text(json.dumps(data, indent=2))


def _modelled_run(circuit, num_ranks: int) -> dict:
    comm = SimulatedCommunicator(num_ranks, bandwidth_bytes_per_s=BANDWIDTH, latency_s=LATENCY)
    config = SimulatorConfig(
        num_ranks=num_ranks,
        block_amplitudes=(1 << NUM_QUBITS) // num_ranks // 4,
        use_block_cache=False,
    )
    result = get_backend("compressed").run(circuit, config=config, comm=comm)
    report = result.report
    # Critical path per rank: the measured sequential work divided across
    # ranks (perfectly parallel part) plus the modelled communication time.
    compute = (
        report["compression_seconds"]
        + report["decompression_seconds"]
        + report["computation_seconds"]
    ) / num_ranks
    return {
        "ranks": num_ranks,
        "sequential_seconds": result.metadata["wall_seconds"],
        "modelled_parallel_seconds": compute + comm.modelled_seconds,
        "communication_bytes": report["communication_bytes"],
    }


def _real_exchange_run(num_ranks: int) -> dict:
    """Run the workload on the ranked tier and record measured traffic."""

    config = SimulatorConfig(
        num_ranks=num_ranks,
        block_amplitudes=(1 << NUM_QUBITS) // num_ranks // 4,
        use_block_cache=False,
        comm="process",
    )
    result = get_backend("compressed").run(
        hadamard_scaling_circuit(NUM_QUBITS), config=config
    )
    report = result.report
    per_rank = report["rank_comm"]
    return {
        "ranks": num_ranks,
        "wall_seconds": result.metadata["wall_seconds"],
        "real_bytes": report["communication_bytes"],
        "block_exchanges": report["block_exchanges"],
        "communication_seconds": report["communication_seconds"],
        "max_rank_exchange_seconds": max(
            entry["exchange_seconds"] for entry in per_rank
        ),
        "bytes_per_rank": [entry["bytes_sent"] for entry in per_rank],
    }


def _modelled_rows(workload: str, circuit) -> list[dict]:
    results = [_modelled_run(circuit, ranks) for ranks in RANK_COUNTS]
    baseline = results[0]["modelled_parallel_seconds"]
    return [
        {
            "workload": workload,
            **result,
            "speedup_vs_first": baseline / result["modelled_parallel_seconds"],
            "ideal_speedup": result["ranks"] / RANK_COUNTS[0],
        }
        for result in results
    ]


def test_fig16_node_scaling(benchmark, emit):
    rcs = random_supremacy_circuit(4, 4, depth=16, seed=11)
    rows = _modelled_rows("rcs16", rcs)
    hadamard_rows = _modelled_rows("hadamard", hadamard_scaling_circuit(NUM_QUBITS))
    benchmark.pedantic(
        _modelled_run, args=(rcs, RANK_COUNTS[0]), rounds=1, iterations=1
    )
    emit(
        "Figure 16: strong scaling of RCS-16 "
        f"({NUM_QUBITS} qubits here; paper: 51-qubit Hadamard on 128-512 Theta "
        "nodes)",
        format_table(rows + hadamard_rows)
        + "\n\npaper values: 1.70x at 2x nodes, 2.84x at 4x nodes (ideal 2x/4x)."
        "\nreproduced shape (rcs16): monotone speedup that falls short of ideal"
        "\nbecause communication does not shrink with the per-rank state."
        "\nhadamard: degenerate, not asserted - every block is identical, so each"
        "\nplan's kernel runs once whatever the rank count.",
    )
    _merge_json("modelled", rows)
    _merge_json("modelled_hadamard", hadamard_rows)

    speedups = [row["speedup_vs_first"] for row in rows]
    ideals = [row["ideal_speedup"] for row in rows]
    # Speedup grows with the rank count (allow a little timing noise between
    # adjacent points) but stays clearly sub-ideal, as in the paper.
    assert all(speedups[i + 1] > speedups[i] * 0.9 for i in range(len(speedups) - 1))
    assert speedups[-1] > max(speedups[0], 1.5)
    assert speedups[-1] < ideals[-1]


def test_fig16_real_exchange(emit):
    """The ranked tier's measured data movement alongside the model."""

    rows = [_real_exchange_run(ranks) for ranks in REAL_RANK_COUNTS]
    emit(
        "Figure 16 (real-exchange mode): measured inter-rank traffic of the "
        f"Hadamard workload, ranked tier, {NUM_QUBITS} qubits",
        format_table(
            [
                {k: v for k, v in row.items() if k != "bytes_per_rank"}
                for row in rows
            ]
        )
        + "\n\nbytes are real: compressed blobs crossing process boundaries"
        "\nover the rank-pair sockets, not modelled traffic.  log2(ranks) qubits"
        "\nfall in the rank segment, so total traffic grows with the rank"
        "\ncount while per-rank compute shrinks — the communication floor"
        "\nbehind the figure's sub-ideal speedup.",
    )
    _merge_json("real_exchange", rows)

    # Real bytes moved at every rank count, by every rank.
    assert all(row["real_bytes"] > 0 for row in rows)
    assert all(all(b > 0 for b in row["bytes_per_rank"]) for row in rows)
    assert all(row["communication_seconds"] > 0 for row in rows)
    # More rank bits => more rank-segment qubits => strictly more traffic.
    real_bytes = [row["real_bytes"] for row in rows]
    assert all(real_bytes[i + 1] > real_bytes[i] for i in range(len(real_bytes) - 1))

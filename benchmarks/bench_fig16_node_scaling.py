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
  single-rank per-block cost plus this bench's interconnect model
  (:func:`_modelled_comm_seconds`, applied to the traffic the report
  counts and split over the ``num_ranks / 2`` rank-pair links that carry it
  concurrently) — shows sub-ideal speedup exactly as the paper observes.  The Hadamard workload is
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
— the modelled mode on the default sequential tier, the real mode selecting
the ranked tier via ``SimulatorConfig(comm="process")`` — so even this bench
exercises the same code path as every other ``repro.run()`` workload.

Results land in ``BENCH_fig16.json`` under :func:`recordings.results_dir`.  Set
``REPRO_BENCH_QUICK=1`` for a CI-sized smoke run.
"""

from __future__ import annotations

import os
from collections import Counter

from repro.analysis import format_table
from repro.applications import hadamard_scaling_circuit, random_supremacy_circuit
from repro.backends import get_backend
from repro.circuits import form_runs
from repro.core import SimulatorConfig, effective_cpu_count
from repro.distributed import Partition, plan_gate

from recordings import merge_json

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

#: 16 qubits in every mode: smaller registers make the modelled speedup
#: communication-dominated and the strong-scaling shape disappears.  Quick
#: mode trims the rank ladders instead.
NUM_QUBITS = 16
RANK_COUNTS = (4, 8, 16) if QUICK else (4, 8, 16, 32)
#: Rank counts for the real-exchange mode: every rank is a live worker
#: process, so the ladder stays within what a single node launches quickly.
REAL_RANK_COUNTS = (2, 4) if QUICK else (2, 4, 8)
#: Timed runs per rank count in the modelled mode; the fastest is kept, so a
#: scheduling hiccup on one run does not bend the speedup curve.
REPEATS = 3
#: Modelled interconnect: generous bandwidth so communication is a correction,
#: not the dominant term (as on Theta's Aries network).
BANDWIDTH = 2e9
LATENCY = 5e-6


def _merge_json(section: str, payload) -> None:
    merge_json(
        "BENCH_fig16.json",
        section,
        payload,
        {
            "quick": QUICK,
            "num_qubits": NUM_QUBITS,
            "available_cpus": effective_cpu_count(),
            "paper": "Figure 16: 51-qubit Hadamard, 128-4096 Theta nodes",
        },
    )


def _block_amplitudes(num_ranks: int) -> int:
    """Four blocks per rank at every rank count."""

    return (1 << NUM_QUBITS) // num_ranks // 4


def _links(circuit, num_ranks: int) -> int:
    """The rank-pair links that carry *circuit*'s exchanges concurrently.

    A gate on a rank qubit pairs rank ``r`` with ``r ^ bit``: ``num_ranks /
    2`` links.  Asserted from the plans: an uncontrolled gate there (every
    rank-qubit gate of RCS-16 and of the Hadamard workload) gives each link
    exactly its share of the plan's exchanges, so no link carries more than
    ``1 / links`` of them.
    """

    links = num_ranks // 2
    partition = Partition(NUM_QUBITS, num_ranks, _block_amplitudes(num_ranks))
    per_rank = partition.blocks_per_rank
    for element in form_runs(circuit.gates, partition.offset_bits):
        plan = plan_gate(partition, element)
        if plan.exchange_count:
            shares = Counter(
                (first // per_rank, second // per_rank) for first, second in plan.tasks
            )
            assert len(shares) == links
            assert set(shares.values()) == {plan.exchange_count // links}
    return links


def _modelled_comm_seconds(report: dict, links: int) -> float:
    """Modelled interconnect time of the traffic *report* counts, carried
    by *links* concurrent rank-pair links.

    Every block exchange is two messages (one each way) and the report
    counts their bytes, so one link's model is bytes over bandwidth plus one
    latency per message.  Each link carries an equal share of the exchanges
    (:func:`_links`) and, in this model, of the bytes: the critical path is
    one link's share.
    """

    return (
        report["communication_bytes"] / BANDWIDTH
        + 2 * report["block_exchanges"] * LATENCY
    ) / links


def _modelled_run(circuit, num_ranks: int) -> dict:
    config = SimulatorConfig(
        num_ranks=num_ranks,
        block_amplitudes=_block_amplitudes(num_ranks),
        use_block_cache=False,
    )
    result = get_backend("compressed").run(circuit, config=config)
    report = result.report
    # Critical path per rank: the measured sequential work divided across
    # ranks (perfectly parallel part) plus the modelled communication time.
    compute = (
        report["compression_seconds"]
        + report["decompression_seconds"]
        + report["computation_seconds"]
    ) / num_ranks
    comm = _modelled_comm_seconds(report, _links(circuit, num_ranks))
    return {
        "ranks": num_ranks,
        "sequential_seconds": result.metadata["wall_seconds"],
        "modelled_parallel_seconds": compute + comm,
        "compute_seconds": compute,
        "modelled_comm_seconds": comm,
        "tasks_per_rank": report["tasks_executed"] / num_ranks,
        "communication_bytes": report["communication_bytes"],
        "block_exchanges": report["block_exchanges"],
    }


def _real_exchange_run(num_ranks: int) -> dict:
    """Run the workload on the ranked tier and record measured traffic."""

    config = SimulatorConfig(
        num_ranks=num_ranks,
        block_amplitudes=_block_amplitudes(num_ranks),
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


def _best_per_rank_count(circuit) -> list[dict]:
    """The fastest modelled run of each rank count over :data:`REPEATS`
    rounds (the timed fields each at their minimum).

    One untimed run first, so the first rank count does not carry the
    one-time costs of the first call; then each round sweeps every rank
    count, so a slow stretch of the host lands on all of them alike instead
    of on one.
    """

    _modelled_run(circuit, RANK_COUNTS[0])
    runs: dict[int, list[dict]] = {ranks: [] for ranks in RANK_COUNTS}
    for _ in range(REPEATS):
        for ranks in RANK_COUNTS:
            runs[ranks].append(_modelled_run(circuit, ranks))
    return [
        {
            **rows[0],
            "sequential_seconds": min(row["sequential_seconds"] for row in rows),
            "modelled_parallel_seconds": min(
                row["modelled_parallel_seconds"] for row in rows
            ),
            "compute_seconds": min(row["compute_seconds"] for row in rows),
        }
        for rows in runs.values()
    ]


def _modelled_rows(workload: str, circuit) -> list[dict]:
    results = _best_per_rank_count(circuit)
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


def _stalled_term(rows: list[dict]) -> str:
    """Which modelled term shrinks least over the last rank doubling."""

    last, before = rows[-1], rows[-2]
    ratios = {
        term: last[term] / before[term]
        for term in ("compute_seconds", "modelled_comm_seconds")
    }
    stalled = max(ratios, key=ratios.get)
    return (
        f"{before['ranks']} -> {last['ranks']} ranks: compute x"
        f"{ratios['compute_seconds']:.2f}, modelled comm x"
        f"{ratios['modelled_comm_seconds']:.2f}; {stalled} stops shrinking"
        f" (tasks per rank {before['tasks_per_rank']:.0f} ->"
        f" {last['tasks_per_rank']:.0f}, one block "
        f"{_block_amplitudes(last['ranks'])} amplitudes)."
    )


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
        "\nbecause compute per rank shrinks by less than half per doubling"
        "\n(tasks per rank grow, and a smaller block's round trip is mostly"
        "\nfixed per-task cost) and one link's communication does not shrink."
        "\nhadamard: degenerate, not asserted - every block is identical, so each"
        "\nplan's kernel runs once whatever the rank count."
        "\nmodelled_parallel_seconds = compute_seconds (measured codec + kernel"
        "\nseconds / ranks) + modelled_comm_seconds (counted traffic, modelled"
        "\nlinks: each of the ranks / 2 rank-pair links carries its share)."
        f"\nrcs16, {_stalled_term(rows)}"
        f"\nseconds: fastest of {REPEATS} interleaved rounds after one untimed run.",
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

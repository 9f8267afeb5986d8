"""The traced pass: spans recorded from outside, around each layer's public calls.

Nothing inside ``src/`` is instrumented.  The pass replays what
``repro.run()`` does for one iteration - build the simulator, fuse, apply
gate by gate, sample, evaluate the observable, serialise the result - through
the same public functions, one span per call, and derives every per-layer
metric from those spans, from the simulator's own report, and from a few
micro-measurements on block blobs sampled out of the workload's own state.

Spans live in memory until :meth:`Tracer.write`; ``harness.*`` spans mark time
the harness spends on its own sampling and are left out of the iteration's
wall.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

from repro import CompressedSimulator, Result, SimulatorConfig, get_compressor
from repro.circuits import H
from repro.core.cache import BlockCache
from repro.distributed.exchange import plan_gate
from repro.statevector import ops

from e2e_workloads import Case

__all__ = ["Tracer", "traced_iteration", "PER_LAYER"]

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("fusion.pass_s", "s", "lower"),
    ("fusion.gates_in", "count", "lower"),
    ("fusion.gates_out", "count", "lower"),
    ("exchange.plan_s", "s", "lower"),
    ("exchange.tasks", "count", "lower"),
    ("exchange.waves", "count", "lower"),
    ("exchange.rank_gates", "count", "lower"),
    ("compression.encode_mb_s", "MB/s", "higher"),
    ("compression.decode_mb_s", "MB/s", "higher"),
    ("compression.ratio", "x", "higher"),
    ("cache.hit_rate", "share", "higher"),
    ("cache.lookups", "count", "lower"),
    ("cache.key_us", "us", "lower"),
    ("executor.apply_s", "s", "lower"),
    ("executor.gate_local_s", "s", "lower"),
    ("executor.gate_block_s", "s", "lower"),
    ("executor.gate_rank_s", "s", "lower"),
    ("executor.tasks", "count", "lower"),
    ("executor.compress_calls", "count", "lower"),
    ("executor.decompress_calls", "count", "lower"),
    ("executor.kernel_s", "s", "lower"),
    ("executor.transport_share", "share", "lower"),
    ("report.compression_s", "s", "lower"),
    ("report.decompression_s", "s", "lower"),
    ("report.computation_s", "s", "lower"),
    ("report.communication_s", "s", "lower"),
    ("report.unattributed_s", "s", "lower"),
    ("report.unattributed_share", "share", "lower"),
    ("state.bookkeeping_us", "us", "lower"),
    ("adaptive.escalations", "count", "lower"),
    ("adaptive.final_bound", "1", "lower"),
    ("comm.exchange_s", "s", "lower"),
    ("comm.bytes", "B", "lower"),
    ("comm.messages", "count", "lower"),
    ("comm.block_exchanges", "count", "lower"),
    ("backends.session_s", "s", "lower"),
    ("backends.reset_s", "s", "lower"),
    ("backends.sample_s", "s", "lower"),
    ("backends.observable_s", "s", "lower"),
    ("backends.result_json_s", "s", "lower"),
    ("ops.kernel_mb_s", "MB/s", "higher"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.accounted_share", "share", "higher"),
)

#: Blobs kept per snapshot and gates between snapshots: enough samples for a
#: codec rate, few enough that sampling stays under 1 % of the iteration.
_SNAPSHOT_EVERY = 16
_SNAPSHOT_BLOCKS = 8


class Tracer:
    """In-memory span log of one traced iteration (one run id)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[dict]:
        record = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def seconds(self, name: str, **attrs: object) -> float:
        """Summed duration of the spans called *name* (matching *attrs*)."""

        return sum(
            span["end"] - span["start"]
            for span in self.spans
            if span["name"] == name
            and all(span.get(key) == value for key, value in attrs.items())
        )

    def self_seconds(self) -> dict[str, float]:
        """Per span name: duration minus the part its child spans cover."""

        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, float] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - covered[span["id"]]
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _snapshot(simulator: CompressedSimulator) -> list:
    partition = simulator.partition
    stride = max(1, partition.total_blocks // _SNAPSHOT_BLOCKS)
    return [
        simulator.state.get_block(
            index // partition.blocks_per_rank, index % partition.blocks_per_rank
        )
        for index in range(0, partition.total_blocks, stride)
    ]


def _codec_metrics(config: SimulatorConfig, lossless, entries: list) -> dict:
    """Encode/decode rate and ratio of the sampled blobs, each through the
    codec (and bound) that produced it."""

    codecs = {0.0: lossless}
    raw_bytes = blob_bytes = 0
    encode_s = decode_s = 0.0
    for entry in entries:
        if entry.bound not in codecs:
            codecs[entry.bound] = get_compressor(
                config.lossy_compressor,
                bound=entry.bound,
                backend=config.lossless_backend,
                level=config.lossless_level,
                engine=config.codec_engine,
            )
        codec = codecs[entry.bound]
        started = time.perf_counter()
        values = codec.decompress(entry.blob)
        decoded = time.perf_counter()
        codec.compress(values)
        encode_s += time.perf_counter() - decoded
        decode_s += decoded - started
        raw_bytes += values.nbytes
        blob_bytes += len(entry.blob)
    return {
        "compression.encode_mb_s": raw_bytes / 1e6 / encode_s,
        "compression.decode_mb_s": raw_bytes / 1e6 / decode_s,
        "compression.ratio": raw_bytes / blob_bytes,
    }


def _cache_key_us(entries: list) -> float:
    """Median cost of one miss ``lookup`` + ``insert`` on sampled blob pairs."""

    cache = BlockCache(lines=64, miss_disable_threshold=None)
    costs = []
    for index in range(len(entries) - 1):
        blob1, blob2 = entries[index].blob, entries[index + 1].blob
        op_key = ("h", index, "bench")
        started = time.perf_counter()
        cache.lookup(op_key, blob1, blob2)
        cache.insert(op_key, blob1, blob2, blob1, blob2)
        costs.append(time.perf_counter() - started)
    return statistics.median(costs) * 1e6


def _bookkeeping_us(simulator: CompressedSimulator) -> float:
    """The footprint + ratio pair ``_apply_gate_once`` pays after every gate."""

    costs = []
    for _ in range(25):
        started = time.perf_counter()
        simulator.state.footprint_bytes()
        simulator.state.compression_ratio()
        costs.append(time.perf_counter() - started)
    return statistics.median(costs) * 1e6


def _kernel_mb_s(block_amplitudes: int) -> float:
    """2x2 pair update over one block-sized buffer; bytes are computed from
    the array size (one read and one write of the block), not measured."""

    rng = np.random.default_rng(0)
    buffer = rng.standard_normal(block_amplitudes) + 1j * rng.standard_normal(
        block_amplitudes
    )
    qubit = (block_amplitudes.bit_length() - 1) // 2
    costs = []
    for _ in range(200):
        started = time.perf_counter()
        ops.apply_single_qubit(buffer, H, qubit)
        costs.append(time.perf_counter() - started)
    return 2 * buffer.nbytes / 1e6 / statistics.median(costs)


def traced_iteration(
    case: Case, seed: int, tracer: Tracer, untraced_wall_s: float
) -> dict[str, float | None]:
    """Run one iteration span by span and return every per-layer metric.

    ``None`` marks a metric that does not exist on this workload (no shots,
    no second circuit, CPU-summed buckets on a parallel tier).
    """

    config = SimulatorConfig(**case.config)
    sampled: list = []
    reports: list[dict] = []
    plan_tasks = plan_waves = rank_gates = 0
    rngs = [
        np.random.default_rng(sequence)
        for sequence in np.random.SeedSequence(seed).spawn(len(case.circuits))
    ]

    with tracer.span("iteration") as root:
        with tracer.span("backends.session"):
            simulator = CompressedSimulator(case.num_qubits, config)
        try:
            for position, circuit in enumerate(case.circuits):
                if position:
                    with tracer.span("backends.reset"):
                        simulator.reset()
                with tracer.span("fusion.pass"):
                    gates = simulator.prepare_gates(circuit)
                for index, gate in enumerate(gates):
                    with tracer.span("exchange.plan"):
                        plan = plan_gate(simulator.partition, gate)
                    kind = plan.segment.name.lower()
                    plan_tasks += len(plan.tasks)
                    plan_waves += len(plan.independent_groups())
                    rank_gates += kind == "rank"
                    with tracer.span("executor.gate", kind=kind, tasks=len(plan.tasks)):
                        simulator.apply_gate(gate)
                    if index % _SNAPSHOT_EVERY == _SNAPSHOT_EVERY - 1:
                        with tracer.span("harness.snapshot"):
                            sampled.extend(_snapshot(simulator))
                report = simulator.report().as_dict()
                reports.append(report)
                counts = expectations = None
                if case.shots:
                    with tracer.span("backends.sample"):
                        counts = simulator.sample_counts(case.shots, rngs[position])
                if case.observable is not None:
                    with tracer.span("backends.observable"):
                        expectations = {
                            case.observable.label: case.observable.expectation(simulator)
                        }
                with tracer.span("backends.result_json"):
                    Result(
                        backend="compressed",
                        circuit_name=circuit.name,
                        num_qubits=circuit.num_qubits,
                        shots=case.shots,
                        counts=counts,
                        expectations=expectations,
                        report=report,
                    ).to_json()
            with tracer.span("harness.snapshot"):
                sampled.extend(_snapshot(simulator))
                bookkeeping_us = _bookkeeping_us(simulator)
                lossless = simulator.controller.lossless_compressor()
        finally:
            with tracer.span("backends.session"):
                simulator.close()

    wall = root["end"] - root["start"] - tracer.seconds("harness.snapshot")
    apply_s = tracer.seconds("executor.gate")
    readout_s = sum(
        tracer.seconds(f"backends.{part}")
        for part in ("session", "reset", "sample", "observable", "result_json")
    )

    def total(key: str) -> float:
        return sum(report[key] for report in reports)

    buckets = {
        bucket: total(f"{bucket}_seconds")
        for bucket in ("compression", "decompression", "computation", "communication")
    }
    kernel_s = buckets["compression"] + buckets["decompression"] + buckets["computation"]
    # Ranks are the workers of the ranked tier; elsewhere it is num_workers.
    workers = config.num_ranks if config.comm == "process" else config.num_workers
    sequential = workers == 1
    unattributed = apply_s - sum(buckets.values()) if sequential else None
    lookups = total("cache_hits") + total("cache_misses")
    rank_comm = [entry for report in reports for entry in report["rank_comm"] or []]

    metrics: dict[str, float | None] = {
        "fusion.pass_s": tracer.seconds("fusion.pass"),
        "fusion.gates_in": total("fusion_gates_in"),
        "fusion.gates_out": total("fusion_gates_out"),
        "exchange.plan_s": tracer.seconds("exchange.plan"),
        "exchange.tasks": plan_tasks,
        "exchange.waves": plan_waves,
        "exchange.rank_gates": rank_gates,
        **_codec_metrics(config, lossless, sampled),
        "cache.hit_rate": total("cache_hits") / lookups if lookups else None,
        "cache.lookups": lookups,
        "cache.key_us": _cache_key_us(sampled),
        "executor.apply_s": apply_s,
        "executor.gate_local_s": tracer.seconds("executor.gate", kind="local"),
        "executor.gate_block_s": tracer.seconds("executor.gate", kind="block"),
        "executor.gate_rank_s": tracer.seconds("executor.gate", kind="rank"),
        "executor.tasks": total("tasks_executed"),
        "executor.compress_calls": total("compress_calls"),
        "executor.decompress_calls": total("decompress_calls"),
        "executor.kernel_s": kernel_s,
        "executor.transport_share": 1.0 - kernel_s / (workers * apply_s),
        "report.compression_s": buckets["compression"],
        "report.decompression_s": buckets["decompression"],
        "report.computation_s": buckets["computation"],
        "report.communication_s": buckets["communication"],
        "report.unattributed_s": unattributed,
        "report.unattributed_share": unattributed / apply_s if sequential else None,
        "state.bookkeeping_us": bookkeeping_us,
        "adaptive.escalations": total("escalations"),
        "adaptive.final_bound": max(report["final_error_bound"] for report in reports),
        "comm.exchange_s": max(
            (entry["exchange_seconds"] for entry in rank_comm), default=0.0
        ),
        "comm.bytes": sum(entry["bytes_sent"] for entry in rank_comm),
        "comm.messages": sum(entry["messages"] for entry in rank_comm),
        "comm.block_exchanges": total("block_exchanges") if rank_comm else 0,
        "backends.session_s": tracer.seconds("backends.session"),
        "backends.reset_s": (
            tracer.seconds("backends.reset") if len(case.circuits) > 1 else None
        ),
        "backends.sample_s": tracer.seconds("backends.sample") if case.shots else None,
        "backends.observable_s": (
            tracer.seconds("backends.observable") if case.observable else None
        ),
        "backends.result_json_s": tracer.seconds("backends.result_json"),
        "ops.kernel_mb_s": _kernel_mb_s(simulator.partition.block_amplitudes),
        "trace.overhead_share": (wall - untraced_wall_s) / untraced_wall_s,
        "trace.accounted_share": (
            apply_s
            + tracer.seconds("fusion.pass")
            + tracer.seconds("exchange.plan")
            + readout_s
        )
        / wall,
    }
    return metrics

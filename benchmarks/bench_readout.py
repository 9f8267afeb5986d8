"""Readout off the compressed state: one block reduction, then the hit blocks.

The paper reads samples and observables straight off the compressed state.
This bench measures what that costs after a 16-qubit QAOA circuit (depth 2,
4-regular graph, 4096-amplitude blocks, two ranks, lossless) with the MAXCUT
observable, on the sequential and the ranked tier:

* ``observable`` — ``PauliObservable.expectation`` alone: one reduction, so
  one decompress per block, whatever the number of terms;
* ``run readout`` — what ``repro.run()`` does after the circuit
  (``backends.compressed._package_result``): one reduction serves the
  sampler's block masses and the observable, then each block the 4096 shots
  hit is decompressed once more for its offsets.

Per pass it records the seconds (best of the repeats), the decompress calls
(counted in every process, the rank workers included), and what crossed the
parent↔rank control pipes: pickled bytes in both directions, and the bytes
of compressed blobs among them.  It asserts that the calls are exactly the
blocks (plus the hit blocks for ``run readout``) and that the ranked
observable pass ships no blob.  ``REPRO_BENCH_QUICK=1`` takes one repeat.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time

import numpy as np

from repro.analysis import format_table
from repro.applications import (
    maxcut_observable,
    qaoa_maxcut_circuit,
    random_regular_graph,
)
from repro.backends.compressed import _CompressedSession, _package_result
from repro.compression.lossless import LosslessCompressor
from repro.core import CompressedSimulator, SimulatorConfig
from repro.core.procpool import ProcessPool

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
REPEATS = 1 if QUICK else 5
NUM_QUBITS = 16
BLOCK = 4096
SHOTS = 4096
TIERS = {
    "sequential": {},
    # fork, so the rank workers inherit the counting decompress below.
    "ranked": dict(comm="process", mp_start_method="fork"),
}


class Meter:
    """Decompress calls in every process, and control-pipe traffic."""

    def __init__(self, monkeypatch) -> None:
        # Shared memory the forked rank workers increment too.
        self._calls = multiprocessing.get_context("fork").Value("q", 0)
        self.pipe_bytes = 0
        self.blob_bytes = 0
        calls = self._calls
        decompress = LosslessCompressor.decompress
        submit, recv_any = ProcessPool.submit, ProcessPool.recv_any

        def counting_decompress(codec, blob):
            with calls.get_lock():
                calls.value += 1
            return decompress(codec, blob)

        def metered_submit(pool, worker_id, message):
            self.pipe_bytes += len(pickle.dumps(message))
            return submit(pool, worker_id, message)

        def metered_recv_any(pool, timeout=None):
            worker_id, reply = recv_any(pool, timeout)
            self.pipe_bytes += len(pickle.dumps(reply))
            if reply[0] == "block":
                self.blob_bytes += len(reply[1])
            return worker_id, reply

        monkeypatch.setattr(LosslessCompressor, "decompress", counting_decompress)
        monkeypatch.setattr(ProcessPool, "submit", metered_submit)
        monkeypatch.setattr(ProcessPool, "recv_any", metered_recv_any)

    def reset(self) -> None:
        self._calls.value = 0
        self.pipe_bytes = self.blob_bytes = 0

    @property
    def decompress_calls(self) -> int:
        return self._calls.value


def _workload():
    graph = random_regular_graph(NUM_QUBITS, 4, seed=16)
    circuit = qaoa_maxcut_circuit(graph, [0.6, 0.35], [0.45, 0.25])
    return circuit, maxcut_observable(graph)


def _measure(tier: str, meter: Meter) -> tuple[list[dict], dict]:
    circuit, observable = _workload()
    config = SimulatorConfig(num_ranks=2, block_amplitudes=BLOCK, **TIERS[tier])
    session = _CompressedSession(config=config)
    passes = {
        "observable": lambda simulator: observable.expectation(simulator),
        "run readout": lambda simulator: _package_result(
            "compressed",
            simulator,
            session,
            circuit,
            shots=SHOTS,
            observables=[observable],
            rng=np.random.default_rng(11),
            return_statevector=False,
        ),
    }
    rows, outputs = [], {}
    with CompressedSimulator(NUM_QUBITS, config) as simulator:
        simulator.apply_circuit(circuit)
        assert simulator.report().final_error_bound == 0.0
        blocks = simulator.partition.total_blocks
        for name, readout in passes.items():
            seconds = []
            for _ in range(REPEATS):
                meter.reset()
                started = time.perf_counter()
                output = readout(simulator)
                seconds.append(time.perf_counter() - started)
            outputs[name] = output
            hit_blocks = (
                len({key // BLOCK for key in output.counts})
                if name == "run readout"
                else 0
            )
            rows.append(
                {
                    "tier": tier,
                    "pass": name,
                    "seconds": min(seconds),
                    "decompress_calls": meter.decompress_calls,
                    "blocks": blocks,
                    "hit_blocks": hit_blocks,
                    "pipe_bytes": meter.pipe_bytes,
                    "blob_bytes": meter.blob_bytes,
                }
            )
    return rows, outputs


def test_readout_one_reduction(emit, monkeypatch):
    meter = Meter(monkeypatch)
    rows, outputs = [], {}
    for tier in TIERS:
        tier_rows, outputs[tier] = _measure(tier, meter)
        rows.extend(tier_rows)

    for row in rows:
        assert row["decompress_calls"] == row["blocks"] + row["hit_blocks"], row
        if row["tier"] == "sequential":
            assert row["pipe_bytes"] == 0, row
    ranked = {row["pass"]: row for row in rows if row["tier"] == "ranked"}
    assert ranked["observable"]["blob_bytes"] == 0
    assert ranked["run readout"]["blob_bytes"] > 0  # the hit blocks, no more
    # The tiers agree bit for bit.
    assert outputs["ranked"]["observable"] == outputs["sequential"]["observable"]
    for field in ("counts", "expectations"):
        assert getattr(outputs["ranked"]["run readout"], field) == getattr(
            outputs["sequential"]["run readout"], field
        )

    emit(
        f"Readout after QAOA-{NUM_QUBITS} (MAXCUT observable, {SHOTS} shots, "
        f"{BLOCK}-amplitude blocks, 2 ranks, best of {REPEATS})",
        format_table(rows)
        + "\n\ndecompress calls are counted in every process; pipe_bytes is"
        "\nthe pickled parent<->rank traffic, blob_bytes the compressed blocks"
        "\namong it. expected: calls = blocks (+ hit blocks for the run"
        "\nreadout), and the ranked observable pass ships numbers, no blob.",
    )

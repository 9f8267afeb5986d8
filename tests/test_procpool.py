"""Process parallelism: the message pool, the ``num_workers`` spellings of
the ranked tier, the batch fan-out and codec picklability.

Three contracts are pinned here:

* **One mechanism** — ``num_workers=num_ranks``, with or without
  ``executor="process"``, is the ranked tier (:mod:`tests.test_ranked`
  covers the tier itself): same state class and byte-identical compressed
  states as ``comm="process"`` and the sequential path, fork *and* spawn.
* **Fan-out** — ``repro.run(..., parallel="process")`` equals the sequential
  batch, JSON for JSON.
* **Cheap picklability** — every codec ships to workers as constructor
  arguments only, and a pickled codec produces and decodes byte-identical
  blobs.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import numpy as np
import pytest

import repro
from repro.applications import (
    grover_circuit,
    maxcut_observable,
    qaoa_maxcut_circuit,
    qft_benchmark_circuit,
    random_regular_graph,
)
from repro.backends import BackendError
from repro.backends.base import Backend
from repro.circuits import QuantumCircuit
from repro.compression import ErrorBoundMode, available_compressors, get_compressor
from repro.compression.huffman import HuffmanCodec
from repro.core import (
    CompressedSimulator,
    CompressedStateVector,
    SimulatorConfig,
    effective_cpu_count,
)
from repro.core.kernel import TaskStats
from repro.core.procpool import ProcessPool, live_pool_count
from repro.distributed.ranked import RankedStateVector
from repro.resilience import FaultPolicy
from repro.resilience.faults import (
    CommFaultState,
    DelayComm,
    DropComm,
    FaultPlan,
    KillWorker,
)

#: Pin for tests that assert exact failure propagation or exact cache
#: counters: an inert policy keeps them deterministic even when the suite
#: runs under a chaos fault plan (the CI chaos job).
NO_RECOVERY = FaultPolicy(max_retries=0)


#: Every spelling the registry accepts: names, aliases and solution letters.
EVERY_CODEC_NAME = available_compressors() + ("a", "b", "c", "d")


def _final_state(num_qubits: int, circuit, **config_kwargs) -> np.ndarray:
    with CompressedSimulator(
        num_qubits, SimulatorConfig(num_ranks=2, block_amplitudes=16, **config_kwargs)
    ) as simulator:
        simulator.apply_circuit(circuit)
        return simulator.statevector()


# ---------------------------------------------------------------------------
# Codec picklability
# ---------------------------------------------------------------------------


class TestCodecPicklability:
    def test_pickled_codec_is_blob_bit_identical(self, codec_name, make_codec, spiky_data):
        codec = make_codec(codec_name)
        clone = pickle.loads(pickle.dumps(codec))
        blob = codec.compress(spiky_data)
        assert clone.compress(spiky_data) == blob
        assert np.array_equal(clone.decompress(blob), codec.decompress(blob))
        assert clone.describe() == codec.describe()

    def test_pickled_lossy_families_round_trip(self, compressor_name, spiky_data):
        codec = get_compressor(compressor_name, bound=1e-3)
        clone = pickle.loads(pickle.dumps(codec))
        assert clone.compress(spiky_data) == codec.compress(spiky_data)
        assert clone.bound == codec.bound and clone.mode is codec.mode

    def test_pickle_payload_is_constructor_sized(self, kernels):
        # The state must stay cheap: constructor arguments, not tables (the
        # codec rides every ranked gate message).
        codecs = [get_compressor(name) for name in EVERY_CODEC_NAME]
        for codec in codecs + [HuffmanCodec()]:
            assert len(pickle.dumps(codec)) < 250, codec
            assert "engine" not in codec.__getstate__(), codec
            assert all(
                isinstance(value, (str, int, float, ErrorBoundMode))
                for value in codec.__getstate__().values()
            ), codec

    @pytest.mark.parametrize("name", EVERY_CODEC_NAME)
    def test_every_registered_name_round_trips(self, name, spiky_data):
        codec = get_compressor(name)
        clone = pickle.loads(pickle.dumps(codec))
        blob = codec.compress(spiky_data)
        assert type(clone) is type(codec)
        assert clone.compress(spiky_data) == blob
        assert np.array_equal(clone.decompress(blob), codec.decompress(blob))
        assert (clone.mode, clone.bound) == (codec.mode, codec.bound)

    def test_huffman_codec_pickles(self):
        codec = HuffmanCodec(window_bits=11)
        clone = pickle.loads(pickle.dumps(codec))
        symbols = np.array([3, 1, 4, 1, 5, 9, 2, 6] * 64, dtype=np.int64)
        blob = codec.encode(symbols)
        assert clone.encode(symbols) == blob
        assert np.array_equal(clone.decode(blob), symbols)

    def test_fpzip_pickles_with_derived_bound(self):
        codec = get_compressor("fpzip", precision=22)
        clone = pickle.loads(pickle.dumps(codec))
        assert clone.bound == codec.bound
        assert clone.precision == codec.precision


@pytest.mark.parametrize(
    "record",
    [
        SimulatorConfig,
        FaultPolicy,
        FaultPlan,
        KillWorker,
        DropComm,
        DelayComm,
        CommFaultState,
        TaskStats,
    ],
)
def test_process_boundary_records_pickle_by_value(record):
    # Config, policy, fault-plan entries, a rank's armed comm faults and the
    # per-task stats reply cross the parent↔worker boundary: plain-field
    # dataclasses, or an explicit reduce.
    assert dataclasses.is_dataclass(record) or "__reduce__" in vars(record)


# ---------------------------------------------------------------------------
# The message pool
# ---------------------------------------------------------------------------


class _EchoWorker:
    """Pool worker state answering every message with the message itself."""

    def handle(self, message: tuple) -> tuple:
        return message


class TestMessagePool:
    def test_message_and_reply_cross_as_given(self):
        # Nothing is appended to a message and nothing stripped from a reply:
        # blobs ride in the tuple, beyond the 64 KiB pipe buffer included.
        message = ("echo", 7, b"", bytes(range(256)) * 300, None)
        with ProcessPool(1, _EchoWorker) as pool:
            pool.submit(0, message)
            assert pool.recv_any(timeout=30.0) == (0, message)

    def test_effective_cpu_count_positive(self):
        assert effective_cpu_count() >= 1


# ---------------------------------------------------------------------------
# num_workers=num_ranks: a spelling of the ranked tier
# ---------------------------------------------------------------------------


class TestProcessSpellingIsTheRankedTier:
    """``comm="process"``, ``num_workers=num_ranks`` and
    ``executor="process", num_workers=num_ranks`` select one mechanism: same
    tier, same state class, same bits."""

    @pytest.mark.parametrize("budget", [None, 3_000])
    def test_same_tier_same_executor_same_bits(self, budget):
        # Seeded: one basis state in 32 (multiples of 32) compresses well
        # enough to never escalate under the budget.
        circuit = qft_benchmark_circuit(8, seed=8)
        outcomes = {}
        for spelling, options in (
            ("sequential", {}),
            ("comm", dict(comm="process")),
            ("workers", dict(num_workers=2)),
            ("executor", dict(num_workers=2, executor="process")),
        ):
            config = SimulatorConfig(
                num_ranks=2, block_amplitudes=16, memory_budget_bytes=budget, **options
            )
            with CompressedSimulator(8, config) as simulator:
                report = simulator.apply_circuit(circuit)
                outcomes[spelling] = (
                    config.tier,
                    type(simulator.state),
                    bool(report.rank_comm),
                    simulator.statevector().tobytes(),
                    report.peak_footprint_bytes,
                    report.min_compression_ratio,
                    report.escalations,
                )
        assert outcomes["executor"] == outcomes["workers"] == outcomes["comm"]
        assert outcomes["comm"][:3] == ("ranked", RankedStateVector, True)
        assert outcomes["sequential"][:3] == (
            "sequential",
            CompressedStateVector,
            False,
        )
        assert outcomes["comm"][3:] == outcomes["sequential"][3:]
        # The budget must actually bite (workers then pick up the escalated
        # compressor instances gate by gate).
        assert (outcomes["sequential"][-1] > 0) == (budget is not None)

    def test_codec_bound_sz_path_is_bit_identical(self):
        circuit = qft_benchmark_circuit(8)
        kwargs = dict(lossy_compressor="sz", use_block_cache=False, start_lossless=False)
        sequential = _final_state(8, circuit, **kwargs)
        process = _final_state(8, circuit, num_workers=2, executor="process", **kwargs)
        assert np.array_equal(sequential, process)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_fork_and_spawn_are_bit_identical(self, start_method):
        import multiprocessing

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        circuit = qft_benchmark_circuit(7)
        sequential = _final_state(7, circuit)
        process = _final_state(
            7,
            circuit,
            num_workers=2,
            executor="process",
            mp_start_method=start_method,
        )
        assert np.array_equal(sequential, process)

    def test_shard_cache_stats_reach_the_report(self):
        # Gate by gate: Grover's redundancy is per gate (Section 3.4), and
        # with runs every element here pairs across the ranks, whose
        # exchange tasks are never grouped.
        circuit = grover_circuit(6, marked=5, iterations=2)
        config = SimulatorConfig(
            num_ranks=2,
            block_amplitudes=16,
            num_workers=2,
            executor="process",
            fault_policy=NO_RECOVERY,
            fusion_enabled=False,
        )
        with CompressedSimulator(6, config) as simulator:
            report = simulator.apply_circuit(circuit)
            # At most one shard lookup per task, and none for a duplicate:
            # byte-identical tasks within a rank's batch are grouped first.
            lookups = report.cache_hits + report.cache_misses
            assert 0 < lookups + report.duplicate_tasks <= report.tasks_executed
            # Grover's recurring block patterns repeat within a plan
            # (duplicates) and across plans (shard hits).
            assert report.duplicate_tasks > 0
            assert report.cache_hits > 0
            assert simulator.cache is None  # the shards are the only caches
            assert np.array_equal(simulator.statevector(), _final_state(6, circuit))

    def test_disabled_shards_stop_counting_misses(self):
        # Once a shard's miss rule disables it, its lookups are free and
        # uncounted — the parent must not keep accumulating misses (the
        # sequential tier caps at the disable threshold too).  Every gate
        # has its own angle, so no pattern can recur: each rank's shard
        # sees far more than 256 distinct misses and no hit.
        circuit = QuantumCircuit(8)
        for index in range(32):
            circuit.ry(0.1 + 0.05 * index, index % 8)
        config = SimulatorConfig(
            num_ranks=2,
            block_amplitudes=4,
            num_workers=2,
            executor="process",
            fault_policy=NO_RECOVERY,
        )
        with CompressedSimulator(8, config) as simulator:
            report = simulator.apply_circuit(circuit)
            # 256 counted misses per shard, however many tasks ran.
            assert report.cache_hits == 0
            assert report.cache_misses == 256 * config.num_ranks
            distinct = report.tasks_executed - report.duplicate_tasks
            assert distinct > report.cache_misses

    def test_single_worker_runs_sequentially_without_a_pool(self):
        # num_workers=1 keeps the documented sequential contract: no worker
        # processes are spawned and no task pays IPC.
        circuit = qft_benchmark_circuit(7)
        sequential = _final_state(7, circuit)
        config = SimulatorConfig(
            num_ranks=2, block_amplitudes=16, num_workers=1, executor="process"
        )
        assert config.tier == "sequential"
        with CompressedSimulator(7, config) as simulator:
            simulator.apply_circuit(circuit)
            assert type(simulator.state) is CompressedStateVector
            assert live_pool_count() == 0
            assert np.array_equal(sequential, simulator.statevector())

    def test_fork_helper_is_sequential(self):
        config = SimulatorConfig(
            num_ranks=2, block_amplitudes=16, num_workers=2, executor="process"
        )
        with CompressedSimulator(6, config) as simulator:
            simulator.apply_circuit(qft_benchmark_circuit(6))
            clone = simulator.fork()
            try:
                assert clone.config.tier == "sequential"
                assert np.array_equal(clone.statevector(), simulator.statevector())
            finally:
                clone.close()

    def test_invalid_executor_and_start_method_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            SimulatorConfig(executor="gpu")
        with pytest.raises(ValueError, match="mp_start_method"):
            SimulatorConfig(mp_start_method="teleport")


# ---------------------------------------------------------------------------
# Batched repro.run() fan-out
# ---------------------------------------------------------------------------


def _strip_timing(data):
    """Zero every measured-seconds field (the only legitimate difference)."""

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


class TestBatchFanout:
    @pytest.fixture(scope="class")
    def qaoa_batch(self):
        graph = random_regular_graph(8, degree=3, seed=5)
        circuits = [
            qaoa_maxcut_circuit(graph, [gamma], [beta])
            for gamma in (0.2, 0.4, 0.6)
            for beta in (0.4, 0.8, 1.2)
        ]
        return graph, circuits

    def test_nine_circuit_qaoa_batch_is_json_equal(self, qaoa_batch):
        """ISSUE acceptance: parallel="process" == sequential, JSON-equal.

        Every physically meaningful field — counts, expectations, report
        counters, metadata ratios — must match exactly; only measured
        wall-clock values may differ, so those are zeroed on both sides
        before comparing.
        """

        graph, circuits = qaoa_batch
        observable = maxcut_observable(graph)
        sequential = repro.run(circuits, shots=128, observables=observable, seed=11)
        parallel = repro.run(
            circuits,
            shots=128,
            observables=observable,
            seed=11,
            parallel="process",
            max_parallel=3,
        )
        assert len(parallel) == 9
        assert _strip_timing(json.loads(sequential.to_json())) == _strip_timing(
            json.loads(parallel.to_json())
        )

    def test_seed_ladder_matches_sequential_counts(self, qaoa_batch):
        _, circuits = qaoa_batch
        sequential = repro.run(circuits[:4], shots=200, seed=42)
        parallel = repro.run(
            circuits[:4], shots=200, seed=42, parallel="process", max_parallel=2
        )
        for left, right in zip(sequential, parallel):
            assert left.counts == right.counts
            assert left.metadata["seed"] == right.metadata["seed"] == 42

    def test_dense_backend_fans_out_too(self, qaoa_batch):
        _, circuits = qaoa_batch
        sequential = repro.run(circuits[:3], backend="dense", shots=50, seed=7)
        parallel = repro.run(
            circuits[:3],
            backend="dense",
            shots=50,
            seed=7,
            parallel="process",
            max_parallel=2,
        )
        for left, right in zip(sequential, parallel):
            assert left.counts == right.counts

    def test_single_circuit_skips_fanout(self, qaoa_batch):
        _, circuits = qaoa_batch
        result = repro.run(circuits[0], parallel="process", shots=10, seed=1)
        assert result.counts == repro.run(circuits[0], shots=10, seed=1).counts

    def test_max_parallel_one_still_matches(self, qaoa_batch):
        _, circuits = qaoa_batch
        sequential = repro.run(circuits[:3], seed=3, return_statevector=True)
        parallel = repro.run(
            circuits[:3],
            seed=3,
            return_statevector=True,
            parallel="process",
            max_parallel=1,
        )
        for left, right in zip(sequential, parallel):
            assert np.array_equal(left.statevector, right.statevector)

    def test_fanout_creates_no_shared_memory(
        self, qaoa_batch, _no_leaked_pools_or_segments
    ):
        _, circuits = qaoa_batch
        repro.run(circuits[:2], shots=10, seed=1, parallel="process", max_parallel=2)
        assert _no_leaked_pools_or_segments == []


    @pytest.mark.parametrize("parallel", [None, "process"])
    def test_unknown_session_option_is_a_type_error(self, qaoa_batch, parallel):
        # The compressed session takes config= only (a caller-built
        # communicator is gone): the signature rejects anything else, in
        # the parent, before a worker starts.
        _, circuits = qaoa_batch
        with pytest.raises(TypeError, match="comm"):
            repro.run(circuits[:2], parallel=parallel, comm=object())

    def test_invalid_parallel_value_rejected(self, qaoa_batch):
        _, circuits = qaoa_batch
        with pytest.raises(ValueError, match="parallel"):
            repro.run(circuits[:2], parallel="threads")

    def test_none_string_is_not_a_parallel_spelling(self, qaoa_batch):
        _, circuits = qaoa_batch
        with pytest.raises(ValueError, match="None or 'process'"):
            repro.run(circuits[0], parallel="none")

    @pytest.mark.parametrize("bad_cap", [0, -4])
    def test_non_positive_max_parallel_rejected(self, qaoa_batch, bad_cap):
        _, circuits = qaoa_batch
        with pytest.raises(ValueError, match="max_parallel"):
            repro.run(circuits[:2], parallel="process", max_parallel=bad_cap)

    def test_worker_exceptions_keep_their_type(self, qaoa_batch):
        # A failure inside _execute must surface as the same exception type
        # parallel or not: here block_amplitudes exceeds the per-rank
        # amplitudes, which only trips when the worker builds the simulator.
        _, circuits = qaoa_batch
        bad_config = SimulatorConfig(block_amplitudes=1 << 12)
        with pytest.raises(ValueError, match="block_amplitudes"):
            repro.run(circuits[:2], config=bad_config)
        with pytest.raises(ValueError, match="block_amplitudes"):
            repro.run(
                circuits[:2],
                config=bad_config,
                parallel="process",
                max_parallel=2,
            )

    def test_unregistered_backend_instance_rejected(self, qaoa_batch):
        _, circuits = qaoa_batch

        class Anonymous(Backend):
            name = "not-in-the-registry"

            def _open_session(self):  # pragma: no cover - never reached
                return None

            def _execute(self, circuit, **kwargs):  # pragma: no cover
                raise AssertionError

        with pytest.raises(BackendError, match="register"):
            repro.run(circuits[:2], backend=Anonymous(), parallel="process")

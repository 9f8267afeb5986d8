"""Process-parallel execution tier: pool, executor, fan-out and picklability.

Three contracts are pinned here:

* **Bit-identity** — the process executor (fork *and* spawn), the thread
  executor and the sequential path all produce byte-identical compressed
  states: tasks write disjoint blocks, the codecs are deterministic pure
  functions, and every tier runs the same kernels on the same bytes.
* **Robustness** — a worker dying mid-plan raises a clear error instead of
  hanging, and shutdown is idempotent (``close()`` twice, context manager).
* **Cheap picklability** — every codec ships to workers as constructor
  arguments only, and a pickled codec produces and decodes byte-identical
  blobs.
"""

from __future__ import annotations

import json
import os
import pickle
import signal

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
from repro.compression.huffman import HuffmanCodec
from repro.core import CompressedSimulator, SimulatorConfig, effective_cpu_count
from repro.errors import WorkerCrashedError
from repro.core.procpool import SlotArena, _pack_frames, _read_frame
from repro.resilience import FaultPolicy, faults
from repro.resilience.faults import FaultPlan, KillWorker

#: Pin for tests that assert exact failure propagation or exact cache
#: counters: an inert policy keeps them deterministic even when the suite
#: runs under a chaos fault plan (the CI chaos job).
NO_RECOVERY = FaultPolicy(max_retries=0)


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
        from repro.compression import get_compressor

        codec = get_compressor(compressor_name, bound=1e-3)
        clone = pickle.loads(pickle.dumps(codec))
        assert clone.compress(spiky_data) == codec.compress(spiky_data)
        assert clone.bound == codec.bound and clone.mode is codec.mode

    def test_pickle_payload_is_constructor_sized(self, make_codec):
        # The state must stay cheap: constructor arguments, not tables.
        payload = pickle.dumps(make_codec("sz"))
        assert len(payload) < 400

    def test_huffman_codec_pickles(self):
        codec = HuffmanCodec(window_bits=11)
        clone = pickle.loads(pickle.dumps(codec))
        symbols = np.array([3, 1, 4, 1, 5, 9, 2, 6] * 64, dtype=np.int64)
        blob = codec.encode(symbols)
        assert clone.encode(symbols) == blob
        assert np.array_equal(clone.decode(blob), symbols)

    def test_fpzip_pickles_with_derived_bound(self):
        from repro.compression import get_compressor

        codec = get_compressor("fpzip", precision=22)
        clone = pickle.loads(pickle.dumps(codec))
        assert clone.bound == codec.bound
        assert clone.precision == codec.precision


# ---------------------------------------------------------------------------
# Shared-memory slot transport
# ---------------------------------------------------------------------------


class TestSlotTransport:
    def test_slot_round_trip(self):
        arena = SlotArena(slots=2, slot_bytes=64)
        try:
            refs = arena.write(1, [b"alpha", b"beta-beta"])
            assert [arena.read(ref) for ref in refs] == [b"alpha", b"beta-beta"]
        finally:
            arena.close()

    def test_oversized_payload_falls_back_inline(self):
        arena = SlotArena(slots=2, slot_bytes=8)
        try:
            assert arena.write(0, [b"x" * 9]) is None
            refs = _pack_frames(arena, 0, [b"x" * 9, b"y"])
            assert all(ref[0] == "inline" for ref in refs)
            assert _read_frame(arena, refs[0]) == b"x" * 9
        finally:
            arena.close()

    def test_no_arena_means_inline(self):
        refs = _pack_frames(None, 0, [b"payload"])
        assert refs == [("inline", b"payload")]
        assert _read_frame(None, refs[0]) == b"payload"

    def test_effective_cpu_count_positive(self):
        assert effective_cpu_count() >= 1


# ---------------------------------------------------------------------------
# Process executor: bit-identity
# ---------------------------------------------------------------------------


class TestProcessExecutorBitIdentity:
    def test_matches_sequential_and_thread_tiers(self):
        circuit = qft_benchmark_circuit(8)
        sequential = _final_state(8, circuit)
        threaded = _final_state(8, circuit, num_workers=4)
        process = _final_state(8, circuit, num_workers=2, executor="process")
        assert np.array_equal(sequential, threaded)
        assert np.array_equal(sequential, process)

    def test_codec_bound_sz_path_is_bit_identical(self):
        circuit = qft_benchmark_circuit(8)
        kwargs = dict(lossy_compressor="sz", use_block_cache=False, start_lossless=False)
        sequential = _final_state(8, circuit, **kwargs)
        process = _final_state(8, circuit, num_workers=2, executor="process", **kwargs)
        assert np.array_equal(sequential, process)

    def test_budget_escalation_is_bit_identical(self):
        # A tight budget forces mid-run escalation, so workers must pick up
        # the new compressor instances gate by gate.  Seeded: one basis state
        # in 32 (multiples of 32) compresses well enough to never escalate.
        circuit = qft_benchmark_circuit(8, seed=8)
        kwargs = dict(memory_budget_bytes=3_000)
        with CompressedSimulator(
            8, SimulatorConfig(num_ranks=2, block_amplitudes=16, **kwargs)
        ) as sequential_sim:
            report = sequential_sim.apply_circuit(circuit)
            sequential = sequential_sim.statevector()
        assert report.escalations > 0  # the budget must actually bite
        process = _final_state(8, circuit, num_workers=2, executor="process", **kwargs)
        assert np.array_equal(sequential, process)

    def test_cache_heavy_grover_is_bit_identical(self):
        circuit = grover_circuit(6, marked=5, iterations=2)
        sequential = _final_state(6, circuit)
        process = _final_state(6, circuit, num_workers=2, executor="process")
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
        circuit = grover_circuit(6, marked=5, iterations=2)
        config = SimulatorConfig(
            num_ranks=2,
            block_amplitudes=16,
            num_workers=2,
            executor="process",
            fault_policy=NO_RECOVERY,
        )
        with CompressedSimulator(6, config) as simulator:
            report = simulator.apply_circuit(circuit)
            # One shard lookup per *dispatched* task: duplicates absorbed by
            # the parent-side wave dedupe never reach a worker, so lookups
            # are bounded by (and here strictly below) the task count.
            lookups = report.cache_hits + report.cache_misses
            assert 0 < lookups <= report.tasks_executed
            # Grover's recurring block patterns must produce shard hits.
            assert report.cache_hits > 0

    def test_disabled_shards_stop_counting_misses(self):
        # Once a shard's miss rule disables it, its lookups are free and
        # uncounted — the parent must not keep accumulating misses (the
        # sequential tier caps at the disable threshold too).
        circuit = qft_benchmark_circuit(8)
        threshold = 16
        config = SimulatorConfig(
            num_ranks=2,
            block_amplitudes=16,
            num_workers=2,
            executor="process",
            cache_miss_disable_threshold=threshold,
            fault_policy=NO_RECOVERY,
        )
        with CompressedSimulator(8, config) as simulator:
            report = simulator.apply_circuit(circuit)
            # This workload is cache-hostile (wave duplicates are absorbed
            # by the parent-side dedupe, so shards never see a repeat):
            # every shard must hit its miss cap, disable, and stop counting.
            assert report.cache_hits == 0
            assert report.cache_misses <= threshold * config.num_workers

    def test_single_worker_runs_sequentially_without_a_pool(self):
        # num_workers=1 keeps the documented sequential contract: no worker
        # processes are spawned and no task pays IPC.
        circuit = qft_benchmark_circuit(7)
        sequential = _final_state(7, circuit)
        config = SimulatorConfig(
            num_ranks=2, block_amplitudes=16, num_workers=1, executor="process"
        )
        with CompressedSimulator(7, config) as simulator:
            simulator.apply_circuit(circuit)
            assert simulator.executor.pool is None
            assert np.array_equal(sequential, simulator.statevector())

    def test_fork_helper_uses_thread_tier(self):
        config = SimulatorConfig(
            num_ranks=2, block_amplitudes=16, num_workers=2, executor="process"
        )
        with CompressedSimulator(6, config) as simulator:
            simulator.apply_circuit(qft_benchmark_circuit(6))
            clone = simulator.fork()
            try:
                assert clone.config.executor == "thread"
                assert clone.config.num_workers == 1
                assert np.array_equal(clone.statevector(), simulator.statevector())
            finally:
                clone.close()


# ---------------------------------------------------------------------------
# Process executor: lifecycle and failure paths
# ---------------------------------------------------------------------------


class TestProcessExecutorLifecycle:
    def test_close_is_idempotent(self):
        config = SimulatorConfig(
            num_ranks=2, block_amplitudes=16, num_workers=2, executor="process"
        )
        simulator = CompressedSimulator(6, config)
        simulator.apply_circuit(qft_benchmark_circuit(6))
        assert simulator.executor.pool is not None
        simulator.close()
        assert simulator.executor.pool is None
        simulator.close()  # second close must be a no-op

    def test_context_manager_closes_pool(self):
        config = SimulatorConfig(
            num_ranks=2, block_amplitudes=16, num_workers=2, executor="process"
        )
        with CompressedSimulator(6, config) as simulator:
            simulator.apply_circuit(qft_benchmark_circuit(6))
            executor = simulator.executor
        assert executor.pool is None

    def test_worker_death_raises_instead_of_hanging(self):
        config = SimulatorConfig(
            num_ranks=2,
            block_amplitudes=16,
            num_workers=2,
            executor="process",
            fault_policy=NO_RECOVERY,
        )
        with CompressedSimulator(6, config) as simulator:
            simulator.apply_circuit(qft_benchmark_circuit(6))
            pool = simulator.executor.pool
            os.kill(pool.worker_pid(0), signal.SIGKILL)
            with pytest.raises(WorkerCrashedError, match="died"):
                simulator.apply_circuit(qft_benchmark_circuit(6))

    def test_worker_exit_via_message_raises(self):
        # The "die" control message is the deterministic crash hook: the
        # worker hard-exits while the executor still expects a response.
        config = SimulatorConfig(
            num_ranks=2,
            block_amplitudes=16,
            num_workers=2,
            executor="process",
            fault_policy=NO_RECOVERY,
        )
        with CompressedSimulator(6, config) as simulator:
            simulator.apply_circuit(qft_benchmark_circuit(6))
            pool = simulator.executor.pool
            pool.submit(1, ("die",))
            with pytest.raises(WorkerCrashedError):
                pool.recv_any(timeout=30.0)

    def test_multi_step_task_rides_flat_and_survives_a_worker_death(self):
        # Qubits 0-3 sit inside a 16-amplitude block, so the circuit opens
        # with a four-step local run and keeps forming runs between its
        # block- and rank-level gates.
        circuit = (
            repro.QuantumCircuit(6).h(0).cx(0, 1).rx(0.3, 2).ccx(1, 2, 3).h(5).h(4)
        )
        circuit.cx(5, 0).cx(5, 1).t(2).cx(4, 2).ry(0.7, 3).cx(3, 0).h(1)
        kwargs = dict(num_workers=2, executor="process")
        sequential = _final_state(6, circuit)

        # The wire: one message per task, the run's steps as one stacked
        # array and two tuples of ints — no gate objects.
        config = SimulatorConfig(
            num_ranks=2, block_amplitudes=16, fault_policy=NO_RECOVERY, **kwargs
        )
        with CompressedSimulator(6, config) as simulator:
            pool = simulator.executor._ensure_proc_pool()
            sent, submit = [], pool.submit

            def recording(worker_id, message, payloads=()):
                sent.append((worker_id, message))
                return submit(worker_id, message, payloads)

            pool.submit = recording
            report = simulator.apply_circuit(circuit)
            assert np.array_equal(simulator.statevector(), sequential)
        assert report.gates_executed < len(circuit)
        to_worker0 = [m for worker_id, m in sent if worker_id == 0 and m[0] == "task"]
        multi = [i for i, m in enumerate(to_worker0) if len(m[2]) > 1]
        assert multi
        for index in multi:
            _kind, matrices, targets, controls, _codec, op_key, _names = to_worker0[index]
            assert matrices.shape == (len(targets), 2, 2)
            assert all(type(target) is int for target in targets)
            assert all(type(c) is int for step in controls for c in step)
            assert len(op_key) == len(targets) + 1
        assert b"repro.circuits" not in pickle.dumps(to_worker0[multi[0]])

        # A worker killed at one of those multi-step tasks: the run's other
        # tasks stay committed and only the lost one is replayed.
        plan = FaultPlan(
            injections=(KillWorker(worker=0, after=multi[-1] + 1, kinds=("task",)),)
        )
        config = SimulatorConfig(
            num_ranks=2,
            block_amplitudes=16,
            fault_policy=FaultPolicy(max_retries=2),
            **kwargs,
        )
        with faults.installed_plan(plan), CompressedSimulator(6, config) as simulator:
            recovered = simulator.apply_circuit(circuit)
            assert np.array_equal(simulator.statevector(), sequential)
        assert recovered.recovery["retries"] == 1
        assert recovered.recovery["restarts"] == 1
        assert recovered.tasks_executed == report.tasks_executed

    def test_batched_reset_matches_fresh_simulators(self):
        # The warm-pool reset path: two circuits through one backend session
        # with the process executor must equal fresh, isolated runs.
        circuits = [qft_benchmark_circuit(6), grover_circuit(6, marked=5, iterations=1)]
        config = SimulatorConfig(
            num_ranks=2, block_amplitudes=16, num_workers=2, executor="process"
        )
        results = repro.run(circuits, config=config, return_statevector=True)
        for circuit, result in zip(circuits, results):
            with CompressedSimulator(6, config) as fresh:
                fresh.apply_circuit(circuit)
                assert np.array_equal(result.statevector, fresh.statevector())

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

    def test_caller_supplied_comm_rejected(self, qaoa_batch):
        # Workers would mutate unpickled copies, silently zeroing the
        # caller's communicator statistics — must refuse instead.
        from repro.distributed import SimulatedCommunicator

        _, circuits = qaoa_batch
        with pytest.raises(BackendError, match="communicator"):
            repro.run(
                circuits[:2],
                parallel="process",
                comm=SimulatedCommunicator(1, bandwidth_bytes_per_s=1e9),
            )

    def test_invalid_parallel_value_rejected(self, qaoa_batch):
        _, circuits = qaoa_batch
        with pytest.raises(ValueError, match="parallel"):
            repro.run(circuits[:2], parallel="threads")

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

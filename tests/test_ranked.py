"""The multi-rank distributed execution tier (``SimulatorConfig.comm="process"``,
or ``executor="process"`` with one worker per rank).

The contract under test: a circuit run with the state split over rank worker
processes — with *real* compressed-blob exchange between ranks — is
bit-identical to the same circuit on the single-process simulator, and the
report carries real (not modelled) communication statistics.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

import repro
from repro.applications import qft_benchmark_circuit
from repro.backends import PauliObservable
from repro.circuits import QuantumCircuit, standard_gate
from repro.core import (
    CompressedSimulator,
    SimulatorConfig,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.blocks import CompressedBlock
from repro.distributed import plan_gate
from repro.errors import PoolProtocolError, WorkerCrashedError
from repro.resilience import FaultPolicy
from repro.statevector import simulate_statevector
from tiers import open_fd_count, tier_config

NUM_QUBITS = 8
BLOCK = 16


ranked_config = functools.partial(
    tier_config, "ranked-comm", num_ranks=4, block_amplitudes=BLOCK
)


def entangling_circuit() -> QuantumCircuit:
    """A QFT-style workload touching the local, block and rank segments."""

    return qft_benchmark_circuit(NUM_QUBITS, seed=3)


def final_blobs(simulator) -> list[tuple[bytes, str, float]]:
    """The compressed state flattened in global (rank-major) block order."""

    return [
        (entry.blob, entry.compressor, entry.bound)
        for _key, entry in simulator.state.iter_blocks()
    ]


def run_reference(circuit, **config_overrides):
    config = SimulatorConfig(
        num_ranks=1, block_amplitudes=BLOCK, **config_overrides
    )
    simulator = CompressedSimulator(NUM_QUBITS, config)
    simulator.apply_circuit(circuit)
    return simulator


class TestBitIdentity:
    def test_matches_single_rank_simulator(self):
        """Acceptance: num_ranks=4 ranked run == single-rank run, bit for bit."""

        circuit = entangling_circuit()
        reference = run_reference(circuit)
        with CompressedSimulator(NUM_QUBITS, ranked_config()) as simulator:
            report = simulator.apply_circuit(circuit)
            assert np.array_equal(
                simulator.statevector().view(np.uint64),
                reference.statevector().view(np.uint64),
            )
            # Same block size => same global block boundaries: the final
            # compressed state must match blob for blob, not just amplitude
            # for amplitude.
            assert final_blobs(simulator) == final_blobs(reference)
            counts = simulator.sample_counts(400, np.random.default_rng(11))
        assert counts == reference.sample_counts(400, np.random.default_rng(11))
        assert report.rank_comm is not None
        assert report.communication_bytes > 0

    def test_matches_simulated_communication_same_ranks(self):
        """Rank-for-rank parity with the accounting tier (norm included)."""

        circuit = entangling_circuit()
        simulated = CompressedSimulator(
            NUM_QUBITS, SimulatorConfig(num_ranks=4, block_amplitudes=BLOCK)
        )
        simulated.apply_circuit(circuit)
        with CompressedSimulator(NUM_QUBITS, ranked_config()) as simulator:
            simulator.apply_circuit(circuit)
            assert final_blobs(simulator) == final_blobs(simulated)
            # Same per-rank summation grouping => bit-identical norm.
            assert simulator.norm_squared() == simulated.norm_squared()

    def test_fusion_disabled_also_identical(self):
        circuit = entangling_circuit()
        reference = run_reference(circuit, fusion_enabled=False)
        with CompressedSimulator(
            NUM_QUBITS, ranked_config(fusion_enabled=False)
        ) as simulator:
            simulator.apply_circuit(circuit)
            assert final_blobs(simulator) == final_blobs(reference)

    def test_spawn_matches_fork(self):
        circuit = entangling_circuit()
        blobs = {}
        for method in ("fork", "spawn"):
            with CompressedSimulator(
                NUM_QUBITS,
                ranked_config(num_ranks=2, mp_start_method=method),
            ) as simulator:
                simulator.apply_circuit(circuit)
                blobs[method] = final_blobs(simulator)
        assert blobs["fork"] == blobs["spawn"]

    def test_escalation_parity_under_memory_budget(self):
        circuit = entangling_circuit()
        overrides = dict(memory_budget_bytes=4096, start_lossless=True)
        reference = CompressedSimulator(
            NUM_QUBITS,
            SimulatorConfig(num_ranks=4, block_amplitudes=BLOCK, **overrides),
        )
        ref_report = reference.apply_circuit(circuit)
        with CompressedSimulator(
            NUM_QUBITS, ranked_config(**overrides)
        ) as simulator:
            report = simulator.apply_circuit(circuit)
            assert ref_report.escalations > 0
            assert report.escalations == ref_report.escalations
            assert report.final_error_bound == ref_report.final_error_bound
            assert final_blobs(simulator) == final_blobs(reference)


class TestRealCommunication:
    def test_report_carries_real_rank_stats(self):
        circuit = entangling_circuit()
        with CompressedSimulator(NUM_QUBITS, ranked_config()) as simulator:
            report = simulator.apply_circuit(circuit)
            report = simulator.report()
        per_rank = report.rank_comm
        assert len(per_rank) == 4
        # Every rank really exchanged blocks: nonzero bytes at each endpoint.
        assert all(entry["bytes_sent"] > 0 for entry in per_rank)
        assert all(entry["exchanges"] > 0 for entry in per_rank)
        assert all(entry["exchange_seconds"] > 0 for entry in per_rank)
        # Aggregate view follows the simulated conventions: pairwise
        # exchanges counted once, bytes summed over endpoints.
        assert report.block_exchanges == sum(
            entry["exchanges"] for entry in per_rank
        ) // 2
        assert report.communication_bytes == sum(
            entry["bytes_sent"] for entry in per_rank
        )
        assert report.communication_seconds > 0
        assert report.as_dict()["rank_comm"] == per_rank

    def test_norm_runs_a_real_allreduce(self):
        with CompressedSimulator(NUM_QUBITS, ranked_config()) as simulator:
            before = simulator.report().as_dict()["rank_comm"]
            assert all(entry["allreduces"] == 0 for entry in before)
            assert simulator.norm_squared() == pytest.approx(1.0)
            after = simulator.report().rank_comm
            assert all(entry["allreduces"] == 1 for entry in after)

    def test_local_only_circuit_moves_no_bytes(self):
        # Every target below the block boundary: no rank-segment gates, so
        # the ranks never talk (beyond whatever the caller asks for).
        circuit = QuantumCircuit(NUM_QUBITS)
        for qubit in range(3):
            circuit.h(qubit)
        with CompressedSimulator(NUM_QUBITS, ranked_config()) as simulator:
            report = simulator.apply_circuit(circuit)
            assert report.communication_bytes == 0
            assert report.block_exchanges == 0


    def test_diagonal_rank_target_gates_do_not_exchange(self):
        # Qubits 6 and 7 select the rank.  A diagonal never mixes a pair, so
        # each rank phases its own blocks: nothing crosses a socket.
        circuit = QuantumCircuit(NUM_QUBITS).h(0).h(1).h(2)
        circuit.z(7).t(6).rz(0.3, 7).p(0.4, 6).cz(6, 7).cz(0, 7).cp(0.5, 7, 6)
        circuit.cp(0.2, 5, 7)
        with CompressedSimulator(NUM_QUBITS, ranked_config()) as simulator:
            report = simulator.apply_circuit(circuit)
            assert simulator.comm.stats.exchanges == 0
            assert simulator.comm.stats.bytes_sent == 0
            assert report.block_exchanges == 0
            assert all(entry["exchanges"] == 0 for entry in report.rank_comm)
            assert np.array_equal(
                simulator.statevector(), simulate_statevector(circuit)
            )

    def test_exchanges_are_the_plans_exchange_counts(self):
        # One exchange per block per rank-target element that mixes; the
        # diagonal rank-target elements between them add none.
        circuit = QuantumCircuit(NUM_QUBITS).h(0).h(7).t(7).cx(0, 6).rz(0.3, 6)
        circuit.cz(6, 7).h(1).cp(0.4, 1, 7).h(6).sx(7)
        with CompressedSimulator(NUM_QUBITS, ranked_config()) as simulator:
            plans = [
                plan_gate(simulator.partition, element)
                for element in simulator.prepare_gates(circuit)
            ]
            crossing = [plan for plan in plans if plan.exchange_count]
            assert 0 < len(crossing) < len(plans)
            for plan in crossing:
                assert plan.exchange_count == len(plan.tasks) == 8
            simulator.apply_circuit(circuit)
            assert simulator.comm.stats.exchanges == sum(
                plan.exchange_count for plan in plans
            )
            assert np.array_equal(
                simulator.statevector(), simulate_statevector(circuit)
            )


class TestLifecycle:
    def test_reset_reproduces_fresh_simulator(self):
        circuit = entangling_circuit()
        with CompressedSimulator(NUM_QUBITS, ranked_config()) as simulator:
            simulator.apply_circuit(circuit)
            first = final_blobs(simulator)

            def counters(report):
                return [
                    {
                        key: value
                        for key, value in entry.items()
                        if not key.endswith("_seconds")
                    }
                    for entry in report.rank_comm
                ]

            first_comm = counters(simulator.report())
            simulator.reset()
            # Counters restart with the state.
            assert simulator.report().communication_bytes == 0
            assert all(
                entry["bytes_sent"] == 0 for entry in simulator.report().rank_comm
            )
            simulator.apply_circuit(circuit)
            assert final_blobs(simulator) == first
            assert counters(simulator.report()) == first_comm

    def test_batched_run_equals_sequential_runs(self):
        circuits = [entangling_circuit(), entangling_circuit()]
        config = ranked_config()
        batch = repro.run(
            circuits, backend="compressed", shots=100, seed=5, config=config
        )
        singles = [
            repro.run(c, backend="compressed", shots=100, seed=5, config=config)
            for c in circuits
        ]
        # The warm batched session must match... itself run cold; note the
        # per-circuit seed ladder depends on batch position, so compare the
        # first circuit only.
        assert batch[0].counts == singles[0].counts
        assert batch[0].report["communication_bytes"] == singles[0].report[
            "communication_bytes"
        ]

    def test_observables_via_fork(self):
        circuit = entangling_circuit()
        observable = PauliObservable("XZIIIIII")
        ranked = repro.run(
            circuit,
            backend="compressed",
            observables=observable,
            config=ranked_config(),
        )
        reference = repro.run(
            circuit,
            backend="compressed",
            observables=observable,
            config=SimulatorConfig(num_ranks=4, block_amplitudes=BLOCK),
        )
        assert ranked.expectations == reference.expectations

    def test_fork_is_local_and_identical(self):
        circuit = entangling_circuit()
        with CompressedSimulator(NUM_QUBITS, ranked_config()) as simulator:
            simulator.apply_circuit(circuit)
            clone = simulator.fork()
            assert clone.config.tier == "sequential"
            assert np.array_equal(
                clone.statevector().view(np.uint64),
                simulator.statevector().view(np.uint64),
            )

    def test_checkpoint_roundtrip(self, tmp_path):
        circuit = entangling_circuit()
        path = tmp_path / "ranked.ckpt"
        with CompressedSimulator(NUM_QUBITS, ranked_config()) as simulator:
            simulator.apply_circuit(circuit)
            expected = final_blobs(simulator)
            save_checkpoint(simulator, path)
        # Restore into a local simulator...
        local = load_checkpoint(
            path, config=SimulatorConfig(num_ranks=4, block_amplitudes=BLOCK)
        )
        assert final_blobs(local) == expected
        # ...and back into a ranked one (blocks stream to their rank owners).
        with load_checkpoint(path, config=ranked_config()) as resumed:
            assert final_blobs(resumed) == expected

    def test_close_is_idempotent_and_blocks_further_queries(self):
        simulator = CompressedSimulator(NUM_QUBITS, ranked_config(num_ranks=2))
        simulator.close()
        simulator.close()
        with pytest.raises(RuntimeError, match="closed"):
            simulator.statevector()


class TestParentReadout:
    """``RankedExecutor.get`` / ``put``: one blob per request, riding the
    owning rank's control pipe."""

    #: Empty, minimal, one byte past the 64 KiB pipe buffer, and far past it.
    SIZES = (0, 1, (64 << 10) + 1, 4 << 20)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_blobs_round_trip_byte_identical(self, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        rng = np.random.default_rng(17)
        config = ranked_config(num_ranks=2, mp_start_method=start_method)
        with CompressedSimulator(NUM_QUBITS, config) as simulator:
            store = simulator.state.store
            assert store is simulator.executor  # no pass-through layer between
            for block, size in enumerate(self.SIZES):
                blob = rng.bytes(size)
                rank = block % 2
                store.put(rank, block, CompressedBlock(blob, "opaque", 0.25))
                entry = store.get(rank, block)
                assert (entry.blob, entry.compressor, entry.bound) == (
                    blob,
                    "opaque",
                    0.25,
                )
            # The parent's cached footprint followed every put.
            assert store.compressed_bytes() == sum(
                entry.nbytes for _key, entry in store
            )

    def test_rank_killed_between_gets_raises_promptly(self):
        config = ranked_config(num_ranks=2, fault_policy=FaultPolicy(max_retries=0))
        with CompressedSimulator(NUM_QUBITS, config) as simulator:
            store = simulator.executor
            store.get(1, 0)
            os.kill(store.pool.worker_pid(1), signal.SIGKILL)
            start = time.monotonic()
            with pytest.raises(WorkerCrashedError) as excinfo:
                store.get(1, 0)
            assert time.monotonic() - start < 10.0
            assert excinfo.value.worker_id == 1

    def test_no_segment_no_tracker_no_leaked_descriptor(
        self, _no_leaked_pools_or_segments
    ):
        # The ranked tier is processes, pipes and sockets: no shared-memory
        # segment, so no resource_tracker helper either, and every pipe and
        # socket end the parent opened is closed again by close().
        from multiprocessing import resource_tracker

        tracker_pid = resource_tracker._resource_tracker._pid
        open_before = open_fd_count()
        with CompressedSimulator(NUM_QUBITS, ranked_config()) as simulator:
            simulator.apply_circuit(entangling_circuit())
            simulator.statevector()
        assert _no_leaked_pools_or_segments == []
        assert resource_tracker._resource_tracker._pid == tracker_pid
        assert open_fd_count() == open_before


class TestFailureAndValidation:
    def test_rank_death_is_prompt(self):
        # Pin the fail-fast policy: this test asserts the *detection* path,
        # which an ambient fault plan (the CI chaos job) would otherwise
        # upgrade to recovery.
        circuit = entangling_circuit()
        config = ranked_config(fault_policy=FaultPolicy(max_retries=0))
        with CompressedSimulator(NUM_QUBITS, config) as simulator:
            simulator.apply_circuit(circuit)
            simulator.executor.pool.submit(2, ("die",))
            start = time.monotonic()
            with pytest.raises(WorkerCrashedError):
                simulator.apply_gate(standard_gate("h", NUM_QUBITS - 1))
            assert time.monotonic() - start < 10.0

    @pytest.mark.parametrize("budget", [None, 1_200])
    def test_multi_step_batch_survives_a_rank_death(self, budget):
        # Qubits 0-3 sit inside a 16-amplitude block: the circuit opens with
        # a four-step local run and forms more between its block- and
        # rank-level gates.  Under the budget the lossless runs go gate by
        # gate, so one element advances the gate index by several — the
        # resilience checkpoints must still fall between elements.
        from repro.resilience import faults
        from repro.resilience.faults import FaultPlan, KillWorker

        circuit = QuantumCircuit(6).h(0).cx(0, 1).rx(0.3, 2).ccx(1, 2, 3).h(5).h(4)
        circuit.cx(5, 0).cx(5, 1).t(2).cx(4, 2).ry(0.7, 3).cx(3, 0).h(1)
        options = dict(num_ranks=2, block_amplitudes=16, memory_budget_bytes=budget)
        with CompressedSimulator(6, SimulatorConfig(**options)) as reference:
            expected_report = reference.apply_circuit(circuit)
            expected = final_blobs(reference)
        assert (expected_report.escalations > 0) == (budget is not None)

        # The wire: the run's steps ride one gate batch per rank as one
        # stacked array and two tuples of ints.
        inert = FaultPolicy(max_retries=0)
        config = SimulatorConfig(comm="process", fault_policy=inert, **options)
        with CompressedSimulator(6, config) as simulator:
            pool = simulator.executor.pool
            sent, submit = [], pool.submit

            def recording(worker_id, message):
                sent.append((worker_id, message))
                return submit(worker_id, message)

            pool.submit = recording
            simulator.apply_circuit(circuit)
            assert final_blobs(simulator) == expected
        to_rank1 = [m for worker_id, m in sent if worker_id == 1 and m[0] == "gate"]
        multi = [i for i, m in enumerate(to_rank1) if len(m[1].targets) > 1]
        assert multi
        for index in multi:
            op = to_rank1[index][1]
            assert op.matrices.shape == (len(op.targets), 2, 2)
            assert len(op.local_controls) == len(op.targets) == len(op.op_key) - 1

        # Rank 1 dies on its last multi-step batch: rebuild, reload the last
        # in-run checkpoint, replay whole elements, finish bit-identically.
        plan = FaultPlan(
            injections=(KillWorker(worker=1, after=multi[-1] + 1, kinds=("gate",)),)
        )
        policy = FaultPolicy(max_retries=2, checkpoint_interval_waves=3)
        config = SimulatorConfig(comm="process", fault_policy=policy, **options)
        with faults.installed_plan(plan), CompressedSimulator(6, config) as simulator:
            report = simulator.apply_circuit(circuit)
            assert final_blobs(simulator) == expected
        assert report.recovery["retries"] == 1
        assert report.recovery["checkpoints_written"] > 0
        assert report.gates_executed == expected_report.gates_executed
        assert report.fidelity_lower_bound == expected_report.fidelity_lower_bound
        assert report.final_error_bound == expected_report.final_error_bound

    def test_worker_error_drains_outstanding_replies(self):
        # A handler error on one rank must not leave the other ranks'
        # queued replies undrained — a later request would mis-unpack a
        # stale reply (e.g. norm_squared returning a byte count).
        with CompressedSimulator(NUM_QUBITS, ranked_config()) as simulator:
            executor = simulator.executor
            pool = executor.pool or executor._require_pool()
            pool.submit(0, ("bogus-kind",))
            pool.submit(1, ("ping",))
            with pytest.raises(ValueError, match="bogus-kind"):
                executor._collect(pool, 2, "test dispatch")
            # The protocol stayed in sync: real collectives still work.
            with pytest.raises(PoolProtocolError, match="no outstanding"):
                pool.recv_any()
            assert simulator.norm_squared() == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "options, tier",
        [
            (dict(), "sequential"),
            (dict(num_ranks=4), "sequential"),
            (dict(executor="process"), "sequential"),
            (dict(num_ranks=2, executor="process", num_workers=1), "sequential"),
            (dict(comm="process"), "ranked"),
            (dict(num_ranks=4, comm="process"), "ranked"),
            (dict(num_ranks=4, comm="process", num_workers=4), "ranked"),
            (dict(num_ranks=2, comm="process", executor="process"), "ranked"),
            (dict(num_ranks=2, executor="process", num_workers=2), "ranked"),
            (dict(num_ranks=2, num_workers=2), "ranked"),
            (dict(num_ranks=2, executor="thread", num_workers=2), "ranked"),
            (
                dict(num_ranks=2, comm="process", executor="process", num_workers=2),
                "ranked",
            ),
            # The ranks are the workers: any other width is refused.
            (dict(num_workers=4), None),
            (dict(num_workers=0), None),
            (dict(num_ranks=2, num_workers=3), None),
            (dict(executor="process", num_workers=4), None),
            (dict(num_ranks=2, executor="process", num_workers=4), None),
            (dict(num_ranks=4, executor="process", num_workers=3), None),
            (dict(comm="process", num_workers=2), None),
            (dict(num_ranks=4, comm="process", num_workers=2), None),
        ],
    )
    def test_tier_validation_table(self, options, tier):
        if tier is None:
            with pytest.raises(ValueError, match=r"num_ranks.*docs/migration\.md"):
                SimulatorConfig(**options)
            return
        config = SimulatorConfig(**options)
        assert config.tier == tier
        with pytest.raises(AttributeError):
            config.tier = "sequential"

    def test_unknown_comm_rejected(self):
        with pytest.raises(ValueError, match="comm"):
            SimulatorConfig(comm="mpi")

    def test_single_rank_process_comm_works(self):
        # Degenerate but legal: one rank worker, no exchanges possible.
        circuit = entangling_circuit()
        reference = run_reference(circuit)
        with CompressedSimulator(
            NUM_QUBITS, ranked_config(num_ranks=1)
        ) as simulator:
            report = simulator.apply_circuit(circuit)
            assert final_blobs(simulator) == final_blobs(reference)
            assert report.communication_bytes == 0

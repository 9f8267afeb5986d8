"""Fault-tolerant execution (``repro.resilience``).

The contract under test: with a recovery-enabled :class:`FaultPolicy`, a
seeded fault plan that kills a rank worker mid-run — or a fan-out worker
mid-batch — still completes and is *bit-identical* (statevector, sampling,
observables) to a failure-free run.  The deterministic injection harness
itself (plan parsing, structured errors) is covered alongside.
"""

from __future__ import annotations

import importlib
import logging
import multiprocessing
import os
import pickle
import signal
import time
from multiprocessing import resource_tracker

import numpy as np
import pytest

import repro
from repro import errors
from repro.applications import qft_benchmark_circuit, random_supremacy_circuit
from repro.backends import PauliObservable
from repro.core import CompressedSimulator, SimulatorConfig, load_checkpoint
from repro.core.checkpoint import read_checkpoint
from repro.core.procpool import ProcessPool
from repro.errors import (
    CheckpointError,
    ProcessCommTimeout,
    ReproError,
    WorkerCrashedError,
)
from repro.resilience import FaultPolicy, resolve_fault_policy
from repro.resilience import faults
from repro.resilience.faults import (
    DelayComm,
    DropComm,
    FaultPlan,
    KillWorker,
    parse_plan,
)
from tiers import RANKED, open_fd_count, tier_config

NUM_QUBITS = 6
BLOCK = 16
SHOTS = 64


@pytest.fixture(autouse=True)
def _no_environment_plan(monkeypatch):
    """Every test here sets up exactly the faults it asserts on.

    An environment plan (the CI chaos job's) is removed; conftest resets
    the installed plan and the spent-injection registry around every test.
    """

    monkeypatch.delenv(faults.PLAN_ENV_VAR, raising=False)


#: Start methods a rank worker can come up under on this platform.
START_METHODS = [
    method
    for method in ("fork", "spawn")
    if method in multiprocessing.get_all_start_methods()
]


def ranked_config(policy=None, spelling="ranked-comm", **overrides) -> SimulatorConfig:
    return tier_config(
        spelling, block_amplitudes=BLOCK, fault_policy=policy, **overrides
    )


def run_to_outcome(config, circuit):
    """Run ``circuit``, returning (statevector, sample counts, recovery dict)."""

    open_before = open_fd_count()
    with CompressedSimulator(NUM_QUBITS, config) as simulator:
        simulator.apply_circuit(circuit)
        statevector = simulator.statevector()
        counts = simulator.sample_counts(SHOTS, np.random.default_rng(7))
        recovery = simulator.report().recovery
    # Pipes and sockets are descriptors: none may outlive the simulator,
    # pool rebuilds by the recovery path included.
    assert open_fd_count() == open_before
    return statevector, counts, recovery


@pytest.fixture(scope="module")
def circuit():
    return qft_benchmark_circuit(NUM_QUBITS)


@pytest.fixture(scope="module")
def baseline(circuit):
    """Failure-free reference outcome on the same partition geometry."""

    config = SimulatorConfig(num_ranks=2, block_amplitudes=BLOCK)
    with CompressedSimulator(NUM_QUBITS, config) as simulator:
        simulator.apply_circuit(circuit)
        return (
            simulator.statevector(),
            simulator.sample_counts(SHOTS, np.random.default_rng(7)),
        )


def assert_bit_identical(statevector, counts, baseline):
    base_sv, base_counts = baseline
    assert np.array_equal(
        statevector.view(np.uint64), base_sv.view(np.uint64)
    )
    assert counts == base_counts


class TestErrorTaxonomy:
    @pytest.mark.parametrize(
        "module, name",
        [
            ("repro.core.procpool", "WorkerCrashedError"),
            ("repro.core", "WorkerCrashedError"),
            ("repro.core.checkpoint", "CheckpointError"),
            ("repro.core", "CheckpointError"),
            ("repro.distributed.process_comm", "ProcessCommTimeout"),
            ("repro.distributed", "ProcessCommTimeout"),
        ],
    )
    def test_error_types_live_in_repro_errors_only(self, module, name):
        # The v1.1 old-location re-exports went in v1.3: ``from module
        # import name`` raises ImportError exactly when the attribute is gone.
        assert not hasattr(importlib.import_module(module), name)
        assert getattr(repro, name) is getattr(errors, name)

    def test_common_base_keeps_runtimeerror_in_the_mro(self):
        for cls in (
            WorkerCrashedError,
            ProcessCommTimeout,
            CheckpointError,
        ):
            assert issubclass(cls, ReproError)
            assert issubclass(cls, RuntimeError)
        assert errors.ReproError is ReproError

    def test_structured_context_lands_in_message_and_dict(self):
        error = WorkerCrashedError(
            "worker 1 died", worker_id=1, pid=4242, exitcode=-9
        )
        assert error.worker_id == 1
        assert error.pid == 4242
        assert error.context() == {"worker_id": 1, "pid": 4242, "exitcode": -9}
        assert "worker_id=1" in str(error)
        assert "pid=4242" in str(error)

    def test_unknown_context_key_is_rejected(self):
        with pytest.raises(TypeError, match="unknown context"):
            WorkerCrashedError("boom", banana=1)

    def test_context_survives_pickling(self):
        error = ProcessCommTimeout(
            "rank 0 timed out",
            rank=0,
            peer=1,
            op="sendrecv",
            elapsed_seconds=2.5,
            timeout_seconds=2.0,
        )
        clone = pickle.loads(pickle.dumps(error))
        assert clone.context() == error.context()
        assert str(clone) == str(error)


class TestFaultPolicy:
    def test_default_policy_is_inert(self):
        policy = FaultPolicy()
        assert policy.max_retries == 0 and policy.checkpoint_interval_waves == 0
        assert resolve_fault_policy(None) == policy

    def test_validation_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            FaultPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            FaultPolicy(checkpoint_interval_waves=-1)
        with pytest.raises(TypeError):  # removed in 1.4.0
            FaultPolicy(degrade_to=("thread",))

    @pytest.mark.parametrize("policy", [None, FaultPolicy(max_retries=1)])
    def test_removed_env_variable_names_the_migration_guide(
        self, monkeypatch, policy
    ):
        monkeypatch.setenv("REPRO_FAULT_POLICY", "max_retries=3")
        with pytest.raises(
            ValueError, match=r"REPRO_FAULT_POLICY was removed .*docs/migration\.md"
        ):
            resolve_fault_policy(policy)
        with pytest.raises(ValueError, match="REPRO_FAULT_POLICY"):
            CompressedSimulator(NUM_QUBITS, SimulatorConfig(fault_policy=policy))

    def test_active_plan_enables_recovery_by_default(self):
        with faults.installed_plan(FaultPlan(chaos_seed=1)):
            policy = resolve_fault_policy(None)
        assert policy == FaultPolicy(max_retries=2)

    def test_config_policy_wins_over_plan(self):
        # The two sources: SimulatorConfig.fault_policy, else the plan default.
        policy = FaultPolicy(max_retries=1, checkpoint_interval_waves=8)
        with faults.installed_plan(FaultPlan(chaos_seed=1)):
            configured = SimulatorConfig(fault_policy=policy).fault_policy
            assert resolve_fault_policy(configured) == policy
            unset = SimulatorConfig().fault_policy
            assert resolve_fault_policy(unset) == FaultPolicy(max_retries=2)


class TestPlanParsing:
    def test_spec_round_trip(self):
        plan = parse_plan(
            "kill:worker=1,after=5,kinds=task+circuit;"
            "drop:rank=0,peer=1,after=4;"
            "delay:rank=1,peer=0,seconds=0.2,after=1;"
            "chaos:prob=0.05,seed=11"
        )
        assert KillWorker(worker=1, after=5, kinds=("task", "circuit")) in (
            plan.injections
        )
        assert DropComm(rank=0, peer=1, after=4) in plan.injections
        assert DelayComm(rank=1, peer=0, seconds=0.2, after=1) in plan.injections
        assert plan.chaos_seed == 11
        assert plan.chaos_kill_probability == 0.05

    def test_unknown_directives_fail_loudly(self):
        with pytest.raises(ValueError):
            parse_plan("explode:worker=1")
        with pytest.raises(ValueError):  # removed in 1.5 with the slot rings
            parse_plan("corrupt:worker=0,after=2")
        with pytest.raises(ValueError):
            parse_plan("kill:worker=1,after=0")

    def test_targets_have_no_wildcard(self):
        # worker= and peer= name exactly one target; the -1 "any" is gone.
        for spec in ("kill:after=2", "drop:rank=0,after=1", "delay:rank=1"):
            with pytest.raises(ValueError, match="needs"):
                parse_plan(spec)
        with pytest.raises(ValueError):
            KillWorker(worker=-1, after=1)
        with pytest.raises(ValueError):
            DropComm(rank=0, peer=-1)
        with pytest.raises(ValueError):
            DelayComm(rank=0, peer=-1, seconds=0.1)

    def test_comm_injections_arm_once_in_the_parent(self):
        drop = DropComm(rank=0, peer=1, after=2)
        with faults.installed_plan(FaultPlan(injections=(drop,))):
            assert faults.arm_for_comm(1) is None
            state = faults.arm_for_comm(0)
            # Armed means spent: a rebuilt pool finds nothing left to arm.
            assert faults.arm_for_comm(0) is None
        assert [state.on_exchange(1), state.on_exchange(1)] == [None, drop]
        assert state.on_exchange(1) is None

    def test_env_plan_is_read_per_call(self, monkeypatch):
        assert faults.get_active_plan() is None
        monkeypatch.setenv(faults.PLAN_ENV_VAR, "kill:worker=0,after=3")
        plan = faults.get_active_plan()
        assert plan is not None
        assert KillWorker(worker=0, after=3) in plan.injections


class TestRankedRecovery:
    @pytest.mark.parametrize(
        "spelling", RANKED, ids=lambda spelling: spelling.removeprefix("ranked-")
    )
    def test_rank_kill_resumes_from_checkpoint_bit_identically(
        self, circuit, baseline, spelling
    ):
        plan = FaultPlan(
            injections=(KillWorker(worker=1, after=6, kinds=("gate",)),)
        )
        policy = FaultPolicy(max_retries=2, checkpoint_interval_waves=4)
        with faults.installed_plan(plan):
            statevector, counts, recovery = run_to_outcome(
                ranked_config(policy, spelling), circuit
            )
        assert_bit_identical(statevector, counts, baseline)
        assert set(recovery) == {
            "retries",
            "gates_replayed",
            "time_lost_seconds",
            "checkpoints_written",
            "restarts",
        }
        assert recovery["retries"] == 1
        assert recovery["restarts"] == 2  # the whole 2-rank pool is rebuilt
        assert recovery["checkpoints_written"] > 0

    def test_escalations_before_the_checkpoint_survive_recovery(self):
        # The budget forces every escalation early; rank 1 dies late, after
        # checkpoints that already carry them.  Recovery installs a fresh
        # adaptive controller, so the count must ride the checkpoint meta.
        circuit = qft_benchmark_circuit(NUM_QUBITS, seed=8)
        options = dict(memory_budget_bytes=1_400)
        reference_config = SimulatorConfig(
            num_ranks=2, block_amplitudes=BLOCK, **options
        )
        with CompressedSimulator(NUM_QUBITS, reference_config) as reference:
            expected = reference.apply_circuit(circuit)
            expected_state = reference.statevector()
        assert expected.escalations > 0

        plan = FaultPlan(
            injections=(KillWorker(worker=1, after=30, kinds=("gate",)),)
        )
        policy = FaultPolicy(max_retries=2, checkpoint_interval_waves=4)
        with faults.installed_plan(plan), CompressedSimulator(
            NUM_QUBITS, ranked_config(policy, **options)
        ) as simulator:
            report = simulator.apply_circuit(circuit)
            assert np.array_equal(simulator.statevector(), expected_state)
        assert report.recovery["retries"] == 1
        assert report.recovery["checkpoints_written"] > 0
        # Each escalation takes its own gate, so replaying fewer gates than
        # there were escalations means the resumed checkpoint held some.
        assert report.recovery["gates_replayed"] < expected.escalations
        assert report.escalations == expected.escalations
        assert report.final_error_bound == expected.final_error_bound

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_comm_drop_is_recovered_once(self, circuit, baseline, start_method):
        # The parent arms the installed plan and ships it to rank 0, so a
        # spawned worker sees it as a forked one does; arming spends it, so
        # the rebuilt pool runs clean (one retry, no second timeout).
        plan = FaultPlan(injections=(DropComm(rank=0, peer=1, after=4),))
        policy = FaultPolicy(max_retries=2, checkpoint_interval_waves=2)
        # A process's first spawn starts multiprocessing's resource tracker,
        # whose pipe stays open for the process's life; start it before the
        # descriptor count so the count sees only the simulator's own.
        resource_tracker.ensure_running()
        with faults.installed_plan(plan):
            statevector, counts, recovery = run_to_outcome(
                ranked_config(policy, mp_start_method=start_method), circuit
            )
        assert_bit_identical(statevector, counts, baseline)
        assert recovery["retries"] == 1
        assert recovery["restarts"] == 2

    def test_comm_delay_is_absorbed_without_retry(
        self, circuit, baseline, monkeypatch
    ):
        monkeypatch.setenv(
            faults.PLAN_ENV_VAR, "delay:rank=1,peer=0,seconds=0.2,after=2"
        )
        policy = FaultPolicy(max_retries=1, checkpoint_interval_waves=2)
        statevector, counts, recovery = run_to_outcome(
            ranked_config(policy), circuit
        )
        assert_bit_identical(statevector, counts, baseline)
        assert recovery is None or recovery["retries"] == 0

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_comm_drop_fail_fast_carries_timeout_context(
        self, circuit, start_method
    ):
        plan = FaultPlan(injections=(DropComm(rank=0, peer=1, after=4),))
        config = ranked_config(FaultPolicy(max_retries=0), mp_start_method=start_method)
        with faults.installed_plan(plan), CompressedSimulator(
            NUM_QUBITS, config
        ) as simulator:
            with pytest.raises(ProcessCommTimeout) as excinfo:
                simulator.apply_circuit(circuit)
        assert excinfo.value.rank == 0
        assert excinfo.value.peer == 1
        assert excinfo.value.op == "sendrecv"

    def test_fail_fast_policy_raises_with_context(self, circuit):
        plan = FaultPlan(
            injections=(KillWorker(worker=0, after=5, kinds=("gate",)),)
        )
        with faults.installed_plan(plan):
            with CompressedSimulator(
                NUM_QUBITS, ranked_config(FaultPolicy(max_retries=0))
            ) as simulator:
                with pytest.raises(WorkerCrashedError) as excinfo:
                    simulator.apply_circuit(circuit)
        assert excinfo.value.worker_id == 0
        assert excinfo.value.pid is not None

    def test_observables_identical_under_rank_kill(self, circuit):
        observable = PauliObservable("XZ" + "I" * (NUM_QUBITS - 2))
        reference = repro.run(
            circuit,
            backend="compressed",
            observables=observable,
            config=SimulatorConfig(num_ranks=2, block_amplitudes=BLOCK),
        )
        plan = FaultPlan(
            injections=(KillWorker(worker=1, after=6, kinds=("gate",)),)
        )
        with faults.installed_plan(plan):
            recovered = repro.run(
                circuit,
                backend="compressed",
                observables=observable,
                config=ranked_config(
                    FaultPolicy(max_retries=2, checkpoint_interval_waves=4)
                ),
            )
        assert recovered.expectations == reference.expectations

    @pytest.mark.parametrize(
        "injection, error",
        [
            (KillWorker(worker=1, after=6, kinds=("gate",)), WorkerCrashedError),
            (DropComm(rank=0, peer=1, after=4), ProcessCommTimeout),
        ],
        ids=["kill", "drop"],
    )
    def test_recovery_points_are_logged(
        self, circuit, baseline, tmp_path, caplog, injection, error
    ):
        policy = FaultPolicy(
            max_retries=2, checkpoint_interval_waves=2, checkpoint_dir=str(tmp_path)
        )
        with faults.installed_plan(FaultPlan(injections=(injection,))):
            with caplog.at_level(logging.INFO, logger="repro.core.simulator"):
                statevector, counts, recovery = run_to_outcome(
                    ranked_config(policy), circuit
                )
        assert_bit_identical(statevector, counts, baseline)
        records = [r for r in caplog.records if r.name == "repro.core.simulator"]
        retries = [r for r in records if r.levelno == logging.WARNING]
        assert len(retries) == recovery["retries"] == 1
        message = retries[0].getMessage()
        assert message.startswith("ranked retry 1 at gate ")
        assert message.endswith(
            f"after {error.__name__}: {recovery['gates_replayed']} gates replayed"
        )
        checkpoints = [r for r in records if r.levelno == logging.INFO]
        assert len(checkpoints) == recovery["checkpoints_written"]
        path = tmp_path / "resilience.ckpt"
        assert checkpoints[-1].getMessage().endswith(
            f"{path.stat().st_size} bytes to {path}"
        )
        assert all(
            r.getMessage().startswith("in-run checkpoint at gate ") for r in checkpoints
        )

    def test_corrupt_checkpoint_fails_recovery_with_a_typed_error(self, tmp_path):
        # The replay log holds only the gates since the last checkpoint, so
        # a checkpoint that no longer reads back leaves nothing to rebuild
        # the state from: recovery must raise, not replay those gates onto
        # the initial state and report success.
        circuit = random_supremacy_circuit(2, 4, depth=10, seed=5)
        policy = FaultPolicy(
            max_retries=1, checkpoint_interval_waves=3, checkpoint_dir=str(tmp_path)
        )
        with CompressedSimulator(8, ranked_config(policy)) as simulator:
            schedule = simulator.prepare_gates(circuit)
            half = len(schedule) // 2
            for element in schedule[:half]:
                simulator.apply_gate(element)
            assert simulator.report().recovery["checkpoints_written"] > 0
            checkpoint = tmp_path / "resilience.ckpt"
            checkpoint.write_bytes(checkpoint.read_bytes()[:40])
            os.kill(simulator.executor.pool.worker_pid(0), signal.SIGKILL)
            with pytest.raises(CheckpointError):
                for element in schedule[half:]:
                    simulator.apply_gate(element)

    def test_midrun_checkpoint_resumes_bit_identically(self, tmp_path):
        # The in-run resilience checkpoint is a plain QCKPT001 file: loading
        # it and replaying the remaining gates must land on the same state
        # as the uninterrupted run.  Fusion is disabled so the checkpoint's
        # gate_count indexes the circuit's gate list directly.
        circuit = qft_benchmark_circuit(NUM_QUBITS)
        interval = 4
        policy = FaultPolicy(
            checkpoint_interval_waves=interval, checkpoint_dir=str(tmp_path)
        )
        config = ranked_config(policy, fusion_enabled=False)
        with CompressedSimulator(NUM_QUBITS, config) as simulator:
            simulator.apply_circuit(circuit)
            expected = simulator.statevector()
        ckpt = tmp_path / "resilience.ckpt"
        assert ckpt.exists()
        meta, blocks = read_checkpoint(ckpt)
        assert meta["gate_count"] > 0
        assert meta["gate_count"] % interval == 0
        assert blocks
        resumed = load_checkpoint(
            ckpt,
            config=SimulatorConfig(
                num_ranks=2, block_amplitudes=BLOCK, fusion_enabled=False
            ),
        )
        with resumed:
            for gate in circuit.gates[meta["gate_count"] :]:
                resumed.apply_gate(gate)
            assert np.array_equal(
                resumed.statevector().view(np.uint64),
                expected.view(np.uint64),
            )


class TestBatchFanOut:
    def test_parallel_batch_survives_circuit_worker_kill(self):
        circuits = [
            qft_benchmark_circuit(NUM_QUBITS, seed=s) for s in range(4)
        ]
        reference = repro.run(circuits, shots=SHOTS, seed=11)
        plan = FaultPlan(
            injections=(KillWorker(worker=0, after=2, kinds=("circuit",)),)
        )
        with faults.installed_plan(plan):
            # No explicit policy: the active plan auto-enables recovery.
            recovered = repro.run(
                circuits,
                shots=SHOTS,
                seed=11,
                parallel="process",
                max_parallel=2,
            )
        assert [r.counts for r in recovered] == [r.counts for r in reference]


    def test_fan_out_retry_is_logged(self, caplog):
        circuits = [qft_benchmark_circuit(NUM_QUBITS, seed=s) for s in range(4)]
        plan = FaultPlan(
            injections=(KillWorker(worker=0, after=2, kinds=("circuit",)),)
        )
        with faults.installed_plan(plan), caplog.at_level(
            logging.WARNING, logger="repro.backends.parallel"
        ):
            repro.run(
                circuits, shots=SHOTS, seed=11, parallel="process", max_parallel=2
            )
        records = [r for r in caplog.records if r.name == "repro.backends.parallel"]
        assert [r.levelno for r in records] == [logging.WARNING]
        attempt, workers, circuits_requeued = records[0].args
        assert (attempt, workers) == (1, [0])
        # Worker 0 holds the even circuits; the kill lands after it took
        # some, so what it had not answered goes back on its queue.
        assert circuits_requeued and all(i % 2 == 0 for i in circuits_requeued)
        assert records[0].getMessage() == (
            f"circuit fan-out retry 1: respawned workers [0], "
            f"re-queued circuits {circuits_requeued}"
        )


class _PingWorker:
    """Minimal pool worker state: answers every message with a pong."""

    def handle(self, message: tuple) -> tuple:
        return ("pong",)


class TestBoundedTeardown:
    def test_close_reaps_a_killed_worker_promptly(self):
        pool = ProcessPool(2, _PingWorker)
        pids = [pool.worker_pid(i) for i in range(2)]
        os.kill(pids[0], signal.SIGKILL)
        start = time.monotonic()
        pool.close()
        assert time.monotonic() - start < 10.0
        for pid in pids:
            # Every worker is reaped — no zombies, no orphans.
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_heal_respawns_only_the_dead_worker(self):
        with ProcessPool(2, _PingWorker) as pool:
            survivor_pid = pool.worker_pid(1)
            os.kill(pool.worker_pid(0), signal.SIGKILL)
            with pytest.raises(WorkerCrashedError):
                pool.submit(0, ("ping",))
                pool.recv_any(timeout=30.0)
            restarted = pool.heal()
            assert restarted == [0]
            assert pool.worker_pid(1) == survivor_pid
            assert pool.worker_pid(0) != survivor_pid
            # The replacement sits in the same seat and answers.
            assert pool.broadcast(("ping",)) == [("pong",), ("pong",)]

    def test_heal_logs_each_respawned_worker(self, caplog):
        with ProcessPool(3, _PingWorker) as pool:
            dead = {worker: pool.worker_pid(worker) for worker in (0, 2)}
            for pid in dead.values():
                os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while set(dead.values()) & {
                child.pid for child in multiprocessing.active_children()
            }:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            with caplog.at_level(logging.WARNING, logger="repro.core.procpool"):
                assert pool.heal() == [0, 2]
                assert pool.heal() == []
        assert [(record.levelno, record.getMessage()) for record in caplog.records] == [
            (
                logging.WARNING,
                f"respawned pool worker {worker}: pid {pid} died with exit code "
                f"{-signal.SIGKILL}",
            )
            for worker, pid in dead.items()
        ]


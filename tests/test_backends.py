"""The unified backend API: registry, run(), results, batching, shims.

Covers the ISSUE's required error paths (unknown backend name, double
registration), the Result/ResultSet JSON round trip, batched-run state
isolation between circuits, and the deprecation shims on the old per-class
``run`` aliases.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import (
    Backend,
    BackendError,
    CompressedSimulator,
    PauliObservable,
    QuantumCircuit,
    Result,
    ResultSet,
    SimulatorConfig,
    available_backends,
    get_backend,
    register_backend,
    state_fidelity,
)
from repro.backends import base as backend_base
from repro.circuits import ghz_circuit, qft_circuit


def small_circuits() -> list[QuantumCircuit]:
    """Three distinct same-width circuits (the batching acceptance shape)."""

    ghz = ghz_circuit(6)
    ghz.name = "ghz6"
    qft = qft_circuit(6)
    qft.name = "qft6"
    mixed = QuantumCircuit(6, name="mixed6").h(0).cx(0, 3).t(3).ry(0.4, 5).ccx(0, 3, 1)
    return [ghz, qft, mixed]


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert "compressed" in available_backends()
        assert "dense" in available_backends()

    def test_get_backend_instances(self):
        assert get_backend("compressed").name == "compressed"
        assert get_backend("dense").name == "dense"

    def test_unknown_name_raises_with_available_list(self):
        with pytest.raises(BackendError, match="compressed"):
            get_backend("does-not-exist")

    def test_double_registration_rejected(self):
        @register_backend("test-dummy-backend")
        class DummyBackend(backend_base.Backend):
            name = "test-dummy-backend"

            def _open_session(self, **options):
                return None

            def _execute(self, circuit, **kwargs):  # pragma: no cover
                raise NotImplementedError

        try:
            assert "test-dummy-backend" in available_backends()
            with pytest.raises(BackendError, match="already registered"):
                register_backend("test-dummy-backend")(DummyBackend)
        finally:
            backend_base._REGISTRY.pop("test-dummy-backend", None)

    def test_invalid_name_rejected(self):
        with pytest.raises(BackendError):
            register_backend("")

    def test_run_rejects_non_backend(self):
        with pytest.raises(TypeError, match="backend"):
            repro.run(ghz_circuit(3), backend=42)


class TestRunSingle:
    @pytest.mark.parametrize("backend", ["compressed", "dense"])
    def test_counts_and_metadata(self, backend):
        result = repro.run(ghz_circuit(5), backend=backend, shots=200, seed=9)
        assert isinstance(result, Result)
        assert result.backend == backend
        assert result.num_qubits == 5
        assert sum(result.counts.values()) == 200
        # GHZ: only the all-zeros and all-ones states appear.
        assert set(result.counts) <= {0, 31}
        assert result.metadata["seed"] == 9
        assert result.metadata["wall_seconds"] >= 0.0

    def test_compressed_report_attached(self):
        result = repro.run(ghz_circuit(5), shots=0)
        assert result.report["fusion_gates_in"] == 5
        assert result.report["gates_executed"] == result.report["fusion_gates_out"]
        assert result.counts is None
        assert result.statevector is None
        assert result.metadata["compression_ratio"] > 0

    def test_dense_has_no_report(self):
        result = repro.run(ghz_circuit(5), backend="dense")
        assert result.report is None
        assert result.metadata["memory_bytes"] == (1 << 5) * 16

    def test_statevectors_agree_across_backends(self):
        circuit = qft_circuit(6)
        dense = repro.run(circuit, backend="dense", return_statevector=True)
        compressed = repro.run(circuit, backend="compressed", return_statevector=True)
        assert state_fidelity(
            dense.statevector, compressed.statevector
        ) == pytest.approx(1.0, abs=1e-10)

    def test_same_seed_same_counts_per_backend(self):
        circuit = qft_circuit(5)
        for backend in ("compressed", "dense"):
            first = repro.run(circuit, backend=backend, shots=300, seed=21)
            second = repro.run(circuit, backend=backend, shots=300, seed=21)
            assert first.counts == second.counts

    def test_backend_instance_accepted(self):
        result = repro.run(ghz_circuit(4), backend=get_backend("dense"), shots=10)
        assert result.backend == "dense"
        assert sum(result.counts.values()) == 10

    def test_config_option_reaches_compressed_engine(self):
        result = repro.run(
            ghz_circuit(6), config=SimulatorConfig(num_ranks=4)
        )
        assert result.report["num_ranks"] == 4
        assert result.metadata["num_ranks"] == 4

    def test_dense_rejects_unknown_options(self):
        with pytest.raises(TypeError):
            repro.run(ghz_circuit(4), backend="dense", config=SimulatorConfig())


class TestRunValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one circuit"):
            repro.run([])

    def test_non_circuit_rejected(self):
        with pytest.raises(TypeError, match="QuantumCircuit"):
            repro.run(["not a circuit"])

    def test_negative_shots_rejected(self):
        with pytest.raises(ValueError, match="shots"):
            repro.run(ghz_circuit(3), shots=-1)

    def test_observable_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="acts on 2 qubits"):
            repro.run(ghz_circuit(3), observables=PauliObservable("ZZ"))

    def test_non_observable_rejected(self):
        with pytest.raises(TypeError, match="PauliObservable"):
            repro.run(ghz_circuit(3), observables=["ZZ"])

    def test_duplicate_observable_labels_rejected(self):
        observable = PauliObservable("ZZZ")
        with pytest.raises(ValueError, match="unique labels"):
            repro.run(ghz_circuit(3), observables=[observable, observable])


class TestBatchedRuns:
    @pytest.mark.parametrize("backend", ["compressed", "dense"])
    def test_batch_of_three_through_registry(self, backend):
        """ISSUE acceptance: a >=3-circuit batch on both backends by name."""

        circuits = small_circuits()
        results = repro.run(circuits, backend=backend, shots=50, seed=3)
        assert isinstance(results, ResultSet)
        assert len(results) == 3
        assert [result.circuit_name for result in results] == [
            "ghz6",
            "qft6",
            "mixed6",
        ]
        for result in results:
            assert result.backend == backend
            assert sum(result.counts.values()) == 50

    def test_batch_state_isolation(self):
        """Each batched circuit's state is bit-identical to a fresh run.

        The warm simulator is reset between circuits, so no amplitude,
        cache line, controller level or report counter leaks across; the
        final states must match a from-scratch simulator exactly, not just
        approximately.
        """

        circuits = small_circuits()
        results = repro.run(circuits, backend="compressed", return_statevector=True)
        for circuit, result in zip(circuits, results):
            fresh = CompressedSimulator(circuit.num_qubits, SimulatorConfig())
            fresh.apply_circuit(circuit)
            assert np.array_equal(result.statevector, fresh.statevector())
            assert result.report["gates_executed"] == fresh.report().gates_executed

    def test_batch_report_counters_are_per_circuit(self):
        circuits = [ghz_circuit(6), ghz_circuit(6), ghz_circuit(6)]
        results = repro.run(circuits, backend="compressed")
        executed = [result.report["gates_executed"] for result in results]
        assert executed[0] == executed[1] == executed[2] <= 6
        tasks = [result.report["tasks_executed"] for result in results]
        assert tasks[0] == tasks[1] == tasks[2]

    def test_batch_mixed_widths(self):
        circuits = [ghz_circuit(5), ghz_circuit(7), ghz_circuit(5)]
        results = repro.run(circuits, backend="compressed", shots=20, seed=1)
        assert [result.num_qubits for result in results] == [5, 7, 5]
        for result in results:
            assert set(result.counts) <= {0, (1 << result.num_qubits) - 1}

    def test_per_circuit_seeding_is_order_independent_of_rng_use(self):
        """Sampling of circuit i must not shift circuit i+1's samples."""

        circuits = small_circuits()
        batch = repro.run(circuits, backend="compressed", shots=100, seed=77)
        # Re-run with observables added (extra rng-free work per circuit):
        # the counts must be unchanged because each circuit has its own
        # generator spawned from the master seed.
        observable = PauliObservable.single("Z", 0, 6)
        with_obs = repro.run(
            circuits, backend="compressed", shots=100, seed=77, observables=observable
        )
        for plain, extra in zip(batch, with_obs):
            assert plain.counts == extra.counts


class TestResultSerialisation:
    def make_result(self) -> Result:
        return repro.run(
            ghz_circuit(5),
            shots=40,
            seed=2,
            observables=PauliObservable.single("Z", 0, 5).with_label("Z0"),
            return_statevector=True,
        )

    def test_result_json_round_trip(self):
        result = self.make_result()
        restored = Result.from_json(result.to_json())
        assert restored.backend == result.backend
        assert restored.circuit_name == result.circuit_name
        assert restored.num_qubits == result.num_qubits
        assert restored.shots == result.shots
        assert restored.counts == result.counts
        assert restored.expectations == result.expectations
        assert restored.report == result.report
        assert restored.metadata == result.metadata
        assert np.array_equal(restored.statevector, result.statevector)

    def test_counts_keys_are_ints_after_round_trip(self):
        restored = Result.from_json(self.make_result().to_json())
        assert all(isinstance(key, int) for key in restored.counts)

    def test_none_fields_round_trip(self):
        result = repro.run(ghz_circuit(4), backend="dense")
        restored = Result.from_json(result.to_json())
        assert restored.counts is None
        assert restored.expectations is None
        assert restored.statevector is None
        assert restored.report is None

    def test_resultset_json_round_trip(self):
        results = repro.run(
            [ghz_circuit(5), qft_circuit(5)], shots=10, seed=4
        )
        restored = ResultSet.from_json(results.to_json())
        assert len(restored) == len(results)
        for original, copy in zip(results, restored):
            assert copy.counts == original.counts
            assert copy.circuit_name == original.circuit_name

    def test_resultset_sequence_protocol(self):
        results = repro.run([ghz_circuit(4), ghz_circuit(4), ghz_circuit(4)])
        assert len(results[1:]) == 2
        assert isinstance(results[1:], ResultSet)
        assert results[0].circuit_name == "ghz_4"
        assert [r.backend for r in results] == ["compressed"] * 3

    def test_expectation_accessors(self):
        observable = PauliObservable.single("Z", 0, 4).with_label("Z0")
        results = repro.run(
            [ghz_circuit(4), ghz_circuit(4)], observables=observable
        )
        assert results.expectations("Z0") == [
            results[0].expectation("Z0"),
            results[1].expectation("Z0"),
        ]
        with pytest.raises(KeyError):
            results[0].expectation("missing")


class TestFidelityTrackingConfig:
    """The Fig 6 bound is tracked on every run, one factor per element."""

    def test_tracking_on_records_per_gate(self, simulator_config):
        config = simulator_config(start_lossless=False, error_levels=(1e-2,))
        simulator = CompressedSimulator(6, config)
        report = simulator.apply_circuit(ghz_circuit(6))
        # One factor per executed schedule element (the GHZ chain's in-block
        # gates share round trips, so fewer than its six gates).
        assert simulator.fidelity_tracker.num_gates == report.gates_executed <= 6
        assert report.fidelity_lower_bound == pytest.approx(
            (1 - 1e-2) ** report.gates_executed
        )


class TestSimulatorReset:
    def test_reset_matches_fresh_simulator(self, simulator_config):
        config = simulator_config(num_ranks=2, block_amplitudes=8)
        warm = CompressedSimulator(6, config)
        warm.apply_circuit(qft_circuit(6))
        warm.reset()
        warm.apply_circuit(ghz_circuit(6))
        fresh = CompressedSimulator(6, config)
        fresh.apply_circuit(ghz_circuit(6))
        assert np.array_equal(warm.statevector(), fresh.statevector())
        warm_dict = warm.report().as_dict()
        fresh_dict = fresh.report().as_dict()
        for counter in (
            "gates_executed",
            "tasks_executed",
            "compress_calls",
            "decompress_calls",
            "cache_hits",
            "cache_misses",
            "communication_bytes",
            "block_exchanges",
            "fidelity_lower_bound",
            "final_error_bound",
        ):
            assert warm_dict[counter] == fresh_dict[counter]

    def test_reset_counters_and_cache(self, simulator_config):
        simulator = CompressedSimulator(6, simulator_config())
        simulator.apply_circuit(qft_circuit(6))
        assert simulator.gate_count > 0
        simulator.reset()
        assert simulator.gate_count == 0
        report = simulator.report()
        assert report.gates_executed == 0
        assert report.cache_hits == 0 and report.cache_misses == 0
        assert report.communication_bytes == 0
        assert simulator.controller.current_bound == 0.0

    def test_reset_to_basis_state(self, simulator_config):
        simulator = CompressedSimulator(4, simulator_config(block_amplitudes=4))
        simulator.apply_circuit(ghz_circuit(4))
        simulator.reset(initial_basis_state=5)
        assert simulator.probability_of(5) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            simulator.reset(initial_basis_state=1 << 4)

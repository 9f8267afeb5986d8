"""Integration tests: the compressed simulator against the dense reference.

These are the tests that validate the paper's central claim end to end: the
blocked, compressed, (optionally) lossy simulation reproduces the full-state
simulation — exactly under lossless compression, and within the fidelity
bound under lossy compression.

Configuration boilerplate lives in the ``simulator_config`` factory fixture
(``tests/conftest.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.applications import grover_circuit
from repro.circuits import QuantumCircuit, ghz_circuit, qft_circuit, uniform_superposition
from repro.core import CompressedSimulator
from repro.distributed import SimulatedCommunicator
from repro.statevector import simulate_statevector, state_fidelity
from tiers import TIERS, tier_config

PARTITION_SHAPES = [
    # (num_qubits, num_ranks, block_amplitudes) exercising all three segments
    (6, 1, 64),    # single block: everything local
    (6, 1, 16),    # multiple blocks, single rank
    (6, 4, 8),     # multi-rank, multi-block
    (7, 2, 16),
    (8, 8, 4),     # tiny blocks, many ranks
]


class TestLosslessAgreementWithDense:
    @pytest.mark.parametrize("shape", PARTITION_SHAPES)
    def test_qft_matches_dense(self, shape, simulator_config):
        num_qubits, ranks, block = shape
        circuit = qft_circuit(num_qubits)
        simulator = CompressedSimulator(
            num_qubits, simulator_config(num_ranks=ranks, block_amplitudes=block)
        )
        simulator.apply_circuit(circuit)
        dense = simulate_statevector(circuit)
        assert state_fidelity(simulator.statevector(), dense) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("shape", PARTITION_SHAPES)
    def test_random_gate_sequence_matches_dense(self, shape, rng, simulator_config):
        num_qubits, ranks, block = shape
        circuit = QuantumCircuit(num_qubits)
        gate_pool = ["h", "x", "t", "sx", "s"]
        for _ in range(60):
            kind = rng.integers(3)
            if kind == 0:
                circuit.add(gate_pool[int(rng.integers(len(gate_pool)))], int(rng.integers(num_qubits)))
            elif kind == 1:
                a, b = rng.choice(num_qubits, size=2, replace=False)
                circuit.cx(int(a), int(b))
            else:
                a, b, c = rng.choice(num_qubits, size=3, replace=False)
                circuit.ccx(int(a), int(b), int(c))
        simulator = CompressedSimulator(
            num_qubits, simulator_config(num_ranks=ranks, block_amplitudes=block)
        )
        simulator.apply_circuit(circuit)
        dense = simulate_statevector(circuit)
        # Lossless compression: states agree to machine precision amplitude by
        # amplitude, not just in fidelity.
        assert np.allclose(simulator.statevector(), dense, atol=1e-10)

    def test_controlled_gates_across_every_segment(self, simulator_config):
        # Explicitly place controls/targets in each index segment combination.
        num_qubits, ranks, block = 8, 4, 16  # offsets 0-3, block 4-5, rank 6-7
        combos = [
            (0, 2), (0, 5), (0, 7),   # local target, {local, block, rank} control
            (4, 1), (4, 5), (4, 6),   # block target
            (6, 0), (6, 4), (6, 7),   # rank target
        ]
        circuit = QuantumCircuit(num_qubits)
        for qubit in range(num_qubits):
            circuit.h(qubit)
        for target, control in combos:
            circuit.cx(control, target)
            circuit.cp(0.3, control, target)
        simulator = CompressedSimulator(
            num_qubits, simulator_config(num_ranks=ranks, block_amplitudes=block)
        )
        simulator.apply_circuit(circuit)
        dense = simulate_statevector(circuit)
        assert np.allclose(simulator.statevector(), dense, atol=1e-10)

    def test_initial_basis_state(self, simulator_config):
        simulator = CompressedSimulator(
            6, simulator_config(num_ranks=2, block_amplitudes=8), initial_basis_state=37
        )
        assert simulator.probability_of(37) == pytest.approx(1.0)

    def test_norm_preserved(self, simulator_config):
        simulator = CompressedSimulator(8, simulator_config(num_ranks=2, block_amplitudes=32))
        simulator.apply_circuit(qft_circuit(8))
        assert simulator.norm_squared() == pytest.approx(1.0, abs=1e-10)


class TestLossyFidelity:
    def test_lossy_state_within_fidelity_bound(self, simulator_config):
        num_qubits = 10
        circuit = qft_circuit(num_qubits)
        config = simulator_config(
            num_ranks=2,
            block_amplitudes=64,
            start_lossless=False,
            error_levels=(1e-3, 1e-2, 1e-1),
        )
        simulator = CompressedSimulator(num_qubits, config)
        report = simulator.apply_circuit(circuit)
        dense = simulate_statevector(circuit)
        fidelity = simulator.fidelity_vs(dense)
        assert fidelity >= report.fidelity_lower_bound - 1e-12
        assert fidelity > 0.9
        assert report.final_error_bound == 1e-3

    def test_looser_bound_gives_lower_fidelity_bound(self, simulator_config):
        num_qubits = 8
        circuit = qft_circuit(num_qubits)
        fidelities = {}
        for bound in (1e-5, 1e-1):
            config = simulator_config(
                num_ranks=1,
                block_amplitudes=64,
                start_lossless=False,
                error_levels=(bound,),
            )
            simulator = CompressedSimulator(num_qubits, config)
            report = simulator.apply_circuit(circuit)
            fidelities[bound] = report.fidelity_lower_bound
        assert fidelities[1e-5] > fidelities[1e-1]

    def test_fidelity_bound_formula(self, simulator_config):
        config = simulator_config(
            num_ranks=1, block_amplitudes=32, start_lossless=False, error_levels=(1e-2,)
        )
        simulator = CompressedSimulator(6, config)
        report = simulator.apply_circuit(uniform_superposition(6))
        # Five of the six Hadamards are in-block and share one round trip.
        assert report.gates_executed == 2
        assert simulator.fidelity_tracker.lower_bound == pytest.approx((1 - 1e-2) ** 2)


class TestAdaptiveEscalation:
    def test_escalates_under_tight_budget(self, simulator_config):
        num_qubits = 10
        # A budget far below the dense size forces lossy compression quickly.
        budget = (1 << num_qubits) * 16 // 4
        config = simulator_config(
            num_ranks=1,
            block_amplitudes=128,
            memory_budget_bytes=budget,
            error_levels=(1e-5, 1e-3, 1e-1),
        )
        simulator = CompressedSimulator(num_qubits, config)
        report = simulator.apply_circuit(qft_circuit(num_qubits))
        assert report.escalations >= 1
        assert report.final_error_bound > 0.0
        assert simulator.controller.events[0].from_bound == 0.0

    def test_no_escalation_with_roomy_budget(self, simulator_config):
        config = simulator_config(
            num_ranks=1,
            block_amplitudes=64,
            memory_budget_bytes=10**9,
        )
        simulator = CompressedSimulator(8, config)
        report = simulator.apply_circuit(ghz_circuit(8))
        assert report.escalations == 0
        assert report.final_error_bound == 0.0


class TestBlockCacheBehaviour:
    def test_grover_benefits_from_cache(self, simulator_config):
        # Grover keeps large groups of amplitudes identical, so many block
        # patterns recur (Section 3.4): within a plan they are grouped into
        # one round trip (duplicates), across plans the cache serves them
        # (hits).  The redundancy is strongest in the Hadamard/X layers;
        # mid-diffusion the blocks diverge, so we assert a healthy absolute
        # count rather than a majority.
        circuit = grover_circuit(8, marked=5)
        simulator = CompressedSimulator(8, simulator_config(num_ranks=2, block_amplitudes=16))
        report = simulator.apply_circuit(circuit)
        served = report.duplicate_tasks + report.cache_hits
        assert served > 300
        assert served / report.tasks_executed > 0.05
        assert report.cache_hits > 0

    def test_uniform_circuit_has_high_hit_rate(self, simulator_config):
        # A circuit whose state keeps all blocks identical (GHZ preparation)
        # should be served almost entirely without a round trip.
        circuit = ghz_circuit(10)
        simulator = CompressedSimulator(10, simulator_config(num_ranks=2, block_amplitudes=32))
        report = simulator.apply_circuit(circuit)
        assert report.duplicate_tasks + report.cache_hits > report.cache_misses

    def test_cache_and_no_cache_agree(self, simulator_config):
        circuit = grover_circuit(7, marked=3)
        dense = simulate_statevector(circuit)
        for use_cache in (True, False):
            config = simulator_config(
                num_ranks=2, block_amplitudes=16, use_block_cache=use_cache
            )
            simulator = CompressedSimulator(7, config)
            simulator.apply_circuit(circuit)
            assert np.allclose(simulator.statevector(), dense, atol=1e-10)

    def test_cache_disabled_configuration(self, simulator_config):
        config = simulator_config(num_ranks=1, block_amplitudes=32, use_block_cache=False)
        simulator = CompressedSimulator(6, config)
        report = simulator.apply_circuit(ghz_circuit(6))
        assert simulator.cache is None
        assert report.cache_hits == 0


class TestDiagonalGatesAboveTheBlock:
    """A diagonal 2x2 on a block- or rank-segment target is a one-block step.

    7 qubits over 2 ranks of 16-amplitude blocks: qubits 0-3 are local, 4-5
    select the block, 6 the rank.
    """

    @pytest.mark.parametrize("fusion", [True, False])
    @pytest.mark.parametrize("tier", TIERS)
    def test_identical_blocks_across_a_target_bit_do_not_alias(self, tier, fusion):
        # Eight byte-identical non-zero blocks, then phases that depend on
        # which side of qubits 4, 5 and 6 a block lies: one task's output
        # must not be handed to another with the same bytes (the block cache,
        # the plan's task grouping, the rank worker's batch dedupe).
        uniform = QuantumCircuit(7).h(0).h(1).h(4).h(5).h(6)
        phases = QuantumCircuit(7).cz(0, 4).cz(1, 5).cp(0.3, 5, 6).rz(0.7, 4).t(6)
        config = tier_config(tier, fusion_enabled=fusion)
        with CompressedSimulator(7, config) as simulator:
            simulator.apply_circuit(uniform)
            assert len({e.blob for _, e in simulator.state.iter_blocks()}) == 1
            simulator.apply_circuit(phases)
            dense = simulate_statevector(uniform.compose(phases))
            assert np.array_equal(simulator.statevector(), dense)
            assert len({e.blob for _, e in simulator.state.iter_blocks()}) == 8

    @pytest.mark.parametrize("tier", ["sequential", "ranked-comm"])
    def test_zero_blocks_stay_the_zero_blob(self, tier):
        # (-1+0j) * (0+0j) is -0.0+0.0j: a phase applied naively would move
        # an all-zero block off the compressor's zero blob, which dedupe and
        # the block cache key on.
        circuit = QuantumCircuit(7).cz(4, 5).cz(0, 6).cp(0.3, 5, 6).cp(0.3, 6, 4)
        circuit.z(5).z(6).rz(0.4, 5).rz(0.4, 6)
        with CompressedSimulator(7, tier_config(tier)) as simulator:
            before = dict(simulator.state.iter_blocks())
            zero_blob = before[(1, 3)].blob
            assert zero_blob != before[(0, 0)].blob
            simulator.apply_circuit(circuit)
            for key, entry in simulator.state.iter_blocks():
                if key != (0, 0):  # the rz's move |0...0>'s own block
                    assert entry.blob == zero_blob


class TestCommunicationAccounting:
    def test_rank_qubit_gates_generate_exchanges(self, simulator_config):
        simulator = CompressedSimulator(7, simulator_config(num_ranks=4, block_amplitudes=8))
        # Qubits 5 and 6 select the rank (7 qubits, 4 ranks).
        circuit = QuantumCircuit(7).h(6).h(5).h(0)
        report = simulator.apply_circuit(circuit)
        assert report.block_exchanges > 0
        assert report.communication_bytes > 0

    def test_single_rank_never_communicates(self, simulator_config):
        simulator = CompressedSimulator(7, simulator_config(num_ranks=1, block_amplitudes=16))
        report = simulator.apply_circuit(qft_circuit(7))
        assert report.block_exchanges == 0
        assert report.communication_bytes == 0

    def test_bandwidth_model_produces_communication_time(self, simulator_config):
        comm = SimulatedCommunicator(4, bandwidth_bytes_per_s=1e6, latency_s=1e-4)
        config = simulator_config(num_ranks=4, block_amplitudes=8)
        simulator = CompressedSimulator(7, config, comm=comm)
        report = simulator.apply_circuit(QuantumCircuit(7).h(6))
        assert report.communication_seconds > 0


class TestStateQueries:
    def test_probability_and_sampling_consistency(self, rng, simulator_config):
        circuit = grover_circuit(8, marked=42)
        simulator = CompressedSimulator(
            8, simulator_config(num_ranks=2, block_amplitudes=32)
        )
        simulator.apply_circuit(circuit)
        assert simulator.probability_of(42) > 0.9
        counts = simulator.sample_counts(200, rng)
        assert sum(counts.values()) == 200
        assert counts.get(42, 0) > 150

    def test_block_probabilities_sum_to_one(self, simulator_config):
        simulator = CompressedSimulator(
            8, simulator_config(num_ranks=4, block_amplitudes=16)
        )
        simulator.apply_circuit(uniform_superposition(8))
        assert simulator.block_probabilities().sum() == pytest.approx(1.0, abs=1e-10)

    def test_report_breakdown_fractions_sum_to_one(self, simulator_config):
        simulator = CompressedSimulator(
            6, simulator_config(num_ranks=2, block_amplitudes=16)
        )
        report = simulator.apply_circuit(qft_circuit(6))
        assert sum(report.breakdown().values()) == pytest.approx(1.0)
        assert report.gates_executed == report.fusion_gates_out <= len(qft_circuit(6))
        assert report.min_compression_ratio > 1.0

    def test_gate_outside_register_rejected(self, simulator_config):
        from repro.circuits import standard_gate

        simulator = CompressedSimulator(4, simulator_config(num_ranks=1, block_amplitudes=4))
        with pytest.raises(ValueError):
            simulator.apply_gate(standard_gate("h", 10))

    def test_invalid_constructor_args(self):
        with pytest.raises(ValueError):
            CompressedSimulator(0)

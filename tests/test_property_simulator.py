"""Property-based tests (hypothesis) for the compressed simulator.

The invariant behind the whole reproduction: for *any* circuit and *any*
partition geometry, the blocked/compressed simulation under lossless
compression is amplitude-for-amplitude identical to the dense reference, and
under lossy compression the measured fidelity never falls below the
Π(1 - δ) bound the simulator reports.  With the default configuration
(fusion on, lossless) "identical" means to the last bit, on every execution
tier: a run applies its gates' own 2x2 steps in order.  And both tiers
report the same work wherever the work is the same: gates, fusion, block
exchanges, escalations, footprint, ratio and the fidelity bound.

The ``simulator_config`` factory fixture is session-scoped, which keeps it
compatible with hypothesis's function-scoped-fixture health check.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import QuantumCircuit, ghz_circuit
from repro.circuits.fusion import form_runs
from repro.core import CompressedSimulator
from repro.distributed import Partition, QubitSegment, plan_gate
from repro.distributed.ranked import RankedStateVector
from repro.statevector import simulate_statevector, state_fidelity
from test_compressed_simulator import PARTITION_SHAPES
from tiers import TIERS, tier_config, tier_of

NUM_QUBITS = 6

#: Report counters every tier must agree on for the same circuit.
SHARED_WORK = (
    "gates_executed",
    "fusion_gates_in",
    "fusion_gates_out",
    "block_exchanges",
    "tasks_executed",
    "escalations",
    "min_compression_ratio",
    "peak_footprint_bytes",
    "fidelity_lower_bound",
    "final_error_bound",
)

_single_gates = ("h", "x", "y", "z", "s", "t", "sx")


@st.composite
def random_circuits(draw, max_gates: int = 25) -> QuantumCircuit:
    """A random circuit mixing single-qubit, controlled and Toffoli gates."""

    circuit = QuantumCircuit(NUM_QUBITS)
    num_gates = draw(st.integers(min_value=1, max_value=max_gates))
    for _ in range(num_gates):
        kind = draw(st.integers(min_value=0, max_value=3))
        qubits = draw(
            st.permutations(range(NUM_QUBITS)).map(lambda p: p[:3])
        )
        if kind == 0:
            name = draw(st.sampled_from(_single_gates))
            circuit.add(name, qubits[0])
        elif kind == 1:
            theta = draw(st.floats(-3.14, 3.14, allow_nan=False))
            circuit.rz(theta, qubits[0])
        elif kind == 2:
            circuit.cx(qubits[0], qubits[1])
        else:
            circuit.ccx(qubits[0], qubits[1], qubits[2])
    return circuit


_partitions = st.sampled_from(
    [
        (1, 64),  # single rank, single block
        (1, 16),  # single rank, several blocks
        (2, 16),
        (4, 8),
        (8, 4),
    ]
)


@st.composite
def run_heavy_circuits(draw) -> QuantumCircuit:
    """Random circuits biased toward stretches that share one staging:
    consecutive gates on one target, controlled pairs on one target under
    one control set (in either control order), and diagonal gates — one-block
    steps wherever their target lies — alone, in both control orders, and
    sandwiched between mixing gates on a rank-segment target (qubits 4-5
    under the four-rank partition the tier test uses)."""

    circuit = QuantumCircuit(NUM_QUBITS)
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        kind = draw(st.integers(min_value=0, max_value=8))
        control1, control2, target = draw(
            st.permutations(range(NUM_QUBITS)).map(lambda p: p[:3])
        )
        angles = st.floats(-3.14, 3.14, allow_nan=False)
        if kind == 0:
            for _ in range(draw(st.integers(min_value=2, max_value=4))):
                circuit.add(draw(st.sampled_from(_single_gates)), target)
        elif kind == 1:
            circuit.h(target).rz(draw(angles), target).rx(draw(angles), target)
        elif kind == 2:
            circuit.cp(draw(angles), control1, target)
            circuit.cp(draw(angles), control1, target)
        elif kind == 3:
            circuit.ccx(control1, control2, target)
            circuit.add("ry", target, controls=(control2, control1), params=(draw(angles),))
        elif kind == 4:
            circuit.cx(control1, target)
        elif kind == 5:
            circuit.cz(control1, target).cz(target, control1)
            circuit.cp(draw(angles), control1, target)
            circuit.cp(draw(angles), target, control1)
        elif kind == 6:
            high = draw(st.sampled_from([4, 5]))
            circuit.rz(draw(angles), high).t(high)
        else:
            # cx . rz . cx under a control that is always local (7: the rz
            # joins the pair run) or always the other rank qubit (8: it
            # cannot, and goes one-block between two pair round trips).
            high = draw(st.sampled_from([4, 5]))
            control = draw(st.sampled_from([0, 1])) if kind == 7 else 9 - high
            circuit.cx(control, high).rz(draw(angles), high).cx(control, high)
    return circuit


def _bits(state: np.ndarray) -> np.ndarray:
    return state.view(np.float64)


class TestLosslessEquivalence:
    @pytest.mark.parametrize("tier", TIERS)
    @given(circuit=run_heavy_circuits(), block=st.sampled_from([4, 8, 16]))
    @settings(max_examples=12, deadline=None)
    def test_default_config_is_bit_equal_to_dense_on_every_tier(
        self, tier, circuit, block
    ):
        # Four ranks of 16 amplitudes: qubits 4-5 are the RANK segment, and
        # the block size moves the LOCAL / BLOCK boundary from qubit 2 to
        # qubit 4 (one block per rank, no BLOCK bits), so same-target
        # stretches land in all three segments.
        states = {}
        for fusion, name in ((True, tier), (False, "sequential")):
            config = tier_config(
                name, num_ranks=4, block_amplitudes=block, fusion_enabled=fusion
            )
            with CompressedSimulator(NUM_QUBITS, config) as simulator:
                report = simulator.apply_circuit(circuit)
                states[fusion] = simulator.statevector()
                if fusion:
                    assert report.gates_executed == report.fusion_gates_out
                    ranked = tier != "sequential"
                    assert config.tier == tier_of(tier)
                    assert isinstance(simulator.state, RankedStateVector) == ranked
                    assert bool(report.rank_comm) == ranked
        dense = simulate_statevector(circuit)
        assert np.array_equal(_bits(states[True]), _bits(dense))
        assert np.array_equal(_bits(states[True]), _bits(states[False]))

    @given(circuit=random_circuits(), shape=_partitions)
    @settings(max_examples=30, deadline=None)
    def test_matches_dense_amplitude_for_amplitude(self, circuit, shape, simulator_config):
        ranks, block = shape
        config = simulator_config(num_ranks=ranks, block_amplitudes=block)
        simulator = CompressedSimulator(NUM_QUBITS, config)
        simulator.apply_circuit(circuit)
        dense = simulate_statevector(circuit)
        assert np.allclose(simulator.statevector(), dense, atol=1e-10)
        assert simulator.norm_squared() == pytest.approx(1.0, abs=1e-9)

    @given(circuit=random_circuits())
    @settings(max_examples=15, deadline=None)
    def test_cache_does_not_change_results(self, circuit, simulator_config):
        states = []
        for use_cache in (True, False):
            config = simulator_config(
                num_ranks=2, block_amplitudes=16, use_block_cache=use_cache
            )
            simulator = CompressedSimulator(NUM_QUBITS, config)
            simulator.apply_circuit(circuit)
            states.append(simulator.statevector())
        assert np.allclose(states[0], states[1], atol=1e-12)


class TestLossyFidelityBound:
    @given(
        circuit=random_circuits(),
        bound=st.sampled_from([1e-4, 1e-3, 1e-2]),
    )
    @settings(max_examples=20, deadline=None)
    def test_measured_fidelity_respects_reported_bound(self, circuit, bound, simulator_config):
        config = simulator_config(
            num_ranks=2,
            block_amplitudes=16,
            start_lossless=False,
            error_levels=(bound,),
        )
        simulator = CompressedSimulator(NUM_QUBITS, config)
        report = simulator.apply_circuit(circuit)
        dense = simulate_statevector(circuit)
        fidelity = simulator.fidelity_vs(dense)
        assert fidelity >= report.fidelity_lower_bound - 1e-12
        # One (1 - δ) factor per *executed* gate: with fusion on by default
        # a run pays a single compression event, so the tracked bound is per
        # schedule element, not per source gate.
        assert report.gates_executed <= len(circuit)
        assert report.fidelity_lower_bound == pytest.approx(
            (1.0 - bound) ** report.gates_executed, rel=1e-9
        )
        # Norm can only shrink under magnitude-truncating compression.
        assert simulator.norm_squared() <= 1.0 + 1e-9


class TestTierAccounting:
    """Every tier groups a plan before the kernel, on the invariant that a
    plan stages each block at most once."""

    @given(circuit=run_heavy_circuits(), shape=st.sampled_from(PARTITION_SHAPES))
    @settings(max_examples=40, deadline=None)
    def test_a_plan_stages_each_block_at_most_once(self, circuit, shape):
        num_qubits, ranks, block = shape
        partition = Partition(
            num_qubits=num_qubits, num_ranks=ranks, block_amplitudes=block
        )
        for fused in (True, False):
            gates = list(circuit)
            for element in form_runs(gates, partition.offset_bits) if fused else gates:
                plan = plan_gate(partition, element)
                staged = [index for task in plan.tasks for index in task]
                assert len(staged) == len(set(staged))
                # A task is distinct in-range global block indices: one
                # block, or a pair (i, i | target_bit) with that bit clear
                # in i, in virtual-block order.
                target_bits = [
                    1 << (target - partition.offset_bits) for target in plan.staged
                ]
                for task in plan.tasks:
                    assert len(task) == len(set(task)) == 1 << len(target_bits)
                    assert all(0 <= i < partition.total_blocks for i in task)
                    if target_bits:
                        (bit,) = target_bits
                        first, second = task
                        assert not first & bit and second == first | bit
                # Exchanges are a plan-level fact: every task of a RANK pair
                # plan crosses ranks, no task of any other plan does.
                is_rank = plan.segment is QubitSegment.RANK
                assert plan.exchange_count == (len(plan.tasks) if is_rank else 0)
                per_rank = partition.blocks_per_rank
                assert all(
                    (task[0] // per_rank != task[-1] // per_rank) == is_rank
                    for task in plan.tasks
                )

    @pytest.mark.parametrize("fusion", [True, False])
    @pytest.mark.parametrize("cache", [True, False])
    @given(
        circuit=st.one_of(random_circuits(max_gates=8), st.just(ghz_circuit(NUM_QUBITS))),
        shape=st.sampled_from([(2, 16), (4, 8)]),
    )
    @settings(max_examples=10, deadline=None)
    def test_sequential_and_ranked_report_the_same_work(
        self, cache, fusion, circuit, shape
    ):
        # Every pair is computed once on every tier, so the task counts
        # agree.  Duplicate, codec-call and cache counters differ by design:
        # exchange tasks are never grouped, and each rank keeps its own cache
        # shard.  Everything else is the same work.
        ranks, block = shape
        reports = {}
        for tier in ("sequential", "ranked-comm"):
            config = tier_config(
                tier,
                num_ranks=ranks,
                block_amplitudes=block,
                use_block_cache=cache,
                fusion_enabled=fusion,
            )
            with CompressedSimulator(NUM_QUBITS, config) as simulator:
                report = simulator.apply_circuit(circuit)
                reports[tier] = {key: getattr(report, key) for key in SHARED_WORK}
                if cache and simulator.cache is not None:  # the ranked parent has none
                    assert simulator.cache.stats.lookups == (
                        report.cache_hits + report.cache_misses
                    )
                assert (
                    report.cache_hits + report.cache_misses + report.duplicate_tasks
                    <= report.tasks_executed
                )
        assert reports["ranked-comm"] == reports["sequential"]

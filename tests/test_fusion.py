"""Run formation + parallel block-task execution: unit and differential tests.

The differential harness is the safety net for the gate-grouping / scheduling
code: random circuits run through the compressed simulator with fusion
on/off, sequential and ranked, must agree with the dense reference — bit for
bit under lossless compression, since a run (consecutive gates sharing one
round trip) multiplies nothing and reorders nothing — and within the tracked
fidelity lower bound under every lossy compressor family.  While a memory
budget is still being met losslessly, a run's escalation history equals the
gate-by-gate one.  (The all-tier bit-equality property lives in
``tests/test_property_simulator.py``.)
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.applications import qaoa_maxcut_circuit, random_regular_graph
from repro.circuits import (
    ParityPhase,
    QuantumCircuit,
    Run,
    form_runs,
    ghz_circuit,
    qft_circuit,
    standard_gate,
)
from repro.circuits.fusion import constituents
from repro.circuits.gates import X, GateError
from repro.compression.interface import get_compressor
from repro.core import BlockCache, CompressedSimulator
from repro.distributed import Partition, QubitSegment, plan_gate
from repro.statevector import simulate_statevector
from tiers import tier_config

NUM_QUBITS = 6

_single_gates = ("h", "x", "y", "z", "s", "t", "sx")


def _chain_circuit(num_qubits: int = 4) -> QuantumCircuit:
    """Consecutive same-target chains interleaved with entanglers."""

    circuit = QuantumCircuit(num_qubits)
    for qubit in range(num_qubits):
        circuit.h(qubit).t(qubit).rz(0.3 * (qubit + 1), qubit).s(qubit)
    for qubit in range(num_qubits - 1):
        circuit.cp(0.5, qubit, qubit + 1)
    return circuit


@st.composite
def fusion_heavy_circuits(draw) -> QuantumCircuit:
    """Random circuits biased toward same-target stretches."""

    circuit = QuantumCircuit(NUM_QUBITS)
    num_moves = draw(st.integers(min_value=1, max_value=12))
    for _ in range(num_moves):
        kind = draw(st.integers(min_value=0, max_value=4))
        qubits = draw(st.permutations(range(NUM_QUBITS)).map(lambda p: p[:3]))
        if kind == 0:
            # A stretch of gates on one target: a run wherever the target lies.
            for _ in range(draw(st.integers(min_value=1, max_value=4))):
                circuit.add(draw(st.sampled_from(_single_gates)), qubits[0])
        elif kind == 1:
            theta = draw(st.floats(-3.14, 3.14, allow_nan=False))
            circuit.rz(theta, qubits[0])
        elif kind == 2:
            circuit.cx(qubits[0], qubits[1])
        elif kind == 3:
            circuit.ccx(qubits[0], qubits[1], qubits[2])
        else:
            # cx . d . cx: one parity-phase step, d under at most one control.
            name = draw(st.sampled_from(("rz", "p", "z", "t")))
            params = (0.4,) if name in ("rz", "p") else ()
            controls = qubits[2:] if draw(st.booleans()) else ()
            circuit.cx(qubits[0], qubits[1])
            circuit.add(name, qubits[1], controls=controls, params=params)
            circuit.cx(qubits[0], qubits[1])
    return circuit


# ---------------------------------------------------------------------------
# Run formation
# ---------------------------------------------------------------------------


ONE_BLOCK = "one-block"

#: (num_ranks, block_amplitudes) shapes over NUM_QUBITS qubits; the same list
#: as ``tests/test_property_simulator.py``'s ``_partitions``.
PARTITION_SHAPES = [(1, 64), (1, 16), (2, 16), (4, 8), (8, 4)]


def _keys(gate, local_qubits: int) -> tuple:
    """The run keys a step can take, preferred first (the rule, restated)."""

    if isinstance(gate, ParityPhase) or gate.target < local_qubits:
        return (ONE_BLOCK,)
    pair = (gate.target, frozenset(c for c in gate.controls if c >= local_qubits))
    diagonal = gate.matrix[0, 1] == 0 == gate.matrix[1, 0]
    return (ONE_BLOCK, pair) if diagonal else (pair,)


def _joined_key(key, step, local_qubits: int):
    """The key of a run open under *key* once *step* joins it, or ``None``
    when it cannot: a step joins under a key it can take; a one-block step
    also rides a pair run without non-local controls, and a mixing step
    whose pair key has none takes a one-block run over (restated)."""

    keys = _keys(step, local_qubits)
    stages_every_block = key == ONE_BLOCK or (key is not None and not key[1])
    if key in keys or (keys[0] == ONE_BLOCK and stages_every_block):
        return key
    if key == ONE_BLOCK and not keys[0][1]:
        return keys[0]
    return None


def _run_key(steps, local_qubits: int):
    """The key a stretch ends under: its first step's preferred one, carried
    through each later step (``None`` if one could not have joined)."""

    key = _keys(steps[0], local_qubits)[0]
    for step in steps[1:]:
        key = _joined_key(key, step, local_qubits)
    return key


def _sandwich_at(gates, index: int) -> bool:
    """Whether ``gates[index:index + 3]`` is ``cx(c, t) . d(t) . cx(c, t)``
    with ``d`` diagonal and ``c`` not among its controls (restated)."""

    window = gates[index : index + 3]
    if len(window) < 3:
        return False
    cx, d, again = window
    return (
        np.array_equal(cx.matrix, X)
        and len(cx.controls) == 1
        and again.key() == cx.key()
        and d.target == cx.target
        and d.matrix[0, 1] == 0 == d.matrix[1, 0]
        and cx.controls[0] not in d.controls
    )


def _gates_of(elements) -> list:
    """The source gates a schedule applies, a parity phase as its three."""

    return [
        gate
        for element in elements
        for step in constituents(element)
        for gate in (step.gates if isinstance(step, ParityPhase) else (step,))
    ]


class TestRunFormation:
    @given(
        circuit=fusion_heavy_circuits(),
        local_qubits=st.integers(min_value=0, max_value=NUM_QUBITS),
    )
    @settings(max_examples=60, deadline=None)
    def test_runs_are_ordered_valid_and_maximal(self, circuit, local_qubits):
        gates = circuit.gates
        elements = form_runs(gates, local_qubits)
        # Never reordered, never dropped: the same gate objects, in order.
        flat = _gates_of(elements)
        assert len(flat) == len(gates)
        assert all(a is b for a, b in zip(flat, gates))
        # Every sandwich, matched left to right, is one parity-phase step.
        position = 0
        for step in (s for element in elements for s in constituents(element)):
            assert isinstance(step, ParityPhase) == _sandwich_at(gates, position)
            position += 3 if isinstance(step, ParityPhase) else 1
        for element in elements:
            steps = constituents(element)
            assert isinstance(element, Run) == (len(steps) >= 2)
            # Valid: every step could join the run as it stood.
            assert _run_key(steps, local_qubits) is not None
        # Maximal under the rule as written: the next element's first gate
        # could not have joined the run before it.
        for left, right in zip(elements, elements[1:]):
            key = _run_key(constituents(left), local_qubits)
            assert _joined_key(key, constituents(right)[0], local_qubits) is None

    @given(circuit=fusion_heavy_circuits())
    @settings(max_examples=30, deadline=None)
    def test_every_element_plans_under_every_partition_shape(self, circuit):
        for ranks, block in PARTITION_SHAPES:
            partition = Partition(NUM_QUBITS, ranks, block)
            for element in form_runs(circuit.gates, partition.offset_bits):
                steps = constituents(element)
                plan = plan_gate(partition, element)
                assert len(plan.op.local_controls) == len(steps)
                key = _run_key(steps, partition.offset_bits)
                assert (key == ONE_BLOCK) == all(len(task) == 1 for task in plan.tasks)
                if key == ONE_BLOCK:
                    assert plan.segment is QubitSegment.LOCAL
                    assert plan.exchange_count == 0
                    assert plan.staged == ()
                else:
                    assert plan.staged == (key[0],)
                    assert plan.segment is partition.segment_of(key[0])

    def test_chain_circuit_schedule(self):
        circuit = _chain_circuit(4)  # 4 chains of 4 + 3 entanglers
        # Everything in-block: one run.
        assert len(form_runs(circuit.gates, 4)) == 1
        # Nothing in-block: each chain is a pair run opened by its ``h`` that
        # the diagonal ``t``/``rz``/``s`` join; the three controlled phases
        # are one-block whatever their targets, so they ride the last
        # chain's pair run, which has no non-local controls.
        elements = form_runs(circuit.gates, 0)
        assert [len(constituents(e)) for e in elements] == [4, 4, 4, 7]
        assert elements[0].name == "run(h+t+rz+s)"
        assert elements[-1].name == "run(h+t+rz+s+p+p+p)"

    @pytest.mark.parametrize(
        "first, second",
        [
            (standard_gate("x", 4), standard_gate("h", 5)),  # another pair target
            (standard_gate("x", 4), standard_gate("h", 4, controls=(5,))),
            # Next to a pair run under a non-local control, no one-block step:
            (standard_gate("x", 4, controls=(5,)), standard_gate("h", 0)),
            (standard_gate("x", 4, controls=(5,)), standard_gate("t", 5)),
            # a diagonal on the pair's target under other outer controls.
            (standard_gate("x", 4, controls=(5,)), standard_gate("z", 4)),
        ],
    )
    def test_never_merges_across_a_change_of_staging(self, first, second):
        for gates in ([first, second], [second, first]):
            elements = form_runs(gates, 3)
            assert all(a is b for a, b in zip(elements, gates))

    def test_one_block_steps_ride_a_pair_run_without_outer_controls(self):
        # Non-local target 4 under local qubits 0-2: the pair stages every
        # block, so an in-block gate (under an outer control), a diagonal
        # under an outer control, and a parity phase ride it on either side.
        x4 = standard_gate("x", 4, controls=(1,))
        h0 = standard_gate("h", 0, controls=(5,))
        cz = standard_gate("z", 4, controls=(3,))
        cx = standard_gate("x", 4, controls=(5,))
        phase = [cx, standard_gate("rz", 4, params=(0.3,)), cx]
        gates = [h0, cz, *phase, x4, *phase, cz, h0]
        (run,) = form_runs(gates, 3)
        assert [step.name for step in run.gates] == [
            "h",
            "z",
            "parity(x+rz+x)",
            "x",
            "parity(x+rz+x)",
            "z",
            "h",
        ]
        # The one-block steps before it opened a one-block run that x4 took
        # over; a second pair target ends the run, and one-block steps after
        # that ride the new pair.
        h5 = standard_gate("h", 5)
        elements = form_runs([h0, x4, cz, h5, h0], 3)
        assert [len(constituents(e)) for e in elements] == [3, 2]

    def test_one_block_gates_merge_across_targets_and_outer_controls(self):
        h0, x1 = standard_gate("h", 0), standard_gate("x", 1, controls=(2,))
        under5 = standard_gate("x", 2, controls=(5,))
        cz = standard_gate("z", 4, controls=(3,))  # diagonal, nothing in-block
        t5 = standard_gate("t", 5)
        (run,) = form_runs([h0, x1, under5, cz, t5, h0], 3)
        assert run.gates == (h0, x1, under5, cz, t5, h0)

    def test_pair_run_takes_diagonals_and_other_local_controls(self):
        # cx . rz . h on non-local target 4: under a local control the
        # stretch is one pair round trip ...
        rz = standard_gate("rz", 4, params=(0.3,))
        cx = standard_gate("x", 4, controls=(1,))
        h = standard_gate("h", 4, controls=(0, 2))
        (run,) = form_runs([cx, rz, h, cx], 3)
        assert run.gates == (cx, rz, h, cx)
        # ... under a non-local control the plain rz cannot take the pair
        # key (its control set differs) and goes one-block between them;
        # the same rz under that control joins.
        outer = standard_gate("x", 4, controls=(5,))
        outer_h = standard_gate("h", 4, controls=(5,))
        assert len(form_runs([outer, rz, outer_h], 3)) == 3
        crz = standard_gate("rz", 4, controls=(5,), params=(0.3,))
        assert len(form_runs([outer, crz, outer], 3)) == 1
        # A diagonal never opens a pair run: it prefers one-block, and a
        # mixing gate without non-local controls takes that run over.
        (run,) = form_runs([rz, cx, rz], 3)
        assert run.gates == (rz, cx, rz)

    @pytest.mark.parametrize("control", [1, 5])  # in-block / non-local c
    def test_sandwich_is_one_one_block_step(self, control):
        # cx . rz . cx on non-local target 4 is rz on x_c xor x_4: one
        # diagonal step, one block at a time, whatever c's locality.
        rz = standard_gate("rz", 4, params=(0.3,))
        cx = standard_gate("x", 4, controls=(control,))
        (step,) = form_runs([cx, rz, cx], 3)
        assert isinstance(step, ParityPhase) and step.gates == (cx, rz, cx)
        assert step.parity == 1 << control | 1 << 4
        assert step.matrix is rz.matrix and step.target == 4
        assert step.controls == () and step.is_diagonal
        plan = plan_gate(Partition(6, 4, 8), step)
        assert plan.segment is QubitSegment.LOCAL and plan.exchange_count == 0
        assert all(len(task) == 1 for task in plan.tasks)
        # Block index bits are qubits 3-5: t's bit, and c's when non-local.
        assert plan.op.index_mask == (0b010 if control == 1 else 0b110)
        # The one-block steps around it join it in one one-block run; after
        # a pair run without non-local controls it rides that run, after one
        # under a non-local control it opens its own.
        h0, h4 = standard_gate("h", 0), standard_gate("h", 4)
        (run,) = form_runs([h0, cx, rz, cx, h0], 3)
        assert run.gates[0] is h0 is run.gates[2]
        assert run.gates[1].gates == step.gates
        assert [len(constituents(e)) for e in form_runs([h4, cx, rz, cx], 3)] == [2]
        outer_h4 = standard_gate("h", 4, controls=(3,) if control == 5 else (5,))
        elements = form_runs([outer_h4, cx, rz, cx], 3)
        assert [len(constituents(e)) for e in elements] == [1, 1]

    @pytest.mark.parametrize(
        "gates",
        [
            # ccx . rz . ccx: two controls.
            [
                standard_gate("x", 4, controls=(1, 5)),
                standard_gate("rz", 4, params=(0.3,)),
                standard_gate("x", 4, controls=(1, 5)),
            ],
            # d controlled by c.
            [
                standard_gate("x", 4, controls=(5,)),
                standard_gate("rz", 4, controls=(5,), params=(0.3,)),
                standard_gate("x", 4, controls=(5,)),
            ],
            # Two different CXs.
            [
                standard_gate("x", 4, controls=(5,)),
                standard_gate("rz", 4, params=(0.3,)),
                standard_gate("x", 4, controls=(1,)),
            ],
            # A non-diagonal middle gate.
            [
                standard_gate("x", 4, controls=(5,)),
                standard_gate("ry", 4, params=(0.3,)),
                standard_gate("x", 4, controls=(5,)),
            ],
        ],
        ids=["ccx-rz-ccx", "d-controlled-by-c", "different-cx", "mixing-middle"],
    )
    def test_what_is_not_a_sandwich_stays_three_steps(self, gates):
        for local_qubits in (0, 3, 6):
            elements = form_runs(gates, local_qubits)
            steps = [step for e in elements for step in constituents(e)]
            assert steps == gates

    def test_pair_run_ignores_control_order(self):
        first = standard_gate("x", 4, controls=(1, 5))
        second = standard_gate("z", 4, controls=(5, 1))
        (run,) = form_runs([first, second], 3)
        assert run.gates == (first, second)

    def test_run_of_one_is_the_gate_itself(self):
        gates = [
            standard_gate("h", 4),
            standard_gate("h", 5),
            standard_gate("x", 4, controls=(3,)),
        ]
        elements = form_runs(gates, 3)
        assert all(a is b for a, b in zip(elements, gates))
        with pytest.raises(GateError):
            Run((gates[0],))

    def test_key_never_aliases_a_gate(self):
        h, t = standard_gate("h", 0), standard_gate("t", 0)
        run = Run((h, t))
        assert run.key() == (h.key(), t.key())
        assert run.key() not in (h.key(), t.key())
        assert Run((t, h)).key() != run.key()
        assert run.name == "run(h+t)" and run.max_qubit() == 0
        # A parity phase keys on all three gates, apart from their run.
        cx = standard_gate("x", 2, controls=(5,))
        rz = standard_gate("rz", 2, params=(0.3,))
        step = ParityPhase((cx, rz, cx))
        assert step.key() == ("parity", cx.key(), rz.key(), cx.key())
        assert step.key() not in (Run((cx, rz, cx)).key(), cx.key(), rz.key())
        assert step.name == "parity(x+rz+x)" and step.max_qubit() == 5
        with pytest.raises(GateError):
            ParityPhase((cx, standard_gate("h", 2), cx))

    def test_each_sandwich_is_tested_once(self, monkeypatch):
        from repro.circuits import fusion

        cx = standard_gate("x", 2, controls=(5,))
        rz = standard_gate("rz", 2, params=(0.3,))
        calls = []
        real = fusion._is_sandwich
        monkeypatch.setattr(
            fusion, "_is_sandwich", lambda *gates: calls.append(gates) or real(*gates)
        )
        (step,) = form_runs([cx, rz, cx], 3)
        assert isinstance(step, ParityPhase) and step.gates == (cx, rz, cx)
        assert calls == [(cx, rz, cx)]


# ---------------------------------------------------------------------------
# Planning: runs and task independence
# ---------------------------------------------------------------------------


class TestFusedPlanning:
    def test_run_plans_as_its_first_gate_with_per_step_controls(self):
        # 6 qubits, 4 ranks, 4-amplitude blocks: qubits 0-1 local, 2-3 block,
        # 4-5 rank.  Both steps sit under block control 3 and rank control 5.
        partition = Partition(num_qubits=6, num_ranks=4, block_amplitudes=4)
        first = standard_gate("x", 0, controls=(1, 3, 5))
        second = standard_gate("h", 1, controls=(5, 3))
        plan = plan_gate(partition, Run((first, second)))
        assert plan.segment is QubitSegment.LOCAL
        assert plan.tasks == plan_gate(partition, first).tasks
        assert plan.tasks == plan_gate(partition, second).tasks
        assert plan.op.local_controls == ((1,), ())
        assert plan.exchange_count == 0

    @pytest.mark.parametrize("target", [3, 5])  # block / rank segment
    def test_pair_run_plans_as_its_first_gates_pair_tasks(self, target):
        partition = Partition(num_qubits=6, num_ranks=4, block_amplitudes=4)
        first = standard_gate("x", target, controls=(1, 2, 4))
        # A diagonal with the run's non-local controls, and a mixing gate
        # under other local controls: both ride the first gate's pairs.
        second = standard_gate("p", target, controls=(4, 2), params=(0.3,))
        third = standard_gate("h", target, controls=(0, 4, 2, 1))
        plan = plan_gate(partition, Run((first, second, third)))
        single = plan_gate(partition, first)
        assert plan.segment is single.segment is not QubitSegment.LOCAL
        assert plan.tasks == single.tasks == plan_gate(partition, third).tasks
        assert plan.op.local_controls == ((1,), (), (0, 1))
        # No riders: the tasks read only the run's controls, set in each.
        assert plan.staged == (target,)
        assert plan.op.index_mask == 0b0101 == plan.op.block_controls[0]
        # One exchange per block pair for the whole run.
        assert plan.exchange_count == single.exchange_count
        assert plan.exchange_count == (len(plan.tasks) if target == 5 else 0)

    @pytest.mark.parametrize(
        "first, second",
        [
            (standard_gate("h", 3), standard_gate("h", 2)),  # another block target
            (standard_gate("h", 5), standard_gate("h", 5, controls=(2,))),
            (standard_gate("h", 5), standard_gate("h", 4)),  # another rank target
            # A pair under a non-local control never takes a rider: not an
            # in-block gate, a diagonal elsewhere, one on its target under
            # other controls, or a parity phase on its target.
            (standard_gate("h", 5, controls=(2,)), standard_gate("t", 0)),
            (standard_gate("h", 5, controls=(2,)), standard_gate("z", 3)),
            (standard_gate("h", 5, controls=(2,)), standard_gate("z", 5)),
            (
                standard_gate("h", 5, controls=(2,)),
                ParityPhase(
                    (
                        standard_gate("x", 5, controls=(0,)),
                        standard_gate("rz", 5, params=(0.3,)),
                        standard_gate("x", 5, controls=(0,)),
                    )
                ),
            ),
        ],
    )
    def test_plan_rejects_what_is_not_a_run_under_the_partition(self, first, second):
        partition = Partition(num_qubits=6, num_ranks=4, block_amplitudes=4)
        with pytest.raises(ValueError, match="not a run"):
            plan_gate(partition, Run((first, second)))
        with pytest.raises(ValueError, match="not a run"):
            plan_gate(partition, Run((second, first)))

    @pytest.mark.parametrize(
        "pair, rider, index_mask",
        [
            (standard_gate("h", 3), standard_gate("h", 0), 0),  # in-block
            (standard_gate("h", 5), standard_gate("t", 0), 0),
            # An in-block gate under block control 3 reads bit 1.
            (standard_gate("h", 5), standard_gate("x", 0, controls=(3, 1)), 0b0010),
            # A diagonal on block qubit 2 reads bit 0 for its entry.
            (standard_gate("h", 3), standard_gate("z", 2), 0b0001),
            # A diagonal on the pair's target under control 2: bit 0 (the
            # target is the staged, virtual bit, read inside the buffer).
            (standard_gate("h", 3), standard_gate("z", 3, controls=(2,)), 0b0001),
            # A parity phase on x_2 xor x_5, the pair's target: bit 0.
            (
                standard_gate("h", 5),
                ParityPhase(
                    (
                        standard_gate("x", 5, controls=(2,)),
                        standard_gate("rz", 5, params=(0.3,)),
                        standard_gate("x", 5, controls=(2,)),
                    )
                ),
                0b0001,
            ),
        ],
    )
    def test_riders_plan_as_the_pair_reading_their_own_bits(
        self, pair, rider, index_mask
    ):
        # Qubits 0-1 local, 2-3 block, 4-5 rank: block index bits 0-3 are
        # qubits 2-5.  A rider changes nothing of the pair's staging; the
        # plan's index mask is exactly the bits the rider reads from the
        # block index (the pair's target it reads inside the virtual block).
        partition = Partition(num_qubits=6, num_ranks=4, block_amplitudes=4)
        single = plan_gate(partition, pair)
        for steps in ((pair, rider), (rider, pair), (rider, pair, rider)):
            plan = plan_gate(partition, Run(steps))
            assert plan.tasks == single.tasks and plan.segment is single.segment
            assert plan.exchange_count == single.exchange_count
            assert plan.staged == (pair.target,)
            assert plan.op.index_mask == index_mask

    def test_one_block_run_plans_the_blocks_a_step_acts_on(self):
        # Qubits 0-1 local, 2-3 block, 4-5 rank; global block index bits are
        # qubits 2..5.  cz(3 -> 5) acts where bits 1 and 3 are set; t on 4
        # where bit 2 is set; x on 0 under 2 where bit 0 is set.
        partition = Partition(num_qubits=6, num_ranks=4, block_amplitudes=4)
        cz = standard_gate("z", 5, controls=(3,))
        t4 = standard_gate("t", 4)
        cx = standard_gate("x", 0, controls=(2, 1))
        plan = plan_gate(partition, Run((cz, t4, cx)))
        assert plan.segment is QubitSegment.LOCAL and plan.exchange_count == 0
        assert plan.op.local_controls == ((), (), (1,))
        assert plan.op.block_controls == (0b0010, 0, 0b0001)
        assert plan.op.index_mask == 0b1111
        touched = [
            index
            for index in range(16)
            if index & 0b1010 == 0b1010 or index & 0b0100 or index & 0b0001
        ]
        assert plan.tasks == tuple((index,) for index in touched)
        # rz has no unit entry: it touches every block; z only the bit-1 half.
        rz = plan_gate(partition, standard_gate("rz", 5, params=(0.4,)))
        assert len(rz.tasks) == 16 and rz.op.index_mask == 0b1000
        z = plan_gate(partition, standard_gate("z", 5))
        assert [index // 4 for (index,) in z.tasks] == [2] * 4 + [3] * 4

    @pytest.mark.parametrize("target", [3, 5])
    def test_all_diagonal_suffix_of_a_pair_run_plans_one_block(self, target):
        # Under a memory budget a run goes gate by gate until the first
        # escalation and the rest is re-wrapped: a pair run's suffix may hold
        # only its diagonals.
        partition = Partition(num_qubits=6, num_ranks=4, block_amplitudes=4)
        gates = [
            standard_gate("x", target, controls=(1,)),
            standard_gate("rz", target, params=(0.3,)),
            standard_gate("p", target, controls=(0,), params=(0.2,)),
        ]
        (run,) = form_runs(gates, partition.offset_bits)
        assert plan_gate(partition, run).segment is not QubitSegment.LOCAL
        suffix = plan_gate(partition, Run(tuple(gates[1:])))
        assert suffix.segment is QubitSegment.LOCAL
        assert suffix.exchange_count == 0 and len(suffix.tasks) == 16
        assert all(len(task) == 1 for task in suffix.tasks)

    @pytest.mark.parametrize("target", [0, 3, 5])
    def test_independent_groups_cover_and_are_disjoint(self, target):
        partition = Partition(num_qubits=6, num_ranks=4, block_amplitudes=4)
        plan = plan_gate(partition, standard_gate("h", target))
        waves = plan.independent_groups()
        seen: list = []
        for wave in waves:
            used: set = set()
            for task in wave:
                assert not used & set(task)
                used |= set(task)
            seen.extend(wave)
        # Single-gate plans touch every block exactly once: one wave.
        assert len(waves) == 1
        assert tuple(seen) == plan.tasks


# ---------------------------------------------------------------------------
# Differential tests against the dense simulator
# ---------------------------------------------------------------------------


class TestFusionDefault:
    """Fusion is on by default (ROADMAP flip); the opt-out stays explicit."""

    def test_default_config_enables_fusion(self):
        from repro.core import SimulatorConfig

        assert SimulatorConfig().fusion_enabled is True

    def test_opt_out_restores_seed_gate_accounting(self, simulator_config):
        circuit = _chain_circuit(NUM_QUBITS)
        with CompressedSimulator(
            NUM_QUBITS, simulator_config(fusion_enabled=False)
        ) as seed_path:
            seed_report = seed_path.apply_circuit(circuit)
        with CompressedSimulator(NUM_QUBITS, simulator_config()) as fused_path:
            fused_report = fused_path.apply_circuit(circuit)
        # Opt-out: one executed gate (and one round trip) per source gate.
        assert seed_report.gates_executed == len(circuit)
        assert seed_report.fusion_gates_in == 0
        # Default: the same-target chains collapse, fewer round trips.
        assert fused_report.fusion_gates_in == len(circuit)
        assert fused_report.gates_executed < len(circuit)
        assert fused_report.compress_calls < seed_report.compress_calls


class TestDifferentialLossless:
    @given(circuit=fusion_heavy_circuits())
    @settings(max_examples=12, deadline=None)
    @pytest.mark.parametrize("fusion", [False, True])
    @pytest.mark.parametrize("workers", [1, 2], ids=["sequential", "ranked"])
    def test_matches_dense(self, circuit, fusion, workers, simulator_config):
        config = simulator_config(
            num_ranks=2, block_amplitudes=8, fusion_enabled=fusion, num_workers=workers
        )
        with CompressedSimulator(NUM_QUBITS, config) as simulator:
            simulator.apply_circuit(circuit)
            dense = simulate_statevector(circuit)
            assert np.array_equal(simulator.statevector(), dense)
            assert simulator.norm_squared() == pytest.approx(1.0, abs=1e-9)

    def test_tier_and_fusion_are_bit_identical(self, simulator_config):
        # The tier cannot change the stored state at all (the same kernel,
        # deterministic compressors), and a run applies its gates' own 2x2
        # steps in order, so neither can fusion.
        circuit = _chain_circuit(NUM_QUBITS)
        states: dict[tuple[bool, int], np.ndarray] = {}
        for fusion in (False, True):
            for workers in (1, 2):
                config = simulator_config(
                    num_ranks=2,
                    block_amplitudes=8,
                    fusion_enabled=fusion,
                    num_workers=workers,
                )
                with CompressedSimulator(NUM_QUBITS, config) as simulator:
                    simulator.apply_circuit(circuit)
                    states[fusion, workers] = simulator.statevector()
        for state in states.values():
            assert np.array_equal(state, states[False, 1])


#: 7 qubits, 4 ranks, 8-amplitude blocks: where a qubit lies.
SANDWICH_SEGMENTS = {"in-block": (0, 1, 2), "block": (3, 4), "rank": (5, 6)}


def _sandwiches(circuit: QuantumCircuit, control: int) -> int:
    """Append ``cx(control, t) . d(t) . cx(control, t)`` for a target in
    every segment, each with ``d`` uncontrolled, under an in-block control
    and under a non-local one; returns how many were appended."""

    count = 0
    for segment in SANDWICH_SEGMENTS.values():
        target = next(q for q in segment if q != control)
        spare = [q for q in range(7) if q not in (control, target)]
        local = next(q for q in spare if q < 3)
        outer = next(q for q in spare if q >= 3)
        for name, controls in (("rz", ()), ("p", (local,)), ("rz", (outer,))):
            circuit.cx(control, target)
            circuit.add(name, target, controls=controls, params=(0.3 + 0.1 * count,))
            circuit.cx(control, target)
            count += 1
    return count


class TestSandwichesOnEveryTier:
    """A parity-phase step is bit-identical to its three gates, wherever its
    two qubits lie and whatever extra control ``d`` carries."""

    def _check(self, tier, circuit: QuantumCircuit, sandwiches: int):
        """Run *circuit* fused and gate by gate; returns the fused report."""

        dense = simulate_statevector(circuit)
        for fusion in (False, True):
            config = tier(num_ranks=4, block_amplitudes=8, fusion_enabled=fusion)
            with CompressedSimulator(7, config) as simulator:
                steps = [
                    step
                    for element in simulator.prepare_gates(circuit)
                    for step in constituents(element)
                ]
                parity_steps = sum(isinstance(step, ParityPhase) for step in steps)
                assert parity_steps == (sandwiches if fusion else 0)
                report = simulator.apply_circuit(circuit)
                assert np.array_equal(simulator.statevector(), dense)
        return report

    @pytest.mark.parametrize("segment", list(SANDWICH_SEGMENTS))
    def test_sandwich_at_every_locality_matches_dense_and_gate_by_gate(
        self, tier, segment
    ):
        circuit = QuantumCircuit(7)
        for qubit in range(7):
            circuit.ry(0.2 + 0.3 * qubit, qubit)
        count = _sandwiches(circuit, SANDWICH_SEGMENTS[segment][0])
        for qubit in range(7):
            circuit.h(qubit)
        count += _sandwiches(circuit, SANDWICH_SEGMENTS[segment][-1])
        self._check(tier, circuit, count)

    def test_control_on_a_block_bit_keeps_identical_blocks_apart(self, tier):
        # After h on every qubit all 16 blocks are byte-identical; c = 3 is a
        # block-index bit, so blocks on its two sides must come out
        # different — grouping and the cache key read that bit.
        circuit = QuantumCircuit(7)
        for qubit in range(7):
            circuit.h(qubit)
        for target in (0, 4, 6):
            circuit.cx(3, target).rz(0.7, target).cx(3, target)
        report = self._check(tier, circuit, 3)
        # The in-block h's and the h on qubit 3 that takes them over, the h
        # on qubits 4 and 5, and the h on qubit 6 the three sandwiches ride.
        assert report.gates_executed == 1 + 1 + 1 + 1
        assert report.duplicate_tasks > 0


class TestRidersOnEveryTier:
    """One-block steps riding a pair run are applied to each staged block at
    its own index, on an intra-rank pair and on a cross-rank pair."""

    @pytest.mark.parametrize("target", [4, 6], ids=["intra-rank", "cross-rank"])
    def test_riders_around_a_pair_step_match_dense_on_every_tier(self, tier, target):
        # 7 qubits, 4 ranks, 8-amplitude blocks: qubits 0-2 in-block, 3-4
        # block, 5-6 rank.  *other* is a non-local qubit off the target.
        other = 3 if target == 6 else 5
        circuit = QuantumCircuit(7)
        for qubit in range(7):
            circuit.ry(0.2 + 0.3 * qubit, qubit)
        # A pair under a non-local control takes no rider: the riders after
        # it open a one-block run that the uncontrolled pair step takes over.
        circuit.add("ry", target, controls=(other,), params=(0.5,))

        def riders(angle: float) -> None:
            # An in-block gate under the pair's target bit, diagonals under a
            # block control (one on the pair's target), and a parity phase
            # on x_1 xor x_target.
            circuit.add("ry", 1, controls=(target, 0), params=(angle,))
            circuit.add("p", 2, controls=(other,), params=(angle,))
            circuit.cp(angle + 0.1, other, target)
            circuit.cx(1, target).rz(angle + 0.2, target).cx(1, target)

        riders(0.3)
        circuit.h(target)
        riders(0.7)
        circuit.ry(0.9, target)

        dense = simulate_statevector(circuit)
        rider_names = ["ry", "p", "p", "parity(x+rz+x)"]
        blobs = {}
        for name, config in (
            ("sequential", tier_config("sequential", 4, 8)),
            ("tier", tier(num_ranks=4, block_amplitudes=8)),
        ):
            with CompressedSimulator(7, config) as simulator:
                elements = simulator.prepare_gates(circuit)
                names = [step.name for step in constituents(elements[-1])]
                assert names == rider_names + ["h"] + rider_names + ["ry"]
                simulator.apply_circuit(circuit)
                state = simulator.statevector()
                assert np.array_equal(state.view(np.float64), dense.view(np.float64))
                blobs[name] = [
                    (entry.blob, entry.compressor)
                    for _, entry in simulator.state.iter_blocks()
                ]
        assert blobs["tier"] == blobs["sequential"]


class TestRunsLossless:
    def test_runs_share_round_trips(self, simulator_config):
        circuit = qft_circuit(NUM_QUBITS)
        reports = {}
        for fusion in (False, True):
            config = simulator_config(
                num_ranks=2,
                block_amplitudes=16,
                use_block_cache=False,
                fusion_enabled=fusion,
            )
            with CompressedSimulator(NUM_QUBITS, config) as simulator:
                reports[fusion] = simulator.apply_circuit(circuit)
        fused, seed = reports[True], reports[False]
        assert fused.fusion_gates_in == len(circuit)
        assert fused.gates_executed == fused.fusion_gates_out < len(circuit)
        assert fused.compress_calls == fused.decompress_calls
        assert fused.compress_calls < seed.compress_calls
        assert fused.tasks_executed < seed.tasks_executed


def _snapshot_first_escalation(simulator) -> list:
    """Record (gate count, peak footprint, min ratio) when *simulator* first
    escalates — a run taken gate by gate escalates inside ``apply_gate``."""

    taken: list = []
    escalate = simulator.controller.maybe_escalate

    def recording(footprint_bytes: int, gate_index: int) -> bool:
        escalated = escalate(footprint_bytes, gate_index)
        if escalated and not taken:
            report = simulator.report()
            taken.append(
                (gate_index, report.peak_footprint_bytes, report.min_compression_ratio)
            )
        return escalated

    simulator.controller.maybe_escalate = recording
    return taken


class TestRunsUnderBudget:
    """Lossless under a budget, a run is checked gate by gate."""

    def test_first_escalation_matches_gate_by_gate(self, simulator_config):
        # A depth-1 QAOA under a budget that falls inside one of its runs.
        graph = random_regular_graph(8, 3, seed=1)
        circuit = qaoa_maxcut_circuit(graph, [0.6], [0.4])
        config = simulator_config(
            num_ranks=2, block_amplitudes=32, memory_budget_bytes=2_600
        )
        with CompressedSimulator(8, config) as batched, CompressedSimulator(
            8, config
        ) as stepped:
            at_first = {
                name: _snapshot_first_escalation(simulator)
                for name, simulator in (("batched", batched), ("stepped", stepped))
            }
            elements = batched.prepare_gates(circuit)
            for element in elements:
                batched.apply_gate(element)
                for gate in constituents(element):
                    stepped.apply_gate(gate)
            # Up to and including the first escalation the two histories are
            # one: same event, same gate count, same footprint/ratio extremes.
            assert batched.controller.events[0] == stepped.controller.events[0]
            assert at_first["batched"] == at_first["stepped"] != []
            # The budget bit inside a run, not at an element boundary ...
            index = batched.controller.events[0].gate_index
            before = 0
            for run in elements:
                if before + len(constituents(run)) >= index:
                    break
                before += len(constituents(run))
            assert isinstance(run, Run)
            assert before < index < before + len(run.gates)
            # ... and from there on runs are single round trips again.
            assert batched.gate_count < stepped.gate_count
            dense = simulate_statevector(circuit)
            assert batched.fidelity_vs(dense) >= batched.report().fidelity_lower_bound
            assert (
                batched.report().fidelity_lower_bound
                >= stepped.report().fidelity_lower_bound
            )

    def test_without_a_budget_a_lossless_run_is_one_round_trip(self, simulator_config):
        circuit = qft_circuit(8)
        config = simulator_config(num_ranks=2, block_amplitudes=32)
        with CompressedSimulator(8, config) as simulator:
            report = simulator.apply_circuit(circuit)
        assert report.gates_executed == report.fusion_gates_out < len(circuit)


class TestDifferentialLossy:
    @given(circuit=fusion_heavy_circuits())
    @settings(max_examples=6, deadline=None)
    def test_within_fidelity_bound_across_compressors(
        self, circuit, compressor_name, simulator_config
    ):
        bounds = []
        for fusion, workers in ((False, 1), (True, 2)):
            config = simulator_config(
                num_ranks=2,
                block_amplitudes=16,
                start_lossless=False,
                lossy_compressor=compressor_name,
                error_levels=(1e-3,),
                fusion_enabled=fusion,
                num_workers=workers,
            )
            with CompressedSimulator(NUM_QUBITS, config) as simulator:
                report = simulator.apply_circuit(circuit)
                dense = simulate_statevector(circuit)
                fidelity = simulator.fidelity_vs(dense)
                assert fidelity >= report.fidelity_lower_bound - 1e-12
                bounds.append(report.fidelity_lower_bound)
        # Runs only ever remove recompressions.
        assert bounds[1] >= bounds[0]

    def test_fusion_tightens_lossy_fidelity_bound(self, simulator_config):
        # Fewer executed gates = fewer lossy recompressions = a tighter
        # Π(1 - δ) bound.  The measured fidelity must respect both bounds.
        circuit = _chain_circuit(NUM_QUBITS)
        bounds = {}
        for fusion in (False, True):
            config = simulator_config(
                num_ranks=1,
                block_amplitudes=16,
                start_lossless=False,
                error_levels=(1e-3,),
                fusion_enabled=fusion,
            )
            with CompressedSimulator(NUM_QUBITS, config) as simulator:
                report = simulator.apply_circuit(circuit)
                bounds[fusion] = report.fidelity_lower_bound
        assert bounds[True] > bounds[False]


# ---------------------------------------------------------------------------
# Round-trip accounting
# ---------------------------------------------------------------------------


class TestRoundTripAccounting:
    def test_fusion_reduces_compressor_invocations(self, simulator_config):
        circuit = _chain_circuit(NUM_QUBITS)
        calls = {}
        for fusion in (False, True):
            config = simulator_config(
                num_ranks=2,
                block_amplitudes=8,
                use_block_cache=False,
                fusion_enabled=fusion,
            )
            with CompressedSimulator(NUM_QUBITS, config) as simulator:
                report = simulator.apply_circuit(circuit)
                calls[fusion] = report.compress_calls
                assert report.compress_calls == report.decompress_calls
        assert calls[False] >= 2 * calls[True]

    def test_fusion_report_fields(self, simulator_config):
        circuit = _chain_circuit(NUM_QUBITS)
        config = simulator_config(num_ranks=1, block_amplitudes=16, fusion_enabled=True)
        with CompressedSimulator(NUM_QUBITS, config) as simulator:
            report = simulator.apply_circuit(circuit)
        assert report.fusion_gates_in == len(circuit)
        assert report.fusion_gates_out == report.gates_executed
        assert report.fusion_gates_out < report.fusion_gates_in
        assert report.tasks_executed > 0


# ---------------------------------------------------------------------------
# sample_counts determinism (regression: pinned block iteration order)
# ---------------------------------------------------------------------------


class TestSampleCountsDeterminism:
    def test_identical_counts_across_runs(self, simulator_config):
        config = simulator_config(num_ranks=2, block_amplitudes=16)
        simulator = CompressedSimulator(8, config)
        simulator.apply_circuit(qft_circuit(8))
        first = simulator.sample_counts(500, np.random.default_rng(99))
        second = simulator.sample_counts(500, np.random.default_rng(99))
        assert first == second

    def test_identical_counts_across_tiers_and_fusion(self, simulator_config):
        # Neither the tier (the same kernel, deterministic compressors) nor,
        # under lossless compression, fusion (a run applies its gates' own
        # steps in order) can change the stored blocks, so a seeded
        # generator must yield the same counts for every combination.
        counts = []
        for fusion in (False, True):
            for workers in (1, 2):
                config = simulator_config(
                    num_ranks=2,
                    block_amplitudes=16,
                    fusion_enabled=fusion,
                    num_workers=workers,
                )
                with CompressedSimulator(8, config) as simulator:
                    simulator.apply_circuit(_chain_circuit(8))
                    counts.append(
                        simulator.sample_counts(300, np.random.default_rng(7))
                    )
        assert all(c == counts[0] for c in counts)


# ---------------------------------------------------------------------------
# Block cache under run op-keys
# ---------------------------------------------------------------------------


class TestCacheWithRunOpKeys:
    def _op_key(self, gate, compressor) -> tuple:
        return gate.key() + (compressor.describe(),)

    def test_run_and_constituents_use_distinct_lines(self):
        compressor = get_compressor("lossless")
        h = standard_gate("h", 0)
        t = standard_gate("t", 0)
        run = Run((h, t))
        blob = b"compressed-block"
        cache = BlockCache(lines=8, miss_disable_threshold=None)

        cache.insert(self._op_key(run, compressor), blob, b"run-out")
        # Neither constituent may alias the run's line (or each other).
        assert cache.lookup(self._op_key(h, compressor), blob) is None
        assert cache.lookup(self._op_key(t, compressor), blob) is None
        assert cache.lookup(self._op_key(run, compressor), blob) == (b"run-out",)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.insertions == 1

    def test_two_runs_with_same_name_but_different_matrices(self):
        compressor = get_compressor("lossless")
        run_a = Run((standard_gate("rz", 0, params=(0.1,)), standard_gate("h", 0)))
        run_b = Run((standard_gate("rz", 0, params=(0.2,)), standard_gate("h", 0)))
        assert run_a.name == run_b.name
        cache = BlockCache(lines=8, miss_disable_threshold=None)
        blob = b"block"
        cache.insert(self._op_key(run_a, compressor), blob, b"out-a")
        # Same mnemonics, different step matrix: must miss.
        assert cache.lookup(self._op_key(run_b, compressor), blob) is None

    def test_hit_miss_accounting_with_fusion_enabled(self, simulator_config):
        # GHZ keeps blocks identical.  Each plan's identical tasks are
        # grouped before the cache, and the report mirrors the cache's own
        # counts.
        config = simulator_config(num_ranks=2, block_amplitudes=16, fusion_enabled=True)
        with CompressedSimulator(8, config) as simulator:
            report = simulator.apply_circuit(ghz_circuit(8))
            cache = simulator.cache
            assert cache is not None
            assert cache.stats.hits == report.cache_hits
            assert cache.stats.misses == report.cache_misses
        assert report.duplicate_tasks > 0

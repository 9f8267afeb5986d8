"""Unit tests for the gate planner."""

from __future__ import annotations

import dataclasses
import importlib

import numpy as np
import pytest

from repro.circuits import ParityPhase, Run, standard_gate
import repro.core.kernel
import repro.distributed
from repro.core import CompressedSimulator, SimulatorConfig
from repro.distributed import (
    GatePlan,
    Partition,
    ProcessCommunicator,
    QubitSegment,
    plan_gate,
)


def test_the_report_is_the_only_traffic_ledger():
    # The parent-side communicator that duplicated the report's counters,
    # its modelled interconnect and the norm allreduce are gone (v1.18.0).
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.distributed.comm")
    for name in ("SimulatedCommunicator", "aggregate_rank_stats"):
        assert not hasattr(repro.distributed, name)
    assert not hasattr(ProcessCommunicator, "allreduce_sum")
    assert not hasattr(CompressedSimulator, "comm")
    with pytest.raises(TypeError, match="comm"):
        CompressedSimulator(4, comm=object())


def test_a_plan_is_index_tasks_plus_its_op():
    # The task type, the plan's own copy of the op's per-step fields and the
    # Partition helpers nothing called are gone (v1.24.0).
    assert not hasattr(repro.distributed, "BlockTask")
    assert "BlockTask" not in repro.distributed.__all__
    assert repro.distributed.BlockOp is repro.core.kernel.BlockOp
    fields = {field.name for field in dataclasses.fields(GatePlan)}
    assert fields == {"segment", "tasks", "staged", "op", "exchange_count"}
    for name in (
        "local_bit", "block_bit", "rank_bit", "rank_of", "block_pairs", "rank_pairs"
    ):
        assert not hasattr(Partition, name)


class TestGatePlanner:
    def setup_method(self):
        # 8 qubits, 4 ranks, 16-amplitude blocks:
        # offsets bits 0-3, block bits 4-5 wait -> blocks_per_rank = 64/16 = 4
        # offsets = bits 0-3, block index = bits 4-5, rank = bits 6-7.
        self.partition = Partition(num_qubits=8, num_ranks=4, block_amplitudes=16)

    def test_local_gate_touches_every_block_once(self):
        plan = plan_gate(self.partition, standard_gate("h", 2))
        assert plan.segment is QubitSegment.LOCAL
        assert len(plan.tasks) == self.partition.total_blocks
        assert plan.tasks == tuple((i,) for i in range(self.partition.total_blocks))
        assert plan.exchange_count == 0

    def test_block_gate_pairs_blocks_within_rank(self):
        plan = plan_gate(self.partition, standard_gate("h", 4))
        assert plan.segment is QubitSegment.BLOCK
        assert len(plan.tasks) == self.partition.num_ranks * 2  # 4 blocks -> 2 pairs
        per_rank = self.partition.blocks_per_rank
        for first, second in plan.tasks:
            (r1, b1), (r2, b2) = divmod(first, per_rank), divmod(second, per_rank)
            assert r1 == r2
            assert b2 == b1 | 1  # block bit 0
        assert plan.exchange_count == 0

    def test_rank_gate_pairs_ranks_and_counts_exchanges(self):
        plan = plan_gate(self.partition, standard_gate("h", 6))
        assert plan.segment is QubitSegment.RANK
        per_rank = self.partition.blocks_per_rank
        # Qubit 6 is rank bit 0: every pair joins rank r to rank r | 1.
        for first, second in plan.tasks:
            assert second == first | 1 << 2
            assert second // per_rank == first // per_rank | 1 != first // per_rank
        # 4 ranks -> 2 rank pairs, each exchanging every one of 4 blocks.
        assert len(plan.tasks) == 2 * 4
        assert plan.exchange_count == 8

    def test_local_control_is_deferred_to_executor(self):
        plan = plan_gate(self.partition, standard_gate("x", 5, controls=(1,)))
        assert plan.op.local_controls == ((1,),)
        # No pruning happened: control is below the block boundary.
        assert len(plan.tasks) == self.partition.num_ranks * 2

    def test_block_control_prunes_half_the_blocks(self):
        # Control on qubit 4 (block bit 0): only blocks with bit0 = 1 update.
        plan = plan_gate(self.partition, standard_gate("x", 0, controls=(4,)))
        assert plan.segment is QubitSegment.LOCAL
        assert len(plan.tasks) == self.partition.total_blocks // 2
        for (index,) in plan.tasks:
            _, block = divmod(index, self.partition.blocks_per_rank)
            assert block & 0b01

    def test_rank_control_prunes_half_the_ranks(self):
        plan = plan_gate(self.partition, standard_gate("x", 0, controls=(6,)))
        assert len(plan.tasks) == self.partition.total_blocks // 2
        for (index,) in plan.tasks:
            rank, _ = divmod(index, self.partition.blocks_per_rank)
            assert rank & 0b01

    def test_toffoli_with_mixed_controls(self):
        # Controls: one local (qubit 2), one rank-level (qubit 7); target block-level.
        gate = standard_gate("x", 5, controls=(2, 7))
        plan = plan_gate(self.partition, gate)
        assert plan.op.local_controls == ((2,),)
        for first, _ in plan.tasks:
            rank, _ = divmod(first, self.partition.blocks_per_rank)
            assert rank & 0b10  # rank bit 1 (qubit 7) must be set

    @pytest.mark.parametrize(
        "element",
        [
            standard_gate("h", 9),  # a mixing target: the staged qubit
            standard_gate("h", 8),  # the first qubit past the partition
            standard_gate("rz", 9, params=(0.3,)),  # a diagonal, one-block
            standard_gate("x", 0, controls=(8,)),  # a control
            ParityPhase(
                (
                    standard_gate("x", 2, controls=(8,)),
                    standard_gate("rz", 2, params=(0.3,)),
                    standard_gate("x", 2, controls=(8,)),
                )
            ),  # a parity phase's control
            Run((standard_gate("h", 7), standard_gate("t", 1, controls=(8,)))),
        ],
        ids=["mixing", "first-past", "diagonal", "control", "parity", "rider"],
    )
    def test_gate_outside_partition_rejected(self, element):
        with pytest.raises(ValueError, match="outside the 8-qubit partition"):
            plan_gate(self.partition, element)

    @pytest.mark.parametrize("qubit", [2, 4, 6])  # local / block / rank target
    def test_the_plan_builds_the_op_the_simulator_runs(self, qubit, monkeypatch):
        # Everything but the compressor: the simulator sets it and appends
        # its describe() to the key, and changes nothing else.
        gate = standard_gate("ry", qubit, controls=(1, 5), params=(0.3,))
        plan = plan_gate(self.partition, gate)
        assert np.array_equal(plan.op.matrices, gate.matrix[None])
        assert plan.op.compressor is None and plan.op.op_key == gate.key()
        ran = []
        config = SimulatorConfig(num_ranks=4, block_amplitudes=16)
        with CompressedSimulator(8, config) as simulator:
            run_plan = simulator.state.run_plan
            monkeypatch.setattr(
                simulator.state,
                "run_plan",
                lambda op, plan, report: ran.append(op) or run_plan(op, plan, report),
            )
            simulator.apply_gate(gate)
        (op,) = ran
        describe = op.compressor.describe()
        assert op.op_key == plan.op.op_key + (describe,)
        assert op._replace(compressor=None, op_key=gate.key())[1:] == plan.op[1:]
        assert np.array_equal(op.matrices, plan.op.matrices)

    def test_touched_buffers_property(self):
        local = plan_gate(self.partition, standard_gate("h", 0))
        paired = plan_gate(self.partition, standard_gate("h", 7))
        assert local.touched_buffers == self.partition.total_blocks
        assert paired.touched_buffers == 2 * len(paired.tasks)

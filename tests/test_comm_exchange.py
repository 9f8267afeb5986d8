"""Unit tests for the gate planner."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.circuits import standard_gate
import repro.distributed
from repro.core import CompressedSimulator
from repro.distributed import Partition, ProcessCommunicator, QubitSegment, plan_gate


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
        assert all(task.second is None for task in plan.tasks)
        assert plan.exchange_count == 0

    def test_block_gate_pairs_blocks_within_rank(self):
        plan = plan_gate(self.partition, standard_gate("h", 4))
        assert plan.segment is QubitSegment.BLOCK
        assert len(plan.tasks) == self.partition.num_ranks * 2  # 4 blocks -> 2 pairs
        for task in plan.tasks:
            (r1, b1), (r2, b2) = task.first, task.second
            assert r1 == r2
            assert b2 == b1 | 1  # block bit 0
            assert not task.crosses_ranks

    def test_rank_gate_pairs_ranks_and_counts_exchanges(self):
        plan = plan_gate(self.partition, standard_gate("h", 6))
        assert plan.segment is QubitSegment.RANK
        assert all(task.crosses_ranks for task in plan.tasks)
        # 4 ranks -> 2 rank pairs, each exchanging every one of 4 blocks.
        assert len(plan.tasks) == 2 * 4
        assert plan.exchange_count == 8

    def test_local_control_is_deferred_to_executor(self):
        plan = plan_gate(self.partition, standard_gate("x", 5, controls=(1,)))
        assert plan.local_controls == ((1,),)
        # No pruning happened: control is below the block boundary.
        assert len(plan.tasks) == self.partition.num_ranks * 2

    def test_block_control_prunes_half_the_blocks(self):
        # Control on qubit 4 (block bit 0): only blocks with bit0 = 1 update.
        plan = plan_gate(self.partition, standard_gate("x", 0, controls=(4,)))
        assert plan.segment is QubitSegment.LOCAL
        assert len(plan.tasks) == self.partition.total_blocks // 2
        for task in plan.tasks:
            _, block = task.first
            assert block & 0b01

    def test_rank_control_prunes_half_the_ranks(self):
        plan = plan_gate(self.partition, standard_gate("x", 0, controls=(6,)))
        assert len(plan.tasks) == self.partition.total_blocks // 2
        for task in plan.tasks:
            rank, _ = task.first
            assert rank & 0b01

    def test_toffoli_with_mixed_controls(self):
        # Controls: one local (qubit 2), one rank-level (qubit 7); target block-level.
        gate = standard_gate("x", 5, controls=(2, 7))
        plan = plan_gate(self.partition, gate)
        assert plan.local_controls == ((2,),)
        for task in plan.tasks:
            rank, _ = task.first
            assert rank & 0b10  # rank bit 1 (qubit 7) must be set

    def test_gate_outside_partition_rejected(self):
        with pytest.raises(ValueError):
            plan_gate(self.partition, standard_gate("h", 9))

    def test_touched_buffers_property(self):
        local = plan_gate(self.partition, standard_gate("h", 0))
        paired = plan_gate(self.partition, standard_gate("h", 7))
        assert local.touched_buffers == self.partition.total_blocks
        assert paired.touched_buffers == 2 * len(paired.tasks)

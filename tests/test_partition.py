"""Unit tests for the rank/block partition (Figure 3 index arithmetic)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed import Partition, QubitSegment


class TestConstruction:
    def test_basic_properties(self):
        partition = Partition(num_qubits=10, num_ranks=4, block_amplitudes=64)
        assert partition.total_amplitudes == 1024
        assert partition.amplitudes_per_rank == 256
        assert partition.blocks_per_rank == 4
        assert partition.total_blocks == 16
        assert partition.offset_bits == 6
        assert partition.block_bits == 2
        assert partition.rank_bits == 2
        assert partition.block_bytes == 64 * 16
        assert partition.uncompressed_bytes() == 1024 * 16

    def test_single_rank_single_block(self):
        partition = Partition(num_qubits=4, num_ranks=1, block_amplitudes=16)
        assert partition.blocks_per_rank == 1
        assert partition.rank_bits == 0
        assert partition.block_bits == 0

    def test_non_power_of_two_ranks_rejected(self):
        with pytest.raises(ValueError):
            Partition(num_qubits=8, num_ranks=3, block_amplitudes=16)

    def test_non_power_of_two_block_rejected(self):
        with pytest.raises(ValueError):
            Partition(num_qubits=8, num_ranks=2, block_amplitudes=24)

    def test_block_larger_than_rank_slice_rejected(self):
        with pytest.raises(ValueError):
            Partition(num_qubits=6, num_ranks=4, block_amplitudes=32)

    def test_more_ranks_than_amplitudes_rejected(self):
        with pytest.raises(ValueError):
            Partition(num_qubits=2, num_ranks=8, block_amplitudes=1)

    def test_describe_mentions_geometry(self):
        text = Partition(8, 2, 32).describe()
        assert "8 qubits" in text and "2 rank" in text


class TestSegmentClassification:
    def test_segments_follow_figure3(self):
        # 10 qubits, 4 ranks, 64-amplitude blocks:
        # offsets = bits 0-5, block index = bits 6-7, rank = bits 8-9.
        partition = Partition(num_qubits=10, num_ranks=4, block_amplitudes=64)
        for qubit in range(6):
            assert partition.segment_of(qubit) is QubitSegment.LOCAL
        for qubit in (6, 7):
            assert partition.segment_of(qubit) is QubitSegment.BLOCK
        for qubit in (8, 9):
            assert partition.segment_of(qubit) is QubitSegment.RANK

    def test_all_local_when_single_block_single_rank(self):
        partition = Partition(num_qubits=5, num_ranks=1, block_amplitudes=32)
        assert all(
            partition.segment_of(q) is QubitSegment.LOCAL for q in range(5)
        )

    def test_out_of_range_qubit(self):
        partition = Partition(num_qubits=10, num_ranks=4, block_amplitudes=64)
        with pytest.raises(ValueError):
            partition.segment_of(10)


class TestIndexArithmetic:
    def test_global_index_and_locate_are_inverses(self):
        partition = Partition(num_qubits=9, num_ranks=2, block_amplitudes=32)
        for global_index in range(partition.total_amplitudes):
            rank, block, offset = partition.locate(global_index)
            assert partition.global_index(rank, block, offset) == global_index

    def test_locate_bounds(self):
        partition = Partition(num_qubits=6, num_ranks=2, block_amplitudes=8)
        with pytest.raises(ValueError):
            partition.locate(64)
        with pytest.raises(ValueError):
            partition.global_index(2, 0, 0)
        with pytest.raises(ValueError):
            partition.global_index(0, 99, 0)
        with pytest.raises(ValueError):
            partition.global_index(0, 0, 8)


class TestPairEnumeration:
    def test_pair_global_indices_differ_only_in_target_bit(self):
        partition = Partition(num_qubits=9, num_ranks=4, block_amplitudes=16)
        qubit = 7  # a rank-segment qubit (rank bits are 7, 8)
        assert partition.segment_of(qubit) is QubitSegment.RANK
        bit = qubit - partition.offset_bits - partition.block_bits
        pairs = [(r, r ^ 1 << bit) for r in range(partition.num_ranks) if not r >> bit & 1]
        assert pairs == [(0, 1), (2, 3)]
        for rank0, rank1 in pairs:
            for block in range(partition.blocks_per_rank):
                for offset in (0, 5, 15):
                    i0 = partition.global_index(rank0, block, offset)
                    i1 = partition.global_index(rank1, block, offset)
                    assert i1 == i0 | (1 << qubit)

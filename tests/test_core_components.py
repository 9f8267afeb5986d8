"""Unit tests for the core building blocks: config, blocks, cache, adaptive,
fidelity and report."""

from __future__ import annotations

import dataclasses
import logging
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.compression import LosslessCompressor, XorBitplaneCompressor
from repro.core import (
    AdaptiveErrorController,
    BlockCache,
    BlockStore,
    CompressedBlock,
    CompressedStateVector,
    FidelityTracker,
    ScratchPool,
    SimulationReport,
    SimulatorConfig,
    fidelity_curve,
    fidelity_lower_bound,
)
from repro.distributed import Partition


class TestSimulatorConfig:
    def test_defaults_are_paper_levels(self):
        config = SimulatorConfig()
        assert config.error_levels == (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)
        assert config.lossy_compressor == "xor-bitplane"
        # The cache runs at the paper's constants; they are not fields.
        fields = {field.name for field in dataclasses.fields(SimulatorConfig)}
        assert len(fields) == 16
        assert not fields & {"cache_lines", "cache_miss_disable_threshold"}
        cache = BlockCache()
        assert cache.lines == 64
        for miss in range(256):
            assert cache.enabled
            cache.lookup(("op", miss), b"x", None)
        assert not cache.enabled

    def test_rejects_non_power_of_two_ranks(self):
        with pytest.raises(ValueError):
            SimulatorConfig(num_ranks=3)

    def test_rejects_unsorted_levels(self):
        with pytest.raises(ValueError):
            SimulatorConfig(error_levels=(1e-1, 1e-3))

    def test_rejects_nonpositive_levels(self):
        with pytest.raises(ValueError):
            SimulatorConfig(error_levels=(0.0, 1e-3))

    def test_rejects_bad_block_amplitudes(self):
        with pytest.raises(ValueError):
            SimulatorConfig(block_amplitudes=3)

    def test_resolve_block_amplitudes_explicit(self):
        config = SimulatorConfig(num_ranks=2, block_amplitudes=32)
        assert config.resolve_block_amplitudes(10, 2) == 32

    def test_resolve_block_amplitudes_auto(self):
        config = SimulatorConfig(num_ranks=4)
        resolved = config.resolve_block_amplitudes(12, 4)
        # 2^12 / 4 ranks = 1024 per rank -> four blocks of 256.
        assert resolved == 256

    def test_resolve_rejects_oversized_block(self):
        config = SimulatorConfig(num_ranks=4, block_amplitudes=1 << 12)
        with pytest.raises(ValueError):
            config.resolve_block_amplitudes(12, 4)


class TestBlockStore:
    def setup_method(self):
        self.partition = Partition(num_qubits=6, num_ranks=2, block_amplitudes=8)
        self.store = BlockStore(self.partition)

    def test_put_get_roundtrip(self):
        block = CompressedBlock(blob=b"abc", compressor="lossless", bound=0.0)
        self.store.put(1, 2, block)
        assert self.store.get(1, 2).blob == b"abc"

    def test_get_uninitialised_raises(self):
        with pytest.raises(KeyError):
            self.store.get(0, 0)

    def test_memory_accounting(self):
        for rank in range(2):
            for block in range(self.partition.blocks_per_rank):
                self.store.put(
                    rank, block, CompressedBlock(b"x" * 10, "lossless", 0.0)
                )
        assert self.store.compressed_bytes() == 10 * self.partition.total_blocks

    def test_state_footprint_is_eq8(self):
        state = CompressedStateVector(self.partition, LosslessCompressor())
        expected_scratch = 2 * self.partition.block_bytes * 2
        assert state.footprint_bytes() == state.compressed_bytes() + expected_scratch
        assert state.compression_ratio() == pytest.approx(
            self.partition.uncompressed_bytes() / state.compressed_bytes()
        )


class TestScratchPool:
    def test_fill_complex_roundtrip(self, rng):
        pool = ScratchPool(block_amplitudes=16)
        values = rng.normal(size=32)  # float64 view of 16 complex amplitudes
        buffer = pool.fill(pool.buffers[0], values)
        assert buffer is pool.buffers[0]
        assert buffer.dtype == np.complex128
        assert np.array_equal(buffer.view(np.float64), values)

    def test_fill_wrong_size_rejected(self, rng):
        pool = ScratchPool(block_amplitudes=16)
        with pytest.raises(ValueError):
            pool.fill(pool.buffers[0], rng.normal(size=10))

    def test_two_buffers_per_rank(self):
        # Eq. 8: at most two decompressed blocks per rank at any time.
        pool = ScratchPool(block_amplitudes=4)
        assert len(pool.buffers) == 2
        assert pool.buffers[0] is not pool.buffers[1]
        assert all(buffer.shape == (4,) for buffer in pool.buffers)

    @pytest.mark.skipif(
        platform.libc_ver()[0] != "glibc", reason="the heap is told to stay via glibc"
    )
    def test_task_temporaries_are_not_faulted_in_again(self):
        # A fresh interpreter, so the heap has no history: with glibc's
        # defaults every round below trims the heap top and grows it again
        # (about 29 000 minor faults); after a pool exists it stays mapped.
        script = """
import resource
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from repro.core import ScratchPool

ScratchPool(block_amplitudes=4096)

def task():
    temporaries = [np.ones(8192) for _ in range(16)]  # one codec call's worth
    del temporaries

for _ in range(5):
    task()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(200):
    task()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        done = subprocess.run(
            [sys.executable, "-c", script, str(Path(repro.__file__).parents[1])],
            capture_output=True,
            text=True,
            check=True,
        )
        assert int(done.stdout) < 1000


class TestBlockCache:
    def test_hit_after_insert(self):
        cache = BlockCache(lines=4)
        cache.insert(("h", 0), b"in1", b"in2", b"out1", b"out2")
        assert cache.lookup(("h", 0), b"in1", b"in2") == (b"out1", b"out2")
        assert cache.stats.hits == 1

    def test_miss_on_different_operation(self):
        cache = BlockCache(lines=4)
        cache.insert(("h", 0), b"in1", None, b"out1", None)
        assert cache.lookup(("x", 0), b"in1", None) is None

    def test_miss_on_different_blob(self):
        cache = BlockCache(lines=4)
        cache.insert(("h", 0), b"in1", None, b"out1", None)
        assert cache.lookup(("h", 0), b"in2", None) is None

    def test_lru_eviction(self):
        cache = BlockCache(lines=2, miss_disable_threshold=None)
        cache.insert(("op", 1), b"a", None, b"ra", None)
        cache.insert(("op", 2), b"b", None, b"rb", None)
        cache.lookup(("op", 1), b"a", None)  # touch "a" so "b" is LRU
        cache.insert(("op", 3), b"c", None, b"rc", None)
        assert cache.lookup(("op", 2), b"b", None) is None  # evicted
        assert cache.lookup(("op", 1), b"a", None) is not None
        assert cache.stats.evictions == 1

    def test_auto_disable_after_pure_misses(self):
        cache = BlockCache(lines=4, miss_disable_threshold=5)
        for i in range(5):
            assert cache.lookup(("op", i), f"{i}".encode(), None) is None
        assert not cache.enabled
        # Once disabled, inserts and lookups are no-ops.
        cache.insert(("op", 0), b"0", None, b"r", None)
        assert len(cache) == 0
        assert cache.lookup(("op", 0), b"0", None) is None

    def test_self_disable_is_logged_once(self, caplog):
        cache = BlockCache(lines=4, miss_disable_threshold=3)
        with caplog.at_level(logging.INFO, logger="repro.core.cache"):
            for i in range(6):
                cache.lookup(("op", i), b"x", None)
        assert [record.getMessage() for record in caplog.records] == [
            "block cache disabled itself: 0 hits in 3 lookups"
        ]

    def test_no_disable_when_hits_exist(self):
        cache = BlockCache(lines=4, miss_disable_threshold=3)
        cache.insert(("op", 0), b"a", None, b"r", None)
        cache.lookup(("op", 0), b"a", None)
        for i in range(10):
            cache.lookup(("op", i + 1), b"zzz", None)
        assert cache.enabled

    def test_reset_reenables_and_zeroes(self):
        cache = BlockCache(lines=2, miss_disable_threshold=1)
        cache.lookup(("op", 0), b"x", None)
        assert not cache.enabled
        cache.reset()
        assert cache.enabled
        assert cache.stats.as_dict() == BlockCache().stats.as_dict()
        cache.insert(("op", 0), b"x", None, b"r", None)
        assert len(cache) == 1

    def test_lines_are_keyed_on_exact_bytes(self):
        cache = BlockCache(lines=4, miss_disable_threshold=None)
        blob = bytes(range(64))
        op_key = ("h", (5,), (), "lossless", 0b01)
        cache.insert(op_key, blob, None, b"out", None)
        # Equal bytes in a different object hit.
        copy = bytes(bytearray(blob))
        assert copy is not blob
        assert cache.lookup(op_key, copy, None) == (b"out", None)
        # One byte off misses; so does the op key with other index bits.
        assert cache.lookup(op_key, blob[:-1] + b"\xff", None) is None
        assert cache.lookup(op_key[:-1] + (0b11,), blob, None) is None
        # The second blob is part of the key too.
        assert cache.lookup(op_key, blob, blob) is None
        assert (cache.stats.hits, cache.stats.misses) == (1, 3)

    def test_hit_rate(self):
        cache = BlockCache(lines=2, miss_disable_threshold=None)
        cache.insert(("op", 0), b"a", None, b"r", None)
        cache.lookup(("op", 0), b"a", None)
        cache.lookup(("op", 0), b"zz", None)
        assert cache.stats.hit_rate == pytest.approx(0.5)
        assert cache.stats.as_dict()["hits"] == 1

    def test_invalid_line_count(self):
        with pytest.raises(ValueError):
            BlockCache(lines=0)


class TestAdaptiveErrorController:
    def _config(self, budget=None, start_lossless=True):
        return SimulatorConfig(
            memory_budget_bytes=budget,
            start_lossless=start_lossless,
            error_levels=(1e-5, 1e-3, 1e-1),
        )

    def test_starts_lossless(self):
        controller = AdaptiveErrorController(self._config())
        assert controller.is_lossless
        assert controller.current_bound == 0.0
        assert isinstance(controller.compressor(), LosslessCompressor)

    def test_starts_lossy_when_configured(self):
        controller = AdaptiveErrorController(self._config(start_lossless=False))
        assert not controller.is_lossless
        assert controller.current_bound == 1e-5
        assert isinstance(controller.compressor(), XorBitplaneCompressor)

    def test_escalation_sequence(self):
        controller = AdaptiveErrorController(self._config(budget=1000))
        assert controller.maybe_escalate(2000, gate_index=1)
        assert controller.current_bound == 1e-5
        assert controller.maybe_escalate(2000, gate_index=2)
        assert controller.current_bound == 1e-3
        assert controller.maybe_escalate(2000, gate_index=3)
        assert controller.current_bound == 1e-1
        assert controller.exhausted
        assert not controller.maybe_escalate(2000, gate_index=4)
        assert len(controller.events) == 3
        assert controller.events[0].to_bound == 1e-5

    def test_escalations_are_logged(self, caplog):
        controller = AdaptiveErrorController(self._config(budget=1000))
        with caplog.at_level(logging.INFO, logger="repro.core.adaptive"):
            controller.maybe_escalate(500, gate_index=1)
            controller.maybe_escalate(2000, gate_index=7)
            controller.maybe_escalate(3000, gate_index=9)
        assert [
            (record.levelno, record.getMessage()) for record in caplog.records
        ] == [
            (
                logging.INFO,
                "error bound escalated at gate 7: 0 -> 1e-05 "
                "(footprint 2000 B over budget 1000 B)",
            ),
            (
                logging.INFO,
                "error bound escalated at gate 9: 1e-05 -> 0.001 "
                "(footprint 3000 B over budget 1000 B)",
            ),
        ]
        # The library only emits; where records go is the application's call.
        for name in (
            "repro",
            "repro.core",
            "repro.core.adaptive",
            "repro.core.cache",
            "repro.core.procpool",
            "repro.serve.queue",
        ):
            assert logging.getLogger(name).handlers == []

    def test_no_escalation_under_budget(self):
        controller = AdaptiveErrorController(self._config(budget=1000))
        assert not controller.maybe_escalate(500, gate_index=1)
        assert controller.is_lossless

    def test_no_budget_means_never_escalate(self):
        controller = AdaptiveErrorController(self._config(budget=None))
        assert not controller.over_budget(10**18)
        assert not controller.maybe_escalate(10**18, gate_index=1)

    def test_force_level(self):
        controller = AdaptiveErrorController(self._config())
        controller.force_level(1e-3)
        assert controller.current_bound == 1e-3
        controller.force_level(0.0)
        assert controller.is_lossless
        with pytest.raises(ValueError):
            controller.force_level(0.5)

    def test_compressor_instances_are_cached(self):
        controller = AdaptiveErrorController(self._config(start_lossless=False))
        assert controller.compressor() is controller.compressor()


class TestFidelity:
    def test_lower_bound_product(self):
        assert fidelity_lower_bound([0.0, 0.0]) == 1.0
        assert fidelity_lower_bound([1e-1, 1e-1]) == pytest.approx(0.81)

    def test_lower_bound_rejects_invalid(self):
        with pytest.raises(ValueError):
            fidelity_lower_bound([1.5])

    def test_curve_shape(self):
        curve = fidelity_curve(100, 1e-2)
        assert curve.shape == (101,)
        assert curve[0] == 1.0
        assert curve[-1] == pytest.approx((1 - 1e-2) ** 100)
        assert np.all(np.diff(curve) <= 0)

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            fidelity_curve(-1, 1e-2)
        with pytest.raises(ValueError):
            fidelity_curve(10, 1.0)

    def test_tracker_accumulates(self):
        tracker = FidelityTracker()
        tracker.record_gate(0.0)
        tracker.record_gate(1e-2)
        tracker.record_gate(1e-3)
        assert tracker.num_gates == 3
        assert tracker.num_lossy_gates == 2
        assert tracker.lower_bound == pytest.approx((1 - 1e-2) * (1 - 1e-3))
        history = tracker.history()
        assert history.shape == (3,)
        assert history[-1] == pytest.approx(tracker.lower_bound)

    def test_tracker_reset(self):
        tracker = FidelityTracker()
        tracker.record_gate(1e-1)
        tracker.reset()
        assert tracker.lower_bound == 1.0
        assert tracker.num_gates == 0

    def test_tracker_rejects_invalid_bound(self):
        tracker = FidelityTracker()
        with pytest.raises(ValueError):
            tracker.record_gate(1.0)

    def test_matches_paper_figure6_values(self):
        # Figure 6: at PWR=1e-3 after ~5000 gates the bound is ~e^-5 ≈ 0.0067;
        # at PWR=1e-5 it stays near 0.95.
        assert fidelity_lower_bound([1e-3] * 5000) == pytest.approx(
            (1 - 1e-3) ** 5000
        )
        assert fidelity_lower_bound([1e-5] * 5000) > 0.95
        assert fidelity_lower_bound([1e-1] * 100) < 1e-4


class TestSimulationReport:
    def test_time_buckets_and_breakdown(self):
        report = SimulationReport(num_qubits=4)
        report.add_time("compression", 1.0)
        report.add_time("decompression", 1.0)
        report.add_time("computation", 2.0)
        breakdown = report.breakdown()
        assert breakdown["compression"] == pytest.approx(0.25)
        assert breakdown["computation"] == pytest.approx(0.5)
        assert report.total_seconds == pytest.approx(4.0)

    def test_unknown_bucket_rejected(self):
        with pytest.raises(KeyError):
            SimulationReport().add_time("flux_capacitor", 1.0)

    def test_observers(self):
        report = SimulationReport()
        report.observe_ratio(10.0)
        report.observe_ratio(3.0)
        report.observe_ratio(7.0)
        assert report.min_compression_ratio == 3.0
        report.observe_footprint(100)
        report.observe_footprint(50)
        assert report.peak_footprint_bytes == 100

    def test_seconds_per_gate(self):
        report = SimulationReport()
        report.gates_executed = 4
        report.add_time("computation", 2.0)
        assert report.seconds_per_gate == pytest.approx(0.5)

    def test_empty_breakdown_is_zero(self):
        assert SimulationReport().breakdown()["compression"] == 0.0

    def test_as_dict_and_summary(self):
        report = SimulationReport(num_qubits=8, num_ranks=2, block_amplitudes=64)
        report.gates_executed = 10
        report.add_time("compression", 0.5)
        data = report.as_dict()
        assert data["num_qubits"] == 8
        assert "compression_fraction" in data
        assert "fidelity lower bound" in report.summary()

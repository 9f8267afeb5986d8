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
        assert len(fields) == 14
        assert not fields & {"cache_lines", "cache_miss_disable_threshold"}
        cache = BlockCache()
        assert cache.lines == 64
        for miss in range(256):
            assert cache.enabled
            cache.lookup(("op", miss), b"x")
        assert not cache.enabled

    def test_removed_knobs_are_constants(self):
        # zlib is the one lossless stage and the Fig 6 bound is always kept.
        for knob, value in (
            ("lossless_backend", "zlib"),
            ("track_fidelity_bound", True),
        ):
            with pytest.raises(TypeError, match=knob):
                SimulatorConfig(**{knob: value})
        assert SimulatorConfig().lossless_backend == "zlib"

    def test_rejects_non_power_of_two_ranks(self):
        with pytest.raises(ValueError):
            SimulatorConfig(num_ranks=3)

    def test_rejects_unsorted_levels(self):
        with pytest.raises(ValueError):
            SimulatorConfig(error_levels=(1e-1, 1e-3))

    def test_rejects_nonpositive_levels(self):
        with pytest.raises(ValueError):
            SimulatorConfig(error_levels=(0.0, 1e-3))

    @pytest.mark.parametrize("level", [42, -5, -1, 10])
    def test_rejects_a_codec_level_zlib_cannot_run(self, level):
        # Accepted, 42, -5 and 10 failed only at the first compress: a raw
        # zlib.error, on the ranked tier inside a rank worker.  zlib's -1
        # alias for its default goes too: one 0-9 range for every backend.
        with pytest.raises(ValueError, match="lossless_level"):
            SimulatorConfig(lossless_level=level)
        with pytest.raises(ValueError, match="lossless_level"):
            SimulatorConfig(comm="process", num_ranks=2, lossless_level=level)
        assert SimulatorConfig(lossless_level=0).lossless_level == 0
        assert SimulatorConfig(lossless_level=9).lossless_level == 9

    @pytest.mark.parametrize("budget", [-1, 0])
    def test_rejects_a_budget_that_cannot_hold_anything(self, budget):
        # Accepted, a non-positive budget escalated on the first gate.
        with pytest.raises(ValueError, match="memory_budget_bytes"):
            SimulatorConfig(memory_budget_bytes=budget)
        assert SimulatorConfig(memory_budget_bytes=1).memory_budget_bytes == 1

    def test_run_rejects_invalid_codec_settings_before_any_work(self):
        circuit = repro.QuantumCircuit(3).h(0).cx(0, 1)
        with pytest.raises(ValueError, match="lossless_level"):
            repro.run(circuit, config=SimulatorConfig(lossless_level=42))
        with pytest.raises(ValueError, match="memory_budget_bytes"):
            repro.run(circuit, config=SimulatorConfig(memory_budget_bytes=-1))
        base = SimulatorConfig(num_ranks=2)
        with pytest.raises(ValueError, match="lossless_level"):
            dataclasses.replace(base, lossless_level=-5)

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


class TestStateBlockTable:
    """The sequential state's block table, keyed by global block index."""

    def setup_method(self):
        self.partition = Partition(num_qubits=6, num_ranks=2, block_amplitudes=8)
        codec = LosslessCompressor()
        self.state = CompressedStateVector(
            self.partition,
            codec,
            decompressors={codec.name: codec},
            cache_enabled=False,
        )

    def test_put_get_roundtrip(self):
        block = CompressedBlock(blob=b"abc", compressor="lossless", bound=0.0)
        self.state.put_block(1, 2, block)
        assert self.state.get_block(1, 2).blob == b"abc"
        table = list(self.state.iter_blocks())
        assert table[1 * self.partition.blocks_per_rank + 2] == ((1, 2), block)

    def test_every_block_is_set_and_off_grid_raises(self):
        # The table is built whole at construction: no block is ever unset,
        # and a (rank, block) outside the partition is an error, not another
        # rank's block.
        table = list(self.state.iter_blocks())
        assert [key for key, _ in table] == [
            (rank, block) for rank in range(2) for block in range(4)
        ]
        assert all(isinstance(entry, CompressedBlock) for _, entry in table)
        for rank, block in ((2, 0), (0, 4), (-1, 0), (0, -1)):
            with pytest.raises(IndexError):
                self.state.get_block(rank, block)

    def test_memory_accounting(self):
        for rank in range(2):
            for block in range(self.partition.blocks_per_rank):
                self.state.put_block(
                    rank, block, CompressedBlock(b"x" * 10, "lossless", 0.0)
                )
        assert self.state.compressed_bytes() == 10 * self.partition.total_blocks

    def test_state_footprint_is_eq8(self):
        expected_scratch = 2 * self.partition.block_bytes * 2
        state = self.state
        assert state.footprint_bytes() == state.compressed_bytes() + expected_scratch
        assert state.compression_ratio() == pytest.approx(
            self.partition.uncompressed_bytes() / state.compressed_bytes()
        )


class TestScratchPool:
    def test_fill_complex_roundtrip(self, rng):
        pool = ScratchPool(block_amplitudes=16)
        values = rng.normal(size=32)  # float64 view of 16 complex amplitudes
        half = pool.buffer[16:]
        buffer = pool.fill(half, values)
        assert buffer is half
        assert buffer.dtype == np.complex128
        assert np.array_equal(pool.buffer[16:].view(np.float64), values)

    def test_fill_wrong_size_rejected(self, rng):
        pool = ScratchPool(block_amplitudes=16)
        with pytest.raises(ValueError):
            pool.fill(pool.buffer[:16], rng.normal(size=10))

    def test_two_blocks_per_rank(self):
        # Eq. 8: at most two decompressed blocks per rank at any time, side
        # by side in one buffer.
        pool = ScratchPool(block_amplitudes=4)
        assert pool.buffer.shape == (8,)
        assert pool.buffer.dtype == np.complex128

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


class _RecordingLibc:
    """Stands in for ``ctypes.CDLL(None)``: records every ``mallopt`` call."""

    calls: list[tuple[int, int]] = []

    def __init__(self, name):
        assert name is None  # the process's own symbols

    def mallopt(self, param: int, value: int) -> int:
        self.calls.append((param, value))
        return 1


class _NoLibc:
    def __init__(self, name):
        raise OSError("no libc handle")


class _NotGlibc:
    """A C library without ``mallopt``."""

    def __init__(self, name):
        pass


@pytest.fixture
def fresh_task_heap(monkeypatch):
    """``_keep_task_heap`` runs once per process (``functools.cache``):
    clear it around the test so each test sees a process that has not set
    the thresholds yet, and record ``mallopt`` instead of calling it."""

    from repro.core import blocks

    blocks._keep_task_heap.cache_clear()
    monkeypatch.setattr(_RecordingLibc, "calls", [])
    monkeypatch.setattr(blocks.ctypes, "CDLL", _RecordingLibc)
    yield blocks
    blocks._keep_task_heap.cache_clear()


class TestKeepTaskHeap:
    """Every process that runs block tasks builds a :class:`ScratchPool`
    first, and that sets glibc's two heap thresholds once per process."""

    @staticmethod
    def _state():
        codec = LosslessCompressor()
        partition = Partition(num_qubits=4, num_ranks=1, block_amplitudes=4)
        return CompressedStateVector(
            partition, codec, decompressors={codec.name: codec}, cache_enabled=True
        )

    @staticmethod
    def _rank_worker():
        from repro.distributed.ranked import RankWorker

        codec = LosslessCompressor()
        worker = RankWorker(4, 1, 4, {codec.name: codec}, True, 1.0, 0, {}, None)
        worker.close()
        return worker

    @pytest.mark.parametrize("first", ["state", "rank_worker"])
    def test_thresholds_set_once_per_process(self, fresh_task_heap, first):
        blocks = fresh_task_heap
        builders = {"state": self._state, "rank_worker": self._rank_worker}
        builders[first]()
        expected = [
            (blocks._M_MMAP_THRESHOLD, blocks._MMAP_THRESHOLD_BYTES),
            (blocks._M_TRIM_THRESHOLD, blocks._TRIM_THRESHOLD_BYTES),
        ]
        assert _RecordingLibc.calls == expected
        # Whatever is built next in the same process sets nothing again.
        for build in builders.values():
            build()
        assert _RecordingLibc.calls == expected

    @pytest.mark.parametrize("libc", [_NoLibc, _NotGlibc])
    def test_without_glibc_it_is_a_no_op(self, fresh_task_heap, monkeypatch, libc):
        blocks = fresh_task_heap
        monkeypatch.setattr(blocks.ctypes, "CDLL", libc)
        state = self._state()
        assert state.to_statevector()[0] == 1.0
        self._rank_worker()
        assert _RecordingLibc.calls == []


class TestBlockCache:
    def test_hit_after_insert(self):
        cache = BlockCache(lines=4)
        cache.insert(("h", 0), b"in1", b"in2", b"out1", b"out2")
        assert cache.lookup(("h", 0), b"in1", b"in2") == (b"out1", b"out2")
        assert cache.stats.hits == 1

    def test_miss_on_different_operation(self):
        cache = BlockCache(lines=4)
        cache.insert(("h", 0), b"in1", b"out1")
        assert cache.lookup(("x", 0), b"in1") is None

    def test_miss_on_different_blob(self):
        cache = BlockCache(lines=4)
        cache.insert(("h", 0), b"in1", b"out1")
        assert cache.lookup(("h", 0), b"in2") is None

    def test_lru_eviction(self):
        cache = BlockCache(lines=2, miss_disable_threshold=None)
        cache.insert(("op", 1), b"a", b"ra")
        cache.insert(("op", 2), b"b", b"rb")
        cache.lookup(("op", 1), b"a")  # touch "a" so "b" is LRU
        cache.insert(("op", 3), b"c", b"rc")
        assert cache.lookup(("op", 2), b"b") is None  # evicted
        assert cache.lookup(("op", 1), b"a") is not None
        assert cache.stats.evictions == 1

    def test_auto_disable_after_pure_misses(self):
        cache = BlockCache(lines=4, miss_disable_threshold=5)
        for i in range(5):
            assert cache.lookup(("op", i), f"{i}".encode()) is None
        assert not cache.enabled
        # Once disabled, inserts and lookups are no-ops.
        cache.insert(("op", 0), b"0", b"r")
        assert len(cache) == 0
        assert cache.lookup(("op", 0), b"0") is None

    def test_self_disable_is_logged_once(self, caplog):
        cache = BlockCache(lines=4, miss_disable_threshold=3)
        with caplog.at_level(logging.INFO, logger="repro.core.cache"):
            for i in range(6):
                cache.lookup(("op", i), b"x")
        assert [record.getMessage() for record in caplog.records] == [
            "block cache disabled itself: 0 hits in 3 lookups"
        ]

    def test_no_disable_when_hits_exist(self):
        cache = BlockCache(lines=4, miss_disable_threshold=3)
        cache.insert(("op", 0), b"a", b"r")
        cache.lookup(("op", 0), b"a")
        for i in range(10):
            cache.lookup(("op", i + 1), b"zzz")
        assert cache.enabled

    def test_reset_reenables_and_zeroes(self):
        cache = BlockCache(lines=2, miss_disable_threshold=1)
        cache.lookup(("op", 0), b"x")
        assert not cache.enabled
        cache.reset()
        assert cache.enabled
        assert cache.stats.as_dict() == BlockCache().stats.as_dict()
        cache.insert(("op", 0), b"x", b"r")
        assert len(cache) == 1

    def test_lines_are_keyed_on_exact_bytes(self):
        cache = BlockCache(lines=4, miss_disable_threshold=None)
        blob = bytes(range(64))
        op_key = ("h", (5,), (), "lossless", 0b01)
        cache.insert(op_key, blob, b"out")
        # Equal bytes in a different object hit.
        copy = bytes(bytearray(blob))
        assert copy is not blob
        assert cache.lookup(op_key, copy) == (b"out",)
        # One byte off misses; so does the op key with other index bits.
        assert cache.lookup(op_key, blob[:-1] + b"\xff") is None
        assert cache.lookup(op_key[:-1] + (0b11,), blob) is None
        # The second blob is part of the key too.
        assert cache.lookup(op_key, blob, blob) is None
        assert (cache.stats.hits, cache.stats.misses) == (1, 3)

    def test_a_line_holds_any_number_of_blocks(self):
        # k inputs then k outputs: a four-block line round-trips whole.
        cache = BlockCache(lines=4, miss_disable_threshold=None)
        inputs = tuple(f"in{i}".encode() for i in range(4))
        outputs = tuple(f"out{i}".encode() for i in range(4))
        cache.insert(("run", 0), *inputs, *outputs)
        assert cache.lookup(("run", 0), *inputs) == outputs
        assert cache.lookup(("run", 0), *inputs[:2]) is None
        assert cache.lookup(("run", 0), *inputs[:3], b"other") is None
        assert (cache.stats.hits, cache.stats.misses) == (1, 2)

    def test_a_one_block_line_never_answers_a_pair(self):
        # Same op, same first blob: the one-block line and the pair line are
        # two lines, and each answers only its own width.
        cache = BlockCache(lines=4, miss_disable_threshold=None)
        cache.insert(("h", 0), b"a", b"b", b"pa", b"pb")
        assert cache.lookup(("h", 0), b"a") is None
        cache.insert(("h", 0), b"a", b"single")
        assert cache.lookup(("h", 0), b"a") == (b"single",)
        assert cache.lookup(("h", 0), b"a", b"b") == (b"pa", b"pb")
        assert len(cache) == 2

    def test_referenced_bytes_follow_inserts_and_evictions(self):
        # nbytes is every line's input plus output blob bytes, kept on
        # insert, replace, evict, self-disable and reset; peak_bytes is its
        # high-water mark.
        def held(cache):
            return sum(
                len(blob)
                for (_, inputs), outputs in cache._entries.items()
                for blob in inputs + outputs
            )

        cache = BlockCache(lines=2, miss_disable_threshold=None)
        cache.insert(("op", 1), b"aaaa", b"bb", b"r" * 10, b"s")
        assert cache.nbytes == held(cache) == 17
        cache.insert(("op", 1), b"aaaa", b"bb", b"r", b"s")  # replaced
        assert cache.nbytes == held(cache) == 8
        cache.insert(("op", 2), b"c", b"rc" * 3)
        cache.insert(("op", 3), b"d" * 5, b"rd")  # evicts the first line
        assert cache.stats.evictions == 1
        assert cache.nbytes == held(cache) == 14
        assert cache.stats.peak_bytes == 17
        assert cache.stats.as_dict()["peak_bytes"] == 17
        cache.reset()
        assert cache.nbytes == 0 and cache.stats.peak_bytes == 0

        disabling = BlockCache(lines=4, miss_disable_threshold=2)
        disabling.insert(("op", 0), b"in", b"out")
        disabling.lookup(("op", 1), b"x")
        disabling.lookup(("op", 1), b"y")
        assert not disabling.enabled and disabling.nbytes == 0
        assert disabling.stats.peak_bytes == 5

    def test_hit_rate(self):
        cache = BlockCache(lines=2, miss_disable_threshold=None)
        cache.insert(("op", 0), b"a", b"r")
        cache.lookup(("op", 0), b"a")
        cache.lookup(("op", 0), b"zz")
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

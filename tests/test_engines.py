"""Engine registry + numpy/numba conformance differential suite.

The engine contract is *blob-for-blob bit-identity*: every engine encodes to
the same bytes and decodes to the same values as the reference NumPy engine,
including the ``CompressorError`` behaviour on malformed streams.  This file
pins that contract differentially — each case runs both engines on the same
input and compares outputs exactly.

The numba kernels are written so that, when numba is not installed, they
remain callable as plain Python (the ``njit`` stub decorator).  The
differential half of this suite therefore runs *everywhere*: with numba it
tests the JIT-compiled kernels, without it the very same kernel bodies in
interpreted mode — same control flow, same arithmetic, same status codes.
Only the constructor guard differs, so the python-mode instance is built
with ``object.__new__``.
"""

from __future__ import annotations

import pickle
import struct
import warnings

import numpy as np
import pytest

from repro.applications import qft_benchmark_circuit
from repro.compression import (
    EngineFallbackWarning,
    available_engines,
    get_compressor,
    get_engine,
    huffman,
)
from repro.compression import engines as engines_mod
from repro.compression.engines import (
    DEFAULT_ENGINE,
    KNOWN_ENGINES,
    NumpyEngine,
    engine_name,
    resolve_engine,
)
from repro.compression.engines import numba_engine as numba_engine_mod
from repro.compression.huffman import HuffmanCodec
from repro.compression.interface import CompressorError, ErrorBoundMode
from repro.compression.sz import (
    SZCompressor,
    compress_absolute_stream,
    decompress_absolute_stream,
)
from repro.core import CompressedSimulator, SimulatorConfig

#: Every registry name whose codec takes (and pickles) an ``engine=``.
ALL_CODEC_NAMES = (
    "sz",
    "sz-complex",
    "zfp",
    "xor-bitplane",
    "reshuffle",
    "lossless",
    "fpzip",
)


def _kernel_engine() -> numba_engine_mod.NumbaEngine:
    """The numba engine: JIT-compiled when numba is present, plain-Python
    kernel bodies otherwise (bypassing the constructor's numba guard)."""

    if numba_engine_mod.HAVE_NUMBA:
        return numba_engine_mod.NumbaEngine()
    return object.__new__(numba_engine_mod.NumbaEngine)


@pytest.fixture(scope="module")
def numba_impl() -> numba_engine_mod.NumbaEngine:
    return _kernel_engine()


@pytest.fixture(scope="module")
def numpy_impl() -> NumpyEngine:
    return get_engine("numpy")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_numpy_is_always_available_and_default(self):
        assert "numpy" in available_engines()
        assert DEFAULT_ENGINE == "numpy"
        assert get_engine() is get_engine("numpy")
        assert get_engine(None) is get_engine("numpy")
        assert isinstance(get_engine("numpy"), NumpyEngine)

    def test_available_engines_reflects_numba_presence(self):
        names = available_engines()
        assert ("numba" in names) == numba_engine_mod.HAVE_NUMBA
        assert set(names) <= set(KNOWN_ENGINES)

    def test_unknown_engine_rejected_everywhere(self):
        with pytest.raises(CompressorError, match="unknown codec engine"):
            get_engine("cython")
        with pytest.raises(CompressorError, match="unknown codec engine"):
            resolve_engine("cython")
        with pytest.raises(CompressorError, match="unknown codec engine"):
            engine_name("cython")
        with pytest.raises(CompressorError, match="unknown codec engine"):
            HuffmanCodec(engine="cython")
        with pytest.raises(CompressorError, match="unknown codec engine"):
            get_compressor("sz", bound=1e-3, engine="cython")
        with pytest.raises(ValueError, match="codec_engine"):
            SimulatorConfig(codec_engine="cython")

    def test_engine_name_normalisation(self, numpy_impl):
        assert engine_name(None) == "numpy"
        assert engine_name("NUMPY") == "numpy"
        assert engine_name("numba") == "numba"
        assert engine_name(numpy_impl) == "numpy"

    def test_resolve_engine_passes_instances_through(self, numpy_impl):
        assert resolve_engine(numpy_impl) is numpy_impl
        assert resolve_engine("numpy") is numpy_impl

    def test_fallback_warns_exactly_once(self, monkeypatch):
        monkeypatch.setattr(numba_engine_mod, "HAVE_NUMBA", False)
        monkeypatch.setattr(engines_mod, "_warned_fallback", False)
        monkeypatch.setattr(engines_mod, "_numba_engine", None)
        with pytest.warns(EngineFallbackWarning):
            first = get_engine("numba")
        assert isinstance(first, NumpyEngine)
        # Second resolution in the same process must stay silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            second = get_engine("numba")
        assert second is first

    def test_constructing_numba_engine_without_numba_raises(self, monkeypatch):
        monkeypatch.setattr(numba_engine_mod, "HAVE_NUMBA", False)
        with pytest.raises(CompressorError, match="requires the numba package"):
            numba_engine_mod.NumbaEngine()

    def test_requested_name_survives_fallback(self, monkeypatch):
        # On a host without numba the codec still *records* "numba", so the
        # pickled codec gets the real engine on a numba-capable worker.
        monkeypatch.setattr(numba_engine_mod, "HAVE_NUMBA", False)
        monkeypatch.setattr(engines_mod, "_warned_fallback", True)
        monkeypatch.setattr(engines_mod, "_numba_engine", None)
        codec = HuffmanCodec(engine="numba")
        assert codec.engine == "numba"
        assert codec.__getstate__()["engine"] == "numba"


# ---------------------------------------------------------------------------
# Differential conformance: Huffman
# ---------------------------------------------------------------------------


def _huffman_streams() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(99)
    # Doubling frequencies force a degenerate chain tree: 14 lengths up to
    # 13 bits, well past small windows, with every length populated.
    counts = 2 ** np.arange(14, dtype=np.int64)
    long_codes = np.repeat(np.arange(14, dtype=np.int64) - 7, counts)
    return {
        "random_small_alphabet": rng.integers(-4, 4, size=4096).astype(np.int64),
        "random_wide_alphabet": rng.integers(-1500, 1500, size=3000).astype(np.int64),
        "long_codes": np.random.default_rng(5).permutation(long_codes),
        "single_symbol": np.full(777, -3, dtype=np.int64),
        "two_symbols": np.array([5, -5] * 100, dtype=np.int64),
        "single_element": np.array([2**40], dtype=np.int64),
        "skewed": (rng.geometric(0.35, 5000) - rng.geometric(0.35, 5000)).astype(
            np.int64
        ),
    }


class TestHuffmanConformance:
    @pytest.mark.parametrize("stream", sorted(_huffman_streams()))
    def test_encode_bytes_and_decode_values_identical(
        self, stream, numpy_impl, numba_impl
    ):
        symbols = _huffman_streams()[stream]
        blob_np = HuffmanCodec(engine=numpy_impl).encode(symbols)
        blob_nb = HuffmanCodec(engine=numba_impl).encode(symbols)
        assert blob_np == blob_nb
        decoded = HuffmanCodec(engine=numba_impl).decode(blob_np)
        assert decoded.dtype == np.int64
        assert np.array_equal(decoded, symbols)

    def test_empty_stream(self, numpy_impl, numba_impl):
        empty = np.zeros(0, dtype=np.int64)
        blob_np = HuffmanCodec(engine=numpy_impl).encode(empty)
        blob_nb = HuffmanCodec(engine=numba_impl).encode(empty)
        assert blob_np == blob_nb
        assert HuffmanCodec(engine=numba_impl).decode(blob_np).size == 0

    def test_window_bits_never_changes_the_output(self, numba_impl):
        # window_bits is a numpy-engine tuning knob; the numba engine ignores
        # it and both must decode the long-code stream identically.
        symbols = _huffman_streams()["long_codes"]
        blob = huffman.encode(symbols)
        for window_bits in (1, 4, 16):
            for impl in (get_engine("numpy"), numba_impl):
                codec = HuffmanCodec(window_bits=window_bits, engine=impl)
                assert np.array_equal(codec.decode(blob), symbols)

    def test_exhausted_stream_error_parity(self, numpy_impl, numba_impl):
        # Inflate the symbol count in the header so the bit stream runs dry
        # mid-decode — inside the engine kernel, past the shared length check.
        symbols = np.array([0, 1] * 100, dtype=np.int64)
        blob = bytearray(huffman.encode(symbols))
        blob[0:8] = struct.pack("<Q", 201)
        for impl in (numpy_impl, numba_impl):
            with pytest.raises(CompressorError, match="exhausted"):
                HuffmanCodec(engine=impl).decode(bytes(blob))

    def test_truncated_stream_error_parity(self, numpy_impl, numba_impl):
        symbols = np.arange(-500, 500, dtype=np.int64).repeat(3)
        blob = huffman.encode(np.random.default_rng(0).permutation(symbols))
        for impl in (numpy_impl, numba_impl):
            with pytest.raises(CompressorError, match="exhausted"):
                HuffmanCodec(engine=impl).decode(blob[:-20])

    def test_incomplete_book_rejected_by_both(self, numpy_impl, numba_impl):
        # Hand-built blob whose book has three length-2 codes (00, 01, 10):
        # Kraft-consistent but incomplete, and the stream spells 11 — no code
        # matches.  Both engines must refuse (the exact message may differ:
        # the numpy wavefront reports it via its sentinel checks).
        book_blob = (
            struct.pack("<I", 3)
            + np.array([1, 2, 3], dtype="<i8").tobytes()
            + bytes([2, 2, 2])
        )
        blob = (
            struct.pack("<Q", 1)
            + struct.pack("<I", len(book_blob))
            + book_blob
            + struct.pack("<Q", 2)
            + bytes([0b11000000])
        )
        for impl in (numpy_impl, numba_impl):
            with pytest.raises(CompressorError):
                HuffmanCodec(engine=impl).decode(blob)


# ---------------------------------------------------------------------------
# Differential conformance: SZ quantize / reconstruct
# ---------------------------------------------------------------------------


def _sz_streams() -> dict[str, tuple[np.ndarray, float, int]]:
    rng = np.random.default_rng(4242)
    jumps = np.where(rng.random(4096) < 0.25, rng.normal(0.0, 1e6, 4096), 0.0)
    return {
        # (data, bound, max_bins)
        "smooth": (np.cumsum(rng.normal(0.0, 1e-3, 8192)), 1e-5, 65536),
        "escape_heavy": (
            np.cumsum(rng.normal(0.0, 1e-3, 4096)) + np.cumsum(jumps),
            1e-5,
            16,
        ),
        "all_escape": (rng.normal(0.0, 1e8, 1024), 1e-6, 4),
        "empty": (np.zeros(0), 1e-3, 65536),
        "amplitudes": (np.exp(rng.normal(-9.0, 2.0, 4096)), 1e-7, 65536),
    }


class TestSZConformance:
    @pytest.mark.parametrize("stream", sorted(_sz_streams()))
    def test_stream_bytes_and_values_identical(self, stream, numpy_impl, numba_impl):
        data, bound, max_bins = _sz_streams()[stream]
        blob_np = compress_absolute_stream(data, bound, max_bins, "zlib", 6, engine=numpy_impl)
        blob_nb = compress_absolute_stream(data, bound, max_bins, "zlib", 6, engine=numba_impl)
        assert blob_np == blob_nb
        out_np = decompress_absolute_stream(blob_np, data.size, "zlib", engine=numpy_impl)
        out_nb = decompress_absolute_stream(blob_np, data.size, "zlib", engine=numba_impl)
        # Bit identity, not closeness: compare the raw float64 bytes.
        assert out_np.tobytes() == out_nb.tobytes()
        if data.size:
            assert np.abs(out_nb - data).max() <= bound * (1 + 1e-12)

    def test_quantize_conformance(self, numpy_impl, numba_impl, rng):
        data = np.concatenate(
            [rng.normal(0.0, 1.0, 2048), [0.0, -0.0, 1e-300, -1e-300, 3.5e8]]
        )
        codes_np = numpy_impl.sz_quantize(data, 1e-4)
        codes_nb = numba_impl.sz_quantize(data, 1e-4)
        assert codes_np.dtype == codes_nb.dtype == np.int64
        assert np.array_equal(codes_np, codes_nb)

    def test_quantize_error_parity(self, numpy_impl, numba_impl):
        for impl in (numpy_impl, numba_impl):
            with pytest.raises(CompressorError, match="non-finite"):
                impl.sz_quantize(np.array([1.0, np.nan]), 1e-3)
            with pytest.raises(CompressorError, match="non-finite"):
                impl.sz_quantize(np.array([np.inf, 1.0]), 1e-3)
            with pytest.raises(CompressorError, match="overflow"):
                impl.sz_quantize(np.array([1e20]), 1e-3)
            with pytest.raises(CompressorError, match="positive"):
                impl.sz_quantize(np.array([1.0]), 0.0)
            # A code too large for float64 at all is reported as non-finite
            # (the division overflows to inf before the int64 check can see
            # it), and a stream that both overflows int64 and contains a NaN
            # reports the non-finite failure first — on every engine.
            with pytest.raises(CompressorError, match="non-finite"):
                impl.sz_quantize(np.array([1e300]), 1e-9)
            with pytest.raises(CompressorError, match="non-finite"):
                impl.sz_quantize(np.array([1e20, np.nan]), 1e-3)

    @pytest.mark.parametrize("mode", [ErrorBoundMode.ABSOLUTE, ErrorBoundMode.RELATIVE])
    def test_sz_compressor_blobs_identical(self, mode, numpy_impl, numba_impl, rng):
        data = np.exp(rng.normal(-9.0, 2.0, 4096)) * rng.choice([-1.0, 1.0], 4096)
        blob_np = SZCompressor(bound=1e-3, mode=mode, engine=numpy_impl).compress(data)
        blob_nb = SZCompressor(bound=1e-3, mode=mode, engine=numba_impl).compress(data)
        assert blob_np == blob_nb
        out_np = SZCompressor(bound=1e-3, mode=mode, engine=numpy_impl).decompress(blob_np)
        out_nb = SZCompressor(bound=1e-3, mode=mode, engine=numba_impl).decompress(blob_np)
        assert out_np.tobytes() == out_nb.tobytes()


# ---------------------------------------------------------------------------
# Differential conformance: bitfield packing + leading-zero coding
# ---------------------------------------------------------------------------


class TestPackingConformance:
    def test_pack_bitfields_identical(self, numpy_impl, numba_impl, rng):
        widths = rng.integers(1, 64, size=3000).astype(np.int64)
        values = rng.integers(0, 2**62, size=3000).astype(np.uint64) & (
            (np.uint64(1) << widths.astype(np.uint64)) - np.uint64(1)
        )
        packed_np, bits_np = numpy_impl.pack_bitfields(values, widths)
        packed_nb, bits_nb = numba_impl.pack_bitfields(values, widths)
        assert bits_np == bits_nb
        assert packed_np.tobytes() == packed_nb.tobytes()

    def test_pack_bitfields_empty_and_errors(self, numpy_impl, numba_impl):
        for impl in (numpy_impl, numba_impl):
            packed, total = impl.pack_bitfields(
                np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
            )
            assert total == 0 and packed.size == 0
            with pytest.raises(ValueError, match="matching 1-D"):
                impl.pack_bitfields(
                    np.zeros(3, dtype=np.uint64), np.zeros(2, dtype=np.int64)
                )

    @pytest.mark.parametrize("keep_bytes", [1, 3, 5, 8])
    def test_leading_zero_round_trip_identical(
        self, keep_bytes, numpy_impl, numba_impl, rng
    ):
        # Words with realistic leading-zero distribution: shift a fraction of
        # them right so the 2-bit code histogram covers all four codes.
        words = rng.integers(0, 2**63, size=4096, dtype=np.int64).astype(np.uint64)
        shifts = rng.integers(0, 5, size=4096).astype(np.uint64) * np.uint64(8)
        words >>= shifts
        words[::97] = 0  # all-zero words hit the clamp path
        packed_np, suffix_np = numpy_impl.pack_leading_zero(words, keep_bytes)
        packed_nb, suffix_nb = numba_impl.pack_leading_zero(words, keep_bytes)
        assert packed_np == packed_nb
        assert suffix_np == suffix_nb
        out_np = numpy_impl.unpack_leading_zero(
            packed_np, suffix_np, words.size, keep_bytes
        )
        out_nb = numba_impl.unpack_leading_zero(
            packed_np, suffix_np, words.size, keep_bytes
        )
        assert out_np.tobytes() == out_nb.tobytes()

    def test_leading_zero_empty_and_errors(self, numpy_impl, numba_impl, rng):
        words = rng.integers(0, 2**20, size=64).astype(np.uint64)
        for impl in (numpy_impl, numba_impl):
            assert impl.pack_leading_zero(np.zeros(0, dtype=np.uint64), 8) == (b"", b"")
            assert impl.unpack_leading_zero(b"", b"", 0, 8).size == 0
            with pytest.raises(CompressorError, match="keep_bytes"):
                impl.pack_leading_zero(words, 9)
            packed, suffix = impl.pack_leading_zero(words, 8)
            with pytest.raises(CompressorError, match="suffix stream has"):
                impl.unpack_leading_zero(packed, suffix + b"\x00", words.size, 8)


# ---------------------------------------------------------------------------
# Golden blobs + whole-codec identity under the numba engine
# ---------------------------------------------------------------------------


class TestWholeCodecConformance:
    @pytest.mark.parametrize("name", ["sz", "sz-complex", "zfp", "xor-bitplane", "reshuffle"])
    def test_lossy_codec_blobs_identical(self, name, numpy_impl, numba_impl, spiky_data):
        codec_np = get_compressor(name, bound=1e-3, engine=numpy_impl)
        codec_nb = get_compressor(name, bound=1e-3, engine=numba_impl)
        blob = codec_np.compress(spiky_data)
        assert codec_nb.compress(spiky_data) == blob
        assert (
            codec_np.decompress(blob).tobytes() == codec_nb.decompress(blob).tobytes()
        )

    def test_golden_blobs_decode_identically(self, numba_impl):
        # Same fixture set test_golden_blobs.py pins for the numpy engine.
        from pathlib import Path

        golden_dir = Path(__file__).parent / "golden"
        decoder_for = {
            "huffman": None,
            "sz": "sz",
            "zfp": "zfp",
            "xor": "xor-bitplane",
            "lossless": "lossless",
        }
        cases = sorted(p.stem for p in golden_dir.glob("*.blob"))
        assert cases
        for case in cases:
            blob = (golden_dir / f"{case}.blob").read_bytes()
            expected = np.load(golden_dir / f"{case}.expected.npy")
            name = decoder_for[case.split("_")[0]]
            if name is None:
                decoded = HuffmanCodec(engine=numba_impl).decode(blob)
            else:
                codec = get_compressor(
                    name, engine=numba_impl, **({} if name == "lossless" else {"bound": 1e-3})
                )
                decoded = codec.decompress(blob)
            assert np.array_equal(decoded, expected), case


# ---------------------------------------------------------------------------
# Config plumbing, pickling, and the distributed path
# ---------------------------------------------------------------------------


class TestEnginePlumbing:
    @pytest.mark.parametrize("name", ALL_CODEC_NAMES)
    def test_every_codec_records_and_pickles_its_engine(self, name, engine):
        # fpzip is precision-parametrized, lossless is bound-free; every
        # other codec takes an error bound.
        kwargs = {} if name in ("lossless", "fpzip") else {"bound": 1e-3}
        codec = get_compressor(name, engine=engine, **kwargs)
        assert codec.engine == engine
        clone = pickle.loads(pickle.dumps(codec))
        assert clone.engine == engine

    def test_engine_defaults_to_numpy(self):
        assert get_compressor("sz", bound=1e-3).engine == "numpy"
        assert SimulatorConfig().codec_engine == "numpy"

    def test_config_engine_reaches_the_compressors(self, engine):
        config = SimulatorConfig(
            num_ranks=2, block_amplitudes=16, codec_engine=engine
        )
        with CompressedSimulator(5, config) as simulator:
            assert simulator.controller.lossless_compressor().engine == engine
            simulator.controller.force_level(config.error_levels[0])
            assert simulator.controller.compressor().engine == engine

    def test_checkpoint_preserves_codec_engine(self, engine, tmp_path):
        from repro.core.checkpoint import load_checkpoint, save_checkpoint

        config = SimulatorConfig(num_ranks=2, block_amplitudes=16, codec_engine=engine)
        with CompressedSimulator(5, config) as simulator:
            simulator.apply_circuit(qft_benchmark_circuit(5))
            path = tmp_path / "engine.ckpt"
            save_checkpoint(simulator, path)
        restored = load_checkpoint(path)
        try:
            assert restored.config.codec_engine == engine
        finally:
            restored.close()

    def test_process_workers_bit_identical_across_engines(self, engine):
        # The engine rides to the rank worker processes inside pickled
        # codecs (executor="process" is the ranked tier: one worker per
        # rank, so num_workers == num_ranks); the distributed result must
        # match the sequential numpy-engine result
        # byte for byte (the engines are bit-identical, so mixing tiers and
        # engines can never change the state).
        circuit = qft_benchmark_circuit(6)

        def final_state(**kwargs):
            config = SimulatorConfig(num_ranks=2, block_amplitudes=16, **kwargs)
            with CompressedSimulator(6, config) as simulator:
                simulator.apply_circuit(circuit)
                return simulator.statevector()

        sequential = final_state(codec_engine="numpy")
        process = final_state(
            codec_engine=engine, executor="process", num_workers=2
        )
        assert sequential.tobytes() == process.tobytes()

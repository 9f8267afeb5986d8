"""Kernel conformance: the product's codec kernels against the sequential oracle.

Each codec hot loop has one implementation in ``src/`` (vectorised NumPy) and
one obvious sequential loop in ``tests/reference_kernels.py``.  The contract
is *bit identity*: same bytes out of the encoders, same values out of the
decoders, the same ``CompressorError`` on malformed streams.  This file pins
it differentially — kernel against kernel where the functions can be called
directly, and whole codecs by running them once as shipped and once with the
reference kernels ``monkeypatch``-ed into the codec modules (the
``use_reference`` fixture).

The last two classes cover what is left of the removed ``engine=`` selection:
the three names ``benchmarks/e2e/`` still reads (see ``docs/migration.md``).
"""

from __future__ import annotations

import dataclasses
import functools
import struct

import numpy as np
import pytest

import reference_kernels as ref
from repro.compression import bitplane, get_compressor, huffman, quantization
from repro.compression.bitpack import pack_bitfields
from repro.compression.engines import available_engines
from repro.compression.huffman import HuffmanCodec
from repro.compression.interface import CompressorError, ErrorBoundMode
from repro.compression.sz import (
    SZCompressor,
    compress_absolute_stream,
    decompress_absolute_stream,
)
from repro.core import SimulatorConfig


@pytest.fixture
def use_reference(monkeypatch):
    """Call it to run the codecs on the reference kernels for the rest of the test."""

    return functools.partial(ref.install, monkeypatch)


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
    def test_encode_bytes_and_decode_values_identical(self, stream, use_reference):
        symbols = _huffman_streams()[stream]
        blob = huffman.encode(symbols)
        assert np.array_equal(huffman.decode(blob), symbols)
        use_reference()
        assert huffman.encode(symbols) == blob
        decoded = huffman.decode(blob)
        assert decoded.dtype == np.int64
        assert np.array_equal(decoded, symbols)

    def test_empty_stream(self, use_reference):
        empty = np.zeros(0, dtype=np.int64)
        blob = huffman.encode(empty)
        use_reference()
        assert huffman.encode(empty) == blob
        assert huffman.decode(blob).size == 0

    def test_window_bits_never_changes_the_output(self, use_reference):
        # window_bits is the product decoder's table width; the reference
        # walk ignores it and both must decode the long-code stream
        # identically at every setting.
        symbols = _huffman_streams()["long_codes"]
        blob = huffman.encode(symbols)
        for window_bits in (1, 4, 16):
            codec = HuffmanCodec(window_bits=window_bits)
            assert np.array_equal(codec.decode(blob), symbols)
        use_reference()
        for window_bits in (1, 4, 16):
            codec = HuffmanCodec(window_bits=window_bits)
            assert np.array_equal(codec.decode(blob), symbols)

    def test_exhausted_stream_error_parity(self, use_reference):
        # Inflate the symbol count in the header so the bit stream runs dry
        # mid-decode — inside the kernel, past the shared length checks: the
        # codes are 2 bits long, so 201 symbols still fit the 400-bit stream
        # as far as the codec's ``count <= total_bits`` check can tell.
        symbols = np.array([0, 1, 2, 3] * 50, dtype=np.int64)
        blob = bytearray(huffman.encode(symbols))
        blob[0:8] = struct.pack("<Q", 201)
        with pytest.raises(CompressorError, match="exhausted"):
            huffman.decode(bytes(blob))
        use_reference()
        with pytest.raises(CompressorError, match="exhausted"):
            huffman.decode(bytes(blob))

    def test_truncated_stream_error_parity(self, use_reference):
        symbols = np.arange(-500, 500, dtype=np.int64).repeat(3)
        blob = huffman.encode(np.random.default_rng(0).permutation(symbols))
        with pytest.raises(CompressorError, match="exhausted"):
            huffman.decode(blob[:-20])
        use_reference()
        with pytest.raises(CompressorError, match="exhausted"):
            huffman.decode(blob[:-20])

    def test_incomplete_book_rejected_by_both(self, use_reference):
        # Hand-built blob whose book has three length-2 codes (00, 01, 10):
        # Kraft-consistent but incomplete, and the stream spells 11 — no code
        # matches.  Both kernels must refuse (the exact message may differ:
        # the product's wavefront reports it via its sentinel checks).
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
        with pytest.raises(CompressorError):
            huffman.decode(blob)
        use_reference()
        with pytest.raises(CompressorError):
            huffman.decode(blob)


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
    def test_stream_bytes_and_values_identical(self, stream, use_reference):
        data, bound, max_bins = _sz_streams()[stream]
        blob = compress_absolute_stream(data, bound, max_bins, "zlib", 6)
        out = decompress_absolute_stream(blob, data.size, "zlib")
        use_reference()
        assert compress_absolute_stream(data, bound, max_bins, "zlib", 6) == blob
        out_ref = decompress_absolute_stream(blob, data.size, "zlib")
        # Bit identity, not closeness: compare the raw float64 bytes.
        assert out.tobytes() == out_ref.tobytes()
        if data.size:
            assert np.abs(out_ref - data).max() <= bound * (1 + 1e-12)

    def test_quantize_conformance(self, rng):
        data = np.concatenate(
            [rng.normal(0.0, 1.0, 2048), [0.0, -0.0, 1e-300, -1e-300, 3.5e8]]
        )
        codes = quantization.quantize(data, 1e-4)
        codes_ref = ref.quantize(data, 1e-4)
        assert codes.dtype == codes_ref.dtype == np.int64
        assert np.array_equal(codes, codes_ref)

    def test_quantize_error_parity(self):
        for quantize in (quantization.quantize, ref.quantize):
            with pytest.raises(CompressorError, match="non-finite"):
                quantize(np.array([1.0, np.nan]), 1e-3)
            with pytest.raises(CompressorError, match="non-finite"):
                quantize(np.array([np.inf, 1.0]), 1e-3)
            with pytest.raises(CompressorError, match="overflow"):
                quantize(np.array([1e20]), 1e-3)
            with pytest.raises(CompressorError, match="positive"):
                quantize(np.array([1.0]), 0.0)
            # A code too large for float64 at all is reported as non-finite
            # (the division overflows to inf before the int64 check can see
            # it), and a stream that both overflows int64 and contains a NaN
            # reports the non-finite failure first — in both.
            with pytest.raises(CompressorError, match="non-finite"):
                quantize(np.array([1e300]), 1e-9)
            with pytest.raises(CompressorError, match="non-finite"):
                quantize(np.array([1e20, np.nan]), 1e-3)

    @pytest.mark.parametrize("mode", [ErrorBoundMode.ABSOLUTE, ErrorBoundMode.RELATIVE])
    def test_sz_compressor_blobs_identical(self, mode, use_reference, rng):
        data = np.exp(rng.normal(-9.0, 2.0, 4096)) * rng.choice([-1.0, 1.0], 4096)
        codec = SZCompressor(bound=1e-3, mode=mode)
        blob = codec.compress(data)
        out = codec.decompress(blob)
        use_reference()
        assert codec.compress(data) == blob
        assert codec.decompress(blob).tobytes() == out.tobytes()


# ---------------------------------------------------------------------------
# Differential conformance: bitfield packing + leading-zero coding
# ---------------------------------------------------------------------------


class TestPackingConformance:
    def test_pack_bitfields_identical(self, rng):
        widths = rng.integers(1, 64, size=3000).astype(np.int64)
        values = rng.integers(0, 2**62, size=3000).astype(np.uint64) & (
            (np.uint64(1) << widths.astype(np.uint64)) - np.uint64(1)
        )
        packed, bits = pack_bitfields(values, widths)
        packed_ref, bits_ref = ref.pack_bitfields(values, widths)
        assert bits == bits_ref
        assert packed.tobytes() == packed_ref.tobytes()

    def test_pack_bitfields_empty_and_errors(self):
        for pack in (pack_bitfields, ref.pack_bitfields):
            packed, total = pack(
                np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
            )
            assert total == 0 and packed.size == 0
            with pytest.raises(ValueError, match="matching 1-D"):
                pack(np.zeros(3, dtype=np.uint64), np.zeros(2, dtype=np.int64))

    @pytest.mark.parametrize("keep_bytes", range(1, 9))
    def test_leading_zero_round_trip_identical(self, keep_bytes, rng):
        # Words with realistic leading-zero distribution: shift a fraction of
        # them right so the 2-bit code histogram covers all four codes.
        words = rng.integers(0, 2**63, size=4096, dtype=np.int64).astype(np.uint64)
        shifts = rng.integers(0, 5, size=4096).astype(np.uint64) * np.uint64(8)
        words >>= shifts
        words[::97] = 0  # all-zero words hit the clamp path
        # The code boundaries (3, 2, 1 leading zero bytes) from either side.
        boundaries = np.array(
            [2**40 - 1, 2**40, 2**48 - 1, 2**48, 2**56 - 1, 2**56, 2**64 - 1, 1],
            dtype=np.uint64,
        )
        # Words whose only set bytes lie below the kept ones: every kept byte
        # is a leading zero, and the dropped bytes must not leak into the code.
        below = np.uint64((1 << (8 * (8 - keep_bytes))) - 1)
        hidden = rng.integers(0, 2**63, size=64, dtype=np.int64).astype(np.uint64) & below
        words = np.concatenate([boundaries, words, hidden, boundaries[::-1]])
        packed, suffix = bitplane.pack_leading_zero_stream(words, keep_bytes)
        assert ref.pack_leading_zero_stream(words, keep_bytes) == (packed, suffix)
        out = bitplane.unpack_leading_zero_stream(packed, suffix, words.size, keep_bytes)
        out_ref = ref.unpack_leading_zero_stream(packed, suffix, words.size, keep_bytes)
        assert out.tobytes() == out_ref.tobytes()
        assert np.array_equal(out, words & ~below)

    def test_code_stream_of_the_wrong_length_raises(self, rng):
        words = rng.integers(0, 2**20, size=9).astype(np.uint64)
        for impl in (bitplane, ref):
            packed, suffix = impl.pack_leading_zero_stream(words, 4)
            assert len(packed) == 3  # ceil(9 / 4)
            for codes in (b"", packed[:-1], packed + b"\x00"):
                with pytest.raises(CompressorError, match="code stream has"):
                    impl.unpack_leading_zero_stream(codes, suffix, words.size, 4)
            with pytest.raises(CompressorError, match="code stream has"):
                impl.unpack_leading_zero_stream(b"\x00", b"", 0, 4)
            with pytest.raises(CompressorError, match="keep_bytes"):
                impl.unpack_leading_zero_stream(packed, suffix, words.size, 9)

    def test_leading_zero_empty_and_errors(self, rng):
        words = rng.integers(0, 2**20, size=64).astype(np.uint64)
        for impl in (bitplane, ref):
            assert impl.pack_leading_zero_stream(np.zeros(0, dtype=np.uint64), 8) == (
                b"",
                b"",
            )
            assert impl.unpack_leading_zero_stream(b"", b"", 0, 8).size == 0
            with pytest.raises(CompressorError, match="keep_bytes"):
                impl.pack_leading_zero_stream(words, 9)
            packed, suffix = impl.pack_leading_zero_stream(words, 8)
            with pytest.raises(CompressorError, match="suffix stream has"):
                impl.unpack_leading_zero_stream(packed, suffix + b"\x00", words.size, 8)


# ---------------------------------------------------------------------------
# Whole codecs on the reference kernels
# ---------------------------------------------------------------------------


class TestWholeCodecConformance:
    @pytest.mark.parametrize("name", ["sz", "sz-complex", "zfp", "xor-bitplane", "reshuffle"])
    def test_lossy_codec_blobs_identical(self, name, use_reference, spiky_data):
        codec = get_compressor(name, bound=1e-3)
        blob = codec.compress(spiky_data)
        out = codec.decompress(blob)
        use_reference()
        assert codec.compress(spiky_data) == blob
        assert codec.decompress(blob).tobytes() == out.tobytes()

    def test_golden_blobs_decode_identically(self, use_reference):
        # Same fixture set test_golden_blobs.py pins for the product kernels,
        # in both directions: decode every blob, re-encode every input.
        import test_golden_blobs as golden

        use_reference()
        assert golden.GOLDEN_CASES
        for case in golden.GOLDEN_CASES:
            blob = (golden.GOLDEN_DIR / f"{case}.blob").read_bytes()
            expected = np.load(golden.GOLDEN_DIR / f"{case}.expected.npy")
            name = golden._decoder_name(case)
            if name is None:
                decoded = huffman.decode(blob)
            else:
                kwargs = {} if name == "lossless" else {"bound": 1e-3}
                decoded = get_compressor(name, **kwargs).decompress(blob)
            assert np.array_equal(decoded, expected), case
        for case, (blob, _) in golden.generate_golden.build_cases().items():
            if case == "sz_rel_empty_seed_layout":
                continue  # layout intentionally revised (see test_golden_blobs)
            assert blob == (golden.GOLDEN_DIR / f"{case}.blob").read_bytes(), case


# ---------------------------------------------------------------------------
# What is left of engine selection: the names benchmarks/e2e/ still reads
# ---------------------------------------------------------------------------


class TestRegistry:
    """``available_engines`` and the ``engine`` keyword of ``get_compressor``."""

    def test_numpy_is_always_available_and_default(self):
        assert available_engines() == ("numpy",)
        codec = get_compressor("sz", bound=1e-3, engine="numpy")
        assert codec.__getstate__() == get_compressor("sz", bound=1e-3).__getstate__()
        assert "engine" not in codec.__getstate__()

    def test_unknown_engine_rejected_everywhere(self):
        # 1.8 warned once for "numba" and computed with numpy; there is
        # nothing to fall back from any more, so every other name is unknown.
        for engine in ("numba", "cython", "NUMPY"):
            with pytest.raises(CompressorError, match="migration"):
                get_compressor("sz", bound=1e-3, engine=engine)
            with pytest.raises(TypeError, match="engine"):
                HuffmanCodec(engine=engine)
            with pytest.raises(TypeError, match="engine"):
                SZCompressor(bound=1e-3, engine=engine)
            with pytest.raises(TypeError, match="codec_engine"):
                SimulatorConfig(codec_engine=engine)


class TestEnginePlumbing:
    def test_engine_defaults_to_numpy(self):
        # A read-only property for the frozen harness, not a 19th field.
        assert SimulatorConfig().codec_engine == "numpy"
        with pytest.raises(TypeError, match="codec_engine"):
            SimulatorConfig(codec_engine="numpy")
        with pytest.raises(AttributeError):
            SimulatorConfig().codec_engine = "numba"
        fields = {field.name for field in dataclasses.fields(SimulatorConfig)}
        assert len(fields) == 16 and "codec_engine" not in fields

"""Wire-format compatibility tests against checked-in golden blobs.

The blobs under ``tests/golden/`` were produced by the *seed* codecs (PR 1,
commit fc291b9).  The vectorised codecs must (a) decode every one of them
bit-identically and (b) — except for the intentionally revised empty-SZ
payload — re-encode the same inputs to the same bytes, so blobs written by
either generation of the code remain interchangeable.

The fuzz half of the file round-trips randomly drawn symbol distributions
through the Huffman codec, deliberately covering the table-driven decoder's
edge paths: codes longer than the lookup window (slow-path escape), tiny
windows, single-symbol books, and SZ streams dominated by escape values.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.compression import (
    ErrorBoundMode,
    SZCompressor,
    huffman,
)
from repro.compression.huffman import HuffmanCodec
from repro.compression.interface import CompressorError, unpack_header
from repro.compression.sz import decompress_absolute_stream

GOLDEN_DIR = Path(__file__).parent / "golden"

_spec = importlib.util.spec_from_file_location(
    "generate_golden", GOLDEN_DIR / "generate_golden.py"
)
generate_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate_golden)

GOLDEN_CASES = sorted(p.stem for p in GOLDEN_DIR.glob("*.blob"))

#: blob name -> codec registry name able to decode it (decode dispatches on
#: the embedded tag, so constructor parameters don't matter).
_DECODER_FOR = {
    "huffman": None,  # module-level huffman.decode
    "sz": "sz",
    "zfp": "zfp",
    "xor": "xor-bitplane",
    "lossless": "lossless",
}


def _decoder_name(case: str) -> str | None:
    return _DECODER_FOR[case.split("_")[0]]


class TestGoldenDecode:
    @pytest.mark.parametrize("case", GOLDEN_CASES)
    def test_seed_blob_decodes_bit_identically(self, case, make_codec):
        blob = (GOLDEN_DIR / f"{case}.blob").read_bytes()
        expected = np.load(GOLDEN_DIR / f"{case}.expected.npy")
        name = _decoder_name(case)
        if name is None:
            decoded = huffman.decode(blob)
        else:
            decoded = make_codec(name).decompress(blob)
        assert decoded.dtype == expected.dtype or name is None
        assert np.array_equal(decoded, expected), case

    def test_every_blob_has_a_case(self):
        # A stray .blob without .expected.npy (or vice versa) is a broken
        # checked-in fixture, not a skip.
        blobs = {p.stem for p in GOLDEN_DIR.glob("*.blob")}
        expected = {p.name[: -len(".expected.npy")] for p in GOLDEN_DIR.glob("*.expected.npy")}
        assert blobs == expected and blobs


class TestGoldenEncodeStability:
    """The new encoders keep producing the seed's exact bytes."""

    def test_reencoding_golden_inputs_matches_blobs(self):
        regenerated = generate_golden.build_cases()
        for case, (blob, _) in regenerated.items():
            if case == "sz_rel_empty_seed_layout":
                continue  # layout intentionally revised; decode-covered below
            golden = (GOLDEN_DIR / f"{case}.blob").read_bytes()
            assert blob == golden, f"{case}: encoder output drifted from seed format"

    def test_empty_sz_payload_now_shares_absolute_stream_layout(self):
        # The seed wrote an ad-hoc <dIQQ> struct for empty blocks; the new
        # layout is the regular absolute-stream payload, so it must parse
        # with the shared reader (the seed blob still decodes via the
        # count == 0 short-circuit, asserted by the golden decode test).
        for mode in (ErrorBoundMode.ABSOLUTE, ErrorBoundMode.RELATIVE):
            compressor = SZCompressor(bound=1e-3, mode=mode)
            blob = compressor.compress(np.zeros(0))
            assert compressor.decompress(blob).size == 0
            _, count, _, offset = unpack_header(blob)
            assert count == 0
            assert decompress_absolute_stream(blob[offset:], 0).size == 0


class TestHuffmanFuzz:
    @pytest.mark.parametrize("alphabet", [2, 3, 16, 300, 5000])
    def test_random_streams_round_trip(self, alphabet, rng):
        for size in (1, 7, 256, 20011):
            symbols = rng.integers(-alphabet, alphabet, size=size).astype(np.int64)
            assert np.array_equal(huffman.decode(huffman.encode(symbols)), symbols)

    @pytest.mark.parametrize("p", [0.05, 0.35, 0.9])
    def test_skewed_streams_round_trip(self, p, rng):
        symbols = (rng.geometric(p, 8192) - rng.geometric(p, 8192)).astype(np.int64)
        assert np.array_equal(huffman.decode(huffman.encode(symbols)), symbols)

    def test_long_code_slow_path(self):
        # Doubling frequencies force a degenerate chain tree whose rarest
        # codes exceed any practical window, exercising the searchsorted
        # escape in both the per-offset table and the wavefront.
        counts = 2 ** np.arange(20, dtype=np.int64)
        symbols = np.repeat(np.arange(20, dtype=np.int64) - 10, counts)
        symbols = np.random.default_rng(5).permutation(symbols)
        blob = huffman.encode(symbols)
        assert np.array_equal(huffman.decode(blob), symbols)

    @pytest.mark.parametrize("window_bits", [1, 4, 9, 16])
    def test_narrow_windows_force_escapes(self, window_bits, rng):
        # A deliberately narrow window makes most codes take the slow path;
        # the result must not depend on the window width at all.
        symbols = rng.integers(-500, 500, size=4096).astype(np.int64)
        blob = huffman.encode(symbols)
        codec = HuffmanCodec(window_bits=window_bits)
        assert np.array_equal(codec.decode(blob), symbols)

    def test_window_bits_validated(self):
        with pytest.raises(CompressorError):
            HuffmanCodec(window_bits=0)
        with pytest.raises(CompressorError):
            HuffmanCodec(window_bits=17)

    def test_malformed_book_raises_compressor_error(self, rng):
        # Hand-corrupt a valid blob's code book: three codes of length 1
        # violate the Kraft inequality and would overflow the window table.
        import struct

        symbols = np.array([1, 2, 3] * 100, dtype=np.int64)
        blob = bytearray(huffman.encode(symbols))
        (book_len,) = struct.unpack_from("<I", blob, 8)
        (entries,) = struct.unpack_from("<I", blob, 12)
        assert entries == 3
        lengths_off = 12 + 4 + 8 * entries
        blob[lengths_off : lengths_off + entries] = bytes([1, 1, 1])
        with pytest.raises(CompressorError, match="Kraft"):
            huffman.decode(bytes(blob))
        blob[lengths_off : lengths_off + entries] = bytes([0, 1, 2])
        with pytest.raises(CompressorError, match="code length"):
            huffman.decode(bytes(blob))
        blob[lengths_off : lengths_off + entries] = bytes([65, 66, 66])
        with pytest.raises(CompressorError, match="code length"):
            huffman.decode(bytes(blob))

    def test_truncated_bitstream_raises_exhausted(self, rng):
        symbols = rng.integers(0, 50, size=2048).astype(np.int64)
        blob = huffman.encode(symbols)
        # Slice inside the packed code stream (past the book) so the failure
        # is the stream-exhausted path, not a malformed book.
        with pytest.raises(CompressorError, match="exhausted"):
            huffman.decode(blob[:-40])

    def test_decode_threads_agree_with_serial(self, rng):
        # The decoder keeps per-thread scratch buffers; concurrent decodes
        # must not bleed into each other.
        from concurrent.futures import ThreadPoolExecutor

        streams = [
            rng.integers(-a, a, size=s).astype(np.int64)
            for a, s in [(5, 10000), (4000, 3000), (2, 60000), (300, 1)]
        ] * 4
        blobs = [huffman.encode(s) for s in streams]
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(huffman.decode, blobs))
        for symbols, result in zip(streams, results):
            assert np.array_equal(result, symbols)


class TestSZEscapeFuzz:
    @pytest.mark.parametrize("max_bins", [4, 16, 65536])
    def test_escape_heavy_streams_respect_bound(self, max_bins, rng):
        bound = 1e-5
        jumps = np.where(rng.random(8192) < 0.2, rng.normal(0.0, 1e6, 8192), 0.0)
        data = np.cumsum(rng.normal(0.0, 1e-3, 8192)) + np.cumsum(jumps)
        compressor = SZCompressor(
            bound=bound, mode=ErrorBoundMode.ABSOLUTE, max_bins=max_bins
        )
        recovered = compressor.decompress(compressor.compress(data))
        assert np.abs(recovered - data).max() <= bound * (1 + 1e-12)

    def test_all_escape_stream(self, rng):
        # With the minimum bin count every delta escapes: the cumsum carries
        # no information and reconstruction leans entirely on the anchors.
        data = rng.normal(0.0, 1e8, 1024)
        compressor = SZCompressor(bound=1e-6, mode=ErrorBoundMode.ABSOLUTE, max_bins=4)
        recovered = compressor.decompress(compressor.compress(data))
        assert np.abs(recovered - data).max() <= 1e-6 * (1 + 1e-12)

    @pytest.mark.parametrize("mode", [ErrorBoundMode.ABSOLUTE, ErrorBoundMode.RELATIVE])
    def test_empty_block_round_trip(self, mode):
        compressor = SZCompressor(bound=1e-3, mode=mode)
        recovered = compressor.decompress(compressor.compress(np.zeros(0)))
        assert recovered.size == 0 and recovered.dtype == np.float64

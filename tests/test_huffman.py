"""Unit tests for the canonical Huffman codec.

The ``huff`` fixture depends on conftest's ``kernels`` fixture, so every
round-trip here runs on the product kernels and again with the sequential
reference loops of ``tests/reference_kernels.py`` patched in.

Code-book construction is pinned differentially:
``_heap_build_lengths`` below is the heap-based builder every blob was
produced by until the two-queue construction replaced it, kept verbatim as
the reference ``huffman._build_lengths`` must match length for length — at
hypothesis sizes and at the sizes of the simulator's SZ books, where the
builder pairs whole runs of equal counts at once.
"""

from __future__ import annotations

import heapq
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compression import (
    ErrorBoundMode,
    SZCompressor,
    available_compressors,
    huffman,
)
from repro.compression.interface import CompressorError


@pytest.fixture
def huff(kernels) -> huffman.HuffmanCodec:
    """A Huffman codec running on the current ``kernels`` leg."""

    return huffman.HuffmanCodec()


class TestRoundTrip:
    def test_small_alphabet(self, huff):
        symbols = np.array([0, 0, 0, 1, 1, 2] * 50, dtype=np.int64)
        blob = huff.encode(symbols)
        assert np.array_equal(huff.decode(blob), symbols)

    def test_single_symbol_stream(self, huff):
        symbols = np.full(1000, 7, dtype=np.int64)
        blob = huff.encode(symbols)
        assert np.array_equal(huff.decode(blob), symbols)
        # Highly redundant stream should be tiny.
        assert len(blob) < 200

    def test_two_symbols(self, huff):
        symbols = np.array([5, -5] * 100, dtype=np.int64)
        assert np.array_equal(huff.decode(huff.encode(symbols)), symbols)

    def test_negative_and_large_symbols(self, huff):
        symbols = np.array([-(2**40), 0, 2**40, 17, -3] * 20, dtype=np.int64)
        assert np.array_equal(huff.decode(huff.encode(symbols)), symbols)

    def test_empty_stream(self, huff):
        symbols = np.zeros(0, dtype=np.int64)
        assert huff.decode(huff.encode(symbols)).size == 0

    def test_single_element(self, huff):
        symbols = np.array([42], dtype=np.int64)
        assert np.array_equal(huff.decode(huff.encode(symbols)), symbols)

    def test_random_streams(self, huff, rng):
        for alphabet in (2, 16, 300):
            symbols = rng.integers(-alphabet, alphabet, size=5000).astype(np.int64)
            assert np.array_equal(huff.decode(huff.encode(symbols)), symbols)

    def test_skewed_distribution_compresses(self, huff, rng):
        # Geometric-ish distribution: most symbols are 0, a few are large.
        symbols = rng.geometric(0.7, size=20000).astype(np.int64)
        blob = huff.encode(symbols)
        assert len(blob) < symbols.nbytes / 4

    def test_rejects_2d_input(self, huff):
        with pytest.raises(CompressorError):
            huff.encode(np.zeros((3, 3), dtype=np.int64))

    def test_codec_class_and_module_functions_agree(self, huff):
        symbols = np.array([1, 2, 3, 1, 2, 1], dtype=np.int64)
        codec = huffman.HuffmanCodec()
        assert np.array_equal(codec.decode(codec.encode(symbols)), symbols)
        assert np.array_equal(huffman.decode(codec.encode(symbols)), symbols)
        # The module functions read the fixture codec's blobs and vice versa.
        assert np.array_equal(huffman.decode(huff.encode(symbols)), symbols)
        assert np.array_equal(huff.decode(huffman.encode(symbols)), symbols)


class TestTruncatedBlobs:
    """Every proper prefix of a valid blob ends in the typed error."""

    @pytest.mark.parametrize("count", [7, 10**6, 10**12, 2**62])
    def test_inflated_count_raises_compressor_error(self, huff, count):
        # Three 1-bit codes: any count above the stream's 3 bits is corrupt,
        # and the large ones must be rejected before the decoder sizes its
        # buffers from them (10^12 once asked for hundreds of GiB).
        blob = bytearray(huff.encode(np.array([5, -5, 5], dtype=np.int64)))
        blob[0:8] = struct.pack("<Q", count)
        with pytest.raises(CompressorError, match="count exceeds"):
            huff.decode(bytes(blob))

    def test_every_huffman_prefix_raises_compressor_error(self, huff):
        blob = huff.encode(np.arange(200, dtype=np.int64) % 37)
        for cut in range(len(blob)):
            with pytest.raises(CompressorError):
                huff.decode(blob[:cut])

    @pytest.mark.parametrize(
        "mode", [ErrorBoundMode.RELATIVE, ErrorBoundMode.ABSOLUTE], ids=["rel", "abs"]
    )
    def test_every_sz_prefix_raises_compressor_error(self, kernels, mode, spiky_data):
        codec = SZCompressor(bound=1e-3, mode=mode)
        blob = codec.compress(spiky_data[:300])
        for cut in range(len(blob)):
            with pytest.raises(CompressorError):
                codec.decompress(blob[:cut])

    @pytest.mark.parametrize("name", available_compressors())
    def test_every_codec_prefix_raises_compressor_error(
        self, make_codec, name, spiky_data
    ):
        # Every registered codec, not just SZ: a blob cut anywhere — inside
        # the header, a length field, a sub-blob, or only its last byte —
        # ends in the typed error, never in struct/numpy internals and never
        # in a silently "decoded" array.
        codec = make_codec(name)
        blob = codec.compress(spiky_data[:600])
        assert codec.decompress(blob).size == 600  # the whole blob decodes
        for cut in range(len(blob)):
            with pytest.raises(CompressorError):
                codec.decompress(blob[:cut])


def _heap_build_lengths(symbols: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Reference builder: the classic heap-based Huffman construction."""

    n = symbols.size
    if n == 1:
        return np.array([1], dtype=np.uint8)
    # node = (count, tie_breaker, index or tree)
    heap: list[tuple[int, int, object]] = []
    for i in range(n):
        heap.append((int(counts[i]), i, i))
    heapq.heapify(heap)
    tie = n
    parents: dict[int, list[int]] = {}
    while len(heap) > 1:
        c1, _, n1 = heapq.heappop(heap)
        c2, _, n2 = heapq.heappop(heap)
        parents[tie] = [n1, n2]  # type: ignore[list-item]
        heapq.heappush(heap, (c1 + c2, tie, tie))
        tie += 1
    # Depth-first traversal to assign lengths.
    lengths = np.zeros(n, dtype=np.uint8)
    _, _, root = heap[0]
    stack: list[tuple[object, int]] = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, int) and node < n:
            lengths[node] = max(depth, 1)
        else:
            for child in parents[node]:  # type: ignore[index]
                stack.append((child, depth + 1))
    return lengths


def _assert_same_lengths(counts) -> np.ndarray:
    """Check the builder against the reference; return the code lengths."""

    counts = np.asarray(counts, dtype=np.int64)
    symbols = np.arange(counts.size, dtype=np.int64)
    built = huffman._build_lengths(symbols, counts)
    reference = _heap_build_lengths(symbols, counts)
    assert built.dtype == reference.dtype
    assert np.array_equal(built, reference)
    return built


def _fibonacci(terms: int) -> list[int]:
    weights = [1, 1]
    while len(weights) < terms:
        weights.append(weights[-1] + weights[-2])
    return weights[:terms]


@st.composite
def _sz_count_vectors(draw) -> np.ndarray:
    """Counts of an SZ block's book: mostly 1s and 2s, a few heavy symbols.

    The runs of 1s include lengths 2^k - 1, 2^k and 2^k + 1, where pairing a
    run in bulk leaves one leaf over, none, or one again.
    """

    ones = draw(
        st.integers(1000, 8000)
        | st.sampled_from([2**k + d for k in (10, 11, 12) for d in (-1, 0, 1)])
    )
    twos = draw(st.integers(0, 600))
    middling = draw(st.lists(st.integers(3, 7), max_size=60))
    heavy = draw(st.lists(st.integers(8, 3000), max_size=6))
    counts = np.array([1] * ones + [2] * twos + middling + heavy, dtype=np.int64)
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(counts)


_count_vectors = st.one_of(
    # all equal
    st.builds(lambda n, c: [c] * n, st.integers(1, 300), st.integers(1, 1000)),
    # two-valued
    st.lists(st.sampled_from([3, 5]), min_size=1, max_size=300),
    # heavy ties: merged weights keep colliding with leaves and each other
    st.lists(st.integers(1, 4), min_size=1, max_size=300),
    # wide range, few ties
    st.lists(st.integers(1, 10**6), min_size=1, max_size=300),
    # Fibonacci weights in any symbol order: the deepest possible tree
    st.permutations(_fibonacci(40)),
    # SZ books at the simulator's size, where whole runs pair at once
    _sz_count_vectors(),
)


@st.composite
def _symbol_streams(draw) -> np.ndarray:
    """Delta-code-like streams: near-constant to wide, 1 to 9000 symbols."""

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(1, 9000))
    scale = draw(st.sampled_from([0.2, 3.0, 60.0, 650.0, 5000.0]))
    symbols = np.rint(rng.laplace(0.0, scale, size=size)).astype(np.int64)
    # SZ's escape code on a few symbols.
    symbols[rng.random(size) < draw(st.sampled_from([0.0, 0.01]))] = 32768
    return symbols


class TestBuilderMatchesHeapReference:
    """The run builder makes the heap builder's merge sequence."""

    @given(counts=_count_vectors)
    @settings(max_examples=300, deadline=None)
    def test_generated_counts(self, counts):
        _assert_same_lengths(counts)

    @pytest.mark.parametrize("k", range(1, 14))
    def test_all_equal_runs_around_powers_of_two(self, k):
        for size in (2**k - 1, 2**k, 2**k + 1):
            _assert_same_lengths(np.ones(size, dtype=np.int64))
            _assert_same_lengths(np.full(size, 3, dtype=np.int64))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_alphabets(self, n):
        _assert_same_lengths([7] * n)
        _assert_same_lengths(range(1, n + 1))
        _assert_same_lengths(range(n, 0, -1))

    def test_fibonacci_tree_is_a_comb(self):
        counts = _fibonacci(60)
        assert int(_assert_same_lengths(counts).max()) == 59
        assert int(_assert_same_lengths(counts[::-1]).max()) == 59

    def test_full_quantization_alphabet(self, rng):
        # SZ's 65536-bin quantization minus the escape symbol.
        _assert_same_lengths(rng.geometric(0.01, size=65535))
        _assert_same_lengths(np.ones(65535, dtype=np.int64))

    @pytest.mark.parametrize("book_size", [4, 3000])
    def test_workload_shaped_streams_encode_to_the_same_bytes(
        self, huff, rng, monkeypatch, book_size
    ):
        # The two book shapes of the simulator's SZ blocks (8192 delta codes):
        # near-constant streams and wide streams with mostly-singleton counts.
        if book_size == 4:
            symbols = rng.choice([0, 1, -1, 32768], size=8192, p=[0.97, 0.01, 0.01, 0.01])
        else:
            symbols = np.rint(rng.laplace(0.0, 650.0, size=8192))
        symbols = symbols.astype(np.int64)
        assert 0.8 * book_size <= np.unique(symbols).size <= 1.2 * book_size
        blob = huff.encode(symbols)
        monkeypatch.setattr(huffman, "_build_lengths", _heap_build_lengths)
        assert huff.encode(symbols) == blob

    @given(symbols=_symbol_streams())
    @settings(max_examples=60, deadline=None)
    def test_generated_streams_encode_to_the_same_bytes(self, symbols):
        # The whole encoder, dictionary included, against blobs built on the
        # heap builder's lengths.
        blob = huffman.encode(symbols)
        with mock.patch.object(huffman, "_build_lengths", _heap_build_lengths):
            assert huffman.encode(symbols) == blob
        assert np.array_equal(huffman.decode(blob), symbols)

"""Canonical Huffman codec over integer symbol streams.

SZ's third pipeline stage (Section 2.3 / 4.2, Solution A and B) entropy-codes
the quantization codes with Huffman coding before the final lossless pass.
This module provides a small, self-contained canonical-Huffman implementation
used by :mod:`repro.compression.sz` and :mod:`repro.compression.sz_complex`.

The codec owns the *format*: code-book construction, canonicalisation, wire
(de)serialisation and code-book validation.  Code-book construction is a
two-queue merge that pairs whole runs of equal weight at once, so an SZ
block's book (thousands of symbols, a handful of distinct counts) costs a
few dozen Python iterations; the encoder's symbol-to-code dictionary is
``np.unique``'s inverse indices mapped through the canonical order.  The hot
loops are two calls:
:func:`repro.compression.bitpack.pack_bitfields` packs the variable-width
code words on encode, and
:func:`repro.compression.engines.huffman_decode_indices` walks the bit
stream on decode (window lookup table + jump composition + anchor-ladder
wavefront).

The wire format is unchanged from the seed implementation: little-endian
``count`` / code book (symbols + lengths) / ``total_bits`` / MSB-first packed
code stream.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .bitpack import pack_bitfields
from .engines import huffman_decode_indices
from .interface import CompressorError, ConstructorPickled

__all__ = ["HuffmanCodec", "encode", "decode", "DECODE_WINDOW_BITS"]

#: Width (bits) of the decoder's window lookup table.  Codes no longer
#: than this resolve with one table gather; rarer, longer codes take the
#: searchsorted slow path.  2^W table entries are built per decode call; 16
#: is the widest window a uint16 table index supports and keeps the
#: slow-path fraction negligible even for the wide-alphabet books SZ's
#: 65536-bin quantization produces (the table is clamped to the book's
#: maximum code length, so small books build small tables).
DECODE_WINDOW_BITS = 16


@dataclass
class _CodeBook:
    """Canonical code book: symbols, code lengths and code values."""

    symbols: np.ndarray  # int64 symbols, sorted by (length, symbol)
    lengths: np.ndarray  # uint8 code lengths, same order
    codes: np.ndarray  # uint64 canonical code values, same order
    order: np.ndarray  # each entry's position in the unsorted input


def _build_lengths(symbols: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Return Huffman code lengths for each symbol given its frequency.

    Two-queue construction after one stable sort: leaves are consumed in
    ``(count, index)`` order, internal nodes from a FIFO — merged weights
    never decrease, so the FIFO is sorted by construction.  On equal weight a
    leaf goes before an internal node and internal nodes go in creation
    order; that is the merge sequence of a min-heap keyed ``(count, tie)``
    with ``tie = index`` for leaves and ``n, n + 1, ...`` for internal nodes,
    which is what the wire format's code lengths (and so every golden blob)
    were produced by.

    The merge loop steps by runs of equal weight, not by node.  While the
    leaf head is no heavier than the FIFO head, the leaves of its run pair
    with each other, ``run // 2`` nodes at once (each new node weighs twice
    the run's weight, so it never cuts in); while the FIFO head is lighter,
    the FIFO's own run pairs up the same way.  Single merges happen only at
    run boundaries, so SZ's books (thousands of symbols, a handful of
    distinct counts) take a few dozen iterations.  Every pick is recorded as
    a run of picks from one queue; pick ``p`` is a child of node ``p // 2``,
    and depths follow from the parent array by pointer doubling.
    """

    n = symbols.size
    if n == 1:
        return np.array([1], dtype=np.uint8)
    order = np.argsort(counts, kind="stable")
    leaf_weight = counts[order].tolist()
    # One sentinel heavier than any node ends each queue, so the merge loop
    # needs no bounds checks: an exhausted queue always loses the comparison.
    sentinel = int(counts.sum()) + 1
    leaf_weight.append(sentinel)
    merged_weight = [sentinel] * n
    from_leaf: list[bool] = []  # pick runs in pick order: source queue...
    picks: list[int] = []  # ...and run length
    leaf = merged = node = 0
    while node < n - 1:
        light_leaf, light_merged = leaf_weight[leaf], merged_weight[merged]
        if light_leaf <= light_merged:
            run_end = bisect_right(leaf_weight, light_leaf, leaf, n)
            pairs = (run_end - leaf) // 2
            if pairs:
                merged_weight[node : node + pairs] = [2 * light_leaf] * pairs
                from_leaf.append(True)
                picks.append(2 * pairs)
                leaf += 2 * pairs
                node += pairs
                continue
        else:
            run_end = bisect_right(merged_weight, light_merged, merged, node)
            pairs = (run_end - merged) // 2
            if pairs:
                merged_weight[node : node + pairs] = [2 * light_merged] * pairs
                from_leaf.append(False)
                picks.append(2 * pairs)
                merged += 2 * pairs
                node += pairs
                continue
        # A run of one: take the two lightest queue heads, the leaf on a tie.
        if light_leaf <= light_merged:
            weight = light_leaf
            from_leaf.append(True)
            leaf += 1
            light_leaf = leaf_weight[leaf]
        else:
            weight = light_merged
            from_leaf.append(False)
            merged += 1
            light_merged = merged_weight[merged]
        if light_leaf <= light_merged:
            merged_weight[node] = weight + light_leaf
            from_leaf.append(True)
            leaf += 1
        else:
            merged_weight[node] = weight + light_merged
            from_leaf.append(False)
            merged += 1
        picks += (1, 1)
        node += 1
    leaf_pick = np.repeat(from_leaf, picks)
    leaf_parent = np.flatnonzero(leaf_pick) >> 1  # by sorted leaf position
    # Pointer doubling on the internal nodes' parents, the root (the last
    # node) its own parent: ``depth`` is each node's distance to
    # ``ancestor``.  Parents are created in pick order, so depth never grows
    # with the node index and node 0 is the last to reach the root.
    root = n - 2
    ancestor = np.append(np.flatnonzero(~leaf_pick) >> 1, root)
    depth = np.ones(n - 1, dtype=np.int64)
    depth[root] = 0
    while ancestor[0] != root:
        depth += depth[ancestor]
        ancestor = ancestor[ancestor]
    lengths = np.empty(n, dtype=np.uint8)
    lengths[order] = depth[leaf_parent] + 1
    return lengths


def _canonicalize(symbols: np.ndarray, lengths: np.ndarray) -> _CodeBook:
    """Assign canonical code values given symbols and their code lengths.

    In the canonical ordering (ascending code length, symbol as tie-breaker)
    each code, left-justified to ``max_len`` bits, starts exactly where the
    previous code's ``2^(max_len - length)``-wide span ends — so the code
    values are an exclusive cumulative sum of span widths, computed without
    a per-entry loop.
    """

    order = np.lexsort((symbols, lengths))
    symbols = symbols[order]
    lengths = lengths[order]
    if symbols.size == 0:
        return _CodeBook(
            symbols=symbols,
            lengths=lengths,
            codes=np.zeros(0, dtype=np.uint64),
            order=order,
        )
    max_len = int(lengths[-1])
    spans = np.uint64(1) << (max_len - lengths).astype(np.uint64)
    left_justified = np.zeros(symbols.size, dtype=np.uint64)
    np.cumsum(spans[:-1], out=left_justified[1:])
    codes = left_justified >> (max_len - lengths).astype(np.uint64)
    return _CodeBook(symbols=symbols, lengths=lengths, codes=codes, order=order)


class HuffmanCodec(ConstructorPickled):
    """Encode/decode int64 symbol arrays with canonical Huffman codes.

    Parameters
    ----------
    window_bits:
        Width of the decode lookup table (a speed knob; the decoded stream
        never depends on it).
    """

    def __init__(self, window_bits: int = DECODE_WINDOW_BITS) -> None:
        if not 1 <= window_bits <= 16:
            raise CompressorError("window_bits must be in [1, 16]")
        self._window_bits = window_bits
        self._record_init(window_bits=window_bits)

    def encode(self, symbols: np.ndarray) -> bytes:
        """Encode a 1-D integer array into a self-describing byte string."""

        symbols = np.ascontiguousarray(symbols, dtype=np.int64)
        if symbols.ndim != 1:
            raise CompressorError("Huffman encoder expects a 1-D symbol array")
        header = struct.pack("<Q", symbols.size)
        if symbols.size == 0:
            return header + struct.pack("<I", 0)

        unique, inverse, counts = np.unique(
            symbols, return_inverse=True, return_counts=True
        )
        lengths = _build_lengths(unique, counts)
        book = _canonicalize(unique, lengths)

        # Dictionary from np.unique's own sort: ``inverse`` is each symbol's
        # index into ``unique``, and the book's ``order`` scatters the
        # canonical codes back into that order.
        code_of = np.empty_like(book.codes)
        code_of[book.order] = book.codes
        packed, total_bits = pack_bitfields(
            code_of[inverse], lengths.astype(np.int64)[inverse]
        )

        # Serialise the code book: number of entries, symbols, lengths.
        book_blob = (
            struct.pack("<I", book.symbols.size)
            + book.symbols.astype("<i8").tobytes()
            + book.lengths.astype("<u1").tobytes()
        )
        return (
            header
            + struct.pack("<I", len(book_blob))
            + book_blob
            + struct.pack("<Q", total_bits)
            + packed.tobytes()
        )

    def decode(self, blob: bytes) -> np.ndarray:
        """Inverse of :meth:`encode`.

        Any blob that is not a complete encoder output — truncated at any
        byte, or with an invalid code book — raises :class:`CompressorError`.
        """

        if len(blob) < 12:
            raise CompressorError("truncated Huffman blob (header)")
        (count,) = struct.unpack_from("<Q", blob, 0)
        offset = 8
        (book_len,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        # The book is followed by the 8-byte total_bits field.
        if book_len < 4 or len(blob) < offset + book_len + 8:
            raise CompressorError("truncated Huffman blob (code book)")
        book_blob = blob[offset : offset + book_len]
        offset += book_len
        (num_entries,) = struct.unpack_from("<I", book_blob, 0)
        sym_off = 4
        if book_len != sym_off + 9 * num_entries:
            raise CompressorError("invalid Huffman code book (bad size)")
        symbols = np.frombuffer(
            book_blob, dtype="<i8", count=num_entries, offset=sym_off
        ).astype(np.int64)
        lengths = np.frombuffer(
            book_blob, dtype="<u1", count=num_entries, offset=sym_off + 8 * num_entries
        ).astype(np.uint8)
        # Validate the (untrusted) code book before building decode tables:
        # lengths outside [1, 64] would drive undefined uint64 shifts, and a
        # Kraft-inequality violation would overflow the window table.  The
        # float Kraft sum is exact far beyond the 2^-16 violation the table
        # could ever be sensitive to.
        if num_entries == 0:
            raise CompressorError("invalid Huffman code book (empty)")
        if int(lengths.min()) < 1 or int(lengths.max()) > 64:
            raise CompressorError("invalid Huffman code book (bad code length)")
        if float((2.0 ** -lengths.astype(np.float64)).sum()) > 1.0 + 1e-9:
            raise CompressorError("invalid Huffman code book (Kraft violation)")

        (total_bits,) = struct.unpack_from("<Q", blob, offset)
        offset += 8
        packed = np.frombuffer(blob, dtype=np.uint8, offset=offset)
        if packed.size * 8 < total_bits or total_bits == 0:
            raise CompressorError("Huffman stream exhausted prematurely")
        # Every code is at least one bit, so a larger count is corrupt — and
        # would size the decoder's per-symbol buffers from it.
        if count > total_bits:
            raise CompressorError("invalid Huffman blob (count exceeds stream bits)")
        book = _canonicalize(symbols, lengths)
        return self._decode_stream(packed, int(total_bits), int(count), book)

    def _decode_stream(
        self, packed: np.ndarray, total_bits: int, count: int, book: _CodeBook
    ) -> np.ndarray:
        flat_idx = huffman_decode_indices(
            packed, total_bits, count, book.lengths, book.codes, self._window_bits
        )
        return book.symbols[flat_idx]


_DEFAULT_CODEC = HuffmanCodec()


def encode(symbols: np.ndarray) -> bytes:
    """Module-level convenience wrapper around :class:`HuffmanCodec.encode`."""

    return _DEFAULT_CODEC.encode(symbols)


def decode(blob: bytes) -> np.ndarray:
    """Module-level convenience wrapper around :class:`HuffmanCodec.decode`."""

    return _DEFAULT_CODEC.decode(blob)

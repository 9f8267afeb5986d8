"""The two codec kernels that are more than one NumPy call.

Every codec hot loop has exactly one implementation, and most of them live
beside the format they serve: variable-width bitfield packing in
:mod:`repro.compression.bitpack`, linear-scaling quantization in
:mod:`repro.compression.quantization`, the 2-bit leading-zero code
(un)packing of Solution C in :mod:`repro.compression.bitplane`.  The two
kernels with a body of their own are here:

* :func:`huffman_decode_indices` — the table-driven canonical Huffman decode
  (window lookup + jump composition + anchor ladder + lock-step wavefront)
  behind :class:`repro.compression.huffman.HuffmanCodec`,
* :func:`sz_reconstruct` — the loop-free escape-segment reconstruction
  (global cumsum + per-segment offset repeat) behind
  :func:`repro.compression.sz.decompress_absolute_stream`.

The byte layouts and float arithmetic are exactly the historical ones: the
golden blobs in ``tests/golden/`` pin them, and ``tests/test_engines.py``
differential-tests every kernel against the sequential reference loops in
``tests/reference_kernels.py``.
"""

from __future__ import annotations

import threading

import numpy as np

from .interface import CompressorError
from .quantization import dequantize, quantize

__all__ = ["available_engines", "huffman_decode_indices", "sz_reconstruct"]


def available_engines() -> tuple[str, ...]:
    """Always ``("numpy",)`` — there is one kernel implementation."""

    # Read by benchmarks/e2e/e2e_harness.py (frozen); goes with that import.
    return ("numpy",)


def _chunk_log2(total_bits: int, count: int) -> int:
    """log2 of the symbols decoded per wavefront chunk, from the stream itself.

    The anchor ladder runs ``ceil(count / chunk)`` Python iterations (a couple
    hundred nanoseconds each) and jump composition makes ``log2(chunk)``
    passes over a table as long as the stream's *bit* length (a few
    nanoseconds per bit per pass), so the two balance at a chunk of roughly
    ``48 / bits-per-symbol``: 4 symbols on the ~12-bit wide-alphabet streams
    of the codec bench, 16 on near-constant 1-2 bit streams, where the ladder
    would otherwise dominate.  The simulator's SZ blocks fall in between:
    ``qft15_sz``'s measure 1 to 6.7 bits per symbol (4.6 on average), so
    their chunks are 4 to 16.  Above 16 the
    wavefront's per-row overhead and the wider jump dtype cost more than the
    ladder saves.  The decoded indices do not depend on the choice.
    """

    balanced = (48 * count // total_bits).bit_length() - 1
    return min(max(balanced, 2), 4, max(count - 1, 1).bit_length())


_ARANGE_CACHE = np.zeros(0, dtype=np.int64)


def _cached_arange(size: int) -> np.ndarray:
    """Grow-only cached ``np.arange(size)`` slice.

    Decode is called once per block, and the arange is the same every time —
    caching it saves one full allocation + fill pass per call.  The cache is
    only ever swapped for a larger array (an atomic rebind under the GIL), so
    concurrent decodes each see a consistent array: the simulator starts no
    thread, but a codec is public API and may be called from user threads.
    """

    global _ARANGE_CACHE
    if _ARANGE_CACHE.size < size:
        _ARANGE_CACHE = np.arange(max(size, 2 * _ARANGE_CACHE.size), dtype=np.int64)
    return _ARANGE_CACHE[:size]


_SCRATCH = threading.local()


def _scratch(name: str, size: int, dtype: np.dtype) -> np.ndarray:
    """Grow-only per-thread scratch buffer (uninitialised).

    The decoder's big flat work arrays are the same shape on every call for a
    given block size; reusing them avoids an allocation plus a page-fault
    pass per call.  Thread-local storage keeps concurrent decodes
    independent: the simulator starts no thread, but a codec is public API
    and may be called from user threads.
    """

    buffers = getattr(_SCRATCH, "buffers", None)
    if buffers is None:
        buffers = _SCRATCH.buffers = {}
    buf = buffers.get(name)
    if buf is None or buf.size < size or buf.dtype != dtype:
        buf = buffers[name] = np.empty(max(size, 1024), dtype=dtype)
    return buf[:size]


def _window_table(
    lengths: np.ndarray, window_bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lookup table over every *window_bits*-bit window.

    ``table_idx[w]`` is the book index of the code that the window ``w``
    starts with (or the book size as an invalid/escape sentinel) and
    ``table_len[w]`` its code length (0 for the sentinel).  Canonical codes
    of length <= W tile the window space contiguously from 0, so the table is
    two ``np.repeat`` fills.
    """

    n = lengths.size
    lengths64 = lengths.astype(np.int64)
    short = int(np.searchsorted(lengths64, window_bits, side="right"))
    spans = np.int64(1) << (window_bits - lengths64[:short])
    covered = int(spans.sum())
    table_idx = np.full(1 << window_bits, n, dtype=np.int32)
    table_len = np.zeros(1 << window_bits, dtype=np.uint8)
    table_idx[:covered] = np.repeat(np.arange(short, dtype=np.int32), spans)
    table_len[:covered] = np.repeat(lengths[:short], spans)
    return table_idx, table_len


def _windows_at_every_offset(
    padded: np.ndarray, num_bytes: int, total_bits: int, window_bits: int
) -> np.ndarray:
    """The *window_bits*-bit window starting at every bit offset of a stream.

    Built from a 24-bit sliding read per byte and eight strided shifts (one
    per sub-byte phase — a fixed 8 iterations regardless of stream length).
    """

    b = padded.astype(np.uint32)
    wide = (b[:num_bytes] << 16) | (b[1 : num_bytes + 1] << 8) | b[2 : num_bytes + 2]
    mask = np.uint32((1 << window_bits) - 1)
    windows = _scratch("windows", num_bytes * 8, np.uint16).reshape(num_bytes, 8)
    for phase in range(8):  # eight bit phases within a byte, not stream-sized
        windows[:, phase] = (wide >> np.uint32(24 - window_bits - phase)) & mask
    return windows.reshape(-1)[:total_bits]


def _windows64(padded: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Left-justified 64-bit windows at the given bit *positions*."""

    byte_idx = positions >> 3
    shift = (positions & 7).astype(np.uint64)
    hi = np.zeros(positions.size, dtype=np.uint64)
    for j in range(8):  # eight bytes of a 64-bit window, not stream-sized
        hi = (hi << np.uint64(8)) | padded[byte_idx + j].astype(np.uint64)
    spill = padded[byte_idx + 8].astype(np.uint64)
    return np.where(
        shift == 0, hi, (hi << shift) | (spill >> (np.uint64(8) - shift))
    )


def _resolve_long_codes(
    padded: np.ndarray,
    positions: np.ndarray,
    lengths: np.ndarray,
    codes: np.ndarray,
    left_justified64: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Slow-path escape: codes longer than the window, via binary search.

    Canonical codes are lexicographically ordered when left-justified, so the
    code starting at a bit position is found by ``searchsorted`` of the
    position's 64-bit window against the left-justified code values.
    Returns ``(book index, code length)`` with the sentinel
    ``(book size, 0)`` where no code matches (garbage offsets).
    """

    n = lengths.size
    win64 = _windows64(padded, positions)
    idx = np.searchsorted(left_justified64, win64, side="right") - 1
    idx = np.maximum(idx, 0)
    code_len = lengths[idx].astype(np.uint64)
    matches = (win64 >> (np.uint64(64) - code_len)) == codes[idx]
    return (
        np.where(matches, idx, n).astype(np.int32),
        np.where(matches, code_len, 0).astype(np.uint8),
    )


def huffman_decode_indices(
    packed: np.ndarray,
    total_bits: int,
    count: int,
    lengths: np.ndarray,
    codes: np.ndarray,
    window_bits: int,
) -> np.ndarray:
    """Decode *count* canonical-Huffman code-book indices from a stream.

    ``packed`` is the MSB-first byte stream, ``lengths``/``codes`` the
    canonical code book sorted by (length, symbol); ``window_bits`` is the
    lookup-table width (the decoded indices never depend on it).  Table
    driven: window lookup, jump composition, wavefront.  Returns the book
    index of every decoded symbol; raises ``CompressorError`` when the stream
    ends early or spells no valid code.
    """

    n = lengths.size
    max_len = int(lengths[-1])
    window_bits = min(window_bits, max_len)
    table_idx, table_len = _window_table(lengths, window_bits)
    has_long_codes = max_len > window_bits
    left_justified64 = (
        codes << (np.uint64(64) - lengths.astype(np.uint64))
        if has_long_codes
        else None
    )

    num_bytes = (total_bits + 7) // 8
    padded = np.concatenate(
        [packed[:num_bytes], np.zeros(9, dtype=np.uint8)]
    )
    windows = _windows_at_every_offset(padded, num_bytes, total_bits, window_bits)

    # Code length at every bit offset; garbage offsets (no real code
    # starts there) get whatever code their bits happen to spell, which
    # is harmless — the composed jumps below are only ever *read* along
    # the one chain of true code starts.
    bit_len = table_len[windows]
    if has_long_codes:
        escapes = np.flatnonzero(bit_len == 0)
        if escapes.size:
            _, esc_len = _resolve_long_codes(
                padded, escapes, lengths, codes, left_justified64
            )
            bit_len[escapes] = esc_len

    chunk_log2 = _chunk_log2(total_bits, count)
    chunk = 1 << chunk_log2
    num_chunks = -(-count // chunk)

    # Stage 2: jump composition.  jump[p] = bits advanced by decoding
    # 2^r codes starting at offset p; doubled log2(chunk) times.  The
    # reads are near-sequential (each offset looks at most
    # chunk * max_len bits ahead), so these passes stream through memory:
    # each round is one add into an int64 index buffer, one gather, one
    # in-place add.  The pad region past the stream (ones, then a zero
    # tail one maximum-jump wide) absorbs every overshooting read, so no
    # index ever needs clamping: composed jumps are bounded by
    # chunk * max_len and pad jumps collapse onto the zero tail.
    pad_bits = chunk * max(64, max_len) + 64
    # Composed jumps are bounded by chunk * max_len, so they almost
    # always fit uint8 — a quarter of the int32 traffic per pass.
    jump_dtype = np.uint8 if chunk * max_len <= 255 else np.int32
    jump = _scratch("jump", total_bits + pad_bits, jump_dtype)
    np.maximum(bit_len, 1, out=jump[:total_bits], casting="unsafe")
    jump[total_bits:-64] = 1
    jump[-64:] = 0
    anchors = np.zeros(num_chunks, dtype=np.int64)
    if num_chunks > 1:
        offsets = _cached_arange(jump.size)
        target = _scratch("target", jump.size, np.int64)
        for _ in range(chunk_log2):  # log2(chunk) composition rounds
            np.add(offsets, jump, out=target)
            jump += jump[target]
        # Anchor ladder: one Python step per *chunk* of decoded symbols.
        jump_at = jump.item
        position = 0
        for k in range(1, num_chunks):
            position += jump_at(position)
            anchors[k] = position
        if anchors[-1] >= total_bits:
            raise CompressorError("Huffman stream exhausted prematurely")

    # Stage 3: wavefront — decode every chunk in lock-step; the loop runs
    # `chunk` times however long the stream is.
    idx_rows = np.empty((chunk, num_chunks), dtype=np.int32)
    cursor = anchors
    limit = total_bits - 1
    last_lane = (count - 1) // chunk
    last_slot = (count - 1) % chunk
    last_pos = 0
    for t in range(chunk):  # fixed chunk width, independent of count
        safe = np.minimum(cursor, limit)
        w = windows[safe]
        ids = table_idx[w]
        lens = table_len[w]
        if has_long_codes:
            miss = np.flatnonzero(ids == n)
            if miss.size:
                esc_idx, esc_len = _resolve_long_codes(
                    padded, safe[miss], lengths, codes, left_justified64
                )
                ids[miss] = esc_idx
                lens[miss] = esc_len
        idx_rows[t] = ids
        if t == last_slot:
            last_pos = int(cursor[last_lane])
        cursor = cursor + lens
    flat_idx = idx_rows.T.reshape(-1)[:count]

    last_idx = int(flat_idx[-1])
    if last_idx == n or last_pos + int(lengths[last_idx]) > total_bits:
        raise CompressorError("Huffman stream exhausted prematurely")
    if (flat_idx == n).any():
        raise CompressorError("invalid Huffman stream (no code matches)")
    return flat_idx


def sz_reconstruct(
    bounded: np.ndarray,
    escape_indices: np.ndarray,
    escape_values: np.ndarray,
    error_bound: float,
) -> np.ndarray:
    """Loop-free reconstruction: global cumsum + per-segment offsets.

    Every escape re-anchors the running sum on its own quantized code, so
    the reconstruction is one global cumulative sum of the deltas (with
    escape deltas zeroed) plus a per-segment offset: for the segment
    after escape k the offset is the escape's code minus the cumulative
    sum at its anchor.  The offsets broadcast to positions with one
    ``np.repeat`` over the segment lengths — no loop over segments.
    """

    count = bounded.size
    codes = bounded.copy()
    codes[escape_indices] = 0
    np.cumsum(codes, out=codes)
    if escape_indices.size:
        escape_codes = quantize(escape_values, error_bound)
        segment_offsets = escape_codes - codes[escape_indices]
        segment_lengths = np.diff(escape_indices, append=count)
        # Positions before the first escape keep the plain cumulative sum
        # (offset 0), exactly as the seed's sequential walk did.
        codes[escape_indices[0] :] += np.repeat(segment_offsets, segment_lengths)
    values = dequantize(codes, error_bound)
    if escape_indices.size:
        values[escape_indices] = escape_values
    return values

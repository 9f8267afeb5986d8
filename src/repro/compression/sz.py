"""Solution A: SZ-style prediction + quantization + Huffman + lossless.

SZ 2.1 is the strongest existing error-bounded lossy compressor the paper
evaluates (Section 4.1) and the baseline that Solutions C/D are measured
against.  For the 1-D quantum state stream its pipeline is:

1. *Lorenzo prediction*: predict each point from its (decompressed)
   predecessor.
2. *Linear-scaling quantization*: encode the prediction error as an integer
   multiple of ``2 * error_bound``.
3. *Huffman encoding* of the quantization codes.
4. *Lossless* (Zstd) compression of everything.

This implementation quantizes every value onto the global grid with pitch
``2 * error_bound`` and then delta-codes the grid indices.  For a 1-D Lorenzo
predictor this is algebraically the same transform (the delta of grid codes
*is* the quantized prediction error) while keeping every stage vectorised;
the pointwise error bound is enforced by the grid pitch exactly as in SZ.
Values whose grid code does not fit the configured quantization-bin range are
stored verbatim as "unpredictable" values, mirroring SZ's escape mechanism.

Pointwise *relative* bounds are handled the way SZ 2.1 does it: the data is
mapped to the logarithm domain and compressed there with the equivalent
absolute bound (plus a sign stream and a zero-position stream).
"""

from __future__ import annotations

import struct

import numpy as np

from . import huffman, quantization
from .engines import sz_reconstruct
from .interface import (
    Compressor,
    CompressorError,
    ErrorBoundMode,
    pack_header,
    register_compressor,
    unpack_header,
)
from .lossless import lossless_compress_bytes, lossless_decompress_bytes

__all__ = ["SZCompressor", "DEFAULT_QUANTIZATION_BINS"]

_TAG_ABS = 0x05
_TAG_REL = 0x06

#: SZ 2.1's default maximum number of quantization bins (Section 4.2).
DEFAULT_QUANTIZATION_BINS = 65536


# ---------------------------------------------------------------------------
# Shared absolute-error-bounded kernel (also used by Solution B)
# ---------------------------------------------------------------------------


def compress_absolute_stream(
    array: np.ndarray,
    bound: float,
    max_bins: int,
    level: int,
) -> bytes:
    """Compress a float64 stream under an absolute error bound.

    Returns a payload (without the outer header) containing the Huffman-coded
    bounded delta codes, the escape positions and raw values, all passed
    through the lossless stage.
    """

    codes = quantization.quantize(array, bound)
    deltas = np.empty_like(codes)
    if codes.size:
        deltas[0] = codes[0]
        deltas[1:] = codes[1:] - codes[:-1]

    half_bins = max_bins // 2
    predictable = np.abs(deltas) < half_bins
    # The first value is always stored raw so the decoder has an anchor that
    # does not depend on the quantization grid.
    if deltas.size:
        predictable[0] = False

    bounded = np.where(predictable, deltas, half_bins)  # escape symbol
    escape_values = array[~predictable]

    huff_blob = huffman.encode(bounded.astype(np.int64))
    escape_blob = escape_values.astype("<f8").tobytes()

    payload = (
        struct.pack("<dIQ", bound, max_bins, escape_values.size)
        + struct.pack("<Q", len(huff_blob))
        + huff_blob
        + escape_blob
    )
    return lossless_compress_bytes(payload, level)


def decompress_absolute_stream(blob: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`compress_absolute_stream`."""

    payload = lossless_decompress_bytes(blob)
    offset = struct.calcsize("<dIQQ")
    if len(payload) < offset:
        raise CompressorError("truncated SZ payload (header)")
    bound, max_bins, num_escapes, huff_len = struct.unpack_from("<dIQQ", payload, 0)
    if len(payload) < offset + huff_len + 8 * num_escapes:
        raise CompressorError("truncated SZ payload (streams)")
    bounded = huffman.decode(payload[offset : offset + huff_len])
    offset += huff_len
    escape_values = np.frombuffer(
        payload, dtype="<f8", count=num_escapes, offset=offset
    ).astype(np.float64)

    if bounded.size != count:
        raise CompressorError(
            f"SZ stream decoded {bounded.size} codes, expected {count}"
        )
    half_bins = max_bins // 2
    escape_indices = np.flatnonzero(bounded == half_bins)
    if escape_indices.size != num_escapes:
        raise CompressorError(
            f"SZ stream decoded {escape_indices.size} escapes, "
            f"header claims {num_escapes}"
        )
    return sz_reconstruct(bounded, escape_indices, escape_values, bound)


# ---------------------------------------------------------------------------
# The compressor class
# ---------------------------------------------------------------------------


class SZCompressor(Compressor):
    """Solution A: SZ-style compressor for 1-D float64 streams.

    Parameters
    ----------
    bound:
        The error bound value.
    mode:
        ``ErrorBoundMode.ABSOLUTE`` or ``ErrorBoundMode.RELATIVE``
        (default relative, which is what the simulator uses).
    max_bins:
        Maximum number of quantization bins (65536 in SZ 2.1).
    """

    name = "sz"

    def __init__(
        self,
        bound: float = 1e-3,
        mode: ErrorBoundMode = ErrorBoundMode.RELATIVE,
        max_bins: int = DEFAULT_QUANTIZATION_BINS,
        level: int = 6,
    ) -> None:
        if mode is ErrorBoundMode.LOSSLESS:
            raise CompressorError("SZ is a lossy compressor; use LosslessCompressor")
        super().__init__(mode, bound)
        if max_bins < 4:
            raise CompressorError("max_bins must be at least 4")
        self._max_bins = int(max_bins)
        self._level = int(level)
        self._record_init(
            bound=self.bound,
            mode=mode,
            max_bins=self._max_bins,
            level=self._level,
        )

    @property
    def max_bins(self) -> int:
        """Quantization-bin budget for the linear-scaling stage."""

        return self._max_bins

    # -- absolute mode ------------------------------------------------------------

    def _compress_abs(self, array: np.ndarray) -> bytes:
        payload = compress_absolute_stream(
            array, self.bound, self._max_bins, self._level
        )
        return pack_header(_TAG_ABS, array.size, b"") + payload

    def _decompress_abs(self, blob: bytes, count: int, offset: int) -> np.ndarray:
        return decompress_absolute_stream(blob[offset:], count)

    # -- relative mode (log transform) ----------------------------------------------

    def _compress_rel(self, array: np.ndarray) -> bytes:
        log_mag, signs, zero_mask = quantization.log_transform(array)
        log_bound = quantization.relative_to_log_absolute(self.bound)
        body = compress_absolute_stream(
            log_mag, log_bound, self._max_bins, self._level
        )
        sign_bits = np.packbits((signs < 0).astype(np.uint8))
        zero_bits = np.packbits(zero_mask.astype(np.uint8))
        side = lossless_compress_bytes(
            sign_bits.tobytes() + zero_bits.tobytes(), self._level
        )
        extra = struct.pack("<QQ", len(body), len(side))
        return pack_header(_TAG_REL, array.size, extra) + body + side

    def _decompress_rel(self, blob: bytes, count: int, extra: bytes, offset: int) -> np.ndarray:
        if len(extra) != 16:
            raise CompressorError("invalid SZ blob (relative-mode header)")
        body_len, side_len = struct.unpack("<QQ", extra)
        if len(blob) < offset + body_len + side_len:
            raise CompressorError("truncated SZ blob (relative-mode streams)")
        body = blob[offset : offset + body_len]
        side = blob[offset + body_len : offset + body_len + side_len]
        log_mag = decompress_absolute_stream(body, count)
        side_raw = lossless_decompress_bytes(side)
        packed_len = (count + 7) // 8
        if len(side_raw) < 2 * packed_len:
            raise CompressorError("truncated SZ blob (sign/zero bitmaps)")
        sign_bits = np.unpackbits(
            np.frombuffer(side_raw[:packed_len], dtype=np.uint8)
        )[:count]
        zero_bits = np.unpackbits(
            np.frombuffer(side_raw[packed_len : 2 * packed_len], dtype=np.uint8)
        )[:count]
        signs = np.where(sign_bits == 1, -1.0, 1.0)
        return quantization.log_inverse_transform(
            log_mag, signs, zero_bits.astype(bool)
        )

    # -- public API -------------------------------------------------------------------

    def compress(self, data: np.ndarray) -> bytes:
        """Predict, quantize within the bound, Huffman-pack (paper Sec. 4)."""

        array = self._as_float64(data)
        if array.size == 0:
            # Empty blocks share the regular absolute-stream payload layout
            # (<dIQ> header + Huffman length + empty Huffman blob) instead of
            # the seed's ad-hoc <dIQQ> struct, so every SZ payload now parses
            # with the same reader.  Decoders still accept the old layout:
            # they short-circuit on count == 0 without touching the payload.
            return pack_header(_TAG_ABS, 0, b"") + compress_absolute_stream(
                array, self.bound, self._max_bins, self._level
            )
        if self.mode is ErrorBoundMode.ABSOLUTE:
            return self._compress_abs(array)
        return self._compress_rel(array)

    def decompress(self, blob: bytes) -> np.ndarray:
        """Reconstruct within the error bound from either payload layout."""

        tag, count, extra, offset = unpack_header(blob)
        if count == 0:
            return np.zeros(0, dtype=np.float64)
        if tag == _TAG_ABS:
            return self._decompress_abs(blob, count, offset)
        if tag == _TAG_REL:
            return self._decompress_rel(blob, count, extra, offset)
        raise CompressorError(f"blob tag {tag} is not an SZ blob")


register_compressor("sz", SZCompressor, tags=(_TAG_ABS, _TAG_REL))
register_compressor("solution-a", SZCompressor)

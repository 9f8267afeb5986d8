"""Solution C: XOR leading-zero reduction + bit-plane truncation + lossless.

This is the paper's tailored lossy compressor (Section 4.2) and the one its
final simulator uses.  The pipeline for each block of doubles is:

1. Compute the number of significant leading bits from the pointwise relative
   error bound (Eq. 12) and truncate every value to that many bits
   (byte-aligned).  Truncation only ever shrinks the magnitude, so the
   decompressed value ``|d'|`` always lies in ``(|d|(1 - eps), |d|]`` — the
   guarantee quoted in Section 3.7.
2. XOR every truncated word with its predecessor and record the number of
   identical leading bytes with a two-bit code, emitting only the differing
   suffix bytes (the "XOR leading-zero data reduction" step borrowed from
   FPC).
3. Compress the code stream and the suffix stream with the lossless stage
   (Zstd in the paper, zlib here — see docs/architecture.md).

Compared with SZ (Solution A/B) this removes the three costly stages —
prediction, quantization and Huffman coding — which is why the paper reports
it as both faster and, on spiky quantum state data, at least as compressible.
The truncation errors depend only on each value's own low-order bits, so the
compression errors are uncorrelated across data points (evaluated in
Figure 14 and by ``repro.compression.metrics.lag1_autocorrelation``).
"""

from __future__ import annotations

import struct

import numpy as np

from . import bitplane
from .interface import (
    Compressor,
    CompressorError,
    ErrorBoundMode,
    pack_header,
    register_compressor,
    unpack_header,
)
from .lossless import lossless_compress_bytes, lossless_decompress_bytes

__all__ = ["XorBitplaneCompressor"]

_TAG = 0x03


class XorBitplaneCompressor(Compressor):
    """The paper's Solution C lossy compressor.

    Parameters
    ----------
    bound:
        Pointwise relative error bound (one of the paper's levels 1e-5..1e-1,
        though any positive value works).
    level:
        zlib level of the final lossless stage (zlib stands in for Zstd).
    """

    name = "xor-bitplane"

    def __init__(self, bound: float = 1e-3, level: int = 6) -> None:
        super().__init__(ErrorBoundMode.RELATIVE, bound)
        self._level = int(level)
        self._keep_bytes = bitplane.bytes_to_keep(bound)
        self._record_init(bound=self.bound, level=self._level)

    @property
    def keep_bytes(self) -> int:
        """Leading bytes of each double preserved by the truncation stage."""

        return self._keep_bytes

    # -- compression ---------------------------------------------------------------

    def compress(self, data: np.ndarray) -> bytes:
        """XOR-condition exponents, keep leading bit-planes (Solution C)."""

        array = self._as_float64(data)
        keep_bits = self._keep_bytes * 8

        # Subnormal doubles have no usable exponent field, so bit-plane
        # truncation cannot honour a relative bound on them; they are stored
        # verbatim in a (normally empty) exception stream.  Quantum amplitude
        # data never contains subnormals in practice, but the compressor must
        # not silently violate its contract when fed one.
        magnitude = np.abs(array)
        exceptional = (magnitude > 0.0) & (magnitude < np.finfo(np.float64).tiny)
        if exceptional.any():
            working = array.copy()
            working[exceptional] = 0.0
            exc_indices = np.flatnonzero(exceptional).astype("<u8")
            exc_values = array[exceptional].astype("<f8")
            exceptions = exc_indices.tobytes() + exc_values.tobytes()
        else:
            working = array
            exceptions = b""

        truncated = bitplane.truncate_bitplanes(working, keep_bits)
        words = truncated.view(np.uint64)
        xored = bitplane.xor_delta_encode(words)
        packed_codes, suffix = bitplane.pack_leading_zero_stream(
            xored, self._keep_bytes
        )
        codes_blob = lossless_compress_bytes(packed_codes, self._level)
        suffix_blob = lossless_compress_bytes(suffix, self._level)
        exc_blob = lossless_compress_bytes(exceptions, self._level)
        extra = struct.pack(
            "<BdIIIQ",
            self._keep_bytes,
            self.bound,
            len(codes_blob),
            len(suffix_blob),
            len(exc_blob),
            int(exceptional.sum()),
        )
        return pack_header(_TAG, array.size, extra) + codes_blob + suffix_blob + exc_blob

    # -- decompression ----------------------------------------------------------------

    def decompress(self, blob: bytes) -> np.ndarray:
        """Rebuild doubles from kept planes; exceptions restore exact values."""

        tag, count, extra, offset = unpack_header(blob)
        if tag != _TAG:
            raise CompressorError(f"blob tag {tag} is not a Solution C blob")
        keep_bytes, _bound, codes_len, suffix_len, exc_len, exc_count = struct.unpack(
            "<BdIIIQ", extra
        )
        # Checked up front: with no exceptions the third sub-blob is never
        # read, so a blob missing its tail would otherwise decode silently.
        if len(blob) < offset + codes_len + suffix_len + exc_len:
            raise CompressorError("truncated Solution C blob (payload)")
        codes_blob = blob[offset : offset + codes_len]
        suffix_blob = blob[offset + codes_len : offset + codes_len + suffix_len]
        exc_blob = blob[
            offset + codes_len + suffix_len : offset + codes_len + suffix_len + exc_len
        ]
        packed_codes = lossless_decompress_bytes(codes_blob)
        suffix = lossless_decompress_bytes(suffix_blob)
        xored = bitplane.unpack_leading_zero_stream(
            packed_codes, suffix, count, keep_bytes
        )
        values = bitplane.xor_delta_decode(xored).view(np.float64)
        if exc_count:
            exceptions = lossless_decompress_bytes(exc_blob)
            exc_indices = np.frombuffer(exceptions, dtype="<u8", count=exc_count)
            exc_values = np.frombuffer(
                exceptions, dtype="<f8", count=exc_count, offset=8 * exc_count
            )
            values[exc_indices.astype(np.int64)] = exc_values
        return values


register_compressor("xor-bitplane", XorBitplaneCompressor)
register_compressor("solution-c", XorBitplaneCompressor)

"""Solution B: SZ with complex-type support.

Solution B (Section 4.2) improves on plain SZ for quantum state data in two
ways:

* the real and the imaginary parts are predicted/compressed as two separate
  streams instead of one interleaved stream, which improves the prediction
  accuracy (neighbouring reals resemble each other much more than a real
  resembles the following imaginary), and
* the maximum number of quantization bins is lowered from 65,536 to 16,384,
  which speeds up encoding at tight error bounds.

It reuses the absolute/relative machinery of :mod:`repro.compression.sz` on
each half-stream.
"""

from __future__ import annotations

import struct

import numpy as np

from .interface import (
    Compressor,
    CompressorError,
    ErrorBoundMode,
    pack_header,
    register_compressor,
    unpack_header,
)
from .sz import SZCompressor

__all__ = ["SZComplexCompressor", "COMPLEX_QUANTIZATION_BINS"]

_TAG = 0x07

#: Solution B's reduced maximum number of quantization bins.
COMPLEX_QUANTIZATION_BINS = 16384


class SZComplexCompressor(Compressor):
    """Solution B: per-component SZ compression of complex amplitude data."""

    name = "sz-complex"

    def __init__(
        self,
        bound: float = 1e-3,
        mode: ErrorBoundMode = ErrorBoundMode.RELATIVE,
        max_bins: int = COMPLEX_QUANTIZATION_BINS,
        level: int = 6,
    ) -> None:
        if mode is ErrorBoundMode.LOSSLESS:
            raise CompressorError("SZ-complex is a lossy compressor")
        super().__init__(mode, bound)
        self._record_init(
            bound=self.bound,
            mode=mode,
            max_bins=int(max_bins),
            level=int(level),
        )
        self._inner = SZCompressor(
            bound=bound, mode=mode, max_bins=max_bins, level=level
        )

    @property
    def max_bins(self) -> int:
        """Quantization-bin budget of the inner SZ codec."""

        return self._inner.max_bins

    def compress(self, data: np.ndarray) -> bytes:
        """Split interleaved (real, imag) into two SZ streams (Solution B)."""

        array = self._as_float64(data)
        # Treat the stream as interleaved (real, imaginary) pairs; a trailing
        # unpaired value (odd length) joins the real stream.
        real_part = array[0::2]
        imag_part = array[1::2]
        real_blob = self._inner.compress(real_part)
        imag_blob = self._inner.compress(imag_part)
        extra = struct.pack("<QQ", len(real_blob), len(imag_blob))
        return pack_header(_TAG, array.size, extra) + real_blob + imag_blob

    def decompress(self, blob: bytes) -> np.ndarray:
        """Decode both SZ streams and re-interleave into one array."""

        tag, count, extra, offset = unpack_header(blob)
        if tag != _TAG:
            raise CompressorError(f"blob tag {tag} is not a Solution B blob")
        real_len, imag_len = struct.unpack("<QQ", extra)
        real_blob = blob[offset : offset + real_len]
        imag_blob = blob[offset + real_len : offset + real_len + imag_len]
        real_part = self._inner.decompress(real_blob)
        imag_part = self._inner.decompress(imag_blob)
        out = np.empty(count, dtype=np.float64)
        out[0::2] = real_part
        out[1::2] = imag_part
        return out


register_compressor("sz-complex", SZComplexCompressor)
register_compressor("solution-b", SZComplexCompressor)

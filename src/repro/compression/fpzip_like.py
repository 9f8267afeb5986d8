"""FPZIP-style precision-controlled predictive compressor (baseline).

FPZIP is the second existing lossy baseline the paper evaluates (Figure 8).
It does not take an error bound directly; instead a *precision* number
(4..64) selects how many most-significant bits of every double survive, and
the paper maps the precisions 16, 18, 22, 24 and 28 to the pointwise relative
error bounds 1e-1 .. 1e-5 "approximately".

This implementation keeps the two defining traits:

* precision-based truncation of each value to its leading bits, and
* predictive coding (previous-value prediction, residual encoded compactly)
  followed by an entropy/dictionary stage (zlib standing in for FPZIP's range
  coder).

The true guarantee of keeping ``p`` leading bits of a double is a pointwise
relative error of at most ``2**-(p - 12)`` (12 sign+exponent bits), which is
what :attr:`FPZIPLikeCompressor.bound` reports; the paper-style approximate
mapping is available through :meth:`FPZIPLikeCompressor.from_relative_bound`.
"""

from __future__ import annotations

import math
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

__all__ = ["FPZIPLikeCompressor", "PAPER_PRECISION_MAP"]

_TAG = 0x0A

#: The precision numbers the paper pairs with each relative error level.
PAPER_PRECISION_MAP: dict[float, int] = {
    1e-1: 16,
    1e-2: 18,
    1e-3: 22,
    1e-4: 24,
    1e-5: 28,
}


def _precision_to_bound(precision: int) -> float:
    """True pointwise relative bound guaranteed by keeping *precision* bits."""

    mantissa_bits = max(0, precision - bitplane.DOUBLE_SIGN_EXP_BITS)
    if mantissa_bits >= 52:
        return 0.0
    return 2.0 ** (-mantissa_bits) if mantissa_bits else 1.0


class FPZIPLikeCompressor(Compressor):
    """Precision-based predictive compressor standing in for FPZIP."""

    name = "fpzip"

    def __init__(self, precision: int = 22, level: int = 6) -> None:
        if not 4 <= precision <= 64:
            raise CompressorError("FPZIP precision must be in [4, 64]")
        bound = _precision_to_bound(precision)
        mode = ErrorBoundMode.LOSSLESS if precision >= 64 else ErrorBoundMode.RELATIVE
        super().__init__(mode, bound if bound > 0 else 1.0)
        if mode is ErrorBoundMode.LOSSLESS:
            self._bound = 0.0
        self._precision = int(precision)
        self._level = int(level)
        self._record_init(precision=self._precision, level=self._level)

    @classmethod
    def from_relative_bound(cls, bound: float, **kwargs) -> "FPZIPLikeCompressor":
        """Build the compressor from a paper-style relative error level.

        Uses the paper's precision table for the five standard levels and the
        exact formula (12 sign/exponent bits plus enough mantissa bits) for
        anything else.
        """

        if bound in PAPER_PRECISION_MAP:
            return cls(precision=PAPER_PRECISION_MAP[bound], **kwargs)
        if bound <= 0:
            raise CompressorError("relative error bound must be positive")
        mantissa_bits = max(0, math.ceil(-math.log2(bound)))
        return cls(precision=bitplane.DOUBLE_SIGN_EXP_BITS + mantissa_bits, **kwargs)

    @property
    def precision(self) -> int:
        """Mantissa bits kept per double (the configured precision)."""

        return self._precision

    def compress(self, data: np.ndarray) -> bytes:
        """Truncate mantissas, XOR-delta the words, entropy-pack the planes."""

        array = self._as_float64(data)
        truncated = bitplane.truncate_bitplanes(array, self._precision)
        words = truncated.view(np.uint64)
        residuals = bitplane.xor_delta_encode(words)
        keep_bytes = max(1, min(8, (self._precision + 7) // 8))
        big_endian = residuals[:, None].view(np.uint8).reshape(residuals.size, 8)[:, ::-1]
        payload = lossless_compress_bytes(
            np.ascontiguousarray(big_endian[:, :keep_bytes]).tobytes(),
            self._level,
        )
        extra = struct.pack("<BB", self._precision, keep_bytes)
        return pack_header(_TAG, array.size, extra) + payload

    def decompress(self, blob: bytes) -> np.ndarray:
        """Invert :meth:`compress`; exact for the kept bit-planes."""

        tag, count, extra, offset = unpack_header(blob)
        if tag != _TAG:
            raise CompressorError(f"blob tag {tag} is not an FPZIP-like blob")
        precision, keep_bytes = struct.unpack("<BB", extra)
        raw = lossless_decompress_bytes(blob[offset:])
        kept = np.frombuffer(raw, dtype=np.uint8).reshape(count, keep_bytes)
        full = np.zeros((count, 8), dtype=np.uint8)
        full[:, :keep_bytes] = kept
        residuals = full[:, ::-1].copy().view(np.uint64).reshape(count)
        words = bitplane.xor_delta_decode(residuals)
        return words.view(np.float64).copy()


register_compressor("fpzip", FPZIPLikeCompressor)

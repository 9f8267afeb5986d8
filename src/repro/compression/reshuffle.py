"""Solution D: real/imaginary reshuffle + Solution C.

Quantum state amplitudes are stored as interleaved real and imaginary doubles
(the complex128 memory layout).  Solution D (Section 4.2) first de-interleaves
the stream into all real parts followed by all imaginary parts, then applies
the Solution C pipeline.  The paper finds it compresses about the same as
Solution C (the value ranges of real and imaginary parts overlap, so LZ77
pattern matching barely improves) while being slightly slower because of the
extra shuffle — our benchmarks reproduce exactly that comparison
(Figures 10 and 11).
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
from .xor_bitplane import XorBitplaneCompressor

__all__ = ["ReshuffleCompressor"]

_TAG = 0x04


def _deinterleave(data: np.ndarray) -> np.ndarray:
    """Reorder ``[r0, i0, r1, i1, ...]`` into ``[r0, r1, ..., i0, i1, ...]``.

    Odd-length arrays (not produced by complex blocks, but allowed by the
    interface) keep their trailing element at the end of the first half.
    """

    half = (data.size + 1) // 2
    out = np.empty_like(data)
    out[:half] = data[0::2]
    out[half:] = data[1::2]
    return out


def _interleave(data: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_deinterleave`."""

    half = (data.size + 1) // 2
    out = np.empty_like(data)
    out[0::2] = data[:half]
    out[1::2] = data[half:]
    return out


class ReshuffleCompressor(Compressor):
    """Solution D: de-interleave real/imaginary parts, then Solution C."""

    name = "reshuffle"

    def __init__(self, bound: float = 1e-3, level: int = 6) -> None:
        super().__init__(ErrorBoundMode.RELATIVE, bound)
        self._record_init(bound=self.bound, level=int(level))
        self._inner = XorBitplaneCompressor(bound=bound, level=level)

    def compress(self, data: np.ndarray) -> bytes:
        """De-interleave (real, imag) pairs, then run the inner SZ codec."""

        array = self._as_float64(data)
        shuffled = _deinterleave(array)
        payload = self._inner.compress(shuffled)
        return pack_header(_TAG, array.size, b"") + payload

    def decompress(self, blob: bytes) -> np.ndarray:
        """Invert the inner codec, then re-interleave the two streams."""

        tag, count, _extra, offset = unpack_header(blob)
        if tag != _TAG:
            raise CompressorError(f"blob tag {tag} is not a Solution D blob")
        shuffled = self._inner.decompress(blob[offset:])
        if shuffled.size != count:
            raise CompressorError(
                f"Solution D payload decoded {shuffled.size} values, expected {count}"
            )
        return _interleave(shuffled)


register_compressor("reshuffle", ReshuffleCompressor, tags=(_TAG,))
register_compressor("solution-d", ReshuffleCompressor)

"""The lossless stage: zlib.

The paper uses Zstandard (Zstd) both as the stand-alone lossless stage at the
start of every simulation (Section 3.7) and as the final entropy/dictionary
stage of every lossy pipeline (SZ, Solutions C and D).

Zstandard is not available in this offline environment, so zlib stands in for
it behind the same :class:`Compressor` interface.  zlib is, like Zstd, an
LZ77-family dictionary coder followed by entropy coding, so the qualitative
behaviour the paper relies on (excellent ratios on the sparse early-simulation
states, poor ratios on dense random mantissas) is preserved; only the absolute
throughput and a constant ratio factor differ (``docs/architecture.md``).
"""

from __future__ import annotations

import zlib

import numpy as np

from .interface import (
    Compressor,
    CompressorError,
    ErrorBoundMode,
    pack_header,
    register_compressor,
    unpack_header,
)

__all__ = ["LosslessCompressor", "lossless_compress_bytes", "lossless_decompress_bytes"]


_TAG = 0x01

#: The lossless blob's backend byte.  Only zlib (0) is written or read; 1 and
#: 2 were the lzma and bz2 backends removed in 1.27.0.
_ZLIB_ID = 0


def lossless_compress_bytes(raw: bytes, level: int = 6) -> bytes:
    """Compress raw bytes with zlib at *level*."""

    return zlib.compress(raw, level)


def lossless_decompress_bytes(blob: bytes) -> bytes:
    """Inverse of :func:`lossless_compress_bytes`.

    A truncated or corrupt stream raises :class:`CompressorError`.
    """

    try:
        return zlib.decompress(blob)
    except zlib.error as exc:
        raise CompressorError(f"corrupt zlib stream: {exc}") from exc


class LosslessCompressor(Compressor):
    """Zstd-role lossless compressor over float64 arrays.

    Parameters
    ----------
    level:
        zlib compression level.  The default, 6, is zlib's own default;
        it only affects encoding (any level decodes any blob).  The simulator
        passes ``SimulatorConfig.lossless_level`` instead, which defaults to
        3, the highest of zlib's fast levels, as the paper runs Zstd at a
        fast setting.
    """

    name = "lossless"

    def __init__(self, level: int = 6) -> None:
        super().__init__(ErrorBoundMode.LOSSLESS, 0.0)
        self._level = int(level)
        self._record_init(level=self._level)

    def compress(self, data: np.ndarray) -> bytes:
        """Byte-exact compression of the raw float64 buffer."""

        array = self._as_float64(data)
        payload = lossless_compress_bytes(array.tobytes(), self._level)
        return pack_header(_TAG, array.size, bytes([_ZLIB_ID])) + payload

    def decompress(self, blob: bytes) -> np.ndarray:
        """Bit-exact reconstruction of the original float64 array."""

        tag, count, extra, offset = unpack_header(blob)
        if tag != _TAG:
            raise CompressorError(f"blob tag {tag} is not a lossless blob")
        if extra != bytes([_ZLIB_ID]):
            raise CompressorError(
                f"lossless blob backend byte {extra.hex() or 'missing'} is not "
                "zlib (0): the lzma and bz2 backends were removed in 1.27.0 "
                "(see docs/migration.md)"
            )
        raw = lossless_decompress_bytes(blob[offset:])
        array = np.frombuffer(raw, dtype=np.float64)
        if array.size != count:
            raise CompressorError(
                f"lossless blob decoded {array.size} values, expected {count}"
            )
        return array.copy()


register_compressor("lossless", LosslessCompressor, tags=(_TAG,))
register_compressor("zstd", LosslessCompressor)

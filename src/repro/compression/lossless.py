"""Lossless compression backends.

The paper uses Zstandard (Zstd) both as the stand-alone lossless stage at the
start of every simulation (Section 3.7) and as the final entropy/dictionary
stage of every lossy pipeline (SZ, Solutions C and D).

Zstandard is not available in this offline environment, so this module wraps
the Python standard library codecs — ``zlib`` (default), ``lzma`` and
``bz2`` — behind the same :class:`Compressor` interface.  zlib is, like Zstd,
an LZ77-family dictionary coder followed by entropy coding, so the qualitative
behaviour the paper relies on (excellent ratios on the sparse early-simulation
states, poor ratios on dense random mantissas) is preserved; only the absolute
throughput and a constant ratio factor differ.  This substitution is recorded
in DESIGN.md.
"""

from __future__ import annotations

import bz2
import lzma
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

_BACKENDS = {
    "zlib": (lambda raw, level: zlib.compress(raw, level), zlib.decompress),
    "lzma": (
        lambda raw, level: lzma.compress(raw, preset=min(max(level, 0), 9)),
        lzma.decompress,
    ),
    "bz2": (lambda raw, level: bz2.compress(raw, min(max(level, 1), 9)), bz2.decompress),
}

#: What the stdlib decoders raise on a truncated or corrupt stream (bz2 uses
#: the two builtins).
_DECODE_ERRORS = (zlib.error, lzma.LZMAError, OSError, ValueError, EOFError)

_BACKEND_IDS = {"zlib": 0, "lzma": 1, "bz2": 2}
_BACKEND_NAMES = {v: k for k, v in _BACKEND_IDS.items()}


def lossless_compress_bytes(raw: bytes, backend: str = "zlib", level: int = 6) -> bytes:
    """Compress raw bytes with the selected stdlib backend."""

    try:
        compress, _ = _BACKENDS[backend]
    except KeyError as exc:
        raise CompressorError(f"unknown lossless backend {backend!r}") from exc
    return compress(raw, level)


def lossless_decompress_bytes(blob: bytes, backend: str = "zlib") -> bytes:
    """Inverse of :func:`lossless_compress_bytes`.

    A truncated or corrupt stream raises :class:`CompressorError`.
    """

    try:
        _, decompress = _BACKENDS[backend]
    except KeyError as exc:
        raise CompressorError(f"unknown lossless backend {backend!r}") from exc
    try:
        return decompress(blob)
    except _DECODE_ERRORS as exc:
        raise CompressorError(f"corrupt {backend} stream: {exc}") from exc


class LosslessCompressor(Compressor):
    """Zstd-role lossless compressor over float64 arrays.

    Parameters
    ----------
    backend:
        ``"zlib"`` (default), ``"lzma"`` or ``"bz2"``.
    level:
        Backend compression level.  The default, 6, is zlib's own default;
        it only affects encoding (any level decodes any blob).  The simulator
        passes ``SimulatorConfig.lossless_level`` instead, which defaults to
        3, the highest of zlib's fast levels, as the paper runs Zstd at a
        fast setting.
    """

    name = "lossless"

    def __init__(self, backend: str = "zlib", level: int = 6) -> None:
        super().__init__(ErrorBoundMode.LOSSLESS, 0.0)
        if backend not in _BACKENDS:
            raise CompressorError(f"unknown lossless backend {backend!r}")
        self._backend = backend
        self._level = int(level)
        self._record_init(backend=backend, level=self._level)

    @property
    def backend(self) -> str:
        """Name of the byte-level backend in use (zlib/bz2/lzma)."""

        return self._backend

    def compress(self, data: np.ndarray) -> bytes:
        """Byte-exact compression of the raw float64 buffer."""

        array = self._as_float64(data)
        payload = lossless_compress_bytes(array.tobytes(), self._backend, self._level)
        extra = bytes([_BACKEND_IDS[self._backend]])
        return pack_header(_TAG, array.size, extra) + payload

    def decompress(self, blob: bytes) -> np.ndarray:
        """Bit-exact reconstruction of the original float64 array."""

        tag, count, extra, offset = unpack_header(blob)
        if tag != _TAG:
            raise CompressorError(f"blob tag {tag} is not a lossless blob")
        backend = _BACKEND_NAMES[extra[0]]
        raw = lossless_decompress_bytes(blob[offset:], backend)
        array = np.frombuffer(raw, dtype=np.float64)
        if array.size != count:
            raise CompressorError(
                f"lossless blob decoded {array.size} values, expected {count}"
            )
        return array.copy()


register_compressor("lossless", LosslessCompressor)
register_compressor("zstd", LosslessCompressor)

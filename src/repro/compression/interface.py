"""Compressor interface shared by every compression backend.

The paper evaluates four candidate lossy pipelines (Solutions A-D), two
existing lossy compressors used as baselines (ZFP, FPZIP) and one lossless
compressor (Zstd).  All of them are exposed here behind a single small
interface so the compressed simulator, the benchmarks and the tests can treat
them interchangeably:

* :class:`Compressor` — ``compress(ndarray) -> bytes`` /
  ``decompress(bytes) -> ndarray`` with a declared :class:`ErrorBoundMode`
  and bound value.
* :class:`CompressionRecord` — the bookkeeping produced by a round trip
  (sizes, ratio, timings), consumed by the reports and the adaptive
  controller.
* :func:`get_compressor` / :func:`available_compressors` — a registry keyed
  by the names used throughout the paper (``"sz"``, ``"sz-complex"``,
  ``"xor-bitplane"``, ``"reshuffle"``, ``"zfp"``, ``"fpzip"``, ``"lossless"``)
  and by the paper's solution letters (``"A"``–``"D"``).

All compressors operate on one-dimensional ``float64`` arrays.  Complex
amplitude blocks are viewed as interleaved real/imaginary ``float64`` pairs
by the callers (exactly the layout the paper describes for Solutions A and
C); Solutions B and D undo the interleaving internally.
"""

from __future__ import annotations

import abc
import enum
import struct
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "ErrorBoundMode",
    "CompressorError",
    "ConstructorPickled",
    "Compressor",
    "CompressionRecord",
    "roundtrip",
    "register_compressor",
    "get_compressor",
    "available_compressors",
    "PAPER_ERROR_LEVELS",
]


#: The five pointwise-relative error levels the paper steps through
#: (Section 3.7): 1e-5 (tightest) ... 1e-1 (loosest).
PAPER_ERROR_LEVELS: tuple[float, ...] = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)


class CompressorError(RuntimeError):
    """Raised when compression or decompression fails or is misconfigured."""


class ErrorBoundMode(enum.Enum):
    """Which error control a lossy compressor enforces (Section 2.3)."""

    #: No information loss at all.
    LOSSLESS = "lossless"
    #: Pointwise absolute bound: ``|d_i - d'_i| <= e``.
    ABSOLUTE = "abs"
    #: Pointwise relative bound: ``|d_i - d'_i| <= eps * |d_i|``.
    RELATIVE = "rel"


class ConstructorPickled:
    """Pickle as the constructor arguments; derived state is rebuilt on load.

    A codec crosses a process boundary on every ranked ``("gate", op, peer,
    tasks)`` message, so its payload must stay constructor-sized.  The
    constructor hands its arguments to :meth:`_record_init`; the one pair of
    pickle hooks below returns and replays them.
    """

    def _record_init(self, **args) -> None:
        """Record the constructor arguments for the pickle hooks."""

        self._init_args = args

    def __getstate__(self) -> dict:
        return self._init_args

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)


class Compressor(ConstructorPickled, abc.ABC):
    """Abstract base class for all compression backends."""

    #: Registry name, overridden by subclasses.
    name: str = "abstract"

    def __init__(self, mode: ErrorBoundMode, bound: float) -> None:
        if mode is not ErrorBoundMode.LOSSLESS and bound <= 0:
            raise CompressorError(
                f"{type(self).__name__}: error bound must be positive, got {bound}"
            )
        self._mode = mode
        self._bound = float(bound)

    # -- declared error control -------------------------------------------------

    @property
    def mode(self) -> ErrorBoundMode:
        """The error-bound mode this instance enforces."""

        return self._mode

    @property
    def bound(self) -> float:
        """The numeric error bound (0.0 for lossless backends)."""

        return self._bound

    @property
    def is_lossless(self) -> bool:
        """Whether this codec reconstructs bit-exactly (LOSSLESS mode)."""

        return self._mode is ErrorBoundMode.LOSSLESS

    # -- the two operations -------------------------------------------------------

    @abc.abstractmethod
    def compress(self, data: np.ndarray) -> bytes:
        """Compress a 1-D float64 array into a self-describing byte string."""

    @abc.abstractmethod
    def decompress(self, blob: bytes) -> np.ndarray:
        """Reverse :meth:`compress`, returning a float64 array."""

    # -- shared helpers ------------------------------------------------------------

    @staticmethod
    def _as_float64(data: np.ndarray) -> np.ndarray:
        array = np.ascontiguousarray(data)
        if array.dtype == np.complex128:
            # Interleaved real/imaginary view, matching the simulator layout.
            array = array.view(np.float64)
        if array.dtype != np.float64:
            array = array.astype(np.float64)
        if array.ndim != 1:
            array = array.ravel()
        return array

    def describe(self) -> str:
        """Short human-readable description used in benchmark output."""

        if self.is_lossless:
            return f"{self.name}(lossless)"
        return f"{self.name}({self._mode.value}={self._bound:g})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.describe()}>"


@dataclass
class CompressionRecord:
    """Metrics from one compress/decompress round trip."""

    compressor: str
    mode: str
    bound: float
    original_bytes: int
    compressed_bytes: int
    compress_seconds: float
    decompress_seconds: float
    max_abs_error: float = 0.0
    max_rel_error: float = 0.0

    @property
    def ratio(self) -> float:
        """Compression ratio ``original / compressed`` (higher is better)."""

        if self.compressed_bytes == 0:
            return float("inf")
        return self.original_bytes / self.compressed_bytes

    @property
    def compress_mb_per_s(self) -> float:
        """Compression throughput in MB/s over the original size."""

        if self.compress_seconds <= 0:
            return float("inf")
        return self.original_bytes / 1e6 / self.compress_seconds

    @property
    def decompress_mb_per_s(self) -> float:
        """Decompression throughput in MB/s over the original size."""

        if self.decompress_seconds <= 0:
            return float("inf")
        return self.original_bytes / 1e6 / self.decompress_seconds

    def as_dict(self) -> dict:
        """JSON-ready mapping of one compress/decompress measurement."""

        return {
            "compressor": self.compressor,
            "mode": self.mode,
            "bound": self.bound,
            "original_bytes": self.original_bytes,
            "compressed_bytes": self.compressed_bytes,
            "ratio": self.ratio,
            "compress_MBps": self.compress_mb_per_s,
            "decompress_MBps": self.decompress_mb_per_s,
            "max_abs_error": self.max_abs_error,
            "max_rel_error": self.max_rel_error,
        }


def roundtrip(compressor: Compressor, data: np.ndarray) -> tuple[np.ndarray, CompressionRecord]:
    """Compress and decompress *data*, returning the result and its metrics."""

    original = Compressor._as_float64(data)
    t0 = time.perf_counter()
    blob = compressor.compress(original)
    t1 = time.perf_counter()
    recovered = compressor.decompress(blob)
    t2 = time.perf_counter()

    abs_err = np.abs(original - recovered)
    max_abs = float(abs_err.max()) if abs_err.size else 0.0
    nonzero = np.abs(original) > 0
    if nonzero.any():
        max_rel = float((abs_err[nonzero] / np.abs(original[nonzero])).max())
    else:
        max_rel = 0.0

    record = CompressionRecord(
        compressor=compressor.name,
        mode=compressor.mode.value,
        bound=compressor.bound,
        original_bytes=original.nbytes,
        compressed_bytes=len(blob),
        compress_seconds=t1 - t0,
        decompress_seconds=t2 - t1,
        max_abs_error=max_abs,
        max_rel_error=max_rel,
    )
    return recovered, record


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, Callable[..., Compressor]] = {}

#: Aliases mapping the paper's "Solution" letters to registry names.
_SOLUTION_ALIASES = {
    "a": "sz",
    "b": "sz-complex",
    "c": "xor-bitplane",
    "d": "reshuffle",
}


def register_compressor(name: str, factory: Callable[..., Compressor]) -> None:
    """Register a compressor *factory* under *name* (case-insensitive)."""

    _REGISTRY[name.lower()] = factory


def available_compressors() -> tuple[str, ...]:
    """Names of all registered compressors."""

    return tuple(sorted(_REGISTRY))


def get_compressor(
    name: str, *, engine: str | None = None, backend: str | None = None, **kwargs
) -> Compressor:
    """Instantiate a registered compressor by *name* or solution letter."""

    # `engine` and `backend` are passed by benchmarks/e2e/e2e_trace.py
    # (frozen), as "numpy" and "zlib"; they select nothing and go with that
    # call, which goes with ROADMAP item 1.4 (docs/migration.md).
    if engine not in (None, "numpy"):
        raise CompressorError(
            f"codec engine {engine!r} was removed in 1.9.0: there is one "
            "kernel implementation, drop the argument (see docs/migration.md)"
        )
    if backend not in (None, "zlib"):
        raise CompressorError(
            f"lossless backend {backend!r} was removed in 1.27.0: zlib is the "
            "one lossless stage, drop the argument (see docs/migration.md)"
        )
    key = name.lower()
    key = _SOLUTION_ALIASES.get(key, key)
    try:
        factory = _REGISTRY[key]
    except KeyError as exc:
        raise CompressorError(
            f"unknown compressor {name!r}; available: {available_compressors()}"
        ) from exc
    return factory(**kwargs)


# ---------------------------------------------------------------------------
# Small binary-header helpers shared by the concrete compressors
# ---------------------------------------------------------------------------

_MAGIC = b"QCSC"  # "Quantum Circuit Simulation Compression"


def pack_header(tag: int, count: int, extra: bytes = b"") -> bytes:
    """Serialise a tiny self-describing header.

    ``tag`` identifies the concrete format, ``count`` the number of float64
    values, ``extra`` any format-specific parameters.
    """

    return _MAGIC + struct.pack("<BIQ", tag, len(extra), count) + extra


def unpack_header(blob: bytes) -> tuple[int, int, bytes, int]:
    """Inverse of :func:`pack_header`.

    Returns ``(tag, count, extra, payload_offset)``; a blob too short for
    its own header raises :class:`CompressorError`.
    """

    if blob[:4] != _MAGIC:
        raise CompressorError("not a repro compression blob (bad magic)")
    offset = 4 + struct.calcsize("<BIQ")
    if len(blob) < offset:
        raise CompressorError("truncated compression blob (header)")
    tag, extra_len, count = struct.unpack_from("<BIQ", blob, 4)
    if len(blob) < offset + extra_len:
        raise CompressorError("truncated compression blob (header extra)")
    extra = blob[offset : offset + extra_len]
    return tag, count, extra, offset + extra_len

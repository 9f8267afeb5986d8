"""Pluggable compiled kernel engines for the codec hot loops.

The three loops that dominate (de)compression wall-clock — the canonical
Huffman window-decode wavefront, SZ quantize/reconstruct, and the 2-bit
leading-zero code packing of Solution C — exist in two interchangeable
implementations:

* ``"numpy"`` — the vectorised pure-NumPy kernels the codecs have always
  used (extracted verbatim into :mod:`repro.compression.engines.numpy_engine`).
  Always available; the default.
* ``"numba"`` — JIT-compiled serial kernels
  (:mod:`repro.compression.engines.numba_engine`, ``@njit(cache=True)``).
  The NumPy fancy-index gathers at the heart of the table-driven Huffman
  decoder hold the GIL and pay one full-array pass per pipeline stage; the
  numba kernels run the naturally-sequential loops in machine code instead,
  release the GIL, and touch each element once.

Both engines are **blob-for-blob bit-identical**: they encode to the same
bytes and decode to the same values, so blobs (and checkpoints) written
under one engine always read under the other.  The golden blobs in
``tests/golden/`` and the differential suite in ``tests/test_engines.py``
pin this contract.

Selection is a constructor parameter on every codec
(``HuffmanCodec(engine="numba")``, ``SZCompressor(engine=...)``, ...),
plumbed from :class:`repro.core.config.SimulatorConfig` via its
``codec_engine`` field and surviving process/rank-worker pickling because
:class:`~repro.compression.interface.ConstructorPickled` pickles the
requested name with the other constructor arguments.  When numba is not
installed, requesting ``"numba"`` falls back to the NumPy engine with a
one-time :class:`EngineFallbackWarning`; nothing else changes, because the
two engines agree bit-for-bit.
"""

from __future__ import annotations

import importlib
import warnings

from ..interface import CompressorError
from .numpy_engine import CodecEngine, NumpyEngine

__all__ = [
    "KNOWN_ENGINES",
    "DEFAULT_ENGINE",
    "CodecEngine",
    "NumpyEngine",
    "EngineFallbackWarning",
    "available_engines",
    "engine_name",
    "get_engine",
    "resolve_engine",
]

#: Engine names the registry understands (valid values for every codec's
#: ``engine=`` parameter and for ``SimulatorConfig.codec_engine``).
KNOWN_ENGINES = ("numpy", "numba")

#: The engine used when none is requested.
DEFAULT_ENGINE = "numpy"


class EngineFallbackWarning(UserWarning):
    """Warned once per process when ``engine="numba"`` is requested but numba
    is not importable and the NumPy engine is silently substituted."""


_NUMPY_ENGINE = NumpyEngine()
_numba_engine = None  # lazily constructed singleton
_warned_fallback = False


def _numba_module():
    """Import :mod:`.numba_engine` lazily (importing numba itself is slow)."""

    return importlib.import_module(__name__ + ".numba_engine")


def available_engines() -> tuple[str, ...]:
    """Names of the engines whose kernels can run natively on this host.

    ``"numpy"`` is always present; ``"numba"`` is listed only when the numba
    package is importable (without it, ``get_engine("numba")`` still works
    but resolves to the NumPy fallback).
    """

    if _numba_module().HAVE_NUMBA:
        return ("numba", "numpy")
    return ("numpy",)


def get_engine(name: str | None = None) -> CodecEngine:
    """Return the engine registered under *name* (default ``"numpy"``).

    Unknown names raise :class:`~repro.compression.interface.CompressorError`.
    Requesting ``"numba"`` without numba installed returns the NumPy engine
    and fires :class:`EngineFallbackWarning` exactly once per process.
    """

    global _numba_engine, _warned_fallback
    key = DEFAULT_ENGINE if name is None else str(name).lower()
    if key not in KNOWN_ENGINES:
        raise CompressorError(
            f"unknown codec engine {name!r}; known engines: {KNOWN_ENGINES}"
        )
    if key == "numpy":
        return _NUMPY_ENGINE
    module = _numba_module()
    if module.HAVE_NUMBA:
        if _numba_engine is None:
            _numba_engine = module.NumbaEngine()
        return _numba_engine
    if not _warned_fallback:
        warnings.warn(
            "codec engine 'numba' requested but numba is not importable; "
            "falling back to the bit-identical 'numpy' engine",
            EngineFallbackWarning,
            stacklevel=2,
        )
        _warned_fallback = True
    return _NUMPY_ENGINE


def engine_name(engine: str | CodecEngine | None) -> str:
    """Normalise a codec's ``engine=`` argument to its *requested* name.

    The requested name — not the resolved one — is what codecs record and
    pickle, so a codec built with ``engine="numba"`` on a fallback host still
    asks for (and gets) the real numba engine when unpickled on a worker
    that has it.  Unknown names raise
    :class:`~repro.compression.interface.CompressorError`.
    """

    if engine is None:
        return DEFAULT_ENGINE
    if isinstance(engine, CodecEngine):
        return engine.name
    key = str(engine).lower()
    if key not in KNOWN_ENGINES:
        raise CompressorError(
            f"unknown codec engine {engine!r}; known engines: {KNOWN_ENGINES}"
        )
    return key


def resolve_engine(engine: str | CodecEngine | None) -> CodecEngine:
    """Normalise a codec's ``engine=`` argument to an engine instance.

    Accepts an engine name, an already-resolved :class:`CodecEngine`
    (passed through unchanged), or ``None`` for the default.
    """

    if isinstance(engine, CodecEngine):
        return engine
    return get_engine(engine)

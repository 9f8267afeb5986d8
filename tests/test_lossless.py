"""Unit tests for the lossless (Zstd-role) compressor."""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from repro.compression import (
    CompressorError,
    LosslessCompressor,
    get_compressor,
    roundtrip,
)
from repro.compression.interface import unpack_header
from repro.compression.lossless import (
    lossless_compress_bytes,
    lossless_decompress_bytes,
)


class TestByteLevelHelpers:
    def test_roundtrip_bytes(self):
        raw = b"quantum state amplitudes" * 100
        blob = lossless_compress_bytes(raw)
        assert lossless_decompress_bytes(blob) == raw
        assert len(blob) < len(raw)


class TestLosslessCompressor:
    def test_exact_roundtrip(self, rng):
        data = rng.normal(size=2048)
        compressor = LosslessCompressor()
        recovered, record = roundtrip(compressor, data)
        assert np.array_equal(recovered, data)
        assert record.max_abs_error == 0.0

    def test_zero_data_compresses_massively(self):
        data = np.zeros(1 << 14)
        compressor = LosslessCompressor()
        blob = compressor.compress(data)
        assert len(blob) < data.nbytes / 100
        assert np.array_equal(compressor.decompress(blob), data)

    def test_sparse_data_better_than_dense(self, rng):
        # The premise of Section 3.7: early (sparse) states compress well
        # losslessly, entangled (dense random) states do not.
        sparse = np.zeros(1 << 12)
        sparse[:: 1 << 8] = rng.normal(size=1 << 4)
        dense = rng.normal(size=1 << 12)
        compressor = LosslessCompressor()
        sparse_ratio = sparse.nbytes / len(compressor.compress(sparse))
        dense_ratio = dense.nbytes / len(compressor.compress(dense))
        assert sparse_ratio > 10 * dense_ratio

    def test_complex_input_accepted(self, rng):
        data = rng.normal(size=256) + 1j * rng.normal(size=256)
        compressor = LosslessCompressor()
        recovered = compressor.decompress(compressor.compress(data))
        assert np.array_equal(recovered.view(np.complex128), data)

    def test_is_lossless_flag(self):
        compressor = LosslessCompressor()
        assert compressor.is_lossless
        assert compressor.bound == 0.0
        assert "lossless" in compressor.describe()

    # (empty-array and foreign/garbage-blob rejection moved to the
    # codec_name-parametrized tests in test_codecs_common.py)

    def test_backend_argument_is_gone(self):
        with pytest.raises(TypeError):
            LosslessCompressor(backend="zlib")
        with pytest.raises(CompressorError, match="docs/migration.md"):
            get_compressor("sz", backend="lzma")
        # The frozen e2e trace passes the one backend there is.
        assert get_compressor("sz", backend="zlib").name == "sz"

    @pytest.mark.parametrize("backend_id", [1, 2])
    def test_removed_backend_byte_rejected(self, backend_id):
        # The byte the removed lzma (1) and bz2 (2) backends wrote.
        blob = bytearray(LosslessCompressor().compress(np.linspace(0, 1, 64)))
        offset = unpack_header(bytes(blob))[3]
        blob[offset - 1] = backend_id
        with pytest.raises(CompressorError, match="docs/migration.md"):
            LosslessCompressor().decompress(bytes(blob))


def test_import_loads_no_unused_stdlib_module():
    # No other lossless library, no ctypes (only the glibc heap setting of
    # a scratch pool uses it) and no socket (only the ranked tier's links).
    # Counted beyond what numpy loads, since numpy may load ctypes itself.
    # -S skips site hooks, which may load these modules themselves; the
    # parent's sys.path still finds repro and numpy.
    script = (
        "import sys; sys.path[:0] = sys.argv[1:]; import numpy; "
        "before = set(sys.modules); import repro; "
        "print(sorted({'lzma', 'bz2', 'ctypes', 'socket'} & "
        "(set(sys.modules) - before)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script, *sys.path],
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"

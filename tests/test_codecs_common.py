"""Format-level properties every codec family shares.

Parametrized over the ``codec_name`` fixture (sz / zfp / xor-bitplane /
lossless), replacing the per-codec copies these assertions used to have in
``test_lossless.py`` and ``test_compressors_lossy.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import CompressorError, ErrorBoundMode


@pytest.fixture
def codec(codec_name, make_codec):
    return make_codec(codec_name)


class TestCommonCodecProperties:
    def test_round_trip_honours_declared_contract(self, codec, spiky_data):
        recovered = codec.decompress(codec.compress(spiky_data))
        assert recovered.shape == spiky_data.shape
        if codec.is_lossless:
            assert np.array_equal(recovered, spiky_data)
        elif codec.mode is ErrorBoundMode.RELATIVE:
            nonzero = spiky_data != 0
            rel = np.abs(recovered[nonzero] - spiky_data[nonzero]) / np.abs(
                spiky_data[nonzero]
            )
            assert rel.max() <= codec.bound * (1 + 1e-9)
        else:
            assert np.abs(recovered - spiky_data).max() <= codec.bound * (1 + 1e-9)

    def test_empty_array_round_trip(self, codec):
        recovered = codec.decompress(codec.compress(np.zeros(0)))
        assert recovered.size == 0
        assert recovered.dtype == np.float64

    def test_garbage_blob_rejected(self, codec):
        with pytest.raises(CompressorError):
            codec.decompress(b"not a blob at all")

    def test_foreign_blob_rejected(self, codec, codec_name, make_codec, spiky_data):
        # A blob from any *other* codec family must be refused by tag, not
        # misparsed.
        for other_name in ["sz", "zfp", "xor-bitplane", "lossless"]:
            if other_name == codec_name:
                continue
            foreign = make_codec(other_name).compress(spiky_data)
            with pytest.raises(CompressorError):
                codec.decompress(foreign)

    def test_blob_is_self_describing(self, codec, codec_name, make_codec, spiky_data):
        # Decode must depend only on the blob: an instance configured with a
        # different bound reads another instance's blob identically (the
        # golden-blob tests rely on exactly this).
        blob = codec.compress(spiky_data)
        if codec_name == "lossless":
            other = make_codec(codec_name, level=1)
        else:
            other = make_codec(codec_name, bound=1e-1)
        assert np.array_equal(other.decompress(blob), codec.decompress(blob))


@pytest.mark.parametrize("name", ["lossless", "xor-bitplane", "sz"])
def test_any_level_decodes_any_level(name, make_codec, spiky_data):
    # The zlib level is an encoder setting only: a blob written at one level
    # decodes bit-identically under a codec built at any other, and the
    # decoded values do not depend on the level that wrote them.  This is
    # what lets the simulator's default level move without touching old
    # blobs or checkpoints.
    levels = (1, 6, 9)
    blobs = {level: make_codec(name, level=level).compress(spiky_data) for level in levels}
    assert len(set(blobs.values())) > 1  # the level really changed the bytes
    expected = make_codec(name).decompress(blobs[6]).tobytes()
    for blob in blobs.values():
        for level in levels:
            assert make_codec(name, level=level).decompress(blob).tobytes() == expected

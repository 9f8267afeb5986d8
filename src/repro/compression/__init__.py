"""Compression substrate: lossless backends, the paper's Solutions A-D and
the ZFP/FPZIP baselines, plus quality metrics.

Importing this package registers every concrete compressor with the registry
in :mod:`repro.compression.interface`, so ``get_compressor("C", bound=1e-3)``
works immediately.
"""

from .interface import (
    PAPER_ERROR_LEVELS,
    CompressionRecord,
    Compressor,
    CompressorError,
    ErrorBoundMode,
    available_compressors,
    codec_of,
    decode,
    get_compressor,
    register_compressor,
    roundtrip,
)
from .lossless import LosslessCompressor
from .sz import SZCompressor, DEFAULT_QUANTIZATION_BINS
from .sz_complex import SZComplexCompressor, COMPLEX_QUANTIZATION_BINS
from .xor_bitplane import XorBitplaneCompressor
from .reshuffle import ReshuffleCompressor
from .zfp_like import ZFPLikeCompressor
from .fpzip_like import FPZIPLikeCompressor, PAPER_PRECISION_MAP
from . import bitplane, engines, huffman, metrics, quantization

__all__ = [
    "Compressor",
    "CompressorError",
    "CompressionRecord",
    "ErrorBoundMode",
    "PAPER_ERROR_LEVELS",
    "available_compressors",
    "codec_of",
    "decode",
    "get_compressor",
    "register_compressor",
    "roundtrip",
    "LosslessCompressor",
    "SZCompressor",
    "SZComplexCompressor",
    "XorBitplaneCompressor",
    "ReshuffleCompressor",
    "ZFPLikeCompressor",
    "FPZIPLikeCompressor",
    "DEFAULT_QUANTIZATION_BINS",
    "COMPLEX_QUANTIZATION_BINS",
    "PAPER_PRECISION_MAP",
    "bitplane",
    "engines",
    "huffman",
    "metrics",
    "quantization",
]

"""ZFP-style domain-transform compressor (baseline).

ZFP is the representative of the *domain-transform-based* compression model
the paper contrasts with SZ (Section 2.3): values are grouped into small
blocks, aligned to a common exponent (block-floating-point), passed through a
(nearly) orthogonal block transform to decorrelate them, and the transform
coefficients are encoded most-significant-bit-plane first until the error
bound allows truncation.

The paper's conclusion — and what the Figure 7/8 benchmarks reproduce — is
that this model collapses on quantum state data because the amplitudes are
spiky, not smooth, so the transform does not concentrate energy and the bit
planes cannot be truncated aggressively.  This implementation follows the
same three stages on 1-D blocks of four doubles:

1. exponent alignment to the block maximum,
2. an orthogonal 4-point transform (the same lifting butterfly family ZFP
   uses),
3. bit-plane truncation of the fixed-point coefficients to the number of bits
   required by the absolute error bound, followed by a lossless pass.

Pointwise relative bounds are supported the same way the paper evaluated ZFP:
log-transform preprocessing plus absolute-bound compression of the
transformed data.
"""

from __future__ import annotations

import struct

import numpy as np

from . import quantization
from .bitpack import pack_bitfields, unpack_bitfields
from .interface import (
    Compressor,
    CompressorError,
    ErrorBoundMode,
    pack_header,
    register_compressor,
    unpack_header,
)
from .lossless import lossless_compress_bytes, lossless_decompress_bytes

__all__ = ["ZFPLikeCompressor", "BLOCK_SIZE"]

_TAG_ABS = 0x08
_TAG_REL = 0x09

#: ZFP groups 4^d values per block; for 1-D streams that is 4.
BLOCK_SIZE = 4

# Orthonormal 4-point transform matrix (a DCT-II, which like ZFP's lifted
# transform decorrelates smooth blocks and is exactly invertible).
_DCT4 = np.array(
    [
        [0.5, 0.5, 0.5, 0.5],
        [
            0.6532814824381883,
            0.2705980500730985,
            -0.2705980500730985,
            -0.6532814824381883,
        ],
        [0.5, -0.5, -0.5, 0.5],
        [
            0.2705980500730985,
            -0.6532814824381883,
            0.6532814824381883,
            -0.2705980500730985,
        ],
    ],
    dtype=np.float64,
)


class ZFPLikeCompressor(Compressor):
    """Fixed-accuracy ZFP-style compressor for 1-D float64 streams."""

    name = "zfp"

    def __init__(
        self,
        bound: float = 1e-3,
        mode: ErrorBoundMode = ErrorBoundMode.ABSOLUTE,
        level: int = 6,
    ) -> None:
        if mode is ErrorBoundMode.LOSSLESS:
            raise CompressorError("ZFP-like is a lossy compressor")
        super().__init__(mode, bound)
        self._level = int(level)
        self._record_init(bound=self.bound, mode=mode, level=self._level)

    # -- fixed-point / embedded coding machinery ---------------------------------------

    def _encode_abs(self, array: np.ndarray, bound: float) -> bytes:
        count = array.size
        padded_len = ((count + BLOCK_SIZE - 1) // BLOCK_SIZE) * BLOCK_SIZE
        padded = np.zeros(padded_len, dtype=np.float64)
        padded[:count] = array
        blocks = padded.reshape(-1, BLOCK_SIZE)

        # Orthonormal transform: coefficient error equals value error in the
        # 2-norm; a per-coefficient quantization step of `bound` keeps the
        # reconstruction within ~2*bound per point, so use bound/2.
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = blocks @ _DCT4.T
        step = bound / 2.0
        # quantize's pitch is twice its bound, so this is rint(coeffs / step)
        # with SZ's refusal of non-finite values (a transform that overflowed
        # included) and of codes past int64.
        codes = quantization.quantize(coeffs.reshape(-1), step / 2.0)

        # Embedded coding stand-in: each block stores its coefficients with
        # exactly as many bit planes as its largest coefficient needs (ZFP's
        # fixed-accuracy mode truncates bit planes the bound allows; it does
        # NOT run a dictionary coder afterwards, which is why it collapses on
        # spiky data — blocks with large high-frequency coefficients keep all
        # their planes).
        zigzag = (np.abs(codes) * 2 - (codes < 0)).astype(np.uint64)
        per_block_max = zigzag.reshape(-1, BLOCK_SIZE).max(axis=1)
        widths = np.zeros(per_block_max.size, dtype=np.uint8)
        nonzero = per_block_max > 0
        if nonzero.any():
            widths[nonzero] = (
                np.floor(np.log2(per_block_max[nonzero].astype(np.float64))).astype(np.int64)
                + 1
            )
        # Guard against log2 rounding at exact powers of two.
        too_small = (np.uint64(1) << widths.astype(np.uint64)) <= per_block_max
        widths[too_small] += 1

        per_coeff_width = np.repeat(widths, BLOCK_SIZE).astype(np.int64)
        packed, total_bits = pack_bitfields(zigzag, per_coeff_width)

        header = struct.pack("<dQQ", step, zigzag.size, total_bits)
        return header + widths.tobytes() + packed.tobytes()

    def _decode_abs(self, blob: bytes, count: int) -> np.ndarray:
        try:
            step, total, total_bits = struct.unpack_from("<dQQ", blob, 0)
            offset = struct.calcsize("<dQQ")
            num_blocks = total // BLOCK_SIZE
            widths = np.frombuffer(
                blob, dtype=np.uint8, count=num_blocks, offset=offset
            )
            offset += num_blocks
            packed = np.frombuffer(blob, dtype=np.uint8, offset=offset)
            bits = (
                np.unpackbits(packed)[:total_bits]
                if total_bits
                else np.zeros(0, dtype=np.uint8)
            )
            per_coeff_width = np.repeat(widths.astype(np.int64), BLOCK_SIZE)
            zigzag = unpack_bitfields(bits, per_coeff_width)
        except (struct.error, ValueError) as exc:
            raise CompressorError(f"truncated ZFP-like payload: {exc}") from exc

        signs = (zigzag & np.uint64(1)).astype(np.int64)
        magnitudes = (zigzag >> np.uint64(1)).astype(np.int64) + signs
        codes = np.where(signs == 1, -magnitudes, magnitudes)
        coeffs = codes.astype(np.float64).reshape(-1, BLOCK_SIZE) * step
        blocks = coeffs @ _DCT4  # inverse of an orthonormal transform
        return blocks.reshape(-1)[:count].copy()

    # -- public API ---------------------------------------------------------------------

    def compress(self, data: np.ndarray) -> bytes:
        """Block-transform + embedded encoding under the configured bound."""

        array = self._as_float64(data)
        if self.mode is ErrorBoundMode.ABSOLUTE:
            return pack_header(_TAG_ABS, array.size, b"") + self._encode_abs(
                array, self.bound
            )
        # Relative mode: log-preprocessing then absolute-bound compression,
        # exactly how the paper evaluated ZFP for Figure 8.
        log_mag, signs, zero_mask = quantization.log_transform(array)
        log_bound = quantization.relative_to_log_absolute(self.bound)
        body = self._encode_abs(log_mag, log_bound)
        sign_bits = np.packbits((signs < 0).astype(np.uint8))
        zero_bits = np.packbits(zero_mask.astype(np.uint8))
        side = lossless_compress_bytes(
            sign_bits.tobytes() + zero_bits.tobytes(), self._level
        )
        extra = struct.pack("<QQ", len(body), len(side))
        return pack_header(_TAG_REL, array.size, extra) + body + side

    def decompress(self, blob: bytes) -> np.ndarray:
        """Reconstruct within the error bound from either payload layout."""

        tag, count, extra, offset = unpack_header(blob)
        if count == 0:
            return np.zeros(0, dtype=np.float64)
        if tag == _TAG_ABS:
            return self._decode_abs(blob[offset:], count)
        if tag != _TAG_REL:
            raise CompressorError(f"blob tag {tag} is not a ZFP-like blob")
        body_len, side_len = struct.unpack("<QQ", extra)
        body = blob[offset : offset + body_len]
        side = blob[offset + body_len : offset + body_len + side_len]
        log_mag = self._decode_abs(body, count)
        side_raw = lossless_decompress_bytes(side)
        packed_len = (count + 7) // 8
        sign_bits = np.unpackbits(np.frombuffer(side_raw[:packed_len], dtype=np.uint8))[
            :count
        ]
        zero_bits = np.unpackbits(
            np.frombuffer(side_raw[packed_len : 2 * packed_len], dtype=np.uint8)
        )[:count]
        signs = np.where(sign_bits == 1, -1.0, 1.0)
        return quantization.log_inverse_transform(log_mag, signs, zero_bits.astype(bool))


register_compressor("zfp", ZFPLikeCompressor)

"""Bit-plane truncation and XOR leading-zero coding primitives.

These are the building blocks of the paper's tailored lossy compressor
(Solution C, Section 4.2):

1. **Significant-bit count** (Eq. 12): the number of leading bits of an IEEE
   754 double that must be preserved to respect a pointwise relative error
   bound ``eps``::

       Sig_Bit_Count = Bit_Count(Sign & Exp) - EXP(eps)

   where ``Bit_Count(Sign & Exp) = 12`` for double precision and ``EXP(eps)``
   is the (negative) binary exponent of the bound, e.g. ``EXP(0.01) = -7``.

2. **Bit-plane truncation**: zeroing all bits below the significant count.
   Because only low-order mantissa bits are dropped, the decompressed
   magnitude never exceeds the original and never falls below
   ``|d| * (1 - eps)`` — exactly the guarantee stated in Section 3.7.

3. **XOR leading-zero reduction**: each (truncated) value is XOR-ed with its
   predecessor; the number of identical leading bytes is stored as a two-bit
   code and only the differing suffix bytes are emitted.

Everything operates on whole NumPy arrays; there are no per-element Python
loops (see the HPC-Python guides on vectorisation).
"""

from __future__ import annotations

import math

import numpy as np

from .interface import CompressorError

__all__ = [
    "DOUBLE_SIGN_EXP_BITS",
    "significant_bit_count",
    "bytes_to_keep",
    "truncate_bitplanes",
    "truncation_table",
    "xor_delta_encode",
    "xor_delta_decode",
    "leading_zero_bytes",
    "pack_leading_zero_stream",
    "unpack_leading_zero_stream",
]

#: Number of bits occupied by the sign and exponent of an IEEE 754 double.
DOUBLE_SIGN_EXP_BITS = 12


def significant_bit_count(relative_bound: float) -> int:
    """Eq. 12: leading bits of a double to keep for a relative bound.

    ``EXP(eps)`` is ``floor(log2(eps))`` (e.g. ``EXP(0.01) = -7``), so the
    count grows as the bound tightens.  The result is clamped to ``[1, 64]``.
    """

    if relative_bound <= 0:
        raise CompressorError("relative error bound must be positive")
    if relative_bound >= 1.0:
        return DOUBLE_SIGN_EXP_BITS
    exp_of_bound = math.floor(math.log2(relative_bound))
    count = DOUBLE_SIGN_EXP_BITS - exp_of_bound
    return max(1, min(64, count))


def bytes_to_keep(relative_bound: float) -> int:
    """Number of leading *bytes* of each double kept after truncation.

    Solution C truncates on byte boundaries (the suffix bytes are what the
    XOR/leading-zero stage and Zstd operate on), so the significant bit count
    is rounded up to the next byte.  Keeping more bits than required can only
    shrink the error, never grow it.
    """

    return max(1, min(8, math.ceil(significant_bit_count(relative_bound) / 8)))


def truncate_bitplanes(data: np.ndarray, keep_bits: int) -> np.ndarray:
    """Zero all but the *keep_bits* most significant bits of each double."""

    if not 1 <= keep_bits <= 64:
        raise CompressorError("keep_bits must be in [1, 64]")
    data = np.ascontiguousarray(data, dtype=np.float64)
    bits = data.view(np.uint64)
    if keep_bits == 64:
        return data.copy()
    mask = np.uint64(~((1 << (64 - keep_bits)) - 1) & 0xFFFFFFFFFFFFFFFF)
    return (bits & mask).view(np.float64)


def truncation_table(value: float, max_mantissa_bits: int = 10) -> list[dict]:
    """Reproduce Figure 13(b): decompressed value and relative error as the
    kept mantissa width shrinks from *max_mantissa_bits* down to zero.

    Each row keeps the 12 sign/exponent bits plus ``m`` mantissa bits; the
    paper's example value 3.9921875 then steps through 3.984375, 3.96875,
    3.9375, 3.875, 3.75, 3.5, ... exactly as the figure lists.

    Returns a list of ``{"mantissa_bits", "bits_kept", "value",
    "relative_error"}`` rows, tightest first.
    """

    if max_mantissa_bits < 0 or max_mantissa_bits > 52:
        raise CompressorError("max_mantissa_bits must be in [0, 52]")
    rows = []
    for mantissa_bits in range(max_mantissa_bits, -1, -1):
        kept = DOUBLE_SIGN_EXP_BITS + mantissa_bits
        truncated = float(truncate_bitplanes(np.array([value]), kept)[0])
        rel = abs(value - truncated) / abs(value) if value != 0 else 0.0
        rows.append(
            {
                "mantissa_bits": mantissa_bits,
                "bits_kept": kept,
                "value": truncated,
                "relative_error": rel,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# XOR delta + leading-zero byte coding
# ---------------------------------------------------------------------------


def xor_delta_encode(words: np.ndarray) -> np.ndarray:
    """XOR every 64-bit word with its predecessor (first word unchanged)."""

    words = np.ascontiguousarray(words, dtype=np.uint64)
    xored = words.copy()
    xored[1:] ^= words[:-1]
    return xored


def xor_delta_decode(xored: np.ndarray) -> np.ndarray:
    """Inverse of :func:`xor_delta_encode`.

    The prefix-XOR scan is sequential by nature; it is computed with
    ``np.bitwise_xor.accumulate`` which runs in C.
    """

    xored = np.ascontiguousarray(xored, dtype=np.uint64)
    return np.bitwise_xor.accumulate(xored)


#: A word whose top ``i + 1`` bytes are zero is below ``_ZERO_BYTE_LIMITS[i]``.
_ZERO_BYTE_LIMITS = tuple(np.uint64(1 << (56 - 8 * i)) for i in range(3))


def leading_zero_bytes(xored: np.ndarray, keep_bytes: int) -> np.ndarray:
    """Number of leading zero bytes (big-endian order) of each XOR-ed word,
    clamped to ``keep_bytes`` and to the two-bit code range ``[0, 3]`` used
    by Solution C."""

    xored = np.ascontiguousarray(xored, dtype=np.uint64)
    codes = np.zeros(xored.size, dtype=np.uint8)
    for limit in _ZERO_BYTE_LIMITS[: min(keep_bytes, 3)]:
        codes += (xored < limit).view(np.uint8)
    return codes


def _suffix_layout(keep_bytes: int) -> tuple[type, np.ndarray]:
    """Word type holding the top *keep_bytes* bytes, and the mask table.

    Row ``c`` of the ``(4, width)`` table marks the big-endian bytes a word
    with code ``c`` emits: columns ``c`` to ``keep_bytes - 1``.  Rows past
    ``keep_bytes`` are empty, which is the unpacker's clamp of a code above
    ``keep_bytes``.
    """

    word = np.uint32 if keep_bytes <= 4 else np.uint64
    columns = np.arange(np.dtype(word).itemsize)
    table = (columns >= np.arange(4)[:, None]) & (columns < keep_bytes)
    return word, table


_SUFFIX_LAYOUTS = {keep: _suffix_layout(keep) for keep in range(1, 9)}


def pack_leading_zero_stream(xored: np.ndarray, keep_bytes: int) -> tuple[bytes, bytes]:
    """Encode XOR-ed words as (two-bit codes, suffix bytes).

    For each word the two-bit code ``c`` records ``min(leading zero bytes, 3)``
    and only the remaining ``keep_bytes - c`` bytes are emitted.  Returns the
    packed code array and the concatenated suffix bytes.
    """

    if not 1 <= keep_bytes <= 8:
        raise CompressorError("keep_bytes must be in [1, 8]")
    xored = np.ascontiguousarray(xored, dtype=np.uint64)
    codes = leading_zero_bytes(xored, keep_bytes)
    word, table = _SUFFIX_LAYOUTS[keep_bytes]
    width = np.dtype(word).itemsize
    # One contiguous big-endian row of `width` bytes per word: the kept bytes
    # are its leading columns, and the code's table row selects the suffix.
    top = (xored >> np.uint64(64 - 8 * width)).astype(word, copy=False)
    big_endian = top.byteswap().view(np.uint8)
    suffix = np.compress(np.take(table, codes, axis=0).reshape(-1), big_endian)
    # Pack the 2-bit codes, four per byte, MSB-first.
    code_bits = np.empty((codes.size, 2), dtype=np.uint8)
    code_bits[:, 0] = codes >> 1
    code_bits[:, 1] = codes & 1
    packed_codes = np.packbits(code_bits.reshape(-1))
    return packed_codes.tobytes(), suffix.tobytes()


def unpack_leading_zero_stream(
    packed_codes: bytes, suffix: bytes, count: int, keep_bytes: int
) -> np.ndarray:
    """Inverse of :func:`pack_leading_zero_stream`; returns uint64 XOR-ed words."""

    if not 1 <= keep_bytes <= 8:
        raise CompressorError("keep_bytes must be in [1, 8]")
    code_bytes = np.frombuffer(packed_codes, dtype=np.uint8)
    if code_bytes.size != (count + 3) // 4:
        raise CompressorError(
            f"code stream has {code_bytes.size} bytes, expected {(count + 3) // 4}"
        )
    code_bits = np.unpackbits(code_bytes, count=count * 2).reshape(count, 2)
    codes = (code_bits[:, 0] << 1) | code_bits[:, 1]
    word, table = _SUFFIX_LAYOUTS[keep_bytes]
    keep_mask = np.take(table, codes, axis=0).reshape(-1)
    suffix_array = np.frombuffer(suffix, dtype=np.uint8)
    expected = np.count_nonzero(keep_mask)
    if suffix_array.size != expected:
        raise CompressorError(
            f"suffix stream has {suffix_array.size} bytes, expected {expected}"
        )
    big_endian = np.zeros(keep_mask.size, dtype=np.uint8)
    np.place(big_endian, keep_mask, suffix_array)
    top = big_endian.view(word).byteswap().astype(np.uint64, copy=False)
    # The kept bytes are the most significant ones of each 64-bit word.
    return top << np.uint64(64 - 8 * np.dtype(word).itemsize)

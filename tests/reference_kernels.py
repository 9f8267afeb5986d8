"""Sequential reference implementations of the six codec kernels.

The product computes each of these with vectorised NumPy passes
(:mod:`repro.compression.engines`, :mod:`~repro.compression.bitpack`,
:mod:`~repro.compression.quantization`, :mod:`~repro.compression.bitplane`).
The loops here do the same work the obvious way — one element at a time, one
running value — under the product's function names and signatures, so
``tests/test_engines.py`` can compare the two directly or ``monkeypatch``
these into the codec modules and compare whole blobs.  They are the oracle:
same bytes from the encoders, same float arithmetic in the decoders, the same
``CompressorError`` / ``ValueError`` on the same malformed inputs.

Plain Python on purpose (slow, a few thousand elements per call); nothing
under ``src/`` imports this module.

The last three are readout oracles, the code the product's block reduction
replaced: the per-term sign vector a diagonal Pauli term was evaluated with
(``signs``, over ``parity``), and the sampler's loop that counted each hit
block's shots with one comparison over all of them (``sample_counts``).
They are not patch points; tests call them directly.

The controlled 2x2 update (``apply_controlled_single_qubit``) is the gate
kernel the product's strided slab views replaced: it selects the amplitude
pairs with index arrays.  The pairwise update
(``apply_single_qubit_pairwise_masked``) is the block-pair kernel the
product's virtual block replaced: a 2x2 across two separate blocks, where the
product stages the pair side by side and applies an ordinary 2x2 on the
buffer's top bit.  The masked phase (``apply_phase_step_masked``, over the
two mask builders ``local_control_mask`` and ``local_parity_mask``) is the
in-block phase path the product's slab views replaced: a diagonal, a phase
above the block or a parity phase as a boolean-mask gather and scatter.
None of these is a patch point.
"""

from __future__ import annotations

import importlib

import numpy as np

from repro.compression.interface import CompressorError

#: Where the codecs look each kernel up: `quantize` on the quantization module
#: (sz, zfp_like), the leading-zero pair on bitplane (xor_bitplane); the other
#: three are imported by name into the module that calls them.
PATCH_POINTS = (
    ("repro.compression.huffman", "huffman_decode_indices"),
    ("repro.compression.huffman", "pack_bitfields"),
    ("repro.compression.zfp_like", "pack_bitfields"),
    ("repro.compression.sz", "sz_reconstruct"),
    ("repro.compression.quantization", "quantize"),
    ("repro.compression.bitplane", "pack_leading_zero_stream"),
    ("repro.compression.bitplane", "unpack_leading_zero_stream"),
)


def install(monkeypatch) -> None:
    """Patch every function of this module over the product kernel it mirrors."""

    for module, name in PATCH_POINTS:
        monkeypatch.setattr(importlib.import_module(module), name, globals()[name])


def _huffman_decode_kernel(
    packed, total_bits, count, first_code, first_index, num_per_len, max_len
):
    """Serial canonical-Huffman walk; returns (book indices, status).

    Status 0 = ok, 1 = stream exhausted, 2 = no code matches.  The canonical
    property makes per-length lookup O(1): a length-L prefix is a valid code
    iff it lies in ``[first_code[L], first_code[L] + num_per_len[L])``.
    """

    out = np.empty(count, dtype=np.int64)
    pos = 0
    for i in range(count):
        code = np.uint64(0)
        length = 0
        while True:
            if pos >= total_bits:
                return out, 1
            bit = (packed[pos >> 3] >> np.uint8(7 - (pos & 7))) & np.uint8(1)
            code = (code << np.uint64(1)) | np.uint64(bit)
            pos += 1
            length += 1
            if length > max_len:
                return out, 2
            n_here = num_per_len[length]
            if n_here > 0 and code >= first_code[length]:
                delta = np.int64(code - first_code[length])
                if delta < n_here:
                    out[i] = first_index[length] + delta
                    break
    return out, 0


def huffman_decode_indices(
    packed: np.ndarray,
    total_bits: int,
    count: int,
    lengths: np.ndarray,
    codes: np.ndarray,
    window_bits: int,
) -> np.ndarray:
    """Serial canonical walk (``window_bits`` is the product's table width and
    deliberately ignored — the decoded stream must not depend on it)."""

    max_len = int(lengths[-1])
    counts = np.bincount(lengths.astype(np.int64), minlength=max_len + 1)
    starts = np.zeros(max_len + 1, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    first_code = np.zeros(max_len + 1, dtype=np.uint64)
    present = counts > 0
    first_code[present] = codes[starts[present]]
    out, status = _huffman_decode_kernel(
        np.ascontiguousarray(packed),
        total_bits,
        count,
        first_code,
        starts,
        counts,
        max_len,
    )
    if status == 1:
        raise CompressorError("Huffman stream exhausted prematurely")
    if status == 2:
        raise CompressorError("invalid Huffman stream (no code matches)")
    return out


def _pack_bitfields_kernel(values, widths, total_bits):
    """Sequential MSB-first bit writer; layout-identical to ``np.packbits``."""

    out = np.zeros((total_bits + 7) >> 3, dtype=np.uint8)
    pos = 0
    for i in range(values.size):
        width = widths[i]
        value = values[i]
        for j in range(width - 1, -1, -1):
            if (value >> np.uint64(j)) & np.uint64(1):
                out[pos >> 3] |= np.uint8(128) >> np.uint8(pos & 7)
            pos += 1
    return out


def pack_bitfields(values: np.ndarray, widths: np.ndarray) -> tuple[np.ndarray, int]:
    """Sequential bit writer; byte-identical to the product's word packer."""

    values = np.ascontiguousarray(values, dtype=np.uint64)
    widths = np.ascontiguousarray(widths, dtype=np.int64)
    if values.shape != widths.shape or values.ndim != 1:
        raise ValueError("values and widths must be matching 1-D arrays")
    total_bits = int(widths.sum())
    if total_bits == 0:
        return np.zeros(0, dtype=np.uint8), 0
    return _pack_bitfields_kernel(values, widths, total_bits), total_bits


def _quantize_kernel(data, two_bound, limit):
    """Per-element ``rint(x / 2eps)``; returns (codes, nonfinite, overflow)."""

    codes = np.empty(data.size, dtype=np.int64)
    nonfinite = False
    overflow = False
    for i in range(data.size):
        c = np.rint(data[i] / two_bound)
        if not np.isfinite(c):
            nonfinite = True
            c = 0.0
        elif abs(c) > limit:
            overflow = True
        codes[i] = np.int64(c)
    return codes, nonfinite, overflow


def quantize(data: np.ndarray, error_bound: float) -> np.ndarray:
    """Per-element quantize with the product's validation contract."""

    if error_bound <= 0:
        raise CompressorError("quantization error bound must be positive")
    data = np.ascontiguousarray(data, dtype=np.float64)
    if data.size == 0:
        return np.zeros(0, dtype=np.int64)
    limit = np.iinfo(np.int64).max / 2
    # Overflow-to-inf is the *detected* condition, not noise.
    with np.errstate(over="ignore", invalid="ignore"):
        codes, nonfinite, overflow = _quantize_kernel(data, 2.0 * error_bound, limit)
    if nonfinite:
        raise CompressorError("cannot quantize non-finite data")
    if overflow:
        raise CompressorError(
            "quantization codes overflow int64; error bound too small for data range"
        )
    return codes


def _sz_reconstruct_kernel(
    bounded, escape_indices, escape_codes, escape_values, two_bound
):
    """One fused pass: cumulative sum, escape re-anchoring, dequantize."""

    count = bounded.size
    out = np.empty(count, dtype=np.float64)
    running = np.int64(0)
    k = 0
    n_escapes = escape_indices.size
    for i in range(count):
        if k < n_escapes and escape_indices[k] == i:
            running = escape_codes[k]
            out[i] = escape_values[k]
            k += 1
        else:
            running += bounded[i]
            out[i] = running * two_bound
    return out


def sz_reconstruct(
    bounded: np.ndarray,
    escape_indices: np.ndarray,
    escape_values: np.ndarray,
    error_bound: float,
) -> np.ndarray:
    """Fused sequential reconstruction (cumsum + re-anchor + dequantize)."""

    escape_codes = quantize(escape_values, error_bound)
    return _sz_reconstruct_kernel(
        np.ascontiguousarray(bounded, dtype=np.int64),
        np.ascontiguousarray(escape_indices, dtype=np.int64),
        escape_codes,
        np.ascontiguousarray(escape_values, dtype=np.float64),
        2.0 * error_bound,
    )


def _pack_leading_zero_kernel(xored, keep_bytes):
    """Fused leading-zero count + 2-bit code pack + suffix emit."""

    n = xored.size
    packed = np.zeros((2 * n + 7) >> 3, dtype=np.uint8)
    suffix = np.empty(n * keep_bytes, dtype=np.uint8)
    emitted = 0
    for i in range(n):
        word = xored[i]
        lead = 0
        while lead < keep_bytes:
            if (word >> np.uint64(8 * (7 - lead))) & np.uint64(0xFF):
                break
            lead += 1
        if lead > 3:
            lead = 3
        packed[i >> 2] |= np.uint8(lead << (6 - 2 * (i & 3)))
        for j in range(lead, keep_bytes):
            suffix[emitted] = np.uint8(
                (word >> np.uint64(8 * (7 - j))) & np.uint64(0xFF)
            )
            emitted += 1
    return packed, suffix[:emitted]


def pack_leading_zero_stream(xored: np.ndarray, keep_bytes: int) -> tuple[bytes, bytes]:
    """Fused count/pack/emit loop over the XOR-ed words."""

    if not 1 <= keep_bytes <= 8:
        raise CompressorError("keep_bytes must be in [1, 8]")
    xored = np.ascontiguousarray(xored, dtype=np.uint64)
    if xored.size == 0:
        return b"", b""
    packed, suffix = _pack_leading_zero_kernel(xored, keep_bytes)
    return packed.tobytes(), suffix.tobytes()


def _unpack_leading_zero_kernel(packed_codes, suffix, count, keep_bytes):
    """Inverse of :func:`_pack_leading_zero_kernel`; returns (words, expected).

    ``expected`` is the suffix length the codes call for; the caller
    validates it against the actual suffix before trusting the words.
    """

    words = np.zeros(count, dtype=np.uint64)
    consumed = 0
    for i in range(count):
        code = (packed_codes[i >> 2] >> np.uint8(6 - 2 * (i & 3))) & np.uint8(3)
        lead = int(code)
        if lead > keep_bytes:
            lead = keep_bytes
        word = np.uint64(0)
        for j in range(lead, keep_bytes):
            if consumed < suffix.size:
                word |= np.uint64(suffix[consumed]) << np.uint64(8 * (7 - j))
            consumed += 1
        words[i] = word
    return words, consumed


def unpack_leading_zero_stream(
    packed_codes: bytes, suffix: bytes, count: int, keep_bytes: int
) -> np.ndarray:
    """Sequential rebuild of the XOR-ed words from codes + suffixes."""

    if not 1 <= keep_bytes <= 8:
        raise CompressorError("keep_bytes must be in [1, 8]")
    code_array = np.frombuffer(packed_codes, dtype=np.uint8)
    if code_array.size != (count + 3) // 4:
        raise CompressorError(
            f"code stream has {code_array.size} bytes, expected {(count + 3) // 4}"
        )
    suffix_array = np.frombuffer(suffix, dtype=np.uint8)
    words, expected = _unpack_leading_zero_kernel(
        code_array, suffix_array, count, keep_bytes
    )
    if suffix_array.size != expected:
        raise CompressorError(
            f"suffix stream has {suffix_array.size} bytes, expected {expected}"
        )
    return words


def parity(values: np.ndarray) -> np.ndarray:
    """Bit parity (popcount mod 2) of each int64 element."""

    v = values.astype(np.int64, copy=True)
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> shift
    return v & 1


def signs(indices: np.ndarray, zmask: int) -> np.ndarray:
    """``(-1)^{popcount(index & zmask)}`` as float64 ±1 values."""

    return 1.0 - 2.0 * parity(indices & zmask)


def sample_counts(simulator, shots: int, rng: np.random.Generator) -> dict[int, int]:
    """Two-level sampling of a compressed simulator, block by block.

    Decompresses every block for its mass, draws the blocks, then walks the
    hit blocks in ascending order, counting each one's shots with
    ``np.sum(chosen_blocks == block_index)`` and drawing its offsets: the
    rng consumption order :meth:`CompressedSimulator.sample_counts` pins.
    """

    partition = simulator.partition
    state = simulator.state

    def probs_of(block_index: int) -> np.ndarray:
        rank, block = divmod(block_index, partition.blocks_per_rank)
        return state.probabilities_of_block(rank, block)

    block_mass = np.array(
        [probs_of(index).sum() for index in range(partition.total_blocks)]
    )
    chosen_blocks = rng.choice(
        block_mass.size, size=shots, p=block_mass / block_mass.sum()
    )
    counts: dict[int, int] = {}
    for block_index in np.sort(np.unique(chosen_blocks)):
        probs = probs_of(int(block_index))
        mass = probs.sum()
        if mass <= 0:
            continue
        n_hits = int(np.sum(chosen_blocks == block_index))
        offsets = rng.choice(probs.size, size=n_hits, p=probs / mass)
        base = int(block_index) * partition.block_amplitudes
        for offset in offsets.tolist():
            counts[base + offset] = counts.get(base + offset, 0) + 1
    return counts


def apply_controlled_single_qubit(
    state: np.ndarray,
    matrix: np.ndarray,
    qubit: int,
    control_qubits: tuple[int, ...],
) -> None:
    """Apply *matrix* to *qubit* where every control bit is 1, in place, on
    the pairs an index array selects (``u00 * a + u01 * b`` and
    ``u10 * a + u11 * b``, the product's operand order)."""

    target_bit = 1 << qubit
    control_mask = 0
    for control in control_qubits:
        control_mask |= 1 << control
    indices = np.arange(state.shape[0], dtype=np.int64)
    selector = ((indices & control_mask) == control_mask) & (
        (indices & target_bit) == 0
    )
    idx0 = indices[selector]
    idx1 = idx0 | target_bit
    a = state[idx0]
    b = state[idx1]
    u00, u01 = matrix[0, 0], matrix[0, 1]
    u10, u11 = matrix[1, 0], matrix[1, 1]
    state[idx0] = u00 * a + u01 * b
    state[idx1] = u10 * a + u11 * b


def apply_single_qubit_pairwise_masked(
    vector_x: np.ndarray,
    vector_y: np.ndarray,
    matrix: np.ndarray,
    mask: np.ndarray | None,
) -> None:
    """Apply *matrix* across two equal-length blocks where *mask* is set, in
    place: ``vector_x`` holds the amplitudes whose target bit is 0,
    ``vector_y`` their partners (Figure 2's block pair), and *mask* selects
    the offsets whose local control bits are all 1 (``None``: every offset).
    ``u00 * a + u01 * b`` and ``u10 * a + u11 * b``, the product's operand
    order."""

    if vector_x.shape != vector_y.shape:
        raise ValueError("paired vectors must have identical shapes")
    u00, u01 = matrix[0, 0], matrix[0, 1]
    u10, u11 = matrix[1, 0], matrix[1, 1]
    if mask is None:
        new_x = u00 * vector_x + u01 * vector_y
        new_y = u10 * vector_x + u11 * vector_y
        vector_x[:] = new_x
        vector_y[:] = new_y
        return
    a = vector_x[mask]
    b = vector_y[mask]
    vector_x[mask] = u00 * a + u01 * b
    vector_y[mask] = u10 * a + u11 * b


def local_control_mask(size: int, controls: tuple[int, ...]) -> np.ndarray | None:
    """Boolean mask over *size* offsets whose control bits are all 1;
    ``None`` when there are no controls (every offset)."""

    if not controls:
        return None
    control_bits = 0
    for control in controls:
        control_bits |= 1 << control
    offsets = np.arange(size, dtype=np.int64)
    return (offsets & control_bits) == control_bits


def local_parity_mask(size: int, bits: int) -> np.ndarray:
    """Boolean mask over *size* offsets whose *bits* have odd parity."""

    offsets = np.arange(size, dtype=np.int64)
    odd = np.zeros(size, dtype=bool)
    for bit in range(bits.bit_length()):
        if bits >> bit & 1:
            odd ^= (offsets >> bit & 1).astype(bool)
    return odd


def apply_phase_step_masked(
    buffer: np.ndarray,
    matrix: np.ndarray,
    local_parity: int,
    side: int,
    controls: tuple[int, ...],
) -> None:
    """Apply an exactly diagonal *matrix* on the parity of the *local_parity*
    bits of *buffer*, flipped by *side*, where every control bit is 1, in
    place, with boolean masks: offsets of even parity take
    ``matrix[side, side]``, odd ones the other entry, each as
    ``phase * x + 0.0`` on the gathered amplitudes, and an entry of exactly
    1 leaves its offsets alone."""

    odd = local_parity_mask(buffer.size, local_parity)
    mask = local_control_mask(buffer.size, controls)
    for parity, selected in ((0, ~odd), (1, odd)):
        if mask is not None:
            selected = selected & mask
        phase = matrix[parity ^ side, parity ^ side]
        if phase != 1:
            buffer[selected] = phase * buffer[selected] + 0.0

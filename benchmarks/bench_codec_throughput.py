"""Codec encode/decode throughput and the vectorised-decode speedup.

PR 2 rebuilt the codec layer so no per-symbol or per-bit Python loop runs on
block-sized data: the Huffman decoder is table-driven (window lookup + jump
composition + wavefront), the encoder packs code words straight into a
uint64 bitstream, SZ's escape-segment reconstruction is one cumulative sum,
and the ZFP-style coefficient fields go through the shared ``bitpack``
helpers.  This bench pins those wins to numbers:

* encode/decode MB/s per codec and block size (the paper's Figure 11
  quantities, on the spiky amplitude model of Figure 9),
* the table-driven Huffman decoder against a faithful copy of the seed's
  bit-by-bit decoder on a 2^20-symbol SZ-quantized stream (the acceptance
  floor is 5x),
* the run-stepping code-book builder against the heap builder the blobs were
  first produced by (``tests/test_huffman.py``'s oracle): same lengths, same
  bytes, and what each costs.

Results land in ``BENCH_codec.json`` under :func:`recordings.results_dir`
(machine-readable, one file per run) next to the human-readable ``.txt``
blocks.  Decode mismatches fail the run in every mode; timing floors are only
enforced in the full-size run (``REPRO_BENCH_QUICK=1`` is for CI smoke on
noisy shared runners).
"""

from __future__ import annotations

import math
import os
import struct
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from repro.analysis import format_table
from repro.compression import (
    ErrorBoundMode,
    SZCompressor,
    get_compressor,
    huffman,
    quantization,
)
from repro.core import effective_cpu_count

# The heap builder is the tests' oracle; time that function, not a copy.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_huffman import _heap_build_lengths  # noqa: E402

from recordings import merge_json  # noqa: E402

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

BLOCK_SIZES = (1 << 14, 1 << 17) if QUICK else (1 << 14, 1 << 17, 1 << 20)
HUFFMAN_SYMBOLS = 1 << 16 if QUICK else 1 << 20
REPEATS = 2 if QUICK else 3
SPEEDUP_FLOOR = 5.0


def _merge_json(section: str, payload) -> None:
    merge_json(
        "BENCH_codec.json",
        section,
        payload,
        {
            "quick": QUICK,
            "huffman_symbols": HUFFMAN_SYMBOLS,
            "block_sizes": list(BLOCK_SIZES),
            # Effective CPUs (affinity-aware), not raw os.cpu_count(): container
            # and cpuset runs must not overstate the available parallelism.
            "available_cpus": effective_cpu_count(),
        },
    )


def _spiky_amplitudes(rng: np.random.Generator, size: int) -> np.ndarray:
    """The paper's Figure 9 amplitude model: log-normal magnitudes, signs."""

    return np.exp(rng.normal(-9.0, 2.0, size=size)) * rng.choice([-1.0, 1.0], size)


def _sz_quantized_stream(size: int) -> np.ndarray:
    """Delta-coded quantization codes of a spiky stream (SZ's Huffman input)."""

    rng = np.random.default_rng(7)
    mags = np.exp(rng.normal(-9.0, 2.0, size=size))
    codes = quantization.quantize(
        np.log(mags), quantization.relative_to_log_absolute(1e-3)
    )
    return np.diff(codes, prepend=codes[:1]).astype(np.int64)


def _best_seconds(fn, repeats: int = REPEATS) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def seed_huffman_decode(blob: bytes) -> np.ndarray:
    """Faithful copy of the seed's bit-by-bit Huffman decoder (commit
    fc291b9), kept here as the baseline the tentpole is measured against."""

    (count,) = struct.unpack_from("<Q", blob, 0)
    offset = 8
    (book_len,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    book_blob = blob[offset : offset + book_len]
    offset += book_len
    (num_entries,) = struct.unpack_from("<I", book_blob, 0)
    symbols = np.frombuffer(book_blob, dtype="<i8", count=num_entries, offset=4)
    lengths = np.frombuffer(
        book_blob, dtype="<u1", count=num_entries, offset=4 + 8 * num_entries
    )
    book = huffman._canonicalize(symbols.astype(np.int64), lengths.astype(np.uint8))

    (total_bits,) = struct.unpack_from("<Q", blob, offset)
    offset += 8
    packed = np.frombuffer(blob, dtype=np.uint8, offset=offset)
    bits = np.unpackbits(packed)[:total_bits]

    max_len = int(book.lengths.max())
    first_code: dict[int, int] = {}
    first_index: dict[int, int] = {}
    lengths_list = book.lengths.tolist()
    for i, length in enumerate(lengths_list):
        if length not in first_code:
            first_code[length] = int(book.codes[i])
            first_index[length] = i
    counts_per_len = Counter(lengths_list)

    out = np.empty(count, dtype=np.int64)
    book_symbols = book.symbols
    bit_list = bits.tolist()
    pos = 0
    n_bits = len(bit_list)
    for i in range(count):
        code = 0
        length = 0
        while True:
            if pos >= n_bits:
                raise RuntimeError("Huffman stream exhausted prematurely")
            code = (code << 1) | bit_list[pos]
            pos += 1
            length += 1
            if length > max_len:
                raise RuntimeError("invalid Huffman stream")
            if length in first_code:
                delta = code - first_code[length]
                if 0 <= delta < counts_per_len[length]:
                    out[i] = book_symbols[first_index[length] + delta]
                    break
    return out


def test_huffman_decode_speedup_vs_seed(emit):
    """Table-driven decode must beat the seed bit-walker >= 5x (full mode)."""

    symbols = _sz_quantized_stream(HUFFMAN_SYMBOLS)
    blob = huffman.encode(symbols)

    fast = huffman.decode(blob)
    slow = seed_huffman_decode(blob)
    # Bit-exactness against the seed decoder is the wire-format contract and
    # fails the bench in every mode.
    assert np.array_equal(fast, symbols)
    assert np.array_equal(slow, symbols)

    fast_s = _best_seconds(lambda: huffman.decode(blob), repeats=2 if QUICK else 5)
    slow_s = _best_seconds(lambda: seed_huffman_decode(blob), repeats=1 if QUICK else 2)
    speedup = slow_s / fast_s
    payload = {
        "symbols": int(symbols.size),
        "stream_bits": len(blob) * 8,
        "seed_seconds": slow_s,
        "vectorised_seconds": fast_s,
        "speedup": speedup,
        "floor": SPEEDUP_FLOOR,
    }
    _merge_json("huffman_speedup", payload)
    emit(
        f"Huffman decode: table-driven vs seed bit-walker ({symbols.size} symbols)",
        format_table(
            [
                {"decoder": "seed (bit-by-bit)", "seconds": f"{slow_s:.3f}"},
                {"decoder": "table-driven", "seconds": f"{fast_s:.3f}"},
            ]
        )
        + f"\nspeedup: {speedup:.1f}x (floor {SPEEDUP_FLOOR}x, enforced in full mode)",
    )
    if not QUICK:
        assert speedup >= SPEEDUP_FLOOR


def test_huffman_encode_vs_heap_builder(emit, monkeypatch):
    """The run builder against the heap builder: identical lengths and bytes.

    Two streams: one SZ block of the simulator (8192 delta codes, ~3k
    distinct symbols, nearly all of them seen once) and a 2^16-symbol
    wide-alphabet stream.  Mismatches fail the bench in every mode; the
    times are recorded, not gated.
    """

    rng = np.random.default_rng(11)
    streams = {
        "sz block": np.rint(rng.laplace(0.0, 650.0, size=8192)).astype(np.int64),
        "wide alphabet": _sz_quantized_stream(1 << 16),
    }
    repeats = 3 if QUICK else 20
    rows = []
    for name, symbols in streams.items():
        unique, counts = np.unique(symbols, return_counts=True)
        lengths = huffman._build_lengths(unique, counts)
        assert np.array_equal(lengths, _heap_build_lengths(unique, counts)), name
        run_s = _best_seconds(lambda: huffman._build_lengths(unique, counts), repeats)
        heap_s = _best_seconds(lambda: _heap_build_lengths(unique, counts), repeats)
        blob = huffman.encode(symbols)
        encode_s = _best_seconds(lambda: huffman.encode(symbols), repeats)
        with monkeypatch.context() as patch:
            patch.setattr(huffman, "_build_lengths", _heap_build_lengths)
            assert huffman.encode(symbols) == blob, name
            heap_encode_s = _best_seconds(lambda: huffman.encode(symbols), repeats)
        rows.append(
            {
                "stream": name,
                "symbols": int(symbols.size),
                "distinct": int(unique.size),
                "distinct_counts": int(np.unique(counts).size),
                "build_run_ms": run_s * 1e3,
                "build_heap_ms": heap_s * 1e3,
                "encode_ms": encode_s * 1e3,
                "encode_heap_builder_ms": heap_encode_s * 1e3,
            }
        )
    _merge_json("huffman_builder", rows)
    emit(
        "Huffman encode: run builder vs heap builder (identical lengths and bytes)",
        format_table(
            [
                {
                    key: f"{value:.3f}" if isinstance(value, float) else value
                    for key, value in row.items()
                }
                for row in rows
            ]
        ),
    )


def test_codec_throughput_matrix(emit):
    """Encode/decode MB/s per codec and block size; mismatches always fail."""

    rng = np.random.default_rng(11)
    rows = []
    for size in BLOCK_SIZES:
        data = _spiky_amplitudes(rng, size)
        streams = {
            "huffman": _sz_quantized_stream(size),
            "sz-rel": data,
            "sz-abs": data,
            "zfp-abs": data,
            "xor-bitplane": data,
            "lossless": data,
        }
        codecs = {
            "huffman": (huffman.encode, huffman.decode),
            "sz-rel": SZCompressor(bound=1e-3),
            "sz-abs": SZCompressor(bound=1e-4, mode=ErrorBoundMode.ABSOLUTE),
            "zfp-abs": get_compressor("zfp", bound=1e-4),
            "xor-bitplane": get_compressor("xor-bitplane", bound=1e-3),
            "lossless": get_compressor("lossless"),
        }
        for name, codec in codecs.items():
            payload = streams[name]
            if name == "huffman":
                encode, decode = codec
            else:
                encode, decode = codec.compress, codec.decompress
            blob = encode(payload)
            recovered = decode(blob)
            if name in ("huffman", "lossless"):
                assert np.array_equal(recovered, payload), name
            else:
                assert recovered.shape == payload.shape, name
            encode_s = _best_seconds(lambda: encode(payload))
            decode_s = _best_seconds(lambda: decode(blob))
            mb = payload.nbytes / 1e6
            rows.append(
                {
                    "codec": name,
                    "block": size,
                    "ratio": f"{payload.nbytes / len(blob):.2f}",
                    "encode_mb_s": f"{mb / encode_s:.1f}",
                    "decode_mb_s": f"{mb / decode_s:.1f}",
                }
            )
    _merge_json(
        "throughput",
        [
            {
                "codec": r["codec"],
                "block": r["block"],
                "ratio": float(r["ratio"]),
                "encode_mb_s": float(r["encode_mb_s"]),
                "decode_mb_s": float(r["decode_mb_s"]),
            }
            for r in rows
        ],
    )
    emit("Codec throughput (MB/s of raw float64 per wall second)", format_table(rows))

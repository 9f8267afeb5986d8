"""The block-task kernel: one round trip, every tier's only ``ops.apply_*`` caller.

Pinned here:

* **Bytes and counters** — one-block and block-pair tasks, with no cache,
  a live cache and a self-disabled cache, give blobs byte-equal to a
  hand-written decompress → ops → compress reference — for a pair, the
  pairwise oracle on two separate blocks (:mod:`reference_kernels`) — and
  the exact :class:`TaskStats`.  A cross-rank pair is the same block-pair
  call.
* **Multi-step ops** — a k-step one-block task is byte-equal to k chained
  one-step tasks under lossless compression, at one decompress, one compress
  and one task; a hit on the run's key makes no codec call.  A k-step pair
  task likewise (one decompress pair, one compress pair).
* **One-block steps above the block** — a one-block task applies the steps
  whose block/rank-level controls are set in its block's index, a diagonal on
  a non-local target as one scalar phase; every block of a dense reference
  comes out equal, and the cache key carries exactly the index bits read.
  A parity phase (``cx · d · cx`` as one step) under a local control is
  equal to its three gates on a dense vector in every block, wherever its
  two qubits lie.
* **Riders** — a pair task applies its one-block steps over the virtual
  block, each half at its block's own index: both blocks of every pair
  equal a dense reference.
* **Grouping** — :func:`group_tasks` groups by exactly the kernel's inputs
  (blob bytes, whose header names their codec, and the index bits the op
  reads) in first-seen
  order, and one ``copies=n`` call counts n tasks, n - 1 duplicates, one
  lookup and one round trip.
* **Partial plans** — a corrupt blob mid-plan leaves the finished tasks
  committed and counted.
* **Structure** — nothing else under ``core/`` or ``distributed/`` applies a
  gate kernel, and ``core/procpool.py`` stays transport only.
"""

from __future__ import annotations

import ast
import pickle
import re
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels
from repro.circuits import Gate, ParityPhase, QuantumCircuit, Run, standard_gate
from repro.circuits import gates as gate_module
from repro.circuits.gates import is_exactly_diagonal
from repro.compression import CompressorError, get_compressor
from repro.core import (
    BlockCache,
    CompressedBlock,
    CompressedSimulator,
    ScratchPool,
    SimulationReport,
    SimulatorConfig,
)
from repro.core import kernel as kernel_module
from repro.core.kernel import (
    GATHER_MAX_AMPLITUDES,
    BlockKernel,
    BlockOp,
    TaskStats,
    _phase_table,
    _phase_views,
    group_tasks,
    resolve_step,
)
from repro.distributed import Partition, plan_gate
from repro.statevector import ops

BLOCK = 16
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

# A unitary whose rows differ even on equal inputs (0.6 - 0.8j vs 0.8 + 0.6j).
MATRIX = np.array([[0.6, -0.8j], [0.8, 0.6j]], dtype=np.complex128)
CONTROLS = (1,)


class CountingCodec:
    """Delegating compressor that counts its compress calls."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = inner.name
        self.bound = inner.bound
        self.compress_calls = 0

    def describe(self) -> str:
        return self.inner.describe()

    def compress(self, data):
        self.compress_calls += 1
        return self.inner.compress(data)

    def decompress(self, blob):
        return self.inner.decompress(blob)


class CountingDecode:
    """Stands in for the kernel's one decoder, ``decode``, and counts calls."""

    def __init__(self, decode) -> None:
        self.decode = decode
        self.calls = 0

    def __call__(self, blob):
        self.calls += 1
        return self.decode(blob)


@pytest.fixture
def decodes(monkeypatch) -> CountingDecode:
    """Count every blob the kernel decodes (by its header tag)."""

    counter = CountingDecode(kernel_module.decode)
    monkeypatch.setattr(kernel_module, "decode", counter)
    return counter


class CountingScratch(ScratchPool):
    """Scratch pool that counts the blocks staged in it."""

    fills = 0

    def fill(self, buffer, values):
        self.fills += 1
        return super().fill(buffer, values)


def _disabled_cache() -> BlockCache:
    cache = BlockCache(lines=4, miss_disable_threshold=1)
    assert cache.lookup(("warm-up",), b"x") is None
    assert not cache.enabled
    return cache


CACHES = {
    "none": lambda: None,
    "enabled": lambda: BlockCache(lines=4, miss_disable_threshold=None),
    "disabled": _disabled_cache,
}

#: shape -> (number of input blobs, decompress calls, compress calls)
SHAPES = {
    "one": (1, 1, 1),
    "pair": (2, 2, 2),
}


@pytest.fixture
def blocks(rng):
    return [
        rng.normal(size=BLOCK) + 1j * rng.normal(size=BLOCK) for _ in range(2)
    ]


def _setup(cache):
    """(kernel, op, stored-codec, output-codec, scratch) around *cache*: the
    op is one in-block step; :func:`_paired` is the same 2x2 above the block."""

    stored = CountingCodec(get_compressor("lossless"))
    output = CountingCodec(get_compressor("xor-bitplane", bound=1e-3))
    scratch = CountingScratch(BLOCK)
    kernel = BlockKernel(scratch, cache)
    op = BlockOp(
        MATRIX[None],
        (1 << 2,),
        (0,),
        (CONTROLS,),
        (0,),
        (True,),
        0,
        output,
        ("u", (2,), CONTROLS, "xor@1e-3"),
    )
    return kernel, op, stored, output, scratch


#: The bit above a block: a staged non-local target's bit in the virtual block.
TOP = BLOCK.bit_length() - 1


def _paired(op: BlockOp) -> BlockOp:
    """*op*'s one step on a staged non-local target: a block-pair op."""

    return op._replace(local_parities=(1 << TOP,))


def _op_for(shape: str, op: BlockOp) -> BlockOp:
    return op if SHAPES[shape][0] == 1 else _paired(op)


def _reference(shape, blocks, stored, output):
    """Hand-written decompress -> ops -> compress for one task shape."""

    count, _, _ = SHAPES[shape]
    buffers = [
        stored.decompress(stored.compress(block.view(np.float64)))
        .view(np.complex128)
        .copy()
        for block in blocks[:count]
    ]
    mask = reference_kernels.local_control_mask(BLOCK, CONTROLS)
    if count == 1:
        reference_kernels.apply_controlled_single_qubit(
            buffers[0], MATRIX, 2, CONTROLS
        )
    else:
        reference_kernels.apply_single_qubit_pairwise_masked(
            *buffers, MATRIX, mask
        )
    return tuple(output.compress(buffer.view(np.float64)) for buffer in buffers)


@pytest.mark.parametrize("cache_kind", list(CACHES))
@pytest.mark.parametrize("shape", list(SHAPES))
def test_round_trip_matches_reference(shape, cache_kind, blocks, decodes):
    count, decompressions, compressions = SHAPES[shape]
    reference_codecs = _setup(None)[2:4]
    expected = _reference(shape, blocks, *reference_codecs)

    cache = CACHES[cache_kind]()
    kernel, op, stored, output, scratch = _setup(cache)
    op = _op_for(shape, op)
    inputs = tuple(
        stored.inner.compress(block.view(np.float64)) for block in blocks[:count]
    )
    # ("is not None": an empty BlockCache is falsy through __len__.)
    counted_before = (
        (cache.stats.hits, cache.stats.misses) if cache is not None else None
    )

    stats = TaskStats()
    assert kernel.run(op, stats, inputs) == expected
    counted = cache_kind == "enabled"
    assert (stats.tasks, stats.decompress_calls, stats.compress_calls) == (
        1,
        decompressions,
        compressions,
    )
    assert (stats.cache_hits, stats.cache_misses) == (0, 1 if counted else 0)
    assert stats.decompression > 0 and stats.computation > 0 and stats.compression > 0
    assert (decodes.calls, output.compress_calls) == (decompressions, compressions)
    assert scratch.fills == decompressions

    # The same task again: a live cache answers it without touching a codec
    # or the scratch pool; without one (or once self-disabled) it recomputes.
    assert kernel.run(op, stats, inputs) == expected
    repeats = 1 if counted else 2
    assert stats.tasks == 2
    assert (stats.decompress_calls, stats.compress_calls) == (
        repeats * decompressions,
        repeats * compressions,
    )
    assert (stats.cache_hits, stats.cache_misses) == (
        (1, 1) if counted else (0, 0)
    )
    assert (decodes.calls, output.compress_calls) == (
        repeats * decompressions,
        repeats * compressions,
    )
    assert scratch.fills == repeats * decompressions
    if cache_kind == "disabled":
        # A self-disabled shard counts neither hit nor miss.
        assert (cache.stats.hits, cache.stats.misses) == counted_before


@pytest.mark.parametrize("shape", list(SHAPES))
def test_a_task_caches_one_line_of_its_own_width(shape, blocks):
    # A line is the task's k input blobs then its k output blobs, keyed on
    # the op key plus the read index bits: no padding for a one-block task.
    cache = CACHES["enabled"]()
    kernel, op, stored, _, _ = _setup(cache)
    op = _op_for(shape, op)
    count = SHAPES[shape][0]
    blobs = tuple(
        stored.inner.compress(block.view(np.float64)) for block in blocks[:count]
    )
    outputs = kernel.run(op, TaskStats(), blobs)
    assert len(outputs) == count and len(cache) == 1
    assert cache.lookup(op.op_key + (0,), *blobs) == outputs
    assert cache.lookup(op.op_key + (0,), *blobs, *blobs) is None
    assert cache.lookup(op.op_key + (0,), *blobs[:1], None) is None


#: (matrix, bit, local controls) of a three-step run on one 16-amplitude
#: block: uncontrolled, controlled, and a repeat bit.
STEPS = (
    (MATRIX, 2, ()),
    (MATRIX.conj().T, 0, (1, 3)),
    (np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128), 2, (0,)),
)


def _step_op(steps, codec, describe="lossless"):
    """A BlockOp of ``(matrix, bit, local controls)`` steps on bits of the
    virtual block (:data:`TOP` for a pair's target)."""

    matrices, bits, controls = zip(*steps)
    key = tuple(("u", (b,), c, m.tobytes()) for m, b, c in steps) + (describe,)
    return BlockOp(
        np.stack(matrices),
        tuple(1 << bit for bit in bits),
        (0,) * len(steps),
        controls,
        (0,) * len(steps),
        tuple(not is_exactly_diagonal(matrix) for matrix in matrices),
        0,
        codec,
        key,
    )


@pytest.mark.parametrize("cache_kind", ["none", "enabled"])
def test_multi_step_run_equals_chained_single_steps(cache_kind, blocks, decodes):
    def lossless_kernel(cache):
        codec = CountingCodec(get_compressor("lossless"))
        scratch = CountingScratch(BLOCK)
        return BlockKernel(scratch, cache), codec, scratch

    blob = get_compressor("lossless").compress(blocks[0].view(np.float64))

    chained_kernel, codec, _ = lossless_kernel(None)
    chained, chained_stats = blob, TaskStats()
    for step in STEPS:
        (chained,) = chained_kernel.run(
            _step_op([step], codec), chained_stats, (chained,)
        )
    assert (chained_stats.tasks, decodes.calls, codec.compress_calls) == (3, 3, 3)

    decodes.calls = 0
    kernel, codec, scratch = lossless_kernel(CACHES[cache_kind]())
    op = _step_op(STEPS, codec)
    stats = TaskStats()
    assert kernel.run(op, stats, (blob,)) == (chained,)
    assert (stats.tasks, stats.decompress_calls, stats.compress_calls) == (1, 1, 1)
    assert (decodes.calls, codec.compress_calls, scratch.fills) == (1, 1, 1)

    # Again: a live cache answers from the run's line without a codec call;
    # the line is the run's own, not any constituent's or a prefix's.
    assert kernel.run(op, stats, (blob,)) == (chained,)
    hit = cache_kind == "enabled"
    assert stats.tasks == 2
    assert (decodes.calls, codec.compress_calls, scratch.fills) == (
        (1, 1, 1) if hit else (2, 2, 2)
    )
    assert (stats.cache_hits, stats.cache_misses) == ((1, 1) if hit else (0, 0))
    if hit:
        for shorter in (STEPS[:1], STEPS[:2]):
            kernel.run(_step_op(shorter, codec), stats, (blob,))
        assert (stats.cache_hits, stats.cache_misses) == (1, 3)


def test_multi_step_pair_equals_chained_pairs(blocks, decodes):
    codec = CountingCodec(get_compressor("lossless"))
    kernel = BlockKernel(CountingScratch(BLOCK))
    # Same steps, all on one target above the block: the masks differ per step.
    steps = [(matrix, TOP, controls) for matrix, _, controls in STEPS]
    pair = tuple(codec.inner.compress(block.view(np.float64)) for block in blocks)

    chained, chained_stats = pair, TaskStats()
    for step in steps:
        chained = kernel.run(_step_op([step], codec), chained_stats, chained)
    assert (chained_stats.decompress_calls, chained_stats.compress_calls) == (6, 6)

    op = _step_op(steps, codec)
    calls = (decodes.calls, codec.compress_calls)
    stats = TaskStats()
    whole = kernel.run(op, stats, pair)
    assert whole == chained
    assert (stats.tasks, stats.decompress_calls, stats.compress_calls) == (1, 2, 2)
    assert (decodes.calls - calls[0], codec.compress_calls - calls[1]) == (2, 2)



def test_one_block_steps_follow_the_block_index(rng):
    # 7 qubits in 16-amplitude blocks: qubits 4-6 are bits 0-2 of the block
    # index.  An in-block 2x2 under qubit 4, a t on qubit 5, and an rz on
    # qubit 6 under local qubit 1 and qubit 4.
    gates = [
        Gate("u", MATRIX, targets=(2,), controls=(4,)),
        standard_gate("t", 5),
        standard_gate("rz", 6, controls=(1, 4), params=(0.7,)),
    ]
    dense = rng.normal(size=128) + 1j * rng.normal(size=128)
    expected = dense.copy()
    for gate in gates:
        ops.apply_gate_to_vector(expected, gate)

    codec = CountingCodec(get_compressor("lossless"))
    cache = CACHES["enabled"]()
    kernel = BlockKernel(ScratchPool(BLOCK), cache)
    op = BlockOp(
        np.stack([gate.matrix for gate in gates]),
        (1 << 2, 0, 0),
        (0, 0b010, 0b100),
        ((), (), (1,)),
        (0b001, 0, 0b001),
        (True, False, False),
        0b111,
        codec,
        tuple(gate.key() for gate in gates) + ("lossless",),
    )
    stats = TaskStats()
    for index in range(8):
        block = dense[index * BLOCK : (index + 1) * BLOCK]
        # Bits above the mask are not read.
        (out,) = kernel.run(
            op, stats, (codec.compress(block.view(np.float64)),),
            index=index | 0b1000,
        )
        assert np.array_equal(
            codec.decompress(out).view(np.complex128),
            expected[index * BLOCK : (index + 1) * BLOCK],
        )
    assert (stats.cache_hits, stats.cache_misses) == (0, 8)

    # One blob on both sides of the t's target bit: two lines (block 0's own
    # left the 4-line cache), two outputs; the same bits again hit whatever
    # the bits outside the mask say.
    blob = codec.compress(dense[:BLOCK].view(np.float64))
    (low,) = kernel.run(op, stats, (blob,), index=0b000)
    (high,) = kernel.run(op, stats, (blob,), index=0b010)
    assert low == blob != high
    assert (stats.cache_hits, stats.cache_misses) == (0, 10)
    assert kernel.run(op, stats, (blob,), index=0b11010) == (high,)
    assert (stats.cache_hits, stats.cache_misses) == (1, 10)


#: In-block diagonals on a 256-amplitude block (bits 0-7): gate mnemonic,
#: parameters, target, local controls.
DIAGONALS = [
    ("z", (), 3, ()),
    ("s", (), 0, ()),
    ("t", (), 7, ()),
    ("p", (1.1,), 5, ()),
    ("rz", (0.37,), 2, ()),
    ("z", (), 1, (6,)),  # cz
    ("p", (-2.3,), 6, (0,)),  # cp
    ("p", (0.9,), 4, (7, 1)),  # two local controls, above and below
]


def _diagonal_block(rng, size: int) -> np.ndarray:
    """Random amplitudes with signed zeros and subnormals in both parts."""

    block = rng.normal(size=size) + 1j * rng.normal(size=size)
    parts = block.view(np.float64)
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310])
    chosen = rng.random(parts.size) < 0.3
    parts[chosen] = rng.choice(specials, size=int(chosen.sum()))
    return block


@pytest.mark.parametrize("name, params, target, controls", DIAGONALS)
def test_in_block_diagonal_is_a_phase_on_the_side_it_moves(
    name, params, target, controls, rng
):
    size = 256
    gate = standard_gate(name, target, controls=controls, params=params)
    assert gate.is_diagonal
    matrix = gate.matrix
    kernel = BlockKernel(ScratchPool(size))
    step = resolve_step(size, matrix, 1 << target, 0, controls, 0, False)

    block = _diagonal_block(rng, size)
    expected = block.copy()
    ops.apply_controlled_single_qubit(expected, matrix, target, controls)
    out = block.copy()
    kernel._apply_step(out, 0, step)
    # The 2x2 formula's values, zeros of either sign alike.
    assert np.array_equal(out.view(np.float64), expected.view(np.float64))

    # Amplitudes a control leaves alone and the side whose entry is exactly
    # 1 keep their bytes, -0.0 included.
    offsets = np.arange(size)
    bit = offsets >> target & 1
    moved = np.ones(size, dtype=bool)
    for control in controls:
        moved &= (offsets >> control & 1).astype(bool)
    for side in (0, 1):
        if matrix[side, side] == 1:
            moved &= bit != side
    kept = ~moved
    assert out[kept].tobytes() == block[kept].tobytes()
    if name != "rz":  # rz has no entry at 1: every amplitude moves
        assert (np.signbit(block[kept].real) & (block[kept].real == 0)).any()

    # An all-zero block stays the compressor's zero blob.
    codec = get_compressor("lossless")
    zeros = np.zeros(size, dtype=np.complex128)
    zero_blob = codec.compress(zeros.view(np.float64))
    kernel._apply_step(zeros, 0, step)
    assert codec.compress(zeros.view(np.float64)) == zero_blob

    # A block control not set in the block's index: nothing changes.
    untouched = block.copy()
    blocked = resolve_step(size, matrix, 1 << target, 0, controls, 0b1, False)
    kernel._apply_step(untouched, 0b10, blocked)
    assert untouched.tobytes() == block.tobytes()


def _sandwich(control: int, diagonal: Gate) -> ParityPhase:
    cx = standard_gate("x", diagonal.target, controls=(control,))
    return ParityPhase((cx, diagonal, cx))


def test_parity_steps_under_a_local_control_mask(rng):
    # 7 qubits in 16-amplitude blocks: qubits 4-6 are bits 0-2 of the block
    # index.  Three parity phases, each under local control 3: both qubits
    # in the block (a phase on each of four sides), one in and one above (a
    # phase on one in-block qubit, flipped by block bit 1), both above (one
    # side).
    steps = [
        _sandwich(0, standard_gate("p", 2, controls=(3,), params=(0.9,))),
        _sandwich(5, standard_gate("rz", 1, controls=(3,), params=(0.7,))),
        _sandwich(4, standard_gate("rz", 6, controls=(3,), params=(-0.4,))),
    ]
    dense = rng.normal(size=128) + 1j * rng.normal(size=128)
    expected = dense.copy()
    for step in steps:
        for gate in step.gates:
            ops.apply_gate_to_vector(expected, gate)

    codec = CountingCodec(get_compressor("lossless"))
    kernel = BlockKernel(ScratchPool(BLOCK), CACHES["enabled"]())
    op = BlockOp(
        np.stack([step.matrix for step in steps]),
        (0b101, 0b10, 0),
        (0, 0b010, 0b101),
        ((3,),) * 3,
        (0,) * 3,
        (False,) * 3,
        0b111,
        codec,
        tuple(step.key() for step in steps) + ("lossless",),
    )
    plan = plan_gate(Partition(7, 1, BLOCK), Run(tuple(steps)))
    assert (plan.op.local_parities, plan.op.block_parities) == op[1:3]
    stats = TaskStats()
    for index in range(8):
        block = dense[index * BLOCK : (index + 1) * BLOCK]
        (out,) = kernel.run(
            op, stats, (codec.compress(block.view(np.float64)),),
            index=index,
        )
        assert np.array_equal(
            codec.decompress(out).view(np.complex128),
            expected[index * BLOCK : (index + 1) * BLOCK],
        )
    assert (stats.cache_hits, stats.cache_misses) == (0, 8)

    # One blob on both sides of qubit 5's bit: the in-block qubit's two
    # phases swap, so two lines and two outputs.
    blob = codec.compress(dense[:BLOCK].view(np.float64))
    (low,) = kernel.run(op, stats, (blob,), index=0b000)
    (high,) = kernel.run(op, stats, (blob,), index=0b010)
    assert low != high
    assert (stats.cache_hits, stats.cache_misses) == (0, 10)

    # Every phase step against the boolean-mask oracle, bit for bit: 0, 1
    # (a diagonal) or 2 parity bits in a 32-amplitude buffer, under no, one
    # or two local controls, at an even and an odd block parity, on
    # amplitudes with zeros of both signs.  rz moves both sides; p leaves
    # the side at entry 1 alone, -0.0 included.
    size = 32
    buffer = rng.normal(size=size) + 1j * rng.normal(size=size)
    parts = buffer.view(np.float64)
    zeros = rng.random(parts.size) < 0.25
    parts[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    matrices = (
        standard_gate("rz", 0, params=(0.7,)).matrix,
        standard_gate("p", 0, params=(-1.3,)).matrix,
    )
    block_parity = 0b110
    for matrix in matrices:
        for local_parity in (0, 0b100, 0b10010):
            for controls in ((), (0,), (0, 3)):
                for index, side in ((0b110, 0), (0b010, 1)):
                    expected, actual = buffer.copy(), buffer.copy()
                    reference_kernels.apply_phase_step_masked(
                        expected, matrix, local_parity, side, controls
                    )
                    step = resolve_step(
                        size, matrix, local_parity, block_parity, controls, 0,
                        False,
                    )
                    kernel._apply_step(actual, index, step)
                    assert np.array_equal(
                        actual.view(np.uint64), expected.view(np.uint64)
                    ), (matrix, local_parity, controls, side)


def test_pair_riders_apply_at_each_blocks_own_index(rng):
    # 7 qubits in 16-amplitude blocks: qubits 4-6 are bits 0-2 of the block
    # index.  An h on qubit 5 pairs blocks i and i | 0b010; riders before and
    # after it read both sides' own indices: an in-block 2x2 under qubit 5,
    # a cz(4 -> 6), rz on x_1 xor x_5, and rz on x_6 xor x_5 (one bit of the
    # buffer, flipped by block bit 2).  The t on qubit 5 is a pair step.
    steps = [
        Gate("u", MATRIX, targets=(2,), controls=(5,)),
        standard_gate("z", 6, controls=(4,)),
        standard_gate("h", 5),
        _sandwich(1, standard_gate("rz", 5, params=(0.7,))),
        _sandwich(6, standard_gate("rz", 5, params=(-0.4,))),
        standard_gate("t", 5),
    ]
    dense = rng.normal(size=128) + 1j * rng.normal(size=128)
    expected = dense.copy()
    for step in steps:
        for gate in step.gates if isinstance(step, ParityPhase) else (step,):
            ops.apply_gate_to_vector(expected, gate)

    codec = CountingCodec(get_compressor("lossless"))
    kernel = BlockKernel(ScratchPool(BLOCK), CACHES["enabled"]())
    plan = plan_gate(Partition(7, 1, BLOCK), Run(tuple(steps)))
    # Qubit 5 is the virtual block's bit 4: the riders' control on it is a
    # local control there, x_1 xor x_5 two bits of the buffer, and x_6 xor
    # x_5 one bit plus block bit 2.
    assert plan.staged == (5,) and plan.op.index_mask == 0b101
    assert plan.op.local_parities == (1 << 2, 0, 1 << 4, 0b10010, 1 << 4, 1 << 4)
    assert plan.op.block_parities == (0, 0b100, 0, 0, 0b100, 0)
    assert plan.op.local_controls[0] == (4,) and plan.op.block_controls[0] == 0
    # The u and the h mix their target's two sides; every other step is a
    # phase, the t on the staged target included.
    assert plan.op.mixes == (True, False, True, False, False, False)
    # The planner builds the op but for its compressor, which the simulator
    # sets along with the compressor's part of the key.
    assert np.array_equal(plan.op.matrices, np.stack([step.matrix for step in steps]))
    assert plan.op.compressor is None
    assert plan.op.op_key == Run(tuple(steps)).key()
    op = plan.op._replace(compressor=codec, op_key=plan.op.op_key + ("lossless",))

    def blob(index: int) -> bytes:
        block = dense[index * BLOCK : (index + 1) * BLOCK]
        return codec.compress(block.view(np.float64))

    stats = TaskStats()
    for task in plan.tasks:
        low, high = task
        pair = (blob(low), blob(high))
        outs = kernel.run(op, stats, pair, index=low)
        for index, out in zip((low, high), outs):
            assert np.array_equal(
                codec.decompress(out).view(np.complex128),
                expected[index * BLOCK : (index + 1) * BLOCK],
            )
        # The key carries the index bits the riders read: the same pair at
        # the same index is a hit.
        assert kernel.run(op, stats, pair, index=low) == outs
    assert (stats.cache_hits, stats.cache_misses) == (4, 4)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_phase_form_equals_the_masked_oracle(data):
    # A phase step on the parity of up to two in-buffer bits (qubit 0, the
    # middle one, the top one) under up to two local controls, at either
    # block parity, with entries that may be exactly 1, on amplitudes with
    # zeros of both signs and subnormals: the per-selection views, the
    # gathered multiply (where it is allowed: no entry at 1, no control) and
    # the form resolve_step selects all equal the boolean-mask oracle bit
    # for bit.  Sizes 2^1-2^14 straddle GATHER_MAX_AMPLITUDES.
    num_qubits = data.draw(st.integers(1, 14), label="num_qubits")
    size = 1 << num_qubits
    places = sorted({0, num_qubits // 2, num_qubits - 1})
    bits = data.draw(
        st.lists(st.sampled_from(places), unique=True, max_size=2), label="bits"
    )
    local_parity = sum(1 << bit for bit in bits)
    free = [qubit for qubit in range(num_qubits) if not local_parity >> qubit & 1]
    controls = tuple(
        data.draw(st.lists(st.sampled_from(free), unique=True, max_size=2))
        if free
        else ()
    )
    side = data.draw(st.integers(0, 1), label="side")
    angle = st.floats(-np.pi, np.pi, allow_nan=False)
    diagonal = [
        1.0 if data.draw(st.booleans(), label=f"m{entry}{entry} is 1")
        else np.exp(1j * data.draw(angle, label=f"angle {entry}"))
        for entry in (0, 1)
    ]
    matrix = np.diag(diagonal).astype(np.complex128)
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    buffer = _diagonal_block(np.random.default_rng(seed), size)

    expected = buffer.copy()
    reference_kernels.apply_phase_step_masked(
        expected, matrix, local_parity, side, controls
    )
    entries = (ops.block_phase(matrix, 0), ops.block_phase(matrix, 1))
    forms = [_phase_views(size, local_parity, controls, entries)]
    if not controls and None not in entries:
        forms.append(_phase_table(size, local_parity, entries))
    for form, sides in forms:
        actual = buffer.copy()
        form(actual, *sides[side])
        assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64)), form

    # The kernel's own choice, at a block index whose parity bit is *side*.
    step = resolve_step(size, matrix, local_parity, 0b1, controls, 0, False)
    gathered = step.form is ops.apply_phase_table
    assert gathered == (
        bool(local_parity)
        and not controls
        and size <= GATHER_MAX_AMPLITUDES
        and None not in entries
    )
    actual = buffer.copy()
    BlockKernel._apply_step(actual, side, step)
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


def test_no_task_decides_a_step(monkeypatch):
    # The kernel reads each step's two entries and its form once per plan:
    # after a plan's first task, no task calls is_exactly_diagonal or
    # block_phase.  A QAOA-shaped run on 6 qubits in 8-amplitude blocks: an
    # rx on a non-local qubit stages block pairs, with parity phases on two
    # in-buffer bits, on one in-buffer bit plus a block bit, and an rz.
    calls = {"is_exactly_diagonal": 0, "block_phase": 0}

    def counted(name, original):
        def count(*args):
            calls[name] += 1
            return original(*args)

        return count

    steps = (
        _sandwich(0, standard_gate("rz", 2, params=(0.7,))),
        _sandwich(4, standard_gate("rz", 1, params=(-0.3,))),
        standard_gate("rx", 3, params=(0.4,)),
        standard_gate("rz", 5, params=(0.9,)),
        standard_gate("h", 1),
    )
    plan = plan_gate(Partition(6, 1, 8), Run(steps))
    assert plan.staged == (3,) and len(plan.tasks) == 4
    codec = get_compressor("lossless")
    op = plan.op._replace(compressor=codec, op_key=plan.op.op_key + ("lossless",))
    rng = np.random.default_rng(5)
    amplitudes = rng.normal(size=64) + 1j * rng.normal(size=64)
    table = {
        index: CompressedBlock(
            codec.compress(amplitudes[8 * index : 8 * index + 8].view(np.float64)),
            codec.bound,
        )
        for index in range(8)
    }
    kernel = BlockKernel(ScratchPool(8))
    first, *rest = plan.tasks
    kernel.run_tasks(op, TaskStats(), table, [first])
    diagonal = counted("is_exactly_diagonal", gate_module.is_exactly_diagonal)
    monkeypatch.setattr(gate_module, "is_exactly_diagonal", diagonal)
    # A kernel that imported it by name would call its own binding.
    monkeypatch.setattr(kernel_module, "is_exactly_diagonal", diagonal, raising=False)
    monkeypatch.setattr(ops, "block_phase", counted("block_phase", ops.block_phase))
    stats = TaskStats()
    kernel.run_tasks(op, stats, table, rest)
    assert stats.tasks == 3 and stats.compress_calls == 6
    assert calls == {"is_exactly_diagonal": 0, "block_phase": 0}


def test_task_stats_pickle_flat_and_fold():
    stats = TaskStats(6, 2, 4, 2, 1, 2, 0.25, 0.5, 0.125, 300)
    constructor, args = stats.__reduce__()
    assert constructor is TaskStats
    assert args == (6, 2, 4, 2, 1, 2, 0.25, 0.5, 0.125, 300)
    assert pickle.loads(pickle.dumps(stats)) == stats

    # Folding is the one way counters reach a report, cache outcomes included.
    report = SimulationReport()
    stats.fold_into(report)
    stats.fold_into(report)
    assert (
        report.tasks_executed,
        report.duplicate_tasks,
        report.decompress_calls,
        report.compress_calls,
        report.cache_hits,
        report.cache_misses,
    ) == (12, 4, 8, 4, 2, 4)
    assert (
        report.decompression_seconds,
        report.computation_seconds,
        report.compression_seconds,
    ) == (0.5, 1.0, 0.25)
    # A cache's high-water mark is a peak, not a sum.
    assert report.peak_cache_bytes == 300
    assert report.as_dict()["peak_cache_bytes"] == 300


def _entry(blob: bytes) -> CompressedBlock:
    return CompressedBlock(blob=blob, bound=0.0)


def test_group_tasks_keys_on_exactly_what_the_kernel_reads():
    op = _step_op(STEPS[:1], get_compressor("lossless"))._replace(index_mask=0b010)
    same = b"block"
    staged = [
        ("a", (_entry(same),), 0b000),
        # Equal bytes in another object, an unread index bit: same group.
        ("b", (_entry(bytes(bytearray(same))),), 0b101),
        # A read index bit, one byte: two new groups.  (A blob's header tag
        # names its codec, so equal bytes are one codec's.)
        ("c", (_entry(same),), 0b010),
        ("e", (_entry(b"blocK"),), 0b000),
        ("f", (_entry(same),), 0b001),
    ]
    groups = group_tasks(op, staged)
    assert [tasks for _, tasks in groups] == [["a", "b", "f"], ["c"], ["e"]]
    assert groups[0][0] == ((same,), 0)
    assert groups[1][0][-1] == 0b010

    # Pairs: both blobs, in order, and the index bits their riders read.
    pair = (_entry(b"low"), _entry(b"high"))
    staged = [("p", pair, 0), ("q", pair, 7), ("r", pair[::-1], 0)]
    groups = group_tasks(op._replace(index_mask=0), staged)
    assert [tasks for _, tasks in groups] == [["p", "q"], ["r"]]
    assert groups[0][0] == ((b"low", b"high"), 0)
    groups = group_tasks(op._replace(index_mask=0b100), staged)
    assert [tasks for _, tasks in groups] == [["p"], ["q"], ["r"]]
    assert groups[1][0][-1] == 0b100


@pytest.mark.parametrize("cache_kind", list(CACHES))
def test_copies_count_tasks_and_duplicates_once(cache_kind, blocks, decodes):
    reference, reference_op = _setup(None)[:2]
    kernel, op, stored, output, scratch = _setup(CACHES[cache_kind]())
    blob = stored.inner.compress(blocks[0].view(np.float64))
    expected = reference.run(reference_op, TaskStats(), (blob,))

    decodes.calls = 0
    stats = TaskStats()
    assert kernel.run(op, stats, (blob,), copies=3) == expected
    assert (stats.tasks, stats.duplicates) == (3, 2)
    assert (stats.decompress_calls, stats.compress_calls) == (1, 1)
    assert (decodes.calls, output.compress_calls, scratch.fills) == (1, 1, 1)
    counted = cache_kind == "enabled"
    assert (stats.cache_hits, stats.cache_misses) == (0, 1 if counted else 0)


def test_failure_mid_plan_keeps_finished_tasks(simulator_config):
    # 6 qubits over 2 ranks x 4 blocks: a local-qubit gate plans 8 tasks in
    # rank-major order; the fifth one's blob is corrupt.  A product state
    # with a distinct angle per qubit makes all eight blocks distinct, so
    # every task is its own group.
    config = simulator_config(block_amplitudes=8, use_block_cache=False)
    gate = Gate("u", MATRIX, targets=(0,))
    product = QuantumCircuit(6)
    for qubit in range(6):
        product.ry(0.3 + 0.4 * qubit, qubit)
    with CompressedSimulator(6, config) as clean, CompressedSimulator(
        6, config
    ) as simulator:
        for sim in (clean, simulator):
            sim.apply_circuit(product)
        clean.apply_gate(gate)
        assert len({entry.blob for _, entry in simulator.state.iter_blocks()}) == 8

        before = {key: entry.blob for key, entry in simulator.state.iter_blocks()}
        entry = simulator.state.get_block(1, 0)
        simulator.state.put_block(
            1,
            0,
            CompressedBlock(blob=entry.blob[:-1], bound=entry.bound),
        )
        counts = simulator.report().as_dict()
        with pytest.raises(CompressorError):
            simulator.apply_gate(gate)

        after = simulator.report().as_dict()
        assert after["compress_calls"] - counts["compress_calls"] == 4
        assert after["decompress_calls"] - counts["decompress_calls"] == 4
        # The failing task counts as started, as it always has.
        assert after["tasks_executed"] - counts["tasks_executed"] == 5
        assert after["gates_executed"] == counts["gates_executed"]
        for block in range(4):
            assert (
                simulator.state.get_block(0, block).blob
                == clean.state.get_block(0, block).blob
            )
        for block in range(1, 4):
            assert simulator.state.get_block(1, block).blob == before[(1, block)]


class TestStructure:
    def test_only_the_kernel_applies_gate_kernels(self):
        callers = {
            path.relative_to(SRC).as_posix()
            for package in ("core", "distributed")
            for path in (SRC / package).rglob("*.py")
            if re.search(r"\bops\.apply_", path.read_text())
        }
        assert callers == {"core/kernel.py"}

    def test_procpool_is_transport_only(self):
        tree = ast.parse((SRC / "core" / "procpool.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.update((node.module or "").split("."))
                imported.update(alias.name for alias in node.names)
        forbidden = {
            "numpy",
            "compression",
            "statevector",
            "blocks",
            "cache",
            "ScratchPool",
            "BlockCache",
        }
        assert not imported & forbidden

    def test_no_threads_in_the_kernel_packages(self):
        # One block task at a time per process: the rank workers are the
        # parallel tier, so nothing under core/ or distributed/ needs a
        # thread, a pool of them or a lock.
        importers = set()
        for package in ("core", "distributed"):
            for path in (SRC / package).rglob("*.py"):
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.Import):
                        modules = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom):
                        modules = [node.module or ""]
                    else:
                        continue
                    if any(
                        module.split(".")[0] == "threading"
                        or module.startswith("concurrent")
                        for module in modules
                    ):
                        importers.add(path.relative_to(SRC).as_posix())
        assert importers == set()

    def test_parallel_workers_start_no_thread(self):
        threads = threading.active_count()
        config = SimulatorConfig(num_ranks=2, block_amplitudes=16, num_workers=2)
        with CompressedSimulator(6, config) as simulator:
            simulator.apply_circuit(QuantumCircuit(6).h(0).cx(0, 5).h(3))
            assert threading.active_count() == threads

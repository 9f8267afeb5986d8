"""The blocked, compressed representation of the quantum state.

:class:`CompressedStateVector` is the data structure at the heart of the
paper: the ``2^n`` amplitudes are split over simulated ranks and blocks
(:class:`~repro.distributed.partition.Partition`) and every block is held
compressed in one table keyed by global block index.  It is also the
sequential tier: it runs each gate plan on its own table
(:meth:`CompressedStateVector.run_plan`).  Blocks are decompressed only
transiently — either into the scratch pool while a gate updates them, or on
demand when the user asks for probabilities, norms or (for small systems) the
full dense vector.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from ..compression.interface import Compressor, decode
from ..distributed.exchange import BlockOp, GatePlan
from ..distributed.partition import Partition
from ..statevector.measurement import diagonal_partials
from .blocks import CompressedBlock, ScratchPool
from .cache import BlockCache
from .kernel import BlockKernel, TaskStats
from .report import SimulationReport

__all__ = [
    "CompressedStateVector",
    "decode_probabilities",
    "initial_rank_blocks",
    "reduce_blocks",
]


def initial_rank_blocks(
    partition: Partition,
    compressor: Compressor,
    basis_state: int,
    rank: int,
    zero_blob: bytes | None = None,
) -> tuple[dict[int, CompressedBlock], bytes | None]:
    """Build one rank's slice of ``|basis_state>`` as compressed blocks.

    The single source of truth for state initialisation: the sequential
    :class:`CompressedStateVector` builds every rank's slice with it, and
    each :class:`~repro.distributed.ranked.RankWorker` builds its own — the
    compressors are deterministic, so both paths produce byte-identical
    blobs, which is what the ranked tier's bit-identity contract rests on.

    Parameters
    ----------
    partition:
        The rank/block decomposition.
    compressor:
        Compressor for the initial blocks.
    basis_state:
        Global basis-state index to initialise to.
    rank:
        Which rank's slice to build.
    zero_blob:
        Optional pre-compressed all-zero block, so a caller looping over
        ranks compresses the zero block once; pass ``None`` to (lazily)
        compress it here.

    Returns
    -------
    tuple
        ``(blocks, zero_blob)`` — global block index → :class:`CompressedBlock`
        for this rank's blocks in ascending order, and the zero blob for reuse
        on the next rank (still ``None`` when every block of this rank held
        the basis state).
    """

    target_rank, target_block, target_offset = partition.locate(basis_state)
    zero_block = np.zeros(partition.block_amplitudes, dtype=np.complex128)
    first = rank * partition.blocks_per_rank
    blocks: dict[int, CompressedBlock] = {}
    for block in range(partition.blocks_per_rank):
        if rank == target_rank and block == target_block:
            amplitudes = zero_block.copy()
            amplitudes[target_offset] = 1.0
            blob = compressor.compress(amplitudes.view(np.float64))
        else:
            if zero_blob is None:
                zero_blob = compressor.compress(zero_block.view(np.float64))
            blob = zero_blob
        blocks[first + block] = CompressedBlock(blob=blob, bound=compressor.bound)
    return blocks, zero_blob


def decode_probabilities(entry: CompressedBlock) -> np.ndarray:
    """``|a_i|^2`` for the amplitudes of one compressed block."""

    return np.abs(decode(entry.blob).view(np.complex128)) ** 2


def reduce_blocks(
    blocks: Iterable[tuple[int, CompressedBlock]], zmasks: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Mass and diagonal Pauli partials of each ``(base, block)``.

    The single readout primitive: every block is decompressed once, its
    mass is ``probs.sum()`` (what sampling draws blocks by) and its partials
    are :func:`~repro.statevector.measurement.diagonal_partials` for
    *zmasks*.  The sequential state reduces its whole table with it and
    each :class:`~repro.distributed.ranked.RankWorker` its own slice, so
    both produce the same numbers for the same blobs.

    Returns
    -------
    tuple
        ``(masses, partials)``: shape ``(blocks,)`` and
        ``(blocks, len(zmasks))``, rows in the order of *blocks*.
    """

    masses: list[float] = []
    rows: list[np.ndarray] = []
    for base, entry in blocks:
        probs = decode_probabilities(entry)
        masses.append(probs.sum())
        rows.append(diagonal_partials(probs, base, zmasks))
    return np.array(masses, dtype=np.float64), np.array(rows)


class CompressedStateVector:
    """State vector stored as compressed blocks, and the sequential tier that
    runs gate plans on them.

    The block table is a list indexed by global block index (``rank *
    blocks_per_rank + block``); the state's own
    :class:`~repro.core.kernel.BlockKernel` (scratch pool, optional block
    cache) runs every plan on it in this process.

    Parameters
    ----------
    partition:
        The rank/block decomposition.
    compressor:
        Compressor used for the *initial* blocks (usually the lossless one —
        the adaptive controller swaps in lossy compressors later).
    initial_basis_state:
        Basis state to initialise to (default ``|0...0>``).
    cache_enabled:
        Whether plans go through a compressed block cache (Section 3.4).
    """

    def __init__(
        self,
        partition: Partition,
        compressor: Compressor,
        initial_basis_state: int = 0,
        *,
        cache_enabled: bool,
    ) -> None:
        self._partition = partition
        self._kernel = BlockKernel(
            ScratchPool(partition.block_amplitudes),
            BlockCache() if cache_enabled else None,
        )
        self._blocks: list[CompressedBlock] = []
        self.reset(compressor, initial_basis_state)

    def reset(self, compressor: Compressor, initial_basis_state: int = 0) -> None:
        """Re-initialise every block to ``|initial_basis_state>`` and empty
        the block cache: a fresh state, its scratch pool kept
        (the batched-run reset path).  An out-of-range basis state raises
        ``ValueError`` (:meth:`~repro.distributed.partition.Partition.locate`)
        and leaves the blocks as they were."""

        partition = self._partition
        blocks: list[CompressedBlock] = []
        zero_blob: bytes | None = None
        for rank in range(partition.num_ranks):
            rank_blocks, zero_blob = initial_rank_blocks(
                partition, compressor, initial_basis_state, rank, zero_blob
            )
            blocks.extend(rank_blocks.values())
        self._blocks = blocks
        self._kernel.reset()

    def close(self) -> None:
        """Nothing to release; the ranked state stops its rank workers."""

    def new_report(self) -> SimulationReport:
        """An empty report for this state's geometry."""

        partition = self._partition
        return SimulationReport(
            num_qubits=partition.num_qubits,
            num_ranks=partition.num_ranks,
            block_amplitudes=partition.block_amplitudes,
        )

    # -- structural accessors ---------------------------------------------------------

    @property
    def partition(self) -> Partition:
        """The rank/block partition of the simulated machine."""

        return self._partition

    @property
    def num_qubits(self) -> int:
        """Number of qubits the state vector represents."""

        return self._partition.num_qubits

    @property
    def cache(self) -> BlockCache | None:
        """The compressed block cache plans go through, or ``None``."""

        return self._kernel.cache

    # -- block-level access -------------------------------------------------------------

    def _index(self, rank: int, block: int) -> int:
        """Global block index of (*rank*, *block*); IndexError off the grid."""

        partition = self._partition
        if not (
            0 <= rank < partition.num_ranks and 0 <= block < partition.blocks_per_rank
        ):
            raise IndexError(f"no block ({rank}, {block}) in this partition")
        return rank * partition.blocks_per_rank + block

    def get_block(self, rank: int, block: int) -> CompressedBlock:
        """The compressed block at (*rank*, *block*)."""

        return self._blocks[self._index(rank, block)]

    def put_block(self, rank: int, block: int, entry: CompressedBlock) -> None:
        """Replace the compressed block at (*rank*, *block*)."""

        self._blocks[self._index(rank, block)] = entry

    def iter_blocks(self) -> Iterator[tuple[tuple[int, int], CompressedBlock]]:
        """Iterate ``((rank, block), CompressedBlock)`` over every block, in
        rank-major order (:meth:`get_block` per block)."""

        for rank in range(self._partition.num_ranks):
            for block in range(self._partition.blocks_per_rank):
                yield (rank, block), self.get_block(rank, block)

    # -- plan execution -------------------------------------------------------------

    def run_plan(self, op: BlockOp, plan: GatePlan, report: SimulationReport) -> None:
        """Execute every task of *plan* on the block table, applying *op*'s
        steps, and fold what it cost into *report*.

        Each cross-rank pair first counts its block exchange (Section 3.3):
        each rank would ship its compressed block to the other, so the
        exchange counts once, as two messages of the larger block's bytes,
        and adds no communication seconds — nothing crosses a process
        boundary here.
        """

        blocks = self._blocks
        if plan.exchange_count:
            report.block_exchanges += plan.exchange_count
            report.communication_bytes += sum(
                2 * max(blocks[index].nbytes for index in task) for task in plan.tasks
            )
        stats = TaskStats()
        try:
            self._kernel.run_tasks(op, stats, blocks, plan.tasks)
        finally:
            stats.fold_into(report)

    # -- memory accounting ----------------------------------------------------------------

    def compressed_bytes(self) -> int:
        """Total compressed footprint across every rank."""

        return sum(entry.nbytes for entry in self._blocks)

    def footprint_bytes(self) -> int:
        """Eq. 8: compressed blocks plus two decompressed blocks per rank."""

        scratch = 2 * self._partition.block_bytes * self._partition.num_ranks
        return self.compressed_bytes() + scratch

    def compression_ratio(self) -> float:
        """Uncompressed size over compressed size (higher is better)."""

        compressed = self.compressed_bytes()
        if compressed == 0:
            return float("inf")
        return self._partition.uncompressed_bytes() / compressed

    def uncompressed_bytes(self) -> int:
        """What the dense state vector would occupy (16 bytes/amplitude)."""

        return self._partition.uncompressed_bytes()

    # -- state-level queries -----------------------------------------------------------------

    def to_statevector(self) -> np.ndarray:
        """Materialise the full dense state vector (small systems only)."""

        partition = self._partition
        if partition.num_qubits > 26:
            raise ValueError(
                "refusing to materialise a state vector above 26 qubits"
            )
        state = np.empty(partition.total_amplitudes, dtype=np.complex128)
        for (rank, block), entry in self.iter_blocks():
            values = decode(entry.blob).view(np.complex128)
            start = partition.global_index(rank, block, 0)
            state[start : start + partition.block_amplitudes] = values
        return state

    def reduce_blocks(self, zmasks: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Per-block masses and diagonal partials in rank-major order
        (:func:`reduce_blocks` over the whole table)."""

        offset_bits = self._partition.offset_bits
        return reduce_blocks(
            (
                (index << offset_bits, entry)
                for index, entry in enumerate(self._blocks)
            ),
            zmasks,
        )

    def probabilities_of_block(self, rank: int, block: int) -> np.ndarray:
        """``|a_i|^2`` for the amplitudes of one block."""

        return decode_probabilities(self.get_block(rank, block))

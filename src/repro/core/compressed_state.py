"""The blocked, compressed representation of the quantum state.

:class:`CompressedStateVector` is the data structure at the heart of the
paper: the ``2^n`` amplitudes are split over simulated ranks and blocks
(:class:`~repro.distributed.partition.Partition`) and every block is held
compressed (:class:`~repro.core.blocks.BlockStore`).  Blocks are decompressed
only transiently — either into the scratch pool while a gate updates them, or
on demand when the user asks for probabilities, norms or (for small systems)
the full dense vector.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from ..compression.interface import Compressor
from ..distributed.partition import Partition
from ..statevector.measurement import diagonal_partials
from .blocks import BlockStore, CompressedBlock

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

    The single source of truth for state initialisation: the parent-side
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
        ``(blocks, zero_blob)`` — block index → :class:`CompressedBlock`
        for this rank, and the zero blob for reuse on the next rank (still
        ``None`` when every block of this rank held the basis state).
    """

    target_rank, target_block, target_offset = partition.locate(basis_state)
    zero_block = np.zeros(partition.block_amplitudes, dtype=np.complex128)
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
        blocks[block] = CompressedBlock(
            blob=blob, compressor=compressor.name, bound=compressor.bound
        )
    return blocks, zero_blob


def decode_probabilities(
    entry: CompressedBlock, decompressors: dict[str, Compressor]
) -> np.ndarray:
    """``|a_i|^2`` for the amplitudes of one compressed block."""

    values = decompressors[entry.compressor].decompress(entry.blob)
    return np.abs(values.view(np.complex128)) ** 2


def reduce_blocks(
    blocks: Iterable[tuple[int, CompressedBlock]],
    zmasks: Sequence[int],
    decompressors: dict[str, Compressor],
) -> tuple[np.ndarray, np.ndarray]:
    """Mass and diagonal Pauli partials of each ``(base, block)``.

    The single readout primitive: every block is decompressed once, its
    mass is ``probs.sum()`` (what sampling draws blocks by) and its partials
    are :func:`~repro.statevector.measurement.diagonal_partials` for
    *zmasks*.  The parent-side state reduces its whole table with it and
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
        probs = decode_probabilities(entry, decompressors)
        masses.append(probs.sum())
        rows.append(diagonal_partials(probs, base, zmasks))
    return np.array(masses, dtype=np.float64), np.array(rows)


class CompressedStateVector:
    """State vector stored as compressed blocks.

    Parameters
    ----------
    partition:
        The rank/block decomposition.
    compressor:
        Compressor used for the *initial* blocks (usually the lossless one —
        the adaptive controller swaps in lossy compressors later).
    initial_basis_state:
        Basis state to initialise to (default ``|0...0>``).
    store:
        The block table; a parent-side :class:`BlockStore` unless given (the
        ranked tier passes the executor that proxies to its rank workers).
    """

    def __init__(
        self,
        partition: Partition,
        compressor: Compressor,
        initial_basis_state: int = 0,
        store: BlockStore | None = None,
    ) -> None:
        self._partition = partition
        self._store = BlockStore(partition) if store is None else store
        self.reset(compressor, initial_basis_state)

    def _initialise(self, compressor: Compressor, basis_state: int) -> None:
        partition = self._partition
        zero_blob: bytes | None = None
        for rank in range(partition.num_ranks):
            blocks, zero_blob = initial_rank_blocks(
                partition, compressor, basis_state, rank, zero_blob
            )
            for block, entry in blocks.items():
                self._store.put(rank, block, entry)

    def reset(self, compressor: Compressor, initial_basis_state: int = 0) -> None:
        """Re-initialise every block to ``|initial_basis_state>`` in place.

        The partition geometry and block table survive, so holders of a
        reference (the simulator's executor in particular) keep working —
        this is the batched-run reset path.
        """

        if not 0 <= initial_basis_state < self._partition.total_amplitudes:
            raise ValueError(
                f"initial basis state {initial_basis_state} out of range"
            )
        self._initialise(compressor, initial_basis_state)

    # -- structural accessors ---------------------------------------------------------

    @property
    def partition(self) -> Partition:
        """The rank/block partition of the simulated machine."""

        return self._partition

    @property
    def store(self) -> BlockStore:
        """The underlying compressed-block store."""

        return self._store

    @property
    def num_qubits(self) -> int:
        """Number of qubits the state vector represents."""

        return self._partition.num_qubits

    # -- block-level access -------------------------------------------------------------

    def get_block(self, rank: int, block: int) -> CompressedBlock:
        """The compressed block at (*rank*, *block*)."""

        return self._store.get(rank, block)

    def put_block(
        self, rank: int, block: int, blob: bytes, compressor: Compressor
    ) -> None:
        """Store *blob* at (*rank*, *block*), tagged with its codec name."""

        self._store.put(
            rank,
            block,
            CompressedBlock(blob=blob, compressor=compressor.name, bound=compressor.bound),
        )

    def iter_blocks(self) -> Iterator[tuple[tuple[int, int], CompressedBlock]]:
        """Iterate ``((rank, block), CompressedBlock)`` over every block."""

        return iter(self._store)

    # -- memory accounting ----------------------------------------------------------------

    def compressed_bytes(self) -> int:
        """Total compressed footprint across every rank."""

        return self._store.compressed_bytes()

    def footprint_bytes(self) -> int:
        """Eq. 8: compressed blocks plus two decompressed blocks per rank."""

        scratch = 2 * self._partition.block_bytes * self._partition.num_ranks
        return self._store.compressed_bytes() + scratch

    def compression_ratio(self) -> float:
        """Uncompressed size over compressed size (higher is better)."""

        compressed = self._store.compressed_bytes()
        if compressed == 0:
            return float("inf")
        return self._partition.uncompressed_bytes() / compressed

    def uncompressed_bytes(self) -> int:
        """What the dense state vector would occupy (16 bytes/amplitude)."""

        return self._partition.uncompressed_bytes()

    # -- state-level queries -----------------------------------------------------------------

    def to_statevector(self, decompressors: dict[str, Compressor]) -> np.ndarray:
        """Materialise the full dense state vector (small systems only).

        ``decompressors`` maps compressor names to instances able to decode
        blocks produced by them (the simulator provides this).
        """

        partition = self._partition
        if partition.num_qubits > 26:
            raise ValueError(
                "refusing to materialise a state vector above 26 qubits"
            )
        state = np.empty(partition.total_amplitudes, dtype=np.complex128)
        for (rank, block), entry in self._store:
            decompressor = decompressors[entry.compressor]
            values = decompressor.decompress(entry.blob).view(np.complex128)
            start = partition.global_index(rank, block, 0)
            state[start : start + partition.block_amplitudes] = values
        return state

    def reduce_blocks(
        self, zmasks: Sequence[int], decompressors: dict[str, Compressor]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-block masses and diagonal partials in rank-major order
        (:func:`reduce_blocks` over the whole table)."""

        partition = self._partition
        return reduce_blocks(
            (
                (partition.global_index(rank, block, 0), entry)
                for (rank, block), entry in self._store
            ),
            zmasks,
            decompressors,
        )

    def probabilities_of_block(
        self, rank: int, block: int, decompressors: dict[str, Compressor]
    ) -> np.ndarray:
        """``|a_i|^2`` for the amplitudes of one block."""

        return decode_probabilities(self._store.get(rank, block), decompressors)

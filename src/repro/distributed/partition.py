"""Rank / block partitioning of the state vector (Figure 3 of the paper).

For an ``n``-qubit simulation distributed over ``r`` MPI ranks, each rank owns
``2^n / r`` consecutive amplitudes, further divided into blocks of ``b``
amplitudes that are stored compressed.  The global amplitude index therefore
splits into three segments::

    | rank bits (log2 r) | block bits (log2 nb) | offset bits (log2 b) |
      most significant                             least significant

and the paper classifies a gate's target qubit ``q`` by the segment it falls
into:

* ``q < log2 b``             — both amplitudes of every pair live in the same
  block ("local" qubit);
* ``log2 b <= q < n - log2 r`` — the pair lives in the same rank but in two
  different blocks ("block" qubit);
* ``q >= n - log2 r``        — the pair spans two ranks and blocks must be
  exchanged ("rank" qubit).

The same classification decides how a *control* qubit gates the update: a
local control masks individual amplitudes, a block control skips whole
blocks, and a rank control skips whole ranks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["QubitSegment", "Partition"]


class QubitSegment(enum.Enum):
    """Which index segment a qubit position falls into (Figure 3)."""

    LOCAL = "local"  # inside a block
    BLOCK = "block"  # selects the block within a rank
    RANK = "rank"  # selects the rank


def _is_power_of_two(value: int) -> bool:
    return value > 0 and value & (value - 1) == 0


@dataclass(frozen=True)
class Partition:
    """Static decomposition of a ``2^n`` state vector into ranks and blocks.

    Parameters
    ----------
    num_qubits:
        Total number of qubits ``n``.
    num_ranks:
        Number of (simulated) MPI ranks ``r``; must be a power of two no
        larger than ``2^n``.
    block_amplitudes:
        Amplitudes per block ``b``; must be a power of two and small enough
        that every rank holds at least one block.  The paper uses
        ``b = 1,048,576`` (16 MB of complex doubles); the laptop-scale default
        used elsewhere in this repo is much smaller.
    """

    num_qubits: int
    num_ranks: int
    block_amplitudes: int

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        if not _is_power_of_two(self.num_ranks):
            raise ValueError(f"num_ranks ({self.num_ranks}) must be a power of two")
        if not _is_power_of_two(self.block_amplitudes):
            raise ValueError(
                f"block_amplitudes ({self.block_amplitudes}) must be a power of two"
            )
        if self.num_ranks > self.total_amplitudes:
            raise ValueError("more ranks than amplitudes")
        if self.block_amplitudes > self.amplitudes_per_rank:
            raise ValueError(
                "block_amplitudes exceeds the amplitudes held by one rank: "
                f"{self.block_amplitudes} > {self.amplitudes_per_rank}"
            )

    # -- sizes -------------------------------------------------------------------

    @property
    def total_amplitudes(self) -> int:
        """``2^n`` amplitudes in the full state."""

        return 1 << self.num_qubits

    @property
    def amplitudes_per_rank(self) -> int:
        """Amplitudes owned by each rank."""

        return self.total_amplitudes // self.num_ranks

    @property
    def blocks_per_rank(self) -> int:
        """Number of blocks each rank's slice is divided into (``nb``)."""

        return self.amplitudes_per_rank // self.block_amplitudes

    @property
    def total_blocks(self) -> int:
        """Blocks across all ranks (``nb * r``)."""

        return self.blocks_per_rank * self.num_ranks

    @property
    def offset_bits(self) -> int:
        """``log2 b`` — bits addressing an amplitude within a block."""

        return self.block_amplitudes.bit_length() - 1

    @property
    def block_bits(self) -> int:
        """``log2 nb`` — bits addressing a block within a rank."""

        return self.blocks_per_rank.bit_length() - 1

    @property
    def rank_bits(self) -> int:
        """``log2 r`` — bits addressing the rank."""

        return self.num_ranks.bit_length() - 1

    @property
    def block_bytes(self) -> int:
        """Uncompressed size of one block of complex128 amplitudes."""

        return self.block_amplitudes * 16

    def uncompressed_bytes(self) -> int:
        """Memory required without compression: ``2^{n+4}`` bytes."""

        return self.total_amplitudes * 16

    # -- qubit classification ------------------------------------------------------

    def segment_of(self, qubit: int) -> QubitSegment:
        """Classify *qubit* per Figure 3."""

        self._check_qubit(qubit)
        if qubit < self.offset_bits:
            return QubitSegment.LOCAL
        if qubit < self.num_qubits - self.rank_bits:
            return QubitSegment.BLOCK
        return QubitSegment.RANK

    # -- index arithmetic --------------------------------------------------------------

    def global_index(self, rank: int, block: int, offset: int) -> int:
        """Compose a global amplitude index from its three segments."""

        self._check_rank(rank)
        self._check_block(block)
        if not 0 <= offset < self.block_amplitudes:
            raise ValueError(f"offset {offset} out of range")
        return (
            (rank << (self.num_qubits - self.rank_bits))
            | (block << self.offset_bits)
            | offset
        )

    def locate(self, global_index: int) -> tuple[int, int, int]:
        """Split a global amplitude index into ``(rank, block, offset)``."""

        if not 0 <= global_index < self.total_amplitudes:
            raise ValueError(f"global index {global_index} out of range")
        offset = global_index & (self.block_amplitudes - 1)
        block = (global_index >> self.offset_bits) & (self.blocks_per_rank - 1)
        rank = global_index >> (self.num_qubits - self.rank_bits)
        return rank, block, offset

    # -- validation helpers -----------------------------------------------------------

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.num_qubits:
            raise ValueError(
                f"qubit {qubit} out of range for {self.num_qubits}-qubit partition"
            )

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"rank {rank} out of range")

    def _check_block(self, block: int) -> None:
        if not 0 <= block < self.blocks_per_rank:
            raise ValueError(f"block {block} out of range")

    def describe(self) -> str:
        """One-line human-readable description for logs and reports."""

        return (
            f"{self.num_qubits} qubits over {self.num_ranks} rank(s), "
            f"{self.blocks_per_rank} block(s)/rank x {self.block_amplitudes} amplitudes "
            f"({self.block_bytes / 2**20:.2f} MiB/block uncompressed)"
        )

"""Compressed block storage and decompression scratch buffers.

The state vector never exists in full: every rank's slice is held as a list
of compressed blobs (:class:`BlockStore`), and at most two blocks per rank
are ever decompressed at the same time into reusable scratch buffers
(:class:`ScratchPool`) — the role MCDRAM plays in the paper's Theta runs
(Section 3.2).
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..compression.interface import Compressor
from ..distributed.partition import Partition

__all__ = ["CompressedBlock", "BlockStore", "ScratchPool"]


@dataclass
class CompressedBlock:
    """One compressed block plus the metadata needed to interpret it."""

    blob: bytes
    #: Name of the compressor that produced the blob ("lossless", "xor-bitplane", ...).
    compressor: str
    #: Error bound used (0.0 for lossless).
    bound: float

    @property
    def nbytes(self) -> int:
        """Size of the compressed payload in bytes."""

        return len(self.blob)


class BlockStore:
    """All compressed blocks of the distributed state, indexed by (rank, block)."""

    def __init__(self, partition: Partition) -> None:
        self._partition = partition
        self._blocks: list[list[CompressedBlock | None]] = [
            [None] * partition.blocks_per_rank for _ in range(partition.num_ranks)
        ]

    @property
    def partition(self) -> Partition:
        """The rank/block partition this store is laid out for."""

        return self._partition

    def get(self, rank: int, block: int) -> CompressedBlock:
        """The compressed block at (*rank*, *block*); KeyError if unset."""

        entry = self._blocks[rank][block]
        if entry is None:
            raise KeyError(f"block ({rank}, {block}) has not been initialised")
        return entry

    def put(self, rank: int, block: int, compressed: CompressedBlock) -> None:
        """Replace the compressed block at (*rank*, *block*)."""

        self._blocks[rank][block] = compressed

    def __iter__(self):
        for rank in range(self._partition.num_ranks):
            for block in range(self._partition.blocks_per_rank):
                yield (rank, block), self.get(rank, block)

    # -- memory accounting ---------------------------------------------------------

    def compressed_bytes(self) -> int:
        """Total bytes of all compressed blobs."""

        return sum(
            entry.nbytes
            for per_rank in self._blocks
            for entry in per_rank
            if entry is not None
        )


#: glibc ``mallopt`` parameters and the values :func:`_keep_task_heap` sets:
#: requests below 4 MiB come from the heap, and up to 32 MiB of free heap
#: top stays with the process.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 4 << 20
_TRIM_THRESHOLD_BYTES = 32 << 20


@functools.cache  # once per process
def _keep_task_heap() -> None:
    """Stop glibc handing a block task's temporaries back to the kernel.

    The scratch buffers below cover the decompressed blocks, but the codecs
    allocate a dozen block-sized NumPy temporaries per round trip and free
    them together.  With glibc's defaults (free heap top beyond 128 KiB is
    trimmed, requests from 128 KiB up are ``mmap``-ed) that memory is
    returned after one task and faulted in again for the next - or stays,
    when some longer-lived allocation happens to sit above it.  Which of the
    two a run gets depends on its allocation history, so equal circuits
    differed by 10 000 page faults per ``qft15`` SZ run, and the cost of a
    fault is the host's.  Raising the two thresholds once per process keeps
    a task's worth of heap mapped: the peak is unchanged, only the dips
    between tasks go.  A no-op without glibc.
    """

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no libc handle, or not glibc
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


class ScratchPool:
    """Reusable decompression buffers (the MCDRAM staging area).

    At most two blocks per rank are decompressed at any time (Figure 2); in
    this single-process reproduction that means two shared ``complex128``
    buffers of one block each, reused for every gate to avoid repeated
    allocation in the hot loop.  When the simulator runs block tasks on
    worker threads the pool is enlarged to two buffers per worker, and each
    task checks its buffers out through :meth:`lease`.  Every process that
    runs block tasks builds a pool first, so this is also where the heap
    those tasks allocate from is told to stay (:func:`_keep_task_heap`).
    """

    def __init__(self, block_amplitudes: int, buffers: int = 2) -> None:
        if buffers < 1:
            raise ValueError("need at least one scratch buffer")
        _keep_task_heap()
        self._block_amplitudes = int(block_amplitudes)
        self._buffers = [
            np.zeros(block_amplitudes, dtype=np.complex128) for _ in range(buffers)
        ]
        self._available = threading.Condition()
        self._free = list(range(len(self._buffers)))

    @property
    def block_amplitudes(self) -> int:
        """Amplitudes per block (the size every scratch buffer is cut to)."""

        return self._block_amplitudes

    @property
    def num_buffers(self) -> int:
        """How many scratch buffers the pool owns."""

        return len(self._buffers)

    def fill(self, buffer: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Copy decompressed float64 data into a leased buffer as complex128."""

        view = values.view(np.complex128) if values.dtype == np.float64 else values
        if view.size != buffer.size:
            raise ValueError(
                f"decompressed block has {view.size} amplitudes, expected {buffer.size}"
            )
        np.copyto(buffer, view)
        return buffer

    @contextmanager
    def lease(self, count: int = 1) -> Iterator[tuple[np.ndarray, ...]]:
        """Check out *count* scratch buffers; blocks until enough are free.

        All buffers of a task are acquired atomically (no incremental
        hold-and-wait), so concurrent tasks can never deadlock as long as the
        pool holds at least one task's worth of buffers.
        """

        if not 1 <= count <= len(self._buffers):
            raise ValueError(
                f"cannot lease {count} of {len(self._buffers)} scratch buffers"
            )
        with self._available:
            while len(self._free) < count:
                self._available.wait()
            indices = [self._free.pop() for _ in range(count)]
        try:
            yield tuple(self._buffers[index] for index in indices)
        finally:
            with self._available:
                self._free.extend(indices)
                self._available.notify_all()

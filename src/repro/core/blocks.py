"""Compressed block storage and the decompression scratch buffer.

The state vector never exists in full: every block is held as a compressed
blob (:class:`CompressedBlock`, in the block table of
:class:`~repro.core.compressed_state.CompressedStateVector` or of a rank
worker), and at most two blocks per rank are ever decompressed at the same
time, side by side in one reusable scratch buffer (:class:`ScratchPool`) —
the role MCDRAM plays in the paper's Theta runs (Section 3.2).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["CompressedBlock", "ScratchPool"]


@dataclass
class CompressedBlock:
    """One compressed block: its blob, whose header tag names its codec
    (:func:`repro.compression.interface.decode`), and the bound it was
    encoded at.  Only checkpoints and the frozen e2e tracer read the bound;
    the class becomes plain ``bytes`` when ROADMAP item 1.4 rewrites that
    tracer."""

    blob: bytes
    #: Error bound used (0.0 for lossless).
    bound: float

    @property
    def nbytes(self) -> int:
        """Size of the compressed payload in bytes."""

        return len(self.blob)


#: glibc ``mallopt`` parameters and the values :func:`_keep_task_heap` sets:
#: requests below 4 MiB come from the heap, and up to 32 MiB of free heap
#: top stays with the process.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 4 << 20
_TRIM_THRESHOLD_BYTES = 32 << 20


@functools.cache  # once per process
def _keep_task_heap() -> None:
    """Stop glibc handing a block task's temporaries back to the kernel.

    The scratch buffer below covers the decompressed blocks, but the codecs
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

    import ctypes  # here, not at module level: ``import repro`` stays light

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no libc handle, or not glibc
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


class ScratchPool:
    """The reusable decompression buffer of a rank (the MCDRAM staging area).

    At most two blocks per rank are decompressed at any time (Figure 2,
    Eq. 8): one ``complex128`` buffer of two blocks, reused for every gate to
    avoid repeated allocation in the hot loop.  A task stages its one block
    in the first half, or a block pair in both halves — one virtual block
    whose top bit is the pair's target.  Every process that runs block tasks
    builds a pool first, so this is also where the heap those tasks allocate
    from is told to stay (:func:`_keep_task_heap`).
    """

    def __init__(self, block_amplitudes: int) -> None:
        _keep_task_heap()
        self._block_amplitudes = int(block_amplitudes)
        self.buffer = np.zeros(2 * block_amplitudes, dtype=np.complex128)

    @property
    def block_amplitudes(self) -> int:
        """Amplitudes per block (the size each staged slice of the buffer is)."""

        return self._block_amplitudes

    def fill(self, buffer: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Copy decompressed float64 data into *buffer*, one block-sized slice
        of the scratch buffer, as complex128."""

        view = values.view(np.complex128) if values.dtype == np.float64 else values
        if view.size != buffer.size:
            raise ValueError(
                f"decompressed block has {view.size} amplitudes, expected {buffer.size}"
            )
        np.copyto(buffer, view)
        return buffer

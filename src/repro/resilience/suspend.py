"""Suspend/resume of in-flight simulations over QCKPT001 checkpoints.

The service layer (:mod:`repro.serve`) pauses long jobs at gate boundaries
and later continues them, possibly on a *different* warm simulator of the
same geometry.  Both halves build on the checkpoint format of
:mod:`repro.core.checkpoint`:

* :func:`suspend_to_checkpoint` snapshots a simulator's compressed state
  atomically (tmp file + ``os.replace``, the same torn-write discipline as
  the in-run resilience checkpoints);
* :func:`resume_from_checkpoint` restores a snapshot *into an existing warm
  simulator* instead of constructing a fresh one — the serve-layer lease
  pools keep executors, scratch pools and decompressors alive across the
  suspension, so resuming pays only the block-table rebuild.

Determinism contract: a run suspended after gate *k* and resumed elsewhere
applies gates ``k+1..n`` to bit-identical compressed blocks, with the gate
index, fidelity history and adaptive-controller level all restored — so its
final counts, expectations and statevector equal an uninterrupted run's
(only measured timings and report *counters*, which restart at the resume
point, differ).
"""

from __future__ import annotations

import os
from pathlib import Path

from ..errors import CheckpointError

__all__ = ["suspend_to_checkpoint", "resume_from_checkpoint"]


def suspend_to_checkpoint(simulator, path: str | Path) -> int:
    """Atomically snapshot *simulator* to *path*; returns bytes written.

    The snapshot lands via a temporary sibling file and ``os.replace``, so a
    crash mid-write can never leave a torn checkpoint under the final name.
    The simulator keeps running (or can be released) afterwards — the
    snapshot is independent.
    """

    from ..core.checkpoint import save_checkpoint

    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    written = save_checkpoint(simulator, tmp)
    os.replace(tmp, path)
    return written


def resume_from_checkpoint(simulator, path: str | Path) -> int:
    """Restore the checkpoint at *path* into an existing warm *simulator*.

    The simulator must have the same geometry (qubits, ranks, block size)
    the checkpoint was taken with; a mismatch raises
    :class:`~repro.errors.CheckpointError` before any state is touched.  On
    success the simulator holds the checkpointed compressed blocks with its
    gate index, fidelity history and adaptive error level rewound to the
    suspension point; applying the remaining gates continues the run
    bit-identically.  Returns the restored gate index.
    """

    from ..core.checkpoint import read_checkpoint

    path = Path(path)
    meta, blocks = read_checkpoint(path)
    partition = simulator.partition
    for field, expected in (
        ("num_qubits", partition.num_qubits),
        ("num_ranks", partition.num_ranks),
        ("block_amplitudes", partition.block_amplitudes),
    ):
        value = meta.get(field)
        if value != expected:
            raise CheckpointError(
                f"checkpoint {field}={value} does not match the resuming "
                f"simulator's {field}={expected}",
                path=str(path),
            )
    expected_blocks = partition.num_ranks * partition.blocks_per_rank
    if len(blocks) != expected_blocks:
        raise CheckpointError(
            f"checkpoint holds {len(blocks)} blocks, partition expects "
            f"{expected_blocks}",
            path=str(path),
        )

    simulator.reset()
    simulator.restore(meta, blocks)
    return simulator.gate_count

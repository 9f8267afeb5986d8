"""Resume of in-flight simulations from QCKPT001 checkpoints.

The service layer (:mod:`repro.serve`) pauses long jobs at gate boundaries
and later continues them, possibly on a *different* warm simulator of the
same geometry.  Suspending is :func:`repro.core.checkpoint.save_checkpoint`
(atomic: tmp file + ``os.replace``, shared with the in-run resilience
checkpoints); :func:`resume_from_checkpoint` is the one validated restore —
it puts a snapshot *into an existing simulator*, so the serve-layer lease
pools keep executors, scratch pools and decompressors alive across the
suspension and resuming pays only the block-table rebuild
(:func:`~repro.core.checkpoint.load_checkpoint` builds a simulator from the
metadata and then calls it too).

Determinism contract: a run suspended after gate *k* and resumed elsewhere
applies gates ``k+1..n`` to bit-identical compressed blocks, with the gate
index, fidelity history and adaptive-controller level all restored — so its
final counts, expectations and statevector equal an uninterrupted run's
(only measured timings and report *counters*, which restart at the resume
point, differ).
"""

from __future__ import annotations

from pathlib import Path

from ..errors import CheckpointError

__all__ = ["resume_from_checkpoint"]


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

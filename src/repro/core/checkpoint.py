"""Simulation checkpointing (Section 3.5).

Supercomputer jobs have wall-time limits (3-24 hours on Theta), so the paper
saves the compressed blocks before a job ends and resumes in the next job.
The same mechanism is reproduced here: a checkpoint is a single file holding
the partition geometry, the adaptive-controller state, the fidelity history
and every compressed blob, written with a small self-describing binary format
(no pickle, so a checkpoint cannot execute code when loaded).

The same file suspends and resumes a job in flight (:mod:`repro.serve`):
:func:`resume_from_checkpoint` puts a snapshot *into an existing simulator*
of the same geometry, so a warm simulator keeps its state object (rank
workers, scratch pool) across the suspension and resuming pays only the block
table rebuild; :func:`load_checkpoint` builds a simulator from the metadata
and restores the same parsed file into it.  Both log one INFO record on
``repro.core.checkpoint`` per restore; in-run recovery restores through
:meth:`~repro.core.simulator.CompressedSimulator.restore` directly and logs
its retry on ``repro.core.simulator`` instead.

A block record's codec name field is kept for the file format only: the
writer fills it from the blob's header tag, and the reader skips it.

Parsing is fully bounds-checked: a truncated or scribbled file raises
:class:`~repro.errors.CheckpointError` with the offending field named, never
raw ``struct``/``json`` junk — recovery code probing a possibly-torn
checkpoint (see :mod:`repro.resilience`) depends on that single exception
type to decide whether a snapshot is usable.
"""

from __future__ import annotations

import json
import logging
import os
import struct
from pathlib import Path

from .. import errors
from ..compression.interface import CompressorError, codec_of
from ..distributed.partition import Partition
from .config import SimulatorConfig
from .simulator import CompressedSimulator

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "read_checkpoint",
    "resume_from_checkpoint",
]

logger = logging.getLogger(__name__)

_MAGIC = b"QCKPT001"

_BLOCK_HEADER = struct.Struct("<IIHdI")


def save_checkpoint(simulator: CompressedSimulator, path: str | Path) -> int:
    """Atomically write *simulator*'s full compressed state to *path*.

    The snapshot lands via a temporary sibling file and ``os.replace``, so a
    crash mid-write can never leave a torn checkpoint under the final name
    (a previous checkpoint there stays intact).  Returns the number of bytes
    written.  The simulator can keep running afterwards; the checkpoint is
    an independent snapshot.
    """

    path = Path(path)
    partition = simulator.partition
    config = simulator.config
    meta = {
        "num_qubits": partition.num_qubits,
        "num_ranks": partition.num_ranks,
        "block_amplitudes": partition.block_amplitudes,
        "gate_count": simulator.gate_count,
        "current_bound": simulator.controller.current_bound,
        "escalations": simulator.report().escalations,
        "fidelity_gate_bounds": list(simulator.fidelity_tracker.gate_bounds),
        "lossy_compressor": config.lossy_compressor,
        "error_levels": list(config.error_levels),
        "memory_budget_bytes": config.memory_budget_bytes,
        "lossless_level": config.lossless_level,
        "fusion_enabled": config.fusion_enabled,
    }
    blocks = []
    for (rank, block), entry in simulator.state.iter_blocks():
        blocks.append((rank, block, entry))

    meta_blob = json.dumps(meta).encode()
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as handle:
        handle.write(_MAGIC)
        handle.write(struct.pack("<I", len(meta_blob)))
        handle.write(meta_blob)
        handle.write(struct.pack("<I", len(blocks)))
        for rank, block, entry in blocks:
            name = codec_of(entry.blob).name.encode()
            handle.write(
                _BLOCK_HEADER.pack(rank, block, len(name), entry.bound, len(entry.blob))
            )
            handle.write(name)
            handle.write(entry.blob)
    os.replace(tmp, path)
    return path.stat().st_size


class _Reader:
    """Bounds-checked cursor over a checkpoint's raw bytes.

    Every read names the field it is after, so truncation anywhere in the
    file raises a :class:`CheckpointError` that says which field was cut
    short instead of an :class:`IndexError`/:class:`struct.error` from the
    parsing internals.
    """

    def __init__(self, raw: bytes, path: Path) -> None:
        self._raw = raw
        self._path = path
        self._offset = 0

    def take(self, size: int, what: str) -> bytes:
        """The next *size* bytes, or a :class:`CheckpointError` naming *what*."""

        end = self._offset + size
        if end > len(self._raw):
            raise errors.CheckpointError(
                f"checkpoint truncated inside {what}: need {size} bytes at "
                f"offset {self._offset}, file holds {len(self._raw)}",
                path=str(self._path),
            )
        chunk = self._raw[self._offset : end]
        self._offset = end
        return chunk

    def unpack(self, layout: struct.Struct, what: str) -> tuple:
        """Unpack one struct layout, bounds-checked like :meth:`take`."""

        return layout.unpack(self.take(layout.size, what))

    @property
    def exhausted(self) -> bool:
        """Whether every byte of the file has been consumed."""

        return self._offset == len(self._raw)


_U32 = struct.Struct("<I")


def read_checkpoint(path: str | Path) -> tuple[dict, list[tuple]]:
    """Parse a checkpoint file into ``(meta, blocks)`` without building a simulator.

    ``blocks`` is a list of ``(rank, block, bound, blob)`` tuples naming
    every block of the file's own geometry (``num_qubits``, ``num_ranks``,
    ``block_amplitudes``) exactly once.  This is the parsing
    half of :func:`load_checkpoint`, exposed separately so in-run recovery
    can push blocks into an *existing* simulator's store instead of
    constructing a fresh one.  Any malformed, truncated or undecodable
    content — a block out of range, named twice or missing, or a blob whose
    header names no registered codec, too — raises :class:`CheckpointError`.
    """

    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise errors.CheckpointError(
            f"cannot read checkpoint: {exc}", path=str(path)
        ) from exc
    reader = _Reader(raw, path)
    if reader.take(len(_MAGIC), "magic") != _MAGIC:
        raise errors.CheckpointError(
            f"{path} is not a repro checkpoint", path=str(path)
        )
    (meta_len,) = reader.unpack(_U32, "metadata length")
    meta_blob = reader.take(meta_len, "metadata")
    try:
        meta = json.loads(meta_blob.decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise errors.CheckpointError(
            f"checkpoint metadata is not valid JSON: {exc}", path=str(path)
        ) from exc
    if not isinstance(meta, dict):
        raise errors.CheckpointError(
            "checkpoint metadata is not a JSON object", path=str(path)
        )
    _check_removed_settings(meta, path)
    partition = _geometry(meta, path)
    (num_blocks,) = reader.unpack(_U32, "block count")
    blocks: list[tuple] = []
    named: set[tuple[int, int]] = set()
    for index in range(num_blocks):
        rank, block, name_len, bound, blob_len = reader.unpack(
            _BLOCK_HEADER, f"block {index} header"
        )
        if rank >= partition.num_ranks or block >= partition.blocks_per_rank:
            raise errors.CheckpointError(
                f"block {index} names rank {rank}, block {block}, outside the "
                f"checkpoint's {partition.num_ranks} ranks of "
                f"{partition.blocks_per_rank} blocks",
                path=str(path),
            )
        if (rank, block) in named:
            raise errors.CheckpointError(
                f"block {index} names rank {rank}, block {block} a second time",
                path=str(path),
            )
        named.add((rank, block))
        reader.take(name_len, f"block {index} compressor name")
        blob = reader.take(blob_len, f"block {index} blob")
        try:
            codec_of(blob)
        except CompressorError as exc:
            raise errors.CheckpointError(
                f"block {index} (rank {rank}, block {block}) is unreadable: {exc}",
                path=str(path),
            ) from exc
        blocks.append((rank, block, bound, blob))
    if not reader.exhausted:
        raise errors.CheckpointError(
            "checkpoint has trailing bytes after the last block",
            path=str(path),
        )
    if len(blocks) != partition.total_blocks:
        raise errors.CheckpointError(
            f"checkpoint holds {len(blocks)} blocks, its geometry has "
            f"{partition.total_blocks}",
            path=str(path),
        )
    return meta, blocks


def _geometry(meta: dict, path: Path) -> Partition:
    """The partition the checkpoint's metadata describes, or a
    :class:`CheckpointError` naming what is missing or invalid."""

    fields = [
        _meta_field(meta, key, path)
        for key in ("num_qubits", "num_ranks", "block_amplitudes")
    ]
    if not all(type(value) is int for value in fields):
        raise errors.CheckpointError(
            f"checkpoint geometry {fields} is not three integers", path=str(path)
        )
    try:
        return Partition(*fields)
    except ValueError as exc:
        raise errors.CheckpointError(
            f"checkpoint geometry is invalid: {exc}", path=str(path)
        ) from exc


def _check_removed_settings(meta: dict, path: Path) -> None:
    """Reject a file written under a setting removed in 1.27.0.

    Before 1.27.0 the writer recorded ``lossless_backend`` and
    ``track_fidelity_bound``.  Blocks of an lzma or bz2 run no longer decode,
    and a run without the fidelity bound left no history, so resuming it
    would report a bound that overstates the fidelity.
    """

    backend = meta.get("lossless_backend", "zlib")
    if backend != "zlib":
        raise errors.CheckpointError(
            f"checkpoint was written with lossless_backend={backend!r}; only "
            "zlib remains since 1.27.0 (see docs/migration.md)",
            path=str(path),
        )
    if meta.get("track_fidelity_bound", True) is not True:
        raise errors.CheckpointError(
            "checkpoint was written with track_fidelity_bound=False, so its "
            "fidelity history is incomplete and a resumed bound would "
            "overstate the fidelity (see docs/migration.md)",
            path=str(path),
        )


def _meta_field(meta: dict, key: str, path: Path):
    """A required metadata field, or a :class:`CheckpointError` naming it."""

    try:
        return meta[key]
    except KeyError as exc:
        raise errors.CheckpointError(
            f"checkpoint metadata is missing required field {key!r}",
            path=str(path),
        ) from exc


def resume_from_checkpoint(
    simulator: CompressedSimulator, path: str | Path
) -> int:
    """Restore the checkpoint at *path* into an existing warm *simulator*.

    The simulator must have the same geometry (qubits, ranks, block size)
    the checkpoint was taken with; a mismatch raises
    :class:`~repro.errors.CheckpointError` before any state is touched.  On
    success the simulator holds the checkpointed compressed blocks with its
    gate index, fidelity history and adaptive error level rewound to the
    suspension point; applying the remaining gates continues the run
    bit-identically.  Returns the restored gate index.
    """

    path = Path(path)
    return _resume(simulator, path, *read_checkpoint(path))


def _resume(
    simulator: CompressedSimulator, path: Path, meta: dict, blocks: list[tuple]
) -> int:
    """Check the parsed checkpoint of *path* against *simulator*'s geometry,
    then restore it there; returns the restored gate index.  The one restore
    path of :func:`resume_from_checkpoint` and :func:`load_checkpoint`, so a
    file is parsed once per restore."""

    partition = simulator.partition
    for field, expected in (
        ("num_qubits", partition.num_qubits),
        ("num_ranks", partition.num_ranks),
        ("block_amplitudes", partition.block_amplitudes),
    ):
        value = meta.get(field)
        if value != expected:
            raise errors.CheckpointError(
                f"checkpoint {field}={value} does not match the resuming "
                f"simulator's {field}={expected}",
                path=str(path),
            )

    simulator.reset()
    simulator.restore(meta, blocks)
    logger.info(
        "restored checkpoint %s at gate %d (%d blocks)",
        path,
        simulator.gate_count,
        len(blocks),
    )
    return simulator.gate_count


def load_checkpoint(
    path: str | Path, config: SimulatorConfig | None = None
) -> CompressedSimulator:
    """Rebuild a :class:`CompressedSimulator` from a checkpoint file.

    The returned simulator has the same partition geometry, compressed
    blocks, adaptive level and fidelity history as the one that was saved;
    applying the remainder of a circuit continues the simulation exactly
    where it stopped.  Without *config*, the config is rebuilt from the
    file's metadata; ``lossless_level`` and ``fusion_enabled``, absent
    before 1.27.0, then read the current defaults.
    """

    path = Path(path)
    meta, blocks = read_checkpoint(path)

    if config is None:
        settings = {
            key: _meta_field(meta, key, path)
            for key in (
                "num_ranks",
                "block_amplitudes",
                "memory_budget_bytes",
                "error_levels",
                "lossy_compressor",
            )
        }
        settings.update(
            (key, meta[key]) for key in ("lossless_level", "fusion_enabled") if key in meta
        )
        try:
            config = SimulatorConfig(**settings)
        except (TypeError, ValueError) as exc:
            raise errors.CheckpointError(
                f"checkpoint metadata is not a valid SimulatorConfig: {exc}",
                path=str(path),
            ) from exc
    for key in ("gate_count", "fidelity_gate_bounds", "current_bound"):
        _meta_field(meta, key, path)

    try:
        simulator = CompressedSimulator(
            _meta_field(meta, "num_qubits", path), config=config
        )
    except CompressorError as exc:
        raise errors.CheckpointError(
            f"checkpoint's SimulatorConfig names no usable codec: {exc}",
            path=str(path),
        ) from exc
    try:
        _resume(simulator, path, meta, blocks)
    except BaseException:
        simulator.close()
        raise
    return simulator

"""Tests for simulation checkpoint/restart (Section 3.5)."""

from __future__ import annotations

import json
import logging
import struct

import numpy as np
import pytest

from repro.applications import random_supremacy_circuit
from repro.circuits import qft_circuit
from repro.circuits.fusion import constituents
from repro.core import (
    CompressedSimulator,
    SimulatorConfig,
    load_checkpoint,
    save_checkpoint,
)
from repro.errors import CheckpointError
from repro.core.checkpoint import read_checkpoint, resume_from_checkpoint
from repro.statevector import simulate_statevector, state_fidelity
from tiers import tier_config


def _config(**kwargs) -> SimulatorConfig:
    defaults = dict(num_ranks=2, block_amplitudes=32)
    defaults.update(kwargs)
    return SimulatorConfig(**defaults)


def _edit_meta(path, edit) -> None:
    """Rewrite the metadata JSON of the checkpoint at *path* in place,
    passing the parsed dict through *edit*."""

    raw = path.read_bytes()
    (meta_len,) = struct.unpack_from("<I", raw, 8)
    meta = json.loads(raw[12 : 12 + meta_len])
    edit(meta)
    blob = json.dumps(meta).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + meta_len :])


def _split_at_element(simulator, gates) -> int:
    """A gate index between two schedule elements near the middle: a lossy
    run quantises once, so cutting one in two would change the lossy bytes."""

    elements = simulator.prepare_gates(gates)
    return len(gates) - sum(
        len(constituents(element)) for element in elements[len(elements) // 2 :]
    )


class TestCheckpointRoundTrip:
    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        num_qubits = 8
        circuit = qft_circuit(num_qubits)
        gates = list(circuit)
        split = len(gates) // 2

        # Uninterrupted run.
        full = CompressedSimulator(num_qubits, _config())
        full.apply_circuit(gates)

        # Interrupted run: first half, checkpoint, restore, second half.
        first = CompressedSimulator(num_qubits, _config())
        first.apply_circuit(gates[:split])
        path = tmp_path / "ckpt.bin"
        written = save_checkpoint(first, path)
        assert written == path.stat().st_size
        resumed = load_checkpoint(path)
        report = resumed.apply_circuit(gates[split:])

        assert state_fidelity(resumed.statevector(), full.statevector()) == pytest.approx(
            1.0, abs=1e-10
        )
        # The count continues from the checkpoint, one per schedule element.
        assert resumed.gate_count == first.gate_count + report.fusion_gates_out

    def test_checkpoint_preserves_metadata(self, tmp_path):
        config = _config(start_lossless=False, error_levels=(1e-3, 1e-1))
        simulator = CompressedSimulator(7, config)
        simulator.apply_circuit(qft_circuit(7))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(simulator, path)
        resumed = load_checkpoint(path)
        assert resumed.num_qubits == 7
        assert resumed.partition.num_ranks == 2
        assert resumed.controller.current_bound == 1e-3
        assert resumed.fidelity_tracker.num_gates == simulator.gate_count
        assert resumed.fidelity_tracker.lower_bound == pytest.approx(
            simulator.fidelity_tracker.lower_bound
        )

    def test_report_counts_the_restored_gates(self, tmp_path):
        # One restore path: a loaded and a resumed simulator both report the
        # checkpointed gate count, not zero.
        simulator = CompressedSimulator(7, _config())
        simulator.apply_circuit(qft_circuit(7))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(simulator, path)
        loaded = load_checkpoint(path)
        warm = CompressedSimulator(7, _config())
        warm.apply_circuit(qft_circuit(7).gates[:3])
        assert resume_from_checkpoint(warm, path) == simulator.gate_count
        for restored in (loaded, warm):
            assert restored.gate_count == simulator.gate_count > 0
            assert restored.report().gates_executed == restored.gate_count
            assert np.array_equal(restored.statevector(), simulator.statevector())

    def test_checkpoint_matches_dense_after_resume(self, tmp_path):
        circuit = qft_circuit(7)
        gates = list(circuit)
        simulator = CompressedSimulator(7, _config())
        simulator.apply_circuit(gates[:20])
        path = tmp_path / "ckpt.bin"
        save_checkpoint(simulator, path)
        resumed = load_checkpoint(path)
        resumed.apply_circuit(gates[20:])
        dense = simulate_statevector(circuit)
        assert np.allclose(resumed.statevector(), dense, atol=1e-10)

    def test_explicit_config_mismatch_rejected(self, tmp_path):
        simulator = CompressedSimulator(6, _config())
        path = tmp_path / "ckpt.bin"
        save_checkpoint(simulator, path)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, config=SimulatorConfig(num_ranks=8, block_amplitudes=4))

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_load_parses_the_file_once(self, tmp_path, monkeypatch):
        # The config and the blocks come from one read: a file replaced
        # right after it was parsed cannot mix into the restore.
        from repro.core import checkpoint

        simulator = CompressedSimulator(7, _config())
        simulator.apply_circuit(qft_circuit(7))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(simulator, path)
        other = CompressedSimulator(7, _config(num_ranks=4, block_amplitudes=8))
        reads = []

        def read_then_replace(target):
            parsed = read_checkpoint(target)
            reads.append(target)
            save_checkpoint(other, target)
            return parsed

        monkeypatch.setattr(checkpoint, "read_checkpoint", read_then_replace)
        loaded = load_checkpoint(path)
        assert reads == [path]
        assert loaded.partition.num_ranks == 2
        assert loaded.gate_count == simulator.gate_count
        assert np.array_equal(loaded.statevector(), simulator.statevector())

    def test_restores_are_logged(self, tmp_path, caplog):
        simulator = CompressedSimulator(6, _config())
        simulator.apply_circuit(qft_circuit(6))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(simulator, path)
        gates, blocks = simulator.gate_count, simulator.partition.total_blocks
        with caplog.at_level(logging.INFO, logger="repro.core.checkpoint"):
            warm = load_checkpoint(path)
            resume_from_checkpoint(warm, path)
        message = f"restored checkpoint {path} at gate {gates} ({blocks} blocks)"
        assert [
            (record.name, record.levelname, record.getMessage())
            for record in caplog.records
        ] == [("repro.core.checkpoint", "INFO", message)] * 2

    def test_checkpoint_of_fresh_simulator(self, tmp_path):
        simulator = CompressedSimulator(6, _config())
        path = tmp_path / "fresh.bin"
        save_checkpoint(simulator, path)
        resumed = load_checkpoint(path)
        assert resumed.probability_of(0) == pytest.approx(1.0)
        assert resumed.gate_count == 0


class TestCodecEngineKeyCompatibility:
    """Files written by 1.1-1.8 carry ``"codec_engine"`` (``"numpy"`` or
    ``"numba"``) in their metadata; 1.9.0 neither writes nor reads the key."""

    @staticmethod
    def _set_engine_key(path, engine) -> None:
        """Rewrite the metadata JSON of the checkpoint at *path* in place."""

        def edit(meta):
            assert "codec_engine" not in meta  # no longer written
            if engine is not None:
                meta["codec_engine"] = engine

        _edit_meta(path, edit)

    @pytest.mark.parametrize("tier", ["sequential", "ranked-comm"])
    @pytest.mark.parametrize(
        "engine", ["numpy", "numba", None], ids=["numpy", "numba", "absent"]
    )
    def test_file_loads_and_resumes_bit_identically(self, tier, engine, tmp_path):
        gates = list(qft_circuit(7))
        split = len(gates) // 2
        with CompressedSimulator(7, tier_config(tier)) as full:
            full.apply_circuit(gates)
            expected = full.statevector()
        path = tmp_path / "old.ckpt"
        with CompressedSimulator(7, tier_config(tier)) as first:
            first.apply_circuit(gates[:split])
            save_checkpoint(first, path)
        self._set_engine_key(path, engine)
        assert read_checkpoint(path)[0].get("codec_engine") == engine
        # The sequential leg rebuilds its config from the file's metadata.
        config = None if tier == "sequential" else tier_config(tier)
        with load_checkpoint(path, config=config) as resumed:
            assert resumed.config.tier == ("sequential" if config is None else "ranked")
            resumed.apply_circuit(gates[split:])
            assert np.array_equal(resumed.statevector(), expected)


class TestLosslessLevelCompatibility:
    """Before 1.13.0 the simulator default was ``lossless_level=6``, and
    before 1.27.0 the level was not in the file; blobs written at 6 by such a
    file load and resume under the new default exactly as under the old
    one."""

    @pytest.mark.parametrize("tier", ["sequential", "ranked-comm"])
    @pytest.mark.parametrize("start_lossless", [True, False], ids=["lossless", "lossy"])
    def test_level_6_file_resumes_bit_identically(self, tier, start_lossless, tmp_path):
        gates = list(qft_circuit(7))
        old = tier_config(tier, lossless_level=6, start_lossless=start_lossless)
        with CompressedSimulator(7, old) as full:
            split = _split_at_element(full, gates)
            full.apply_circuit(gates)
            expected = full.statevector()
        path = tmp_path / "level6.ckpt"
        with CompressedSimulator(7, old) as first:
            first.apply_circuit(gates[:split])
            save_checkpoint(first, path)
        _edit_meta(path, lambda meta: meta.pop("lossless_level"))
        # The sequential leg rebuilds its config from the file's metadata.
        config = None if tier == "sequential" else tier_config(tier)
        with load_checkpoint(path, config=config) as resumed:
            assert resumed.config.lossless_level == SimulatorConfig().lossless_level != 6
            resumed.apply_circuit(gates[split:])
            assert np.array_equal(resumed.statevector(), expected)


class TestConfigLessResume:
    """Without a config, ``load_checkpoint`` rebuilds every setting that
    changes the blobs the remaining gates store."""

    @pytest.mark.parametrize(
        "setting", [{"lossless_level": 6}, {"fusion_enabled": False}], ids=str
    )
    def test_remaining_gates_store_the_uninterrupted_blobs(self, setting, tmp_path):
        gates = list(random_supremacy_circuit(3, 4, depth=12, seed=5))
        config = _config(block_amplitudes=256, **setting)
        full = CompressedSimulator(12, config)
        split = _split_at_element(full, gates)
        full.apply_circuit(gates)
        first = CompressedSimulator(12, config)
        first.apply_circuit(gates[:split])
        path = tmp_path / "ckpt.bin"
        save_checkpoint(first, path)

        resumed = load_checkpoint(path)
        for key, value in setting.items():
            assert getattr(resumed.config, key) == value
        resumed.apply_circuit(gates[split:])
        assert resumed.gate_count == full.gate_count
        assert [(where, entry.blob) for where, entry in resumed.state.iter_blocks()] == [
            (where, entry.blob) for where, entry in full.state.iter_blocks()
        ]


class TestRemovedSettings:
    """Files written with a lossless backend other than zlib, or without the
    fidelity bound, cannot resume since 1.27.0."""

    @pytest.mark.parametrize(
        "key, value", [("lossless_backend", "lzma"), ("track_fidelity_bound", False)]
    )
    def test_rejected_on_every_restore_path(self, key, value, tmp_path):
        simulator = CompressedSimulator(6, _config())
        simulator.apply_circuit(qft_circuit(6))
        path = tmp_path / "old.ckpt"
        save_checkpoint(simulator, path)
        _edit_meta(path, lambda meta: meta.update({key: value}))
        for restore in (
            read_checkpoint,
            load_checkpoint,
            lambda path: resume_from_checkpoint(simulator, path),
        ):
            with pytest.raises(CheckpointError, match=f"{key}.*docs/migration.md"):
                restore(path)

    def test_zlib_and_tracked_files_still_load(self, tmp_path):
        # What every writer before 1.27.0 recorded for the defaults.
        simulator = CompressedSimulator(6, _config())
        simulator.apply_circuit(qft_circuit(6))
        path = tmp_path / "old.ckpt"
        save_checkpoint(simulator, path)
        _edit_meta(
            path,
            lambda meta: meta.update(
                {"lossless_backend": "zlib", "track_fidelity_bound": True}
            ),
        )
        assert load_checkpoint(path).gate_count == simulator.gate_count


class TestCheckpointRobustness:
    """Torn, scribbled or padded files must surface as CheckpointError.

    Recovery code probes possibly-torn checkpoints (e.g. a crash mid-write
    of an in-run resilience snapshot), so *every* malformed prefix has to
    raise the one typed error — never succeed, never leak struct/json/pickle
    internals.
    """

    @pytest.fixture()
    def valid_checkpoint(self, tmp_path):
        simulator = CompressedSimulator(6, _config())
        simulator.apply_circuit(qft_circuit(6))
        path = tmp_path / "valid.bin"
        save_checkpoint(simulator, path)
        return path.read_bytes(), tmp_path

    def test_truncation_at_every_boundary_rejected(self, valid_checkpoint):
        payload, tmp_path = valid_checkpoint
        target = tmp_path / "torn.bin"
        for length in range(len(payload)):
            target.write_bytes(payload[:length])
            with pytest.raises(CheckpointError):
                load_checkpoint(target)

    def test_corrupted_metadata_json_rejected(self, valid_checkpoint):
        payload, tmp_path = valid_checkpoint
        # The metadata JSON starts right after the magic and its u32 length;
        # scribbling its first byte must not escape as a JSONDecodeError.
        scribbled = bytearray(payload)
        scribbled[8 + 4] ^= 0xFF
        target = tmp_path / "scribbled.bin"
        target.write_bytes(bytes(scribbled))
        with pytest.raises(CheckpointError):
            load_checkpoint(target)

    def test_trailing_bytes_rejected(self, valid_checkpoint):
        payload, tmp_path = valid_checkpoint
        target = tmp_path / "padded.bin"
        target.write_bytes(payload + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(target)

    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        # save_checkpoint is atomic: a crash after the first block was
        # written leaves no torn file under the final name.
        from repro.core import checkpoint

        simulator = CompressedSimulator(6, _config())
        path = tmp_path / "ckpt.bin"
        save_checkpoint(simulator, path)
        previous = path.read_bytes()
        simulator.apply_circuit(qft_circuit(6))

        class FailsOnSecondBlock:
            real = checkpoint._BLOCK_HEADER
            calls = 0

            def pack(self, *fields):
                self.calls += 1
                if self.calls == 2:
                    raise OSError("disk full")
                return self.real.pack(*fields)

        monkeypatch.setattr(checkpoint, "_BLOCK_HEADER", FailsOnSecondBlock())
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(simulator, path)
        monkeypatch.undo()
        assert path.read_bytes() == previous
        assert load_checkpoint(path).gate_count == 0

    @staticmethod
    def _rewrite(path, edit) -> None:
        """Rewrite the checkpoint at *path* with its block list passed
        through *edit*."""

        from repro.core import checkpoint

        meta, blocks = read_checkpoint(path)
        blocks = edit(blocks)
        meta_blob = json.dumps(meta).encode()
        parts = [checkpoint._MAGIC, struct.pack("<I", len(meta_blob)), meta_blob]
        parts.append(struct.pack("<I", len(blocks)))
        for rank, block, name, bound, blob in blocks:
            parts.append(
                checkpoint._BLOCK_HEADER.pack(
                    rank, block, len(name.encode()), bound, len(blob)
                )
            )
            parts += [name.encode(), blob]
        path.write_bytes(b"".join(parts))

    @pytest.mark.parametrize(
        "edit, message",
        [
            # Block 1 takes block 0's coordinates: one block named twice,
            # one never.  Loaded, the missing block kept the reset state.
            (lambda blocks: [blocks[0], blocks[0], *blocks[2:]],
             r"block 1 .*rank 0, block 0"),
            # Rank 2 of a 2-rank file: an IndexError from deep in the store.
            (lambda blocks: [*blocks[:3], (2, 0, *blocks[3][2:]), *blocks[4:]],
             r"block 3 .*rank 2, block 0"),
        ],
        ids=["listed-twice", "out-of-range"],
    )
    def test_each_block_named_exactly_once(self, tmp_path, edit, message):
        # 6 qubits, 2 ranks of 4 8-amplitude blocks.
        config = _config(block_amplitudes=8)
        source = CompressedSimulator(6, config)
        source.apply_circuit(qft_circuit(6))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(source, path)
        assert read_checkpoint(path)[1][1][:2] == (0, 1)
        self._rewrite(path, edit)

        with pytest.raises(CheckpointError, match=message):
            read_checkpoint(path)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)
        warm = CompressedSimulator(6, config)
        warm.apply_circuit(qft_circuit(6)[:5])
        before = [(where, entry.blob) for where, entry in warm.state.iter_blocks()]
        gate_count = warm.gate_count
        with pytest.raises(CheckpointError, match=message):
            resume_from_checkpoint(warm, path)
        assert [
            (where, entry.blob) for where, entry in warm.state.iter_blocks()
        ] == before
        assert warm.gate_count == gate_count

    @pytest.mark.parametrize(
        "key, value",
        [("lossless_level", "3"), ("error_levels", 5), ("memory_budget_bytes", -1)],
    )
    def test_invalid_config_metadata_rejected(self, valid_checkpoint, key, value):
        payload, tmp_path = valid_checkpoint
        target = tmp_path / "config.bin"
        target.write_bytes(payload)
        _edit_meta(target, lambda meta: meta.update({key: value}))
        with pytest.raises(CheckpointError, match="SimulatorConfig"):
            load_checkpoint(target)

    def test_bad_magic_rejected(self, valid_checkpoint):
        payload, tmp_path = valid_checkpoint
        target = tmp_path / "magic.bin"
        target.write_bytes(b"QCKPT999" + payload[8:])
        with pytest.raises(CheckpointError):
            load_checkpoint(target)

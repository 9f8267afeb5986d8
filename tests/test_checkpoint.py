"""Tests for simulation checkpoint/restart (Section 3.5)."""

from __future__ import annotations

import json
import logging
import struct

import numpy as np
import pytest

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

        raw = path.read_bytes()
        (meta_len,) = struct.unpack_from("<I", raw, 8)
        meta = json.loads(raw[12 : 12 + meta_len])
        assert "codec_engine" not in meta  # no longer written
        if engine is not None:
            meta["codec_engine"] = engine
        blob = json.dumps(meta).encode()
        path.write_bytes(
            raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + meta_len :]
        )

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
    """Before 1.13.0 the simulator default was ``lossless_level=6``.  The level
    is not in the file; blobs written at 6 load and resume under the new
    default exactly as under the old one."""

    @pytest.mark.parametrize("tier", ["sequential", "ranked-comm"])
    @pytest.mark.parametrize("start_lossless", [True, False], ids=["lossless", "lossy"])
    def test_level_6_file_resumes_bit_identically(self, tier, start_lossless, tmp_path):
        gates = list(qft_circuit(7))
        old = tier_config(tier, lossless_level=6, start_lossless=start_lossless)
        with CompressedSimulator(7, old) as full:
            # Split between two schedule elements: a lossy run quantises
            # once, so cutting one in two would change the lossy bytes.
            elements = full.prepare_gates(gates)
            split = len(gates) - sum(
                len(constituents(element)) for element in elements[len(elements) // 2 :]
            )
            full.apply_circuit(gates)
            expected = full.statevector()
        path = tmp_path / "level6.ckpt"
        with CompressedSimulator(7, old) as first:
            first.apply_circuit(gates[:split])
            save_checkpoint(first, path)
        # The sequential leg rebuilds its config from the file's metadata.
        config = None if tier == "sequential" else tier_config(tier)
        with load_checkpoint(path, config=config) as resumed:
            assert resumed.config.lossless_level == SimulatorConfig().lossless_level != 6
            resumed.apply_circuit(gates[split:])
            assert np.array_equal(resumed.statevector(), expected)


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

    def test_bad_magic_rejected(self, valid_checkpoint):
        payload, tmp_path = valid_checkpoint
        target = tmp_path / "magic.bin"
        target.write_bytes(b"QCKPT999" + payload[8:])
        with pytest.raises(CheckpointError):
            load_checkpoint(target)

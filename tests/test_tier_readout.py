"""Parent-side readout is the same on every execution tier.

After the same circuit, everything a caller can read off the compressed state
— the dense vector, seeded samples, an observable with X/Y terms (evaluated on
a :meth:`~repro.core.CompressedSimulator.fork`), a saved-and-loaded checkpoint
and a suspend → resume — must not depend on where the blocks live.  On the
ranked tier each of these pulls or pushes blobs through the rank workers'
control pipes (``RankedExecutor.get`` / ``put``); on the others they read the
parent-side block table.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.applications import qft_benchmark_circuit
from repro.backends import PauliObservable
from repro.circuits import standard_gate
from repro.core import CompressedSimulator, load_checkpoint, save_checkpoint
from repro.core.checkpoint import resume_from_checkpoint
from tiers import tier_config

NUM_QUBITS = 7
OBSERVABLE = PauliObservable.from_terms(
    [(0.5, "XZIIIIY"), (0.25, "IYXIIZI"), (1.0, "ZZIIIII")]
)


def blobs(simulator) -> list[tuple[bytes, str, float]]:
    return [
        (entry.blob, entry.compressor, entry.bound)
        for _key, entry in simulator.state.iter_blocks()
    ]


def read_everything(make_config, directory) -> dict:
    """Run the circuit on one tier and read the state out every way there is."""

    config = make_config(num_ranks=2, block_amplitudes=16)
    with CompressedSimulator(NUM_QUBITS, config) as simulator:
        simulator.apply_circuit(qft_benchmark_circuit(NUM_QUBITS, seed=3))
        out = {
            "blocks": blobs(simulator),
            "statevector": simulator.statevector().tobytes(),
            "counts": simulator.sample_counts(300, np.random.default_rng(11)),
            "expectation": OBSERVABLE.expectation(simulator),
        }
        save_checkpoint(simulator, directory / "saved.ckpt")
        with load_checkpoint(directory / "saved.ckpt", config=config) as loaded:
            out["loaded"] = blobs(loaded)
        gate_count = simulator.gate_count
        simulator.apply_gate(standard_gate("h", NUM_QUBITS - 1))
        assert blobs(simulator) != out["blocks"]
        assert resume_from_checkpoint(simulator, directory / "saved.ckpt") == gate_count
        out["resumed"] = blobs(simulator)
    return out


@pytest.fixture(scope="module")
def expected(tmp_path_factory) -> dict:
    return read_everything(
        functools.partial(tier_config, "sequential"), tmp_path_factory.mktemp("seq")
    )


@pytest.fixture(scope="module")
def outcome(tier, tmp_path_factory) -> dict:
    return read_everything(tier, tmp_path_factory.mktemp("tier"))


@pytest.mark.parametrize(
    "what", ["blocks", "statevector", "counts", "expectation", "loaded", "resumed"]
)
def test_readout_matches_sequential(outcome, expected, what):
    assert outcome[what] == expected[what]


def test_checkpoint_and_resume_reproduce_the_blocks(outcome):
    assert outcome["loaded"] == outcome["resumed"] == outcome["blocks"]

"""Readout is the same on every execution tier.

After the same circuit, everything a caller can read off the compressed state
— the dense vector, the block reduction, seeded samples, an observable with
X/Y terms (evaluated on a :meth:`~repro.core.CompressedSimulator.fork`), a
saved-and-loaded checkpoint and a suspend → resume — must not depend on where
the blocks live, for a lossless state and for one a memory budget escalated
to a lossy bound.  On the ranked tier the block reduction (masses and
diagonal partials) runs in the rank workers and only numbers cross the
control pipes; sampling's hit blocks, forks, checkpoints and restores pull or
push blobs through them (``RankedStateVector.get_block`` / ``put_block``).  On the
sequential tier all of it reads the parent-side block table.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

import reference_kernels
from repro.applications import qft_benchmark_circuit
from repro.backends import PauliObservable
from repro.circuits import standard_gate
from repro.core import CompressedSimulator, load_checkpoint, save_checkpoint
from repro.core.checkpoint import resume_from_checkpoint
from repro.distributed.ranked import RankedStateVector
from tiers import RANKED, tier_config

NUM_QUBITS = 7
OBSERVABLE = PauliObservable.from_terms(
    [(0.5, "XZIIIIY"), (0.25, "IYXIIZI"), (1.0, "ZZIIIII")]
)
DIAGONAL = PauliObservable.from_terms(
    [(1.0, "ZZIIIII"), (0.5, "IIIZIIZ"), (0.25, "ZIIIIIZ"), (2.0, "IIIIIII")]
)
#: Config overrides per state: the second budget forces three escalations of
#: the error bound (to 1e-3) during the circuit.
STATES = {"lossless": {}, "escalated": {"memory_budget_bytes": 2500}}


def blobs(simulator) -> list[tuple[bytes, float]]:
    return [(entry.blob, entry.bound) for _key, entry in simulator.state.iter_blocks()]


def run_circuit(make_config, state: str) -> CompressedSimulator:
    config = make_config(num_ranks=2, block_amplitudes=16, **STATES[state])
    simulator = CompressedSimulator(NUM_QUBITS, config)
    simulator.apply_circuit(qft_benchmark_circuit(NUM_QUBITS, seed=3))
    assert (simulator.report().escalations > 0) == (state == "escalated")
    return simulator


def read_everything(make_config, state, directory) -> dict:
    """Run the circuit on one tier and read the state out every way there is."""

    with run_circuit(make_config, state) as simulator:
        config = simulator.config
        masses, partials = simulator.block_reduction(DIAGONAL.diagonal_zmasks)
        out = {
            "blocks": blobs(simulator),
            "statevector": simulator.statevector().tobytes(),
            "reduction": (masses.tobytes(), partials.tobytes()),
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


@pytest.fixture(scope="module", params=list(STATES))
def state(request) -> str:
    return request.param


@pytest.fixture(scope="module")
def expected(state, tmp_path_factory) -> dict:
    return read_everything(
        functools.partial(tier_config, "sequential"),
        state,
        tmp_path_factory.mktemp("seq"),
    )


@pytest.fixture(scope="module")
def outcome(tier, state, tmp_path_factory) -> dict:
    return read_everything(tier, state, tmp_path_factory.mktemp("tier"))


@pytest.fixture
def live(tier, state):
    """The executed simulator of one tier and state, open for one test."""

    with run_circuit(tier, state) as simulator:
        yield simulator


@pytest.mark.parametrize(
    "what",
    [
        "blocks",
        "statevector",
        "reduction",
        "counts",
        "expectation",
        "loaded",
        "resumed",
    ],
)
def test_readout_matches_sequential(outcome, expected, what):
    assert outcome[what] == expected[what]


def test_checkpoint_and_resume_reproduce_the_blocks(outcome):
    assert outcome["loaded"] == outcome["resumed"] == outcome["blocks"]


@pytest.mark.parametrize("shots", [0, 1, 1000])
def test_sample_counts_match_the_reference_loop(live, shots):
    counts = live.sample_counts(shots, np.random.default_rng(5))
    assert counts == reference_kernels.sample_counts(
        live, shots, np.random.default_rng(5)
    )
    assert sum(counts.values()) == shots


def test_reused_masses_sample_the_same_counts(live):
    masses, _partials = live.block_reduction(DIAGONAL.diagonal_zmasks)
    assert live.sample_counts(
        1000, np.random.default_rng(5), block_mass=masses
    ) == live.sample_counts(1000, np.random.default_rng(5))
    with pytest.raises(ValueError, match="one mass per block"):
        live.sample_counts(10, block_mass=masses[:-1])


@pytest.mark.parametrize("spelling", RANKED)
def test_ranked_reduction_fetches_only_hit_blocks(spelling, state, monkeypatch):
    """The observable and mass pass ships no blob to the parent; sampling
    fetches each hit block once, and nothing else."""

    fetched: list[tuple[int, int]] = []
    original = RankedStateVector.get_block

    def counting_get(self, rank, block):
        fetched.append((rank, block))
        return original(self, rank, block)

    monkeypatch.setattr(RankedStateVector, "get_block", counting_get)
    with run_circuit(functools.partial(tier_config, spelling), state) as live:
        masses, _partials = live.block_reduction(DIAGONAL.diagonal_zmasks)
        DIAGONAL.expectation(live)
        assert live.block_probabilities().tobytes() == masses.tobytes()
        assert fetched == []

        rng = np.random.default_rng(5)
        hit = np.unique(rng.choice(masses.size, size=1000, p=masses / masses.sum()))
        live.sample_counts(1000, np.random.default_rng(5), block_mass=masses)
        blocks_per_rank = live.partition.blocks_per_rank
        assert fetched == [divmod(int(index), blocks_per_rank) for index in hit]

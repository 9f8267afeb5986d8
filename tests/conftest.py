"""Shared fixtures for the test suite."""

from __future__ import annotations

import functools
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.analysis.datasets import qaoa_state, supremacy_state
from repro.compression import get_compressor
from repro.core import SimulatorConfig
from repro.core.procpool import live_pool_count
from repro.resilience import faults
import reference_kernels
from tiers import TIERS, tier_config


@pytest.fixture(autouse=True)
def _no_leaked_pools_or_segments(monkeypatch):
    """Fail the test that leaks a process pool or creates a shared-memory segment.

    Autouse fixtures are set up first and torn down last, so the check runs
    after the test's own fixtures released what they held.  Nothing in
    ``src/`` creates a segment any more (every tier is processes, pipes and
    sockets), so one created during a test is a regression whether or not
    it is cleaned up.  Yields the list of segment names created so far.
    """

    created: list[str] = []
    original = shared_memory.SharedMemory.__init__

    def recording(self, name=None, create=False, size=0, **kwargs):
        original(self, name=name, create=create, size=size, **kwargs)
        if create:
            created.append(self.name)

    monkeypatch.setattr(shared_memory.SharedMemory, "__init__", recording)
    yield created
    assert live_pool_count() == 0, "the test left a ProcessPool open"
    assert not created, f"the test created shared-memory segments: {created}"


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    """Start and end every test with no installed plan and no spent injection.

    Both are process-wide: a test that installs a plan, or spends an
    injection of the environment's plan, must not leak either into the next
    test.  ``REPRO_FAULT_PLAN`` is left alone, so the CI chaos job's plan
    still applies to every test.
    """

    faults.clear_plan()
    yield
    faults.clear_plan()


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for reproducible tests."""

    return np.random.default_rng(12345)


@pytest.fixture(params=["numpy", "reference"])
def kernels(request, monkeypatch) -> str:
    """Which codec kernels run: the product's, or the sequential oracle's.

    ``"numpy"`` is the product as shipped.  ``"reference"`` patches the
    plain-Python loops of :mod:`reference_kernels` over the six kernels the
    codecs call, so a test using this fixture — directly or via
    :func:`make_codec` — also pins the oracle itself to the golden blobs,
    the round-trip properties and the truncation errors.
    """

    if request.param == "reference":
        reference_kernels.install(monkeypatch)
    return request.param


@pytest.fixture(scope="module", params=TIERS)
def tier(request):
    """Config factory of one execution tier, parametrized over all of them.

    Module-scoped, so a module using it runs once per tier; ``tier(num_ranks=4, fusion_enabled=False)`` takes any
    :func:`tiers.tier_config` keyword.
    """

    return functools.partial(tier_config, request.param)


@pytest.fixture(
    scope="module", params=["xor-bitplane", "sz", "sz-complex", "reshuffle"]
)
def compressor_name(request) -> str:
    """Registry name of a lossy compressor, parametrized over every family.

    Module-scoped so each test module using it runs once per compressor
    (the paper's Solutions and the SZ variants).
    """

    return request.param


@pytest.fixture(
    scope="module", params=["sz", "zfp", "xor-bitplane", "lossless"]
)
def codec_name(request) -> str:
    """Registry name of a *codec* (one representative per wire format).

    Mirrors :func:`compressor_name` but spans the codec families whose blob
    formats the golden tests pin — including the lossless stage, which
    ``compressor_name`` (lossy-only) deliberately excludes.  Use
    :func:`make_codec` to instantiate.
    """

    return request.param


@pytest.fixture
def make_codec(kernels):
    """Factory instantiating a codec by registry name with laptop defaults.

    The lossless codec (either registry name) and fpzip (precision-driven)
    take no error bound; every other lossy codec gets the same mid-range
    relative/absolute bound so parametrized tests compare formats,
    not tolerances.  Depends on :func:`kernels`, so every test using this
    factory runs on the product kernels and on the reference ones.
    """

    def _make(name: str, bound: float = 1e-3, **overrides):
        if name in ("lossless", "zstd", "fpzip"):
            return get_compressor(name, **overrides)
        return get_compressor(name, bound=bound, **overrides)

    return _make


@pytest.fixture(scope="session")
def simulator_config():
    """Factory for laptop-scale :class:`SimulatorConfig` objects.

    Centralises the partition-geometry boilerplate the simulator tests used
    to repeat inline: ``simulator_config(num_ranks=4, block_amplitudes=8)``
    or any other keyword accepted by :class:`SimulatorConfig`.
    """

    def _make(num_ranks: int = 2, block_amplitudes: int = 16, **overrides) -> SimulatorConfig:
        return SimulatorConfig(
            num_ranks=num_ranks, block_amplitudes=block_amplitudes, **overrides
        )

    return _make


@pytest.fixture(scope="session")
def qaoa_snapshot() -> np.ndarray:
    """Small QAOA state snapshot (float64 interleaved view), shared per session."""

    return qaoa_state(num_qubits=12, seed=3).view(np.float64)


@pytest.fixture(scope="session")
def sup_snapshot() -> np.ndarray:
    """Small supremacy-circuit state snapshot (float64 interleaved view)."""

    return supremacy_state(num_qubits=12, depth=8, seed=3).view(np.float64)


@pytest.fixture
def spiky_data(rng: np.random.Generator) -> np.ndarray:
    """Synthetic spiky data resembling quantum amplitudes (Figure 9 style)."""

    magnitudes = np.exp(rng.normal(-9.0, 2.0, size=8192))
    signs = rng.choice([-1.0, 1.0], size=8192)
    return magnitudes * signs

"""Fault-tolerant execution: policy, recovery and fault injection.

This package turns the engine's detection-only failure story (a dead worker
or a stuck communicator raises and the run dies) into detect → contain →
recover:

* :class:`FaultPolicy` — the user-facing knob set, carried on
  :class:`repro.core.config.SimulatorConfig`: how many times to retry and
  how often (and where) to write in-run checkpoints.
* Self-healing pools — :class:`repro.core.procpool.ProcessPool` can respawn
  a dead worker in place; the batch fan-out (``parallel="process"``)
  re-dispatches only the circuits the dead worker held, and every circuit
  ships its own seed sequence, so replay is idempotent and bit-identical.
* Ranked-tier recovery — the simulator tears down a failed rank pool,
  reloads the last in-run checkpoint and deterministically replays the
  gates since, instead of raising.
* :mod:`repro.resilience.faults` — a deterministic, seedable fault-injection
  harness (kill worker N after K submissions, drop/delay a comm channel)
  so all of the above is testable on every commit.

The default policy is inert (no retries, no checkpoints), so runs without an
explicit opt-in behave exactly as before.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import faults

__all__ = [
    "FaultPolicy",
    "resolve_fault_policy",
]


@dataclass(frozen=True)
class FaultPolicy:
    """Recovery policy of one simulation run.

    The policy is inert by default: ``max_retries=0`` keeps the historical
    fail-fast behaviour (first crash raises) and
    ``checkpoint_interval_waves=0`` disables in-run checkpoints.  Attach a
    non-trivial policy to :class:`repro.core.config.SimulatorConfig` via its
    ``fault_policy`` field to opt into recovery.

    Attributes
    ----------
    max_retries:
        How many times a failed gate (ranked tier) or batch dispatch
        (``parallel="process"`` fan-out) is retried after healing or
        rebuilding the pool.  ``0`` means fail fast.
    checkpoint_interval_waves:
        Ranked tier: write an in-run checkpoint every N applied gate waves
        so recovery replays at most N gates.  ``0`` disables checkpoints
        (recovery then replays from the initial state).
    checkpoint_dir:
        Directory for in-run checkpoints; ``None`` uses a per-run temporary
        directory that is removed when the simulator closes.
    """

    max_retries: int = 0
    checkpoint_interval_waves: int = 0
    checkpoint_dir: str | None = None

    def __post_init__(self) -> None:
        """Validate the knob ranges."""

        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.checkpoint_interval_waves < 0:
            raise ValueError("checkpoint_interval_waves must be >= 0")


def resolve_fault_policy(policy: "FaultPolicy | None") -> FaultPolicy:
    """Resolve the effective policy of a run.

    An explicit ``policy`` wins; otherwise, when a fault plan is active
    (installed or via ``REPRO_FAULT_PLAN`` — e.g. the CI chaos job), a
    recovery-enabled default (``max_retries=2``) applies so injected faults
    are survived rather than fatal; otherwise the inert default policy.
    ``REPRO_FAULT_POLICY`` was removed in 1.12.0: while it is set, this
    raises :class:`ValueError` instead of silently ignoring it.
    """

    if "REPRO_FAULT_POLICY" in os.environ:
        raise ValueError(
            "REPRO_FAULT_POLICY was removed in 1.12.0: unset it and pass "
            "SimulatorConfig(fault_policy=FaultPolicy(...)) instead "
            "(see docs/migration.md)"
        )
    if policy is not None:
        return policy
    if faults.get_active_plan() is not None:
        return FaultPolicy(max_retries=2)
    return FaultPolicy()

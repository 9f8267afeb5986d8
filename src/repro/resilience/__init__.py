"""Fault-tolerant execution: policy, recovery and fault injection.

This package turns the engine's detection-only failure story (a dead worker
or a stuck communicator raises and the run dies) into detect → contain →
recover:

* :class:`FaultPolicy` — the user-facing knob set, carried on
  :class:`repro.core.config.SimulatorConfig`: how many times to retry, how
  to back off between attempts and how often to write in-run checkpoints.
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
import random
from dataclasses import dataclass

__all__ = [
    "FaultPolicy",
    "resolve_fault_policy",
    "suspend_to_checkpoint",
    "resume_from_checkpoint",
]

#: Environment variable holding a ``key=value,key=value`` fault policy spec
#: (see :func:`resolve_fault_policy`).
POLICY_ENV_VAR = "REPRO_FAULT_POLICY"


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
    backoff_base_seconds / backoff_multiplier / backoff_max_seconds:
        Exponential backoff between retry attempts: attempt ``n`` sleeps
        ``base * multiplier**n`` seconds, capped at the max.
    backoff_jitter:
        Fraction of the computed backoff added as deterministic jitter
        (seeded by ``seed`` and the attempt index), de-synchronising
        concurrent retriers without sacrificing reproducibility.
    checkpoint_interval_waves:
        Ranked tier: write an in-run checkpoint every N applied gate waves
        so recovery replays at most N gates.  ``0`` disables checkpoints
        (recovery then replays from the initial state).
    checkpoint_dir:
        Directory for in-run checkpoints; ``None`` uses a per-run temporary
        directory that is removed when the simulator closes.
    seed:
        Seed of the jitter stream (and of any policy-owned randomness);
        fixed seed ⇒ bit-identical retry timing decisions.
    """

    max_retries: int = 0
    backoff_base_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_jitter: float = 0.1
    backoff_max_seconds: float = 2.0
    checkpoint_interval_waves: int = 0
    checkpoint_dir: str | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        """Validate the knob ranges."""

        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_seconds < 0:
            raise ValueError("backoff_base_seconds must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError("backoff_jitter must be in [0, 1]")
        if self.backoff_max_seconds < 0:
            raise ValueError("backoff_max_seconds must be >= 0")
        if self.checkpoint_interval_waves < 0:
            raise ValueError("checkpoint_interval_waves must be >= 0")

    def backoff_seconds(self, attempt: int) -> float:
        """Deterministic backoff before retry ``attempt`` (0-based).

        The jitter component is drawn from a stream seeded by
        ``(self.seed, attempt)``, so the same policy produces the same
        sleep sequence on every run.
        """

        base = self.backoff_base_seconds * (self.backoff_multiplier ** attempt)
        base = min(base, self.backoff_max_seconds)
        if self.backoff_jitter <= 0.0 or base <= 0.0:
            return base
        rng = random.Random(f"{self.seed}:{attempt}")
        return min(
            base * (1.0 + self.backoff_jitter * rng.random()),
            self.backoff_max_seconds,
        )

    @property
    def active(self) -> bool:
        """Whether this policy enables any recovery behaviour at all."""

        return self.max_retries > 0 or self.checkpoint_interval_waves > 0


def _parse_policy_spec(spec: str) -> FaultPolicy:
    """Parse a ``key=value,key=value`` policy spec (the env-var syntax).

    Example: ``max_retries=2,checkpoint_interval_waves=8,seed=7``.  Unknown
    keys — typos, or keys a later version removed — raise
    :class:`ValueError` so they fail loudly.
    """

    kwargs: dict[str, object] = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f"bad fault-policy entry {chunk!r} (want key=value)")
        key, _, value = chunk.partition("=")
        key = key.strip()
        value = value.strip()
        if key in ("max_retries", "checkpoint_interval_waves", "seed"):
            kwargs[key] = int(value)
        elif key in (
            "backoff_base_seconds",
            "backoff_multiplier",
            "backoff_jitter",
            "backoff_max_seconds",
        ):
            kwargs[key] = float(value)
        elif key == "checkpoint_dir":
            kwargs[key] = value
        else:
            raise ValueError(
                f"unknown fault-policy key {key!r} (docs/migration.md lists "
                "the keys removed since earlier versions)"
            )
    return FaultPolicy(**kwargs)


def resolve_fault_policy(policy: "FaultPolicy | None") -> FaultPolicy:
    """Resolve the effective policy of a run.

    Precedence: an explicit ``policy`` wins; otherwise the
    ``REPRO_FAULT_POLICY`` environment variable (``key=value,...`` spec) is
    parsed; otherwise, when a fault plan is active (installed or via
    ``REPRO_FAULT_PLAN`` — e.g. the CI chaos job), a recovery-enabled
    default (``max_retries=2``) applies so injected faults are survived
    rather than fatal; otherwise the inert default policy.
    """

    if policy is not None:
        return policy
    spec = os.environ.get(POLICY_ENV_VAR)
    if spec:
        return _parse_policy_spec(spec)
    from . import faults

    if faults.get_active_plan() is not None:
        return FaultPolicy(max_retries=2)
    return FaultPolicy()


# Imported last: suspend.py reaches (lazily) into repro.core.checkpoint,
# which imports repro.core.simulator, which imports this package — every
# name above must already be bound when that cycle re-enters here.
from .suspend import resume_from_checkpoint, suspend_to_checkpoint  # noqa: E402

"""Adaptive error-bound control (Sections 3.7 and 4.2).

The simulation starts with lossless (Zstd-role) compression; as the state gets
more entangled the lossless ratio deteriorates, and whenever the total memory
footprint (compressed blocks plus the two scratch blocks per rank, Eq. 8)
exceeds the budget the controller relaxes the pointwise relative error bound
to the next level of the ladder 1e-5 → 1e-4 → 1e-3 → 1e-2 → 1e-1.

The controller also owns the compressor instances, one per level, so the
simulator simply asks for "the current compressor" before recompressing a
block.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from ..compression.interface import Compressor, get_compressor
from ..compression.lossless import LosslessCompressor
from .config import SimulatorConfig

__all__ = ["EscalationEvent", "AdaptiveErrorController"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EscalationEvent:
    """One escalation decision, kept for the simulation report."""

    gate_index: int
    from_bound: float
    to_bound: float
    footprint_bytes: int
    budget_bytes: int


class AdaptiveErrorController:
    """Chooses the compression level as the simulation proceeds."""

    def __init__(self, config: SimulatorConfig) -> None:
        self._config = config
        self._levels: list[float] = list(config.error_levels)
        self._lossless = LosslessCompressor(level=config.lossless_level)
        self._lossy: dict[float, Compressor] = {}
        # Built now, so an unknown lossy codec name fails at construction,
        # not at the first escalation.
        self._lossy_at(self._levels[0])
        # level_index == -1 means "still lossless"; index i >= 0 means the
        # i-th entry of the error ladder is in force.
        self._level_index = -1 if config.start_lossless else 0
        self._events: list[EscalationEvent] = []

    # -- current state -----------------------------------------------------------

    @property
    def is_lossless(self) -> bool:
        """Whether the controller still sits at the lossless level."""

        return self._level_index < 0

    @property
    def current_bound(self) -> float:
        """The error bound in force (0.0 while lossless)."""

        if self.is_lossless:
            return 0.0
        return self._levels[self._level_index]

    @property
    def exhausted(self) -> bool:
        """True when the loosest level is already in force."""

        return self._level_index >= len(self._levels) - 1

    @property
    def events(self) -> tuple[EscalationEvent, ...]:
        """Every escalation taken so far, in order."""

        return tuple(self._events)

    def compressor(self) -> Compressor:
        """The compressor matching the current level."""

        if self.is_lossless:
            return self._lossless
        return self._lossy_at(self._levels[self._level_index])

    def _lossy_at(self, bound: float) -> Compressor:
        """The configured lossy codec at *bound*, one instance per bound."""

        if bound not in self._lossy:
            self._lossy[bound] = get_compressor(
                self._config.lossy_compressor,
                bound=bound,
                level=self._config.lossless_level,
            )
        return self._lossy[bound]

    def lossless_compressor(self) -> Compressor:
        """The lossless compressor (used for checkpoints and initial blocks)."""

        return self._lossless

    # -- escalation --------------------------------------------------------------------

    def over_budget(self, footprint_bytes: int) -> bool:
        """Whether *footprint_bytes* exceeds the configured budget."""

        budget = self._config.memory_budget_bytes
        return budget is not None and footprint_bytes > budget

    def maybe_escalate(self, footprint_bytes: int, gate_index: int) -> bool:
        """Relax the bound one level if the footprint exceeds the budget.

        Returns ``True`` when an escalation happened.  Escalation is a no-op
        when no budget is configured or the loosest level is already active.
        """

        if not self.over_budget(footprint_bytes):
            return False
        if self.exhausted:
            return False
        from_bound = self.current_bound
        self._level_index += 1
        event = EscalationEvent(
            gate_index=gate_index,
            from_bound=from_bound,
            to_bound=self.current_bound,
            footprint_bytes=footprint_bytes,
            budget_bytes=self._config.memory_budget_bytes or 0,
        )
        self._events.append(event)
        logger.info(
            "error bound escalated at gate %d: %g -> %g "
            "(footprint %d B over budget %d B)",
            event.gate_index,
            event.from_bound,
            event.to_bound,
            event.footprint_bytes,
            event.budget_bytes,
        )
        return True

    def force_level(self, bound: float) -> None:
        """Jump straight to a specific error level (used by tests/ablations)."""

        if bound == 0.0:
            self._level_index = -1
            return
        try:
            self._level_index = self._levels.index(bound)
        except ValueError as exc:
            raise ValueError(
                f"bound {bound} is not one of the configured levels {self._levels}"
            ) from exc

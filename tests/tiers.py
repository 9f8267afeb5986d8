"""The execution tiers as test inputs (shared by ``conftest.tier`` and the
ranked-tier test modules)."""

from __future__ import annotations

import os

from repro.core import SimulatorConfig

#: Every way to select an execution tier: ``sequential``, and the ranked
#: tier under each of its three spellings (``comm="process"``,
#: ``executor="process", num_workers=num_ranks`` and
#: ``num_workers=num_ranks``, the frozen ``rcs16_thread2`` one).  A
#: tier-parametrized test runs under every spelling, so each one is checked
#: to reach the whole ranked tier, not only ``config.tier == "ranked"``.
TIERS = ("sequential", "ranked-comm", "ranked-executor", "ranked-workers")

#: The ranked tier's spellings alone.
RANKED = TIERS[1:]


def tier_of(spelling: str) -> str:
    """The :attr:`SimulatorConfig.tier` that *spelling* resolves to."""

    return "sequential" if spelling == "sequential" else "ranked"


def tier_config(
    tier: str, num_ranks: int = 2, block_amplitudes: int = 16, **overrides
) -> SimulatorConfig:
    """A laptop-scale :class:`SimulatorConfig` selecting execution tier
    *tier*, spelled as one of :data:`TIERS`."""

    options = {
        "sequential": {},
        "ranked-comm": dict(comm="process"),
        "ranked-executor": dict(executor="process", num_workers=num_ranks),
        "ranked-workers": dict(num_workers=num_ranks),
    }[tier]
    return SimulatorConfig(
        num_ranks=num_ranks, block_amplitudes=block_amplitudes, **options, **overrides
    )


def open_fd_count() -> int:
    """Descriptors this process holds open (Linux ``/proc``; the ranked
    tier's pipes and sockets are descriptors, and a leaked one per simulator
    ends in ``EMFILE`` in a long-lived service)."""

    return len(os.listdir("/proc/self/fd"))

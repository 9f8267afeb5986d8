"""The execution tiers as test inputs (shared by ``conftest.tier`` and the
ranked-tier test modules)."""

from __future__ import annotations

import os

from repro.core import SimulatorConfig

#: The execution tiers, the ranked one under both of its spellings.
TIERS = ("sequential", "thread", "ranked-comm", "ranked-executor")


def tier_config(
    tier: str, num_ranks: int = 2, block_amplitudes: int = 16, **overrides
) -> SimulatorConfig:
    """A laptop-scale :class:`SimulatorConfig` selecting execution tier *tier*."""

    options = {
        "sequential": {},
        "thread": dict(num_workers=2),
        "ranked-comm": dict(comm="process"),
        "ranked-executor": dict(executor="process", num_workers=num_ranks),
    }[tier]
    return SimulatorConfig(
        num_ranks=num_ranks, block_amplitudes=block_amplitudes, **options, **overrides
    )


def report_counters(report) -> dict:
    """``report.as_dict()`` without anything measured in seconds: what two
    tiers running the same circuit must agree on exactly."""

    return {
        key: value
        for key, value in report.as_dict().items()
        if not key.endswith(("_seconds", "_fraction")) and key != "seconds_per_gate"
    }


def open_fd_count() -> int:
    """Descriptors this process holds open (Linux ``/proc``; the ranked
    tier's pipes and sockets are descriptors, and a leaked one per simulator
    ends in ``EMFILE`` in a long-lived service)."""

    return len(os.listdir("/proc/self/fd"))

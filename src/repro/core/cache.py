"""Compressed block cache (Section 3.4).

Many circuits — Grover's search above all — keep large groups of amplitudes
identical, so the same (gate, compressed-input-blocks) pattern recurs over and
over.  The cache stores, per pattern, the compressed *output* blocks, letting
the simulator skip decompression, the gate kernel and recompression entirely
on a hit.

The paper's design: 64 cache lines per rank, least-recently-used replacement,
a line holds ``(OP, CB1, CB2, CB1', CB2')``; the cache is disabled when the
hit rate stays at zero (random circuits), so misses stop costing lookups.
A line is keyed on exactly its head ``(OP, CB1, CB2)`` — the op key and the
input blobs themselves, not digests of them — so a hit can only return the
outputs of the same pattern, and Python hashes each blob once in its lifetime.

Repeats *within* one gate plan never reach the cache: every tier groups a
plan's byte-identical tasks first (:func:`repro.core.kernel.group_tasks`), so
the cache serves only patterns that recur from one plan to a later one.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass

__all__ = ["CacheStats", "BlockCache"]

logger = logging.getLogger(__name__)


@dataclass
class CacheStats:
    """Hit/miss counters plus the disable state."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    disabled: bool = False

    @property
    def lookups(self) -> int:
        """Total lookups (hits plus misses)."""

        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when none yet)."""

        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> dict:
        """JSON-ready mapping of the counter values and hit rate."""

        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "disabled": self.disabled,
        }


class BlockCache:
    """LRU cache keyed on ``(op_key, blob1, blob2)`` exactly.

    The simulator and every rank worker build it with the defaults, the
    paper's constants; the parameters exist for unit tests and probes.

    Parameters
    ----------
    lines:
        Maximum number of cache lines (64 in the paper).
    miss_disable_threshold:
        After this many lookups with zero hits the cache disables itself,
        mirroring the paper's "disable if the hit rate is always zero" rule.
        ``None`` never disables.
    """

    def __init__(self, lines: int = 64, miss_disable_threshold: int | None = 256) -> None:
        if lines < 1:
            raise ValueError("cache must have at least one line")
        self._lines = int(lines)
        self._threshold = miss_disable_threshold
        self._entries: "OrderedDict[tuple, tuple[bytes, bytes | None]]" = OrderedDict()
        self.stats = CacheStats()
        # Lookups and insertions may come from the executor's worker threads;
        # one lock keeps the LRU order and the counters consistent.
        self._mutex = threading.RLock()

    @property
    def lines(self) -> int:
        """Capacity of the cache in entries."""

        return self._lines

    @property
    def enabled(self) -> bool:
        """Whether caching is active (False once self-disabled)."""

        return not self.stats.disabled

    def lookup(
        self, op_key: tuple, blob1: bytes, blob2: bytes | None
    ) -> tuple[bytes, bytes | None] | None:
        """Return the cached output blobs for this pattern, or ``None``."""

        # Unlocked fast path: once disabled, lookups must stay free (the
        # whole point of the disable rule).  The flag only ever flips
        # False -> True, so a stale read is harmless.
        if self.stats.disabled:
            return None
        key = (op_key, blob1, blob2)
        with self._mutex:
            if self.stats.disabled:
                return None
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                if (
                    self._threshold is not None
                    and self.stats.hits == 0
                    and self.stats.misses >= self._threshold
                ):
                    self.stats.disabled = True
                    self._entries.clear()
                    logger.info(
                        "block cache disabled itself: 0 hits in %d lookups",
                        self.stats.misses,
                    )
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def insert(
        self,
        op_key: tuple,
        blob1: bytes,
        blob2: bytes | None,
        out1: bytes,
        out2: bytes | None,
    ) -> None:
        """Store the output blobs for this pattern (LRU eviction)."""

        if self.stats.disabled:
            return
        key = (op_key, blob1, blob2)
        with self._mutex:
            if self.stats.disabled:
                return
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (out1, out2)
            self.stats.insertions += 1
            while len(self._entries) > self._lines:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def reset(self) -> None:
        """Drop all lines, zero the statistics and re-enable the cache.

        Used by the batched-run reset so each circuit sees the same cache
        behaviour — including the miss-disable rule — as a fresh simulator.
        """

        with self._mutex:
            self._entries.clear()
            self.stats = CacheStats()

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

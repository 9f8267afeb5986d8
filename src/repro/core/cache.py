"""Compressed block cache (Section 3.4).

Many circuits — Grover's search above all — keep large groups of amplitudes
identical, so the same (gate, compressed-input-blocks) pattern recurs over and
over.  The cache stores, per pattern, the compressed *output* blocks, letting
the simulator skip decompression, the gate kernel and recompression entirely
on a hit.

The paper's design: 64 cache lines per rank, least-recently-used replacement,
a line holds ``(OP, CB1, CB2, CB1', CB2')``; the cache is disabled when the
hit rate stays at zero (random circuits), so misses stop costing lookups.
Here a line holds a task's k input blobs and its k output blobs, whatever k
the task staged — one block, a pair, or more — and is keyed on exactly its
head ``(OP, (CB1, ..., CBk))``: the op key and the input blobs themselves, not
digests of them.  So a hit can only return the outputs of the same pattern, a
one-block line never answers a pair with the same first blob, and Python
hashes each blob once in its lifetime.

Repeats *within* one gate plan never reach the cache: every tier groups a
plan's byte-identical tasks first (:func:`repro.core.kernel.group_tasks`), so
the cache serves only patterns that recur from one plan to a later one.

A line keeps its input blobs alive after the task that made it has replaced
those blocks, and its output blobs after later gates replace them in turn.
None of that memory is in Eq. 8's footprint; :attr:`BlockCache.nbytes` and
``CacheStats.peak_bytes`` count it, the blob bytes the lines reference.
"""

from __future__ import annotations

import logging
from collections import OrderedDict
from dataclasses import dataclass

__all__ = ["CacheStats", "BlockCache"]

logger = logging.getLogger(__name__)


def _nbytes(blobs: tuple[bytes, ...]) -> int:
    return sum(len(blob) for blob in blobs)


@dataclass
class CacheStats:
    """Hit/miss counters plus the disable state."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    disabled: bool = False
    #: Most blob bytes the lines referenced at once (:attr:`BlockCache.nbytes`).
    peak_bytes: int = 0

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
            "peak_bytes": self.peak_bytes,
        }


class BlockCache:
    """LRU cache keyed on ``(op_key, (blob1, ..., blobk))`` exactly.

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
        self._entries: "OrderedDict[tuple, tuple[bytes, ...]]" = OrderedDict()
        self._nbytes = 0
        self.stats = CacheStats()

    @property
    def lines(self) -> int:
        """Capacity of the cache in entries."""

        return self._lines

    @property
    def nbytes(self) -> int:
        """Blob bytes the lines reference now: every line's input and output
        blobs (an output may also be the block table's current blob)."""

        return self._nbytes

    @property
    def enabled(self) -> bool:
        """Whether caching is active (False once self-disabled)."""

        return not self.stats.disabled

    def lookup(self, op_key: tuple, *blobs: bytes) -> tuple[bytes, ...] | None:
        """Return the cached output blobs for the input *blobs* under
        *op_key*, or ``None``."""

        if self.stats.disabled:
            return None
        key = (op_key, blobs)
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
                self._nbytes = 0
                logger.info(
                    "block cache disabled itself: 0 hits in %d lookups",
                    self.stats.misses,
                )
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def insert(self, op_key: tuple, *line: bytes) -> None:
        """Store a line: *line* is the k input blobs, then the k output blobs
        (LRU eviction)."""

        if self.stats.disabled:
            return
        k = len(line) // 2
        key = (op_key, line[:k])
        replaced = self._entries.get(key)
        if replaced is None:
            self._nbytes += _nbytes(line[:k])
        else:
            self._entries.move_to_end(key)
            self._nbytes -= _nbytes(replaced)
        self._entries[key] = line[k:]
        self._nbytes += _nbytes(line[k:])
        self.stats.insertions += 1
        while len(self._entries) > self._lines:
            (_, inputs), outputs = self._entries.popitem(last=False)
            self._nbytes -= _nbytes(inputs) + _nbytes(outputs)
            self.stats.evictions += 1
        if self._nbytes > self.stats.peak_bytes:
            self.stats.peak_bytes = self._nbytes

    def reset(self) -> None:
        """Drop all lines, zero the statistics and re-enable the cache.

        Used by the batched-run reset so each circuit sees the same cache
        behaviour — including the miss-disable rule — as a fresh simulator.
        """

        self._entries.clear()
        self._nbytes = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

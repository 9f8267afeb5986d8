"""Communicator conformance: simulated vs process-backed implementations.

One scripted traffic pattern runs against both communication tiers —
:class:`SimulatedCommunicator` (accounting only) and
:class:`ProcessCommunicator` endpoints over a shared-memory arena — and the
suite asserts they agree on

* exchange semantics: each peer of a ``sendrecv_bytes`` pair receives
  exactly the bytes the other sent (trivially true for the simulated tier,
  which moves no payloads), and allreduce returns the bit-identical float on
  every rank, and
* stats accounting: after :func:`aggregate_rank_stats` folds the
  per-endpoint counters onto the simulated conventions, every
  :class:`CommunicationStats` field matches the simulated run of the same
  script (both tiers charge collectives with the same recursive-doubling
  volume model; see ``process_comm``'s module docstring).

The process endpoints are exercised from threads of this test process — the
arena is plain shared memory, so attachment is address-space-agnostic; the
ranked execution tier attaches the very same class from worker processes
(covered by ``tests/test_ranked.py``).
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.distributed import (
    CommunicationStats,
    ProcessCommunicator,
    RankCommArena,
    SimulatedCommunicator,
    aggregate_rank_stats,
)
from repro.errors import ProcessCommTimeout


def _payload(rank: int, size: int) -> bytes:
    return bytes([(rank * 37 + i) % 256 for i in range(size)])


def _run_process_script(
    num_ranks: int,
    per_rank_script,
    channel_capacity: int = 4096,
    timeout: float = 30.0,
):
    """Run *per_rank_script(endpoint)* on one thread per rank; returns
    (per-rank results, per-rank stats) in rank order."""

    arena = RankCommArena(num_ranks, channel_capacity=channel_capacity)
    results: list = [None] * num_ranks
    errors: list = []
    stats: list = [None] * num_ranks

    def runner(rank: int) -> None:
        endpoint = arena.endpoint(rank, timeout=timeout)
        try:
            results[rank] = per_rank_script(endpoint)
            stats[rank] = endpoint.stats.as_dict()
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append((rank, exc))
        finally:
            endpoint.close()

    threads = [
        threading.Thread(target=runner, args=(rank,), daemon=True)
        for rank in range(num_ranks)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        arena.close()
    if errors:
        rank, exc = errors[0]
        raise AssertionError(f"rank {rank} failed: {exc!r}") from exc
    return results, stats


PAYLOAD_SIZE = 96


def _conformance_script_simulated(num_ranks: int) -> CommunicationStats:
    """The scripted traffic pattern, run through the accounting tier."""

    comm = SimulatedCommunicator(num_ranks)
    for rank_a, rank_b in ((0, 1),) if num_ranks == 2 else ((0, 1), (2, 3), (0, 2)):
        comm.exchange_blocks(rank_a, rank_b, PAYLOAD_SIZE)
    comm.allreduce_sum([float(r + 1) for r in range(num_ranks)])
    return comm.stats


def _conformance_script_process(endpoint: ProcessCommunicator):
    """The same pattern, run for real from one endpoint's perspective."""

    num_ranks = endpoint.num_ranks
    rank = endpoint.rank
    pairs = ((0, 1),) if num_ranks == 2 else ((0, 1), (2, 3), (0, 2))
    received = []
    for rank_a, rank_b in pairs:
        if rank == rank_a:
            received.append(endpoint.sendrecv_bytes(rank_b, _payload(rank, PAYLOAD_SIZE)))
        elif rank == rank_b:
            received.append(endpoint.sendrecv_bytes(rank_a, _payload(rank, PAYLOAD_SIZE)))
    total = endpoint.allreduce_sum(float(rank + 1))
    return received, total


class TestConformance:
    """Same script, both tiers, field-by-field stats parity."""

    @pytest.mark.parametrize("num_ranks", [2, 4])
    def test_stats_parity(self, num_ranks):
        simulated = _conformance_script_simulated(num_ranks)
        _, per_rank = _run_process_script(num_ranks, _conformance_script_process)
        aggregated = aggregate_rank_stats(per_rank)
        assert aggregated.as_dict() == simulated.as_dict()

    @pytest.mark.parametrize("num_ranks", [2, 4])
    def test_payload_delivery(self, num_ranks):
        results, _ = _run_process_script(num_ranks, _conformance_script_process)
        pairs = ((0, 1),) if num_ranks == 2 else ((0, 1), (2, 3), (0, 2))
        for rank_a, rank_b in pairs:
            received_by_a, _ = results[rank_a]
            received_by_b, _ = results[rank_b]
            # Each side of the pair received exactly the peer's payload.
            assert _payload(rank_b, PAYLOAD_SIZE) in received_by_a
            assert _payload(rank_a, PAYLOAD_SIZE) in received_by_b

    @pytest.mark.parametrize("num_ranks", [2, 4])
    def test_allreduce_value_matches_simulated(self, num_ranks):
        values = [float(r + 1) for r in range(num_ranks)]
        expected = SimulatedCommunicator(num_ranks).allreduce_sum(values)
        results, _ = _run_process_script(num_ranks, _conformance_script_process)
        totals = {total for _, total in results}
        # Every rank returns the bit-identical global sum.
        assert totals == {expected}


class TestProcessCommunicator:
    """Behaviour specific to the real shared-memory implementation."""

    def test_chunked_transfer_both_directions(self):
        # Payloads far larger than the channel capacity must stream through
        # in chunks without deadlocking, even when both sides send at once.
        big0 = _payload(0, 5000)
        big1 = _payload(1, 7777)

        def script(endpoint):
            mine, theirs = (big0, big1) if endpoint.rank == 0 else (big1, big0)
            got = endpoint.sendrecv_bytes(1 - endpoint.rank, mine)
            assert got == theirs
            return len(got)

        results, stats = _run_process_script(2, script, channel_capacity=64)
        assert results == [7777, 5000]
        assert stats[0]["bytes_sent"] == 5000
        assert stats[1]["bytes_sent"] == 7777

    def test_empty_payload(self):
        def script(endpoint):
            return endpoint.sendrecv_bytes(1 - endpoint.rank, b"")

        results, _ = _run_process_script(2, script)
        assert results == [b"", b""]

    def test_asymmetric_payload_sizes(self):
        def script(endpoint):
            mine = _payload(endpoint.rank, 10 if endpoint.rank == 0 else 3000)
            return endpoint.sendrecv_bytes(1 - endpoint.rank, mine)

        results, _ = _run_process_script(2, script, channel_capacity=128)
        assert results[0] == _payload(1, 3000)
        assert results[1] == _payload(0, 10)

    def test_exchange_with_self_rejected(self):
        arena = RankCommArena(2)
        try:
            endpoint = arena.endpoint(0)
            with pytest.raises(ValueError, match="self"):
                endpoint.sendrecv_bytes(0, b"x")
            endpoint.close()
        finally:
            arena.close()

    def test_non_neighbour_exchange_rejected(self):
        # Ranks 0 and 3 differ in two rank bits: no channel exists, exactly
        # as no gate plan can pair them.
        arena = RankCommArena(4)
        try:
            endpoint = arena.endpoint(0)
            with pytest.raises(ValueError, match="neighbour"):
                endpoint.sendrecv_bytes(3, b"x")
            endpoint.close()
        finally:
            arena.close()

    def test_peer_out_of_range_rejected(self):
        arena = RankCommArena(2)
        try:
            endpoint = arena.endpoint(0)
            with pytest.raises(ValueError, match="range"):
                endpoint.sendrecv_bytes(5, b"x")
            endpoint.close()
        finally:
            arena.close()

    def test_dead_peer_times_out_promptly(self):
        # A sendrecv whose peer never shows up must fail with the dedicated
        # timeout error, not hang — this is the communicator-level half of
        # the rank-death story (the pool detects dead processes separately).
        arena = RankCommArena(2)
        try:
            endpoint = arena.endpoint(0, timeout=0.3)
            start = time.monotonic()
            with pytest.raises(ProcessCommTimeout):
                endpoint.sendrecv_bytes(1, b"payload")
            assert time.monotonic() - start < 5.0
            endpoint.close()
        finally:
            arena.close()

    def test_allreduce_times_out_without_peers(self):
        arena = RankCommArena(2)
        try:
            endpoint = arena.endpoint(1, timeout=0.3)
            with pytest.raises(ProcessCommTimeout, match="allreduce"):
                endpoint.allreduce_sum(1.0)
            endpoint.close()
        finally:
            arena.close()

    def test_repeated_collectives_stay_in_step(self):
        def script(endpoint):
            totals = []
            for round_index in range(5):
                totals.append(
                    endpoint.allreduce_sum(float(endpoint.rank + round_index))
                )
            return totals

        results, stats = _run_process_script(4, script)
        expected = [
            float(sum(rank + round_index for rank in range(4)))
            for round_index in range(5)
        ]
        assert all(result == expected for result in results)
        assert all(entry["allreduces"] == 5 for entry in stats)

    def test_arena_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            RankCommArena(3)
        with pytest.raises(ValueError):
            RankCommArena(2, channel_capacity=0)
        arena = RankCommArena(2)
        try:
            with pytest.raises(ValueError):
                ProcessCommunicator(arena.name, 2, 2)
        finally:
            arena.close()


class TestAggregateRankStats:
    def test_exchange_convention_mapping(self):
        a = CommunicationStats(messages=1, bytes_sent=100, exchanges=1)
        b = CommunicationStats(messages=1, bytes_sent=60, exchanges=1)
        total = aggregate_rank_stats([a, b])
        assert total.messages == 2
        assert total.bytes_sent == 160
        assert total.exchanges == 1

    def test_collectives_counted_once(self):
        per_rank = [
            CommunicationStats(messages=2, bytes_sent=16, allreduces=1)
            for _ in range(4)
        ]
        total = aggregate_rank_stats(per_rank)
        assert total.allreduces == 1
        assert total.messages == 8

    def test_accepts_dicts(self):
        stats = CommunicationStats(messages=3, bytes_sent=7, exchanges=2)
        total = aggregate_rank_stats([stats.as_dict(), stats])
        assert total.messages == 6
        assert total.exchanges == 2

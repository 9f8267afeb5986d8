"""Communicator conformance: simulated vs process-backed implementations.

One scripted traffic pattern runs against both communication tiers —
:class:`SimulatedCommunicator` (accounting only) and
:class:`ProcessCommunicator` endpoints over :func:`rank_links` socket pairs —
and the suite asserts they agree on

* exchange semantics: each peer of a ``sendrecv_bytes`` pair receives
  exactly the bytes the other sent (trivially true for the simulated tier,
  which moves no payloads), and allreduce returns the bit-identical float on
  every rank, and
* stats accounting: after :func:`aggregate_rank_stats` folds the
  per-endpoint counters onto the simulated conventions, every
  :class:`CommunicationStats` field matches the simulated run of the same
  script (both tiers charge collectives with the same recursive-doubling
  volume model; see ``process_comm``'s module docstring).

The endpoints are exercised from threads of this test process and from
spawned processes — a connected socket does not care which address space
holds its other end; the ranked execution tier hands the very same links to
its rank workers (covered by ``tests/test_ranked.py``).
"""

from __future__ import annotations

import multiprocessing
import os
import select
import signal
import threading
import time

import numpy as np
import pytest

from repro.distributed import (
    CommunicationStats,
    ProcessCommunicator,
    SimulatedCommunicator,
    aggregate_rank_stats,
    rank_links,
)
from repro.errors import ProcessCommTimeout

#: Far above the kernel's socket buffer (~200 KiB): the sender cannot finish
#: before the receiver starts draining.
BIG = 8 << 20


def _payload(rank: int, size: int) -> bytes:
    pattern = bytes((rank * 37 + i) % 256 for i in range(256))
    return (pattern * (size // 256 + 1))[:size]


def _run_process_script(num_ranks: int, per_rank_script, timeout: float = 30.0):
    """Run *per_rank_script(endpoint)* on one thread per rank; returns
    (per-rank results, per-rank stats) in rank order."""

    results: list = [None] * num_ranks
    errors: list = []
    stats: list = [None] * num_ranks

    def runner(rank: int, links: dict) -> None:
        endpoint = ProcessCommunicator(rank, num_ranks, links, timeout=timeout)
        try:
            results[rank] = per_rank_script(endpoint)
            stats[rank] = endpoint.stats.as_dict()
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append((rank, exc))
        finally:
            endpoint.close()

    with rank_links(num_ranks) as links:
        threads = [
            threading.Thread(target=runner, args=(rank, links[rank]), daemon=True)
            for rank in range(num_ranks)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    if errors:
        rank, exc = errors[0]
        raise AssertionError(f"rank {rank} failed: {exc!r}") from exc
    return results, stats


def _rank_process_main(rank, num_ranks, links, per_rank_script, outcome) -> None:
    """Entry point of one rank process: run the script, report the outcome."""

    endpoint = ProcessCommunicator(rank, num_ranks, links, timeout=30.0)
    try:
        outcome.send((per_rank_script(endpoint), endpoint.stats.as_dict()))
    finally:
        endpoint.close()


def _run_script_in_processes(num_ranks: int, per_rank_script, start_method: str):
    """:func:`_run_process_script` with one *process* per rank instead."""

    context = multiprocessing.get_context(start_method)
    workers = []
    with rank_links(num_ranks) as links:
        for rank in range(num_ranks):
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(
                target=_rank_process_main,
                args=(rank, num_ranks, links[rank], per_rank_script, sender),
            )
            process.start()
            sender.close()
            workers.append((process, receiver))
    try:
        outcomes = []
        for _, receiver in workers:
            assert receiver.poll(60.0), "a rank process did not report"
            outcomes.append(receiver.recv())
    finally:
        for process, receiver in workers:
            process.join(timeout=10.0)
            if process.is_alive():
                process.kill()
                process.join()
            receiver.close()
    return [result for result, _ in outcomes], [stats for _, stats in outcomes]


def _send_big_forever(links) -> None:
    """Victim of the SIGKILL test: starts an exchange nobody completes."""

    ProcessCommunicator(1, 2, links, timeout=60.0).sendrecv_bytes(0, _payload(1, BIG))


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

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_parity_with_one_process_per_rank(self, start_method):
        # The same script with the endpoints in real processes: the links
        # cross Process(args=...) under both start methods.
        results, per_rank = _run_script_in_processes(
            4, _conformance_script_process, start_method
        )
        simulated = _conformance_script_simulated(4)
        assert aggregate_rank_stats(per_rank).as_dict() == simulated.as_dict()
        assert {total for _, total in results} == {10.0}
        assert results[0][0] == [_payload(1, PAYLOAD_SIZE), _payload(2, PAYLOAD_SIZE)]


class TestProcessCommunicator:
    """Behaviour specific to the real socket-pair implementation."""

    def test_chunked_transfer_both_directions(self):
        # Payloads far larger than the kernel's socket buffer move through
        # it in pieces; with both sides sending at once neither can finish
        # its send before it starts receiving, so a send-then-receive
        # implementation would deadlock here.
        big0 = _payload(0, BIG)
        big1 = _payload(1, BIG + 7777)

        def script(endpoint):
            mine, theirs = (big0, big1) if endpoint.rank == 0 else (big1, big0)
            got = endpoint.sendrecv_bytes(1 - endpoint.rank, mine)
            assert got == theirs
            return len(got)

        results, stats = _run_process_script(2, script)
        assert results == [BIG + 7777, BIG]
        assert stats[0]["bytes_sent"] == BIG
        assert stats[1]["bytes_sent"] == BIG + 7777

    def test_empty_payload(self):
        def script(endpoint):
            return endpoint.sendrecv_bytes(1 - endpoint.rank, b"")

        results, _ = _run_process_script(2, script)
        assert results == [b"", b""]

    def test_asymmetric_payload_sizes(self):
        def script(endpoint):
            mine = _payload(endpoint.rank, 10 if endpoint.rank == 0 else BIG)
            return endpoint.sendrecv_bytes(1 - endpoint.rank, mine)

        results, _ = _run_process_script(2, script)
        assert results[0] == _payload(1, BIG)
        assert results[1] == _payload(0, 10)

    def test_exchange_with_self_rejected(self):
        with rank_links(2) as links:
            endpoint = ProcessCommunicator(0, 2, links[0])
            with pytest.raises(ValueError, match="self"):
                endpoint.sendrecv_bytes(0, b"x")

    def test_non_neighbour_exchange_rejected(self):
        # Ranks 0 and 3 differ in two rank bits: no link exists, exactly as
        # no gate plan can pair them.
        with rank_links(4) as links:
            endpoint = ProcessCommunicator(0, 4, links[0])
            with pytest.raises(ValueError, match="neighbour"):
                endpoint.sendrecv_bytes(3, b"x")

    def test_peer_out_of_range_rejected(self):
        with rank_links(2) as links:
            endpoint = ProcessCommunicator(0, 2, links[0])
            with pytest.raises(ValueError, match="range"):
                endpoint.sendrecv_bytes(5, b"x")

    def test_dead_peer_times_out_promptly(self):
        # A sendrecv whose peer never shows up must fail with the dedicated
        # timeout error, not hang — this is the communicator-level half of
        # the rank-death story (the pool detects dead processes separately).
        # The small payload waits in its receive, the big one already in its
        # send (the peer's buffer fills); both honour the deadline.
        for size in (10, BIG):
            payload = _payload(0, size)
            with rank_links(2) as links:
                endpoint = ProcessCommunicator(0, 2, links[0], timeout=0.5)
                start = time.monotonic()
                with pytest.raises(ProcessCommTimeout) as excinfo:
                    endpoint.sendrecv_bytes(1, payload)
                assert 0.5 <= time.monotonic() - start < 0.6
            assert (excinfo.value.op, excinfo.value.peer) == ("sendrecv", 1)

    def test_closed_link_raises_the_typed_error_at_once(self):
        # A link the other side closed (or reset) is the same typed error
        # the recovery path catches, with the OSError as its cause.
        with rank_links(2) as links:
            endpoint = ProcessCommunicator(0, 2, links[0], timeout=30.0)
            links[1][0].close()
            start = time.monotonic()
            with pytest.raises(ProcessCommTimeout) as excinfo:
                endpoint.sendrecv_bytes(1, b"payload")
            assert time.monotonic() - start < 1.0
        assert isinstance(excinfo.value.__cause__, OSError)

    def test_peer_killed_mid_exchange_is_prompt_under_spawn(self):
        # Under spawn a rank holds only its own ends, so once the creator has
        # let go of its copies a SIGKILLed peer is visible on the link itself.
        context = multiprocessing.get_context("spawn")
        with rank_links(2) as links:
            victim = context.Process(target=_send_big_forever, args=(links[1],))
            victim.start()
            mine = links[0][1].dup()
        endpoint = ProcessCommunicator(0, 2, {1: mine}, timeout=30.0)
        try:
            # Readable: the victim is inside its exchange.
            assert select.select([mine], [], [], 30.0)[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10.0)
            start = time.monotonic()
            with pytest.raises(ProcessCommTimeout) as excinfo:
                endpoint.sendrecv_bytes(1, _payload(0, BIG))
            assert time.monotonic() - start < 5.0
            assert isinstance(excinfo.value.__cause__, OSError)
        finally:
            endpoint.close()
            if victim.is_alive():
                victim.kill()
                victim.join()

    def test_allreduce_times_out_without_peers(self):
        with rank_links(2) as links:
            endpoint = ProcessCommunicator(1, 2, links[1], timeout=0.3)
            with pytest.raises(ProcessCommTimeout, match="allreduce"):
                endpoint.allreduce_sum(1.0)

    @pytest.mark.parametrize("num_ranks", [4, 8])
    def test_allreduce_is_one_value_on_every_rank(self, num_ranks):
        # Contributions whose sum depends on the order of addition: every
        # rank must add them in ascending rank order, like numpy does here.
        values = [0.1 * (rank + 1) ** 3 + 1e-9 * rank for rank in range(num_ranks)]

        def script(endpoint):
            return endpoint.allreduce_sum(values[endpoint.rank])

        results, _ = _run_process_script(num_ranks, script)
        assert set(results) == {float(np.array(values).sum())}

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

    def test_links_reject_bad_geometry(self):
        with pytest.raises(ValueError, match="power of two"):
            with rank_links(3):
                pass
        with rank_links(4) as links:
            with pytest.raises(ValueError, match="power of two"):
                ProcessCommunicator(0, 3, links[0])
            with pytest.raises(ValueError, match="range"):
                ProcessCommunicator(4, 4, links[0])
            # Rank 1's neighbours are 0 and 3, not rank 0's 1 and 2.
            with pytest.raises(ValueError, match="neighbour"):
                ProcessCommunicator(1, 4, links[0])
            with pytest.raises(ValueError, match="neighbour"):
                ProcessCommunicator(0, 4, {1: links[0][1]})


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

"""Communicator conformance: :class:`ProcessCommunicator` endpoints over
:func:`rank_links` socket pairs.

One scripted traffic pattern of pairwise exchanges runs over the endpoints,
and the suite asserts

* exchange semantics: each peer of a ``sendrecv_bytes`` pair receives
  exactly the bytes the other sent, and
* stats accounting: each endpoint's :class:`CommunicationStats` counts what
  that rank sent — one exchange, one message and the payload's bytes per
  ``sendrecv_bytes`` (the ranked executor sums them into the report; the
  tier-level ledger is covered by ``tests/test_ranked.py``).

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

import pytest

from repro.distributed import CommunicationStats, ProcessCommunicator, rank_links
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


def _pairs(num_ranks: int) -> tuple[tuple[int, int], ...]:
    """The exchanging rank pairs of the scripted pattern, in order."""

    return ((0, 1),) if num_ranks == 2 else ((0, 1), (2, 3), (0, 2))


def _conformance_script(endpoint: ProcessCommunicator) -> list[bytes]:
    """The scripted pattern from one endpoint's perspective; returns what
    this rank received, in order."""

    rank = endpoint.rank
    received = []
    for rank_a, rank_b in _pairs(endpoint.num_ranks):
        if rank in (rank_a, rank_b):
            peer = rank_b if rank == rank_a else rank_a
            received.append(endpoint.sendrecv_bytes(peer, _payload(rank, PAYLOAD_SIZE)))
    return received


def _expected_stats(num_ranks: int) -> list[dict]:
    """Per endpoint: one exchange, one message and its payload per pair it
    is in, whatever the peer sent."""

    expected = []
    for rank in range(num_ranks):
        count = sum(rank in pair for pair in _pairs(num_ranks))
        stats = CommunicationStats(count, count * PAYLOAD_SIZE, count)
        expected.append(stats.as_dict())
    return _counters(expected)


def _counters(stats: list[dict]) -> list[dict]:
    """*stats* without the measured seconds."""

    return [
        {key: value for key, value in entry.items() if key != "exchange_seconds"}
        for entry in stats
    ]


class TestConformance:
    """The scripted pattern: payloads delivered, each endpoint counting what
    it sent."""

    @pytest.mark.parametrize("num_ranks", [2, 4])
    def test_endpoint_stats_count_what_each_rank_sent(self, num_ranks):
        _, per_rank = _run_process_script(num_ranks, _conformance_script)
        assert _counters(per_rank) == _expected_stats(num_ranks)
        assert all(entry["exchange_seconds"] > 0 for entry in per_rank)

    @pytest.mark.parametrize("num_ranks", [2, 4])
    def test_payload_delivery(self, num_ranks):
        results, _ = _run_process_script(num_ranks, _conformance_script)
        for rank_a, rank_b in _pairs(num_ranks):
            # Each side of the pair received exactly the peer's payload.
            assert _payload(rank_b, PAYLOAD_SIZE) in results[rank_a]
            assert _payload(rank_a, PAYLOAD_SIZE) in results[rank_b]

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_parity_with_one_process_per_rank(self, start_method):
        # The same script with the endpoints in real processes: the links
        # cross Process(args=...) under both start methods, and the results
        # and counters are the in-process ones.
        results, per_rank = _run_script_in_processes(
            4, _conformance_script, start_method
        )
        threaded, _ = _run_process_script(4, _conformance_script)
        assert results == threaded
        assert _counters(per_rank) == _expected_stats(4)
        assert results[0] == [_payload(1, PAYLOAD_SIZE), _payload(2, PAYLOAD_SIZE)]


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

    def test_repeated_exchanges_stay_in_step(self):
        # Back-to-back frames on the same links, alternating between the two
        # rank bits, with sizes that end a frame mid-buffer (0, 1, 7) or span
        # many socket buffers: every round must get exactly its own payload.
        sizes = [0, 1, 300_000, 7, PAYLOAD_SIZE, 0]

        def round_payload(rank, round_index):
            return bytes([round_index]) * 3 + _payload(rank, sizes[round_index])

        def script(endpoint):
            received = []
            for round_index in range(len(sizes)):
                peer = endpoint.rank ^ (1 << (round_index % 2))
                received.append(
                    endpoint.sendrecv_bytes(peer, round_payload(endpoint.rank, round_index))
                )
            return received

        results, stats = _run_process_script(4, script)
        for rank in range(4):
            assert results[rank] == [
                round_payload(rank ^ (1 << (round_index % 2)), round_index)
                for round_index in range(len(sizes))
            ]
        rounds, sent = len(sizes), sum(3 + size for size in sizes)
        expected = CommunicationStats(rounds, sent, rounds).as_dict()
        assert _counters(stats) == _counters([expected] * 4)

    def test_failed_exchange_is_not_counted(self):
        # The ledger counts exchanges that happened: one that raised leaves
        # the endpoint's stats untouched.
        with rank_links(2) as links:
            endpoint = ProcessCommunicator(0, 2, links[0], timeout=30.0)
            links[1][0].close()
            with pytest.raises(ProcessCommTimeout):
                endpoint.sendrecv_bytes(1, _payload(0, PAYLOAD_SIZE))
            assert endpoint.stats == CommunicationStats()

    def test_single_rank_group_has_no_links(self):
        with rank_links(1) as links:
            assert links == [{}]
            endpoint = ProcessCommunicator(0, 1, links[0])
            with pytest.raises(ValueError, match="self"):
                endpoint.sendrecv_bytes(0, b"x")
            endpoint.close()

    def test_zero_ranks_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            with rank_links(0):
                pass
        with pytest.raises(ValueError, match="power of two"):
            ProcessCommunicator(0, 0, {})

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
            # The handle's sentinel pipe must not wait for the cyclic
            # collector (the error's traceback reaches this frame), or it
            # lands in a later test's descriptor count.
            victim.close()

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

"""Persistent process pool with shared-memory payload transport.

The thread pool of :class:`~repro.core.executor.TaskExecutor` only scales
where the hot loop drops the GIL, and PR 2 measured that the table-driven
codec path does not: NumPy fancy-index gathers hold the GIL, so codec-bound
workloads stay serial however many worker threads exist.  This module is the
substrate of the fix — a pool of *processes*, each holding warm state
initialised once, fed through pipes for small control messages and through
:mod:`multiprocessing.shared_memory` slot rings for block-sized payloads so
compressed blobs never ride a pickle stream.

Two worker kinds build on :class:`ProcessPool`: the rank workers of
:mod:`repro.distributed.ranked` (one process per rank, each owning its slice
of the compressed state — the only process-parallel mechanism for a single
circuit) and the circuit-fanout workers of :mod:`repro.backends.parallel`,
which run whole circuits on a warm per-process backend session.

Flow control is slot-based: every worker owns ``SLOTS_PER_WORKER`` input and
output slots in shared memory, a dispatch with ticket ``t`` uses slot
``t % SLOTS_PER_WORKER``, and the caller never keeps more than
``SLOTS_PER_WORKER`` tasks outstanding per worker — so a slot is only ever
rewritten after its previous payload has been fully consumed, with no locks
or frees inside the shared segments.  Payloads that do not fit their slot
fall back to inline pickling, so correctness never depends on the slot size.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
import weakref
import zlib
from multiprocessing import connection as mp_connection
from multiprocessing import get_context, shared_memory

from .. import errors

__all__ = [
    "ProcessPool",
    "effective_cpu_count",
    "live_pool_count",
    "SLOTS_PER_WORKER",
]

#: Outstanding tasks (and therefore shared-memory slots) per worker.  Two
#: keeps a worker busy while the parent processes its previous response
#: without growing the shared segments beyond a double buffer per direction.
SLOTS_PER_WORKER = 2

#: Shutdown sentinel sent down a worker's control pipe.
_SHUTDOWN = None

#: Every ProcessPool constructed but not yet closed.  Weak references: a
#: pool that is garbage-collected without close() (a bug, but one the
#: registry must not mask) simply drops out.  Long-lived owners that share
#: pools across many jobs — warm backend sessions under
#: :class:`repro.serve.SimulationService` — assert against
#: :func:`live_pool_count` that drain-and-close leaked nothing.
_LIVE_POOLS: "weakref.WeakSet[ProcessPool]" = weakref.WeakSet()


def live_pool_count() -> int:
    """Number of :class:`ProcessPool` instances currently open.

    Counts pools constructed in this process whose :meth:`ProcessPool.close`
    has not run yet.  Used by service-lifecycle tests as the zero-leak
    oracle: the count after a drain-and-close must equal the count before
    the service started.
    """

    return len(_LIVE_POOLS)


def effective_cpu_count() -> int:
    """CPUs actually available to this process (affinity-aware).

    ``os.cpu_count()`` reports the machine, not the container or cpuset this
    process is pinned to; benchmark speedup curves and worker-count defaults
    must use the effective number or container runs overstate the available
    parallelism.
    """

    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def raise_worker_error(reply: tuple, context: str) -> None:
    """Re-raise an ``("err", exc, traceback)`` worker reply in the parent.

    The original exception object is re-raised when it survived pickling, so
    callers see the same type parallel or not; the worker-side traceback is
    attached as a note (or wrapped, pre-3.11) either way.
    """

    _, exc, worker_traceback = reply
    detail = f"{context}:\n{worker_traceback}"
    if exc is None:
        raise errors.ReproError(detail)
    if hasattr(exc, "add_note"):  # Python >= 3.11
        exc.add_note(detail)
        raise exc
    raise exc from errors.ReproError(detail)  # pragma: no cover - py3.10 path


# ---------------------------------------------------------------------------
# Shared-memory slot arenas
# ---------------------------------------------------------------------------


def _attach_shared_memory(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment created by the pool parent.

    Workers share the parent's resource-tracker process (the tracker fd is
    inherited under fork and spawn alike), and its name cache is a set — the
    attach-side re-register is a no-op there, and the single unlink in the
    parent's :meth:`SlotArena.close` unregisters exactly once.  Nothing to
    work around as long as only the creating side ever unlinks.
    """

    return shared_memory.SharedMemory(name=name)


class SlotArena:
    """A shared-memory segment divided into fixed-size payload slots.

    One side writes a batch of byte payloads into a slot and describes them
    with ``("shm", slot, start, length, crc32)`` frame references shipped
    through the control pipe; the other side reads them zero-copy off the
    mapping and verifies the checksum, so a scribbled segment surfaces as a
    typed :class:`~repro.errors.BlockCorruptionError` instead of a garbage
    decode deep inside a codec.  The slot-reuse discipline (ticket modulo
    :data:`SLOTS_PER_WORKER`, with the outstanding cap) makes the arena
    race-free without any locking.
    """

    def __init__(
        self, *, slots: int, slot_bytes: int, name: str | None = None
    ) -> None:
        self._slots = int(slots)
        self._slot_bytes = int(slot_bytes)
        size = max(1, self._slots * self._slot_bytes)
        if name is None:
            self._shm = shared_memory.SharedMemory(create=True, size=size)
            self._owner = True
        else:
            self._shm = _attach_shared_memory(name)
            self._owner = False

    @property
    def name(self) -> str:
        """Shared-memory segment name workers attach to."""

        return self._shm.name

    @property
    def slot_bytes(self) -> int:
        """Capacity of one payload slot in bytes."""

        return self._slot_bytes

    def write(self, slot: int, payloads: list[bytes]) -> list[tuple] | None:
        """Pack *payloads* into *slot*; ``None`` when they do not fit."""

        total = sum(len(payload) for payload in payloads)
        if total > self._slot_bytes:
            return None
        base = slot * self._slot_bytes
        view = self._shm.buf
        refs: list[tuple] = []
        cursor = 0
        for payload in payloads:
            view[base + cursor : base + cursor + len(payload)] = payload
            refs.append(
                ("shm", slot, cursor, len(payload), zlib.crc32(payload))
            )
            cursor += len(payload)
        return refs

    def read(self, ref: tuple) -> bytes:
        """Materialise (and checksum-verify) the payload a reference points at."""

        _, slot, start, length, expected_crc = ref
        base = slot * self._slot_bytes + start
        payload = bytes(self._shm.buf[base : base + length])
        actual_crc = zlib.crc32(payload)
        if actual_crc != expected_crc:
            raise errors.BlockCorruptionError(
                "shared-memory payload failed its checksum",
                slot=slot,
                expected_crc=expected_crc,
                actual_crc=actual_crc,
            )
        return payload

    def corrupt(self, ref: tuple) -> None:
        """Flip one byte of the region a reference points at (fault injection).

        Used by the deterministic fault harness to prove that corruption is
        detected and retried; never called outside injected-fault paths.
        """

        _, slot, start, length, _ = ref
        if length <= 0:  # pragma: no cover - empty payloads are never framed
            return
        base = slot * self._slot_bytes + start
        self._shm.buf[base] = self._shm.buf[base] ^ 0xFF

    def close(self) -> None:
        """Detach from the segment; the creating side also unlinks it."""

        try:
            self._shm.close()
            if self._owner:
                self._shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - already gone
            pass


def _pack_frames(
    arena: SlotArena | None, slot: int, payloads: list[bytes]
) -> list[tuple]:
    """Frame references for *payloads*: shared-memory slots when they fit,
    inline pickled bytes otherwise (and always when no arena exists)."""

    if arena is not None:
        refs = arena.write(slot, payloads)
        if refs is not None:
            return refs
    return [("inline", payload) for payload in payloads]


def _read_frame(
    arena: SlotArena | None, ref: tuple, worker_id: int | None = None
) -> bytes:
    if ref[0] == "inline":
        return ref[1]
    if arena is None:
        raise errors.WorkerCrashedError("shm frame reference without an arena")
    try:
        return arena.read(ref)
    except errors.BlockCorruptionError as exc:
        exc.worker_id = worker_id
        raise


# ---------------------------------------------------------------------------
# Worker main loop
# ---------------------------------------------------------------------------


def _pool_worker_main(
    conn,
    state_factory,
    init_args: tuple,
    in_name: str | None,
    out_name: str | None,
    slots: int,
    slot_bytes: int,
) -> None:
    """Entry point of every pool worker process.

    Builds the warm worker state once, then serves control messages until
    the shutdown sentinel arrives or the parent's end of the pipe closes.
    A crash inside a handler is reported, not fatal: the traceback travels
    back as an ``("err", ...)`` reply so the parent can raise it with
    context.
    """

    in_arena = (
        SlotArena(slots=slots, slot_bytes=slot_bytes, name=in_name)
        if in_name
        else None
    )
    out_arena = (
        SlotArena(slots=slots, slot_bytes=slot_bytes, name=out_name)
        if out_name
        else None
    )
    state = None
    try:
        state = state_factory(*init_args)
        if hasattr(state, "bind_arenas"):
            state.bind_arenas(in_arena, out_arena)
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is _SHUTDOWN:
                break
            try:
                reply = state.handle(message)
            # repro-lint: disable=error-taxonomy -- worker boundary: the
            # exception is shipped to the parent and re-raised there
            except Exception as exc:
                # Ship the exception object itself (when picklable) so the
                # parent can re-raise the *original* type — parallel and
                # sequential execution must fail identically — along with
                # the formatted worker traceback for context.
                try:
                    pickle.dumps(exc)
                # repro-lint: disable=error-taxonomy -- pickling probe: any
                # failure just downgrades the reply to traceback-only
                except Exception:
                    exc = None
                reply = ("err", exc, traceback.format_exc())
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        if state is not None and hasattr(state, "close"):
            try:
                state.close()
            # repro-lint: disable=error-taxonomy -- best-effort teardown on
            # the way out of a dying worker; nothing to report to
            except Exception:  # pragma: no cover
                pass
        for arena in (in_arena, out_arena):
            if arena is not None:
                arena.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


class _WorkerHandle:
    """Parent-side bookkeeping for one pool worker."""

    def __init__(self, process, conn, in_arena, out_arena) -> None:
        self.process = process
        self.conn = conn
        self.in_arena = in_arena
        self.out_arena = out_arena
        self.next_ticket = 0
        self.outstanding = 0


class ProcessPool:
    """A small persistent pool of warm worker processes.

    Parameters
    ----------
    num_workers:
        Pool width.
    state_factory:
        Module-level class (picklable by reference, spawn-safe) constructed
        once per worker as ``state_factory(*init_args)``; its ``handle``
        method serves every control message.
    init_args:
        Arguments for the factory; must be picklable under every start
        method.
    worker_args:
        Optional per-worker argument tuples, one per worker, appended after
        *init_args* — ``state_factory(*init_args, *worker_args[i])`` for
        worker ``i``.  This is how the ranked tier tells each worker which
        rank it is while sharing the rest of the configuration.
    slot_bytes:
        Size of one shared-memory payload slot; ``0`` disables the arenas
        (all payloads ride the pipe inline).
    start_method:
        ``"fork"``, ``"spawn"``, ``"forkserver"`` or ``None`` for the
        platform default.
    fault_policy:
        Optional :class:`~repro.resilience.FaultPolicy` of the owning run.
        The pool itself never retries — recovery belongs to its owner —
        but the policy gates probabilistic chaos injection: chaos kills are
        only armed when the policy can survive them (``max_retries > 0``).
        Targeted fault-plan injections are always armed.
    """

    def __init__(
        self,
        num_workers: int,
        state_factory,
        init_args: tuple = (),
        *,
        worker_args: list[tuple] | None = None,
        slot_bytes: int = 0,
        start_method: str | None = None,
        fault_policy=None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if worker_args is not None and len(worker_args) != num_workers:
            raise ValueError(
                f"worker_args has {len(worker_args)} entries for "
                f"{num_workers} workers"
            )
        # Everything a dead worker's replacement needs is kept around, so
        # respawn_worker() can rebuild the warm state from scratch.
        self._context = get_context(start_method)
        self._state_factory = state_factory
        self._init_args = init_args
        self._worker_args = worker_args
        self._slot_bytes = slot_bytes
        from ..resilience import faults as _faults

        chaos_allowed = bool(
            fault_policy is not None and fault_policy.max_retries > 0
        )
        self._faults = _faults.arm_for_pool(
            getattr(state_factory, "POOL_KIND", "task"),
            num_workers,
            chaos_allowed,
        )
        self._workers: list[_WorkerHandle] = []
        _LIVE_POOLS.add(self)
        try:
            for worker_index in range(num_workers):
                self._workers.append(self._spawn_worker(worker_index))
        except BaseException:
            self.close()
            raise

    def _spawn_worker(
        self,
        worker_index: int,
        in_arena: SlotArena | None = None,
        out_arena: SlotArena | None = None,
    ) -> _WorkerHandle:
        """Start one worker process; arenas are created unless handed in
        (respawn reuses the dead worker's segments)."""

        created: list[SlotArena] = []
        try:
            if self._slot_bytes and in_arena is None:
                in_arena = SlotArena(
                    slots=SLOTS_PER_WORKER, slot_bytes=self._slot_bytes
                )
                created.append(in_arena)
            if self._slot_bytes and out_arena is None:
                out_arena = SlotArena(
                    slots=SLOTS_PER_WORKER, slot_bytes=self._slot_bytes
                )
                created.append(out_arena)
            parent_conn, child_conn = self._context.Pipe()
            extra = (
                self._worker_args[worker_index] if self._worker_args else ()
            )
            process = self._context.Process(
                target=_pool_worker_main,
                args=(
                    child_conn,
                    self._state_factory,
                    self._init_args + tuple(extra),
                    in_arena.name if in_arena else None,
                    out_arena.name if out_arena else None,
                    SLOTS_PER_WORKER,
                    self._slot_bytes,
                ),
                # Not daemonic: circuit-fanout workers may themselves
                # run the ranked tier, and daemons cannot have
                # children.  Workers exit on pipe EOF, so they never
                # outlive the parent's handles.
                daemon=False,
            )
            process.start()
        except BaseException:
            # Arenas created here are not yet owned by a _WorkerHandle, so
            # the caller's cleanup would leak them (shm stays mapped and
            # linked until interpreter exit).
            for arena in created:
                arena.close()
            raise
        child_conn.close()
        return _WorkerHandle(process, parent_conn, in_arena, out_arena)

    @property
    def num_workers(self) -> int:
        """Live pool width."""

        return len(self._workers)

    # -- dispatch ---------------------------------------------------------------------

    def submit(self, worker_id: int, message: tuple, payloads: list[bytes] = ()) -> int:
        """Send *message* (plus slot payloads) to a worker; returns the ticket.

        ``payloads`` are written into the worker's input slot for this ticket
        and their frame references appended to the message.  The caller must
        keep at most :data:`SLOTS_PER_WORKER` tickets outstanding per worker
        (enforced here) and must fully consume each response before
        submitting the ticket that reuses its slot.
        """

        worker = self._workers[worker_id]
        if worker.outstanding >= SLOTS_PER_WORKER:
            raise errors.PoolProtocolError(
                f"worker {worker_id} already has {worker.outstanding} outstanding "
                f"tasks (cap {SLOTS_PER_WORKER}); collect a response first",
                worker_id=worker_id,
                op="submit",
            )
        if self._faults is not None:
            victim = self._faults.on_submit(worker_id, message[0])
            if victim is not None:
                self._inject_kill(victim)
        ticket = worker.next_ticket
        worker.next_ticket += 1
        frames = _pack_frames(
            worker.in_arena, ticket % SLOTS_PER_WORKER, list(payloads)
        )
        try:
            worker.conn.send(message + (ticket, frames))
        except (BrokenPipeError, OSError) as exc:
            raise self._crash_error(worker_id) from exc
        worker.outstanding += 1
        return ticket

    def _inject_kill(self, worker_id: int) -> None:
        """Kill a worker on behalf of an armed fault plan (SIGKILL, reaped).

        The join makes the death visible before the triggering submission
        proceeds, so injected crashes surface deterministically instead of
        racing the pipe.
        """

        process = self._workers[worker_id].process
        if process.is_alive():
            process.kill()
            process.join(timeout=10.0)

    def read_frame(self, worker_id: int, ref: tuple) -> bytes:
        """Materialise an output frame reference returned by a worker.

        Shared-memory frames are checksum-verified; a mismatch raises
        :class:`~repro.errors.BlockCorruptionError` carrying the worker id.
        """

        worker = self._workers[worker_id]
        if (
            self._faults is not None
            and ref is not None
            and ref[0] == "shm"
            and worker.out_arena is not None
            and self._faults.on_read_frame(worker_id)
        ):
            worker.out_arena.corrupt(ref)
        return _read_frame(worker.out_arena, ref, worker_id=worker_id)

    def can_submit(self, worker_id: int) -> bool:
        """Whether the worker has a free outstanding-task slot."""

        return self._workers[worker_id].outstanding < SLOTS_PER_WORKER

    def has_outstanding(self) -> bool:
        """Whether any worker still owes a response."""

        return any(worker.outstanding for worker in self._workers)

    def recv_any(self, timeout: float | None = None) -> tuple[int, tuple]:
        """Next ``(worker_id, reply)`` from any worker with outstanding work.

        Raises :class:`WorkerCrashedError` promptly — instead of hanging —
        when a worker with outstanding tasks dies (pipe EOF or a failed
        liveness probe).  A healthy worker may legitimately compute for
        minutes on a large block, so there is no default deadline; pass
        *timeout* (seconds) to additionally bound the wait, e.g. in tests.
        """

        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            waiting = {
                worker.conn: worker_id
                for worker_id, worker in enumerate(self._workers)
                if worker.outstanding
            }
            if not waiting:
                raise errors.PoolProtocolError(
                    "recv_any() called with no outstanding tasks", op="recv_any"
                )
            ready = mp_connection.wait(list(waiting), timeout=0.2)
            for conn in ready:
                worker_id = waiting[conn]
                try:
                    reply = conn.recv()
                except (EOFError, OSError) as exc:
                    raise self._crash_error(worker_id) from exc
                self._workers[worker_id].outstanding -= 1
                return worker_id, reply
            for worker_id, worker in enumerate(self._workers):
                if worker.outstanding and not worker.process.is_alive():
                    raise self._crash_error(worker_id)
            if deadline is not None and time.monotonic() > deadline:
                raise errors.WorkerCrashedError(
                    f"no pool worker answered within {timeout:.0f}s "
                    f"({sum(w.outstanding for w in self._workers)} tasks outstanding)"
                )

    def broadcast(self, message: tuple) -> list[tuple]:
        """Send *message* to every worker and collect one reply from each."""

        replies = []
        for worker_id in range(len(self._workers)):
            self.submit(worker_id, message)
        for _ in range(len(self._workers)):
            _, reply = self.recv_any()
            replies.append(reply)
        return replies

    def worker_pid(self, worker_id: int) -> int:
        """PID of a worker process (test/diagnostic hook)."""

        return self._workers[worker_id].process.pid

    def _crash_error(self, worker_id: int) -> errors.WorkerCrashedError:
        worker = self._workers[worker_id]
        worker.process.join(timeout=1.0)
        exitcode = worker.process.exitcode
        return errors.WorkerCrashedError(
            f"pool worker {worker_id} (pid {worker.process.pid}) died "
            "mid-plan; the in-flight wave must be replayed (or the "
            "simulator rebuilt) to continue",
            worker_id=worker_id,
            pid=worker.process.pid,
            exitcode=exitcode,
        )

    # -- self-healing -----------------------------------------------------------------

    def worker_alive(self, worker_id: int) -> bool:
        """Whether a worker's process is currently alive."""

        return self._workers[worker_id].process.is_alive()

    def dead_workers(self) -> list[int]:
        """Ids of all workers whose processes have died."""

        return [
            worker_id
            for worker_id, worker in enumerate(self._workers)
            if not worker.process.is_alive()
        ]

    def abandon_outstanding(self, worker_id: int) -> int:
        """Forget a dead worker's outstanding tickets; returns how many.

        After this, :meth:`recv_any`/:meth:`has_outstanding` no longer wait
        on the corpse — the caller owns re-dispatching the abandoned work
        (it knows which tasks the tickets carried; the pool does not).
        """

        worker = self._workers[worker_id]
        abandoned = worker.outstanding
        worker.outstanding = 0
        return abandoned

    def respawn_worker(self, worker_id: int) -> None:
        """Replace a dead worker with a fresh process in the same seat.

        The replacement rebuilds its warm state (decompressor map, scratch
        buffers, cache shard) from the original factory arguments and reuses
        the dead worker's shared-memory arenas, so callers keep their
        worker-id routing and frame references unchanged.  Any outstanding
        tickets of the old worker are dropped — abandon and re-dispatch them
        first.
        """

        old = self._workers[worker_id]
        if old.process.is_alive():
            old.process.kill()
        old.process.join(timeout=10.0)
        try:
            old.conn.close()
        except OSError:  # pragma: no cover
            pass
        self._workers[worker_id] = self._spawn_worker(
            worker_id, in_arena=old.in_arena, out_arena=old.out_arena
        )

    def heal(self) -> list[int]:
        """Respawn every dead worker; returns the respawned ids.

        Outstanding tickets of each corpse are abandoned as part of healing
        (their replies can never arrive); the caller re-dispatches that work.
        """

        respawned = []
        for worker_id in self.dead_workers():
            self.abandon_outstanding(worker_id)
            self.respawn_worker(worker_id)
            respawned.append(worker_id)
        return respawned

    # -- lifecycle --------------------------------------------------------------------

    def close(self, join_timeout: float = 3.0) -> None:
        """Shut every worker down (idempotent).

        Teardown is bounded: a graceful join of *join_timeout* seconds, then
        SIGTERM, then SIGKILL — a wedged child can never block interpreter
        exit, and every worker is reaped (no zombies) before the arenas are
        unlinked.
        """

        _LIVE_POOLS.discard(self)
        workers, self._workers = self._workers, []
        for worker in workers:
            try:
                worker.conn.send(_SHUTDOWN)
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            worker.process.join(timeout=join_timeout)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            if worker.process.is_alive():  # pragma: no cover - wedged worker
                worker.process.kill()
                worker.process.join(timeout=5.0)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
            for arena in (worker.in_arena, worker.out_arena):
                if arena is not None:
                    arena.close()

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def block_slot_bytes(block_amplitudes: int) -> int:
    """Input/output slot size for block-task transport.

    A task moves at most two blobs, each bounded in practice by the
    uncompressed block size plus codec overhead; pathological blobs (e.g.
    all-subnormal exception streams) simply take the inline fallback.
    """

    return 2 * (16 * int(block_amplitudes) + 16384)

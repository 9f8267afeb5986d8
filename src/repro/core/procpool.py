"""Persistent process pool: warm workers, one control pipe each.

Threads in one process only scale where the hot loop drops the GIL, and
the table-driven codec path does not (NumPy fancy-index gathers hold it), so
parallel work here runs in a pool of *processes*, each holding warm state
initialised once and fed through one pipe per worker: ``submit`` sends the
message tuple as given and ``recv_any`` returns the reply as the worker sent
it, compressed blobs included.  A pipe delivers in order, so replies need no
tickets.

Two worker kinds build on :class:`ProcessPool`: the rank workers of
:mod:`repro.distributed.ranked` (one process per rank, each owning its slice
of the compressed state — the only process-parallel mechanism for a single
circuit; their rank↔rank block exchange rides socket pairs handed to them
through ``worker_args``, see :mod:`repro.distributed.process_comm`) and the
circuit-fanout workers of :mod:`repro.backends.parallel`, which run whole
circuits on a warm per-process backend session.

Flow control is a cap: the caller never keeps more than
:data:`MAX_OUTSTANDING` requests unanswered per worker, which bounds the pipe
backlog so a worker busy computing never deadlocks the dispatch loop.
"""

from __future__ import annotations

import logging
import os
import pickle
import time
import traceback
import weakref

from .. import errors
from ..resilience import faults

__all__ = [
    "ProcessPool",
    "effective_cpu_count",
    "live_pool_count",
    "MAX_OUTSTANDING",
]

logger = logging.getLogger(__name__)

#: Unanswered requests allowed per worker.  Two keeps a worker busy while the
#: parent processes its previous reply without letting the pipe back up.
MAX_OUTSTANDING = 2

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


def _release(process) -> None:
    """Close a reaped worker's process handle, which holds the descriptors of
    its sentinel pipe.  Without this they live as long as the handle does,
    and a :class:`WorkerCrashedError` traceback a caller keeps holds the
    handle until the cyclic garbage collector runs."""

    if process.exitcode is not None:
        process.close()


# ---------------------------------------------------------------------------
# Worker main loop
# ---------------------------------------------------------------------------


def _pool_worker_main(conn, state_factory, init_args: tuple) -> None:
    """Entry point of every pool worker process.

    Builds the warm worker state once, then serves control messages until
    the shutdown sentinel arrives or the parent's end of the pipe closes.
    A crash inside a handler is reported, not fatal: the traceback travels
    back as an ``("err", ...)`` reply so the parent can raise it with
    context.
    """

    state = None
    try:
        state = state_factory(*init_args)
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
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


class _WorkerHandle:
    """Parent-side bookkeeping for one pool worker."""

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
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
    start_method:
        ``"fork"``, ``"spawn"``, ``"forkserver"`` or ``None`` for the
        platform default.
    chaos_kills:
        Whether an active fault plan's chaos mode may kill a worker of this
        pool.  The pool itself never retries — recovery belongs to its
        owner — so only an owner that re-dispatches a dead worker's work
        sets it.  Targeted fault-plan injections are always armed.
    """

    def __init__(
        self,
        num_workers: int,
        state_factory,
        init_args: tuple = (),
        *,
        worker_args: list[tuple] | None = None,
        start_method: str | None = None,
        chaos_kills: bool = False,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if worker_args is not None and len(worker_args) != num_workers:
            raise ValueError(
                f"worker_args has {len(worker_args)} entries for "
                f"{num_workers} workers"
            )
        # Imported with the first pool, not with repro: multiprocessing's
        # connection module loads tempfile, and with it shutil, lzma and bz2.
        from multiprocessing import connection, get_context

        self._wait = connection.wait
        # Everything a dead worker's replacement needs is kept around, so
        # heal() can rebuild the warm state from scratch.
        self._context = get_context(start_method)
        self._state_factory = state_factory
        self._init_args = init_args
        self._worker_args = worker_args
        self._faults = faults.arm_for_pool(num_workers, chaos_kills)
        self._workers: list[_WorkerHandle] = []
        _LIVE_POOLS.add(self)
        try:
            for worker_index in range(num_workers):
                self._workers.append(self._spawn_worker(worker_index))
        except BaseException:
            self.close()
            raise

    def _spawn_worker(self, worker_index: int) -> _WorkerHandle:
        """Start one worker process on a fresh control pipe."""

        parent_conn, child_conn = self._context.Pipe()
        extra = self._worker_args[worker_index] if self._worker_args else ()
        process = self._context.Process(
            target=_pool_worker_main,
            args=(child_conn, self._state_factory, self._init_args + tuple(extra)),
            # Not daemonic: circuit-fanout workers may themselves run the
            # ranked tier, and daemons cannot have children.  Workers exit
            # on pipe EOF, so they never outlive the parent's handles.
            daemon=False,
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(process, parent_conn)

    @property
    def num_workers(self) -> int:
        """Live pool width."""

        return len(self._workers)

    # -- dispatch ---------------------------------------------------------------------

    def submit(self, worker_id: int, message: tuple) -> None:
        """Send *message* to a worker exactly as given.

        The caller must keep at most :data:`MAX_OUTSTANDING` requests
        unanswered per worker (enforced here); replies come back through
        :meth:`recv_any` in submission order per worker.
        """

        worker = self._workers[worker_id]
        if worker.outstanding >= MAX_OUTSTANDING:
            raise errors.PoolProtocolError(
                f"worker {worker_id} already has {worker.outstanding} outstanding "
                f"tasks (cap {MAX_OUTSTANDING}); collect a response first",
                worker_id=worker_id,
                op="submit",
            )
        if self._faults is not None:
            victim = self._faults.on_submit(worker_id, message[0])
            if victim is not None:
                self._inject_kill(victim)
        try:
            worker.conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise self._crash_error(worker_id) from exc
        worker.outstanding += 1

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

    def can_submit(self, worker_id: int) -> bool:
        """Whether the worker is below its outstanding-request cap."""

        return self._workers[worker_id].outstanding < MAX_OUTSTANDING

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
            ready = self._wait(list(waiting), timeout=0.2)
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

    def heal(self) -> list[int]:
        """Respawn every dead worker in its seat; returns the respawned ids.

        Each replacement rebuilds its warm state from the original factory
        arguments on a fresh pipe, so callers keep their worker-id routing.
        The corpse's outstanding requests are forgotten as part of healing
        (their replies can never arrive); the caller re-dispatches that work
        — it knows what the requests carried, the pool does not.
        """

        respawned = []
        for worker_id, old in enumerate(self._workers):
            if old.process.is_alive():
                continue
            old.process.join(timeout=10.0)
            try:
                old.conn.close()
            except OSError:  # pragma: no cover
                pass
            self._workers[worker_id] = self._spawn_worker(worker_id)
            logger.warning(
                "respawned pool worker %d: pid %d died with exit code %s",
                worker_id,
                old.process.pid,
                old.process.exitcode,
            )
            _release(old.process)
            respawned.append(worker_id)
        return respawned

    # -- lifecycle --------------------------------------------------------------------

    def close(self, join_timeout: float = 3.0) -> None:
        """Shut every worker down (idempotent).

        Teardown is bounded: a graceful join of *join_timeout* seconds, then
        SIGTERM, then SIGKILL — a wedged child can never block interpreter
        exit, and every worker is reaped (no zombies).
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
            _release(worker.process)

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


"""The long-lived simulation service: warm sessions behind a fair queue.

:class:`SimulationService` is the asyncio front door over the blocking
engine layers.  It owns warm :mod:`repro.backends` sessions (one per
distinct :class:`~repro.core.config.SimulatorConfig`, so every job with the
same config reuses the same leased simulators and any process pools they
spun up), pulls jobs off a :class:`~repro.serve.queue.FairScheduler` with a
small pool of worker coroutines, and executes each circuit *gate-stepped*:
chunks of schedule elements are applied between ``await`` points, so progress
events, cancellation and checkpoint-based suspension all happen at
deterministic gate boundaries rather than wall-clock ones.

Determinism contract (pinned by ``tests/test_serve.py``): a job executed by
the service is **bit-identical** to ``repro.run(circuit, shots=...,
seed=...)`` with the same ingredients.  The service replays the exact
single-circuit seed ladder (``SeedSequence(seed).spawn(1)[0]``), reuses the
same fusion pass (:meth:`~repro.core.simulator.CompressedSimulator.prepare_gates`)
and the same result packaging (:func:`~repro.backends.compressed._package_result`),
so the only differences are measured wall-clock metadata and the service's
own ``metadata["serve"]`` annotation — exactly the fields
:meth:`~repro.backends.result.Result.canonical_json` strips.  That contract
is what makes the content-addressed cache sound: a hit *is* the cold run.

Results of resumed jobs (and of jobs that recovered from an injected
worker crash) are canonically equal but not field-identical to a cold run
(their report counters reflect the partial replay), so they are served to
their caller and deliberately **not** written to the cache.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from ..backends import get_backend
from ..backends.base import validate_request
from ..backends.compressed import _package_result
from ..backends.observables import PauliObservable
from ..backends.result import Result
from ..circuits import QuantumCircuit
from ..core.checkpoint import resume_from_checkpoint, save_checkpoint
from ..core.config import SimulatorConfig
from ..errors import JobCancelledError, ServiceClosedError
from .cache import ResultCache, cache_key
from .events import EventStream, JobEvent
from .queue import FairScheduler

__all__ = ["Job", "ServiceConfig", "SimulationService"]

#: Job states a job can never leave.
TERMINAL_STATES = ("completed", "failed", "cancelled")


class _SuspendMarker(Exception):
    """Internal control-flow marker: the job checkpointed and parked."""

    def __init__(self, payload: dict) -> None:
        super().__init__("job suspended")
        self.payload = payload


@dataclass
class ServiceConfig:
    """Tuning knobs of one :class:`SimulationService`.

    Attributes
    ----------
    simulator_config:
        Default :class:`~repro.core.config.SimulatorConfig` for jobs that do
        not carry their own; ``None`` uses the engine default.
    workers:
        Worker coroutines pulling from the fair queue.  ``0`` is allowed —
        jobs are admitted but never dispatched — which is how the tests
        exercise backpressure without races.
    max_pending_per_tenant / max_pending_total:
        Bounded-queue admission limits; past either, ``submit`` raises
        :class:`~repro.errors.ServiceOverloadedError`.
    cache_entries:
        LRU capacity of the content-addressed result cache.
    progress_interval:
        Fused gates applied between await points — the granularity of
        progress events, cancellation and suspension.
    checkpoint_dir:
        Directory for suspend checkpoints; ``None`` uses a service-owned
        temporary directory removed at :meth:`SimulationService.close`.
    clock:
        Timestamp source for events and wall-clock metadata; monotonic
        domain.  The test harness injects a fake clock here, which makes
        every event history byte-reproducible.
    """

    simulator_config: SimulatorConfig | None = None
    workers: int = 1
    max_pending_per_tenant: int = 64
    max_pending_total: int = 256
    cache_entries: int = 256
    progress_interval: int = 8
    checkpoint_dir: str | None = None
    clock: Callable[[], float] = time.monotonic

    def __post_init__(self) -> None:
        """Validate knob ranges (fail at construction, not mid-serve)."""

        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.progress_interval < 1:
            raise ValueError("progress_interval must be >= 1")
        if self.cache_entries < 1:
            raise ValueError("cache_entries must be >= 1")


class Job:
    """One submitted simulation request and its lifecycle state.

    Await the job (``result = await job``) for its
    :class:`~repro.backends.result.Result`; awaiting raises the job's typed
    error if it failed or was cancelled.  ``job.events`` is the live
    :class:`~repro.serve.events.EventStream`.
    """

    def __init__(
        self,
        *,
        job_id: str,
        tenant: str,
        circuit: QuantumCircuit,
        shots: int,
        seed: int | None,
        observables: tuple[PauliObservable, ...],
        return_statevector: bool,
        priority: int,
        simulator_config: SimulatorConfig | None,
    ) -> None:
        self.id = job_id
        self.tenant = tenant
        self.circuit = circuit
        self.shots = shots
        self.seed = seed
        self.observables = observables
        self.return_statevector = return_statevector
        self.priority = priority
        self.simulator_config = simulator_config
        #: ``pending`` → ``running`` → terminal, with a ``suspended`` →
        #: ``pending`` loop when the job is checkpoint-parked and resumed.
        self.state = "pending"
        self.events = EventStream()
        self.future: asyncio.Future = asyncio.get_running_loop().create_future()
        # A caller may fire-and-forget a job and read only its events;
        # retrieving the exception in the callback keeps asyncio's
        # "exception was never retrieved" warning out of such runs.
        self.future.add_done_callback(
            lambda f: None if f.cancelled() else f.exception()
        )
        self.cache_hit = False
        self.was_resumed = False
        self.gates_done = 0
        self.gates_total: int | None = None
        self._cancel_requested = False
        self._suspend_requested = False
        self._cache_key: str | None = None
        self._checkpoint_path: Path | None = None
        self._gates: list | None = None
        self._next_gate = 0

    def done(self) -> bool:
        """Whether the job reached a terminal state."""

        return self.future.done()

    def result(self) -> Result:
        """The finished job's result (raises if pending, failed, cancelled)."""

        return self.future.result()

    def __await__(self):
        """``await job`` delegates to the job's future."""

        return self.future.__await__()

    def __repr__(self) -> str:
        return f"Job({self.id!r}, tenant={self.tenant!r}, state={self.state!r})"


class SimulationService:
    """Long-lived asyncio service over warm simulator sessions.

    Lifecycle: construct → ``await start()`` → ``submit`` jobs (from within
    the event loop) → optionally ``await drain()`` → ``await close()``.
    ``close`` is the only teardown: it stops the workers, cancels whatever
    is still queued or suspended, closes every backend session (returning
    their process pools) and removes the service's checkpoint directory.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self._config = config or ServiceConfig()
        self._backend = get_backend("compressed")
        self._clock = self._config.clock
        self._scheduler = FairScheduler(
            max_pending_per_tenant=self._config.max_pending_per_tenant,
            max_pending_total=self._config.max_pending_total,
        )
        self._cache = ResultCache(self._config.cache_entries)
        self._jobs: dict[str, Job] = {}
        #: ``(config-or-None, session)`` pairs — SimulatorConfig is not
        #: hashable, so session lookup is an equality scan (the config
        #: population is tiny: one per distinct tenant tier).
        self._sessions: list[tuple[SimulatorConfig | None, object]] = []
        self._worker_tasks: list[asyncio.Task] = []
        self._wake: asyncio.Event | None = None
        self._idle: asyncio.Event | None = None
        self._state = "new"
        self._seq = 0
        self._running = 0
        self._dispatch_order: list[str] = []
        self._checkpoint_root: Path | None = None
        self._owns_checkpoint_root = False

    # -- lifecycle -------------------------------------------------------------------

    @property
    def state(self) -> str:
        """``new`` / ``running`` / ``draining`` / ``closing`` / ``closed``."""

        return self._state

    async def start(self) -> None:
        """Spin up the worker coroutines and open for submissions."""

        if self._state != "new":
            raise ServiceClosedError(
                "service can only be started once", state=self._state
            )
        self._wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._state = "running"
        for index in range(self._config.workers):
            task = asyncio.get_running_loop().create_task(
                self._worker(), name=f"repro-serve-worker-{index}"
            )
            self._worker_tasks.append(task)

    async def drain(self) -> None:
        """Stop intake and wait until queued + running work is finished.

        Suspended jobs are parked, not pending, so drain does not wait for
        them — resume or close them explicitly.  With ``workers=0`` drain
        only returns once the queue is empty (i.e. immediately or never),
        so cancel pending jobs first in that configuration.
        """

        if self._state == "running":
            self._state = "draining"
        while True:
            self._idle.clear()
            if self._scheduler.pending() == 0 and self._running == 0:
                return
            await self._idle.wait()

    async def close(self) -> None:
        """Stop workers, cancel leftover jobs, release every resource.

        Safe to call twice.  After close, every session (and any process
        pool a session's simulators owned) is closed, the checkpoint
        directory is gone if service-owned, and no service task is alive.
        """

        if self._state == "closed":
            return
        self._state = "closing"
        if self._wake is not None:
            self._wake.set()
        if self._worker_tasks:
            await asyncio.gather(*self._worker_tasks)
            self._worker_tasks.clear()
        for job in self._jobs.values():
            if job.state in TERMINAL_STATES:
                continue
            self._discard_checkpoint(job)
            self._finish(
                job,
                "cancelled",
                error=JobCancelledError(
                    "service closed",
                    job_id=job.id,
                    tenant=job.tenant,
                    gates_done=job.gates_done,
                ),
            )
        for _config, session in self._sessions:
            self._backend._close_session(session)
        self._sessions.clear()
        if self._owns_checkpoint_root and self._checkpoint_root is not None:
            shutil.rmtree(self._checkpoint_root, ignore_errors=True)
        self._checkpoint_root = None
        self._state = "closed"

    # -- submission ------------------------------------------------------------------

    def register_tenant(self, tenant: str, weight: int = 1) -> None:
        """Register *tenant* with a fair-share *weight* ahead of submission."""

        self._scheduler.register(tenant, weight)

    def submit(
        self,
        circuit: QuantumCircuit,
        *,
        tenant: str,
        shots: int = 0,
        observables: PauliObservable | Iterable[PauliObservable] | None = None,
        seed: int | None = None,
        return_statevector: bool = False,
        priority: int = 0,
        simulator_config: SimulatorConfig | None = None,
        weight: int | None = None,
    ) -> Job:
        """Admit one request to *tenant*'s queue and return its :class:`Job`.

        Validation is :func:`repro.backends.base.validate_request`, the
        check :meth:`repro.backends.base.Backend.run` makes, so a request the
        service accepts is a request the engine would accept.  An unknown
        tenant is auto-registered with *weight* (default 1).  Raises
        :class:`~repro.errors.ServiceClosedError` unless the service is
        running, and :class:`~repro.errors.ServiceOverloadedError` when
        either queue bound is hit — a rejected submission leaves no trace.
        """

        if self._state != "running":
            raise ServiceClosedError(
                "service is not accepting jobs",
                tenant=tenant,
                state=self._state,
            )
        observable_list = validate_request(
            (circuit,), shots=shots, observables=observables
        )
        if tenant not in self._scheduler.tenants():
            self._scheduler.register(tenant, 1 if weight is None else weight)
        elif weight is not None and weight != self._scheduler.weight_of(tenant):
            raise ValueError(
                f"tenant {tenant!r} is registered with weight "
                f"{self._scheduler.weight_of(tenant)}, cannot submit with "
                f"weight {weight}"
            )
        job = Job(
            job_id=f"job-{self._seq:06d}",
            tenant=tenant,
            circuit=circuit,
            shots=int(shots),
            seed=seed,
            observables=observable_list,
            return_statevector=bool(return_statevector),
            priority=int(priority),
            simulator_config=simulator_config,
        )
        self._scheduler.submit(tenant, job, priority=job.priority)
        self._seq += 1
        self._jobs[job.id] = job
        self._emit(job, "queued", {"priority": job.priority})
        self._wake.set()
        return job

    # -- control ---------------------------------------------------------------------

    def job(self, job_id: str) -> Job:
        """Look up a job by id (raises ``KeyError`` for unknown ids)."""

        return self._jobs[job_id]

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; returns False when it already reached a terminal state.

        A pending or suspended job is cancelled immediately (its future
        raises :class:`~repro.errors.JobCancelledError`); a running job is
        flagged and stops at the next gate-chunk boundary.
        """

        job = self._jobs[job_id]
        if job.state in TERMINAL_STATES:
            return False
        job._cancel_requested = True
        if job.state == "running":
            return True
        self._discard_checkpoint(job)
        self._finish(
            job,
            "cancelled",
            error=JobCancelledError(
                "job cancelled",
                job_id=job.id,
                tenant=job.tenant,
                gates_done=job.gates_done,
            ),
        )
        return True

    def suspend(self, job_id: str) -> bool:
        """Request checkpoint-suspension of a *running* job.

        Returns True when the request was accepted; the job checkpoints and
        parks at its next gate-chunk boundary (emitting ``suspended``), or
        completes normally if it was already past its last chunk.  Jobs in
        any other state return False.
        """

        job = self._jobs[job_id]
        if job.state != "running":
            return False
        job._suspend_requested = True
        return True

    def resume(self, job_id: str) -> Job:
        """Re-enqueue a suspended job; it continues from its checkpoint.

        The resumed job goes through the same fair queue as new work (its
        original priority applies) and counts against the same bounds, so
        a resume can raise :class:`~repro.errors.ServiceOverloadedError`;
        the job then stays suspended.
        """

        job = self._jobs[job_id]
        if job.state != "suspended":
            raise ValueError(
                f"job {job_id!r} is {job.state!r}, only suspended jobs resume"
            )
        if self._state not in ("running", "draining"):
            raise ServiceClosedError(
                "service is not accepting jobs",
                job_id=job.id,
                tenant=job.tenant,
                state=self._state,
            )
        job._suspend_requested = False
        job.state = "pending"
        try:
            self._scheduler.submit(job.tenant, job, priority=job.priority)
        except Exception:
            job.state = "suspended"
            raise
        self._wake.set()
        return job

    # -- introspection ---------------------------------------------------------------

    def stats(self) -> dict:
        """Service-level counters: job states, tenant shares, cache stats."""

        by_state = Counter(job.state for job in self._jobs.values())
        return {
            "state": self._state,
            "jobs": dict(by_state),
            "dispatched": len(self._dispatch_order),
            "tenants": self._scheduler.snapshot(),
            "cache": self._cache.stats(),
        }

    def dispatch_order(self) -> tuple[str, ...]:
        """Tenant names in the order their jobs were dispatched.

        The fairness assertions in the tests and the soak harness are
        written against this log: while every tenant is backlogged, any
        window of ``sum(weights)`` consecutive entries contains exactly
        ``weight`` entries per tenant.
        """

        return tuple(self._dispatch_order)

    # -- worker loop -----------------------------------------------------------------

    async def _worker(self) -> None:
        """One worker coroutine: pop under DRR, execute, park when idle."""

        while True:
            if self._state in ("closing", "closed"):
                return
            job = self._scheduler.next_job()
            if job is None:
                self._wake.clear()
                self._signal_if_quiet()
                if self._scheduler.pending() == 0 and self._state not in (
                    "closing",
                    "closed",
                ):
                    await self._wake.wait()
                continue
            if job.state != "pending":
                # Cancelled while queued; the terminal event already fired.
                continue
            self._running += 1
            try:
                await self._run_job(job)
            finally:
                self._running -= 1
                self._signal_if_quiet()

    def _signal_if_quiet(self) -> None:
        """Wake :meth:`drain` when no work is queued or in flight."""

        if self._scheduler.pending() == 0 and self._running == 0:
            if self._idle is not None:
                self._idle.set()

    async def _run_job(self, job: Job) -> None:
        """Execute one claimed job, routing every outcome to its future."""

        job.state = "running"
        self._dispatch_order.append(job.tenant)
        try:
            await self._execute_job(job)
        except _SuspendMarker as marker:
            job.state = "suspended"
            self._emit(job, "suspended", marker.payload)
        except JobCancelledError as error:
            self._finish(job, "cancelled", error=error)
        except asyncio.CancelledError:
            raise
        except Exception as error:  # repro-lint: disable=error-taxonomy -- routed to the job future and its failed event, not swallowed
            self._finish(job, "failed", error=error)

    async def _execute_job(self, job: Job) -> None:
        """Cache lookup, then gate-stepped execution on a leased simulator."""

        if job._cancel_requested:
            raise JobCancelledError(
                "job cancelled",
                job_id=job.id,
                tenant=job.tenant,
                gates_done=job.gates_done,
            )
        started = self._clock()
        session = self._session_for(job.simulator_config)
        key = None
        if not job.was_resumed and job._checkpoint_path is None:
            key = self._cache_key_for(job, session)
            payload = self._cache.get(key)
            if payload is not None:
                result = Result.from_json(payload)
                job.cache_hit = True
                result.metadata["serve"] = self._serve_annotation(job)
                self._emit(job, "cached", {"cache_key": key})
                self._finish(job, "completed", result=result)
                return
        result = await self._run_on_simulator(job, session)
        result.metadata.setdefault("seed", job.seed)
        result.metadata.setdefault("wall_seconds", self._clock() - started)
        result.metadata["serve"] = self._serve_annotation(job)
        if (
            key is not None
            and not job.was_resumed
            and result.report.get("recovery") is None
        ):
            # Resumed/recovered results are canonically equal to a cold run
            # but not field-identical (partial-replay report counters), so
            # only pristine first runs back the bit-identity contract.
            self._cache.put(key, result.to_json())
        self._finish(job, "completed", result=result)

    async def _run_on_simulator(self, job: Job, session) -> Result:
        """Apply the job's schedule elements in chunks on a leased warm simulator.

        Replays the exact single-circuit rng ladder of
        :meth:`repro.backends.base.Backend.run`, so sampled counts are
        bit-identical to ``repro.run(circuit, seed=job.seed)``.
        """

        rng = np.random.default_rng(np.random.SeedSequence(job.seed).spawn(1)[0])
        simulator = session.acquire(job.circuit.num_qubits)
        try:
            if job._checkpoint_path is not None:
                resume_from_checkpoint(simulator, job._checkpoint_path)
                self._discard_checkpoint(job)
                job.was_resumed = True
                gates = job._gates
                index = job._next_gate
                self._emit(job, "resumed", {"gate_index": index})
            else:
                gates = simulator.prepare_gates(job.circuit)
                job._gates = gates
                job.gates_total = len(gates)
                index = 0
                self._emit(job, "started", {"gates_total": len(gates)})
            interval = self._config.progress_interval
            while index < len(gates):
                chunk_end = min(index + interval, len(gates))
                for gate in gates[index:chunk_end]:
                    simulator.apply_gate(gate)
                index = chunk_end
                job.gates_done = index
                self._emit(job, "progress", self._progress_payload(job, simulator))
                # The cooperative yield: lets event followers, controllers
                # and sibling workers run between chunks.
                await asyncio.sleep(0)
                if job._cancel_requested:
                    raise JobCancelledError(
                        "job cancelled",
                        job_id=job.id,
                        tenant=job.tenant,
                        gates_done=index,
                    )
                if job._suspend_requested and index < len(gates):
                    job._suspend_requested = False
                    path = self._checkpoint_path_for(job)
                    written = save_checkpoint(simulator, path)
                    job._checkpoint_path = path
                    job._next_gate = index
                    raise _SuspendMarker(
                        {"gate_index": index, "checkpoint_bytes": written}
                    )
            return _package_result(
                self._backend.name,
                simulator,
                session,
                job.circuit,
                shots=job.shots,
                observables=job.observables,
                rng=rng,
                return_statevector=job.return_statevector,
            )
        finally:
            session.release(simulator)

    # -- helpers ---------------------------------------------------------------------

    def _session_for(self, config: SimulatorConfig | None):
        """The warm session for *config* (created on first use, then shared)."""

        for existing, session in self._sessions:
            if existing == config:
                return session
        options = {} if config is None else {"config": config}
        session = self._backend._open_session(**options)
        self._sessions.append((config, session))
        return session

    def _cache_key_for(self, job: Job, session) -> str:
        """The job's content-addressed cache key (computed once)."""

        if job._cache_key is None:
            job._cache_key = cache_key(
                job.circuit,
                backend=self._backend.name,
                config=session.config,
                shots=job.shots,
                seed=job.seed,
                observables=job.observables,
                return_statevector=job.return_statevector,
            )
        return job._cache_key

    def _serve_annotation(self, job: Job) -> dict:
        """The volatile ``metadata["serve"]`` block stamped on every result."""

        return {
            "job_id": job.id,
            "tenant": job.tenant,
            "cache_hit": job.cache_hit,
            "resumed": job.was_resumed,
        }

    def _progress_payload(self, job: Job, simulator) -> dict:
        """Report-counter snapshot carried by a ``progress`` event."""

        report = simulator.report()
        return {
            "gates_executed": job.gates_done,
            "gates_total": job.gates_total,
            "compress_calls": report.compress_calls,
            "min_compression_ratio": report.min_compression_ratio,
            "fidelity_lower_bound": report.fidelity_lower_bound,
        }

    def _checkpoint_path_for(self, job: Job) -> Path:
        """Where *job* suspends to (service checkpoint dir, lazily created)."""

        if self._checkpoint_root is None:
            if self._config.checkpoint_dir is not None:
                self._checkpoint_root = Path(self._config.checkpoint_dir)
                self._checkpoint_root.mkdir(parents=True, exist_ok=True)
            else:
                self._checkpoint_root = Path(
                    tempfile.mkdtemp(prefix="repro-serve-")
                )
                self._owns_checkpoint_root = True
        return self._checkpoint_root / f"{job.id}.qckpt"

    def _discard_checkpoint(self, job: Job) -> None:
        """Delete a job's suspend checkpoint, if any."""

        if job._checkpoint_path is not None:
            try:
                os.unlink(job._checkpoint_path)
            except OSError:
                pass  # repro-lint: disable=error-taxonomy -- best-effort cleanup of a temp checkpoint
            job._checkpoint_path = None

    def _finish(
        self,
        job: Job,
        state: str,
        *,
        result: Result | None = None,
        error: BaseException | None = None,
    ) -> None:
        """Move *job* to a terminal state: resolve its future, emit the event."""

        if job.state in TERMINAL_STATES:
            return
        job.state = state
        if not job.future.done():
            if error is not None:
                job.future.set_exception(error)
            else:
                job.future.set_result(result)
        payload: dict = {}
        if state == "completed":
            payload = {"cache_hit": job.cache_hit, "resumed": job.was_resumed}
        elif error is not None:
            payload = {"error": type(error).__name__, "message": str(error)}
        self._emit(job, state, payload)

    def _emit(self, job: Job, kind: str, payload: dict | None = None) -> None:
        """Append one event to the job's stream, stamped with the clock."""

        job.events.emit(
            JobEvent(
                kind=kind,
                job_id=job.id,
                tenant=job.tenant,
                timestamp=self._clock(),
                payload=payload or {},
            )
        )

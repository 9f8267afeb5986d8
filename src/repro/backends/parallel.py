"""Process fan-out for batched ``repro.run()`` jobs.

A batch of circuits is embarrassingly parallel — each circuit owns its rng,
its report and its final state — so ``repro.run(..., parallel="process")``
distributes the batch over a :class:`~repro.core.procpool.ProcessPool` of
warm workers.  Every worker opens one backend session at initialisation and
keeps it for its whole life, which preserves the batching contract of the
sequential path: one warm simulator per register width, reset between
circuits (:meth:`CompressedSimulator.reset`), executors and scratch pools
surviving across circuits.

Determinism is inherited, not re-derived: the parent spawns the exact same
per-circuit ``SeedSequence`` ladder as the sequential runner
(:meth:`repro.backends.Backend.run`) and ships sequence *i* with circuit
*i*, so every circuit consumes an identical rng stream wherever it runs.
Counts, expectations, statevectors and report counters are bit-identical to
sequential execution; only measured wall-clock metadata differs.
"""

from __future__ import annotations

import inspect
import logging

from ..circuits import QuantumCircuit
from .result import Result

__all__ = ["run_batch_in_processes"]

logger = logging.getLogger(__name__)


class _CircuitRunner:
    """Warm per-process state: one backend engine plus one open session."""

    def __init__(self, backend_name: str, options: dict, master_seed) -> None:
        from .base import get_backend

        self._engine = get_backend(backend_name)
        self._session = self._engine._open_session(**options)
        self._seed = master_seed

    def handle(self, message: tuple) -> tuple:
        kind = message[0]
        if kind != "circuit":
            raise ValueError(f"unknown circuit-fanout message {kind!r}")
        (
            _,
            index,
            circuit,
            shots,
            observables,
            seed_sequence,
            return_statevector,
        ) = message
        result = self._engine._run_one(
            circuit,
            self._session,
            shots=shots,
            observables=observables,
            seed=self._seed,
            seed_sequence=seed_sequence,
            return_statevector=return_statevector,
        )
        return ("ok", index, result)

    def close(self) -> None:
        self._engine._close_session(self._session)


def run_batch_in_processes(
    engine,
    batch: list[QuantumCircuit],
    *,
    shots: int,
    observables: tuple,
    seed,
    seed_sequences: list,
    return_statevector: bool,
    options: dict,
    max_parallel: int | None,
) -> list[Result]:
    """Execute *batch* across worker processes; results in input order.

    *engine* must be registered under its :attr:`Backend.name` so each
    worker can rebuild it from the registry — a process cannot inherit a
    live engine instance, only its name and session options.
    """

    from ..core.procpool import ProcessPool, effective_cpu_count, raise_worker_error
    from ..errors import WorkerCrashedError
    from ..resilience import resolve_fault_policy
    from .base import BackendError, _REGISTRY

    if not engine.name or engine.name not in _REGISTRY:
        raise BackendError(
            f"parallel='process' needs a registry-constructible backend; "
            f"{type(engine).__name__} is not registered under "
            f"{engine.name!r} (register it with @register_backend)"
        )
    # A session option the engine does not take fails here, with the
    # signature's own TypeError, instead of killing every worker it reaches.
    inspect.signature(engine._open_session).bind(**options)

    policy = resolve_fault_policy(None)
    cap = effective_cpu_count() if max_parallel is None else max_parallel
    num_workers = max(1, min(len(batch), cap))
    results: list[Result | None] = [None] * len(batch)
    with ProcessPool(
        num_workers,
        _CircuitRunner,
        init_args=(engine.name, options, seed),
        # Circuit fan-out is replay-safe (every circuit ships its own seed
        # sequence), so chaos may kill a worker whenever a retry follows.
        chaos_kills=policy.max_retries > 0,
    ) as pool:
        # Round-robin assignment keeps each worker's per-width simulators
        # warm; the outstanding cap bounds pipe backlog so a worker busy
        # computing never deadlocks the dispatch loop.
        queues: dict[int, list[tuple]] = {}
        for index, (circuit, sequence) in enumerate(zip(batch, seed_sequences)):
            message = (
                "circuit",
                index,
                circuit,
                shots,
                observables,
                sequence,
                return_statevector,
            )
            queues.setdefault(index % num_workers, []).append(message)
        # Messages submitted but not yet answered, per worker and circuit
        # index: a crashed worker's entries re-enqueue onto a respawned
        # worker when the fault policy allows retries.  Re-execution is safe
        # — each circuit carries its own seed sequence, so the retried run
        # is bit-identical.
        in_flight: dict[int, dict[int, tuple]] = {}
        outstanding = 0
        attempt = 0
        while queues or outstanding:
            try:
                for worker_id in list(queues):
                    pending = queues[worker_id]
                    while pending and pool.can_submit(worker_id):
                        message = pending[0]
                        pool.submit(worker_id, message)
                        pending.pop(0)
                        in_flight.setdefault(worker_id, {})[message[1]] = message
                        outstanding += 1
                    if not pending:
                        del queues[worker_id]
                if outstanding:
                    worker_id, reply = pool.recv_any()
                    if reply[0] == "err":
                        raise_worker_error(
                            reply,
                            f"batched circuit failed in pool worker {worker_id}",
                        )
                    outstanding -= 1
                    _, index, result = reply
                    in_flight.get(worker_id, {}).pop(index, None)
                    results[index] = result
            except WorkerCrashedError:
                if attempt >= policy.max_retries:
                    raise
                attempt += 1
                restarted = pool.heal()
                if not restarted:
                    raise  # nothing actually died — a stuck pool cannot heal
                requeued = []
                for dead_id in restarted:
                    lost = in_flight.pop(dead_id, {})
                    if lost:
                        queues.setdefault(dead_id, []).extend(lost.values())
                        outstanding -= len(lost)
                        requeued.extend(lost)
                logger.warning(
                    "circuit fan-out retry %d: respawned workers %s, "
                    "re-queued circuits %s",
                    attempt,
                    sorted(restarted),
                    sorted(requeued),
                )
    return results  # type: ignore[return-value]

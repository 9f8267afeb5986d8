"""repro.serve: a long-lived asyncio simulation service.

The engine layers run one blocking call at a time; this package keeps them
*hot* and arbitrates between competing tenants, the serving story the
ROADMAP names.  One :class:`SimulationService` owns the warm backend
sessions (and therefore any process pools the simulator configs spin up)
and fronts them with:

* a priority job queue with **per-tenant fair scheduling** — weighted
  deficit round-robin across tenant queues (:mod:`repro.serve.queue`), so a
  heavy tenant cannot starve a light one;
* a **content-addressed result cache** — a canonical hash of circuit +
  config + seed + shots + observables keyed to the cached ``Result`` JSON,
  with hit/miss/eviction statistics (:mod:`repro.serve.cache`);
* **streaming progress events** per job, sourced from the simulator's
  :class:`~repro.core.report.SimulationReport` at gate-chunk boundaries
  (:mod:`repro.serve.events`);
* **cancellation and checkpoint-based suspend/resume** of long jobs via the
  simulator checkpoints (:func:`repro.core.checkpoint.resume_from_checkpoint`);
* explicit **backpressure** — bounded queues with typed
  :class:`~repro.errors.ServiceOverloadedError` rejection and a
  drain-and-close lifecycle that leaks no tasks, simulators or worker
  processes.

Quick start::

    import asyncio, repro
    from repro.serve import ServiceConfig, SimulationService

    async def main():
        service = SimulationService(ServiceConfig())
        await service.start()
        job = service.submit(
            repro.QuantumCircuit(4).h(0).cx(0, 1), tenant="alice",
            shots=100, seed=7,
        )
        result = await job
        print(result.counts, service.stats()["cache"])
        await service.close()

    asyncio.run(main())

``tests/run_serve_soak.py`` drives a 500-job multi-tenant workload through
the service; ``docs/serve.md`` documents the fairness model, the cache-key
contract and the backpressure semantics.
"""

from __future__ import annotations

from ..errors import (
    JobCancelledError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from .cache import ResultCache, cache_key, cache_manifest
from .events import EventStream, JobEvent
from .queue import FairScheduler
from .service import Job, ServiceConfig, SimulationService

__all__ = [
    "SimulationService",
    "ServiceConfig",
    "Job",
    "FairScheduler",
    "ResultCache",
    "cache_key",
    "cache_manifest",
    "JobEvent",
    "EventStream",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceClosedError",
    "JobCancelledError",
]

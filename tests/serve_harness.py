"""Deterministic harness behind ``tests/test_serve.py`` and the CI soak.

Three ingredients keep the service tests free of sleeps and wall-clock
races:

* :class:`FakeClock` — a manually-advanced monotonic clock injected through
  ``ServiceConfig.clock``, so every event timestamp is scripted;
* :func:`workload_circuit` — a pure function of ``(tenant_index,
  job_index)``: bit-identical circuits on every call, which is what lets
  the soak check cached results against cold reruns;
* :func:`run_soak` — the scripted multi-tenant soak (N jobs, weighted
  tenants, an injected worker kill recovered mid-run) shared by the local
  test and the CI ``serve-soak`` job; it returns a JSON-ready summary the
  trend log ingests.

Everything here drives the service through its public API only.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time

import repro
from repro.core.config import SimulatorConfig
from repro.core.procpool import live_pool_count
from repro.resilience.faults import FaultPlan, KillWorker, installed_plan
from repro.serve import ServiceConfig, SimulationService


class FakeClock:
    """A monotonic clock the test advances by hand.

    The service only ever *reads* the clock (event timestamps, wall-clock
    metadata), so a fixed reading is legal; advancing between submissions
    gives events distinct, scripted timestamps.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, delta: float) -> None:
        """Move the clock forward by *delta* seconds."""

        if delta < 0:
            raise ValueError("a monotonic clock cannot go backwards")
        self.now += delta


def workload_circuit(tenant_index: int, job_index: int, num_qubits: int = 4):
    """A small, fully deterministic circuit unique to ``(tenant, job)``.

    Pure arithmetic on the indices — no RNG — so two calls with the same
    arguments build bit-identical gate matrices, the precondition for every
    cache-key and bit-identity assertion in the suite.
    """

    circuit = repro.QuantumCircuit(
        num_qubits, name=f"wl_t{tenant_index}_j{job_index}"
    )
    angle = 0.1 + 0.07 * tenant_index + 0.013 * job_index
    for qubit in range(num_qubits):
        circuit.h(qubit)
        circuit.rz(angle * (qubit + 1), qubit)
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
    circuit.rx(angle, 0)
    return circuit


def drr_reference_prefix(weights: dict[str, int], rounds: int) -> list[str]:
    """The dispatch order DRR produces while every tenant stays backlogged.

    ``rounds`` full rounds, each dispatching exactly ``weight`` jobs per
    tenant in registration order — the analytic schedule the service's
    ``dispatch_order()`` must match on its fully-backlogged prefix.
    """

    order: list[str] = []
    for _ in range(rounds):
        for tenant, weight in weights.items():
            order.extend([tenant] * weight)
    return order


def max_gap(dispatches: list[str], tenant: str) -> int:
    """Largest number of consecutive dispatches *not* going to *tenant*.

    Measured only up to *tenant*'s final dispatch (after its queue drains
    it legitimately receives nothing), so this is the starvation metric:
    a backlogged tenant's gap must stay <= sum of all weights.
    """

    positions = [i for i, name in enumerate(dispatches) if name == tenant]
    if not positions:
        return len(dispatches)
    gaps = [positions[0]]
    gaps.extend(b - a - 1 for a, b in zip(positions, positions[1:]))
    return max(gaps)


def assert_no_leaks() -> None:
    """No stray asyncio task, live process pool or child process remains."""

    tasks = [
        task
        for task in asyncio.all_tasks()
        if task is not asyncio.current_task()
    ]
    assert tasks == [], f"leaked asyncio tasks: {tasks}"
    assert live_pool_count() == 0, "leaked process pools"
    children = multiprocessing.active_children()
    assert children == [], f"leaked child processes: {children}"


#: Soak geometry: four tenants, paper-style weights, one process-tier
#: tenant that takes the injected worker kill.
SOAK_WEIGHTS = {"t0": 1, "t1": 2, "t2": 3, "t3": 4}
SOAK_PROCESS_TENANT = "t3"
SOAK_UNIQUE_THREAD = 10
SOAK_UNIQUE_PROCESS = 4
SOAK_QUBITS = 5
SOAK_SHOTS = 48


def _soak_request(tenant_index: int, job_index: int):
    """The (circuit, seed) of one soak job; repeats drive the cache."""

    tenant = list(SOAK_WEIGHTS)[tenant_index]
    unique = (
        SOAK_UNIQUE_PROCESS
        if tenant == SOAK_PROCESS_TENANT
        else SOAK_UNIQUE_THREAD
    )
    variant = job_index % unique
    return workload_circuit(tenant_index, variant, SOAK_QUBITS), 1000 + variant


async def _run_soak(num_jobs: int, kill_after: int) -> dict:
    """Submit *num_jobs* across the weighted tenants and verify everything."""

    # Qubits 3 and 4 above 8-amplitude blocks: each process-tier job is five
    # schedule elements, so the injected kill lands mid-soak.
    process_config = SimulatorConfig(
        num_ranks=2,
        block_amplitudes=8,
        num_workers=2,
        executor="process",
    )
    clock = FakeClock()
    service = SimulationService(
        ServiceConfig(
            workers=1,
            max_pending_total=num_jobs + 8,
            max_pending_per_tenant=num_jobs,
            progress_interval=8,
            clock=clock,
        )
    )
    await service.start()
    for tenant, weight in SOAK_WEIGHTS.items():
        service.register_tenant(tenant, weight)
    jobs = []
    per_tenant = num_jobs // len(SOAK_WEIGHTS)
    for tenant_index, tenant in enumerate(SOAK_WEIGHTS):
        for job_index in range(per_tenant):
            circuit, seed = _soak_request(tenant_index, job_index)
            jobs.append(
                service.submit(
                    circuit,
                    tenant=tenant,
                    shots=SOAK_SHOTS,
                    seed=seed,
                    simulator_config=(
                        process_config
                        if tenant == SOAK_PROCESS_TENANT
                        else None
                    ),
                )
            )
            clock.advance(0.001)
    plan = FaultPlan(
        injections=(KillWorker(worker=0, after=kill_after, kinds=("gate",)),)
    )
    with installed_plan(plan):
        results = await asyncio.gather(*(job.future for job in jobs))
        await service.drain()
    stats = service.stats()
    dispatch = list(service.dispatch_order())
    await service.close()
    assert_no_leaks()

    # Fairness: the fully-backlogged prefix must equal the analytic DRR
    # schedule, and no tenant may ever starve while it has work queued.
    weight_sum = sum(SOAK_WEIGHTS.values())
    full_rounds = min(
        per_tenant // weight for weight in SOAK_WEIGHTS.values()
    )
    prefix = drr_reference_prefix(SOAK_WEIGHTS, full_rounds)
    fairness_ok = dispatch[: len(prefix)] == prefix
    starvation_gaps = {
        tenant: max_gap(dispatch, tenant) for tenant in SOAK_WEIGHTS
    }
    starvation_ok = all(gap <= weight_sum for gap in starvation_gaps.values())

    # Recovery: the injected worker kill must have been healed mid-soak.
    recoveries = sum(
        1
        for result in results
        if result.report.get("recovery") is not None
    )

    # Cache bit-identity: every distinct request is rerun cold and compared
    # canonically against the (mostly cached) service answers.  The cold
    # reruns run under an *empty* installed plan so a CI chaos plan in the
    # environment cannot inject faults into the reference runs.
    mismatches = 0
    checked = 0
    seen: dict[tuple[int, int], str] = {}
    with installed_plan(FaultPlan()):
        for job_number, result in enumerate(results):
            tenant_index = job_number // per_tenant
            tenant = list(SOAK_WEIGHTS)[tenant_index]
            job_index = job_number % per_tenant
            circuit, seed = _soak_request(tenant_index, job_index)
            unique = (
                SOAK_UNIQUE_PROCESS
                if tenant == SOAK_PROCESS_TENANT
                else SOAK_UNIQUE_THREAD
            )
            request_id = (tenant_index, job_index % unique)
            if request_id not in seen:
                options = (
                    {"config": process_config}
                    if tenant == SOAK_PROCESS_TENANT
                    else {}
                )
                cold = repro.run(
                    circuit, shots=SOAK_SHOTS, seed=seed, **options
                )
                seen[request_id] = cold.canonical_json()
            checked += 1
            if result.report.get("recovery") is not None:
                # Recovered results are equivalent but carry recovery
                # counters; their counts must still match the cold run.
                cold_counts = repro.run(
                    circuit,
                    shots=SOAK_SHOTS,
                    seed=seed,
                    config=process_config,
                ).counts
                if result.counts != cold_counts:
                    mismatches += 1
                continue
            if result.canonical_json() != seen[request_id]:
                mismatches += 1

    return {
        "kind": "serve",
        "jobs": num_jobs,
        "tenants": dict(SOAK_WEIGHTS),
        "fairness_rounds_checked": full_rounds,
        "fairness_ok": fairness_ok,
        "starvation_gaps": starvation_gaps,
        "starvation_ok": starvation_ok,
        "recoveries": recoveries,
        "bit_identity_checked": checked,
        "bit_identity_mismatches": mismatches,
        "cache": stats["cache"],
        "dispatched": stats["dispatched"],
    }


def run_soak(num_jobs: int = 500, kill_after: int = 10) -> dict:
    """Run the deterministic soak and time it; returns the summary record."""

    started = time.perf_counter()
    summary = asyncio.run(_run_soak(num_jobs, kill_after))
    summary["duration_seconds"] = time.perf_counter() - started
    return summary

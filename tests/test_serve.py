"""The asyncio simulation service (``repro.serve``).

The contract under test: the service is a *pure arbiter* — fairness is
exact (weighted deficit round-robin, not statistical), cached answers are
the cold run bit for bit, suspension round-trips through a checkpoint
without changing a single sampled count, backpressure is a typed error at
a scripted threshold, and teardown leaks nothing.  Every test is
deterministic: a fake clock, scripted workloads and cooperative yields —
no sleeps, no timing assumptions.
"""

from __future__ import annotations

import asyncio
import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.backends import PauliObservable
from repro.core.config import SimulatorConfig
from repro.errors import (
    JobCancelledError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.serve import (
    FairScheduler,
    ResultCache,
    ServiceConfig,
    SimulationService,
    cache_key,
    cache_manifest,
)
from serve_harness import (
    FakeClock,
    assert_no_leaks,
    drr_reference_prefix,
    max_gap,
    run_soak,
    workload_circuit,
)


def drain(scheduler: FairScheduler) -> list:
    """Pop jobs until the scheduler is idle, returning them in order."""

    jobs = []
    while True:
        job = scheduler.next_job()
        if job is None:
            return jobs
        jobs.append(job)


class TestFairScheduler:
    def test_full_backlog_rounds_dispatch_exact_weights(self):
        weights = {"a": 1, "b": 2, "c": 3}
        scheduler = FairScheduler(max_pending_total=1000)
        for tenant, weight in weights.items():
            scheduler.register(tenant, weight)
        for tenant in weights:
            for index in range(12):
                scheduler.submit(tenant, (tenant, index))
        order = [tenant for tenant, _ in drain(scheduler)]
        # a drains after 12 rounds, b after 6, c after 4: all tenants are
        # backlogged for the first 4 full rounds.
        assert order[:24] == drr_reference_prefix(weights, 4)
        assert len(order) == 36

    def test_priority_runs_first_fifo_among_equals(self):
        scheduler = FairScheduler()
        scheduler.register("a", 4)
        scheduler.submit("a", "low-early", priority=0)
        scheduler.submit("a", "high", priority=5)
        scheduler.submit("a", "low-late", priority=0)
        assert [scheduler.next_job() for _ in range(3)] == [
            "high",
            "low-early",
            "low-late",
        ]

    def test_idle_tenant_forfeits_deficit(self):
        scheduler = FairScheduler()
        scheduler.register("idle", 3)
        scheduler.register("busy", 1)
        for index in range(6):
            scheduler.submit("busy", index)
        # Three rounds pass with "idle" empty; its deficit must not build.
        assert [scheduler.next_job() for _ in range(3)] == [0, 1, 2]
        scheduler.submit("idle", "woke")
        # A freshly backlogged tenant gets at most its weight per round —
        # it cannot burst the credit of the rounds it sat out.
        order = [scheduler.next_job() for _ in range(4)]
        assert order.count("woke") == 1

    def test_registration_contract(self):
        scheduler = FairScheduler()
        scheduler.register("a", 2)
        scheduler.register("a", 2)  # idempotent
        with pytest.raises(ValueError, match="cannot change"):
            scheduler.register("a", 3)
        with pytest.raises(ValueError):
            scheduler.register("", 1)
        with pytest.raises(ValueError):
            scheduler.register("b", 0)
        with pytest.raises(KeyError):
            scheduler.submit("unknown", object())

    def test_backpressure_raises_typed_error_and_leaves_no_trace(self):
        scheduler = FairScheduler(max_pending_per_tenant=2, max_pending_total=3)
        scheduler.register("a", 1)
        scheduler.register("b", 1)
        scheduler.submit("a", 0)
        scheduler.submit("a", 1)
        with pytest.raises(ServiceOverloadedError) as excinfo:
            scheduler.submit("a", 2)
        assert isinstance(excinfo.value, ServiceError)
        assert excinfo.value.scope == "tenant"
        assert excinfo.value.pending == 2
        assert excinfo.value.limit == 2
        scheduler.submit("b", 0)
        with pytest.raises(ServiceOverloadedError) as excinfo:
            scheduler.submit("b", 1)
        assert excinfo.value.scope == "total"
        assert excinfo.value.limit == 3
        assert scheduler.pending() == 3
        assert scheduler.snapshot()["b"]["submitted"] == 1

    def test_backpressure_rejections_are_logged(self, caplog):
        scheduler = FairScheduler(max_pending_per_tenant=1, max_pending_total=2)
        scheduler.register("a", 1)
        scheduler.register("b", 1)
        with caplog.at_level(logging.INFO, logger="repro.serve.queue"):
            scheduler.submit("a", 0)
            with pytest.raises(ServiceOverloadedError):
                scheduler.submit("a", 1)
            scheduler.submit("b", 0)
            with pytest.raises(ServiceOverloadedError):
                scheduler.submit("b", 1)
        assert [(record.levelno, record.getMessage()) for record in caplog.records] == [
            (
                logging.INFO,
                "rejected a job: tenant queue full for tenant 'a' (1 pending, limit 1)",
            ),
            (
                logging.INFO,
                "rejected a job: total queue full for tenant 'b' (2 pending, limit 2)",
            ),
        ]

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(data=st.data())
    def test_no_tenant_starves_property(self, data):
        """Seeded property: a backlogged tenant is served within one round.

        For any weight assignment and any queue depths, (a) every job is
        dispatched, (b) the fully-backlogged prefix matches the analytic
        per-round schedule exactly (completed counts equal the weight
        ratio), and (c) no backlogged tenant ever waits more than
        ``sum(weights)`` dispatches between its turns.
        """

        n = data.draw(st.integers(1, 4), label="tenants")
        weights = {
            f"t{i}": data.draw(st.integers(1, 4), label=f"w{i}")
            for i in range(n)
        }
        depths = {
            tenant: data.draw(st.integers(0, 25), label=f"depth-{tenant}")
            for tenant in weights
        }
        scheduler = FairScheduler(max_pending_total=1000)
        for tenant, weight in weights.items():
            scheduler.register(tenant, weight)
        for tenant, depth in depths.items():
            for index in range(depth):
                scheduler.submit(tenant, (tenant, index))
        order = [tenant for tenant, _ in drain(scheduler)]
        assert len(order) == sum(depths.values())
        for tenant, depth in depths.items():
            assert order.count(tenant) == depth
        full_rounds = min(
            depths[tenant] // weight for tenant, weight in weights.items()
        )
        prefix = drr_reference_prefix(weights, full_rounds)
        assert order[: len(prefix)] == prefix
        weight_sum = sum(weights.values())
        for tenant, depth in depths.items():
            if depth:
                assert max_gap(order, tenant) <= weight_sum


class TestCacheKey:
    def request(self, **overrides):
        """A baseline cache-key request, with per-test overrides."""

        request = dict(
            backend="compressed",
            config=SimulatorConfig(),
            shots=32,
            seed=7,
            observables=(),
            return_statevector=False,
        )
        request.update(overrides)
        return request

    def test_rebuilt_identical_request_shares_key(self):
        key_a = cache_key(workload_circuit(0, 0), **self.request())
        key_b = cache_key(workload_circuit(0, 0), **self.request())
        assert key_a == key_b

    def test_every_result_affecting_ingredient_misses(self):
        base = cache_key(workload_circuit(0, 0), **self.request())
        variants = {
            "seed": self.request(seed=8),
            "shots": self.request(shots=33),
            "error-bound": self.request(
                config=SimulatorConfig(error_levels=(1e-3, 1e-2))
            ),
            "observables": self.request(
                observables=(PauliObservable("Z" * 4),)
            ),
            "statevector": self.request(return_statevector=True),
            "backend": self.request(backend="dense"),
        }
        keys = {
            name: cache_key(workload_circuit(0, 0), **request)
            for name, request in variants.items()
        }
        # One mutated gate angle is a different circuit, hence a miss.
        keys["gate"] = cache_key(workload_circuit(0, 1), **self.request())
        for name, key in keys.items():
            assert key != base, f"ingredient {name} did not change the key"
        assert len(set(keys.values())) == len(keys)

    def test_throughput_knobs_share_the_key(self):
        base = cache_key(workload_circuit(0, 0), **self.request())
        for config in (
            SimulatorConfig(comm="process", executor="process"),
            SimulatorConfig(mp_start_method="spawn"),
        ):
            assert (
                cache_key(workload_circuit(0, 0), **self.request(config=config))
                == base
            )

    def test_manifest_is_canonical_json_with_exact_floats(self):
        manifest = cache_manifest(workload_circuit(1, 2), **self.request())
        payload = json.dumps(manifest, sort_keys=True)
        assert json.loads(payload) == manifest
        gate = next(g for g in manifest["circuit"]["gates"] if g["params"])
        assert all(float.fromhex(p) for p in gate["params"])
        assert manifest["config"]["error_levels"] == [
            float(level).hex() for level in SimulatorConfig().error_levels
        ]

    def test_lru_cache_stats_and_eviction(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", "1")
        cache.put("b", "2")
        assert cache.get("a") == "1"  # refreshes recency of a
        cache.put("c", "3")  # evicts b, the least recently used
        assert cache.get("b") is None
        assert cache.get("a") == "1"
        assert cache.get("c") == "3"
        stats = cache.stats()
        assert stats == {
            "entries": 2,
            "max_entries": 2,
            "hits": 3,
            "misses": 1,
            "evictions": 1,
        }


class TestCanonicalResult:
    def test_canonical_json_strips_only_measured_time(self):
        circuit = workload_circuit(0, 0)
        first = repro.run(circuit, shots=16, seed=3)
        second = repro.run(workload_circuit(0, 0), shots=16, seed=3)
        assert first.to_json() != second.to_json()  # wall clock differs
        assert first.canonical_json() == second.canonical_json()
        canonical = first.canonical_dict()
        assert "wall_seconds" not in canonical["metadata"]
        assert "serve" not in canonical["metadata"]
        assert canonical["metadata"]["seed"] == 3
        for key in canonical["report"]:
            assert not key.endswith("_seconds")
            assert not key.endswith("_fraction")
            assert key != "seconds_per_gate"
        assert canonical["report"]["gates_executed"] > 0

    def test_canonical_json_ordering_is_stable(self):
        result = repro.run(workload_circuit(0, 3), shots=8, seed=1)
        payload = result.canonical_json()
        reserialised = json.dumps(
            json.loads(payload), sort_keys=True, separators=(",", ":")
        )
        assert payload == reserialised
        # Canonical serialisation is insertion-order independent: a result
        # rebuilt with its metadata keys reversed canonicalises identically.
        from repro.backends.result import Result

        shuffled = json.loads(result.to_json())
        shuffled["metadata"] = dict(
            reversed(list(shuffled["metadata"].items()))
        )
        clone = Result.from_dict(shuffled)
        assert clone.canonical_json() == result.canonical_json()
        assert clone.to_json(sort_keys=True) != clone.to_json()


class TestServiceExecution:
    def test_result_bit_identical_to_cold_run(self):
        async def scenario():
            service = SimulationService(ServiceConfig(clock=FakeClock()))
            await service.start()
            try:
                job = service.submit(
                    workload_circuit(0, 0),
                    tenant="alice",
                    shots=64,
                    seed=11,
                    observables=PauliObservable("ZZZZ"),
                    return_statevector=True,
                )
                return await job
            finally:
                await service.close()

        warm = asyncio.run(scenario())
        cold = repro.run(
            workload_circuit(0, 0),
            shots=64,
            seed=11,
            observables=PauliObservable("ZZZZ"),
            return_statevector=True,
        )
        assert warm.counts == cold.counts
        assert warm.expectations == cold.expectations
        assert np.array_equal(
            np.asarray(warm.statevector).view(np.uint64),
            np.asarray(cold.statevector).view(np.uint64),
        )
        assert warm.canonical_json() == cold.canonical_json()
        assert warm.metadata["serve"]["cache_hit"] is False

    def test_cache_hit_is_byte_identical_and_skips_execution(self):
        async def scenario():
            service = SimulationService(ServiceConfig(clock=FakeClock()))
            await service.start()
            try:
                first = await service.submit(
                    workload_circuit(1, 0), tenant="alice", shots=32, seed=5
                )
                second_job = service.submit(
                    workload_circuit(1, 0), tenant="bob", shots=32, seed=5
                )
                second = await second_job
                miss_job = service.submit(
                    workload_circuit(1, 0), tenant="bob", shots=32, seed=6
                )
                miss = await miss_job
                return (
                    first,
                    second,
                    miss,
                    second_job.events.kinds(),
                    service.stats()["cache"],
                )
            finally:
                await service.close()

        first, second, miss, hit_kinds, cache_stats = asyncio.run(scenario())
        assert hit_kinds == ("queued", "cached", "completed")
        assert second.metadata["serve"]["cache_hit"] is True
        assert second.canonical_json() == first.canonical_json()
        # Byte identity beyond canonical: the hit is the stored payload.
        assert json.loads(second.to_json())["counts"] == json.loads(
            first.to_json()
        )["counts"]
        assert miss.canonical_json() != first.canonical_json()
        assert cache_stats["hits"] == 1
        assert cache_stats["misses"] == 2
        assert cache_stats["entries"] == 2

    def test_events_follow_fake_clock_and_stream_terminates(self):
        async def scenario():
            clock = FakeClock(start=100.0)
            service = SimulationService(
                ServiceConfig(clock=clock, progress_interval=2)
            )
            await service.start()
            try:
                job = service.submit(
                    workload_circuit(2, 1), tenant="alice", shots=8, seed=2
                )
                clock.advance(1.5)
                streamed = [event async for event in job.events.stream()]
                await job
                return job, streamed
            finally:
                await service.close()

        job, streamed = asyncio.run(scenario())
        kinds = job.events.kinds()
        assert kinds[0] == "queued"
        assert kinds[-1] == "completed"
        assert "progress" in kinds
        assert [event.kind for event in streamed] == list(kinds)
        assert streamed[0].timestamp == 100.0  # queued before the advance
        assert all(
            event.timestamp == 101.5 for event in streamed[1:]
        )  # everything after the advance is scripted time
        payload = next(e for e in streamed if e.kind == "progress").payload
        assert payload["gates_total"] == job.gates_total
        assert payload["gates_executed"] >= 1

    def test_backpressure_thresholds_and_close_cancels_pending(self):
        async def scenario():
            service = SimulationService(
                ServiceConfig(
                    workers=0,  # admit but never dispatch
                    max_pending_per_tenant=2,
                    max_pending_total=3,
                    clock=FakeClock(),
                )
            )
            await service.start()
            pending = [
                service.submit(
                    workload_circuit(0, index), tenant="alice", seed=index
                )
                for index in range(2)
            ]
            with pytest.raises(ServiceOverloadedError) as tenant_full:
                service.submit(workload_circuit(0, 9), tenant="alice")
            pending.append(
                service.submit(workload_circuit(1, 0), tenant="bob")
            )
            with pytest.raises(ServiceOverloadedError) as total_full:
                service.submit(workload_circuit(1, 1), tenant="bob")
            assert tenant_full.value.scope == "tenant"
            assert total_full.value.scope == "total"
            assert service.stats()["jobs"] == {"pending": 3}
            await service.close()
            for job in pending:
                assert job.state == "cancelled"
                with pytest.raises(JobCancelledError):
                    job.result()
                assert job.events.kinds() == ("queued", "cancelled")
            assert_no_leaks()

        asyncio.run(scenario())

    def test_cancel_pending_and_running(self):
        async def scenario():
            service = SimulationService(
                ServiceConfig(progress_interval=1, clock=FakeClock())
            )
            await service.start()
            try:
                running = service.submit(
                    workload_circuit(0, 0, num_qubits=6),
                    tenant="alice",
                    shots=8,
                    seed=1,
                )
                queued = service.submit(
                    workload_circuit(0, 1), tenant="alice", shots=8, seed=1
                )
                assert service.cancel(queued.id) is True
                async for event in running.events.stream():
                    if event.kind == "progress":
                        assert service.cancel(running.id) is True
                        break
                with pytest.raises(JobCancelledError) as excinfo:
                    await running
                assert excinfo.value.gates_done >= 1
                with pytest.raises(JobCancelledError):
                    await queued
                assert running.state == "cancelled"
                assert running.events.kinds()[-1] == "cancelled"
                assert queued.events.kinds() == ("queued", "cancelled")
                assert service.cancel(queued.id) is False  # already terminal
            finally:
                await service.close()

        asyncio.run(scenario())

    def test_suspend_resume_is_bit_identical_and_never_cached(self):
        async def scenario():
            service = SimulationService(
                ServiceConfig(progress_interval=2, clock=FakeClock())
            )
            await service.start()
            try:
                circuit = workload_circuit(3, 0, num_qubits=6)
                job = service.submit(
                    circuit,
                    tenant="alice",
                    shots=32,
                    seed=9,
                    observables=PauliObservable("ZZZZZZ"),
                    return_statevector=True,
                )
                async for event in job.events.stream():
                    if event.kind == "progress":
                        assert service.suspend(job.id) is True
                        break
                while job.state == "running":
                    await asyncio.sleep(0)
                assert job.state == "suspended"
                suspended_at = job.gates_done
                assert 0 < suspended_at < job.gates_total
                service.resume(job.id)
                resumed = await job
                # The suspended/resumed result must not be cached: an
                # identical request misses and produces the pristine entry.
                rerun = await service.submit(
                    workload_circuit(3, 0, num_qubits=6),
                    tenant="alice",
                    shots=32,
                    seed=9,
                    observables=PauliObservable("ZZZZZZ"),
                    return_statevector=True,
                )
                return job, resumed, rerun, service.stats()["cache"]
            finally:
                await service.close()

        job, resumed, rerun, cache_stats = asyncio.run(scenario())
        cold = repro.run(
            workload_circuit(3, 0, num_qubits=6),
            shots=32,
            seed=9,
            observables=PauliObservable("ZZZZZZ"),
            return_statevector=True,
        )
        kinds = job.events.kinds()
        assert "suspended" in kinds and "resumed" in kinds
        assert kinds.index("suspended") < kinds.index("resumed")
        assert resumed.metadata["serve"]["resumed"] is True
        assert resumed.counts == cold.counts
        assert resumed.expectations == cold.expectations
        assert np.array_equal(
            np.asarray(resumed.statevector).view(np.uint64),
            np.asarray(cold.statevector).view(np.uint64),
        )
        assert rerun.metadata["serve"]["cache_hit"] is False
        assert cache_stats["hits"] == 0
        assert rerun.canonical_json() == cold.canonical_json()

    def test_submit_validation_mirrors_backend_run(self):
        circuit = workload_circuit(0, 0)
        observable = PauliObservable("Z" * circuit.num_qubits)
        bad_requests = {
            "non-circuit": ("not a circuit", {}),
            "negative shots": (circuit, {"shots": -1}),
            "wrong width": (circuit, {"observables": PauliObservable("ZZ")}),
            "duplicate labels": (
                circuit,
                {"observables": [observable, observable]},
            ),
        }
        expected = {}
        for name, (request, options) in bad_requests.items():
            with pytest.raises((TypeError, ValueError)) as excinfo:
                repro.run(request, **options)
            expected[name] = (type(excinfo.value), str(excinfo.value))

        async def scenario():
            service = SimulationService(ServiceConfig(clock=FakeClock()))
            await service.start()
            try:
                for name, (request, options) in bad_requests.items():
                    error_type, message = expected[name]
                    with pytest.raises(error_type) as excinfo:
                        service.submit(request, tenant="a", **options)
                    assert type(excinfo.value) is error_type, name
                    assert str(excinfo.value) == message, name
            finally:
                await service.close()
            with pytest.raises(ServiceClosedError) as excinfo:
                service.submit(workload_circuit(0, 0), tenant="a")
            assert excinfo.value.state == "closed"

        asyncio.run(scenario())
        for removed in ("backend", "cache_enabled", "default_tenant_weight"):
            with pytest.raises(TypeError):
                ServiceConfig(**{removed: None})

    def test_drain_then_close_leaks_nothing(self):
        async def scenario():
            service = SimulationService(
                ServiceConfig(workers=2, clock=FakeClock())
            )
            await service.start()
            jobs = [
                service.submit(
                    workload_circuit(index % 2, index),
                    tenant=f"t{index % 2}",
                    shots=8,
                    seed=index,
                )
                for index in range(6)
            ]
            await service.drain()
            assert all(job.state == "completed" for job in jobs)
            assert service.state == "draining"
            with pytest.raises(ServiceClosedError):
                service.submit(workload_circuit(0, 0), tenant="t0")
            await service.close()
            await service.close()  # idempotent
            assert service.state == "closed"
            assert_no_leaks()

        asyncio.run(scenario())


class TestForkConfigHoisting:
    def test_config_rebuild_count_is_batch_size_independent(self, monkeypatch):
        """Regression: X/Y-observable forks re-validated SimulatorConfig per
        circuit; the localised fork config is now built once per simulator."""

        observable = PauliObservable("XZZZ", label="fork-driver")

        def count_for(batch_size: int) -> int:
            calls = []
            original = SimulatorConfig.__post_init__

            def counting(self):
                calls.append(1)
                return original(self)

            monkeypatch.setattr(SimulatorConfig, "__post_init__", counting)
            try:
                circuits = [
                    workload_circuit(0, index) for index in range(batch_size)
                ]
                repro.run(circuits, shots=0, observables=observable, seed=1)
            finally:
                monkeypatch.setattr(
                    SimulatorConfig, "__post_init__", original
                )
            return len(calls)

        small = count_for(2)
        large = count_for(6)
        assert small == large, (
            f"SimulatorConfig was rebuilt per circuit: {small} constructions "
            f"for batch of 2 vs {large} for batch of 6"
        )


class TestServeSoak:
    def test_soak_fairness_cache_and_recovery(self, tmp_path):
        """The deterministic soak (scaled down from the CI serve-soak job).

        The CI job runs the same harness at 500 jobs via
        ``tests/run_serve_soak.py``; 120 jobs cover the identical properties
        (exact DRR prefix, starvation bound, >=1 recovered worker kill,
        every answer bit-identical to its cold counterpart, zero leaks) in
        tier-1 time.
        """

        summary = run_soak(num_jobs=120, kill_after=10)
        assert summary["fairness_ok"], summary
        assert summary["starvation_ok"], summary
        assert summary["recoveries"] >= 1, summary
        assert summary["bit_identity_mismatches"] == 0, summary
        assert summary["bit_identity_checked"] == 120
        assert summary["cache"]["hits"] > 0
        assert summary["dispatched"] == 120
        payload = json.dumps(summary, sort_keys=True)
        (tmp_path / "soak.json").write_text(payload)
        assert json.loads(payload)["kind"] == "serve"

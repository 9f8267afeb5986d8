"""Per-tenant job queues with weighted deficit round-robin dispatch.

Classic DRR (Shreedhar & Varghese) with every job costing one unit: each
tenant owns a priority queue and a *deficit counter*; the dispatcher visits
tenants in registration order, tops the visited tenant's deficit up by its
weight once per visit, and hands out jobs while the deficit covers them.
An empty queue forfeits its deficit (the textbook rule that stops an idle
tenant hoarding credit).  The consequences, which the tests pin:

* while every tenant is backlogged, a full round dispatches **exactly**
  ``weight`` jobs per tenant — fairness is not statistical;
* a backlogged tenant is never starved: it receives a job within one full
  round (at most ``sum(weights)`` dispatches) of becoming backlogged;
* within one tenant, higher ``priority`` runs first, FIFO among equals.

The scheduler is synchronous and deterministic — no clock, no randomness —
which is what lets the service's asyncio layer stay testable with scripted
workloads.  Bounds (per tenant and total) are enforced at submission with
typed :class:`~repro.errors.ServiceOverloadedError` rejection; that is the
service's entire backpressure story, so the error carries the counts the
caller needs to reason about backoff.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, field

from ..errors import ServiceOverloadedError

__all__ = ["FairScheduler", "TenantState"]

logger = logging.getLogger(__name__)


@dataclass
class TenantState:
    """One tenant's queue, weight and accounting inside the scheduler."""

    name: str
    weight: int
    #: DRR deficit counter: dispatch credit carried within a round.
    deficit: float = 0.0
    #: Min-heap of ``(-priority, seq, job)`` — higher priority first, FIFO
    #: among equals via the global submission sequence number.
    heap: list = field(default_factory=list)
    submitted: int = 0
    dispatched: int = 0

    @property
    def pending(self) -> int:
        """Jobs waiting in this tenant's queue."""

        return len(self.heap)


class FairScheduler:
    """Weighted deficit round-robin dispatcher over per-tenant queues.

    Parameters
    ----------
    max_pending_per_tenant:
        Bound on one tenant's queued jobs; submission past it raises
        :class:`~repro.errors.ServiceOverloadedError` with ``scope="tenant"``.
    max_pending_total:
        Bound on all queued jobs together (``scope="total"``).
    """

    def __init__(
        self,
        *,
        max_pending_per_tenant: int = 64,
        max_pending_total: int = 256,
    ) -> None:
        if max_pending_per_tenant < 1 or max_pending_total < 1:
            raise ValueError("queue bounds must be >= 1")
        self._max_per_tenant = int(max_pending_per_tenant)
        self._max_total = int(max_pending_total)
        self._tenants: dict[str, TenantState] = {}
        self._order: list[str] = []
        self._cursor = 0
        self._turn_open = False
        self._seq = 0
        self._total_pending = 0

    # -- tenants ---------------------------------------------------------------------

    def register(self, tenant: str, weight: int = 1) -> None:
        """Register *tenant* with an integer *weight* >= 1 (idempotent).

        Re-registering an existing tenant with a different weight raises
        ``ValueError`` — weights are part of the fairness contract and must
        not drift mid-run.
        """

        if not tenant or not isinstance(tenant, str):
            raise ValueError("tenant must be a non-empty string")
        if not isinstance(weight, int) or weight < 1:
            raise ValueError(f"weight must be an int >= 1, got {weight!r}")
        existing = self._tenants.get(tenant)
        if existing is not None:
            if existing.weight != weight:
                raise ValueError(
                    f"tenant {tenant!r} already registered with weight "
                    f"{existing.weight}, cannot change to {weight}"
                )
            return
        self._tenants[tenant] = TenantState(name=tenant, weight=weight)
        self._order.append(tenant)

    def tenants(self) -> tuple[str, ...]:
        """Registered tenant names, in registration (= visit) order."""

        return tuple(self._order)

    def weight_of(self, tenant: str) -> int:
        """The registered weight of *tenant*."""

        return self._tenants[tenant].weight

    # -- submission ------------------------------------------------------------------

    def submit(self, tenant: str, job, priority: int = 0) -> None:
        """Queue *job* for *tenant*, or raise the typed backpressure error.

        *tenant* must be registered.  Bounds are checked before anything is
        mutated, so a rejected submission leaves no trace.
        """

        state = self._tenants.get(tenant)
        if state is None:
            raise KeyError(f"unknown tenant {tenant!r}; register() it first")
        rejection = None
        if self._total_pending >= self._max_total:
            rejection = ServiceOverloadedError(
                "service queue is full",
                tenant=tenant,
                pending=self._total_pending,
                limit=self._max_total,
                scope="total",
            )
        elif state.pending >= self._max_per_tenant:
            rejection = ServiceOverloadedError(
                f"tenant {tenant!r} queue is full",
                tenant=tenant,
                pending=state.pending,
                limit=self._max_per_tenant,
                scope="tenant",
            )
        if rejection is not None:
            logger.info(
                "rejected a job: %s queue full for tenant %r (%d pending, limit %d)",
                rejection.scope,
                tenant,
                rejection.pending,
                rejection.limit,
            )
            raise rejection
        heapq.heappush(state.heap, (-int(priority), self._seq, job))
        self._seq += 1
        state.submitted += 1
        self._total_pending += 1

    # -- dispatch --------------------------------------------------------------------

    def next_job(self):
        """Pop the next job under DRR, or ``None`` when everything is idle.

        Dispatching one job at a time keeps the scheduler usable from
        multiple service workers; the round state (cursor, open turn,
        deficits) persists across calls, so interleaved calls see the same
        global dispatch order a single loop would.
        """

        if self._total_pending == 0:
            return None
        visited = 0
        while True:
            state = self._tenants[self._order[self._cursor]]
            if not self._turn_open:
                # Entering this tenant's turn for the current round.
                if state.pending:
                    state.deficit += state.weight
                    self._turn_open = True
                else:
                    state.deficit = 0.0
                    self._advance()
                    visited += 1
                    # Every tenant idle would mean _total_pending == 0,
                    # checked above; the walk always terminates within two
                    # full rounds because some tenant has work and integer
                    # weights >= 1 guarantee its topped-up deficit covers a
                    # job.
                    continue
            if state.pending and state.deficit >= 1:
                state.deficit -= 1
                _neg_priority, _seq, job = heapq.heappop(state.heap)
                state.dispatched += 1
                self._total_pending -= 1
                if not state.pending:
                    # Forfeit leftover credit and close the turn: an empty
                    # queue must not accumulate deficit across rounds.
                    state.deficit = 0.0
                    self._advance()
                elif state.deficit < 1:
                    self._advance()
                return job
            self._advance()
            visited += 1
            if visited > 2 * len(self._order) + 1:  # pragma: no cover - invariant
                raise AssertionError("DRR walk failed to dispatch")

    def _advance(self) -> None:
        self._cursor = (self._cursor + 1) % len(self._order)
        self._turn_open = False

    # -- introspection ---------------------------------------------------------------

    def pending(self, tenant: str | None = None) -> int:
        """Queued jobs for one tenant, or in total when *tenant* is None."""

        if tenant is None:
            return self._total_pending
        return self._tenants[tenant].pending

    def snapshot(self) -> dict:
        """Per-tenant counters (weight, pending, submitted, dispatched)."""

        return {
            name: {
                "weight": state.weight,
                "pending": state.pending,
                "submitted": state.submitted,
                "dispatched": state.dispatched,
            }
            for name, state in self._tenants.items()
        }

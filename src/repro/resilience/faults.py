"""Deterministic, seedable fault injection.

A :class:`FaultPlan` describes faults to inject into a run: kill worker N
after its K-th submission, drop or delay a rank↔peer comm exchange.  Plans are installed process-wide (via
:func:`install_plan` / the :func:`installed_plan` context manager) or through
the ``REPRO_FAULT_PLAN`` environment variable, which is how the CI chaos job
subjects the whole tier-1 suite to a low-probability seeded kill plan.

Determinism contract: given the same plan (including ``chaos_seed``) and the
same sequence of pool creations / submissions / comm exchanges, the same
faults fire at the same points.  There is no wall-clock or OS randomness in
the trigger logic, so a failing chaos run can be replayed exactly by pinning
the plan spec.

The hooks are pulled by the machinery, not pushed: :class:`ProcessPool
<repro.core.procpool.ProcessPool>` arms a :class:`PoolFaultState` per pool
and consults it on every submit, and
:class:`ProcessCommunicator <repro.distributed.process_comm.ProcessCommunicator>`
arms a :class:`CommFaultState` per endpoint.  With no active plan every hook
is ``None`` and the fast paths pay a single attribute check.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import random
import threading
from dataclasses import dataclass

__all__ = [
    "KillWorker",
    "DropComm",
    "DelayComm",
    "FaultPlan",
    "parse_plan",
    "install_plan",
    "clear_plan",
    "installed_plan",
    "get_active_plan",
    "arm_for_pool",
    "arm_for_comm",
    "PoolFaultState",
    "CommFaultState",
]

#: Environment variable holding a fault-plan spec (see :func:`parse_plan`).
PLAN_ENV_VAR = "REPRO_FAULT_PLAN"

#: Pool-worker kinds chaos mode may kill.  Targeted :class:`KillWorker`
#: injections can name any kind; the probabilistic chaos mode stays away
#: from rank workers ("gate"/"init"/...) because a rank kill tears down the
#: whole ranked pool — a heavier recovery that dedicated tests cover
#: deterministically instead.
CHAOS_KILL_KINDS = ("circuit",)


@dataclass(frozen=True)
class KillWorker:
    """Kill one pool worker after its N-th matching submission.

    Attributes
    ----------
    worker:
        Target worker id within the pool; ``-1`` targets whichever worker
        receives the triggering submission.
    after:
        Fire on the N-th (1-based) submission matching this injection.
    kinds:
        Optional filter of message kinds (e.g. ``("gate",)``) the counter
        matches; ``None`` counts every submission to the target.
    """

    worker: int
    after: int
    kinds: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        """Reject counters that could never fire (``after`` is 1-based)."""

        if self.after < 1:
            raise ValueError("KillWorker.after must be >= 1")


@dataclass(frozen=True)
class DropComm:
    """Make one rank's N-th exchange with a peer hang until its deadline.

    The injected endpoint behaves exactly like a dead peer: the exchange
    makes no progress and the communicator's deadline machinery raises
    :class:`repro.errors.ProcessCommTimeout`.

    Attributes
    ----------
    rank / peer:
        The (rank, peer) channel to break; ``peer=-1`` matches any peer.
    after:
        Fire on the N-th (1-based) matching exchange at that endpoint.
    """

    rank: int
    peer: int
    after: int = 1

    def __post_init__(self) -> None:
        """Reject counters that could never fire (``after`` is 1-based)."""

        if self.after < 1:
            raise ValueError("DropComm.after must be >= 1")


@dataclass(frozen=True)
class DelayComm:
    """Delay one rank's N-th exchange with a peer by a fixed interval.

    Models a slow link rather than a dead one: the exchange completes after
    sleeping ``seconds``, exercising the timeout headroom without failing.

    Attributes
    ----------
    rank / peer:
        The (rank, peer) channel to slow down; ``peer=-1`` matches any peer.
    seconds:
        Sleep applied before the exchange proceeds.
    after:
        Fire on the N-th (1-based) matching exchange at that endpoint.
    """

    rank: int
    peer: int
    seconds: float
    after: int = 1

    def __post_init__(self) -> None:
        """Reject counters/delays that make no sense (``after`` is 1-based)."""

        if self.after < 1:
            raise ValueError("DelayComm.after must be >= 1")
        if self.seconds < 0:
            raise ValueError("DelayComm.seconds must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of faults to inject into a run.

    A plan combines *targeted* injections (:class:`KillWorker`,
    :class:`DropComm`, :class:`DelayComm`) with an
    optional probabilistic *chaos* mode: with ``chaos_kill_probability`` per
    pool (seeded by ``chaos_seed`` and a process-wide pool counter, so
    decisions are reproducible), one worker of a circuit fan-out pool is killed
    after a pseudorandomly chosen number of submissions.  Chaos kills are
    only armed for pools whose fault policy enables retries, so opted-out
    runs are never sabotaged.

    Attributes
    ----------
    injections:
        Targeted injection records, each firing at most once.
    chaos_seed:
        Seed of the chaos decision stream (``None`` disables chaos mode).
    chaos_kill_probability:
        Per-pool probability of scheduling one worker kill.
    """

    injections: tuple = ()
    chaos_seed: int | None = None
    chaos_kill_probability: float = 0.0


_lock = threading.Lock()
_installed_plan: FaultPlan | None = None
#: Process-wide counter of pools armed so far; feeds the chaos decision
#: stream so each pool in a run gets an independent but reproducible draw.
_pool_counter = itertools.count()
#: Targeted injections that already fired in this process (injection →
#: fire count).  A pool rebuilt during recovery re-arms from the same plan;
#: without this registry the same KillWorker would fire again on every
#: respawned pool and a single planned fault would repeat forever.  Keyed by
#: the (frozen, hashable) injection record itself so plans re-parsed from
#: the environment variable count against the same entry.
_fired: dict = {}


def _mark_fired(injection) -> None:
    with _lock:
        _fired[injection] = _fired.get(injection, 0) + 1


def _unfired(injections: list) -> list:
    """Filter out plan injections whose fire budget is already spent."""

    seen: dict = {}
    out = []
    with _lock:
        for inj in injections:
            seen[inj] = seen.get(inj, 0) + 1
            if seen[inj] > _fired.get(inj, 0):
                out.append(inj)
    return out


def _parse_kv(body: str) -> dict[str, str]:
    """Split ``k=v,k=v`` into a dict, rejecting malformed chunks."""

    out: dict[str, str] = {}
    for chunk in body.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f"bad fault-plan entry {chunk!r} (want key=value)")
        key, _, value = chunk.partition("=")
        out[key.strip()] = value.strip()
    return out


def parse_plan(spec: str) -> FaultPlan:
    """Parse a fault-plan spec string (the ``REPRO_FAULT_PLAN`` syntax).

    The spec is a ``;``-separated list of entries, each ``type:k=v,k=v``:

    - ``kill:worker=1,after=5`` (optional ``kinds=gate+circuit``)
    - ``drop:rank=0,peer=1,after=2``
    - ``delay:rank=1,peer=0,seconds=0.2,after=1``
    - ``chaos:prob=0.05,seed=11``

    Example: ``REPRO_FAULT_PLAN="chaos:prob=0.04,seed=11"`` runs the suite
    under a 4%-per-pool seeded worker-kill plan.
    """

    injections: list = []
    chaos_seed: int | None = None
    chaos_prob = 0.0
    for entry in spec.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        kind, _, body = entry.partition(":")
        kind = kind.strip()
        kv = _parse_kv(body)
        if kind == "kill":
            kinds = kv.get("kinds")
            injections.append(
                KillWorker(
                    worker=int(kv.get("worker", -1)),
                    after=int(kv.get("after", 1)),
                    kinds=tuple(kinds.split("+")) if kinds else None,
                )
            )
        elif kind == "drop":
            injections.append(
                DropComm(
                    rank=int(kv["rank"]),
                    peer=int(kv.get("peer", -1)),
                    after=int(kv.get("after", 1)),
                )
            )
        elif kind == "delay":
            injections.append(
                DelayComm(
                    rank=int(kv["rank"]),
                    peer=int(kv.get("peer", -1)),
                    seconds=float(kv.get("seconds", 0.1)),
                    after=int(kv.get("after", 1)),
                )
            )
        elif kind == "chaos":
            chaos_seed = int(kv.get("seed", 0))
            chaos_prob = float(kv.get("prob", 0.01))
        else:
            raise ValueError(f"unknown fault-plan entry type {kind!r}")
    return FaultPlan(
        injections=tuple(injections),
        chaos_seed=chaos_seed,
        chaos_kill_probability=chaos_prob,
    )


def install_plan(plan: FaultPlan) -> None:
    """Install ``plan`` process-wide (overrides the environment variable).

    Installing also clears the fired-injection registry, so a freshly
    installed plan always starts with its full fire budget.
    """

    global _installed_plan
    with _lock:
        _installed_plan = plan
        _fired.clear()


def clear_plan() -> None:
    """Remove any installed plan (the environment variable applies again)."""

    global _installed_plan
    with _lock:
        _installed_plan = None
        _fired.clear()


@contextlib.contextmanager
def installed_plan(plan: FaultPlan):
    """Context manager installing ``plan`` for the duration of the block."""

    install_plan(plan)
    try:
        yield plan
    finally:
        clear_plan()


def get_active_plan() -> FaultPlan | None:
    """The currently active plan: installed first, else parsed from the env.

    The environment variable is re-read on every call so a plan exported
    before interpreter start (the CI chaos job) and plans toggled by tests
    both take effect without import-order coupling.
    """

    with _lock:
        if _installed_plan is not None:
            return _installed_plan
    spec = os.environ.get(PLAN_ENV_VAR)
    if spec:
        return parse_plan(spec)
    return None


class PoolFaultState:
    """Per-pool fault triggers, consulted by ``ProcessPool`` hot paths.

    One instance is armed per pool by :func:`arm_for_pool`; its counters are
    pool-local, so two pools in one run trigger independently.  All methods
    are cheap counter checks — no syscalls, no randomness at fire time.
    """

    def __init__(
        self,
        kills: list[KillWorker],
        tracked: frozenset = frozenset(),
    ) -> None:
        """Arm the given targeted injections for one pool.

        ``tracked`` names the injections that came from the plan (as opposed
        to per-pool chaos draws): when one of those fires it is recorded in
        the process-wide fired registry so pools rebuilt during recovery do
        not re-arm it.
        """

        self._kill_counters = [[inj, inj.after] for inj in kills]
        self._tracked = tracked

    def on_submit(self, worker_id: int, kind: str) -> int | None:
        """Called before each submission; returns a worker id to kill, or None.

        Counts the submission against every armed :class:`KillWorker` whose
        worker/kinds filters match; the first counter reaching zero fires
        (once) and names its victim — the targeted worker, or the submitting
        worker for ``worker=-1`` entries.
        """

        for entry in self._kill_counters:
            inj, remaining = entry
            if remaining <= 0:
                continue
            if inj.worker not in (-1, worker_id):
                continue
            if inj.kinds is not None and kind not in inj.kinds:
                continue
            entry[1] = remaining - 1
            if entry[1] == 0:
                if inj in self._tracked:
                    _mark_fired(inj)
                return inj.worker if inj.worker >= 0 else worker_id
        return None


class CommFaultState:
    """Per-endpoint comm fault triggers, consulted on every exchange."""

    def __init__(self, drops: list[DropComm], delays: list[DelayComm]) -> None:
        """Arm the drop/delay injections owned by one rank endpoint."""

        self._drop_counters = [[inj, inj.after] for inj in drops]
        self._delay_counters = [[inj, inj.after] for inj in delays]

    def on_exchange(self, rank: int, peer: int) -> tuple[str, float] | None:
        """Called at the top of an exchange with ``peer``.

        Returns ``("drop", 0.0)`` to make the exchange hang to its deadline,
        ``("delay", seconds)`` to slow it down, or ``None`` to proceed.
        """

        for entry in self._drop_counters:
            inj, remaining = entry
            if remaining <= 0 or inj.rank != rank:
                continue
            if inj.peer not in (-1, peer):
                continue
            entry[1] = remaining - 1
            if entry[1] == 0:
                return ("drop", 0.0)
        for entry in self._delay_counters:
            inj, remaining = entry
            if remaining <= 0 or inj.rank != rank:
                continue
            if inj.peer not in (-1, peer):
                continue
            entry[1] = remaining - 1
            if entry[1] == 0:
                return ("delay", inj.seconds)
        return None


def arm_for_pool(
    kind: str, num_workers: int, chaos_allowed: bool
) -> PoolFaultState | None:
    """Build the fault state of a new pool, or ``None`` with no active plan.

    ``kind`` is the dominant message kind of the pool's workers ("circuit"
    for batch runners, "gate" for rank pools, "task" for pools that declare
    none) — it gates chaos mode to :data:`CHAOS_KILL_KINDS`.  ``chaos_allowed``
    reflects the pool's fault policy: chaos kills are only scheduled when
    the policy can actually recover from them (``max_retries > 0``), while
    targeted injections are always armed (deterministic tests opt in
    explicitly and assert the failure mode they want).
    """

    plan = get_active_plan()
    # The counter advances for every pool created while a plan is active,
    # plan-armed or not, so adding pools elsewhere in a run does not shift
    # which pool a given chaos draw lands on.
    draw_index = next(_pool_counter)
    if plan is None:
        return None
    kills = _unfired(
        [inj for inj in plan.injections if isinstance(inj, KillWorker)]
    )
    tracked = frozenset(kills)
    if (
        chaos_allowed
        and plan.chaos_seed is not None
        and plan.chaos_kill_probability > 0.0
        and kind in CHAOS_KILL_KINDS
        and num_workers > 0
    ):
        rng = random.Random(f"{plan.chaos_seed}:{draw_index}")
        if rng.random() < plan.chaos_kill_probability:
            kills.append(
                KillWorker(
                    worker=rng.randrange(num_workers),
                    after=1 + rng.randrange(24),
                    kinds=CHAOS_KILL_KINDS,
                )
            )
    if not kills:
        return None
    return PoolFaultState(kills, tracked=tracked)


def arm_for_comm(rank: int, pool_generation: int = 0) -> CommFaultState | None:
    """Build the comm fault state of one rank endpoint (or ``None``).

    ``pool_generation`` counts pool rebuilds during recovery.  Comm
    injections only arm in generation 0: rank workers re-arm from the
    environment in their own (fresh) processes, so without this gate a
    rebuilt pool would deterministically replay straight into the same
    drop/delay and recovery could never converge.  Rebuilt pools run clean.
    """

    plan = get_active_plan()
    if plan is None or pool_generation > 0:
        return None
    drops = [
        inj
        for inj in plan.injections
        if isinstance(inj, DropComm) and inj.rank == rank
    ]
    delays = [
        inj
        for inj in plan.injections
        if isinstance(inj, DelayComm) and inj.rank == rank
    ]
    if not drops and not delays:
        return None
    return CommFaultState(drops, delays)

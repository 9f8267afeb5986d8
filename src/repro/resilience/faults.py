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

Every injection is armed in the parent process, where the plan lives:
:class:`ProcessPool <repro.core.procpool.ProcessPool>` arms a
:class:`PoolFaultState` per pool and consults it on every submit, and
:class:`RankedStateVector <repro.distributed.ranked.RankedStateVector>` arms a
:class:`CommFaultState` per rank and ships it to that rank's worker with the
rest of its constructor arguments — so fork and spawn behave alike.  With no
active plan every hook is ``None`` and the fast paths pay a single attribute
check.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import random
import threading
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class KillWorker:
    """Kill one pool worker after its N-th matching submission.

    Attributes
    ----------
    worker:
        Target worker id within the pool.
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
        """Reject targets and counters that could never fire."""

        if self.worker < 0 or self.after < 1:
            raise ValueError("KillWorker needs worker >= 0 and after >= 1")


@dataclass(frozen=True)
class DropComm:
    """Make one rank's N-th exchange with a peer hang until its deadline.

    The injected endpoint behaves exactly like a dead peer: the exchange
    makes no progress and the communicator's deadline machinery raises
    :class:`repro.errors.ProcessCommTimeout`.

    Attributes
    ----------
    rank / peer:
        The (rank, peer) channel to break.
    after:
        Fire on the N-th (1-based) exchange with that peer at that endpoint.
    """

    rank: int
    peer: int
    after: int = 1

    def __post_init__(self) -> None:
        """Reject channels and counters that could never fire."""

        if self.peer < 0 or self.after < 1:
            raise ValueError("DropComm needs peer >= 0 and after >= 1")


@dataclass(frozen=True)
class DelayComm:
    """Delay one rank's N-th exchange with a peer by a fixed interval.

    Models a slow link rather than a dead one: the exchange completes after
    sleeping ``seconds``, exercising the timeout headroom without failing.

    Attributes
    ----------
    rank / peer:
        The (rank, peer) channel to slow down.
    seconds:
        Sleep applied before the exchange proceeds.
    after:
        Fire on the N-th (1-based) exchange with that peer at that endpoint.
    """

    rank: int
    peer: int
    seconds: float
    after: int = 1

    def __post_init__(self) -> None:
        """Reject channels, counters and delays that make no sense."""

        if self.peer < 0 or self.after < 1:
            raise ValueError("DelayComm needs peer >= 0 and after >= 1")
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
    only armed for pools whose owner can recover from them, so opted-out
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
#: Targeted injections already spent in this process: a kill when it fires,
#: a comm fault when it is armed.  A pool rebuilt during recovery re-arms
#: from the same plan; without this registry the same fault would fire again
#: on every rebuilt pool and a single planned fault would repeat forever.
#: Holds the (frozen, hashable) injection records themselves, so plans
#: re-parsed from the environment variable spend the same entries.
_spent: set = set()


def _spend(injection) -> None:
    with _lock:
        _spent.add(injection)


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

    ``worker``, ``rank`` and ``peer`` have no default: an entry missing one
    raises :class:`ValueError`.

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

        def required(key: str) -> int:
            if key not in kv:
                raise ValueError(f"fault-plan entry {entry!r} needs {key}=")
            return int(kv[key])

        if kind == "kill":
            kinds = kv.get("kinds")
            injections.append(
                KillWorker(
                    worker=required("worker"),
                    after=int(kv.get("after", 1)),
                    kinds=tuple(kinds.split("+")) if kinds else None,
                )
            )
        elif kind == "drop":
            injections.append(
                DropComm(
                    rank=required("rank"),
                    peer=required("peer"),
                    after=int(kv.get("after", 1)),
                )
            )
        elif kind == "delay":
            injections.append(
                DelayComm(
                    rank=required("rank"),
                    peer=required("peer"),
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

    Installing also clears the spent-injection registry, so a freshly
    installed plan always starts with every injection armable.
    """

    global _installed_plan
    with _lock:
        _installed_plan = plan
        _spent.clear()


def clear_plan() -> None:
    """Remove any installed plan (the environment variable applies again)
    and clear the spent-injection registry."""

    global _installed_plan
    with _lock:
        _installed_plan = None
        _spent.clear()


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

    def __init__(self, kills: list[KillWorker]) -> None:
        """Arm the given kills (plan injections and chaos draws) for one pool."""

        self._kill_counters = [[inj, inj.after] for inj in kills]

    def on_submit(self, worker_id: int, kind: str) -> int | None:
        """Called before each submission; returns a worker id to kill, or None.

        Counts the submission against every armed :class:`KillWorker` whose
        worker/kinds filters match; the first counter reaching zero fires
        (once, and is spent so a healed or rebuilt pool does not re-arm it)
        and names its victim, the submitting worker.
        """

        for entry in self._kill_counters:
            inj, remaining = entry
            if remaining <= 0 or inj.worker != worker_id:
                continue
            if inj.kinds is not None and kind not in inj.kinds:
                continue
            entry[1] = remaining - 1
            if entry[1] == 0:
                _spend(inj)
                return worker_id
        return None


@dataclass
class CommFaultState:
    """One rank endpoint's armed comm injections, consulted on every exchange.

    Built in the parent by :func:`arm_for_comm` and pickled into the rank
    worker with its other constructor arguments; the counters then run down
    in the worker.

    Attributes
    ----------
    injections:
        The :class:`DropComm` / :class:`DelayComm` records of this rank.
    remaining:
        Matching exchanges left before each injection fires.
    """

    injections: tuple
    remaining: list[int] = field(init=False)

    def __post_init__(self) -> None:
        """Start every counter at its injection's ``after``."""

        self.remaining = [inj.after for inj in self.injections]

    def on_exchange(self, peer: int) -> DropComm | DelayComm | None:
        """Called at the top of an exchange with ``peer``.

        Counts the exchange against every injection on that channel and
        returns the first one whose counter reaches zero (it fires once), or
        ``None`` to proceed untouched.
        """

        for index, inj in enumerate(self.injections):
            if inj.peer != peer or self.remaining[index] <= 0:
                continue
            self.remaining[index] -= 1
            if self.remaining[index] == 0:
                return inj
        return None


def arm_for_pool(num_workers: int, chaos_kills: bool) -> PoolFaultState | None:
    """Build the fault state of a new pool, or ``None`` with no active plan.

    Targeted :class:`KillWorker` injections are always armed (deterministic
    tests opt in explicitly and assert the failure mode they want).
    ``chaos_kills`` is the pool owner's word that it recovers from a dead
    worker; only then may chaos mode schedule a kill in this pool.
    """

    plan = get_active_plan()
    # The counter advances for every pool created while a plan is active,
    # plan-armed or not, so adding pools elsewhere in a run does not shift
    # which pool a given chaos draw lands on.
    draw_index = next(_pool_counter)
    if plan is None:
        return None
    with _lock:
        kills = [
            inj
            for inj in plan.injections
            if isinstance(inj, KillWorker) and inj not in _spent
        ]
    chaos = plan.chaos_seed is not None and plan.chaos_kill_probability > 0.0
    if chaos_kills and chaos:
        rng = random.Random(f"{plan.chaos_seed}:{draw_index}")
        if rng.random() < plan.chaos_kill_probability:
            kills.append(
                KillWorker(
                    worker=rng.randrange(num_workers),
                    after=1 + rng.randrange(24),
                )
            )
    if not kills:
        return None
    return PoolFaultState(kills)


def arm_for_comm(rank: int) -> CommFaultState | None:
    """Arm the comm injections of one rank endpoint (or return ``None``).

    Called in the parent once per rank when a rank pool is built.  Arming
    spends the injections in the same process-wide registry that spends
    fired kills, so a pool rebuilt during recovery finds nothing left to arm
    and its replay runs clean.
    """

    plan = get_active_plan()
    if plan is None:
        return None
    with _lock:
        armed = tuple(
            inj
            for inj in plan.injections
            if isinstance(inj, (DropComm, DelayComm))
            and inj.rank == rank
            and inj not in _spent
        )
        _spent.update(armed)
    return CommFaultState(armed) if armed else None

"""Backend ABC and registry: the pluggable entry point of the simulators.

The paper's pitch is a *drop-in* simulator — the compression is invisible to
the workload.  :class:`Backend` makes that literal: a workload asks the
registry for an engine by name (``get_backend("compressed")``) and calls the
one method every engine shares::

    result = get_backend("compressed").run(circuit, shots=1000, seed=7)

``run()`` owns everything engine-independent — input validation, batching, a
per-circuit seed ladder, observable bookkeeping and the
:class:`~repro.backends.result.Result` envelope — and delegates the three
engine-specific steps to subclass hooks (open a session, execute one
circuit, close the session).  Sessions are what make batches fast: the
compressed backend keeps one warm simulator per register width and resets it
between circuits instead of rebuilding executors and scratch pools.

New engines register themselves with the :func:`register_backend` decorator::

    @register_backend("my-engine")
    class MyBackend(Backend):
        ...
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Any, Callable, ClassVar, Iterable, Sequence

import numpy as np

from ..circuits import QuantumCircuit
from .observables import PauliObservable
from .result import Result, ResultSet

__all__ = [
    "Backend",
    "BackendError",
    "register_backend",
    "get_backend",
    "available_backends",
    "validate_request",
]


class BackendError(ValueError):
    """Raised for unknown backend names or conflicting registrations."""


_REGISTRY: dict[str, Callable[[], "Backend"]] = {}


def register_backend(name: str):
    """Class decorator registering a :class:`Backend` under *name*.

    Registering an already-taken name raises :class:`BackendError` — rebinding
    an engine name silently would repoint every workload that uses it.
    """

    if not name or not isinstance(name, str):
        raise BackendError("backend name must be a non-empty string")

    def decorator(factory: Callable[[], "Backend"]):
        if name in _REGISTRY:
            raise BackendError(f"backend {name!r} is already registered")
        _REGISTRY[name] = factory
        return factory

    return decorator


def get_backend(name: str) -> "Backend":
    """Instantiate the backend registered under *name*.

    Raises :class:`BackendError` listing the available names when *name* is
    unknown.
    """

    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise BackendError(
            f"unknown backend {name!r}; available: {available_backends()}"
        ) from None
    return factory()


def available_backends() -> list[str]:
    """Sorted names of every registered backend."""

    return sorted(_REGISTRY)


def validate_request(
    circuits: Sequence[QuantumCircuit],
    *,
    shots: int,
    observables: PauliObservable | Iterable[PauliObservable] | None,
) -> tuple[PauliObservable, ...]:
    """Check one request into the engine; return its observables as a tuple.

    :meth:`Backend.run` and :meth:`repro.serve.SimulationService.submit`
    both call this, so a request one accepts is a request the other accepts,
    and a bad one fails with the same exception and message in both.
    """

    for circuit in circuits:
        if not isinstance(circuit, QuantumCircuit):
            raise TypeError(
                f"expected QuantumCircuit, got {type(circuit).__name__}"
            )
    if shots < 0:
        raise ValueError("shots must be non-negative")
    if observables is None:
        observables = ()
    elif isinstance(observables, PauliObservable):
        observables = (observables,)
    observable_list = tuple(observables)
    for observable in observable_list:
        if not isinstance(observable, PauliObservable):
            raise TypeError(
                f"expected PauliObservable, got {type(observable).__name__}"
            )
    labels = [observable.label for observable in observable_list]
    if len(set(labels)) != len(labels):
        raise ValueError(
            "observables must have unique labels (use with_label()); got "
            f"{labels}"
        )
    for circuit in circuits:
        for observable in observable_list:
            if observable.num_qubits != circuit.num_qubits:
                raise ValueError(
                    f"observable {observable.label!r} acts on "
                    f"{observable.num_qubits} qubits but circuit "
                    f"{circuit.name!r} has {circuit.num_qubits}"
                )
    return observable_list


class Backend(ABC):
    """One simulation engine behind the unified ``run()`` surface.

    Subclasses set :attr:`name` and implement the three hooks
    :meth:`_open_session`, :meth:`_execute` and (optionally)
    :meth:`_close_session`; everything else — batching, seeding, validation,
    result packaging — lives here and is identical across engines.
    """

    #: Registry name; also stamped into every :class:`Result`.
    name: ClassVar[str] = ""

    def run(
        self,
        circuits: QuantumCircuit | Iterable[QuantumCircuit],
        *,
        shots: int = 0,
        observables: PauliObservable | Iterable[PauliObservable] | None = None,
        seed: int | None = None,
        return_statevector: bool = False,
        parallel: str | None = None,
        max_parallel: int | None = None,
        **options,
    ) -> Result | ResultSet:
        """Execute one circuit (→ :class:`Result`) or a batch (→ :class:`ResultSet`).

        Parameters
        ----------
        circuits:
            A :class:`QuantumCircuit` or an iterable of them.  A batch is
            executed in order inside one backend session, so same-width
            circuits share the expensive machinery.
        shots:
            Samples to draw from each final state (0 = no sampling).
        observables:
            :class:`PauliObservable` (or several) evaluated on each final
            state; values land in ``Result.expectations`` keyed by label.
        seed:
            Master seed.  Each circuit gets its own generator derived from
            the seed and its batch position via ``SeedSequence.spawn``:
            rerunning the same batch with the same seed reproduces every
            result exactly, and rng-free work for one circuit (observables,
            statevector) never shifts another circuit's samples.  Batch
            position *is* part of the derivation, so reordering or resizing
            the batch changes the per-circuit sample streams.
        return_statevector:
            Materialise the dense final state into each result (small
            registers only).
        parallel:
            ``None`` (default) executes the batch sequentially in one warm
            session.  ``"process"`` fans a multi-circuit batch out across a
            pool of worker processes (:mod:`repro.backends.parallel`), each
            holding its own warm session; the per-circuit seed ladder is
            identical, so every result is bit-identical to sequential
            execution (only measured wall-clock metadata differs).  Requires
            the backend to be registered under its :attr:`name`.
        max_parallel:
            Worker-process cap for ``parallel="process"`` (default: the
            batch size clamped to the effective CPU count).
        options:
            Engine-specific session options (the compressed backend accepts
            ``config=SimulatorConfig(...)``).
        """

        single = isinstance(circuits, QuantumCircuit)
        batch: list[QuantumCircuit] = [circuits] if single else list(circuits)
        if not batch:
            raise ValueError("run() needs at least one circuit")
        observable_list = validate_request(
            batch, shots=shots, observables=observables
        )
        if parallel not in (None, "process"):
            raise ValueError(
                f"parallel must be None or 'process', got {parallel!r}"
            )
        if max_parallel is not None and max_parallel < 1:
            raise ValueError(f"max_parallel must be >= 1, got {max_parallel}")

        seed_sequences = np.random.SeedSequence(seed).spawn(len(batch))

        if parallel == "process" and len(batch) > 1:
            from .parallel import run_batch_in_processes

            results = run_batch_in_processes(
                self,
                batch,
                shots=shots,
                observables=observable_list,
                seed=seed,
                seed_sequences=seed_sequences,
                return_statevector=return_statevector,
                options=options,
                max_parallel=max_parallel,
            )
            return results[0] if single else ResultSet(results)

        session = self._open_session(**options)
        try:
            results = [
                self._run_one(
                    circuit,
                    session,
                    shots=shots,
                    observables=observable_list,
                    seed=seed,
                    seed_sequence=sequence,
                    return_statevector=return_statevector,
                )
                for circuit, sequence in zip(batch, seed_sequences)
            ]
        finally:
            self._close_session(session)
        return results[0] if single else ResultSet(results)

    def _run_one(
        self,
        circuit: QuantumCircuit,
        session: Any,
        *,
        shots: int,
        observables: Sequence[PauliObservable],
        seed: int | None,
        seed_sequence: np.random.SeedSequence,
        return_statevector: bool,
    ) -> Result:
        """Execute one circuit of a batch and stamp its wall-clock and seed.

        The sequential loop of :meth:`run` and the process fan-out
        (:mod:`repro.backends.parallel`) both call this, so a circuit's rng
        stream and metadata do not depend on where it ran.
        """

        started = time.perf_counter()
        result = self._execute(
            circuit,
            session=session,
            shots=shots,
            observables=observables,
            rng=np.random.default_rng(seed_sequence),
            return_statevector=return_statevector,
        )
        result.metadata.setdefault("wall_seconds", time.perf_counter() - started)
        result.metadata.setdefault("seed", seed)
        return result

    @staticmethod
    def _evaluate_observables(
        observables: Sequence[PauliObservable], state
    ) -> dict[str, float] | None:
        if not observables:
            return None
        return {
            observable.label: observable.expectation(state)
            for observable in observables
        }

    # -- engine hooks ------------------------------------------------------------------

    @abstractmethod
    def _open_session(self, **options) -> Any:
        """Build whatever per-batch machinery the engine reuses across circuits."""

    def _close_session(self, session: Any) -> None:
        """Release session resources (default: nothing to release)."""

    @abstractmethod
    def _execute(
        self,
        circuit: QuantumCircuit,
        *,
        session: Any,
        shots: int,
        observables: Sequence[PauliObservable],
        rng: np.random.Generator,
        return_statevector: bool,
    ) -> Result:
        """Run one circuit to completion and package a :class:`Result`."""

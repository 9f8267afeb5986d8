"""The compressed-state engine behind the unified API.

Adapter over :class:`~repro.core.simulator.CompressedSimulator`.  The batch
session keeps **one warm simulator per register width**: the first circuit of
a width pays for partition setup, scratch-pool allocation and (on the
ranked tier) rank-worker spin-up; subsequent circuits of that width
just :meth:`~repro.core.simulator.CompressedSimulator.reset` the state and
reuse everything — the throughput path for angle sweeps and benchmark
batteries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..circuits import QuantumCircuit
from ..core.config import SimulatorConfig
from ..core.simulator import CompressedSimulator
from ..distributed.comm import SimulatedCommunicator
from .base import Backend, register_backend
from .observables import DiagonalSums, PauliObservable
from .result import Result

__all__ = ["CompressedBackend"]


@dataclass
class _CompressedSession:
    """Per-batch state: the config and a warm-simulator lease pool per width.

    Simulators are *leased*: :meth:`acquire` hands out an exclusive warm
    simulator (reset if reused, built if the width is new) and
    :meth:`release` returns it to the idle pool.  Sequential batch execution
    only ever has one lease outstanding, so it degenerates to the historical
    one-warm-simulator-per-width behaviour; the :mod:`repro.serve` job
    executor holds one lease per in-flight job, so two interleaved jobs of
    the same width never share mutable state.

    ``comm`` lets benches with a modelled interconnect (fig16) inject their
    own :class:`~repro.distributed.comm.SimulatedCommunicator` through the
    registry instead of hand-building simulators; it is shared by every
    simulator of the session and reset between circuits like the rest of
    the per-circuit state.
    """

    config: SimulatorConfig
    comm: SimulatedCommunicator | None = None
    _idle: dict[int, list[CompressedSimulator]] = field(default_factory=dict)
    _leased: list[CompressedSimulator] = field(default_factory=list)

    def acquire(self, num_qubits: int) -> CompressedSimulator:
        """Lease an exclusive warm simulator for *num_qubits* qubits.

        A reused simulator is reset first, so the caller always starts from
        ``|0...0>`` with fresh bookkeeping — indistinguishable from a newly
        built one.  Pair every acquire with :meth:`release`.
        """

        stack = self._idle.get(num_qubits)
        if stack:
            simulator = stack.pop()
            simulator.reset()
        else:
            simulator = CompressedSimulator(num_qubits, self.config, comm=self.comm)
        self._leased.append(simulator)
        return simulator

    def release(self, simulator: CompressedSimulator) -> None:
        """Return a leased simulator to the idle pool (workers stay warm)."""

        if simulator in self._leased:
            self._leased.remove(simulator)
        self._idle.setdefault(simulator.num_qubits, []).append(simulator)

    def simulator_for(self, num_qubits: int) -> CompressedSimulator:
        """The warm simulator for *num_qubits*, for strictly sequential use.

        Equivalent to an acquire immediately followed by a release: safe
        when at most one circuit executes at a time (the batch loop of
        :meth:`Backend.run`), because the simulator is only handed out again
        after the current circuit's results have been read off.
        """

        simulator = self.acquire(num_qubits)
        self.release(simulator)
        return simulator

    def close(self) -> None:
        """Close every simulator — idle and leased — and empty the pools."""

        for stack in self._idle.values():
            for simulator in stack:
                simulator.close()
        for simulator in self._leased:
            simulator.close()
        self._idle.clear()
        self._leased.clear()


def _package_result(
    backend_name: str,
    simulator: CompressedSimulator,
    session: _CompressedSession,
    circuit: QuantumCircuit,
    *,
    shots: int,
    observables: Sequence[PauliObservable],
    rng: np.random.Generator,
    return_statevector: bool,
) -> Result:
    """Read samples/observables off an executed simulator into a `Result`.

    Shared by the sequential batch path (:meth:`CompressedBackend._execute`)
    and the gate-stepped :mod:`repro.serve` executor, so both produce
    field-identical results for the same executed state: same rng
    consumption order (counts first, then rng-free observables and
    statevector), same report and metadata shape.

    One :meth:`~repro.core.CompressedSimulator.block_reduction` covers the
    sampler's block masses and every observable's diagonal terms, so each
    block is decompressed once here (on the ranked tier, in its rank
    worker), then again only if sampling hits it; X/Y terms still reduce
    their own basis-changed forks.
    """

    report = simulator.report()
    zmasks = tuple(
        sorted({zmask for obs in observables for zmask in obs.diagonal_zmasks})
    )
    if shots or zmasks:
        masses, partials = simulator.block_reduction(zmasks)
    counts = (
        simulator.sample_counts(shots, rng, block_mass=masses) if shots else None
    )
    diagonal = DiagonalSums.of(masses, partials, zmasks) if zmasks else None
    expectations = {
        observable.label: observable._expectation_compressed(simulator, diagonal)
        for observable in observables
    } or None
    statevector = simulator.statevector() if return_statevector else None
    return Result(
        backend=backend_name,
        circuit_name=circuit.name,
        num_qubits=circuit.num_qubits,
        shots=shots,
        counts=counts,
        expectations=expectations,
        statevector=statevector,
        report=report.as_dict(),
        metadata={
            "compression_ratio": simulator.state.compression_ratio(),
            "compressed_bytes": simulator.state.compressed_bytes(),
            "num_ranks": session.config.num_ranks,
        },
    )


@register_backend("compressed")
class CompressedBackend(Backend):
    """Full-state simulation with the state held compressed (the paper)."""

    name = "compressed"

    def _open_session(
        self,
        config: SimulatorConfig | None = None,
        comm: SimulatedCommunicator | None = None,
    ) -> _CompressedSession:
        return _CompressedSession(config=config or SimulatorConfig(), comm=comm)

    def _close_session(self, session: _CompressedSession) -> None:
        session.close()

    def _execute(
        self,
        circuit: QuantumCircuit,
        *,
        session: _CompressedSession,
        shots: int,
        observables: Sequence[PauliObservable],
        rng: np.random.Generator,
        return_statevector: bool,
    ) -> Result:
        simulator = session.simulator_for(circuit.num_qubits)
        simulator.apply_circuit(circuit)
        return _package_result(
            self.name,
            simulator,
            session,
            circuit,
            shots=shots,
            observables=observables,
            rng=rng,
            return_statevector=return_statevector,
        )

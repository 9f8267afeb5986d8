"""Gate fusion: coalesce runs of consecutive gates into one block round trip.

The compressed simulator pays a decompress → apply → recompress round trip
over every touched block *per gate* (Figure 2), and the paper's own time
breakdown shows the compression stages dwarfing the arithmetic.  Two
consecutive gates that act on the same target qubit under the same control
set update exactly the same amplitude pairs, so their 2x2 matrices multiply
into a single unitary — one round trip instead of two.  Diagonal gates
(``z``, ``s``, ``t``, ``rz``, ``p``) merge this way for free, but the rule is
fully general: any same-target, same-control run fuses.

The pass is purely syntactic (no commutation analysis), which makes it
semantics-preserving by construction: the fused circuit applies the exact
same operator as the original, gate group by gate group.  A fused group is an
ordinary :class:`~repro.circuits.gates.Gate`, so the planner
(:func:`repro.distributed.exchange.plan_gate`), the executor and the block
cache consume it unchanged — and because :meth:`Gate.key` hashes the matrix
bytes, a fused group can never alias its constituent gates in the cache.

A second, coarser grouping rides on top (:func:`form_local_runs`): consecutive
gates whose targets all lie *inside* a block, under the same block/rank
controls, touch the same set of blocks and never need a partner block, so a
block can be decompressed once, take every gate of the stretch in order, and
be recompressed once.  A :class:`LocalRun` keeps its constituents as separate
2x2 steps — nothing is multiplied — so under lossless compression it performs
exactly the floating-point operations of the gate-by-gate schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import QuantumCircuit
from .gates import Gate, GateError

__all__ = [
    "FusionStats",
    "fusible",
    "fuse_run",
    "fuse_gate_sequence",
    "fuse_circuit",
    "LocalRun",
    "local_run",
    "constituents",
    "form_local_runs",
]


@dataclass(frozen=True)
class FusionStats:
    """Outcome of one fusion pass, used by reports and benchmarks."""

    #: Gates in the original sequence.
    gates_in: int
    #: Gates after fusion (fused groups count as one).
    gates_out: int
    #: Number of fused groups with at least two constituents.
    fused_groups: int
    #: Size of the largest fused group.
    max_group: int

    @property
    def gates_eliminated(self) -> int:
        """How many gate applications fusion removed from the schedule."""

        return self.gates_in - self.gates_out

    @property
    def round_trip_reduction(self) -> float:
        """Per-block round trips before / after (>= 1.0; 1.0 means no fusion)."""

        if self.gates_out == 0:
            return 1.0
        return self.gates_in / self.gates_out

    def as_dict(self) -> dict:
        """JSON-ready mapping of the fusion statistics."""

        return {
            "gates_in": self.gates_in,
            "gates_out": self.gates_out,
            "fused_groups": self.fused_groups,
            "max_group": self.max_group,
            "round_trip_reduction": self.round_trip_reduction,
        }


def fusible(first: Gate, second: Gate) -> bool:
    """True when the two gates update the same amplitude pairs.

    That requires the same target qubit and the same control *set* (control
    order is irrelevant: the condition is "all control bits are 1").
    """

    return first.targets == second.targets and set(first.controls) == set(
        second.controls
    )


def fuse_run(gates: Sequence[Gate]) -> Gate:
    """Fuse a run of mutually fusible gates into one :class:`Gate`.

    The fused matrix is the product of the constituent matrices in
    application order (later gates multiply from the left).  A single-gate
    run is returned unchanged, so fusing is the identity when there is
    nothing to fuse.
    """

    if not gates:
        raise GateError("cannot fuse an empty gate run")
    first = gates[0]
    if len(gates) == 1:
        return first
    for gate in gates[1:]:
        if not fusible(first, gate):
            raise GateError(
                f"gate {gate.name} (target {gate.target}, controls "
                f"{gate.controls}) is not fusible with {first.name} "
                f"(target {first.target}, controls {first.controls})"
            )
    matrix = np.eye(2, dtype=np.complex128)
    for gate in gates:
        matrix = gate.matrix @ matrix
    return Gate(
        name="fused(" + "+".join(gate.name for gate in gates) + ")",
        matrix=matrix,
        targets=first.targets,
        controls=first.controls,
    )


def fuse_gate_sequence(
    gates: Sequence[Gate], max_group: int | None = None
) -> tuple[list[Gate], FusionStats]:
    """Greedily fuse maximal runs of consecutive fusible gates.

    Parameters
    ----------
    gates:
        The gate sequence in application order.
    max_group:
        Optional cap on the number of gates per fused group (``None`` =
        unlimited).  Long products of unitaries stay unitary to well below
        the simulator's tolerance, so the cap exists mainly for experiments.
    """

    if max_group is not None and max_group < 1:
        raise ValueError("max_group must be >= 1 (or None)")
    fused: list[Gate] = []
    groups = 0
    largest = 1 if gates else 0
    run: list[Gate] = []

    def flush() -> None:
        nonlocal groups, largest
        if not run:
            return
        fused.append(fuse_run(run))
        if len(run) > 1:
            groups += 1
            largest = max(largest, len(run))
        run.clear()

    for gate in gates:
        if run and fusible(run[0], gate) and (
            max_group is None or len(run) < max_group
        ):
            run.append(gate)
        else:
            flush()
            run.append(gate)
    flush()

    stats = FusionStats(
        gates_in=len(gates),
        gates_out=len(fused),
        fused_groups=groups,
        max_group=largest,
    )
    return fused, stats


def fuse_circuit(
    circuit: QuantumCircuit, max_group: int | None = None
) -> tuple[QuantumCircuit, FusionStats]:
    """Return a fused copy of *circuit* plus the :class:`FusionStats`."""

    gates, stats = fuse_gate_sequence(circuit.gates, max_group=max_group)
    fused = QuantumCircuit(circuit.num_qubits, name=f"{circuit.name}_fused")
    fused.extend(gates)
    return fused, stats


@dataclass(frozen=True, eq=False)
class LocalRun:
    """Two or more consecutive in-block gates sharing one block round trip.

    Every constituent's target lies in the block-offset (``LOCAL``) segment
    and all share one set of block/rank controls, hence one touched-block
    set; :func:`repro.distributed.exchange.plan_gate` checks both against the
    partition it plans for.  The simulator treats a run like a fused group —
    one executed gate, one recompression — but applies the constituents one
    after another instead of as one matrix.
    """

    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        if len(self.gates) < 2:
            raise GateError("a local run has at least two gates; use local_run()")

    @property
    def name(self) -> str:
        """Mnemonic for messages and statistics."""

        return "run(" + "+".join(gate.name for gate in self.gates) + ")"

    def max_qubit(self) -> int:
        """Largest qubit index any constituent references."""

        return max(gate.max_qubit() for gate in self.gates)

    def key(self) -> tuple:
        """Cache-key identity: the constituents' keys, in order.

        Every element is a tuple where :meth:`Gate.key` starts with a string,
        so a run never aliases a single gate's or a fused group's cache line.
        """

        return tuple(gate.key() for gate in self.gates)


def local_run(gates: Sequence[Gate]) -> Gate | LocalRun:
    """*gates* as one schedule element: a run of one is the gate itself."""

    return gates[0] if len(gates) == 1 else LocalRun(tuple(gates))


def constituents(element: Gate | LocalRun) -> tuple[Gate, ...]:
    """The gates a schedule element applies, in order."""

    return element.gates if isinstance(element, LocalRun) else (element,)


def form_local_runs(
    gates: Sequence[Gate], local_qubits: int, max_group: int | None = None
) -> list[Gate | LocalRun]:
    """Group maximal stretches of consecutive in-block gates into runs.

    A gate joins the current run when its target is below *local_qubits*
    (the partition's ``offset_bits``) and its controls at or above
    *local_qubits* are the run's; anything else ends the run.  Gates are
    never reordered, and a stretch of one stays the plain :class:`Gate`.
    *max_group* caps the constituents per run like it caps a fused group.
    """

    elements: list[Gate | LocalRun] = []
    run: list[Gate] = []
    run_outer: frozenset[int] = frozenset()

    def flush() -> None:
        if run:
            elements.append(local_run(run))
            run.clear()

    for gate in gates:
        if gate.target >= local_qubits:
            flush()
            elements.append(gate)
            continue
        outer = frozenset(c for c in gate.controls if c >= local_qubits)
        if outer != run_outer or (max_group is not None and len(run) >= max_group):
            flush()
        run_outer = outer
        run.append(gate)
    flush()
    return elements

"""Gate fusion: consecutive gates that stage the same blocks share a round trip.

The compressed simulator pays a decompress → apply → recompress round trip
over every touched block *per gate* (Figure 2), and the paper's own time
breakdown shows the compression stages dwarfing the arithmetic.  Consecutive
gates that need exactly the same blocks (or block pairs) in scratch can take
turns on one staging: decompress once, apply every gate in order, recompress
once.  :func:`form_runs` finds those stretches in one pass; a gate extends
the current :class:`Run` when

* its target lies *inside* a block and its block/rank-level controls are the
  run's — such gates touch the same set of blocks and never need a partner
  block — or
* its target lies above the block boundary and it has exactly the run's
  target and control set — such gates update the same amplitude pairs of the
  same block pairs (``rz`` after ``h`` on a rank qubit, two ``cp`` on the
  same pair of qubits).

The pass is purely syntactic (no commutation analysis, no reordering), and a
run keeps its constituents as separate 2x2 steps — nothing is multiplied —
so under lossless compression it performs exactly the floating-point
operations of the gate-by-gate schedule: fusion on or off, every tier, the
result is bit-equal to the dense simulator's.  Under lossy compression a run
is quantised once instead of once per gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Sequence

from .gates import Gate, GateError

__all__ = ["Run", "run_of", "constituents", "form_runs"]


@dataclass(frozen=True, eq=False)
class Run:
    """Two or more consecutive gates sharing one block round trip.

    Either every constituent targets the block-offset (``LOCAL``) segment
    under one set of block/rank controls, or all share one non-local target
    and one control set; :func:`repro.distributed.exchange.plan_gate` checks
    this against the partition it plans for.  The simulator treats a run as
    one schedule element — one executed gate, one recompression — and applies
    the constituents one after another.
    """

    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        if len(self.gates) < 2:
            raise GateError("a run has at least two gates; use run_of()")

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
        so a run never aliases a single gate's cache line.
        """

        return tuple(gate.key() for gate in self.gates)


def run_of(gates: Sequence[Gate]) -> Gate | Run:
    """*gates* as one schedule element: a run of one is the gate itself."""

    return gates[0] if len(gates) == 1 else Run(tuple(gates))


def constituents(element: Gate | Run) -> tuple[Gate, ...]:
    """The gates a schedule element applies, in order."""

    return element.gates if isinstance(element, Run) else (element,)


def _staging(gate: Gate, local_qubits: int) -> tuple:
    """What *gate* needs staged: two gates with equal values share a run."""

    if gate.target < local_qubits:
        return None, frozenset(c for c in gate.controls if c >= local_qubits)
    return gate.target, frozenset(gate.controls)


def form_runs(gates: Sequence[Gate], local_qubits: int) -> list[Gate | Run]:
    """Group maximal stretches of consecutive same-staging gates into runs.

    *local_qubits* is the partition's ``offset_bits``: targets below it lie
    inside a block.  Gates are never reordered, anything that changes the
    staging (see the module docstring) ends the run, and a stretch of one
    stays the plain :class:`Gate`.
    """

    return [
        run_of(list(stretch))
        for _, stretch in groupby(gates, lambda gate: _staging(gate, local_qubits))
    ]

"""Gate fusion: consecutive gates that need the same blocks staged share a
round trip.

The compressed simulator pays a decompress → apply → recompress round trip
over every touched block *per gate* (Figure 2), and the paper's own time
breakdown shows the compression stages dwarfing the arithmetic.  Consecutive
gates whose updates can be made on one staging take turns on it: decompress
once, apply every gate in order, recompress once.  :func:`form_runs` finds
those stretches in one pass, asking of each gate what it actually mixes:

* Three consecutive gates ``cx(c, t) · d(t) · cx(c, t)`` — the two CX
  identical with exactly one control, ``d`` an exactly diagonal 2x2 whose
  controls do not include ``c`` — are first replaced by one
  :class:`ParityPhase` step: ``d`` applied on the parity ``x_c ⊕ x_t``.
  That product is diagonal, so wherever ``c`` and ``t`` lie the step is
  one-block.  QAOA's cost layer is one such sandwich per edge.
* A gate is **one-block** when its target lies inside a block, or when its
  2x2 is exactly diagonal (``z``, ``s``, ``t``, ``p``, ``rz``, and as
  controlled forms ``cz`` / ``cp``): a diagonal never mixes an amplitude
  pair, so wherever its target lies it multiplies each block by a phase on
  its own — no partner block, no rank exchange.  Consecutive one-block steps
  form one run *whatever their controls*; block- and rank-level controls
  (and the block-index bits of a diagonal's target or parity) only decide,
  per block, which of the run's steps apply there.
* Any other gate — a mixing 2x2 on a target above the block boundary — needs
  a **pair** run keyed on its target and its non-local controls: such gates
  update the same amplitude pairs of the same block pairs.  Gates with that
  key join it whatever their *local* controls are (those are per-amplitude
  masks inside the staged pair), and so does a diagonal gate with that key.
* A pair run whose key has **no non-local controls** stages every block of
  the state, so every one-block step next to it rides the same round trip:
  a one-block step joins such an open pair run, and a mixing step with such
  a key takes over an open one-block run.  A pair run under non-local
  controls stages only some blocks and takes no one-block step it could not
  take by key.

A step joins the open run when one of these rules lets it; otherwise it
opens a run under the key it prefers (one-block for a diagonal).  The pass is
purely syntactic (no commutation analysis, no reordering), and a run keeps
its steps separate — nothing is multiplied.  A :class:`ParityPhase` computes
each amplitude as the middle gate would, ``d[p, p] * x``, where the CX pair
only moves amplitudes; so under lossless compression fusion on or off, every
tier, the result is equal to the dense simulator's.  Under lossy compression
a run is quantised once instead of once per gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .gates import Gate, GateError

__all__ = ["ParityPhase", "Run", "run_of", "constituents", "parity_of", "form_runs"]


def _is_sandwich(first: Gate, middle: Gate, last: Gate) -> bool:
    """Whether ``first · middle · last`` is ``cx(c, t) · d(t) · cx(c, t)``
    with ``d`` exactly diagonal and ``c`` not among ``d``'s controls."""

    matrix = first.matrix
    return (
        len(first.controls) == 1
        and first.target == middle.target == last.target
        and first.controls == last.controls
        and first.controls[0] not in middle.controls
        and matrix[0, 0] == 0 == matrix[1, 1]
        and matrix[0, 1] == 1 == matrix[1, 0]
        and middle.is_diagonal
        and first.key() == last.key()
    )


@dataclass(frozen=True, eq=False)
class ParityPhase:
    """``cx(c, t) · d(t) · cx(c, t)`` as one diagonal step.

    The CX pair maps ``x_t`` to ``x_c ⊕ x_t`` and back, so the product
    multiplies every amplitude whose ``d``-controls are set by
    ``d[p, p]``, ``p = x_c ⊕ x_t``: ``d`` applied on that parity.  It never
    mixes an amplitude pair, so it is a one-block step wherever ``c`` and
    ``t`` lie.  It offers what the planner and the simulator read of a
    :class:`Gate` (:attr:`matrix`, :attr:`target`, :attr:`controls`,
    :attr:`is_diagonal`, :meth:`key`, :meth:`max_qubit`, :attr:`name`) plus
    the :attr:`parity` bit mask.
    """

    gates: tuple[Gate, Gate, Gate]

    def __post_init__(self) -> None:
        if len(self.gates) != 3 or not _is_sandwich(*self.gates):
            raise GateError(
                "a parity phase is cx(c, t) . d(t) . cx(c, t) with d diagonal "
                "and c not among d's controls"
            )

    @classmethod
    def _of_sandwich(cls, gates: tuple[Gate, Gate, Gate]) -> "ParityPhase":
        """The parity phase of *gates*, which :func:`_is_sandwich` has
        already passed: :func:`_steps` tests every triple once, so this
        skips the constructor's repeat of that test."""

        phase = object.__new__(cls)
        object.__setattr__(phase, "gates", gates)
        return phase

    @property
    def matrix(self) -> np.ndarray:
        """The middle gate's diagonal 2x2."""

        return self.gates[1].matrix

    @property
    def target(self) -> int:
        """The CX target ``t``, which the middle gate acts on."""

        return self.gates[1].target

    @property
    def controls(self) -> tuple[int, ...]:
        """The middle gate's controls (the CX control is in :attr:`parity`)."""

        return self.gates[1].controls

    @property
    def is_diagonal(self) -> bool:
        """Always true: the step multiplies each amplitude by a phase."""

        return True

    @property
    def parity(self) -> int:
        """Bit mask of ``c`` and ``t``, whose parity picks ``d``'s entry."""

        return 1 << self.gates[0].controls[0] | 1 << self.target

    @property
    def name(self) -> str:
        """Mnemonic for messages and statistics."""

        return "parity(" + "+".join(gate.name for gate in self.gates) + ")"

    def max_qubit(self) -> int:
        """Largest qubit index any of the three gates references."""

        return max(gate.max_qubit() for gate in self.gates)

    def key(self) -> tuple:
        """Cache-key identity: a tag plus all three gate keys.

        The tag keeps it apart from a :class:`Run` of the same three gates
        and, as a string followed by a tuple of tuples, from any
        :meth:`Gate.key`.
        """

        return ("parity",) + tuple(gate.key() for gate in self.gates)


#: A schedule step: one 2x2 gate, or a sandwich applied as one phase.
Step = Gate | ParityPhase


def parity_of(step: Step) -> int:
    """Bit mask of the qubits whose parity picks a diagonal step's entry:
    a gate's own target, a :class:`ParityPhase`'s ``c`` and ``t``."""

    return step.parity if isinstance(step, ParityPhase) else 1 << step.target


@dataclass(frozen=True, eq=False)
class Run:
    """Two or more consecutive steps sharing one block round trip.

    Either every constituent is one-block (an in-block target, a diagonal
    2x2, or a :class:`ParityPhase`), or the run stages block pairs: its
    mixing gates share one non-local target and one set of non-local
    controls, and when that set is empty any one-block step may ride along.
    :func:`repro.distributed.exchange.plan_gate` checks this against the
    partition it plans for.  The simulator treats a run as one schedule
    element — one executed gate, one recompression — and applies the
    constituents one after another.
    """

    gates: tuple[Step, ...]

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

        Every element is a tuple where a step's key starts with a string, so
        a run never aliases a single step's cache line.
        """

        return tuple(gate.key() for gate in self.gates)


def run_of(steps: Sequence[Step]) -> Step | Run:
    """*steps* as one schedule element: a run of one is the step itself."""

    return steps[0] if len(steps) == 1 else Run(tuple(steps))


def constituents(element: Step | Run) -> tuple[Step, ...]:
    """The steps a schedule element applies, in order."""

    return element.gates if isinstance(element, Run) else (element,)


#: Key of a run that stages one block at a time.
ONE_BLOCK = None


def _keys(step: Step, local_qubits: int) -> tuple:
    """The run keys *step* can take, the one it opens a run under first."""

    if isinstance(step, ParityPhase) or step.target < local_qubits:
        return (ONE_BLOCK,)
    pair = (step.target, frozenset(c for c in step.controls if c >= local_qubits))
    return (ONE_BLOCK, pair) if step.is_diagonal else (pair,)


def _stages_every_block(key: object) -> bool:
    """Whether a run open under *key* stages every block: a one-block run,
    or a pair run without non-local controls."""

    return key is ONE_BLOCK or (bool(key) and not key[1])


def _steps(gates: Sequence[Gate]) -> Iterator[Step]:
    """*gates* in order, each ``cx · d · cx`` sandwich as one
    :class:`ParityPhase` (matched left to right, never overlapping)."""

    index, count = 0, len(gates)
    while index < count:
        if index + 2 < count and _is_sandwich(*gates[index : index + 3]):
            yield ParityPhase._of_sandwich(tuple(gates[index : index + 3]))
            index += 3
        else:
            yield gates[index]
            index += 1


def form_runs(gates: Sequence[Gate], local_qubits: int) -> list[Step | Run]:
    """Group maximal stretches of consecutive steps into runs.

    *local_qubits* is the partition's ``offset_bits``: targets below it lie
    inside a block.  Each ``cx · d · cx`` sandwich becomes one
    :class:`ParityPhase` first.  Steps are never reordered; a step that
    cannot join the open run (see the module docstring) ends it, and a
    stretch of one stays the plain step.
    """

    stretches: list[list[Step]] = []
    open_key: object = ()  # no step's key
    for step in _steps(gates):
        keys = _keys(step, local_qubits)
        if open_key in keys or (
            keys[0] is ONE_BLOCK and _stages_every_block(open_key)
        ):
            pass  # its own key, or a one-block step riding an open pair run
        elif open_key is ONE_BLOCK and _stages_every_block(keys[0]):
            open_key = keys[0]  # a mixing step takes the one-block run over
        else:
            open_key = keys[0]
            stretches.append([])
        stretches[-1].append(step)
    return [run_of(stretch) for stretch in stretches]

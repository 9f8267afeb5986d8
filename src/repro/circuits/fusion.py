"""Gate fusion: consecutive gates that need the same blocks staged share a
round trip.

The compressed simulator pays a decompress → apply → recompress round trip
over every touched block *per gate* (Figure 2), and the paper's own time
breakdown shows the compression stages dwarfing the arithmetic.  Consecutive
gates whose updates can be made on one staging take turns on it: decompress
once, apply every gate in order, recompress once.  :func:`form_runs` finds
those stretches in one pass, asking of each gate what it actually mixes:

* A gate is **one-block** when its target lies inside a block, or when its
  2x2 is exactly diagonal (``z``, ``s``, ``t``, ``p``, ``rz``, and as
  controlled forms ``cz`` / ``cp``): a diagonal never mixes an amplitude
  pair, so wherever its target lies it multiplies each block by a phase on
  its own — no partner block, no rank exchange.  Consecutive one-block gates
  form one run *whatever their controls*; block- and rank-level controls
  (and a non-local diagonal target's bit) only decide, per block, which of
  the run's steps apply there.
* Any other gate — a mixing 2x2 on a target above the block boundary — opens
  a **pair** run keyed on its target and its non-local controls: such gates
  update the same amplitude pairs of the same block pairs.  Gates with that
  key join it whatever their *local* controls are (those are per-amplitude
  masks inside the staged pair), and so does a diagonal gate with that key:
  ``cx · rz · cx`` on a non-local target under a local control is one pair
  round trip, not three.

A gate joins the open run when the run's key is one it can take; otherwise it
opens a run under the key it prefers (one-block for a diagonal).  The pass is
purely syntactic (no commutation analysis, no reordering), and a run keeps
its constituents as separate 2x2 steps — nothing is multiplied — so under
lossless compression fusion on or off, every tier, the result is equal to the
dense simulator's.  Under lossy compression a run is quantised once instead
of once per gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .gates import Gate, GateError

__all__ = ["Run", "run_of", "constituents", "form_runs"]


@dataclass(frozen=True, eq=False)
class Run:
    """Two or more consecutive gates sharing one block round trip.

    Either every constituent is one-block (an in-block target, or a diagonal
    2x2), or all share one non-local target and one set of non-local
    controls; :func:`repro.distributed.exchange.plan_gate` checks this
    against the partition it plans for.  The simulator treats a run as one
    schedule element — one executed gate, one recompression — and applies the
    constituents one after another.
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


#: Key of a run that stages one block at a time.
ONE_BLOCK = None


def _keys(gate: Gate, local_qubits: int) -> tuple:
    """The run keys *gate* can take, the one it opens a run under first."""

    if gate.target < local_qubits:
        return (ONE_BLOCK,)
    pair = (gate.target, frozenset(c for c in gate.controls if c >= local_qubits))
    return (ONE_BLOCK, pair) if gate.is_diagonal else (pair,)


def form_runs(gates: Sequence[Gate], local_qubits: int) -> list[Gate | Run]:
    """Group maximal stretches of consecutive gates into runs.

    *local_qubits* is the partition's ``offset_bits``: targets below it lie
    inside a block.  Gates are never reordered; a gate that cannot take the
    open run's key (see the module docstring) ends it, and a stretch of one
    stays the plain :class:`Gate`.
    """

    stretches: list[list[Gate]] = []
    open_key: object = ()  # no gate's key
    for gate in gates:
        keys = _keys(gate, local_qubits)
        if open_key not in keys:
            open_key = keys[0]
            stretches.append([])
        stretches[-1].append(gate)
    return [run_of(stretch) for stretch in stretches]

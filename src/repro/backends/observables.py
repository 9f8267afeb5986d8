"""Pauli-string observables evaluated without densifying the state.

A :class:`PauliObservable` is a real-weighted sum of Pauli strings such as
``0.5*ZZI + 0.25*IXX``.  The string convention is positional: **character
``i`` acts on qubit ``i``** (the leftmost character is qubit 0), matching
the bit convention used everywhere else in this codebase (qubit ``i`` is bit
``i`` of the basis-state integer).

``expectation()`` accepts a dense vector, a :class:`DenseSimulator` or a
:class:`CompressedSimulator` and never materialises the compressed state:

* **Diagonal terms** (``I``/``Z`` only) are evaluated blockwise —
  ``Σ |a_j|² · (-1)^{popcount(j & zmask)}`` — by
  :meth:`~repro.core.CompressedSimulator.block_reduction`: one decompress
  and one in-block Walsh–Hadamard transform per block serve every term (on
  the ranked tier, inside the rank workers).
* **Off-diagonal terms** (containing ``X``/``Y``) are rotated into the Z
  basis first: the state is forked (compressed blobs are immutable, so a
  fork is just a new block table), the basis-change gates (``H`` for X,
  ``S† H`` for Y) run through the normal compressed gate path, and the term
  becomes diagonal on the fork.  Terms sharing the same rotation signature
  share one fork.

This is what lets 30+-qubit QAOA energies come straight off the compressed
representation instead of via ``statevector()``.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from ..circuits.gates import standard_gate
from ..core.simulator import CompressedSimulator
from ..statevector import ops
from ..statevector.dense import DenseSimulator
from ..statevector.measurement import diagonal_partials

__all__ = ["PauliObservable"]

_VALID = frozenset("IXYZ")

#: One rotation group: the ``((qubit, 'X'|'Y'), ...)`` basis-change signature
#: (empty for the diagonal terms), then the coefficients and the Z masks of
#: the terms sharing it.
_Group = tuple[tuple[tuple[int, str], ...], tuple[float, ...], tuple[int, ...]]


class DiagonalSums(NamedTuple):
    """A block reduction summed over the blocks: the state's mass and, per Z
    mask, ``Σ_j |a_j|²·(-1)^{popcount(j & zmask)}``."""

    mass: float
    sums: dict[int, float]

    @classmethod
    def of(
        cls, masses: np.ndarray, partials: np.ndarray, zmasks: Sequence[int]
    ) -> "DiagonalSums":
        """Sum a :meth:`~repro.core.CompressedSimulator.block_reduction`'s
        rows in their rank-major order — the same order on every tier, so
        the sums are bit-identical across tiers."""

        mass = float(masses.sum())
        if mass <= 0.0:
            raise ValueError("cannot take an expectation of a zero state")
        return cls(mass, dict(zip(zmasks, partials.sum(axis=0).tolist())))

    @classmethod
    def reduce(
        cls, simulator: CompressedSimulator, zmasks: Sequence[int]
    ) -> "DiagonalSums":
        """Reduce *simulator*'s blocks for *zmasks* and sum them."""

        return cls.of(*simulator.block_reduction(zmasks), zmasks)

    def value(self, coefficients: Sequence[float], zmasks: Sequence[int]) -> float:
        """``Σ coeff · sum / mass`` over one group's terms."""

        return sum(
            coeff * self.sums[zmask] / self.mass
            for coeff, zmask in zip(coefficients, zmasks)
        )


class PauliObservable:
    """A real-weighted sum of Pauli strings over a fixed register width.

    Parameters
    ----------
    paulis:
        A single Pauli string (``"ZZI"``) for a one-term observable.  Use
        :meth:`from_terms` or the ``+`` / ``*`` operators for weighted sums.
    coefficient:
        Weight of the single term (default 1.0).
    label:
        Name used to key this observable's value in :class:`Result`
        ``expectations``; derived from the terms when omitted.
    """

    def __init__(
        self, paulis: str, coefficient: float = 1.0, *, label: str | None = None
    ) -> None:
        self._set_terms(self._validate_terms([(float(coefficient), paulis)]))
        self._label = label

    def _set_terms(self, terms: tuple[tuple[float, str], ...]) -> None:
        # Terms are immutable, so their rotation groups are built once here.
        self._terms = terms
        self._groups = self._rotation_groups(terms)

    # -- construction ---------------------------------------------------------------

    @staticmethod
    def _validate_terms(
        terms: Iterable[tuple[float, str]]
    ) -> tuple[tuple[float, str], ...]:
        cleaned: dict[str, float] = {}
        width: int | None = None
        for coefficient, paulis in terms:
            if not isinstance(paulis, str) or not paulis:
                raise ValueError("a Pauli string must be a non-empty str")
            paulis = paulis.upper()
            invalid = set(paulis) - _VALID
            if invalid:
                raise ValueError(
                    f"invalid Pauli character(s) {sorted(invalid)} in {paulis!r}"
                )
            if width is None:
                width = len(paulis)
            elif len(paulis) != width:
                raise ValueError(
                    f"all terms must have the same width, got {len(paulis)} "
                    f"and {width}"
                )
            coefficient = float(coefficient)
            if not np.isfinite(coefficient):
                raise ValueError("coefficients must be finite")
            cleaned[paulis] = cleaned.get(paulis, 0.0) + coefficient
        if not cleaned:
            raise ValueError("an observable needs at least one term")
        return tuple((coeff, paulis) for paulis, coeff in cleaned.items())

    @classmethod
    def from_terms(
        cls,
        terms: Iterable[tuple[float, str]] | Mapping[str, float],
        *,
        label: str | None = None,
    ) -> "PauliObservable":
        """Build a weighted sum: ``from_terms([(0.5, "ZZ"), (0.25, "XX")])``.

        Duplicate strings have their coefficients summed.
        """

        if isinstance(terms, Mapping):
            terms = [(coeff, paulis) for paulis, coeff in terms.items()]
        observable = cls.__new__(cls)
        observable._set_terms(cls._validate_terms(terms))
        observable._label = label
        return observable

    @classmethod
    def single(
        cls, pauli: str, qubit: int, num_qubits: int, coefficient: float = 1.0
    ) -> "PauliObservable":
        """One Pauli on one qubit, identities elsewhere: ``single("Z", 2, 5)``."""

        if pauli.upper() not in ("X", "Y", "Z"):
            raise ValueError("pauli must be one of X, Y, Z")
        if not 0 <= qubit < num_qubits:
            raise ValueError(f"qubit {qubit} out of range for {num_qubits} qubits")
        chars = ["I"] * num_qubits
        chars[qubit] = pauli.upper()
        return cls("".join(chars), coefficient)

    @classmethod
    def zz(
        cls, qubit_a: int, qubit_b: int, num_qubits: int, coefficient: float = 1.0
    ) -> "PauliObservable":
        """``Z_a Z_b`` on a *num_qubits*-wide register (the MAXCUT edge term)."""

        if qubit_a == qubit_b:
            raise ValueError("zz() needs two distinct qubits")
        for qubit in (qubit_a, qubit_b):
            if not 0 <= qubit < num_qubits:
                raise ValueError(
                    f"qubit {qubit} out of range for {num_qubits} qubits"
                )
        chars = ["I"] * num_qubits
        chars[qubit_a] = "Z"
        chars[qubit_b] = "Z"
        return cls("".join(chars), coefficient)

    # -- basic accessors ------------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[float, str], ...]:
        """``(coefficient, pauli_string)`` pairs, duplicates merged."""

        return self._terms

    @property
    def num_qubits(self) -> int:
        """Register width every term acts on (length of the Pauli strings)."""

        return len(self._terms[0][1])

    @property
    def label(self) -> str:
        """Key under which ``Result.expectations`` records this observable."""

        if self._label is not None:
            return self._label
        return " + ".join(
            f"{coeff:g}*{paulis}" for coeff, paulis in self._terms
        )

    def with_label(self, label: str) -> "PauliObservable":
        """A copy of this observable under a different result key."""

        return PauliObservable.from_terms(self._terms, label=label)

    @property
    def diagonal_zmasks(self) -> tuple[int, ...]:
        """Z masks of the terms that need no basis change (I/Z only)."""

        for rotations, _coefficients, zmasks in self._groups:
            if not rotations:
                return zmasks
        return ()

    @property
    def is_diagonal(self) -> bool:
        """Whether every term is built from I/Z only (no basis change needed)."""

        return all(
            not (set(paulis) & {"X", "Y"}) for _coeff, paulis in self._terms
        )

    def coefficient_norm(self) -> float:
        """``Σ |coefficient|`` — bounds ``|expectation|`` for unit-norm states."""

        return float(sum(abs(coeff) for coeff, _paulis in self._terms))

    # -- algebra ---------------------------------------------------------------------

    def __add__(self, other: "PauliObservable") -> "PauliObservable":
        if not isinstance(other, PauliObservable):
            return NotImplemented
        if other.num_qubits != self.num_qubits:
            raise ValueError("cannot add observables of different widths")
        return PauliObservable.from_terms(self._terms + other._terms)

    def __sub__(self, other: "PauliObservable") -> "PauliObservable":
        if not isinstance(other, PauliObservable):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, scalar: float) -> "PauliObservable":
        if not isinstance(scalar, (int, float, np.integer, np.floating)):
            return NotImplemented
        return PauliObservable.from_terms(
            [(float(scalar) * coeff, paulis) for coeff, paulis in self._terms],
            label=self._label,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "PauliObservable":
        return (-1.0) * self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PauliObservable({self.label!r}, qubits={self.num_qubits})"

    # -- evaluation helpers ----------------------------------------------------------

    @staticmethod
    def _rotation_groups(terms: Sequence[tuple[float, str]]) -> tuple[_Group, ...]:
        """Group terms by basis-change signature.

        Each group is ``(rotations, coefficients, zmasks)``, where a term's
        *zmask* selects every non-identity position of the rotated (now
        diagonal) term.  The empty signature holds the diagonal terms.
        """

        groups: dict[tuple[tuple[int, str], ...], list[tuple[float, int]]] = {}
        for coeff, paulis in terms:
            rotations = tuple(
                (qubit, char)
                for qubit, char in enumerate(paulis)
                if char in ("X", "Y")
            )
            zmask = 0
            for qubit, char in enumerate(paulis):
                if char != "I":
                    zmask |= 1 << qubit
            groups.setdefault(rotations, []).append((coeff, zmask))
        return tuple(
            (rotations, *map(tuple, zip(*members)))
            for rotations, members in groups.items()
        )

    @staticmethod
    def _basis_change_gates(rotations: Sequence[tuple[int, str]]):
        """Gates mapping each X/Y factor onto Z: H for X, then S†·H for Y."""

        gates = []
        for qubit, char in rotations:
            if char == "Y":
                gates.append(standard_gate("sdg", qubit))
            gates.append(standard_gate("h", qubit))
        return gates

    # -- evaluation -------------------------------------------------------------------

    def expectation(
        self, state: np.ndarray | DenseSimulator | CompressedSimulator
    ) -> float:
        """``<ψ|O|ψ> / <ψ|ψ>`` on a dense vector or either simulator.

        The compressed path never calls ``statevector()``: diagonal terms
        come from one block reduction, X/Y terms from the same reduction of
        a forked compressed state after its basis-change gates.  Normalising by the state's
        own mass keeps lossy-compression norm drift out of the value.
        """

        if isinstance(state, CompressedSimulator):
            return self._expectation_compressed(state)
        if isinstance(state, DenseSimulator):
            return self._expectation_dense(state.state)
        return self._expectation_dense(np.asarray(state, dtype=np.complex128))

    def _expectation_dense(self, vector: np.ndarray) -> float:
        expected = 1 << self.num_qubits
        if vector.shape != (expected,):
            raise ValueError(
                f"observable acts on {self.num_qubits} qubits but the state "
                f"has shape {vector.shape}, expected ({expected},)"
            )
        norm = float(np.sum(np.abs(vector) ** 2))
        if norm <= 0.0:
            raise ValueError("cannot take an expectation of a zero state")
        total = 0.0
        for rotations, coefficients, zmasks in self._groups:
            if rotations:
                rotated = vector.copy()
                for gate in self._basis_change_gates(rotations):
                    ops.apply_single_qubit(rotated, gate.matrix, gate.target)
            else:
                rotated = vector
            # The whole vector is one block at base 0.
            partials = diagonal_partials(np.abs(rotated) ** 2, 0, zmasks)
            for coeff, partial in zip(coefficients, partials.tolist()):
                total += coeff * partial
        return total / norm

    def _expectation_compressed(
        self,
        simulator: CompressedSimulator,
        diagonal: DiagonalSums | None = None,
    ) -> float:
        """The compressed path; *diagonal*, when given, is a reduction of
        *simulator* already covering :attr:`diagonal_zmasks` (the backend
        reduces once for every observable of a circuit)."""

        if simulator.num_qubits != self.num_qubits:
            raise ValueError(
                f"observable acts on {self.num_qubits} qubits but the "
                f"simulator has {simulator.num_qubits}"
            )
        total = 0.0
        for rotations, coefficients, zmasks in self._groups:
            if rotations:
                fork = simulator.fork()
                try:
                    for gate in self._basis_change_gates(rotations):
                        fork.apply_gate(gate)
                    total += DiagonalSums.reduce(fork, zmasks).value(
                        coefficients, zmasks
                    )
                finally:
                    fork.close()
            else:
                if diagonal is None:
                    diagonal = DiagonalSums.reduce(simulator, zmasks)
                total += diagonal.value(coefficients, zmasks)
        return total

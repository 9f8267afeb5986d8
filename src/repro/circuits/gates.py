"""Quantum gate definitions.

This module is the gate-level substrate for the whole reproduction.  It
provides

* the standard single-qubit and two-qubit unitary matrices used by the
  paper's benchmark circuits (Grover, random circuit sampling, QAOA, QFT),
* the :class:`Gate` record, which is the unit of work consumed by both the
  dense reference simulator (``repro.statevector``) and the compressed
  simulator (``repro.core``), and
* helpers to validate unitarity and to build controlled/parameterised gates.

The simulators never build the full ``2^n x 2^n`` operator.  A gate carries
only its small ``2x2`` (or ``4x4`` / ``8x8``) matrix plus the qubit indices
it acts on; the simulators apply the matrix to amplitude pairs selected by
bit arithmetic exactly as described in Section 3.1 (Eq. 6 and Eq. 7) of the
paper.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Gate",
    "GateError",
    "is_unitary",
    "is_exactly_diagonal",
    "I",
    "X",
    "Y",
    "Z",
    "H",
    "S",
    "SDG",
    "T",
    "TDG",
    "SX",
    "rx",
    "ry",
    "rz",
    "u1",
    "u2",
    "u3",
    "phase",
    "cnot_matrix",
    "cz_matrix",
    "swap_matrix",
    "toffoli_matrix",
    "controlled",
    "GATE_ALIASES",
    "standard_gate",
]

# Numerical tolerance used when checking unitarity and normalisation.
_ATOL = 1e-10


class GateError(ValueError):
    """Raised when a gate is constructed with inconsistent data."""


def is_unitary(matrix: np.ndarray, atol: float = _ATOL) -> bool:
    """Return ``True`` when *matrix* is unitary within *atol*."""

    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    identity = np.eye(matrix.shape[0], dtype=np.complex128)
    return bool(np.allclose(matrix.conj().T @ matrix, identity, atol=atol))


def is_exactly_diagonal(matrix: np.ndarray) -> bool:
    """Return ``True`` when the 2x2 *matrix* is exactly diagonal: it never
    mixes a pair, so each side is only multiplied by its own entry."""

    return bool(matrix[0, 1] == 0 == matrix[1, 0])


# ---------------------------------------------------------------------------
# Fixed single-qubit matrices
# ---------------------------------------------------------------------------

I = np.eye(2, dtype=np.complex128)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)

Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)

Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)

H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)

S = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=np.complex128)

SDG = S.conj().T

T = np.array([[1.0, 0.0], [0.0, cmath.exp(1j * math.pi / 4.0)]], dtype=np.complex128)

TDG = T.conj().T

SX = 0.5 * np.array(
    [[1.0 + 1.0j, 1.0 - 1.0j], [1.0 - 1.0j, 1.0 + 1.0j]], dtype=np.complex128
)


# ---------------------------------------------------------------------------
# Parameterised single-qubit matrices
# ---------------------------------------------------------------------------


def rx(theta: float) -> np.ndarray:
    """Rotation about the X axis by angle *theta*."""

    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def ry(theta: float) -> np.ndarray:
    """Rotation about the Y axis by angle *theta*."""

    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def rz(theta: float) -> np.ndarray:
    """Rotation about the Z axis by angle *theta*."""

    return np.array(
        [[cmath.exp(-0.5j * theta), 0.0], [0.0, cmath.exp(0.5j * theta)]],
        dtype=np.complex128,
    )


def phase(lam: float) -> np.ndarray:
    """Phase gate ``diag(1, e^{i lambda})``."""

    return np.array([[1.0, 0.0], [0.0, cmath.exp(1j * lam)]], dtype=np.complex128)


def u1(lam: float) -> np.ndarray:
    """IBM-style ``u1`` gate (alias of :func:`phase`)."""

    return phase(lam)


def u2(phi: float, lam: float) -> np.ndarray:
    """IBM-style ``u2`` gate: a pi/2 rotation with two phases."""

    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return np.array(
        [
            [inv_sqrt2, -cmath.exp(1j * lam) * inv_sqrt2],
            [cmath.exp(1j * phi) * inv_sqrt2, cmath.exp(1j * (phi + lam)) * inv_sqrt2],
        ],
        dtype=np.complex128,
    )


def u3(theta: float, phi: float, lam: float) -> np.ndarray:
    """General single-qubit unitary parameterised by three Euler angles."""

    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ],
        dtype=np.complex128,
    )


# ---------------------------------------------------------------------------
# Multi-qubit matrices (used by the dense reference simulator and tests;
# the blocked simulators decompose controlled gates into conditional 2x2
# applications instead, per Eq. 7)
# ---------------------------------------------------------------------------


def cnot_matrix() -> np.ndarray:
    """4x4 CNOT matrix with qubit ordering (control, target)."""

    m = np.eye(4, dtype=np.complex128)
    m[2:, 2:] = X
    return m


def cz_matrix() -> np.ndarray:
    """4x4 controlled-Z matrix."""

    m = np.eye(4, dtype=np.complex128)
    m[3, 3] = -1.0
    return m


def swap_matrix() -> np.ndarray:
    """4x4 SWAP matrix."""

    m = np.zeros((4, 4), dtype=np.complex128)
    m[0, 0] = 1.0
    m[1, 2] = 1.0
    m[2, 1] = 1.0
    m[3, 3] = 1.0
    return m


def toffoli_matrix() -> np.ndarray:
    """8x8 Toffoli (CCX) matrix with ordering (control, control, target)."""

    m = np.eye(8, dtype=np.complex128)
    m[6, 6] = 0.0
    m[7, 7] = 0.0
    m[6, 7] = 1.0
    m[7, 6] = 1.0
    return m


def controlled(unitary: np.ndarray) -> np.ndarray:
    """Return the controlled version of a single-qubit *unitary* (4x4)."""

    unitary = np.asarray(unitary, dtype=np.complex128)
    if unitary.shape != (2, 2):
        raise GateError("controlled() expects a 2x2 unitary")
    m = np.eye(4, dtype=np.complex128)
    m[2:, 2:] = unitary
    return m


# ---------------------------------------------------------------------------
# Gate record
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gate:
    """A single gate application in a circuit.

    Parameters
    ----------
    name:
        Mnemonic used for pretty printing, caching and statistics
        (``"h"``, ``"cx"``, ``"ccx"``, ...).
    matrix:
        The 2x2 unitary applied to the *target* qubit.  Controlled gates
        store only the target-qubit unitary; the control condition is
        expressed through :attr:`controls` as in Eq. 7 of the paper.
    targets:
        Target qubit indices.  All standard gates have exactly one target.
    controls:
        Control qubit indices (empty for uncontrolled gates).  The matrix is
        applied to the target amplitudes only when every control bit is 1.
    params:
        Optional gate parameters (rotation angles), retained for reporting.
    """

    name: str
    matrix: np.ndarray
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=np.complex128)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "targets", tuple(int(q) for q in self.targets))
        object.__setattr__(self, "controls", tuple(int(q) for q in self.controls))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if matrix.shape != (2, 2):
            raise GateError(
                f"gate '{self.name}' must carry a 2x2 target unitary, got {matrix.shape}"
            )
        if not is_unitary(matrix):
            raise GateError(f"gate '{self.name}' matrix is not unitary")
        if len(self.targets) != 1:
            raise GateError(f"gate '{self.name}' must have exactly one target qubit")
        touched = set(self.targets) | set(self.controls)
        if len(touched) != len(self.targets) + len(self.controls):
            raise GateError(
                f"gate '{self.name}' has overlapping target/control qubits"
            )
        if any(q < 0 for q in touched):
            raise GateError(f"gate '{self.name}' references a negative qubit index")

    # -- convenience accessors -------------------------------------------------

    @property
    def target(self) -> int:
        """The single target qubit index."""

        return self.targets[0]

    @property
    def is_diagonal(self) -> bool:
        """True when the 2x2 is exactly diagonal: it never mixes a pair."""

        return is_exactly_diagonal(self.matrix)

    @property
    def num_qubits(self) -> int:
        """Number of distinct qubits this gate touches."""

        return len(self.targets) + len(self.controls)

    @property
    def qubits(self) -> tuple[int, ...]:
        """All touched qubit indices, controls first then targets."""

        return self.controls + self.targets

    def max_qubit(self) -> int:
        """Largest qubit index referenced by the gate."""

        return max(self.qubits)

    def key(self) -> tuple:
        """A hashable identity usable as a cache key component.

        The matrix bytes participate so that parameterised gates with
        different angles hash differently; this is what the compressed block
        cache (Section 3.4) uses as its ``OP`` field.
        """

        return (self.name, self.targets, self.controls, self.matrix.tobytes())

    def dagger(self) -> "Gate":
        """Return the inverse gate."""

        return Gate(
            name=f"{self.name}dg",
            matrix=self.matrix.conj().T,
            targets=self.targets,
            controls=self.controls,
            params=tuple(-p for p in self.params),
        )

    def remapped(self, mapping: dict[int, int]) -> "Gate":
        """Return a copy of the gate with qubit indices remapped."""

        return Gate(
            name=self.name,
            matrix=self.matrix,
            targets=tuple(mapping.get(q, q) for q in self.targets),
            controls=tuple(mapping.get(q, q) for q in self.controls),
            params=self.params,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ctrl = f", controls={list(self.controls)}" if self.controls else ""
        par = f", params={list(self.params)}" if self.params else ""
        return f"Gate({self.name!r}, targets={list(self.targets)}{ctrl}{par})"


# ---------------------------------------------------------------------------
# Named-gate factory
# ---------------------------------------------------------------------------

#: Mapping of gate mnemonics to fixed 2x2 matrices (uncontrolled form).
GATE_ALIASES: dict[str, np.ndarray] = {
    "i": I,
    "id": I,
    "x": X,
    "y": Y,
    "z": Z,
    "h": H,
    "s": S,
    "sdg": SDG,
    "t": T,
    "tdg": TDG,
    "sx": SX,
}

#: Parameterised gate factories keyed by mnemonic and arity of parameters.
_PARAM_GATES = {
    "rx": (rx, 1),
    "ry": (ry, 1),
    "rz": (rz, 1),
    "p": (phase, 1),
    "u1": (u1, 1),
    "u2": (u2, 2),
    "u3": (u3, 3),
}


def standard_gate(
    name: str,
    targets: Sequence[int] | int,
    controls: Sequence[int] | int = (),
    params: Iterable[float] = (),
) -> Gate:
    """Construct a :class:`Gate` from a mnemonic.

    ``standard_gate("h", 3)`` builds a Hadamard on qubit 3;
    ``standard_gate("x", 0, controls=[2, 5])`` builds a Toffoli with target 0.
    """

    if isinstance(targets, int):
        targets = (targets,)
    if isinstance(controls, int):
        controls = (controls,)
    params = tuple(params)
    lname = name.lower()
    if lname in GATE_ALIASES:
        if params:
            raise GateError(f"gate '{name}' takes no parameters")
        matrix = GATE_ALIASES[lname]
    elif lname in _PARAM_GATES:
        factory, arity = _PARAM_GATES[lname]
        if len(params) != arity:
            raise GateError(
                f"gate '{name}' expects {arity} parameter(s), got {len(params)}"
            )
        matrix = factory(*params)
    else:
        raise GateError(f"unknown gate mnemonic '{name}'")
    return Gate(
        name=lname,
        matrix=matrix,
        targets=tuple(targets),
        controls=tuple(controls),
        params=params,
    )

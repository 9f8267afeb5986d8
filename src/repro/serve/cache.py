"""Content-addressed result cache: canonical request hashing + LRU store.

A cache key is the SHA-256 of a canonical JSON manifest of everything that
can change a deterministic run's *results*: the circuit (per-gate name,
targets, controls, exact parameter bits and a digest of the exact unitary
bytes), the result-affecting subset of the simulator config, the seed, the
shot count, the observables and the statevector flag.

Throughput-only knobs are deliberately **excluded** from the key
(:data:`EXCLUDED_CONFIG_FIELDS`): the engine documents bit-identical
results across executor tiers, worker counts, start methods,
communication tiers and fault policies, so two requests differing only
there *should* share a cache line.  Anything without that contract —
error levels, compressor choices, fusion settings, block geometry — is in
the key, so mutating it misses.

The cached value is the full ``Result.to_json()`` payload of the first
(cold) run; the bit-identity contract — a hit equals a cold rerun — is
expressed through :meth:`repro.backends.result.Result.canonical_json`,
which strips only measured wall-clock fields and service annotations.

Floats are canonicalised via ``float.hex()`` (exact bits, no decimal
rounding) and the gate matrix via the SHA-256 of its little-endian
``complex128`` bytes, so two gates are cache-equal iff their unitaries are
bit-equal.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import fields as dataclass_fields

import numpy as np

from ..backends.observables import PauliObservable
from ..circuits import QuantumCircuit
from ..core.config import SimulatorConfig

__all__ = [
    "cache_key",
    "cache_manifest",
    "ResultCache",
    "EXCLUDED_CONFIG_FIELDS",
]

#: SimulatorConfig fields that cannot change results, only throughput —
#: each carries an explicit bit-identity contract in its config docstring.
#: Everything else participates in the cache key.
EXCLUDED_CONFIG_FIELDS = (
    "num_workers",
    "executor",
    "mp_start_method",
    "comm",
    "fault_policy",
)


def _canonical_number(value):
    """JSON-safe exact encoding: floats via ``float.hex()``, ints as-is."""

    if isinstance(value, bool) or value is None or isinstance(value, int):
        return value
    return float(value).hex()


def _config_manifest(config: SimulatorConfig) -> dict:
    """The result-affecting config fields, exactly encoded."""

    manifest = {}
    for field in dataclass_fields(config):
        if field.name in EXCLUDED_CONFIG_FIELDS:
            continue
        value = getattr(config, field.name)
        if isinstance(value, tuple):
            value = [_canonical_number(entry) for entry in value]
        elif isinstance(value, float):
            value = _canonical_number(value)
        manifest[field.name] = value
    return manifest


def _circuit_manifest(circuit: QuantumCircuit) -> dict:
    """Per-gate exact identity: names, wiring, parameter and matrix bits."""

    gates = []
    for gate in circuit:
        matrix = np.ascontiguousarray(gate.matrix, dtype=np.complex128)
        gates.append(
            {
                "name": gate.name,
                "targets": list(gate.targets),
                "controls": list(gate.controls),
                "params": [float(p).hex() for p in gate.params],
                "matrix_sha256": hashlib.sha256(matrix.tobytes()).hexdigest(),
            }
        )
    return {"num_qubits": circuit.num_qubits, "gates": gates}


def _observables_manifest(observables) -> list:
    """Sorted-by-label observable terms (order cannot affect results)."""

    entries = []
    for observable in observables or ():
        if not isinstance(observable, PauliObservable):
            raise TypeError(
                f"expected PauliObservable, got {type(observable).__name__}"
            )
        entries.append(
            {
                "label": observable.label,
                "terms": [
                    [float(coeff).hex(), paulis]
                    for coeff, paulis in observable.terms
                ],
            }
        )
    entries.sort(key=lambda entry: entry["label"])
    return entries


def cache_manifest(
    circuit: QuantumCircuit,
    *,
    backend: str,
    config: SimulatorConfig,
    shots: int,
    seed: int | None,
    observables=(),
    return_statevector: bool = False,
) -> dict:
    """The canonical request manifest :func:`cache_key` hashes.

    Exposed separately so tests (and debugging sessions) can see *why* two
    requests hash differently: the manifest is an ordinary JSON-safe dict.
    """

    return {
        "backend": backend,
        "circuit": _circuit_manifest(circuit),
        "config": _config_manifest(config),
        "shots": int(shots),
        "seed": None if seed is None else int(seed),
        "observables": _observables_manifest(observables),
        "return_statevector": bool(return_statevector),
    }


def cache_key(
    circuit: QuantumCircuit,
    *,
    backend: str,
    config: SimulatorConfig,
    shots: int,
    seed: int | None,
    observables=(),
    return_statevector: bool = False,
) -> str:
    """SHA-256 hex digest of the canonical request manifest.

    Two requests share a key iff every result-affecting ingredient is
    bit-equal; see the module docstring for what is in and out of the key.
    """

    manifest = cache_manifest(
        circuit,
        backend=backend,
        config=config,
        shots=shots,
        seed=seed,
        observables=observables,
        return_statevector=return_statevector,
    )
    payload = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    """Bounded LRU mapping cache keys to cached ``Result`` JSON strings.

    Eviction is least-recently-*used*: a hit refreshes an entry's recency.
    The cache stores opaque strings (the service stores full
    ``Result.to_json()`` payloads), so a hit costs one JSON parse and zero
    simulation.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self._max_entries = int(max_entries)
        self._entries: OrderedDict[str, str] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> str | None:
        """The cached payload for *key*, or ``None`` (counts hit/miss)."""

        payload = self._entries.get(key)
        if payload is None:
            self._misses += 1
            return None
        self._entries.move_to_end(key)
        self._hits += 1
        return payload

    def put(self, key: str, payload: str) -> None:
        """Store *payload* under *key*, evicting the LRU entry when full."""

        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = payload
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)
            self._evictions += 1

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""

        self._entries.clear()

    def stats(self) -> dict:
        """Hit/miss/eviction counters plus occupancy, JSON-ready."""

        return {
            "entries": len(self._entries),
            "max_entries": self._max_entries,
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
        }

"""The untraced pass: warm-up with the correctness check, timed closed loop,
set-up probe, and the environment record.

One client, closed loop: the next ``repro.run()`` starts when the previous one
returns; the only parallelism is inside the program (never more than two
workers or ranks).  Each ``repro.run()`` opens a cold session in a warm
interpreter, so pool and rank spawn are inside ``wall_s``; what a fresh
interpreter pays on top is ``setup_s``.

``wall_s`` is reported in seconds of the recording host: the box this runs on
slows down by 20-40 % for seconds to minutes at a time (shared cores), so a
small fixed kernel is timed around every timed iteration and the measured wall
is divided by the slowdown it shows (:func:`host_speed`, :func:`slowdown`).  The
kernel touches nothing of ``repro``, so a slower program still reads slower.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import repro
from repro.compression.engines import available_engines
from repro.core import effective_cpu_count

from e2e_workloads import Case

__all__ = [
    "E2E",
    "DETERMINISTIC",
    "SETUP_PROBES",
    "Measurement",
    "measure",
    "setup_seconds",
    "host_speed",
    "reference_speed",
    "slowdown",
    "environment",
]

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

#: (name, unit, better, bound) of every end-to-end metric.  The bound is the
#: share of the parent's median a metric may worsen by, and is compared with
#: the spread over runs that each use *another* seed, so it spans input
#: variance as well as host noise: over ten seeds the random circuit moves
#: ratio and footprint by 4-9 % and wall by up to 9 %.  At one seed the last
#: three are exact, and ``--repeat-check`` holds them to equality.
E2E: tuple[tuple[str, str, str, float], ...] = (
    ("wall_s", "s", "lower", 0.25),
    ("gates_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_footprint_mib", "MiB", "lower", 0.25),
    ("min_ratio", "x", "higher", 0.25),
    ("fidelity", "1", "higher", 0.0001),
)
DETERMINISTIC = ("peak_footprint_mib", "min_ratio", "fidelity")

#: Fresh interpreters per ``setup_s`` sample set.
SETUP_PROBES = 3

#: Seconds the three calibration kernels (zlib, NumPy, interpreter) take on the
#: recording host when it is quiet; ``slowdown`` is relative to these.
_REFERENCE_S = np.array([0.0150, 0.0137, 0.0114])


def _calibration_inputs() -> tuple[bytes, np.ndarray]:
    rng = np.random.default_rng(0)
    compressible = np.round(rng.standard_normal(1 << 14), 2).tobytes()
    return compressible, rng.standard_normal(4096) + 1j * rng.standard_normal(4096)


_ZLIB_INPUT, _VECTOR = _calibration_inputs()


def _zlib_kernel() -> None:
    for _ in range(2):
        zlib.decompress(zlib.compress(_ZLIB_INPUT, 6))


def _numpy_kernel() -> None:
    for _ in range(400):
        np.cumsum(np.abs(0.6 * _VECTOR + 0.8j * _VECTOR[::-1]) ** 2)


def _interpreter_kernel() -> None:
    table: dict = {}
    for index in range(60000):
        key = (index & 1023, "k")
        table[key] = table.get(key, 0) + index


def host_speed() -> np.ndarray:
    """Seconds each calibration kernel takes right now (best of two, ~0.1 s):
    the mix the program itself is made of - zlib, NumPy element-wise passes,
    interpreter dispatch."""

    best = []
    for kernel in (_zlib_kernel, _numpy_kernel, _interpreter_kernel):
        costs = []
        for _ in range(2):
            started = time.perf_counter()
            kernel()
            costs.append(time.perf_counter() - started)
        best.append(min(costs))
    return np.array(best)


def reference_speed() -> np.ndarray:
    """Stand-in for :func:`host_speed` that reads "as fast as the recording
    host": the smoke run takes no calibration (it would double its length)."""

    return _REFERENCE_S


def slowdown(before: np.ndarray, after: np.ndarray) -> float:
    """How much slower than the recording host, quiet, the host ran between
    two :func:`host_speed` readings.  The lower reading of each kernel counts:
    a burst that hits one reading only did not last through the measurement."""

    return float(np.mean(np.minimum(before, after) / _REFERENCE_S))

_SETUP_PROBE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import repro
config = repro.SimulatorConfig(**json.loads(sys.argv[2]))
repro.run(repro.QuantumCircuit(int(sys.argv[3])).h(0), config=config)
"""


@dataclass
class Measurement:
    """Everything one untraced pass of one workload produced."""

    #: Raw wall of each timed iteration, and the host slowdown around it.
    walls: list[float] = field(default_factory=list)
    slowdowns: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    peak_footprint_bytes: int = 0
    min_ratio: float = float("inf")
    fidelity: float = 1.0
    state_digest: str | None = None

    @property
    def wall_s(self) -> float:
        return statistics.median(
            wall / factor for wall, factor in zip(self.walls, self.slowdowns)
        )


def _run(case: Case, seed: int, **options) -> tuple[list, float]:
    circuits = case.circuits if len(case.circuits) > 1 else case.circuits[0]
    started = time.perf_counter()
    results = repro.run(
        circuits,
        config=repro.SimulatorConfig(**case.config),
        shots=case.shots,
        observables=case.observable,
        seed=seed,
        **options,
    )
    wall = time.perf_counter() - started
    return ([results] if isinstance(results, repro.Result) else list(results)), wall


def _fingerprint(results: list) -> list:
    """What must repeat exactly from one iteration to the next."""

    return [
        (
            result.report["peak_footprint_bytes"],
            result.report["min_compression_ratio"],
            result.counts,
            result.expectations,
        )
        for result in results
    ]


def _warm_up(case: Case, seed: int, out: Measurement, reference_digest: str | None):
    """One untimed iteration with the dense state returned and checked."""

    out.attempted += len(case.circuits)
    try:
        results, _wall = _run(case, seed, return_statevector=True)
    except Exception as exc:  # the failure is the result: count it, report it
        out.failures.append(f"warm-up raised {type(exc).__name__}: {exc}")
        return None
    digest = hashlib.sha256()
    for circuit, result in zip(case.circuits, results):
        report = result.report
        dense = repro.simulate_statevector(circuit)
        fidelity = repro.state_fidelity(dense, result.statevector)
        out.fidelity = min(out.fidelity, fidelity)
        out.peak_footprint_bytes = max(
            out.peak_footprint_bytes, report["peak_footprint_bytes"]
        )
        out.min_ratio = min(out.min_ratio, report["min_compression_ratio"])
        digest.update(result.statevector.tobytes())
        # |<a|a>| of a unit vector rounds to 1 - 2e-16, hence the slack.
        if fidelity < report["fidelity_lower_bound"] - 1e-12:
            out.failures.append(
                f"{circuit.name}: fidelity {fidelity!r} below the run's lower "
                f"bound {report['fidelity_lower_bound']!r}"
            )
        elif report["final_error_bound"] == 0.0 and not np.array_equal(
            dense, result.statevector
        ):
            out.failures.append(f"{circuit.name}: lossless run not bit-equal to dense")
    out.state_digest = digest.hexdigest()
    if reference_digest is not None and out.state_digest != reference_digest:
        out.failures.append("final state not bit-identical to rcs16_seq")
    return _fingerprint(results)


def measure(
    case: Case,
    seed: int,
    *,
    iterations: int,
    seconds: float | None,
    reference_digest: str | None,
    speed: Callable[[], np.ndarray],
) -> Measurement:
    """Warm up (checking correctness), then time the closed loop.

    With *seconds* the loop runs until that much time has been measured (at
    least two iterations); without, it runs *iterations* times.  A circuit
    execution fails when it raises, misses the correctness check of the
    warm-up, or stops repeating the warm-up's footprint, ratio, counts and
    expectation values.
    """

    out = Measurement()
    expected = _warm_up(case, seed, out, reference_digest)
    if expected is None:
        return out
    loop_started = time.perf_counter()
    speed_after = speed()
    while True:
        out.attempted += len(case.circuits)
        try:
            results, wall = _run(case, seed)
        except Exception as exc:  # as above: a failed execution, not a crash
            out.failures.append(f"iteration raised {type(exc).__name__}: {exc}")
            break
        speed_before, speed_after = speed_after, speed()
        out.walls.append(wall)
        out.slowdowns.append(slowdown(speed_before, speed_after))
        if _fingerprint(results) != expected:
            out.failures.append("iteration did not repeat the warm-up's results")
        done = len(out.walls)
        if seconds is None:
            if done >= iterations:
                break
        elif done >= 2 and time.perf_counter() - loop_started >= seconds:
            break
    return out


def setup_seconds(case: Case, probes: int) -> list[float]:
    """Wall of *probes* fresh interpreters doing ``import repro`` plus one
    ``repro.run()`` of a one-gate circuit at the workload's width and config:
    import, session, pool or rank spawn, initial-state compression.  Raw
    seconds: on probes this short the calibration kernel adds as much noise as
    it removes."""

    command = [
        sys.executable,
        "-c",
        _SETUP_PROBE,
        str(SRC),
        json.dumps(case.config),
        str(case.num_qubits),
    ]
    samples = []
    for _ in range(probes):
        started = time.perf_counter()
        # No timeout: with one, Popen.wait polls in 50 ms steps and the
        # samples come out quantised to that grid.
        subprocess.run(command, check=True, cwd=REPO_ROOT)
        samples.append(time.perf_counter() - started)
    return samples


def _commit() -> str | None:
    if not (REPO_ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "--git-dir", str(REPO_ROOT / ".git"), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    return done.stdout.strip() or None


def environment(seed: int) -> dict:
    """Where and on what the numbers were taken."""

    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "effective_cpu_count": effective_cpu_count(),
        "os_cpu_count": os.cpu_count(),
        "available_engines": list(available_engines()),
        "mp_start_method": multiprocessing.get_start_method(allow_none=False),
        "platform": platform.platform(),
        "seed": seed,
    }

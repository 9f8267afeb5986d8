"""Shared fixtures for the benchmark harness.

Every benchmark module regenerates one of the paper's tables or figures.  The
``emit`` fixture routes the reproduced rows/series both to the terminal
(bypassing pytest's capture, so they land in ``bench_output.txt``) and to a
text file under :func:`recordings.results_dir` — ``benchmarks/results/``, or
the git-ignored ``benchmarks/results-quick/`` for a ``REPRO_BENCH_QUICK=1``
run — for later inspection; the standard
``benchmark`` fixture from pytest-benchmark times the kernel each experiment
is built around.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.analysis.datasets import qaoa_state, supremacy_state

from recordings import results_dir

#: Qubit count of the compression-study snapshots (the paper uses 36; this
#: laptop-scale reproduction uses 14, see docs/figures.md).
SNAPSHOT_QUBITS = 14

#: The paper's five pointwise relative error levels, loosest first as plotted.
ERROR_LEVELS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)


@pytest.fixture(scope="session")
def qaoa_snapshot() -> np.ndarray:
    """Float64 stream of the QAOA state snapshot (paper: qaoa_36)."""

    return qaoa_state(num_qubits=SNAPSHOT_QUBITS, seed=7).view(np.float64)


@pytest.fixture(scope="session")
def sup_snapshot() -> np.ndarray:
    """Float64 stream of the supremacy-circuit snapshot (paper: sup_36)."""

    return supremacy_state(num_qubits=SNAPSHOT_QUBITS, depth=11, seed=7).view(np.float64)


@pytest.fixture
def emit(capsys, request):
    """Print an experiment block to the real terminal and save it to a file."""

    def _emit(title: str, body: str) -> None:
        banner = "=" * max(len(title), 20)
        text = f"\n{banner}\n{title}\n{banner}\n{body}\n"
        with capsys.disabled():
            print(text, flush=True)
        slug = re.sub(r"[^A-Za-z0-9._-]+", "_", request.node.name.strip("_"))
        directory = results_dir()
        directory.mkdir(exist_ok=True)
        (directory / f"{slug}.txt").write_text(text)

    return _emit

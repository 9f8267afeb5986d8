"""Where the benchmark harness writes its recordings.

A full-size run rewrites its committed recording under ``benchmarks/results/``.
A quick run (``REPRO_BENCH_QUICK=1``, the CI-sized smoke) writes the same
files under the git-ignored ``benchmarks/results-quick/`` instead, so running
the quick set in a working tree can never replace a full-size recording with
CI-sized numbers.  Every bench, the ``emit`` fixture and ``trend.py`` ask
:func:`results_dir`; a bench that records JSON sections writes them with
:func:`merge_json`.  Standard library only: ``trend.py`` runs in CI jobs that
install nothing.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

#: Full-size recordings, committed.
RESULTS_DIR = Path(__file__).parent / "results"
#: Quick-run recordings, git-ignored.
QUICK_RESULTS_DIR = Path(__file__).parent / "results-quick"


def results_dir() -> Path:
    """The directory this run records into (a writer creates it)."""

    return QUICK_RESULTS_DIR if os.environ.get("REPRO_BENCH_QUICK") else RESULTS_DIR


def merge_json(name: str, section: str, payload: object, meta: dict) -> None:
    """Set *section* of the JSON recording *name* to *payload* and its
    ``meta`` to *meta*, keeping the sections other tests of the bench wrote."""

    path = results_dir() / name
    path.parent.mkdir(exist_ok=True)
    data = json.loads(path.read_text()) if path.exists() else {}
    data[section] = payload
    data["meta"] = meta
    path.write_text(json.dumps(data, indent=2))

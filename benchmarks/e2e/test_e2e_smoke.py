"""Smoke test of the end-to-end benchmark: 8-qubit versions of every workload
through the real command line, every named metric emitted, manifest in step."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import effective_cpu_count

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
#: Recorded as "skipped", without metrics, on a host with fewer than two CPUs.
PARALLEL = {"rcs16_thread2", "rcs16_process2", "rcs16_ranked2"}
TWO_CPUS = effective_cpu_count() >= 2

#: Runs the command it is given as the adopter of orphans (as ``run.py`` does for
#: its own child) and exits 0 only if the command left none behind: a process
#: that outlives the command would be re-parented here and show in ``waitpid``.
_ORPHAN_CHECK = """\
import ctypes, os, subprocess, sys
assert ctypes.CDLL(None).prctl(36, 1, 0, 0, 0) == 0  # PR_SET_CHILD_SUBREAPER
code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
try:
    leftover = os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
sys.exit(f"the command left a process behind: {leftover}")
"""


def _last_line(*flags: str) -> dict:
    done = subprocess.run(
        [*RUN, "--smoke", "--seed", "3", *flags],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=REPO_ROOT,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def test_manifest_matches_the_harness_tables(manifest):
    done = subprocess.run(
        [*RUN, "--manifest"], capture_output=True, text=True, timeout=60, check=True
    )
    assert json.loads(done.stdout) == manifest


def test_traced_smoke_run_emits_every_per_layer_metric(manifest):
    line = _last_line("--trace", "1")
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 14
    expected = {
        f"{workload['name']}/{metric['name']}": metric["unit"]
        for workload in manifest["workloads"]
        for metric in manifest["per_layer"]
        if TWO_CPUS or workload["name"] not in PARALLEL
    }
    assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    ranked = {k: m["value"] for k, m in line["metrics"].items() if "ranked2/comm." in k}
    assert all(value > 0 for value in ranked.values()), ranked


@pytest.mark.skipif(not TWO_CPUS, reason="parallel workloads need two effective CPUs")
def test_single_workload_run_emits_bare_end_to_end_names(manifest):
    line = _last_line("--workload", "rcs16_process2", "--trace", "0")
    assert line["correct"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in manifest["end_to_end"]
    }
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.skipif(not TWO_CPUS, reason="parallel workloads need two effective CPUs")
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs prctl")
def test_command_leaves_no_process_behind():
    # shared_memory's resource tracker outlives the interpreter that started
    # it; the supervisor in run.py has to wait for it (and for the probes').
    done = subprocess.run(
        [sys.executable, "-c", _ORPHAN_CHECK, *RUN, "--smoke", "--workload",
         "rcs16_process2"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=REPO_ROOT,
    )
    assert done.returncode == 0, done.stderr[-2000:]

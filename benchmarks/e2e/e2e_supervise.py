"""Run the benchmark in a child interpreter and outlive every process it starts.

The process executor and the process-rank tier keep their payloads in
``multiprocessing.shared_memory``, which starts a ``resource_tracker`` helper
beside the interpreter.  The helper ends when it reads end-of-file from its
parent, that is *after* the parent has exited: the benchmark command (and each
fresh interpreter of the set-up probe) used to return with a helper still
running behind it.  The same would happen to a pool worker or a rank that
missed its join.

So the command is a supervisor.  It makes itself the reaper of orphaned
descendants (``PR_SET_CHILD_SUBREAPER``), runs the benchmark proper as a child
in a process group of its own, and returns only when nothing it started is
left: what has not ended by itself shortly after the child is killed with its
group, and every descendant is waited for.  The same happens on the way out
through SIGTERM or SIGINT.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time

__all__ = ["SUPERVISED", "supervise"]

#: Set in the environment of the child that does the measuring.
SUPERVISED = "E2E_SUPERVISED"

_PR_SET_CHILD_SUBREAPER = 36
#: Seconds orphans get to end by themselves once the benchmark has returned.
_GRACE_S = 5.0


def _adopt_orphans() -> None:
    """Have descendants whose parent died re-parented to this process."""

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _kill_group(group: int) -> None:
    try:
        os.killpg(group, signal.SIGKILL)
    except ProcessLookupError:
        pass  # nothing of the group is left


def _reap(group: int, grace: float) -> int:
    """Wait until this process has no child left; returns how many had to be
    killed.  Orphans of the benchmark arrive here as children, so "no child"
    means no descendant."""

    deadline = time.monotonic() + grace
    killed = 0
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if time.monotonic() >= deadline:
            _kill_group(group)
            killed += 1
            deadline = time.monotonic() + 1.0
        time.sleep(0.005)


def _interrupted(signum, _frame):
    raise SystemExit(128 + signum)


def supervise(script: str, argv: list[str]) -> int:
    """Run ``python script *argv`` with :data:`SUPERVISED` set; return its exit
    code once every process started below it has ended."""

    _adopt_orphans()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _interrupted)
    child = subprocess.Popen(
        [sys.executable, script, *argv],
        env={**os.environ, SUPERVISED: "1"},
        start_new_session=True,  # its own process group: one kill reaches all
    )
    grace = 0.0
    try:
        code = child.wait()
        grace = _GRACE_S
    finally:
        stragglers = _reap(child.pid, grace)
    if stragglers:
        print(f"supervisor: had to kill leftover processes of group {child.pid}",
              file=sys.stderr)
        return code or 1
    return code

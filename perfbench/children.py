"""Every process a run starts ends, and is waited for, before it exits.

The program starts processes the benchmark never names: publishing a
values table to shared memory starts ``multiprocessing``'s resource
tracker, a child that exits only once its parent has closed the pipe
to it, and the server process started by ``serve_mixed`` has a tracker
of its own.  Left alone they outlive the run for a moment, or for good
as zombies.  :func:`adopt_orphans` makes the run the reaper of every
descendant whose parent exits first, and :func:`stop_all`, registered
before anything is started, ends and waits for each one on every path
out of the run.
"""

from __future__ import annotations

import atexit
import os
import signal
import sys
import time

#: ``prctl`` option that makes orphaned descendants children of the
#: calling process (Linux).
_PR_SET_CHILD_SUBREAPER = 36
#: Seconds a child may take to end once the run is over before it is
#: killed.
GRACE_S = 10.0


def adopt_orphans() -> None:
    """Become the reaper of orphaned descendants and stop them all at
    exit.  Call before anything is started: ``atexit`` runs its hooks
    last-in first-out, so :func:`stop_all` then runs after the
    program's own exit hooks (its shared-memory sweep among them)."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(
            _PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass
    atexit.register(stop_all)


def _children() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    me, kids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            kids.append(int(entry))
    return kids


def _reap() -> None:
    """Wait for every child that has already ended."""
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_all() -> None:
    """End every child and wait for it.

    Owned shared-memory segments are released first, so that nothing
    asks the resource tracker for work after it has stopped; the
    tracker is then stopped the way ``multiprocessing`` stops it.  Any
    other child still running after ``GRACE_S`` seconds is killed.
    """
    # A SIGTERM now would cut the clean-up short; the run is ending.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    shm = sys.modules.get("repro.core.shm")
    if shm is not None:
        shm.REGISTRY.sweep()
    if "multiprocessing.resource_tracker" in sys.modules:
        tracker = sys.modules["multiprocessing.resource_tracker"]
        stop = getattr(tracker._resource_tracker, "_stop", None)
        if stop is not None:
            try:
                stop()
            except (OSError, ChildProcessError):
                pass
    deadline = time.monotonic() + GRACE_S
    while True:
        _reap()
        kids = _children()
        if not kids:
            return
        if time.monotonic() > deadline:
            for pid in kids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            for pid in kids:
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass
            return
        time.sleep(0.02)

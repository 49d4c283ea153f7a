"""Memory and lifetime of the benchmark's workload process tree (Linux).

``getrusage(RUSAGE_CHILDREN)`` reports the largest single child's peak, and
only for children already waited for, so it misses pool and planner
workers.  ``TreeMemory`` instead samples every descendant of this process
and sums the peak resident sets (``VmHWM``) of those alive together.

The kernel keeps each process's peak, so a short peak between two samples
is not missed; only growth in the last interval before a process exits
is.  Pages shared between processes (copy-on-write after fork, shared
trace segments) count once for every process that maps them, so the sum
is an upper bound of the tree's resident memory.  It is also cheap to read
(``smaps_rollup``, the source of proportional set sizes, walks every page
table and cost a sampler up to a quarter of a core on a 4 GB tree).
"""

from __future__ import annotations

import ctypes
import os
import signal
import threading
import time
from typing import Dict, List, Optional

#: ``prctl`` option making orphaned descendants re-parent to this process,
#: so they stay visible to sampling and can be reaped.
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid``, from ``/proc/<pid>/task/*/children``."""
    found: List[int] = []
    todo = [pid]
    while todo:
        parent = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{parent}/task/{task}/children") as fh:
                    children = [int(c) for c in fh.read().split()]
            except OSError:
                continue
            found.extend(children)
            todo.extend(children)
    return found


def high_water_kb(pid: int = 0) -> int:
    """Peak resident set (VmHWM) of ``pid`` (default: this process) in kB."""
    try:
        with open(f"/proc/{pid or os.getpid()}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class TreeMemory:
    """Background sampler of the summed peak resident sets of this
    process's live descendants."""

    def __init__(self, interval_s: float = 0.05) -> None:
        self.interval_s = interval_s
        self.peak_kb = 0
        #: pid -> start time of every descendant sampled.
        self.seen: Dict[int, Optional[str]] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        me = os.getpid()
        while not self._stop.is_set():
            pids = descendants(me)
            for pid in pids:
                if pid not in self.seen:
                    self.seen[pid] = _stat(pid)[1]
            self.peak_kb = max(self.peak_kb, sum(high_water_kb(p) for p in pids))
            self._stop.wait(self.interval_s)

    def __enter__(self) -> "TreeMemory":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def _stat(pid: int):
    """``(state, start time)`` of ``pid``, or ``(None, None)`` if gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None, None
    return fields[0], fields[19]


def reap(seen: Dict[int, Optional[str]], grace_s: float = 30.0) -> List[int]:
    """Wait for every descendant, and every process in ``seen`` (pid ->
    start time, so a reused pid is not mistaken for it), to end.

    Stragglers still running after ``grace_s`` are killed.  Returns the
    pids that had to be killed.
    """
    killed: List[int] = []
    deadline = time.monotonic() + grace_s
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        alive = []
        for pid in set(descendants(os.getpid())) | set(seen):
            state, start = _stat(pid)
            if state not in (None, "Z", "X") and seen.get(pid, start) == start:
                alive.append(pid)
        if not alive:
            return killed
        if time.monotonic() > deadline:
            for pid in alive:
                try:
                    os.kill(pid, signal.SIGKILL)
                    killed.append(pid)
                except OSError:
                    pass
            deadline = time.monotonic() + 5.0
        time.sleep(0.05)

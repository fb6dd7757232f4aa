"""CPU and memory of the live process tree, read from ``/proc``.

``getrusage(RUSAGE_CHILDREN)`` only sees children that have already
been reaped, so it misses the engine's pool workers and the service
fleet's workers while they are alive.  These helpers walk ``/proc``
for every descendant of this process instead.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from typing import Dict, List

_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat", "rb") as fh:
        raw = fh.read().decode("ascii", "replace")
    # The command name is parenthesised and may hold spaces.
    return raw[raw.rindex(")") + 2:].split()


def _children_map() -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            ppid = int(_stat_fields(int(entry))[1])
        except (OSError, ValueError, IndexError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    return children


def tree_pids() -> List[int]:
    """This process and all its live descendants."""
    children = _children_map()
    out, todo = [], [os.getpid()]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def _cpu_seconds(pid: int) -> float:
    """utime + stime of ``pid`` plus those of its reaped children."""
    fields = _stat_fields(pid)
    # Fields after the command name start at index 0 = state; utime,
    # stime, cutime and cstime are stat fields 14..17 (1-based).
    utime, stime, cutime, cstime = (int(v) for v in fields[11:15])
    return (utime + stime + cutime + cstime) / _TICKS


def tree_cpu_seconds() -> float:
    """CPU seconds used so far by this process's whole live tree.

    A process that dies between two readings moves its time into its
    parent's reaped-children fields, so the difference of two readings
    stays the CPU spent in between.
    """
    return sum(cpu_by_pid(tree_pids()).values())


def cpu_by_pid(pids) -> Dict[int, float]:
    """CPU seconds of each pid that is still alive."""
    out = {}
    for pid in pids:
        try:
            out[pid] = _cpu_seconds(pid)
        except (OSError, ValueError):
            continue
    return out


def _hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def tree_peak_rss_mb() -> float:
    """Sum of every live tree member's high-water RSS (VmHWM), in MB."""
    total_kb = 0
    for pid in tree_pids():
        try:
            total_kb += _hwm_kb(pid)
        except (OSError, ValueError):
            continue
    return total_kb / 1024.0


class CpuSampler:
    """Samples :func:`tree_cpu_seconds` in a background thread.

    ``at(t)`` interpolates the tree's CPU seconds at any ``perf_counter``
    instant between the first and the last sample.
    """

    def __init__(self, interval: float = 0.5) -> None:
        self.interval = interval
        self.times: List[float] = []
        self.cpu: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        self.times.append(time.perf_counter())
        self.cpu.append(tree_cpu_seconds())

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self) -> "CpuSampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def at(self, t: float) -> float:
        k = min(max(bisect.bisect_left(self.times, t), 1), len(self.times) - 1)
        t0, t1 = self.times[k - 1], self.times[k]
        c0, c1 = self.cpu[k - 1], self.cpu[k]
        if t1 <= t0:
            return c1
        return c0 + (c1 - c0) * (min(max(t, t0), t1) - t0) / (t1 - t0)

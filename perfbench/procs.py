"""Process-tree accounting and host-state stamps, read from ``/proc``.

The engine runs as the benchmark process plus the Ray processes it
starts (GCS, raylet, workers, monitors), so CPU time and peak memory are
summed over the benchmark's whole process tree.  psutil is not a
dependency of the engine; ``/proc`` gives the same numbers on Linux.
"""

from __future__ import annotations

import os
import subprocess
import threading
import time

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:  # the process ended between listing and reading
        return None
    # comm (field 2) may hold spaces and parentheses: split after the last ')'
    return raw[raw.rindex(")") + 2:].split()


def tree_pids() -> list[int]:
    """This process and all of its descendants."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        fields = _stat_fields(int(name))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(name))
    out, todo = [], [os.getpid()]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


class CpuMeter:
    """User + system CPU seconds of this process's tree, never going
    backwards.

    Ray starts and retires worker processes during a run (a task blocked
    on another task's result gets a fresh worker), and an exited
    process's CPU time does not reliably reach its parent's ``cutime``.
    So the meter keeps the last reading of every process it has seen,
    and a sampler thread refreshes the readings every ``period`` seconds
    so that a worker's time is seen before it exits.  A scan costs ~2 ms
    of this process's CPU, which the meter counts too."""

    def __init__(self, period: float = 0.5):
        self._last: dict[tuple[int, str], int] = {}
        self._lock = threading.Lock()
        self._period = period
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "CpuMeter":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(self._period):
            self.read()

    def read(self) -> float:
        seen = {}
        for pid in tree_pids():
            fields = _stat_fields(pid)
            if fields is not None:
                # utime, stime and starttime are stat fields 14, 15 and 22;
                # (pid, starttime) names a process even if its pid is reused
                seen[(pid, fields[19])] = int(fields[11]) + int(fields[12])
        with self._lock:
            self._last.update(seen)
            return sum(self._last.values()) / _CLK_TCK


def tree_peak_rss_mb() -> float:
    """Sum of ``VmHWM`` (peak resident set) over the live tree, in MiB."""
    kib = 0
    for pid in tree_pids():
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        kib += int(line.split()[1])
                        break
        except OSError:
            continue
    return kib / 1024


def nproc() -> int:
    """CPU count as the ``nproc`` command reports it: the affinity mask,
    overridden by ``OMP_NUM_THREADS`` when that is set."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True,
                             timeout=10, check=True).stdout
        return max(1, int(out.strip()))
    except (OSError, subprocess.SubprocessError, ValueError):
        return len(os.sched_getaffinity(0))


def first_touch_mbs() -> float:
    """First-touch fault speed over a fresh 64 MiB anonymous buffer.

    On shared VM hosts, wall times can drift 2-3x with the host's
    page-fault speed; the probe stamps every result with that phase so
    wall times stay interpretable."""
    import numpy as np

    size = 64 * 1024 * 1024
    t0 = time.perf_counter()
    np.ones(size // 8, dtype=np.float64)
    return size / (time.perf_counter() - t0) / 1e6


def host_stamp(ray_num_cpus: int) -> dict:
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "ray_num_cpus": ray_num_cpus,
        "first_touch_mbs": round(first_touch_mbs(), 1),
    }

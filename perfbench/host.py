"""Host record and /proc accounting for the benchmark process tree.

psutil is not available, so memory and CPU time are read straight from
``/proc``: ``VmHWM`` (peak resident set) from ``/proc/<pid>/status`` and
``utime + stime`` from ``/proc/<pid>/stat``. "The tree" is the benchmark
process plus every live descendant, which covers the Ray processes the
benchmark starts (GCS, raylet, workers).
"""

from __future__ import annotations

import os
import platform
import time

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def cpu_count() -> int:
    """What ``nproc`` prints: the CPUs in this process's affinity mask,
    capped by ``OMP_NUM_THREADS`` / ``OMP_THREAD_LIMIT`` when the host sets
    them as its CPU budget."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        v = os.environ.get(var, "").split(",")[0].strip()
        if v.isdigit() and int(v) > 0:
            n = min(n, int(v))
    return n


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:  # process exited between listing and reading
        return None
    # the command name is parenthesised and may contain spaces
    return raw[raw.rindex(")") + 2:].split()


def process_tree(root: int | None = None) -> list[int]:
    """``root`` (default: this process) and all its live descendants."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        fields = _stat_fields(int(name))
        if fields:
            children.setdefault(int(fields[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, []))
    return out


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of ``VmHWM`` over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def cpu_seconds(pids: list[int]) -> float:
    """User + system CPU seconds consumed so far by ``pids``."""
    ticks = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields:
            ticks += int(fields[11]) + int(fields[12])
    return ticks / _CLK_TCK


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def alu_rate(secs: float = 0.5) -> float:
    """One-process, cache-resident integer ALU rate in million element-ops
    per second (an LCG-and-shift over a 32k int64 vector), so numbers from
    different hosts can be put side by side."""
    import numpy as np

    b = np.arange(32768, dtype=np.int64) * 3 + 1
    it = 0
    t0 = time.perf_counter()
    with np.errstate(over="ignore"):
        while time.perf_counter() - t0 < secs:
            for _ in range(50):
                b = (b * 6364136223846793005 + 1442695040888963407) ^ (b >> 17)
            it += 50
    return it * len(b) / (time.perf_counter() - t0) / 1e6


def host_record() -> dict:
    import numpy
    import pyarrow
    import ray

    return {
        "nproc": cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__,
        "alu_mops_per_s": round(alu_rate(), 1),
    }

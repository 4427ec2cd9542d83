"""Small measurement helpers: the median, the failure share, and
per-process CPU time and peak memory read from ``/proc``."""

from __future__ import annotations

import os
import statistics

_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def failed_share(failed: int, attempted: int) -> float:
    """Failed operations over operations attempted."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return failed / attempted


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:  # process ended between listing and reading
        return None
    # the command name (field 2) may hold spaces; fields resume after ')'
    return raw[raw.rindex(")") + 2 :].split()


def descendants(root: int) -> list[int]:
    """*root* and every live process below it (Ray's GCS, raylet, workers
    and agents all descend from the driver that called ``ray.init``)."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        fields = _stat_fields(int(name))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, []))
    return out


def cpu_by_pid(pids: list[int]) -> dict[int, float]:
    """User + system CPU seconds of each live process in *pids*."""
    out = {}
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            out[pid] = (int(fields[11]) + int(fields[12])) / _CLK_TCK  # utime, stime
    return out


def cpu_delta(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU seconds spent between two ``cpu_by_pid`` readings by the
    processes alive at the second one (a process started in between counts
    in full; one that ended in between is lost)."""
    return sum(t - before.get(pid, 0.0) for pid, t in after.items())


def reset_peak_rss(pids: list[int]) -> None:
    """Reset ``VmHWM`` to the current resident set (``clear_refs`` 5)."""
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as f:
                f.write("5")
        except OSError:
            continue


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over *pids*, in MiB."""
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
    return total_kb / 1024


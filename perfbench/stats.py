"""Small statistics and process-memory helpers (stdlib only)."""

from __future__ import annotations

import os
import resource


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    k = (len(ordered) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def median(values) -> float:
    return percentile(values, 0.5)


def _descendants(pid: int) -> list[int]:
    """Live descendant pids, read from ``/proc/<pid>/task/*/children``."""
    found: list[int] = []
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    kids = [int(p) for p in handle.read().split()]
            except OSError:
                continue
            found.extend(kids)
            pending.extend(kids)
    return found


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live descendants.

    Worker processes (the process executor's pool) count with their own
    peaks; children that already exited do not count.
    """
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids_kb = sum(_peak_rss_kb(pid) for pid in _descendants(os.getpid()))
    return (own_kb + kids_kb) / 1024.0

"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start, end, parent, request]``: ``parent`` is the
index of the enclosing span (``None`` for a root) and ``request`` the
identifier shared by every span of one request.  Spans are recorded in
the benchmark's own code around calls into the layers; nothing inside
``src/`` is instrumented.  They are kept in memory and written out once,
when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Collects spans for one run (single-threaded use, or explicit parents)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request: object = None):
        """Time the enclosed block as a child of the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        entry = [name, time.perf_counter(), 0.0, parent, request]
        self.spans.append(entry)
        self._stack.append(index)
        try:
            yield entry
        finally:
            entry[2] = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, start: float, end: float,
               request: object = None, parent: int | None = None) -> int:
        """Add a finished span (for work timed outside a ``with`` block)."""
        self.spans.append([name, start, end, parent, request])
        return len(self.spans) - 1

    def durations(self, name: str) -> list[float]:
        """Inclusive durations, in seconds, of every span called ``name``."""
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total inclusive and total self seconds.

        Self time is a span's duration minus the part of its interval
        covered by its children (overlapping children are merged).
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[span[3]].append((span[1], span[2]))
        table: dict[str, dict] = {}
        for index, (name, start, end, _parent, _request) in enumerate(self.spans):
            covered = 0.0
            cursor = start
            for lo, hi in sorted(children.get(index, ())):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - covered
        return table

    def write(self, path, summary: dict) -> None:
        """Write every span plus the per-layer self-time table as JSON."""
        payload = {
            "summary": summary,
            "self_time": self.self_times(),
            "fields": ["name", "start", "end", "parent", "request"],
            "spans": self.spans,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, default=str)

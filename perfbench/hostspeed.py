"""Host speed: a fixed pure-Python loop timed next to the workload.

The shared two-CPU host this benchmark was tuned on changes speed by up
to 40% within minutes: this loop alone took 1.8 ms in one minute and
2.7 ms a few minutes later, on an otherwise idle container.  That is
more than any bound a regression gate can use, so the timed end-to-end
metrics are reported at a reference host speed.  Each measured duration
is multiplied by the host factor, ``REFERENCE_S`` over the median of the
last few timings of :func:`loop_seconds` taken right before it.  In the
open loop, the gaps between arrivals are divided by it too, so a slow
host gets the same load relative to its speed.  The loop touches no code
under test, so a change to the program still moves the metrics while a
change in host speed mostly does not.  The raw durations and the factors
are kept in each run's report.
"""

from __future__ import annotations

import time
from collections import deque

from stats import median

#: Iterations of the reference loop: about 2 ms on the host it was tuned
#: on.  The loop stays in the core's first-level cache on purpose.  A loop
#: over a 4 MiB buffer tracked the parser's slowdowns more closely, but the
#: workload evicted the buffer between timings, so the factor moved with
#: the program's own memory traffic: a change that touched less memory
#: would have read as slower.
LOOP_ITERATIONS = 30_000
#: The loop's time on that host when it ran fast; scaled durations read
#: as if the host always ran at this speed.
REFERENCE_S = 0.0018
#: Samples the current factor is the median of.
WINDOW = 5
#: Least time between two samples inside a measured loop (~2% overhead).
INTERVAL_S = 0.1


def loop_seconds() -> float:
    """One timing of the fixed reference loop."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


class HostSpeed:
    """A rolling host factor for scaling durations measured next to it."""

    def __init__(self, window: int = WINDOW) -> None:
        self.recent: deque[float] = deque(maxlen=window)
        self._next = 0.0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.recent.append(loop_seconds())

    def tick(self) -> None:
        """Take one sample when ``INTERVAL_S`` has passed since the last."""
        if time.perf_counter() >= self._next:
            self.sample()
            self._next = time.perf_counter() + INTERVAL_S

    @property
    def factor(self) -> float:
        """Multiply a duration measured now by this to get reference time."""
        return REFERENCE_S / median(self.recent)

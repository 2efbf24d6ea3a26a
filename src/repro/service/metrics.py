"""Serving-layer metrics: cache counters and latency histograms.

"Parser Knows Best" (PAPERS.md) argues for parser-side instrumentation;
this module is the reproduction's take.  One :class:`ServiceMetrics`
instance is shared by a :class:`~repro.service.registry.ParserRegistry`
and the :class:`~repro.service.service.ParseService` built on it, so a
single :meth:`ServiceMetrics.snapshot` answers the operational questions:
how often do we hit the cache, how expensive is a miss (compose/compile),
and what does parse latency look like?

Everything is guarded by one lock; observations are O(#buckets) and the
snapshot is a plain ``dict`` suitable for JSON or the ``repro stats``
CLI renderer.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

from .artifacts import EVENTS

#: Histogram bucket upper bounds in milliseconds (log-ish scale); the
#: final implicit bucket is +inf.
DEFAULT_BUCKETS_MS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram with count/sum/min/max and quantiles.

    Not thread-safe on its own — callers (``ServiceMetrics``) serialize
    access.
    """

    __slots__ = ("bounds_ms", "counts", "count", "total_ms", "min_ms", "max_ms")

    def __init__(self, bounds_ms: tuple[float, ...] = DEFAULT_BUCKETS_MS) -> None:
        self.bounds_ms = bounds_ms
        self.counts = [0] * (len(bounds_ms) + 1)
        self.count = 0
        self.total_ms = 0.0
        self.min_ms = float("inf")
        self.max_ms = 0.0

    def observe(self, seconds: float) -> None:
        ms = seconds * 1000.0
        self.counts[bisect_left(self.bounds_ms, ms)] += 1
        self.count += 1
        self.total_ms += ms
        if ms < self.min_ms:
            self.min_ms = ms
        if ms > self.max_ms:
            self.max_ms = ms

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the covering bucket."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= target and n:
                if i < len(self.bounds_ms):
                    return self.bounds_ms[i]
                return self.max_ms
        return self.max_ms

    def snapshot(self) -> dict:
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "total_ms": round(self.total_ms, 3),
            "mean_ms": round(self.total_ms / self.count, 3),
            "min_ms": round(self.min_ms, 3),
            "max_ms": round(self.max_ms, 3),
            "p50_ms": self.quantile(0.50),
            "p90_ms": self.quantile(0.90),
            "p99_ms": self.quantile(0.99),
        }


class DepthGauge:
    """Queue-depth series: how deep was the queue each time we looked?

    Observed at every admission, per executor kind, so saturation shows
    up as a rising mean/max even before anything is shed.  Not
    thread-safe on its own — :class:`ServiceMetrics` serializes access.
    """

    __slots__ = ("count", "total", "max", "last")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.max = 0
        self.last = 0

    def observe(self, depth: int) -> None:
        self.count += 1
        self.total += depth
        self.last = depth
        if depth > self.max:
            self.max = depth

    def snapshot(self) -> dict:
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": round(self.total / self.count, 2),
            "max": self.max,
            "last": self.last,
        }


class ServiceMetrics:
    """Thread-safe counters + histograms for one registry/service pair."""

    #: Counter names, all starting at zero.
    COUNTERS = (
        "hits",            # registry served an already-composed product
        "misses",          # registry had to compose
        "evictions",       # LRU pushed an entry out
        "composes",        # grammar compositions performed
        # artifact.ir.<event>: the parse-program artifact (see .artifacts)
        *(f"artifact.ir.{event}" for event in EVENTS),
        "parses",          # parse requests served
        "parse_errors",    # parses whose outcome carried error diagnostics
        "timeouts",        # batch requests that exceeded their deadline
        "lint_checks",     # products analyzed by the registry lint gate
        "lint_rejections",  # products the lint gate refused to serve
        # -- resilience ----------------------------------------------------
        "quarantined",     # stale/corrupt artifacts renamed aside (.bad)
        "retries",         # transient artifact-I/O attempts retried
        "breaker_trips",   # circuit breakers that tripped open
        "breaker_fast_fails",  # requests failed fast by an open breaker
        "shed",            # requests refused by admission control (E0204)
        "degraded_backend",  # parses served by the fallback interpreter
        "degraded_hints",  # hint-provider failures (served hint-less)
        "internal_errors",  # unexpected worker failures turned into E0000
        # -- multi-process / async serving ---------------------------------
        "worker_tasks",    # parse tasks shipped to pool workers (process)
        "worker_bootstraps",  # parsers bootstrapped from artifacts in workers
        "worker_bootstrap_failures",  # worker could not bootstrap (corrupt)
        "worker_republishes",  # parent force-rewrote artifacts for a worker
        "worker_crashes",  # pool workers that died / pool breakage events
        "executor_degraded",  # process→thread executor fallbacks
        "coalesced",       # async requests served by an in-flight duplicate
        "async_parses",    # requests admitted through AsyncParseService
        # -- transpilation -------------------------------------------------
        "renders",         # AST-to-SQL renders performed
        "translates",      # cross-dialect translations served
        "translate_errors",  # translations rejected (E0401/E0402 or parse)
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters = {name: 0 for name in self.COUNTERS}
        #: name of the backend the owning service serves with (set by
        #: ParseService; None for a registry used standalone)
        self.backend: str | None = None
        self._histograms = {
            "compose": LatencyHistogram(),
            "ir_compile": LatencyHistogram(),
            "closure_compile": LatencyHistogram(),
            "parse": LatencyHistogram(),
            # per-backend parse series: "parse" stays the aggregate the
            # dashboards already read; these make a compiled→interpreter
            # degradation visible as traffic shifting between series
            "parse_compiled": LatencyHistogram(),
            "parse_interpreter": LatencyHistogram(),
            "lint": LatencyHistogram(),
            # timed-out parses, recorded separately so the main parse
            # series is not polluted while p99 still reflects reality
            "timeouts": LatencyHistogram(),
            "render": LatencyHistogram(),
            "translate": LatencyHistogram(),
            # per-executor end-to-end series (submission -> collected),
            # so thread vs process scaling is visible side by side
            "executor_thread": LatencyHistogram(),
            "executor_process": LatencyHistogram(),
        }
        self._depths = {
            "thread": DepthGauge(),
            "process": DepthGauge(),
            "async": DepthGauge(),
        }

    # -- recording --------------------------------------------------------

    def incr(self, counter: str, by: int = 1) -> None:
        with self._lock:
            self._counters[counter] += by

    def observe(self, histogram: str, seconds: float) -> None:
        with self._lock:
            self._histograms[histogram].observe(seconds)

    def time(self, histogram: str):
        """Context manager: time a block into one histogram."""
        return _Timer(self, histogram)

    def observe_depth(self, kind: str, depth: int) -> None:
        """Record the queue depth seen at admission for one executor kind."""
        with self._lock:
            self._depths[kind].observe(depth)

    # -- reading ----------------------------------------------------------

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters[name]

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self._counters["hits"] + self._counters["misses"]
            return self._counters["hits"] / total if total else 0.0

    def snapshot(self) -> dict:
        """Point-in-time copy of every counter and histogram."""
        with self._lock:
            total = self._counters["hits"] + self._counters["misses"]
            return {
                "backend": self.backend,
                "counters": dict(self._counters),
                "hit_rate": (
                    round(self._counters["hits"] / total, 4) if total else 0.0
                ),
                "latency": {
                    name: h.snapshot() for name, h in self._histograms.items()
                },
                "queue_depth": {
                    name: g.snapshot() for name, g in self._depths.items()
                },
            }

    def render(self) -> str:
        """Human-readable snapshot for ``repro stats`` / the shell."""
        snap = self.snapshot()
        lines = ["parse service stats"]
        if snap["backend"]:
            lines.append(f"  backend: {snap['backend']}")
        counters = snap["counters"]
        lines.append(
            f"  cache: {counters['hits']} hits / {counters['misses']} misses "
            f"(hit rate {snap['hit_rate']:.0%}), {counters['evictions']} evicted"
        )
        n = {event: counters[f"artifact.ir.{event}"] for event in EVENTS}
        lines.append(
            f"  ir:       {n['build']} builds, {n['hit']} disk "
            f"hits / {n['miss']} misses, {n['stale']} stale, "
            f"{n['corrupt']} corrupt"
        )
        lines.append(
            f"  work:  {counters['composes']} composes, "
            f"{counters['parses']} parses "
            f"({counters['parse_errors']} with errors, "
            f"{counters['timeouts']} timeouts)"
        )
        resilience_bits = []
        for name, label in (
            ("quarantined", "quarantined"),
            ("retries", "retries"),
            ("breaker_trips", "breaker trips"),
            ("breaker_fast_fails", "fast fails"),
            ("shed", "shed"),
            ("degraded_backend", "degraded backend"),
            ("degraded_hints", "degraded hints"),
            ("internal_errors", "internal errors"),
        ):
            if counters[name]:
                resilience_bits.append(f"{counters[name]} {label}")
        if resilience_bits:
            lines.append("  resil: " + ", ".join(resilience_bits))
        executor_bits = []
        for name, label in (
            ("worker_tasks", "worker tasks"),
            ("worker_bootstraps", "bootstraps"),
            ("worker_bootstrap_failures", "bootstrap failures"),
            ("worker_republishes", "republishes"),
            ("worker_crashes", "worker crashes"),
            ("executor_degraded", "executor degraded"),
            ("coalesced", "coalesced"),
            ("async_parses", "async parses"),
        ):
            if counters[name]:
                executor_bits.append(f"{counters[name]} {label}")
        if executor_bits:
            lines.append("  exec:  " + ", ".join(executor_bits))
        for kind, gauge in snap["queue_depth"].items():
            if gauge["count"]:
                lines.append(
                    f"  queue[{kind}]: mean={gauge['mean']} "
                    f"max={gauge['max']} last={gauge['last']}"
                )
        for name in ("compose", "parse", "timeouts"):
            h = snap["latency"][name]
            if not h["count"]:
                lines.append(f"  {name:7}: (no samples)")
                continue
            lines.append(
                f"  {name:7}: n={h['count']} mean={h['mean_ms']:.2f}ms "
                f"p50={h['p50_ms']:.2f}ms p90={h['p90_ms']:.2f}ms "
                f"max={h['max_ms']:.2f}ms"
            )
        for name in (
            "parse_compiled", "parse_interpreter",
            "executor_thread", "executor_process",
        ):
            h = snap["latency"][name]
            if not h["count"]:
                continue  # only series that saw traffic
            lines.append(
                f"  {name}: n={h['count']} mean={h['mean_ms']:.2f}ms "
                f"p50={h['p50_ms']:.2f}ms p90={h['p90_ms']:.2f}ms "
                f"max={h['max_ms']:.2f}ms"
            )
        return "\n".join(lines)

    def reset(self) -> None:
        with self._lock:
            for name in self._counters:
                self._counters[name] = 0
            for name in self._histograms:
                self._histograms[name] = LatencyHistogram()
            for name in self._depths:
                self._depths[name] = DepthGauge()


class _Timer:
    __slots__ = ("_metrics", "_histogram", "_t0", "seconds")

    def __init__(self, metrics: ServiceMetrics, histogram: str) -> None:
        self._metrics = metrics
        self._histogram = histogram
        self.seconds = 0.0

    def __enter__(self) -> "_Timer":
        import time

        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        import time

        self.seconds = time.perf_counter() - self._t0
        self._metrics.observe(self._histogram, self.seconds)

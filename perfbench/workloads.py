"""The four workloads: set-up, the measured loop and per-operation checks.

Every workload builds its own service over a private
:class:`~repro.service.registry.ParserRegistry` on a fresh
``build_sql_product_line()`` and an empty artifact directory, inside the
interpreter started for this run, so nothing an earlier run composed is
warm.  One exception is imposed by the program: ``ParseService.translate``
resolves preset dialects through the process-wide registry and a
process-wide cache in ``repro.transpile.translate``, so translate-pairs
starts from those being empty instead, and its registry-layer numbers
are read on that registry.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import math
import os
import shutil
import time
from collections import Counter, defaultdict
from pathlib import Path

import inputs
from hostspeed import WINDOW, HostSpeed
from oracle import (
    Reference,
    parse_failure,
    resolved_features,
    translate_failure,
    tree_digest,
)
from stats import median, percentile

from repro.service import AsyncParseService, ParseService, ParserRegistry
from repro.sql import (
    build_sql_product_line,
    dialect_features,
    sql_parser_registry,
)

#: Executor width and async dispatch threads: one per CPU this process
#: may use, and at least two so the process executor really fans out.
WORKERS = max(2, min(8, len(os.sched_getaffinity(0))))

#: Open loop: host samples only when the next send is at least this far
#: off, and at most this often.
IDLE_S = 0.006
OPEN_LOOP_INTERVAL_S = 0.25


def _ms(seconds: float) -> float:
    return seconds * 1e3


async def open_loop(front, features, schedule, tracer=None, host=None,
                    limit_s: float = math.inf) -> dict:
    """Send each ``(request, offset)`` at its offset from now, from one loop.

    Every request is timed from when it was due, so a stall delays the
    requests behind it too.  ``late`` is how late the generator itself
    sent each request, ``depth`` the front end's pending count at each
    send and ``backlog`` that count right after the last send.

    Given a :class:`HostSpeed`, offsets are in reference seconds: each gap
    is stretched by the current host factor, so a slow host gets the same
    load relative to its speed, and ``factors[i]`` is the factor when the
    request behind ``latency[i]`` was sent.  The loop samples the host
    only while nothing is in flight and no send is due within ``IDLE_S``,
    at most every ``OPEN_LOOP_INTERVAL_S``.  Nothing is sent later than
    ``limit_s`` after the start, however slow the host.
    """
    loop = asyncio.get_running_loop()
    record: dict = {"latency": [], "wait": [], "late": [], "depth": [],
                    "factors": [], "outcomes": []}

    async def one(index, request, due, sent, factor):
        result = await front.parse(request.text, features[request.dialect])
        done = time.perf_counter()
        record["latency"].append(done - due)
        record["factors"].append(factor)
        record["wait"].append(done - sent - result.seconds)
        record["outcomes"].append((request, result))
        if tracer is not None:
            root = tracer.record("serve.request", due, done, request=index)
            tracer.record("async.parse", sent, done, request=index, parent=root)

    tasks = []
    next_sample = 0.0
    start = due = time.perf_counter() + 0.005
    previous = 0.0
    for index, (request, offset) in enumerate(schedule):
        factor = 1.0 if host is None else host.factor
        due += (offset - previous) / factor
        previous = offset
        if due - start > limit_s:
            break
        now = time.perf_counter()
        if (host is not None and now >= next_sample and not front.pending
                and due - now > IDLE_S):
            host.sample()
            next_sample = time.perf_counter() + OPEN_LOOP_INTERVAL_S
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        sent = time.perf_counter()
        record["late"].append(sent - due)
        record["depth"].append(front.pending)
        tasks.append(loop.create_task(one(index, request, due, sent, factor)))
    record["backlog"] = front.pending
    await asyncio.gather(*tasks)
    record["elapsed"] = time.perf_counter() - start
    return record


def closed_loop(walls: list[float], factors: list[float], operations: int) -> dict:
    """End-to-end metrics of a closed loop, at the reference host speed.

    ``walls[i]`` is one call's measured time and ``factors[i]`` the host
    factor sampled next to it; the raw figures go to the report.
    """
    scaled = [wall * factor for wall, factor in zip(walls, factors)]
    return {
        "p50_ms": _ms(median(scaled)),
        "p99_ms": _ms(percentile(scaled, 0.99)),
        "samples": len(walls),
        "qps": operations / sum(scaled),
        "host_factor": median(factors),
        "raw": {
            "p50_ms": _ms(median(walls)),
            "p99_ms": _ms(percentile(walls, 0.99)),
            "qps": operations / sum(walls),
        },
    }


def async_layers(record: dict, before: dict, after: dict) -> dict[str, float]:
    """Per-layer numbers of one open-loop phase (service counters around it)."""
    parses = after["async_parses"] - before["async_parses"]
    return {
        "async.wait_ms": _ms(median(record["wait"])),
        "async.coalesced_ratio": (
            (after["coalesced"] - before["coalesced"]) / max(1, parses)
        ),
        "async.depth_p99": percentile(record["depth"], 0.99),
        "loadgen.late_p99_ms": _ms(percentile(record["late"], 0.99)),
    }


class Workload:
    """Shared bookkeeping: artifact directories, checks, input properties."""

    name = ""
    dialects: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.features = {d: tuple(dialect_features(d)) for d in self.dialects}
        self.registry: ParserRegistry | None = None
        self.attempted = 0
        self.failures: Counter = Counter()
        #: (dialect, text) -> {tree digest: operations}, checked in verify()
        self.trees: defaultdict = defaultdict(Counter)
        #: (dialect, text) -> operations answered with a rejection
        self.rejections: Counter = Counter()
        self._dirs: list[Path] = []
        self._closers: list = []

    # -- resources ---------------------------------------------------------

    def fresh_dir(self, tag: str) -> Path:
        path = self.workdir / f"{tag}-{os.getpid()}-{len(self._dirs)}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        self._dirs.append(path)
        return path

    def new_registry(self) -> ParserRegistry:
        """A private registry on a fresh line with an empty artifact dir."""
        return ParserRegistry(
            build_sql_product_line(), cache_dir=self.fresh_dir("artifacts")
        )

    def on_close(self, closer) -> None:
        self._closers.append(closer)

    def close(self) -> None:
        """Stop every pool and loop this workload started; drop its dirs."""
        while self._closers:
            self._closers.pop()()
        for path in self._dirs:
            shutil.rmtree(path, ignore_errors=True)
        self._dirs.clear()

    # -- checks ------------------------------------------------------------

    def check_parse(self, result, dialect: str, valid: bool,
                    overload_ok: bool = False) -> str | None:
        """Check one parse result now; its tree is compared in :meth:`verify`."""
        self.attempted += 1
        failure = parse_failure(result, valid)
        if failure is None:
            if valid:
                self.trees[(dialect, result.text)][tree_digest(result.tree)] += 1
            else:
                self.rejections[(dialect, result.text)] += 1
        elif not (overload_ok and failure.startswith("overload")):
            self.failures[failure] += 1
        return failure

    def verify(self, reference: Reference) -> None:
        """Compare every accepted tree and every rejection with the reference."""
        for (dialect, text), seen in self.trees.items():
            expected = reference.outcome(dialect, text)[0]
            for digest, ops in seen.items():
                if digest != expected:
                    self.failures["tree differs from the reference parser's"] += ops
        for (dialect, text), ops in self.rejections.items():
            if reference.outcome(dialect, text)[0] is not None:
                self.failures["reference parser accepts a rejected query"] += ops

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def valid_inputs(self) -> Counter:
        """(dialect, text) -> operations, over the valid inputs sent."""
        return Counter({key: sum(seen.values()) for key, seen in self.trees.items()})

    def properties(self, reference: Reference) -> dict:
        """Workload properties computed from the inputs this run sent."""
        sent = self.valid_inputs()
        mix: Counter = Counter()
        for (dialect, _text), ops in itertools.chain(
            sent.items(), self.rejections.items()
        ):
            mix[dialect] += ops
        total = sum(mix.values()) or 1
        outcomes = [reference.outcome(d, t) for d, t in sent]
        return {
            "dialect_mix": {d: round(mix[d] / total, 4) for d in self.dialects},
            "distinct_valid_queries": len(sent),
            "tokens_per_query": sum(o[1] for o in outcomes) / max(1, len(outcomes)),
            "nodes_per_query": sum(o[2] for o in outcomes) / max(1, len(outcomes)),
        }

    # -- probe inputs --------------------------------------------------------

    def layer_requests(self) -> list[inputs.Request]:
        """This workload's queries, for the traced run's layer probe."""
        raise NotImplementedError

    def translate_items(self) -> list[tuple[str, str, str]]:
        """``(source, target, sql)`` for the transpiler layers: into ``core``."""
        return [(r.dialect, "core", r.text) for r in self.layer_requests() if r.valid]


class ServeMixed(Workload):
    """Open loop: Poisson arrivals into AsyncParseService over a thread service."""

    name = "serve-mixed"
    dialects = inputs.DIALECTS
    #: Offered load of the base phase, requests per second (repeats included).
    BASE_RATE = 60.0
    #: Share of the run spent at the base rate; the rest climbs the ladder.
    BASE_SHARE = 0.85
    #: A phase's arrivals stretch on a slow host, up to this many times its
    #: length; past that, the rest of its schedule is not sent.
    MAX_STRETCH = 1.6
    #: Interactive limit on a ladder step's median latency.  A p99 limit
    #: does not repeat here: over one step's few hundred requests the p99
    #: moves by a third from run to run.  The limit sits below the knee,
    #: where queues are still stable and the median repeats.
    LIMIT_S = 0.015
    #: The step also fails when the generator's median lateness exceeds
    #: this: a starved event loop would otherwise understate latency.
    LATE_LIMIT_S = 0.005
    #: The fixed rate ladder, 25% apart, binary-searched in LADDER_STEPS steps.
    LADDER = tuple(round(50 * 1.25**k) for k in range(9))
    LADDER_STEPS = 3

    def setup(self) -> float:
        warm = inputs.serve_requests(self.seed, 8 * WORKERS * len(self.dialects), "warm")
        start = time.perf_counter()
        self.registry = self.new_registry()
        self.service = ParseService(registry=self.registry, max_workers=WORKERS)
        self.on_close(self.service.close)
        self.front = AsyncParseService(self.service)
        self.loop = asyncio.new_event_loop()
        self.on_close(self.loop.close)
        self.on_close(lambda: self.loop.run_until_complete(self.front.close()))
        self.loop.run_until_complete(self._warm(warm))
        return time.perf_counter() - start

    async def _warm(self, requests) -> None:
        """Compose every dialect and build its parser on every dispatch thread."""
        for dialect in self.dialects:
            texts = [r.text for r in requests if r.dialect == dialect][: 2 * WORKERS]
            for _round in range(2):
                await asyncio.gather(
                    *(self.front.parse(t, self.features[dialect]) for t in texts)
                )

    def measure(self, seconds: float, tracer=None) -> dict:
        base_s = seconds * self.BASE_SHARE
        step_s = (seconds - base_s) / self.LADDER_STEPS
        base = self._phase(self.BASE_RATE, base_s, "base", tracer)
        steps = []
        passed = failed = None
        lo, hi = -1, len(self.LADDER)
        while hi - lo > 1 and len(steps) < self.LADDER_STEPS:
            mid = (lo + hi) // 2
            step = self._phase(self.LADDER[mid], step_s, f"step-{mid}", None)
            steps.append(step["summary"])
            if step["summary"]["score"] <= 1.0:
                lo, passed = mid, step["summary"]
            else:
                hi, failed = mid, step["summary"]
        summary = base["summary"]
        return {
            "p50_ms": summary["p50_ms"],
            "p99_ms": summary["p99_ms"],
            "host_factor": summary["host_factor"],
            "raw": {"p50_ms": summary["raw_p50_ms"], "p99_ms": summary["raw_p99_ms"]},
            "samples": summary["requests"],
            "qps": summary["qps"],
            "max_qps": self._crossing(passed, failed),
            "layers": base["layers"],
            "phases": [summary, *steps],
        }

    def _crossing(self, passed: dict | None, failed: dict | None) -> float:
        """The rate where the step score crosses 1, between adjacent rungs.

        Interpolated on log rate against log score, so the result moves
        continuously with the service instead of jumping a whole rung.
        """
        if passed is None:
            return float(self.LADDER[0])
        if failed is None or math.isinf(failed["score"]):
            return float(passed["rate"])
        span = math.log(failed["score"] / passed["score"])
        share = -math.log(passed["score"]) / span if span > 0 else 0.0
        return passed["rate"] * (failed["rate"] / passed["rate"]) ** share

    def _phase(self, rate: float, seconds: float, stream: str, tracer) -> dict:
        requests = inputs.serve_requests(self.seed, int(rate * seconds) + 8, stream)
        times = inputs.arrival_times(requests, rate, stream)
        schedule = [(r, t) for r, t in zip(requests, times) if t < seconds]
        host = HostSpeed()
        host.sample(WINDOW)
        # A full collection here takes 40-90 ms and finds no garbage; one or
        # two land in a phase, or none, and that alone doubled the p99.  So
        # the collector runs between phases, not during them.
        gc.collect()
        gc.disable()
        before = self.service.metrics.snapshot()["counters"]
        try:
            record = self.loop.run_until_complete(
                open_loop(self.front, self.features, schedule, tracer, host,
                          seconds * self.MAX_STRETCH)
            )
        finally:
            gc.enable()
        after = self.service.metrics.snapshot()["counters"]
        # overload on a ladder step fails the step; at the base rate, the run
        failures = sum(
            self.check_parse(result, r.dialect, r.valid, stream != "base")
            is not None
            for r, result in record["outcomes"]
        )
        sent = [request for request, _result in record["outcomes"]]
        host_factor = median(record["factors"])
        scaled = [lat * f for lat, f in zip(record["latency"], record["factors"])]
        p50 = median(scaled)
        late_p50 = median(record["late"]) * host_factor
        summary = {
            "stream": stream,
            "rate": rate,
            "requests": len(sent),
            "repeat_share": sum(r.repeat for r in sent) / len(sent),
            "invalid_share": sum(not r.valid for r in sent) / len(sent),
            "p50_ms": _ms(p50),
            "p99_ms": _ms(percentile(scaled, 0.99)),
            "raw_p50_ms": _ms(median(record["latency"])),
            "raw_p99_ms": _ms(percentile(record["latency"], 0.99)),
            "host_factor": host_factor,
            "qps": len(sent) / (record["elapsed"] * host_factor),
            "late_p50_ms": _ms(late_p50),
            "late_p99_ms": _ms(percentile(record["late"], 0.99)),
            "backlog": record["backlog"],
            "failures": failures,
            # a step passes at score <= 1: median latency and generator
            # lateness within their limits, and no failed or shed request
            "score": (
                math.inf if failures
                else max(p50 / self.LIMIT_S, late_p50 / self.LATE_LIMIT_S)
            ),
        }
        return {"summary": summary, "layers": async_layers(record, before, after)}

    def layer_requests(self) -> list[inputs.Request]:
        return inputs.serve_requests(self.seed, 300, "probe")


class BatchFull(Workload):
    """Closed loop: one client calling ``parse_many`` on fixed full batches."""

    name = "batch-full"
    dialects = ("full",)
    executor = "thread"
    #: Per-layer name of batch wall time minus summed parse time per worker.
    wait_metric = "executor.thread.wait_ms"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.batches = inputs.batches(seed)

    def setup(self) -> float:
        start = time.perf_counter()
        self.registry = self.new_registry()
        self.service = ParseService(
            registry=self.registry, max_workers=WORKERS, executor=self.executor
        )
        self.on_close(self.service.close)
        self._warm()
        return time.perf_counter() - start

    def _warm(self) -> None:
        """Compose ``full``, then build its parser on every pool thread."""
        for batch in self.batches[:2]:
            self.service.parse_many(batch, self.features["full"])

    def measure(self, seconds: float, tracer=None) -> dict:
        features = self.features["full"]
        host = HostSpeed()
        walls, factors, waits = [], [], []
        queries = 0
        gc.collect()
        host.sample(WINDOW)
        deadline = time.perf_counter() + seconds
        for index in itertools.count():
            host.tick()
            if time.perf_counter() >= deadline:
                break
            batch = self.batches[index % len(self.batches)]
            start = time.perf_counter()
            results = self.service.parse_many(batch, features)
            end = time.perf_counter()
            if tracer is not None:
                tracer.record("service.parse_many", start, end, request=index)
            walls.append(end - start)
            factors.append(host.factor)
            waits.append(end - start - sum(r.seconds for r in results) / WORKERS)
            queries += len(results)
            for result in results:
                self.check_parse(result, "full", True)
        measured = closed_loop(walls, factors, queries)
        measured["layers"] = {self.wait_metric: _ms(median(waits))}
        return measured

    def layer_requests(self) -> list[inputs.Request]:
        return [
            inputs.Request("full", text, True)
            for batch in self.batches for text in batch
        ]


class BatchProcess(BatchFull):
    """The batch-full loop on the process executor (spawned workers, a pipe)."""

    name = "batch-process"
    executor = "process"
    wait_metric = "workers.ipc_ms"

    def _warm(self) -> None:
        """Publish the artifacts, spawn the pool and bootstrap every worker."""
        for batch in itertools.islice(itertools.cycle(self.batches), 4 * WORKERS):
            self.service.parse_many(batch, self.features["full"])
            if self.service.metrics.counter("worker_bootstraps") >= WORKERS:
                break


class TranslatePairs(Workload):
    """Closed loop: one client calling ``ParseService.translate``."""

    name = "translate-pairs"
    dialects = ("core", "analytics", "full")

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.calls = inputs.translate_calls(seed)
        self.resolved = resolved_features(self.dialects)
        self.sources: Counter = Counter()
        self.outputs: Counter = Counter()
        self.pair_calls: Counter = Counter()
        self.refusals: Counter = Counter()

    def setup(self) -> float:
        firsts = {(s, d): t for s, d, t in reversed(self.calls)}
        start = time.perf_counter()
        self.service = ParseService(registry=self.new_registry(), max_workers=WORKERS)
        self.on_close(self.service.close)
        # translate() resolves presets through the process-wide registry
        self.registry = sql_parser_registry()
        for (source, target), text in firsts.items():
            self.service.translate(text, source, target)
        return time.perf_counter() - start

    def measure(self, seconds: float, tracer=None) -> dict:
        host = HostSpeed()
        walls, factors = [], []
        gc.collect()
        host.sample(WINDOW)
        deadline = time.perf_counter() + seconds
        for index in itertools.count():
            host.tick()
            if time.perf_counter() >= deadline:
                break
            source, target, text = self.calls[index % len(self.calls)]
            start = time.perf_counter()
            result = self.service.translate(text, source, target)
            end = time.perf_counter()
            if tracer is not None:
                tracer.record("service.translate", start, end, request=index)
            walls.append(end - start)
            factors.append(host.factor)
            self.check_translate(result, source, target)
        measured = closed_loop(walls, factors, len(walls))
        measured["layers"] = {
            "transpile.refusal_ratio": (
                sum(self.refusals.values()) / max(1, self.attempted)
            ),
        }
        return measured

    def check_translate(self, result, source: str, target: str) -> None:
        self.attempted += 1
        self.pair_calls[(source, target)] += 1
        self.sources[(source, result.source_sql)] += 1
        failure = translate_failure(result, source, target, self.resolved)
        if failure is not None:
            self.failures[failure] += 1
        elif result.ok:
            self.outputs[(target, result.sql)] += 1
        else:
            self.refusals[(source, target)] += 1

    def verify(self, reference: Reference) -> None:
        super().verify(reference)
        for (dialect, text), ops in self.sources.items():
            if reference.outcome(dialect, text)[0] is None:
                self.failures["reference parser rejects a generated query"] += ops
        for (target, sql), ops in self.outputs.items():
            if reference.outcome(target, sql)[0] is None:
                self.failures["output rejected by the target's reference parser"] += ops

    def valid_inputs(self) -> Counter:
        return self.sources

    def properties(self, reference: Reference) -> dict:
        props = super().properties(reference)
        props["refusal_share"] = {
            f"{s}->{t}": self.refusals[(s, t)] / max(1, self.pair_calls[(s, t)])
            for s, t in inputs.TRANSLATE_PAIRS
        }
        return props

    def layer_requests(self) -> list[inputs.Request]:
        return [inputs.Request(s, text, True) for s, _t, text in self.calls]

    def translate_items(self) -> list[tuple[str, str, str]]:
        return list(self.calls)


WORKLOADS = {cls.name: cls for cls in (ServeMixed, BatchFull, BatchProcess, TranslatePairs)}

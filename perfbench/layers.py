"""Per-layer numbers for the traced run: direct calls into every layer.

After the workload's own loop has run untraced and traced (one span per
public-API call), :func:`probe` calls each layer's public functions
itself, from the benchmark's code, on the workload's own valid queries,
with a span around every call.  Front ends a workload does not drive
itself (thread or process executor, async front end) are driven briefly
on the same queries, so every per-layer metric exists on every
workload; a workload's own loop supplies the ones it does drive.
Nothing inside ``src/`` is instrumented.
"""

from __future__ import annotations

import asyncio
import pickle
from collections import defaultdict

import inputs
from oracle import count_nodes
from stats import median
from workloads import WORKERS, async_layers, open_loop

from repro.errors import ReproError
from repro.service import (
    AsyncParseService,
    ParseService,
    RegistryEntry,
    ServiceMetrics,
    WorkerTask,
)
from repro.service.workers import execute_batch
from repro.sql import build_ast, dialect_features
from repro.transpile import RenderOptions, SqlRenderer, analyze

#: Valid workload queries every parse and transpiler layer is called on.
PROBE_QUERIES = 240
#: Calls per dialect for each set-up layer; their median counts.
SETUP_CALLS = 3
#: Distinct queries per dialect in one executor batch; batches per dialect.
EXECUTOR_BATCH = 48
EXECUTOR_REPEATS = 4
#: Open loop for workloads that do not drive the async front end.
ASYNC_RATE = 50.0
ASYNC_SECONDS = 2.0

#: Unit of every per-layer metric.
UNITS = {
    "registry.resolve_us": "us",
    "registry.acquire_us": "us",
    "registry.hit_ratio": "ratio",
    "compose_ms": "ms",
    "program.compile_ms": "ms",
    "closures.compile_ms": "ms",
    "artifact.publish_ms": "ms",
    "workers.bootstrap_ms": "ms",
    "lexer.scan_us": "us",
    "lexer.tokens_per_query": "count",
    "parsing.parse_us": "us",
    "parsing.diag_parse_us": "us",
    "parsing.recover_us": "us",
    "parsing.nodes_per_query": "count",
    "service.parse_us": "us",
    "service.overhead_us": "us",
    "executor.thread.wait_ms": "ms",
    "workers.ipc_ms": "ms",
    "workers.bytes_per_query": "bytes",
    "async.wait_ms": "ms",
    "async.coalesced_ratio": "ratio",
    "async.depth_p99": "count",
    "loadgen.late_p99_ms": "ms",
    "ast.build_us": "us",
    "transpile.analyze_us": "us",
    "transpile.render_us": "us",
    "transpile.verify_us": "us",
    "transpile.refusal_ratio": "ratio",
    "trace.overhead_pct": "%",
}


def _seconds(span) -> float:
    return span[2] - span[1]


def _median_us(tracer, name: str) -> float:
    return median(tracer.durations(name)) * 1e6


def probe(bench, tracer, measured: dict, counters_after_setup: dict) -> dict:
    """Every per-layer metric for ``bench``; ``measured`` comes from its loop."""
    queries = [r for r in bench.layer_requests() if r.valid][:PROBE_QUERIES]
    metrics = _parse_layers(bench, tracer, queries)
    counters = bench.registry.metrics.snapshot()["counters"]
    hits = counters["hits"] - counters_after_setup["hits"]
    misses = counters["misses"] - counters_after_setup["misses"]
    metrics["registry.hit_ratio"] = hits / max(1, hits + misses)
    metrics.update(_setup_layers(bench, tracer))
    metrics.update(
        _transpile_layers(bench, tracer, bench.translate_items()[:PROBE_QUERIES])
    )
    batches: dict[str, list[str]] = defaultdict(list)
    for query in queries:
        batch = batches[query.dialect]
        if query.text not in batch and len(batch) < EXECUTOR_BATCH:
            batch.append(query.text)
    metrics.update(_worker_layers(bench, tracer, batches))
    if "executor.thread.wait_ms" not in measured:
        metrics.update(_thread_layers(bench, tracer, batches))
    if "async.wait_ms" not in measured:
        metrics.update(_async_layers(bench, tracer, queries))
    metrics.update(measured)
    return metrics


def _parse_layers(bench, tracer, queries) -> dict[str, float]:
    """Resolve, lookup, scan, parse, recovery and the sync service call."""
    registry = bench.registry
    service = ParseService(registry=registry, max_workers=WORKERS)
    overhead = []
    tokens = nodes = 0
    try:
        for index, query in enumerate(queries):
            features = bench.features[query.dialect]
            request = ("parse", index)
            with tracer.span("probe.parse", request):
                with tracer.span("registry.resolve", request):
                    registry.fingerprint(features)
                with tracer.span("registry.acquire", request) as acquire:
                    entry, _warm = registry.acquire(features)
                parser = entry.thread_compiled_parser(registry.cache_dir)
                with tracer.span("lexer.scan", request):
                    scanned, _diagnostics = parser.scanner.scan_with_diagnostics(
                        query.text
                    )
                with tracer.span("parsing.parse", request):
                    tree = parser.parse_tokens(scanned)
                with tracer.span("parsing.diag_parse", request) as diag:
                    parser.parse_with_diagnostics(query.text)
                with tracer.span("parsing.recover", request):
                    parser.parse_with_diagnostics(inputs.mutate(query.text))
                with tracer.span("service.parse", request) as call:
                    service.parse(query.text, features)
            overhead.append(_seconds(call) - _seconds(acquire) - _seconds(diag))
            tokens += len(scanned) - 1
            nodes += count_nodes(tree)
    finally:
        service.close()
    return {
        "registry.resolve_us": _median_us(tracer, "registry.resolve"),
        "registry.acquire_us": _median_us(tracer, "registry.acquire"),
        "lexer.scan_us": _median_us(tracer, "lexer.scan"),
        "lexer.tokens_per_query": tokens / len(queries),
        "parsing.parse_us": _median_us(tracer, "parsing.parse"),
        "parsing.diag_parse_us": _median_us(tracer, "parsing.diag_parse"),
        "parsing.recover_us": _median_us(tracer, "parsing.recover"),
        "parsing.nodes_per_query": nodes / len(queries),
        "service.parse_us": _median_us(tracer, "service.parse"),
        "service.overhead_us": median(overhead) * 1e6,
    }


def _setup_layers(bench, tracer) -> dict[str, float]:
    """Compose, program and closure compile, artifact publish.

    Each metric sums, over the workload's dialects, the median of
    ``SETUP_CALLS`` calls on fresh entries outside the registry.
    """
    registry = bench.registry
    line = registry.line
    totals: dict[str, float] = defaultdict(float)
    for dialect in bench.dialects:
        features = bench.features[dialect]
        config = line.resolve_configuration(features)
        fingerprint = registry.fingerprint(features)
        calls: dict[str, list[float]] = defaultdict(list)
        for _ in range(SETUP_CALLS):
            with tracer.span("probe.setup", dialect):
                with tracer.span("compose", dialect) as span:
                    product = line.compose_product(config, fingerprint=fingerprint)
                calls["compose_ms"].append(_seconds(span))
                entry = RegistryEntry(product, ServiceMetrics())
                with tracer.span("program.compile", dialect) as span:
                    entry.program()
                calls["program.compile_ms"].append(_seconds(span))
                with tracer.span("closures.compile", dialect) as span:
                    entry.closure_program()
                calls["closures.compile_ms"].append(_seconds(span))
                directory = bench.fresh_dir("publish")
                with tracer.span("artifact.publish", dialect) as span:
                    entry.publish_worker_artifacts(directory)
                calls["artifact.publish_ms"].append(_seconds(span))
        for name, values in calls.items():
            totals[name] += median(values) * 1e3
    return dict(totals)


def _transpile_layers(bench, tracer, items) -> dict[str, float]:
    """Source parse, AST build, analyze, render and verify-reparse."""
    registry = bench.registry
    names = {source for source, _t, _q in items} | {target for _s, target, _q in items}
    entries = {name: registry.get(dialect_features(name)) for name in names}
    for entry in entries.values():
        entry.thread_parser()  # build the interpreting parsers outside the spans
    refused = 0
    for index, (source, target, sql) in enumerate(items):
        src, dst = entries[source], entries[target]
        request = ("translate", index)
        with tracer.span("probe.translate", request):
            with tracer.span("transpile.parse", request):
                tree = src.thread_parser().parse(sql)
            with tracer.span("ast.build", request):
                script = build_ast(tree)
            with tracer.span("transpile.analyze", request):
                report = analyze(script, source_product=src.product)
            if report.gaps(frozenset(dst.product.configuration.selected)):
                refused += 1
                continue
            try:
                with tracer.span("transpile.render", request):
                    rendered = SqlRenderer(
                        RenderOptions.for_product(dst.product)
                    ).render(script)
            except ReproError:
                refused += 1
                continue
            with tracer.span("transpile.verify", request):
                dst.thread_parser().parse(rendered)
    return {
        "ast.build_us": _median_us(tracer, "ast.build"),
        "transpile.analyze_us": _median_us(tracer, "transpile.analyze"),
        "transpile.render_us": _median_us(tracer, "transpile.render"),
        "transpile.verify_us": _median_us(tracer, "transpile.verify"),
        "transpile.refusal_ratio": refused / len(items),
    }


def _worker_layers(bench, tracer, batches) -> dict[str, float]:
    """A freshly spawned process pool: bootstrap, pipe time, bytes shipped.

    ``workers.bootstrap_ms`` sums, over the workload's dialects, the first
    batch's wall time minus the median of its warm repeats (the first
    dialect's includes spawning the pool); ``workers.ipc_ms`` is a warm
    batch's wall time minus its summed parse time per worker.
    """
    directory = bench.fresh_dir("probe-artifacts")
    service = ParseService(
        registry=bench.registry, executor="process", max_workers=WORKERS,
        cache_dir=directory,
    )
    bootstrap = 0.0
    ipc = []
    shipped = queries = 0
    try:
        for dialect, texts in batches.items():
            features = bench.features[dialect]
            walls = []
            for repeat in range(EXECUTOR_REPEATS):
                with tracer.span("workers.batch", dialect) as span:
                    results = service.parse_many(texts, features)
                walls.append(_seconds(span))
                if repeat:
                    ipc.append(
                        _seconds(span) - sum(r.seconds for r in results) / WORKERS
                    )
            bootstrap += walls[0] - median(walls[1:])
            task = WorkerTask(
                digest=bench.registry.fingerprint(features).digest,
                cache_dir=str(directory), backend="compiled", text="",
                texts=tuple(texts),
            )
            shipped += len(pickle.dumps(task)) + len(pickle.dumps(execute_batch(task)))
            queries += len(texts)
    finally:
        service.close()
    return {
        "workers.bootstrap_ms": bootstrap * 1e3,
        "workers.ipc_ms": median(ipc) * 1e3,
        "workers.bytes_per_query": shipped / queries,
    }


def _thread_layers(bench, tracer, batches) -> dict[str, float]:
    """Thread-executor batches: wall time minus summed parse time per worker."""
    service = ParseService(registry=bench.registry, max_workers=WORKERS)
    waits = []
    try:
        for dialect, texts in batches.items():
            for _ in range(EXECUTOR_REPEATS):
                with tracer.span("executor.thread.batch", dialect) as span:
                    results = service.parse_many(texts, bench.features[dialect])
                waits.append(
                    _seconds(span) - sum(r.seconds for r in results) / WORKERS
                )
    finally:
        service.close()
    return {"executor.thread.wait_ms": median(waits) * 1e3}


def _async_layers(bench, tracer, queries) -> dict[str, float]:
    """A short open loop through the async front end at a low fixed rate."""
    times = inputs.arrival_times(queries, ASYNC_RATE, "async-probe")
    schedule = [(q, t) for q, t in zip(queries, times) if t < ASYNC_SECONDS]
    service = ParseService(registry=bench.registry, max_workers=WORKERS)
    front = AsyncParseService(service)

    async def drive():
        try:
            return await open_loop(front, bench.features, schedule, tracer)
        finally:
            await front.close()

    before = service.metrics.snapshot()["counters"]
    try:
        record = asyncio.run(drive())
    finally:
        service.close()
    return async_layers(record, before, service.metrics.snapshot()["counters"])

"""E11 — the parse service: cold vs warm latency and batch throughput.

The serving claim of the subsystem: composing a tailor-made parser is
expensive (grammar composition + LL analysis), so a fingerprint-keyed
cache must amortize it.  Measured here:

* cold request (compose + analyse + parse) vs warm request (cache hit +
  parse) on the ``core`` dialect — the warm path must be >= 10x faster,
* ``parse_many`` throughput at worker-pool widths 1 / 4 / 8,
* on-disk artifact cache: closures (+ IR) artifact load from disk.
"""

import time

import pytest

from repro.service import ParseService, ParserRegistry
from repro.sql import build_sql_product_line, dialect_features
from repro.workloads import generate_workload

QUERY = "SELECT a, b FROM t WHERE a = 1"


def fresh_service(**kwargs):
    """A service over a private registry — no cross-test cache pollution."""
    line = build_sql_product_line()
    return ParseService(registry=ParserRegistry(line, capacity=8), **kwargs)


def test_warm_vs_cold_speedup():
    """Acceptance criterion: warm-cache parse is >= 10x faster than cold."""
    features = dialect_features("core")

    t0 = time.perf_counter()
    with fresh_service() as service:
        cold = service.parse(QUERY, features)
        cold_seconds = time.perf_counter() - t0
        assert cold.ok and not cold.warm

        # steady state: median of repeated warm requests
        warm_samples = []
        for _ in range(20):
            t0 = time.perf_counter()
            warm = service.parse(QUERY, features)
            warm_samples.append(time.perf_counter() - t0)
            assert warm.ok and warm.warm
        warm_samples.sort()
        warm_seconds = warm_samples[len(warm_samples) // 2]

    speedup = cold_seconds / warm_seconds
    print(
        f"\n[E11] cold={cold_seconds * 1000:.2f}ms "
        f"warm={warm_seconds * 1000:.3f}ms speedup={speedup:.0f}x"
    )
    assert speedup >= 10.0, (
        f"warm path only {speedup:.1f}x faster than cold "
        f"({warm_seconds * 1000:.3f}ms vs {cold_seconds * 1000:.2f}ms)"
    )


def test_bench_cold_request(benchmark):
    features = dialect_features("core")

    def cold():
        with fresh_service() as service:
            return service.parse(QUERY, features)

    result = benchmark(cold)
    assert result.ok and not result.warm


def test_bench_warm_request(benchmark):
    features = dialect_features("core")
    with fresh_service() as service:
        service.warm(features)
        result = benchmark(lambda: service.parse(QUERY, features))
        assert result.ok and result.warm


@pytest.mark.parametrize("workers", [1, 4, 8])
def test_bench_batch_throughput(benchmark, workers):
    """E11 batch: one composed product fanned out over the worker pool."""
    features = dialect_features("core")
    texts = generate_workload("core", count=200, seed=11)
    with fresh_service(max_workers=workers) as service:
        service.warm(features)

        def batch():
            return service.parse_many(texts, features)

        results = benchmark(batch)
        assert len(results) == len(texts)
        stats = service.stats()
        print(
            f"\n[E11] workers={workers}: {len(texts)} texts, "
            f"hit rate {stats['hit_rate']:.0%}, "
            f"p90 parse {stats['latency']['parse'].get('p90_ms', 0):.2f}ms"
        )


def test_bench_disk_cache_load(benchmark, tmp_path):
    """Loading the closures artifact (and its IR) from the artifact cache."""
    features = dialect_features("core")
    line = build_sql_product_line()

    seed_registry = ParserRegistry(line, capacity=8, cache_dir=tmp_path)
    seed_registry.get(features).closure_program()  # populate the artifacts

    def load_from_disk():
        registry = ParserRegistry(line, capacity=8, cache_dir=tmp_path)
        fresh = registry.get(features)
        return fresh.closure_program(), registry

    closure, registry = benchmark(load_from_disk)
    assert closure.rule_fns
    assert registry.metrics.counter("artifact.closures.hit") == 1
    assert registry.metrics.counter("artifact.closures.build") == 0

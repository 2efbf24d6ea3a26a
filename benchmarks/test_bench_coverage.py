"""Coverage instrumentation overhead on the interpreting parser.

The design claim: instrumentation is pay-for-use.  Coverage is a
per-call argument (``coverage=``): an instrumented call runs
``_exec_cov`` on that call's own state, and a call without a collector
runs the plain ``_exec`` path, with no per-instruction coverage branch.
So heavy instrumented use must leave no cost behind on the *same*
shared parser — the default path must stay within noise of the
pre-coverage baseline (< 3% on the E11 service benchmarks) — and
opting in must keep parsing the dominant term.  This module measures
both.
"""

import time

from repro.parsing.coverage import CoverageMap
from repro.sql import build_dialect
from repro.workloads import generate_workload

N_QUERIES = 200
ROUNDS = 7


def batch_seconds(parser, queries, coverage=None):
    t0 = time.perf_counter()
    for query in queries:
        parser.accepts(query, coverage=coverage)
    return time.perf_counter() - t0


def best_of(parser, queries, rounds=ROUNDS):
    """Minimum batch time over several rounds — the noise-robust stat."""
    return min(batch_seconds(parser, queries) for _ in range(rounds))


def test_bench_parse_plain(benchmark):
    product = build_dialect("core")
    queries = generate_workload("core", count=N_QUERIES, seed=11)
    parser = product.parser()
    benchmark(lambda: batch_seconds(parser, queries))


def test_bench_parse_instrumented(benchmark):
    product = build_dialect("core")
    queries = generate_workload("core", count=N_QUERIES, seed=11)
    parser = product.parser()
    collector = CoverageMap(parser.program).collector()
    benchmark(lambda: batch_seconds(parser, queries, coverage=collector))


def test_instrumentation_leaves_the_shared_parser_untouched():
    """Heavy instrumented use must not leak any cost into the plain
    calls of the same parser — no instance damage, no global state."""
    product = build_dialect("core")
    queries = generate_workload("core", count=N_QUERIES, seed=11)
    parser = product.parser()

    before_best = best_of(parser, queries)  # before any instrumented call

    collector = CoverageMap(parser.program).collector()
    for _ in range(ROUNDS):
        batch_seconds(parser, queries, coverage=collector)
    assert collector.score() > 0

    after_best = best_of(parser, queries)
    ratio = after_best / before_best
    print(
        f"\n[coverage] shared parser {after_best * 1000:.2f}ms after vs "
        f"{before_best * 1000:.2f}ms before instrumented use (ratio {ratio:.3f})"
    )
    assert ratio < 1.05, f"plain parser slowed {ratio:.3f}x by instrumentation"


def test_instrumented_overhead_is_bounded():
    """Opting in costs something, but parsing must stay the dominant term."""
    product = build_dialect("core")
    queries = generate_workload("core", count=N_QUERIES, seed=11)
    parser = product.parser()
    collector = CoverageMap(parser.program).collector()

    plain_best = instrumented_best = float("inf")
    for _ in range(ROUNDS):
        plain_best = min(plain_best, batch_seconds(parser, queries))
        instrumented_best = min(
            instrumented_best,
            batch_seconds(parser, queries, coverage=collector),
        )
    ratio = instrumented_best / plain_best
    print(
        f"\n[coverage] instrumented {instrumented_best * 1000:.2f}ms vs "
        f"{plain_best * 1000:.2f}ms plain (overhead {ratio:.2f}x)"
    )
    assert ratio < 2.0, f"instrumented parse {ratio:.2f}x plain"

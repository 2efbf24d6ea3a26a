"""Coverage counting overhead on the interpreting parser.

The design claim: counting is pay-for-use.  Coverage is a per-call
argument (``coverage=``) that rides on the call's own state, and plain
and counting calls walk the same ``_exec``: a counting call counts each
decision where the walk commits to it, and a plain call pays one
``s.cov`` test per such decision and nothing per instruction.  So heavy
counting use must leave no cost behind on the *same* shared parser —
the default path must stay within noise of the pre-coverage baseline
(< 3% on the E11 service benchmarks) — and opting in must keep parsing
the dominant term.  This module measures both.
"""

import gc
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


def paired_ratios(fn_a, fn_b, items, rounds=ROUNDS):
    """Per round, ``fn_a``'s total time over ``fn_b``'s across ``items``,
    sorted.  The two take turns on every item, alternating which goes
    first, so host drift (tens of percent within one batch on a shared
    host) reaches both alike."""
    clock = time.perf_counter
    ratios = []
    for _ in range(rounds):
        # from a collected heap, so that a full collection owed to
        # earlier work does not land in one side's calls
        gc.collect()
        spent = [0.0, 0.0]
        for i, item in enumerate(items):
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                t0 = clock()
                (fn_a, fn_b)[side](item)
                spent[side] += clock() - t0
        ratios.append(spent[0] / spent[1])
    return sorted(ratios)


def test_instrumentation_leaves_the_shared_parser_untouched():
    """Heavy instrumented use must not leak any cost into the plain
    calls of the same parser — no instance damage, no global state.

    On a shared host one batch reads 80–130 ms minutes apart, and two
    identical parsers' best-of-7 batches differ by up to 12%, so no check
    compares readings taken at different times.  Each is the median, over
    rounds, of a ratio between two calls that take turns query by query,
    on pre-scanned tokens:

    * instance damage: after the instrumented calls, the shared parser
      over a twin built from the same product that never counted;
    * global state (a cost every parser in the process would pay, the
      twin included): the twin over the product's scanner, a host-speed
      reference that runs no parser code, after the instrumented calls
      over before them.
    """
    product = build_dialect("core")
    queries = generate_workload("core", count=N_QUERIES, seed=11)
    shared = product.parser()
    twin = product.parser()
    assert twin is not shared
    scanned = {query: twin.scanner.scan(query) for query in queries}

    def plain(parser):
        return lambda query: parser.parse_tokens(scanned[query])

    before = paired_ratios(plain(twin), twin.scanner.scan, queries)

    collector = CoverageMap(shared.program).collector()
    for _ in range(ROUNDS):
        batch_seconds(shared, queries, coverage=collector)
    assert collector.score() > 0

    instance = paired_ratios(plain(shared), plain(twin), queries)
    after = paired_ratios(plain(twin), twin.scanner.scan, queries)
    mid = ROUNDS // 2
    host = after[mid] / before[mid]
    print(
        f"\n[coverage] shared parser over its twin {instance[mid]:.3f} "
        f"(rounds {instance[0]:.3f}-{instance[-1]:.3f}); twin over the "
        f"scanner {host:.3f}x its ratio before instrumented use (rounds "
        f"after {after[0] / before[mid]:.3f}-{after[-1] / before[mid]:.3f})"
    )
    assert instance[mid] < 1.05, (
        f"plain calls {instance[mid]:.3f}x a twin's after counting"
    )
    assert host < 1.05, f"every parser slowed {host:.3f}x by instrumentation"


def test_instrumented_overhead_is_bounded():
    """Opting in costs something, but parsing must stay the dominant term.

    The counting and the plain call take turns query by query
    (:func:`paired_ratios`), so a host slowdown reaches both sides
    alike; the gate reads the median round.
    """
    product = build_dialect("core")
    queries = generate_workload("core", count=N_QUERIES, seed=11)
    parser = product.parser()
    collector = CoverageMap(parser.program).collector()

    ratios = paired_ratios(
        lambda query: parser.accepts(query, coverage=collector),
        parser.accepts,
        queries,
    )
    ratio = ratios[ROUNDS // 2]
    assert collector.score() > 0
    print(
        f"\n[coverage] counting over plain {ratio:.2f}x "
        f"(rounds {ratios[0]:.2f}-{ratios[-1]:.2f})"
    )
    assert ratio < 2.0, f"instrumented parse {ratio:.2f}x plain"

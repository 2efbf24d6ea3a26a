"""Resilience-wrapper overhead on the warm parse path.

Acceptance criterion for the resilient-serving work: the hardening
added to the request path — admission control, the never-crash worker
guard, fault-site checks (no plan installed), and the cooperative
deadline hook in the parse driver — must cost **under 5%** on a warm
parse.  Measured two ways:

* service level: ``ParseService.parse`` vs an emulation of the
  pre-resilience serve path (registry hit + thread parser + timed
  parse, nothing else) on the same warm entry,
* driver level: ``parse_with_diagnostics`` with no deadline vs a
  far-future deadline (the per-step check is the only delta).

Both use interleaved min-of-N timing so machine noise hits the two
alternatives equally.
"""

import time

from repro.resilience import Deadline
from repro.service import ParseService, ParserRegistry
from repro.service.service import ParseServiceResult
from repro.sql import build_sql_product_line, dialect_features

QUERY = "SELECT a, b FROM t WHERE a = 1 GROUP BY a ORDER BY b"

#: The enforced ceiling: resilient path / baseline path.
MAX_OVERHEAD = 1.05

ROUNDS = 12
CALLS_PER_ROUND = 60


def fresh_service(**kwargs):
    line = build_sql_product_line()
    return ParseService(registry=ParserRegistry(line, capacity=8), **kwargs)


def _interleaved_min(fn_a, fn_b, rounds=ROUNDS, calls=CALLS_PER_ROUND):
    """Min-of-N batch timing, alternating A and B within every round."""
    best_a = best_b = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn_a()
        best_a = min(best_a, time.perf_counter() - t0)
        t0 = time.perf_counter()
        for _ in range(calls):
            fn_b()
        best_b = min(best_b, time.perf_counter() - t0)
    return best_a, best_b


def test_warm_parse_overhead_under_five_percent():
    """The full resilient request path vs the pre-resilience serve path."""
    features = dialect_features("core")
    with fresh_service() as service:
        service.warm(features)

        def resilient():
            result = service.parse(QUERY, features)
            assert result.ok

        def baseline():
            # what serving a request did before the hardening: registry
            # hit, per-thread parser, timed interpreter parse, error
            # accounting, result construction — and nothing else
            entry, warm = service.registry.acquire(features)
            service.metrics.incr("parses")
            parser = entry.thread_parser()
            with service.metrics.time("parse"):
                outcome = parser.parse_with_diagnostics(QUERY, max_errors=25)
            if outcome.diagnostics.has_errors:
                service.metrics.incr("parse_errors")
            result = ParseServiceResult(
                text=QUERY,
                tree=outcome.tree,
                diagnostics=outcome.diagnostics,
                warm=warm,
            )
            assert result.ok

        # warm both paths before measuring
        for _ in range(10):
            resilient()
            baseline()
        resilient_s, baseline_s = _interleaved_min(resilient, baseline)

    ratio = resilient_s / baseline_s
    print(
        f"\n[resilience] warm parse: resilient={resilient_s * 1e6:.0f}us/batch "
        f"baseline={baseline_s * 1e6:.0f}us/batch overhead={ratio - 1:+.1%}"
    )
    assert ratio < MAX_OVERHEAD, (
        f"resilience wrapper costs {ratio - 1:.1%} on the warm path "
        f"(budget {MAX_OVERHEAD - 1:.0%})"
    )


def test_deadline_check_overhead_under_five_percent():
    """The masked per-step deadline check vs no deadline at all."""
    features = dialect_features("core")
    with fresh_service() as service:
        service.warm(features)
        entry, _ = service.registry.acquire(features)
        parser = entry.thread_parser()
        far = Deadline.after(3600.0)

        def without_deadline():
            parser.parse_with_diagnostics(QUERY, max_errors=25)

        def with_deadline():
            parser.parse_with_diagnostics(
                QUERY, max_errors=25, deadline=far
            )

        for _ in range(10):
            without_deadline()
            with_deadline()
        with_s, without_s = _interleaved_min(with_deadline, without_deadline)

    ratio = with_s / without_s
    print(
        f"\n[resilience] deadline check: with={with_s * 1e6:.0f}us/batch "
        f"without={without_s * 1e6:.0f}us/batch overhead={ratio - 1:+.1%}"
    )
    assert ratio < MAX_OVERHEAD, (
        f"deadline bookkeeping costs {ratio - 1:.1%} per parse "
        f"(budget {MAX_OVERHEAD - 1:.0%})"
    )


def test_bench_warm_resilient_parse(benchmark):
    """pytest-benchmark series for the dashboards: warm resilient parse."""
    features = dialect_features("core")
    with fresh_service() as service:
        service.warm(features)
        result = benchmark(lambda: service.parse(QUERY, features))
        assert result.ok and result.warm

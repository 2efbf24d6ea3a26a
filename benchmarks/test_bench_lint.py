"""E12 — static-analysis overhead: lint must be cheap relative to compose.

The lint gate runs inside the registry's cold path (compose → lint →
cache), so its cost is only acceptable if it is a small fraction of the
composition work it piggybacks on.  Acceptance criterion: running every
program-level pass over the ``full`` dialect costs < 25% of a cold
compose of the same dialect.  The pairwise interaction pass over the
whole product line is timed separately (it is amortized once per line,
not once per product).
"""

import time

import pytest

from repro.lint import analyze_product, check_feature_interactions
from repro.sql import build_sql_product_line, dialect_features


def _median(samples):
    samples = sorted(samples)
    return samples[len(samples) // 2]


def _timed(fn, repeat=5):
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return _median(samples)


def test_lint_overhead_vs_cold_compose():
    """Acceptance criterion: analyzer runtime < 25% of cold compose."""
    features = dialect_features("full")

    def cold_compose():
        # a fresh line per run: no memoized composition state survives
        return build_sql_product_line().configure(features)

    compose_seconds = _timed(cold_compose)

    product = build_sql_product_line().configure(features)
    product.program()  # compiled once; lint reuses the product's program

    def lint():
        return analyze_product(product)

    lint_seconds = _timed(lint)

    ratio = lint_seconds / compose_seconds
    print(
        f"\n[E12] compose={compose_seconds * 1000:.1f}ms "
        f"lint={lint_seconds * 1000:.1f}ms ratio={ratio:.1%}"
    )
    assert ratio < 0.25, (
        f"lint costs {ratio:.1%} of a cold compose "
        f"({lint_seconds * 1000:.1f}ms vs {compose_seconds * 1000:.1f}ms)"
    )


def test_bench_analyze_product(benchmark):
    product = build_sql_product_line().configure(dialect_features("full"))
    product.program()
    report = benchmark(lambda: analyze_product(product))
    assert report.target == product.name


def test_bench_interaction_pass(benchmark):
    line = build_sql_product_line()
    check_feature_interactions(line)  # warm the signature cache once
    findings, pairs = benchmark(lambda: check_feature_interactions(line))
    assert pairs > 0
    assert not [f for f in findings if f.code.code == "L0120"]


@pytest.mark.parametrize("seconds_budget", [1.0])
def test_interaction_pass_absolute_budget(seconds_budget):
    """The whole-line pairwise pass (~100k pairs) stays under a second."""
    line = build_sql_product_line()
    check_feature_interactions(line)  # warm signatures
    elapsed = _timed(lambda: check_feature_interactions(line), repeat=3)
    print(f"\n[E12] interaction pass: {elapsed * 1000:.0f}ms")
    assert elapsed < seconds_budget

"""E13 — transpilation cost: rendering and translation vs a warm parse.

The transpiler's budget claims:

* **render** — walking the AST and emitting SQL must stay a small
  fraction of parsing: < 25% of a warm ``parser.parse`` on the same
  workload.  Rendering is pure tree traversal; if it ever approaches
  parse cost something structural regressed.
* **translate** — the full pipeline (source parse, AST build, render
  with its feature gating, verify re-parse) must cost < 6 warm compiled
  parses of the same queries: the registry entry's
  ``compiled_parser().parse``, the call ``translate`` makes twice.  By
  construction a translation is about 3.2 of them (two parses, an AST
  build of about 0.9 parse and a render of about 0.3); 6 leaves room
  for a shared host's noise.  The unit used to be a warm
  ``ParseService.parse``, which re-resolved the selection on every
  call; with resolution memoised in the registry a warm service parse
  is just a parse, so "< 2 of them" cannot hold for a pipeline that
  contains two.  Rebuilding per-dialect translation state on every call
  — the regression this gate named before — now adds only about a fifth
  to a third, which a bound wide enough for a shared host's noise cannot
  catch; the deterministic call-count test
  ``tests/test_transpile_roundtrip.py::test_warm_translate_rebuilds_no_dialect_state``
  guards it instead.  Both sides are timed interleaved, min-of-N, so
  host drift hits them equally.
"""

import time

from repro.sql import (
    build_ast,
    build_dialect,
    dialect_features,
    sql_parser_registry,
)
from repro.transpile import RenderOptions, SqlRenderer, translate
from repro.workloads import generate_workload

DIALECT = "core"
COUNT = 150
SEED = 11
REPS = 5

RENDER_BUDGET = 0.25   # render < 25% of a warm raw parse
TRANSLATE_BUDGET = 6.0  # translate < 6 warm compiled parses (~3.2 by construction)
ROUNDS = 7              # interleaved rounds of the translate gate


def median_pass_seconds(fn, items, reps=REPS):
    """Median wall time of ``reps`` passes of ``fn`` over ``items``."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for item in items:
            fn(item)
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return samples[len(samples) // 2]


def interleaved_min_pass_seconds(fn_a, fn_b, items, rounds=ROUNDS):
    """Min wall time of a pass of each ``fn`` over ``items``, A and B
    alternating within every round so machine noise hits both alike."""
    best = [float("inf"), float("inf")]
    for _ in range(rounds):
        for side, fn in enumerate((fn_a, fn_b)):
            t0 = time.perf_counter()
            for item in items:
                fn(item)
            best[side] = min(best[side], time.perf_counter() - t0)
    return best[0], best[1]


def test_render_cost_vs_warm_parse():
    """Acceptance criterion: render < 25% of a warm raw parse."""
    product = build_dialect(DIALECT)
    parser = product.parser()
    queries = generate_workload(DIALECT, COUNT, seed=SEED)
    scripts = [build_ast(parser.parse(q)) for q in queries]
    options = RenderOptions.for_product(product)

    parse_seconds = median_pass_seconds(parser.parse, queries)
    render_seconds = median_pass_seconds(
        lambda script: SqlRenderer(options).render(script), scripts
    )

    ratio = render_seconds / parse_seconds
    print(
        f"\n[E13] warm parse={parse_seconds * 1000:.1f}ms "
        f"render={render_seconds * 1000:.1f}ms "
        f"({COUNT} queries, {DIALECT}) ratio={ratio:.2f}"
    )
    assert ratio < RENDER_BUDGET, (
        f"render cost is {ratio:.0%} of a warm parse "
        f"(budget {RENDER_BUDGET:.0%})"
    )


def test_translate_cost_vs_warm_parse():
    """Acceptance criterion: translate < 6 warm compiled parses."""
    features = dialect_features(DIALECT)
    queries = generate_workload(DIALECT, COUNT, seed=SEED)
    parser = sql_parser_registry().get(features).compiled_parser()
    for q in queries:  # compile every rule the workload reaches
        parser.parse(q)
        translate(q, DIALECT, DIALECT)

    parse_seconds, translate_seconds = interleaved_min_pass_seconds(
        parser.parse, lambda q: translate(q, DIALECT, DIALECT), queries
    )

    ratio = translate_seconds / parse_seconds
    # the unit is a parse from text, which a faster scanner or parser
    # shrinks more than a translate: read the ratio beside both times
    print(
        f"\n[E13] warm compiled parse={parse_seconds / COUNT * 1e6:.1f}us "
        f"translate={translate_seconds / COUNT * 1e6:.1f}us per query "
        f"({COUNT} queries, {DIALECT}->{DIALECT}) ratio={ratio:.2f}"
    )
    assert ratio < TRANSLATE_BUDGET, (
        f"translate costs {ratio:.2f} warm compiled parses "
        f"(budget {TRANSLATE_BUDGET})"
    )


def test_bench_render(benchmark, dialect_products):
    product = dialect_products["full"]
    parser = product.parser()
    script = build_ast(
        parser.parse("SELECT a, SUM(b) FROM t JOIN u ON a = c "
                     "GROUP BY a ORDER BY a FETCH FIRST 5 ROWS ONLY")
    )
    options = RenderOptions.for_product(product)
    sql = benchmark(lambda: SqlRenderer(options).render(script))
    assert sql.startswith("SELECT")


def test_bench_translate_cross_dialect(benchmark):
    translate("SELECT 1 FROM t", "full", "core")  # warm dialect state
    result = benchmark(
        lambda: translate(
            "SELECT a FROM t INNER JOIN u ON a = b WHERE a > 1",
            "full", "core",
        )
    )
    assert "JOIN u ON" in result.sql

"""What the closure lowering must keep, and how chains of rule levels run.

The pins record compiled outcomes by digest per preset, the way
``TestCountPins`` records counts: a lowering that changes how a parse
ticks fuel, checks depth or leaves children behind on failure moves one
of them.  A digest that moves means an outcome moved: diff the rows of
two checkouts (``depth_rows``, ``fuel_rows`` and ``partial_rows``) to
find it.

* depth: ``parse`` and ``parse_with_diagnostics`` of expressions nested
  8–21 parentheses deep in the select list and in the WHERE clause, the
  range where the 200-activation limit starts to trip;
* fuel: a ``max_steps`` sweep over generated queries, through
  ``parse_tokens`` and ``parse_with_diagnostics``;
* partial trees: ``parse_with_diagnostics`` of generated queries with
  their middle word dropped.

``TestChains`` checks that the SQL:2003 expression cascade is one chain:
``value_expression`` calls ``value_expression_primary`` directly, and a
column reference enters none of the levels above its primary.
"""

import hashlib
import re
import sys
from collections import Counter

import pytest

from repro.errors import ParseBudgetExceeded
from repro.parsing import closures
from repro.sql import dialect_features, dialect_names, sql_parser_registry
from repro.workloads import generate_workload

BUDGETS = list(range(1, 120)) + [200, 400, 800]


def compiled(dialect):
    return sql_parser_registry().get(dialect_features(dialect)).compiled_parser()


def digest(rows) -> str:
    return hashlib.blake2b(repr(rows).encode(), digest_size=16).hexdigest()


def parse_row(parse):
    """A parse's tree, or the position, message and steps it stopped at."""
    try:
        return parse().to_sexpr()
    except ParseBudgetExceeded as error:
        return (error.code, str(error), error.line, error.column, error.steps)


def outcome_row(outcome):
    """Every diagnostic of a recovering parse, and its partial tree."""
    return (
        [(d.code, d.message, d.span.line, d.span.column)
         for d in outcome.diagnostics],
        outcome.tree.to_sexpr(),
    )


def nested(n: int) -> str:
    return (
        "SELECT " + "(" * n + "a + -b * c" + ")" * n
        + " FROM t WHERE " + "(" * n + "x = 1" + ")" * n
    )


def depth_rows(dialect):
    parser = compiled(dialect)
    return [
        (parse_row(lambda: parser.parse(nested(n))),
         outcome_row(parser.parse_with_diagnostics(nested(n))))
        for n in range(8, 22)
    ]


def fuel_rows(dialect):
    parser = compiled(dialect)
    queries = generate_workload(dialect, 6, seed=7) + generate_workload(
        dialect, 6, seed=7, mode="coverage"
    )
    rows = []
    for sql in queries:
        tokens = parser.scanner.scan(sql)
        for budget in BUDGETS:
            rows.append((
                parse_row(lambda: parser.parse_tokens(tokens, max_steps=budget)),
                outcome_row(parser.parse_with_diagnostics(sql, max_steps=budget)),
            ))
    return rows


def partial_rows(dialect):
    parser = compiled(dialect)
    rows = []
    for mode in ("plain", "coverage"):
        for sql in generate_workload(dialect, 60, seed=7, mode=mode):
            words = sql.split()
            del words[len(words) // 2]
            rows.append(outcome_row(parser.parse_with_diagnostics(" ".join(words))))
    return rows


class TestLoweringPins:
    """Recorded at the parent of the chain lowering and unchanged by it."""

    DEPTH = {
        "core": "ed93530a623311e0dd507d52dc0f511d",
        "full": "ed93530a623311e0dd507d52dc0f511d",
    }
    FUEL = {
        "scql": "4872c5227c0d20ad18ee2943c8dfb844",
        "tinysql": "0a28e03059f2b0308fe1f129a07da2e8",
        "core": "6cfc365fc58f583f00b514b0d51c5efd",
        "analytics": "0eda1906f52540be492960c9d5f4f0d9",
        "full": "bac9750659226ff593137b8053e02494",
    }
    PARTIAL = {
        "scql": "2ddbd356f8f1539cebf746268c9b4113",
        "tinysql": "2fe05a6262d416e0ecd23c1c9c7109fe",
        "core": "f134318aec540113109e58ba5929d9a9",
        "analytics": "f8bb02c1d2df8cb056ea8f37bd711ee0",
        "full": "18140d98627b4d37af3e3e4a119dbe38",
    }

    @pytest.mark.parametrize("dialect", sorted(DEPTH))
    def test_depth_outcomes_are_pinned(self, dialect):
        assert digest(depth_rows(dialect)) == self.DEPTH[dialect]

    @pytest.mark.parametrize("dialect", dialect_names())
    def test_fuel_outcomes_are_pinned(self, dialect):
        assert digest(fuel_rows(dialect)) == self.FUEL[dialect]

    @pytest.mark.parametrize("dialect", dialect_names())
    def test_partial_trees_are_pinned(self, dialect):
        assert digest(partial_rows(dialect)) == self.PARTIAL[dialect]


class TestChains:
    @pytest.mark.parametrize("dialect", ["core", "full"])
    def test_value_expression_calls_its_primary_directly(self, dialect):
        program = compiled(dialect).program
        ids = program.rule_ids
        builder = closures._SourceBuilder(program)
        chain = closures._chain(builder.levels, ids["value_expression"])
        assert chain.deepest == ids["value_expression_primary"]
        assert "IDENTIFIER" in chain.direct
        assert {"NOT", "MINUS", "PLUS"} <= chain.leads
        assert not chain.direct & chain.leads
        text = dict(builder.build())[f"_r{ids['value_expression']}"]
        call = f"_r{chain.deepest}(s, ch, d + {len(chain.levels)})"
        assert call in text

    @pytest.mark.parametrize("dialect", ["core", "full"])
    def test_a_column_reference_takes_the_fast_path(self, dialect):
        parser = compiled(dialect)
        ids = parser.program.rule_ids
        chain = closures._chain(
            closures._SourceBuilder(parser.program).levels,
            ids["value_expression"],
        )
        sql = "SELECT a FROM t WHERE b"
        expected = parser.parse(sql)  # compiles what the parse reaches
        entered = []

        def profile(frame, event, _arg):
            if event == "call":
                entered.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            tree = parser.parse(sql)
        finally:
            sys.setprofile(None)
        assert tree == expected
        called = Counter(name for name in entered if re.fullmatch(r"_r\d+", name))
        # the select list's derived column and the WHERE clause's search
        # condition head longer chains over the same levels
        assert called[f"_r{chain.deepest}"] == 2
        assert not {f"_r{rid}" for rid in chain.levels} & called.keys()

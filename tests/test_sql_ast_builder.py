"""Regression tests for AST-builder information loss, per node class.

Each test pins a construct the builder previously dropped or flattened
(discovered by the transpiler's round-trip property): the parse tree
carried the information, the AST did not.  These tests assert the
specific field each fix introduced, so a regression fails with the node
class in the test name.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.lexer import Token
from repro.parsing import Node
from repro.sql import ast, build_ast, build_dialect
from repro.workloads import generate_workload


@pytest.fixture(scope="module")
def full():
    return build_dialect("full").parser()


def statement(parser, sql: str):
    script = build_ast(parser.parse(sql))
    assert len(script) == 1
    return script.statements[0]


def query(parser, sql: str) -> ast.Query:
    stmt = statement(parser, sql)
    assert isinstance(stmt, ast.QueryStatement)
    return stmt.query


def select(parser, sql: str) -> ast.Select:
    body = query(parser, sql).body
    assert isinstance(body, ast.Select)
    return body


def scalar(parser, sql: str):
    """The first select-list expression of ``sql``."""
    return select(parser, sql).items[0].expression


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


class TestLike:
    def test_similar_to_is_distinguished_from_like(self, full):
        predicate = select(full, "SELECT a FROM t WHERE a SIMILAR TO 'x%'").where
        assert isinstance(predicate, ast.Like)
        assert predicate.similar is True

    def test_plain_like_is_not_similar(self, full):
        predicate = select(full, "SELECT a FROM t WHERE a LIKE 'x%'").where
        assert isinstance(predicate, ast.Like)
        assert predicate.similar is False


class TestMatch:
    def test_match_unique_and_option_survive(self, full):
        predicate = select(
            full, "SELECT a FROM t WHERE a MATCH UNIQUE PARTIAL (SELECT c FROM u)"
        ).where
        assert isinstance(predicate, ast.Match)
        assert predicate.unique is True
        assert predicate.option == "PARTIAL"

    def test_bare_match_has_no_flags(self, full):
        predicate = scalar(full, "SELECT a MATCH (SELECT c FROM u) FROM t")
        assert isinstance(predicate, ast.Match)
        assert predicate.unique is False
        assert predicate.option is None


class TestAtTimeZone:
    def test_zone_expression_survives(self, full):
        expr = scalar(full, "SELECT ts AT TIME ZONE 'UTC' FROM t")
        assert isinstance(expr, ast.AtTimeZone)
        assert expr.zone == ast.Literal("UTC", "string")

    def test_at_local_has_no_zone(self, full):
        expr = scalar(full, "SELECT ts AT LOCAL FROM t")
        assert isinstance(expr, ast.AtTimeZone)
        assert expr.zone is None


class TestTypedLiterals:
    def test_national_binary_and_unicode_strings_keep_types(self, full):
        items = select(full, "SELECT N'abc', X'0f', U&'d' FROM t").items
        assert items[0].expression == ast.Literal("abc", "nstring")
        assert items[1].expression == ast.Literal("0f", "binary")
        assert items[2].expression == ast.Literal("d", "ustring")


class TestTrim:
    def test_trim_specification_survives(self, full):
        call = scalar(full, "SELECT TRIM(LEADING 'x' FROM y) FROM t")
        assert isinstance(call, ast.FunctionCall)
        assert call.name == "TRIM"
        assert call.args[0] == ast.Literal("LEADING", "trim_spec")


class TestWindowSpec:
    def test_existing_window_name_survives(self, full):
        expr = scalar(full, "SELECT SUM(x) OVER (w ORDER BY a) FROM t")
        assert isinstance(expr, ast.WindowCall)
        assert isinstance(expr.window, ast.WindowSpec)
        assert expr.window.existing == "w"
        assert len(expr.window.order_by) == 1


# ---------------------------------------------------------------------------
# query structure
# ---------------------------------------------------------------------------


class TestSetOperation:
    def test_corresponding_by_columns_survive(self, full):
        body = query(
            full, "SELECT a FROM t UNION CORRESPONDING BY (a) SELECT a FROM u"
        ).body
        assert isinstance(body, ast.SetOperation)
        assert body.corresponding is True
        assert body.corresponding_by == ("a",)


class TestSortSpec:
    def test_collation_chain_survives(self, full):
        spec = query(full, "SELECT a FROM t ORDER BY a COLLATE sch.de_DE").order_by[0]
        assert spec.collation == ("sch", "de_DE")

    def test_subquery_sort_keys_stay_in_the_subquery(self, full):
        # regression: find_all() used to pull subquery sort keys into the
        # outer ORDER BY list
        outer = query(
            full,
            "SELECT a FROM t ORDER BY (SELECT b FROM u ORDER BY c, d), a",
        )
        assert len(outer.order_by) == 2
        inner = outer.order_by[0].expression
        assert isinstance(inner, ast.ScalarSubquery)
        assert len(inner.query.order_by) == 2


class TestWithClause:
    def test_nested_ctes_stay_nested(self, full):
        # regression: find_all() used to flatten CTEs of nested WITH
        # queries into the outer cte list
        outer = query(
            full,
            "WITH a AS (SELECT x FROM t), "
            "b AS (WITH c AS (SELECT y FROM u) SELECT 1 FROM c) "
            "SELECT 1 FROM b",
        )
        assert [cte.name for cte in outer.ctes] == ["a", "b"]
        nested = outer.ctes[1].query
        assert [cte.name for cte in nested.ctes] == ["c"]


class TestDerivedTable:
    def test_lateral_flag_survives(self, full):
        table = select(full, "SELECT a FROM LATERAL (SELECT b FROM u) AS d").from_tables[0]
        assert isinstance(table, ast.DerivedTable)
        assert table.lateral is True
        assert table.alias == "d"


class TestSelectInto:
    def test_into_targets_survive(self, full):
        body = select(full, "SELECT a INTO v1, v2 FROM t")
        assert body.into == ("v1", "v2")


class TestRowLimiting:
    def test_limit_style_records_limit_spelling(self, full):
        q = query(full, "SELECT a FROM t LIMIT 5")
        assert (q.limit, q.limit_style) == (5, "limit")

    def test_limit_style_records_fetch_spelling(self, full):
        q = query(full, "SELECT a FROM t FETCH FIRST 5 ROWS ONLY")
        assert (q.limit, q.limit_style) == (5, "fetch")


class TestGrouping:
    def test_rollup_keeps_structured_shape(self, full):
        body = select(full, "SELECT a, b FROM t GROUP BY ROLLUP (a, b)")
        assert body.grouping_kind == "rollup"
        assert len(body.grouping) == 1
        element = body.grouping[0]
        assert isinstance(element, ast.GroupingElement)
        assert element.kind == "rollup"
        assert len(element.elements) == 2


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


class TestInsert:
    def test_overriding_clause_survives(self, full):
        stmt = statement(
            full, "INSERT INTO t (a) OVERRIDING USER VALUE VALUES (1)"
        )
        assert isinstance(stmt, ast.Insert)
        assert stmt.overriding == "USER"


class TestPositionedUpdateDelete:
    def test_update_current_of_survives(self, full):
        stmt = statement(full, "UPDATE t SET a = 1 WHERE CURRENT OF cur")
        assert isinstance(stmt, ast.Update)
        assert stmt.current_of == "cur"
        assert stmt.where is None

    def test_delete_current_of_survives(self, full):
        stmt = statement(full, "DELETE FROM t WHERE CURRENT OF cur")
        assert isinstance(stmt, ast.Delete)
        assert stmt.current_of == "cur"


class TestCreateTable:
    def test_scope_and_on_commit_survive(self, full):
        stmt = statement(
            full,
            "CREATE GLOBAL TEMPORARY TABLE t (a INTEGER) "
            "ON COMMIT PRESERVE ROWS",
        )
        assert isinstance(stmt, ast.CreateTable)
        assert stmt.scope == "global temporary"
        assert stmt.on_commit == "preserve"

    def test_identity_column_survives(self, full):
        stmt = statement(
            full, "CREATE TABLE t (a INTEGER GENERATED ALWAYS AS IDENTITY)"
        )
        assert stmt.columns[0].identity == "always"


class TestCreateView:
    def test_recursive_and_check_option_survive(self, full):
        stmt = statement(
            full,
            "CREATE RECURSIVE VIEW v (a) AS SELECT a FROM t WITH CHECK OPTION",
        )
        assert isinstance(stmt, ast.CreateView)
        assert stmt.recursive is True
        assert stmt.check_option is True


class TestTypeSpec:
    def test_type_text_is_kept_but_ignored_by_equality(self, full):
        cast = scalar(full, "SELECT CAST(a AS CHARACTER VARYING (10)) FROM t")
        assert isinstance(cast, ast.Cast)
        spec = cast.type_spec
        assert spec is not None
        assert spec.text is not None
        assert "VARYING" in spec.text.upper()
        # text is provenance, not identity: equal specs spelled
        # differently still compare equal
        assert spec == ast.TypeSpec(name=spec.name, parameters=spec.parameters)


class TestDispatch:
    def test_rule_without_builder_raises_every_time(self):
        tree = Node(
            "mystery_rule",
            [
                Node("identifier", [Token("IDENTIFIER", "a")]),
                Node("identifier", [Token("IDENTIFIER", "b")]),
            ],
        )
        for _ in range(2):
            with pytest.raises(NotImplementedError, match="'mystery_rule'"):
                build_ast(tree)


class TestAstPins:
    """The AST of every preset workload, pinned by digest.

    60 template and 60 coverage-guided queries per preset, built from
    the interpreter's trees.  A change to the parse-tree shape or to the
    builder must leave every AST as it was; a digest that moves means
    some query now builds a different AST (diff two checkouts'
    ``repr(build_ast(...))`` per query to find it).
    """

    DIGESTS = {
        "scql": "9b0197877b6755f4bf6cbb635b9e9c85",
        "tinysql": "47477aa8f881175b784079984d0c05d8",
        "core": "f0b2d5575bd632f44178d2fd87ee7926",
        "analytics": "ffd7e4e6cb4085a22f4c60b4c917e868",
        "full": "6e8f796046e53b9784c83bae18cb8856",
    }

    @pytest.mark.parametrize("dialect", ["scql", "tinysql", "core", "analytics", "full"])
    def test_preset_asts_are_pinned(self, dialect):
        parser = build_dialect(dialect).parser()
        queries = generate_workload(dialect, 60, seed=7) + generate_workload(
            dialect, 60, seed=7, mode="coverage"
        )
        digest = hashlib.blake2b(digest_size=16)
        for sql in queries:
            digest.update(repr(build_ast(parser.parse(sql))).encode() + b"\n")
        assert digest.hexdigest() == self.DIGESTS[dialect]

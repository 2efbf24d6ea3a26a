"""Cross-dialect transpilation: round-trip, precedence, gaps, translation.

The tentpole property: for every preset dialect, ``parse ∘ render ∘
parse`` is the identity on the AST over seeded coverage-guided
workloads, and rendering is a fixpoint (rendering the re-parsed AST
reproduces the same text).  The renderer never emits SQL the dialect's
own parser rejects; when a construct has no spelling it raises a
structured error naming the missing feature units.
"""

from __future__ import annotations

import ast as pyast
import inspect
from itertools import product as pairs_of

import pytest

from repro.service import ParseService
from repro.sql import (
    ast,
    build_ast,
    build_dialect,
    build_sql_product_line,
    configure_sql,
    dialect_features,
    dialect_names,
)
from repro.transpile import (
    REPORT_KIND,
    REPORT_VERSION,
    RenderOptions,
    Requirement,
    SqlRenderer,
    TranspileError,
    UnrenderableNodeError,
    analyze,
    render_sql,
    translate,
)
from repro.transpile import render as render_module
from repro.workloads import generate_workload

ROUNDTRIP_SENTENCES = 120
ROUNDTRIP_SEED = 7


@pytest.fixture(scope="module")
def full_product():
    return build_dialect("full")


@pytest.fixture(scope="module")
def full_parser(full_product):
    return full_product.parser()


@pytest.fixture(scope="module")
def full_options(full_product):
    return RenderOptions.for_product(full_product)


def _selected(dialect: str) -> frozenset:
    return frozenset(build_dialect(dialect).configuration.selected)


# ---------------------------------------------------------------------------
# the round-trip property
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dialect", dialect_names())
def test_roundtrip_identity_per_dialect(dialect):
    """parse∘render∘parse is the identity; render is a fixpoint."""
    product = build_dialect(dialect)
    parser = product.parser()
    options = RenderOptions.for_product(product)
    sentences = generate_workload(
        dialect, count=ROUNDTRIP_SENTENCES, seed=ROUNDTRIP_SEED,
        mode="coverage",
    )
    assert sentences, "coverage workload must produce sentences"
    for sql in sentences:
        original = build_ast(parser.parse(sql))
        rendered = render_sql(original, options)
        reparsed = build_ast(parser.parse(rendered))
        assert reparsed == original, (
            f"round-trip changed the AST for {sql!r} (rendered {rendered!r})"
        )
        assert render_sql(reparsed, options) == rendered, (
            f"rendering is not a fixpoint for {sql!r}"
        )


def test_workload_is_deterministic():
    first = generate_workload("core", count=10, seed=11, mode="coverage")
    second = generate_workload("core", count=10, seed=11, mode="coverage")
    assert first == second


# ---------------------------------------------------------------------------
# precedence-driven parenthesization
# ---------------------------------------------------------------------------


class TestPrecedence:
    @pytest.fixture(autouse=True)
    def _setup(self, full_parser, full_options):
        self.parser = full_parser
        self.options = full_options

    def rt(self, sql: str) -> str:
        return render_sql(build_ast(self.parser.parse(sql)), self.options)

    def test_tighter_operand_needs_no_parens(self):
        assert self.rt("SELECT a + b * c FROM t") == "SELECT a + b * c FROM t"

    def test_looser_operand_keeps_parens(self):
        assert (
            self.rt("SELECT (a + b) * c FROM t")
            == "SELECT (a + b) * c FROM t"
        )

    def test_right_operand_of_left_assoc_keeps_parens(self):
        assert (
            self.rt("SELECT a - (b - c) FROM t")
            == "SELECT a - (b - c) FROM t"
        )

    def test_redundant_left_assoc_parens_dropped(self):
        assert self.rt("SELECT (a - b) - c FROM t") == "SELECT a - b - c FROM t"

    def test_or_under_and_keeps_parens(self):
        sql = "SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3"
        assert self.rt(sql) == sql

    def test_not_over_comparison_drops_parens(self):
        assert (
            self.rt("SELECT * FROM t WHERE NOT (a = 1)")
            == "SELECT * FROM t WHERE NOT a = 1"
        )

    def test_not_over_or_keeps_parens(self):
        sql = "SELECT * FROM t WHERE NOT (a = 1 OR b = 2)"
        assert self.rt(sql) == sql

    def test_concatenation_chain_is_flat(self):
        assert self.rt("SELECT a || b || c FROM t") == "SELECT a || b || c FROM t"

    def test_unary_minus_over_sum_keeps_parens(self):
        assert self.rt("SELECT - (a + b) FROM t") == "SELECT - (a + b) FROM t"


# ---------------------------------------------------------------------------
# feature-gated rendering: degradations and refusals
# ---------------------------------------------------------------------------


class TestFeatureGating:
    def _options(self, full_product, drop=(), base=None):
        features = (
            base if base is not None
            else frozenset(full_product.configuration.selected)
        )
        keywords = frozenset(
            t.name for t in full_product.grammar.tokens if t.kind == "keyword"
        )
        return RenderOptions(features=features - frozenset(drop),
                             keywords=keywords)

    def _render(self, full_parser, options, sql):
        renderer = SqlRenderer(options)
        return renderer.render(build_ast(full_parser.parse(sql))), renderer

    def test_fetch_degrades_to_limit(self, full_product, full_parser):
        options = self._options(full_product, drop={"FetchFirst"})
        out, renderer = self._render(
            full_parser, options, "SELECT a FROM t FETCH FIRST 5 ROWS ONLY"
        )
        assert out == "SELECT a FROM t LIMIT 5"
        assert any("degraded to LIMIT" in note for note in renderer.rewrites)

    def test_limit_promotes_to_fetch(self, full_product, full_parser):
        options = self._options(full_product, drop={"Limit"})
        out, renderer = self._render(
            full_parser, options, "SELECT a FROM t LIMIT 5"
        )
        assert out == "SELECT a FROM t FETCH FIRST 5 ROWS ONLY"
        assert any("FETCH FIRST" in note for note in renderer.rewrites)

    def test_some_rewrites_to_any(self, full_product, full_parser):
        options = self._options(full_product, drop={"SomeQuantifier"})
        out, renderer = self._render(
            full_parser, options,
            "SELECT a FROM t WHERE a = SOME (SELECT b FROM u)",
        )
        assert "= ANY" in out
        assert any("SOME" in note for note in renderer.rewrites)

    def test_any_rewrites_to_some(self, full_product, full_parser):
        options = self._options(full_product, drop={"AnyQuantifier"})
        out, _ = self._render(
            full_parser, options,
            "SELECT a FROM t WHERE a = ANY (SELECT b FROM u)",
        )
        assert "= SOME" in out

    def test_missing_join_units_raise_structured_error(
        self, full_product, full_parser
    ):
        options = self._options(full_product, drop={"LeftJoin", "OuterJoin"})
        with pytest.raises(UnrenderableNodeError) as excinfo:
            self._render(
                full_parser, options, "SELECT a FROM t LEFT JOIN u ON a = b"
            )
        error = excinfo.value
        assert error.code == "E0402"
        assert any("enable feature 'LeftJoin'" in hint for hint in error.hints)

    def test_outer_join_unit_alone_does_not_spell_left_join(
        self, full_product, full_parser
    ):
        # OuterJoin is the parent group; only LeftJoin contributes LEFT
        options = self._options(full_product, drop={"LeftJoin"})
        with pytest.raises(UnrenderableNodeError) as excinfo:
            self._render(
                full_parser, options, "SELECT a FROM t LEFT JOIN u ON a = b"
            )
        assert excinfo.value.features == ("LeftJoin",)

    def test_render_collects_every_gap_before_refusing(self, full_parser):
        options = RenderOptions.for_product(build_dialect("scql"))
        renderer = SqlRenderer(options)
        script = build_ast(full_parser.parse(
            "SELECT t.a FROM t LEFT JOIN u ON t.a = u.b"
        ))
        with pytest.raises(UnrenderableNodeError) as excinfo:
            renderer.render(script)
        assert excinfo.value.features == ("QualifiedNames",)
        assert [gap.primary for gap in renderer.gaps] == [
            "QualifiedNames", "LeftJoin", "OnCondition"
        ]
        assert set(renderer.gaps) <= set(renderer.requirements)

    def test_spelling_choice_is_recorded_when_satisfied(
        self, full_product, full_parser
    ):
        options = self._options(full_product, drop={"Limit"})
        _, renderer = self._render(
            full_parser, options, "SELECT a FROM t LIMIT 5"
        )
        limiting = [
            r.alternatives for r in renderer.requirements
            if r.construct == "row limiting"
        ]
        assert limiting == [("Limit", "FetchFirst")]
        assert renderer.gaps == []

    def test_insert_from_query_licenses_its_column_list(self, full_parser):
        """``InsertFromQuery`` contributes ``column_list? query_expression``,
        so a product without ``InsertColumnList`` still spells a column
        list before a query; before a VALUES source it does not."""
        features = [
            f for f in dialect_features("core")
            if f not in ("InsertColumnList", "OverridingClause")
        ] + ["InsertFromQuery"]
        product = configure_sql(features)
        assert "InsertColumnList" not in product.configuration.selected
        options = RenderOptions.for_product(product)
        parser = product.parser()

        renderer = SqlRenderer(options, rule_origins=product.rule_origins())
        out = renderer.render(
            build_ast(parser.parse("INSERT INTO t ( a ) SELECT b FROM u"))
        )
        assert renderer.gaps == []
        assert out == "INSERT INTO t (a) SELECT b FROM u"
        parser.parse(out)

        renderer = SqlRenderer(options)
        renderer.draft(
            build_ast(full_parser.parse("INSERT INTO t ( a ) VALUES ( 1 )"))
        )
        assert [gap.primary for gap in renderer.gaps] == ["InsertColumnList"]

    TYPE_PARAMETER_UNITS = (
        "CharLengthSpec", "VaryingCharType", "CharacterSetSpec",
        "NumericPrecisionSpec",
    )
    PARAMETERISED_TYPES = "CREATE TABLE t ( a CHAR(10), b NUMERIC(5, 2) )"

    def _type_parameter_product(self, *units):
        """``core`` without the units that spell type parameters, plus
        ``units``."""
        return configure_sql([
            f for f in dialect_features("core")
            if f not in self.TYPE_PARAMETER_UNITS
        ] + list(units))

    def test_type_parameters_need_their_units(self):
        product = self._type_parameter_product()
        assert not set(self.TYPE_PARAMETER_UNITS) & set(
            product.configuration.selected
        )
        parser = product.parser()
        assert parser.accepts("CREATE TABLE t ( a CHAR, b NUMERIC )")
        assert not parser.accepts(self.PARAMETERISED_TYPES)

        renderer = SqlRenderer(RenderOptions.for_product(product))
        renderer.draft(build_ast(
            build_dialect("core").parser().parse(self.PARAMETERISED_TYPES)
        ))
        assert [(gap.construct, gap.alternatives) for gap in renderer.gaps] == [
            ("CHAR length",
             ("CharLengthSpec", "VaryingCharType", "CharacterSetSpec")),
            ("NUMERIC precision", ("NumericPrecisionSpec",)),
        ]

    @pytest.mark.parametrize(
        "char_unit", ["CharLengthSpec", "VaryingCharType", "CharacterSetSpec"]
    )
    def test_type_parameters_render_where_the_units_are(self, char_unit):
        product = self._type_parameter_product(char_unit, "NumericPrecisionSpec")
        renderer = SqlRenderer(RenderOptions.for_product(product))
        out = renderer.render(build_ast(
            build_dialect("core").parser().parse(self.PARAMETERISED_TYPES)
        ))
        assert renderer.gaps == []
        assert out == "CREATE TABLE t (a CHAR(10), b NUMERIC(5, 2))"
        product.parser().parse(out)

    def test_default_options_render_everything(self, full_parser):
        # features=None means "no gating" — the renderer emits full syntax
        out = render_sql(
            build_ast(full_parser.parse("SELECT a FROM t LEFT JOIN u ON a = b"))
        )
        assert out == "SELECT a FROM t LEFT JOIN u ON a = b"


# ---------------------------------------------------------------------------
# capability analysis
# ---------------------------------------------------------------------------


class TestAnalyzer:
    def test_core_query_gaps_against_scql(self):
        product = build_dialect("core")
        tree = product.parser().parse(
            "SELECT t.a FROM t LEFT JOIN u ON t.a = u.b"
        )
        report = analyze(build_ast(tree), source_product=product)
        gaps = report.gaps(_selected("scql"))
        primaries = {gap.primary for gap in gaps}
        assert {"QualifiedNames", "LeftJoin", "OnCondition"} <= primaries

    def test_window_query_gaps_against_tinysql(self):
        product = build_dialect("analytics")
        tree = product.parser().parse("SELECT RANK() OVER (ORDER BY a) FROM t")
        report = analyze(build_ast(tree), source_product=product)
        gaps = report.gaps(_selected("tinysql"))
        assert "WindowFunctions" in {gap.primary for gap in gaps}

    def test_no_gaps_against_own_dialect(self):
        for dialect in dialect_names():
            product = build_dialect(dialect)
            sentences = generate_workload(
                dialect, count=10, seed=3, mode="coverage"
            )
            selected = frozenset(product.configuration.selected)
            for sql in sentences:
                script = build_ast(product.parser().parse(sql))
                report = analyze(script, source_product=product)
                assert report.gaps(selected) == (), (
                    f"{dialect}: {sql!r} reported gaps against its own dialect"
                )

    def test_nested_query_only_where_parentheses_are_emitted(self, full_product):
        def units(sql):
            script = build_ast(full_product.parser().parse(sql))
            return {
                unit
                for r in analyze(script, source_product=full_product).requirements
                for unit in r.alternatives
            }

        chained = "SELECT a FROM t INTERSECT SELECT b FROM u INTERSECT SELECT c FROM v"
        assert "NestedQuery" not in units(chained)
        nested = "SELECT a FROM t UNION (SELECT b FROM u UNION SELECT c FROM v)"
        assert "NestedQuery" in units(nested)

    def test_data_types_need_their_leaf_units(self, full_product):
        script = build_ast(full_product.parser().parse(
            "CREATE TABLE t ( a NCHAR VARYING(5), b TIMESTAMP WITH TIME ZONE, "
            "c CHAR(3) CHARACTER SET latin1 )"
        ))
        report = analyze(script, source_product=full_product)
        units = {r.primary for r in report.requirements if "type" in r.construct}
        # TIME inside WITH TIME ZONE and VARYING after NCHAR are not
        # types of their own
        assert units == {
            "NationalCharTypes", "Type.Timestamp", "WithTimeZone",
            "FixedCharType", "CharacterSetSpec",
        }

    def test_numeric_literal_needs_only_exact_numeric(self, full_product):
        script = build_ast(full_product.parser().parse(
            "SELECT a FROM t WHERE a = 1E-6"
        ))
        report = analyze(script, source_product=full_product)
        assert Requirement(
            "numeric literal", ("ExactNumericLiteral",)
        ) in report.requirements

    def test_payload_shape(self):
        product = build_dialect("core")
        script = build_ast(product.parser().parse("SELECT a FROM t WHERE a = 1"))
        payload = analyze(script, source_product=product).to_payload()
        assert isinstance(payload, list)
        for entry in payload:
            assert set(entry) == {"construct", "features"}


# ---------------------------------------------------------------------------
# translation end to end
# ---------------------------------------------------------------------------


class TestTranslate:
    def test_full_to_core_normalizes_inner_join(self):
        result = translate(
            "SELECT a FROM t INNER JOIN u ON a = b", "full", "core"
        )
        assert result.sql == "SELECT a FROM t JOIN u ON a = b"
        assert result.source_dialect == "full"
        assert result.target_dialect == "core"

    def test_report_envelope(self):
        result = translate("SELECT a FROM t WHERE a = 1", "core", "analytics")
        report = result.report()
        assert report["kind"] == REPORT_KIND
        assert report["version"] == REPORT_VERSION
        assert report["verified"] is True
        assert report["source"]["dialect"] == "core"
        assert report["target"]["sql"] == result.sql

    def test_feature_gap_raises_e0401_with_hints(self):
        with pytest.raises(TranspileError) as excinfo:
            translate("SELECT t.a FROM t LEFT JOIN u ON t.a = u.b",
                      "core", "scql")
        error = excinfo.value
        assert error.code == "E0401"
        assert error.source_dialect == "core"
        assert error.target_dialect == "scql"
        assert {gap.primary for gap in error.gaps} >= {
            "QualifiedNames", "LeftJoin", "OnCondition"
        }
        assert any(
            "enable feature 'LeftJoin' in dialect 'scql'" in hint
            for hint in error.hints
        )

    def test_renders_once(self, monkeypatch):
        # analyze() also goes through draft(), so a second walk shows here
        drafts = []
        draft = SqlRenderer.draft

        def counting_draft(renderer, node):
            drafts.append(node)
            return draft(renderer, node)

        monkeypatch.setattr(SqlRenderer, "draft", counting_draft)
        result = translate("SELECT a FROM t WHERE a = 1", "core", "full")
        assert len(drafts) == 1
        assert result.capabilities.requirements

    @pytest.mark.parametrize(
        "sql, source, target, unit",
        [
            ("CREATE TABLE t ( a SMALLINT )", "core", "scql", "Type.Smallint"),
            ("CREATE TABLE t ( a BIGINT )", "core", "scql", "Type.Bigint"),
            ("CREATE TABLE t ( a DOUBLE PRECISION )", "core", "scql",
             "Type.Double"),
            ("CREATE TABLE t ( a VARCHAR(10) )", "core", "scql",
             "VaryingCharType"),
            ("CREATE TABLE t ( a CLOB )", "full", "core", "Type.Clob"),
            ("SELECT CAST ( a AS CLOB ) FROM t", "full", "core", "Type.Clob"),
            ("CREATE TABLE t ( a TIMESTAMP WITH TIME ZONE )", "full", "core",
             "WithTimeZone"),
        ],
    )
    def test_data_type_gap_names_its_unit(self, sql, source, target, unit):
        # ungated, these reach the verify reparse and fail there as a
        # gap-less "transpiler defect"
        with pytest.raises(TranspileError) as excinfo:
            translate(sql, source, target)
        assert excinfo.value.code == "E0401"
        assert [gap.primary for gap in excinfo.value.gaps] == [unit]
        assert any(f"enable feature '{unit}'" in h for h in excinfo.value.hints)

    def test_data_type_translates_where_target_has_it(self):
        result = translate("CREATE TABLE t ( a SMALLINT )", "core", "full")
        assert result.sql == "CREATE TABLE t (a SMALLINT)"

    def test_small_numeric_literal_translates_positionally(self):
        sql = "SELECT a FROM t WHERE a = 0.000001"
        assert translate(sql, "core", "core").sql == sql

    def test_large_numeric_literal_has_no_exponent(self):
        result = translate(
            "SELECT a FROM t WHERE a = 12345678901234567.5", "core", "core"
        )
        literal = result.sql.rsplit(" ", 1)[1]
        assert "e" not in literal.lower()
        build_dialect("core").parser().parse(result.sql)

    def test_exponent_literal_translates_to_exact_form(self):
        result = translate("SELECT a FROM t WHERE a = 1E-6", "full", "core")
        assert result.sql == "SELECT a FROM t WHERE a = 0.000001"

    def test_non_finite_numeric_literal_is_unrenderable(self):
        # 1E999 overflows to inf; no dialect can spell it, and the bare
        # word ``inf`` would reparse as a column reference
        with pytest.raises(UnrenderableNodeError) as excinfo:
            translate("SELECT a FROM t WHERE a = 1E999", "full", "full")
        assert excinfo.value.code == "E0402"

    def test_row_limiting_gap(self):
        with pytest.raises(TranspileError):
            translate("SELECT a FROM t FETCH FIRST 5 ROWS ONLY", "full", "core")

    def test_translated_output_verifies_in_target(self):
        # every successful translation must parse in the target dialect
        target = build_dialect("analytics").parser()
        result = translate(
            "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1",
            "core", "analytics",
        )
        target.parse(result.sql)  # must not raise

    def test_warm_translate_rebuilds_no_dialect_state(self, monkeypatch):
        from repro.core import ComposedProduct

        pairs = [("full", "core"), ("analytics", "full"), ("core", "full")]
        for source, target in pairs:
            translate("SELECT a FROM t", source, target)  # warm-up
        calls = []
        rule_origins = ComposedProduct.rule_origins
        for_product = RenderOptions.for_product.__func__

        def counting_origins(product):
            calls.append("rule_origins")
            return rule_origins(product)

        def counting_options(cls, product):
            calls.append("for_product")
            return for_product(cls, product)

        monkeypatch.setattr(ComposedProduct, "rule_origins", counting_origins)
        monkeypatch.setattr(
            RenderOptions, "for_product", classmethod(counting_options)
        )
        for _ in range(5):
            for source, target in pairs:
                translate("SELECT a FROM t WHERE a = 1", source, target)
        assert calls == []


class TestTranslationMatrix:
    """Every ordered preset pair over the source's coverage workload.

    A success reparses in the target and, when nothing was rewritten,
    has the source's AST; a refusal is E0401 naming at least one gap;
    a source whose selection the target contains is never refused.
    """

    QUERIES = 30
    SEED = 11

    @pytest.fixture(scope="class")
    def dialects(self):
        return {name: build_dialect(name) for name in dialect_names()}

    @pytest.fixture(scope="class")
    def workloads(self, dialects):
        return {
            name: generate_workload(
                name, self.QUERIES, seed=self.SEED, mode="coverage"
            )
            for name in dialects
        }

    def test_subset_pairs_are_covered(self, dialects):
        subsets = {
            (source, target)
            for source, target in pairs_of(dialects, repeat=2)
            if source != target
            and dialects[source].configuration.selected
            <= dialects[target].configuration.selected
        }
        assert subsets == {
            ("scql", "core"), ("scql", "full"), ("tinysql", "full"),
            ("core", "full"), ("analytics", "full"),
        }

    @pytest.mark.parametrize(
        "source, target", list(pairs_of(dialect_names(), repeat=2))
    )
    def test_pair(self, dialects, workloads, source, target):
        source_parser = dialects[source].parser()
        target_parser = dialects[target].parser()
        contained = (
            dialects[source].configuration.selected
            <= dialects[target].configuration.selected
        )
        for sql in workloads[source]:
            try:
                result = translate(sql, source, target)
            except TranspileError as error:
                assert error.gaps, f"gap-less E0401 for {sql!r}: {error}"
                assert not contained, f"{source}->{target} refused {sql!r}"
                continue
            reparsed = build_ast(target_parser.parse(result.sql))
            if not result.rewrites:
                assert reparsed == build_ast(source_parser.parse(sql)), (
                    f"{source}->{target} changed the AST of {sql!r} "
                    f"(rendered {result.sql!r})"
                )


def _string_values(expr) -> set:
    """String constants ``expr`` can evaluate to (through ``a if c else b``)."""
    if isinstance(expr, pyast.IfExp):
        return _string_values(expr.body) | _string_values(expr.orelse)
    if isinstance(expr, pyast.Constant) and isinstance(expr.value, str):
        return {expr.value}
    return set()


class TestGatedUnitNames:
    """Every unit the renderer can gate on exists in the feature model."""

    @pytest.fixture(scope="class")
    def feature_names(self):
        return set(build_sql_product_line().model.feature_names())

    def test_unit_tables(self, feature_names):
        units = {
            *(entry[-1] for entry in render_module._BINARY_OPERATORS.values()),
            *render_module._LITERAL_UNITS.values(),
            *render_module._FUNCTION_UNITS.values(),
            *render_module._TYPE_UNITS.values(),
            *(unit for _, units in render_module._TYPE_PARAMETER_UNITS.values()
              for unit in units),
            *render_module._DROP_UNITS.values(),
            *(unit for _, unit, _ in render_module._JOINS.values()),
            *(unit for _, unit in render_module._TRUTH.values()),
            *render_module._MATCH_OPTIONS.values(),
        }
        assert units - feature_names == set()

    def test_literal_units_of_every_gate(self, feature_names):
        # the unit arguments of each _require / _falls_back / has call
        unit_args = {"_require": slice(1, None), "_falls_back": slice(1, 3),
                     "has": slice(0, None)}
        units = set()
        tree = pyast.parse(inspect.getsource(render_module))
        for call in pyast.walk(tree):
            if not (
                isinstance(call, pyast.Call)
                and isinstance(call.func, pyast.Attribute)
                and call.func.attr in unit_args
            ):
                continue
            for arg in call.args[unit_args[call.func.attr]]:
                units.update(_string_values(arg))
        assert len(units) > 80
        assert units - feature_names == set()

    def test_units_recorded_over_preset_workloads(self, feature_names):
        for dialect in dialect_names():
            product = build_dialect(dialect)
            parser = product.parser()
            for sql in generate_workload(dialect, 30, seed=11, mode="coverage"):
                report = analyze(build_ast(parser.parse(sql)),
                                 source_product=product)
                for requirement in report.requirements:
                    assert set(requirement.alternatives) <= feature_names, (
                        f"{dialect}: {sql!r} recorded {requirement}"
                    )


class TestDispatch:
    """Walkers dispatch through tables; a miss fails the same way twice."""

    @pytest.mark.parametrize(
        "base, label",
        [(ast.Expression, "AST node"), (ast.Statement, "statement")],
    )
    def test_node_without_renderer_raises_e0402_every_time(self, base, label):
        opaque = type("Opaque", (base,), {})()
        renderer = SqlRenderer()
        for _ in range(2):
            with pytest.raises(UnrenderableNodeError) as excinfo:
                renderer.render(opaque)
            assert excinfo.value.code == "E0402"
            assert f"no renderer for {label} Opaque" in str(excinfo.value)


# ---------------------------------------------------------------------------
# service integration
# ---------------------------------------------------------------------------


class TestServiceTranslate:
    def test_success_records_metrics(self):
        service = ParseService()
        service.metrics.reset()
        result = service.translate("SELECT a FROM t", "core", "core")
        assert result.ok
        assert result.sql == "SELECT a FROM t"
        counters = service.metrics.snapshot()["counters"]
        assert counters["translates"] == 1
        assert counters["renders"] == 1
        assert counters["translate_errors"] == 0
        assert service.metrics.snapshot()["latency"]["translate"]["count"] == 1

    def test_feature_gap_becomes_diagnostic(self):
        service = ParseService()
        service.metrics.reset()
        result = service.translate("SELECT t.a FROM t", "core", "scql")
        assert not result.ok
        assert result.sql is None
        codes = {d.code for d in result.diagnostics}
        assert "E0401" in codes
        assert service.metrics.snapshot()["counters"]["translate_errors"] == 1

    def test_source_syntax_error_becomes_diagnostic(self):
        service = ParseService()
        result = service.translate("SELECT FROM WHERE", "core", "core")
        assert not result.ok
        assert result.diagnostics.has_errors


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_translate_success(self, capsys):
        from repro.cli import main

        code = main([
            "translate", "--from", "full", "--to", "core",
            "SELECT a FROM t INNER JOIN u ON a = b",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "SELECT a FROM t JOIN u ON a = b" in out

    def test_translate_gap_exits_nonzero(self, capsys):
        from repro.cli import main

        code = main([
            "translate", "--from", "core", "--to", "scql",
            "SELECT t.a FROM t",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "E0401" in captured.err
        assert "enable feature 'QualifiedNames'" in captured.err

    def test_translate_json_report(self, capsys):
        import json

        from repro.cli import main

        code = main([
            "translate", "--json", "--from", "core", "--to", "core",
            "SELECT a FROM t",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == REPORT_KIND
        assert report["verified"] is True

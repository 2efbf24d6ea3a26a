"""Tests for composition sequences, product lines, and the parser builder.

Uses a miniature SELECT product line mirroring the paper's worked example
(Figures 1 and 2): base query + optional set quantifier, where clause, and
multi-column select list.
"""

import dataclasses
import random
import threading
import time

import pytest

from repro.core import (
    CompositionTrace,
    FeatureUnit,
    GrammarComposer,
    GrammarProductLine,
    ParserBuilder,
    check_unit_constraints,
    order_units,
    unit,
)
from repro.errors import (
    CompositionError,
    ConstraintViolationError,
    InvalidConfigurationError,
    ReproError,
)
from repro.features import (
    FeatureModel,
    alternative,
    mandatory,
    optional,
)
from repro.grammar import Grammar
from repro.lexer import keyword, literal, pattern, standard_skip_tokens
from repro.parsing import CoverageMap
from repro.parsing import program as program_module
from repro.service.fingerprint import configuration_fingerprint
from repro.sql import (
    build_dialect,
    build_sql_product_line,
    dialect_features,
    dialect_names,
)


def mini_model():
    root = mandatory(
        "Query",
        optional("SetQuantifier"),
        mandatory("SelectList", optional("MultiColumn")),
        mandatory("TableExpression", optional("Where"), optional("GroupBy")),
    )
    return FeatureModel(root)


def mini_units():
    base_tokens = standard_skip_tokens() + [
        keyword("select"),
        keyword("from"),
        pattern("IDENTIFIER", r"[A-Za-z_][A-Za-z0-9_]*", priority=1),
    ]
    return [
        unit(
            "Query",
            """
            grammar query ;
            start query_specification ;
            query_specification : SELECT select_list table_expression ;
            select_list : select_sublist ;
            select_sublist : IDENTIFIER ;
            table_expression : FROM table_reference ;
            table_reference : IDENTIFIER ;
            """,
            tokens=base_tokens,
        ),
        unit(
            "SetQuantifier",
            """
            query_specification : SELECT set_quantifier? select_list table_expression ;
            set_quantifier : DISTINCT | ALL ;
            """,
            tokens=[keyword("distinct"), keyword("all")],
            after=("Query",),
        ),
        unit(
            "MultiColumn",
            "select_list : select_sublist (COMMA select_sublist)* ;",
            tokens=[literal("COMMA", ",")],
            after=("Query",),
        ),
        unit(
            "Where",
            """
            table_expression : FROM table_reference where_clause? ;
            where_clause : WHERE IDENTIFIER EQ IDENTIFIER ;
            """,
            tokens=[keyword("where"), literal("EQ", "=")],
            after=("Query",),
        ),
        unit(
            "GroupBy",
            """
            table_expression : FROM table_reference where_clause? group_by_clause? ;
            group_by_clause : GROUP BY IDENTIFIER ;
            """,
            tokens=[keyword("group"), keyword("by")],
            requires=("Where",),
        ),
    ]


@pytest.fixture
def line():
    return GrammarProductLine(mini_model(), mini_units(), name="mini-sql")


class TestOrdering:
    def test_requires_forces_order(self):
        units = mini_units()
        selection = frozenset(
            ["Query", "Where", "GroupBy", "SelectList", "TableExpression"]
        )
        # present GroupBy before Where in the input
        shuffled = [units[0], units[4], units[3]]
        ordered = order_units(shuffled, selection)
        names = [u.feature for u in ordered]
        assert names.index("Where") < names.index("GroupBy")

    def test_stable_when_no_edges(self):
        units = [FeatureUnit("A"), FeatureUnit("B"), FeatureUnit("C")]
        ordered = order_units(units, frozenset("ABC"))
        assert [u.feature for u in ordered] == ["A", "B", "C"]

    def test_missing_required_feature_rejected(self):
        units = [FeatureUnit("A", requires=("B",))]
        with pytest.raises(ConstraintViolationError):
            check_unit_constraints(units, frozenset("A"))

    def test_excluded_feature_rejected(self):
        units = [FeatureUnit("A", excludes=("B",))]
        with pytest.raises(ConstraintViolationError):
            check_unit_constraints(units, frozenset(["A", "B"]))

    def test_cycle_detected(self):
        units = [
            FeatureUnit("A", after=("B",)),
            FeatureUnit("B", after=("A",)),
        ]
        with pytest.raises(CompositionError):
            order_units(units, frozenset(["A", "B"]))


class TestProductLine:
    def test_unit_feature_must_exist_in_model(self):
        with pytest.raises(CompositionError):
            GrammarProductLine(mini_model(), [FeatureUnit("NotAFeature")])

    def test_duplicate_unit_rejected(self):
        with pytest.raises(CompositionError):
            GrammarProductLine(
                mini_model(), [FeatureUnit("Query"), FeatureUnit("Query")]
            )

    def test_minimal_product(self, line):
        product = line.configure(["Query"])
        parser = product.parser()
        assert parser.accepts("SELECT a FROM t")
        assert not parser.accepts("SELECT DISTINCT a FROM t")
        assert not parser.accepts("SELECT a, b FROM t")

    def test_full_product(self, line):
        product = line.configure(
            ["Query", "SetQuantifier", "MultiColumn", "Where", "GroupBy"]
        )
        parser = product.parser()
        assert parser.accepts("SELECT DISTINCT a, b FROM t WHERE x = y GROUP BY a")

    def test_partial_product_rejects_unselected_features(self, line):
        product = line.configure(["Query", "Where"])
        parser = product.parser()
        assert parser.accepts("SELECT a FROM t WHERE x = y")
        assert not parser.accepts("SELECT a, b FROM t")
        assert not parser.accepts("SELECT ALL a FROM t")

    def test_keywords_follow_features(self, line):
        """A dialect without Where does not reserve WHERE (ablation A3)."""
        small = line.configure(["Query"])
        assert "WHERE" not in small.grammar.tokens
        large = line.configure(["Query", "Where"])
        assert "WHERE" in large.grammar.tokens

    def test_sequence_respects_requires(self, line):
        product = line.configure(["Query", "GroupBy"])  # expands to include Where
        assert "Where" in product.configuration
        assert product.sequence.index("Where") < product.sequence.index("GroupBy")

    def test_invalid_configuration_rejected_without_expand(self, line):
        with pytest.raises(InvalidConfigurationError):
            line.configure(["Query", "Where"], expand=False)

    def test_trace_available(self, line):
        product = line.configure(["Query", "SetQuantifier"])
        assert product.trace.replaced  # quantifier replaced the base rule

    def test_product_size_metrics(self, line):
        small = line.configure(["Query"]).size()
        large = line.configure(
            ["Query", "SetQuantifier", "MultiColumn", "Where", "GroupBy"]
        ).size()
        assert small["rules"] < large["rules"]
        assert small["tokens"] < large["tokens"]

    def test_generated_source_round_trip(self, line):
        from repro.parsing import load_generated_parser

        product = line.configure(["Query", "Where"])
        module = load_generated_parser(product.generate_source())
        assert module.accepts("SELECT a FROM t WHERE x = y")
        assert not module.accepts("SELECT a, b FROM t")


class TestOneProgram:
    """A product compiles its parse program once; its parsers, its
    generated source and any coverage collector over it share that one
    object."""

    @pytest.fixture
    def compiles(self, monkeypatch):
        """The grammars ``compile_program`` was called on from now."""
        seen, compile_program = [], program_module.compile_program

        def counting(grammar, *args, **kwargs):
            seen.append(grammar)
            time.sleep(0.05)  # widen the window racing first calls share
            return compile_program(grammar, *args, **kwargs)

        monkeypatch.setattr(program_module, "compile_program", counting)
        return seen

    def test_every_call_returns_one_program(self, line, compiles):
        product = line.configure(["Query", "Where"])
        assert product.program() is product.program()
        assert product.parser().program is product.program()
        product.generate_source()
        assert compiles == [product.grammar]

    def test_racing_first_calls_share_one_program(self, line, compiles):
        product = line.configure(["Query", "Where"])
        threads = 4
        barrier, programs = threading.Barrier(threads), [None] * threads

        def first_call(slot):
            barrier.wait(timeout=30)
            programs[slot] = product.program()

        racers = [
            threading.Thread(target=first_call, args=(slot,))
            for slot in range(threads)
        ]
        for racer in racers:
            racer.start()
        for racer in racers:
            racer.join(timeout=30)
            assert not racer.is_alive()
        assert programs[0] is not None
        assert all(program is programs[0] for program in programs)
        assert product.program() is programs[0]

    def test_collector_over_program_fits_parser(self):
        product = build_dialect("full")
        collector = CoverageMap(product.program()).collector()
        assert product.parser().accepts("SELECT a FROM t", coverage=collector)
        assert collector.score() > 0

    def test_replaced_copy_compiles_its_own(self, line):
        small = line.configure(["Query"])
        large = line.configure(["Query", "Where", "MultiColumn"])
        program = small.program()
        copy = dataclasses.replace(small, grammar=large.grammar)
        assert copy.program() is not program
        assert copy.program() is copy.program()
        assert copy.program().rule_names == large.program().rule_names
        assert copy.parser().accepts("SELECT a, b FROM t WHERE x = y")
        assert small.program() is program


class TestParserBuilder:
    def test_build_returns_metrics(self, line):
        built = ParserBuilder(line).build(["Query", "Where"])
        assert built.metrics.grammar_rules >= 5
        assert built.metrics.compose_seconds >= 0
        assert built.metrics.table_entries > 0
        assert built.accepts("SELECT a FROM t WHERE x = y")

    def test_metrics_scale_with_features(self, line):
        builder = ParserBuilder(line)
        small = builder.build(["Query"]).metrics
        large = builder.build(
            ["Query", "SetQuantifier", "MultiColumn", "Where", "GroupBy"]
        ).metrics
        assert small.grammar_rules < large.grammar_rules
        assert small.selected_features < large.selected_features

    def test_metrics_as_dict(self, line):
        metrics = ParserBuilder(line).build(["Query"]).metrics.as_dict()
        assert set(metrics) >= {"compose_seconds", "grammar_rules", "tokens"}


class TestInPlaceFold:
    """``compose_product`` folds every unit into one working grammar in
    place; it must give exactly the functional left fold of
    ``GrammarComposer.compose`` (one copy per step)."""

    @staticmethod
    def functional_fold(line, product):
        trace = CompositionTrace()
        composer = GrammarComposer()
        grammar = Grammar(product.name)
        for feature in product.sequence:
            u = line.unit_for(feature)
            if u.grammar is not None:
                grammar = composer.compose(
                    grammar, u.grammar, trace=trace, origin=u.feature
                )
            if u.removes:
                grammar = composer.remove_rules(grammar, u.removes, trace=trace)
        if line.start is not None:
            grammar.start = line.start
        return grammar, trace

    @staticmethod
    def state(grammar, trace):
        tokens = grammar.tokens
        return {
            "grammar": (grammar.name, grammar.start),
            "rules": [(r.name, list(r.alternatives)) for r in grammar],
            "tokens": [(d, tokens._origins[d.name]) for d in tokens],
            "token_set": tokens.name,
            "trace": (
                trace.replaced, trace.retained, trace.appended, trace.merged,
                trace.added_rules, trace.removed_rules, trace.origins,
                trace.contributors,
            ),
        }

    def check(self, line, config):
        product = line.compose_product(config)
        grammar, trace = self.functional_fold(line, product)
        assert self.state(product.grammar, product.trace) == self.state(
            grammar, trace
        )
        assert product.fingerprint == configuration_fingerprint(line, config)

    @pytest.mark.parametrize("dialect", dialect_names())
    def test_presets(self, dialect):
        line = build_sql_product_line()
        self.check(line, line.resolve_configuration(dialect_features(dialect)))

    def test_random_valid_selections(self):
        line = build_sql_product_line()
        leaves = sorted(
            f.name for f in line.model.root.walk()
            if not f.children and line.unit_for(f.name) is not None
        )
        rng = random.Random(20260807)
        checked = 0
        while checked < 20:
            picked = rng.sample(leaves, rng.randint(2, 12))
            try:
                config = line.resolve_configuration(picked)
            except ReproError:
                continue  # not a valid selection
            self.check(line, config)
            checked += 1

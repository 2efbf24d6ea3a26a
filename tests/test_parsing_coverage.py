"""Coverage instrumentation over the parse-program interpreter.

The contract under test: instrumentation is opt-in per call and
decision-exact — a ``coverage=`` parse produces the same tree and
diagnostics as a plain one while counting rule entries,
CHOICE-alternative selections, and OPT/LOOP/SEPLOOP edges; collectors
merge across parsers (and threads) but never across programs.
"""

import pytest

from repro.parsing.coverage import CoverageMap
from repro.service import ParseService, ParserRegistry
from repro.sql import build_dialect, build_sql_product_line, dialect_features

ACCEPTED = [
    "SELECT a FROM t",
    "SELECT a, b FROM t WHERE a = 1",
    "SELECT * FROM t WHERE a = 1 AND b < 2",
    "INSERT INTO t VALUES (1, 'x')",
    "DELETE FROM t WHERE a = 3",
]
REJECTED = [
    "SELECT a FROM t ORDER BY a",
    "SELECT FROM t",
    "SELECT a FROM",
]


@pytest.fixture(scope="module")
def scql():
    return build_dialect("scql")


@pytest.fixture(scope="module")
def scql_program(scql):
    return scql.program()


def instrumented(product, **kwargs):
    """A parser plus a fresh collector keyed to its program."""
    parser = product.parser(**kwargs)
    return parser, CoverageMap(parser.program).collector()


class TestCoverageMap:
    def test_sizing_matches_program(self, scql_program):
        cmap = CoverageMap(scql_program)
        size = cmap.size()
        assert size["rules"] == len(scql_program.rule_names)
        assert size["alternative_slots"] == sum(
            p.n_alts for p in cmap.choices
        )
        assert size["edges"] == 2 * size["decision_points"]
        # every alternative slot is reachable through a dispatch block
        assert len(cmap.slot_of_block) == cmap.n_alt_slots
        assert len(cmap.decision_of_instr) == len(cmap.decisions)

    def test_numbering_is_deterministic(self, scql_program):
        a, b = CoverageMap(scql_program), CoverageMap(scql_program)
        assert [p.label for p in a.choices] == [p.label for p in b.choices]
        assert [p.base for p in a.choices] == [p.base for p in b.choices]
        assert [p.label for p in a.decisions] == [
            p.label for p in b.decisions
        ]

    def test_points_carry_rule_provenance(self, scql_program):
        cmap = CoverageMap(scql_program)
        for point in cmap.choices + cmap.decisions:
            name = scql_program.rule_names[point.rule_id]
            assert point.label.startswith(f"{name}/")


class TestCollector:
    def test_counts_rule_entries_and_decisions(self, scql):
        parser, collector = instrumented(scql)
        assert parser.accepts(
            "SELECT a, b FROM t WHERE a = 1", coverage=collector
        )
        assert collector.rules_covered() > 0
        assert collector.alts_covered() > 0
        assert collector.edges_covered() > 0
        counts = collector.counts()
        for covered, total in counts.values():
            assert 0 < covered <= total

    def test_more_inputs_never_lose_coverage(self, scql):
        parser, collector = instrumented(scql)
        scores = []
        for query in ACCEPTED:
            parser.accepts(query, coverage=collector)
            scores.append(collector.score())
        assert scores == sorted(scores)

    def test_opt_edges_both_ways(self, scql):
        """A WHERE-less and a WHERE-ful parse exercise both OPT edges."""
        parser, collector = instrumented(scql)
        parser.accepts("SELECT a FROM t", coverage=collector)
        after_skip = collector.edges_covered()
        parser.accepts("SELECT a FROM t WHERE a = 1", coverage=collector)
        assert collector.edges_covered() > after_skip

    def test_rejected_inputs_still_count(self, scql):
        parser, collector = instrumented(scql)
        assert not parser.accepts("SELECT FROM t", coverage=collector)
        assert collector.score() > 0

    def test_reset_zeroes_everything(self, scql):
        parser, collector = instrumented(scql)
        parser.accepts("SELECT a FROM t", coverage=collector)
        assert collector.score() > 0
        collector.reset()
        assert collector.score() == 0
        assert collector.uncovered_rules() == list(
            collector.map.program.rule_names
        )

    def test_uncovered_listings_complement_counts(self, scql):
        parser, collector = instrumented(scql)
        for query in ACCEPTED:
            parser.accepts(query, coverage=collector)
        counts = collector.counts()
        rules_covered, rules_total = counts["rules"]
        assert len(collector.uncovered_rules()) == rules_total - rules_covered
        alts_covered, alts_total = counts["alternatives"]
        assert (
            len(collector.uncovered_alternatives())
            == alts_total - alts_covered
        )
        edges_covered, edges_total = counts["edges"]
        assert len(collector.uncovered_edges()) == edges_total - edges_covered


class TestInstrumentedParity:
    @pytest.mark.parametrize("query", ACCEPTED + REJECTED)
    def test_same_tree_and_diagnostics(self, scql, query):
        parser, collector = instrumented(scql, hints=True)
        expected = parser.parse_with_diagnostics(query)
        actual = parser.parse_with_diagnostics(query, coverage=collector)
        assert actual.ok == expected.ok
        assert actual.tree == expected.tree
        assert [d.code for d in actual.diagnostics] == [
            d.code for d in expected.diagnostics
        ]

    def test_accepts_agrees(self, scql):
        parser, collector = instrumented(scql)
        for query in ACCEPTED + REJECTED:
            plain = parser.accepts(query)
            assert parser.accepts(query, coverage=collector) == plain


class TestEnableDisable:
    """Coverage is enabled per call, by passing ``coverage=``, and
    disabled by leaving it out; the parser itself never changes."""

    def test_disable_restores_plain_path(self, scql, monkeypatch):
        """A call without ``coverage=`` runs the plain ``_exec``, even
        right after an instrumented call on the same parser."""
        parser, collector = instrumented(scql)
        parser.accepts("SELECT a FROM t", coverage=collector)

        def instrumented_path(*args):
            raise AssertionError("a plain call ran the instrumented path")

        monkeypatch.setattr(type(parser), "_exec_cov", instrumented_path)
        assert parser.accepts("SELECT a, b FROM t WHERE a = 1")
        assert parser.parse_with_diagnostics("SELECT a FROM t").ok

    def test_call_without_coverage_counts_nothing(self, scql):
        parser, collector = instrumented(scql)
        parser.accepts("SELECT a FROM t", coverage=collector)
        frozen = collector.score()
        assert frozen > 0
        parser.accepts("SELECT a, b FROM t WHERE a = 1")
        parser.parse_with_diagnostics("SELECT a, b FROM t WHERE a = 1")
        parser.parse("INSERT INTO t VALUES (1)")
        assert collector.score() == frozen

    def test_enable_rejects_foreign_collector(self, scql):
        core = build_dialect("core")
        foreign = CoverageMap(core.program()).collector()
        parser = scql.parser()
        with pytest.raises(ValueError):
            parser.accepts("SELECT a FROM t", coverage=foreign)
        with pytest.raises(ValueError):
            parser.parse("SELECT a FROM t", coverage=foreign)
        with pytest.raises(ValueError):
            parser.parse_with_diagnostics("SELECT a FROM t", coverage=foreign)
        assert foreign.score() == 0

    def test_explicit_collector_is_used(self, scql, scql_program):
        shared = CoverageMap(scql_program).collector()
        parser = scql.parser(program=scql_program)
        parser.accepts("SELECT a FROM t", coverage=shared)
        assert shared.score() > 0


class TestMerge:
    def test_merge_sums_counts(self, scql, scql_program):
        cmap = CoverageMap(scql_program)
        a, b = cmap.collector(), cmap.collector()
        pa = scql.parser(program=scql_program)
        pa.accepts("SELECT a FROM t", coverage=a)
        pb = scql.parser(program=scql_program)
        pb.accepts("INSERT INTO t VALUES (1)", coverage=b)
        expected_rules = [x + y for x, y in zip(a.rules, b.rules)]
        a.merge(b)
        assert a.rules == expected_rules
        # merging an empty collector is a no-op
        before = (list(a.rules), list(a.alts), list(a.taken), list(a.skipped))
        a.merge(cmap.collector())
        assert (list(a.rules), list(a.alts), list(a.taken), list(a.skipped)) == before

    def test_merge_rejects_cross_program(self, scql_program):
        core_program = build_dialect("core").program()
        ours = CoverageMap(scql_program).collector()
        theirs = CoverageMap(core_program).collector()
        with pytest.raises(ValueError):
            ours.merge(theirs)


class TestServiceCoverage:
    def test_parse_merges_into_caller_collector(self):
        line = build_sql_product_line()
        features = dialect_features("scql")
        with ParseService(registry=ParserRegistry(line, capacity=4)) as svc:
            shared = svc.registry.get(features).coverage_collector()
            result = svc.parse("SELECT a FROM t", features, coverage=shared)
            assert result.ok
            assert shared.score() > 0

    def test_parse_many_accumulates_across_workers(self):
        line = build_sql_product_line()
        features = dialect_features("scql")
        texts = ACCEPTED * 3
        with ParseService(
            registry=ParserRegistry(line, capacity=4), max_workers=4
        ) as svc:
            entry = svc.registry.get(features)
            shared = entry.coverage_collector()
            results = svc.parse_many(texts, features, coverage=shared)
            assert all(r.ok for r in results)
            # the start rule is entered once per text
            start_hits = max(shared.rules)
            assert start_hits >= len(texts)

    def test_coverage_request_leaves_shared_parser_unchanged(self):
        """Coverage is a per-call argument: a coverage request runs on
        the entry's one shared parser and leaves it exactly as it was."""
        from repro.parsing.closures import ClosureParser

        line = build_sql_product_line()
        features = dialect_features("scql")
        with ParseService(registry=ParserRegistry(line, capacity=4)) as svc:
            svc.parse("SELECT a FROM t", features)
            entry = svc.registry.get(features)
            parser = entry.compiled_parser()
            before = {name: id(value) for name, value in vars(parser).items()}
            shared = entry.coverage_collector()
            svc.parse("SELECT a FROM t", features, coverage=shared)
            assert shared.score() > 0
            assert entry.compiled_parser() is parser
            assert type(parser) is ClosureParser
            assert {
                name: id(value) for name, value in vars(parser).items()
            } == before

    def test_uninstrumented_parse_leaves_no_trace(self):
        line = build_sql_product_line()
        features = dialect_features("scql")
        with ParseService(registry=ParserRegistry(line, capacity=4)) as svc:
            entry = svc.registry.get(features)
            shared = entry.coverage_collector()
            svc.parse("SELECT a FROM t", features)  # no coverage= argument
            assert shared.score() == 0

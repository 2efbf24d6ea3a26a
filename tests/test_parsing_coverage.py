"""Coverage instrumentation over the parse-program interpreter.

The contract under test: instrumentation is opt-in per call and
decision-exact — a ``coverage=`` parse produces the same tree and
diagnostics as a plain one while counting rule entries,
CHOICE-alternative selections, and OPT/LOOP/SEPLOOP edges; collectors
merge across parsers (and threads) but never across programs.
"""

import hashlib
import sys

import pytest

from repro.errors import ParseBudgetExceeded
from repro.parsing.coverage import CoverageMap
from repro.parsing.parser import Parser
from repro.resilience import FaultPlan, FaultRule
from repro.service import ParseService, ParserRegistry
from repro.sql import (
    build_dialect,
    build_sql_product_line,
    dialect_features,
    dialect_names,
    sql_parser_registry,
)
from repro.workloads import generate_workload

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


def snapshot(collector):
    """The collector's four count arrays, copied."""
    return (list(collector.rules), list(collector.alts),
            list(collector.taken), list(collector.skipped))


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
        """A call without ``coverage=`` walks with ``RunState.cov`` unset
        and counts nothing, even right after a counting call on the
        same parser."""
        parser, collector = instrumented(scql)
        parser.accepts("SELECT a FROM t", coverage=collector)
        counted = snapshot(collector)
        walk, seen = Parser._exec, []

        def recording(self, s, instr, children):
            seen.append(s.cov)
            return walk(self, s, instr, children)

        monkeypatch.setattr(Parser, "_exec", recording)
        assert parser.accepts("SELECT a, b FROM t WHERE a = 1")
        assert parser.parse_with_diagnostics("SELECT a FROM t").ok
        assert seen and all(cov is None for cov in seen)
        assert snapshot(collector) == counted

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


class TestCountPins:
    """What a counting call counts, pinned by digest per preset.

    The corpus is ``TestAstPins``'s (60 template and 60 coverage-guided
    seed-7 queries, counted through ``parse``) plus rejected inputs
    counted through the recovering ``parse_with_diagnostics``: each
    query with its middle word dropped, when that makes it a rejection,
    and a few fixed ones, one of them nested twelve parentheses deep.
    Both backends count with the same walk, so both must give the same
    digest.  A digest that moves means a count moved: diff the four
    arrays of two checkouts to find the point.
    """

    DIGESTS = {
        "scql": "3c4843de6c997e0298d3b0a4fa79794e",
        "tinysql": "4bdc6c504a32f0271170b5eaee1ba6ee",
        "core": "0a81bea2e122dfbafc20208a8d1aaf41",
        "analytics": "77898bfe10053d8dd699393f3ceee372",
        "full": "9cbf0b266289160405da748e565d8ac7",
    }

    FIXED = [
        "SELECT FROM t",
        "SELECT a FROM t WHERE ; SELECT b FROM",
        "SELECT a,, b FROM t ; DELETE FROM t WHERE a = 1",
        "SELECT " + "(" * 12 + "a + " + ")" * 12 + " FROM t",
    ]

    @pytest.mark.parametrize("dialect", dialect_names())
    def test_counts_are_pinned(self, dialect):
        entry = sql_parser_registry().get(dialect_features(dialect))
        queries = generate_workload(dialect, 60, seed=7) + generate_workload(
            dialect, 60, seed=7, mode="coverage"
        )
        mutated = []
        for sql in queries:
            words = sql.split()
            del words[len(words) // 2]
            mutated.append(" ".join(words))
        rejected = [
            text for text in mutated + self.FIXED
            if not entry.parser().accepts(text)
        ]
        digests = []
        for parser in (entry.parser(), entry.compiled_parser()):
            collector = entry.coverage_collector()
            for sql in queries:
                parser.parse(sql, coverage=collector)
            for text in rejected:
                parser.parse_with_diagnostics(text, coverage=collector)
            digests.append(hashlib.blake2b(
                repr(snapshot(collector)).encode(), digest_size=16
            ).hexdigest())
        assert digests == [self.DIGESTS[dialect]] * 2


class TestStackParity:
    """A counting call holds as many frames as a plain one, so input
    nested past the depth limit answers E0202 from under as deep a
    caller stack either way, instead of letting RecursionError out."""

    NESTED = "SELECT " + "(" * 40 + "a" + ")" * 40 + " FROM t"

    @staticmethod
    def deepest_caller(parse) -> int:
        """The most frames a caller may hold for ``parse()`` to still
        trip the depth limit itself (bisected).  Python's stack running
        out first also ends in ParseBudgetExceeded (``TestDeepCallers``),
        but that one does not count: the bisection measures where the
        walk's own frames run out."""

        def descend(frames):
            if frames:
                return descend(frames - 1)
            try:
                parse()
            except ParseBudgetExceeded as error:
                return str(error).startswith("parser recursion depth limit")
            raise AssertionError("the nested input parsed")

        def answers(frames):
            try:
                return descend(frames)
            except RecursionError:
                return False

        low, high = 0, sys.getrecursionlimit()
        assert answers(low)
        while high - low > 1:
            middle = (low + high) // 2
            if answers(middle):
                low = middle
            else:
                high = middle
        return low

    def test_counting_parse_has_the_plain_headroom(self):
        parser = build_dialect("full").parser()
        tokens = parser.scanner.scan(self.NESTED)
        collector = CoverageMap(parser.program).collector()
        plain = self.deepest_caller(lambda: parser.parse_tokens(tokens))
        counting = self.deepest_caller(
            lambda: parser.parse_tokens(tokens, coverage=collector)
        )
        assert plain > 0
        assert counting == plain

    def test_compiled_counting_parse_answers_e0202(self):
        """The compiled parser hands a counting call to the interpreter's
        walk, one frame more per rule activation, and still answers."""
        entry = sql_parser_registry().get(dialect_features("full"))
        parser, collector = entry.compiled_parser(), entry.coverage_collector()
        tokens = parser.scanner.scan(self.NESTED)
        assert self.deepest_caller(
            lambda: parser.parse_tokens(tokens, coverage=collector)
        ) >= 0
        outcome = parser.parse_with_diagnostics(self.NESTED, coverage=collector)
        assert [d.code for d in outcome.diagnostics] == ["E0202"]
        assert [d.message for d in outcome.diagnostics][0].startswith(
            "parser recursion depth limit"
        )


def under(frames, call):
    """``call()``, made from ``frames`` frames deeper than here."""
    if frames:
        return under(frames - 1, call)
    return call()


class TestDeepCallers:
    """Under a caller that already holds hundreds of frames, Python's
    stack can run out before the 200-activation depth limit does.  The
    safe entry points then answer as at the depth limit, on both
    backends, plain or counting, and through the service (whose counting
    requests and degraded requests run the interpreter): ``accepts`` is
    False, ``parse_with_diagnostics`` reports E0202, and ``parse_tokens``
    raises ParseBudgetExceeded.  RecursionError never gets out."""

    NESTED = TestStackParity.NESTED

    @pytest.fixture(scope="class")
    def entry(self):
        return sql_parser_registry().get(dialect_features("full"))

    @pytest.mark.parametrize("frames", [400, 600])
    @pytest.mark.parametrize("counting", [False, True], ids=["plain", "counting"])
    @pytest.mark.parametrize("backend", ["interpreter", "compiled"])
    def test_entry_points_answer_e0202(self, entry, backend, counting, frames):
        parser = (
            entry.parser() if backend == "interpreter" else entry.compiled_parser()
        )
        collector = entry.coverage_collector() if counting else None
        tokens = parser.scanner.scan(self.NESTED)

        def raises():
            with pytest.raises(ParseBudgetExceeded) as excinfo:
                parser.parse_tokens(tokens, coverage=collector)
            return excinfo.value

        assert under(frames, lambda: parser.accepts(
            self.NESTED, coverage=collector
        )) is False
        outcome = under(frames, lambda: parser.parse_with_diagnostics(
            self.NESTED, coverage=collector
        ))
        assert [d.code for d in outcome.diagnostics] == ["E0202"]
        assert "nested too deeply" in under(frames, raises).args[0]

    @pytest.mark.parametrize("frames", [400, 600])
    @pytest.mark.parametrize("rung", ["counting", "degraded"])
    def test_service_answers_e0202(self, entry, rung, frames):
        plan = FaultPlan([FaultRule("backend.parse", times=None)])
        with ParseService(
            registry=ParserRegistry(
                build_sql_product_line(), capacity=2,
                fault_plan=plan if rung == "degraded" else None,
            ),
        ) as service:
            features = dialect_features("full")
            collector = (
                service.registry.get(features).coverage_collector()
                if rung == "counting" else None
            )
            result = under(frames, lambda: service.parse(
                self.NESTED, features, coverage=collector
            ))
        assert [d.code for d in result.diagnostics] == ["E0202"]
        assert result.degraded == (("backend",) if rung == "degraded" else ())

"""Every generated workload query must parse in its own dialect."""

import hashlib

import pytest

from repro.core.product_line import ComposedProduct
from repro.grammar import read_grammar
from repro.grammar.validate import validate
from repro.lexer import standard_skip_tokens
from repro.lexer.spec import TokenSet, literal
from repro.parsing.coverage import CoverageMap
from repro.sql import build_dialect, build_sql_product_line, dialect_names
from repro.workloads import (
    CoverageGuidedGenerator,
    coverage_guided_workload,
    generate_workload,
    workload_dialects,
)
from repro.workloads.guided import MAX_SENTENCES


@pytest.mark.parametrize("dialect", workload_dialects())
def test_workload_parses_in_own_dialect(dialect):
    parser = build_dialect(dialect).parser()
    failures = []
    for query in generate_workload(dialect, count=120, seed=7):
        if not parser.accepts(query):
            failures.append(query)
    assert not failures, f"{len(failures)} rejected, e.g. {failures[:3]}"


def test_workload_is_deterministic():
    assert generate_workload("core", 20, seed=1) == generate_workload("core", 20, seed=1)
    assert generate_workload("core", 20, seed=1) != generate_workload("core", 20, seed=2)


def test_unknown_dialect_rejected():
    with pytest.raises(ValueError):
        generate_workload("nope")


def test_smaller_dialect_rejects_larger_workload():
    """E8's negative direction: SCQL rejects most core-workload queries."""
    scql = build_dialect("scql").parser()
    core_queries = generate_workload("core", count=80, seed=3)
    rejected = sum(1 for q in core_queries if not scql.accepts(q))
    assert rejected > len(core_queries) // 2


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        generate_workload("core", mode="clever")


class TestCoverageGuidedMode:
    def test_coverage_workload_parses_in_own_dialect(self):
        # the walk drops what its product rejects: the check is that it
        # derived nothing to drop
        generator = CoverageGuidedGenerator(build_dialect("core"), seed=7)
        queries = generator.generate(60)
        assert generator.rejected == []
        assert queries == generate_workload("core", count=60, seed=7, mode="coverage")
        parser = build_dialect("core").parser()
        rejected = [q for q in queries if not parser.accepts(q)]
        assert not rejected, f"{len(rejected)} rejected, e.g. {rejected[:3]}"

    @pytest.mark.parametrize("mode", ["plain", "coverage"])
    def test_corpus_is_byte_identical_per_seed(self, mode):
        """Same seed + config ⇒ the same corpus, byte for byte."""
        first = "\n".join(generate_workload("core", 40, seed=5, mode=mode))
        second = "\n".join(generate_workload("core", 40, seed=5, mode=mode))
        assert first == second
        shifted = "\n".join(generate_workload("core", 40, seed=6, mode=mode))
        assert first != shifted

    def test_guided_beats_plain_alternative_coverage(self):
        """Acceptance criterion: at equal corpus size, the coverage-guided
        generator covers strictly more CHOICE alternatives than the plain
        sentence sampler."""
        product = build_dialect("core")
        program = product.program()

        def alts_covered(queries):
            collector = CoverageMap(program).collector()
            parser = product.parser(program=program)
            for query in queries:
                parser.accepts(query, coverage=collector)
            return collector.alts_covered()

        plain = alts_covered(generate_workload("core", 120, seed=9))
        guided = alts_covered(
            generate_workload("core", 120, seed=9, mode="coverage")
        )
        assert guided > plain

    def test_generate_until_dry_converges(self):
        product = build_dialect("scql")
        generator = CoverageGuidedGenerator(product, seed=3)
        sentences = generator.generate_until_dry()
        assert 0 < len(sentences) < MAX_SENTENCES
        # the loop only stops once a window of batches stops paying off,
        # and by then the biased walk has entered every scql rule
        counts = generator.collector.counts()
        covered, total = counts["rules"]
        assert covered == total

    def test_generator_reuses_supplied_collector(self):
        product = build_dialect("scql")
        program = product.program()
        collector = CoverageMap(program).collector()
        parser = product.parser(program=program)
        parser.accepts("SELECT a FROM t", coverage=collector)
        seeded = collector.score()
        generator = CoverageGuidedGenerator(product, collector=collector, seed=1)
        generator.generate(5)
        assert generator.collector is collector
        assert collector.score() >= seeded

    def test_collector_over_an_equal_program(self):
        # the generator parses with the collector's program
        product = build_dialect("core")
        collector = CoverageMap(product.program()).collector()
        generator = CoverageGuidedGenerator(product, collector=collector)
        assert generator.program is collector.map.program
        assert len(generator.generate(3)) == 3
        assert collector.score() > 0


@pytest.mark.parametrize("dialect", dialect_names())
def test_until_dry_covers_every_reachable_point(dialect):
    """At seed 0 the walk enters every rule the start rule reaches and
    takes every alternative and every edge.  (A point it cannot reach
    would be listed here by its CoverageMap label, with the reason; no
    preset has one.)"""
    product = build_dialect(dialect)
    generator = CoverageGuidedGenerator(product, seed=0)
    generator.generate_until_dry()
    collector = generator.collector
    assert collector.uncovered_rules() == validate(product.grammar).unreachable_rules
    assert [
        f"{point.label}#{offset}"
        for point, offset in collector.uncovered_alternatives()
    ] + [f"{point.label}:{edge}" for point, edge in collector.uncovered_edges()] == []


def hand_built(text):
    """A product over ``text``, a grammar with the tokens A and B."""
    tokens = TokenSet(
        "t", standard_skip_tokens() + [literal("A", "a"), literal("B", "b")]
    )
    return ComposedProduct(
        name="hand-built", configuration=None, sequence=(),
        grammar=read_grammar(text, tokens=tokens), trace=None,
    )


class TestNonProductiveRules:
    """A rule that derives no finite sentence never sends the coverage
    generator into endless recursion."""

    def test_empty_language_is_refused_by_name(self):
        # a valid selection whose only statement needs a statement
        line = build_sql_product_line()
        product = line.compose_product(
            line.resolve_configuration(["TriggerOn.Update"])
        )
        with pytest.raises(
            ValueError,
            match=r"start rule 'sql_script' of 'sql2003@[0-9a-f]{12}' "
            r"derives no finite sentence",
        ):
            coverage_guided_workload(product, 3, seed=1)

    def test_dead_bodies_are_never_entered(self):
        # w derives nothing: x must take A, and y? and z* must stay empty
        product = hand_built("s : x y? z* ; x : A | w ; y : w ; z : w ; w : B w ;")
        assert coverage_guided_workload(product, 10, seed=1) == ["a"] * 10

    def test_preset_coverage_workloads_are_pinned(self):
        """No preset reaches a body of infinite cost, so the guard draws
        nothing from the generator's RNG there: seeds 1-3 of every preset
        keep these exact coverage-mode workloads."""
        digest = hashlib.sha256()
        for dialect in dialect_names():
            for seed in (1, 2, 3):
                for query in generate_workload(
                    dialect, 40, seed=seed, mode="coverage"
                ):
                    digest.update(query.encode() + b"\n")
        assert digest.hexdigest() == (
            "1f4f21a25edf8364a70a2e649dc85eab8c3e6c20c62207c6f8493efd241c29ef"
        )


class TestRejectedSentences:
    """The product's verdict is final: a sentence it rejects is never
    returned and counts nothing."""

    SHADOWED = "s : x | x B ; x : A ;"

    def test_shadowed_alternative_is_never_returned(self):
        # alternative 0 captures "a", so "a b" is rejected and
        # alternative 1 never counts
        product = hand_built(self.SHADOWED)
        assert coverage_guided_workload(product, 10, seed=1) == ["a"] * 10

    def test_until_dry_stops_aiming_at_a_shadowed_alternative(self):
        generator = CoverageGuidedGenerator(hand_built(self.SHADOWED), seed=1)
        sentences = generator.generate_until_dry()
        assert set(sentences) == {"a"}
        assert len(sentences) < MAX_SENTENCES
        assert generator.collector.alts == [len(sentences), 0]
        assert set(generator.rejected) == {"a b"}

    def test_a_point_past_the_failure_is_still_aimed_at(self):
        # "a b a" aims at x's shadowed alternative, then at y's taken
        # edge; its parse fails at "b", so the edge was never tested:
        # the alternative is struck, the edge is aimed at again
        generator = CoverageGuidedGenerator(
            hand_built("s : x y? ; x : A | A B ; y : A ;"), seed=0
        )
        assert generator.generate(1) == ["a a"]
        assert generator.rejected == ["a b a"]
        assert generator.collector.taken == [1]

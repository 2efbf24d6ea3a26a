"""Every generated workload query must parse in its own dialect."""

import pytest

from repro.parsing.coverage import CoverageMap
from repro.sql import build_dialect
from repro.workloads import (
    CoverageGuidedGenerator,
    generate_workload,
    workload_dialects,
)


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
        parser = build_dialect("core").parser()
        queries = generate_workload("core", count=60, seed=7, mode="coverage")
        assert len(queries) == 60
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
        sentences = generator.generate_until_dry(
            batch=10, dry_batches=2, max_sentences=400
        )
        assert 0 < len(sentences) <= 400
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
        generator = CoverageGuidedGenerator(
            product, program=program, collector=collector, seed=1
        )
        generator.generate(5)
        assert generator.collector is collector
        assert collector.score() >= seeded

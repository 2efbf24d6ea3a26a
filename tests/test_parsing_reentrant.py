"""Reentrant parsers: one parser instance, any number of concurrent calls.

Every parse keeps its registers — cursor, furthest failure, fuel, depth,
coverage collector — in a per-call ``RunState``, so the registry hands
every thread the same interpreting and compiled parser.  Two contracts
pin that down: concurrent calls on one shared parser give exactly the
results of a sequential pass, and no call, whatever its outcome, writes
to the parser.
"""

import random
import sys
import threading

import pytest

from repro.errors import ParseBudgetExceeded, ParseDeadlineExceeded
from repro.parsing.backends import COMPILED, INTERPRETER, get_backend
from repro.parsing.coverage import CoverageMap
from repro.resilience import Deadline
from repro.sql import build_dialect
from repro.workloads import generate_workload

from tests.test_fuzz_recovery import mutate

THREADS = 4


def outcomes(parser, query):
    """Everything a caller can observe of one query: both entry points."""
    try:
        verdict = ("ok", parser.parse(query).to_sexpr())
    except Exception as error:  # ParseError, ScanError, budget trips
        verdict = (
            type(error).__name__, str(error),
            tuple(sorted(getattr(error, "expected", ()) or ())),
            tuple(getattr(error, "hints", ()) or ()),
        )
    outcome = parser.parse_with_diagnostics(query)
    diagnostics = tuple(
        (d.code, d.message, repr(d.span), tuple(d.hints))
        for d in outcome.diagnostics.sorted()
    )
    tree = outcome.tree.to_sexpr() if outcome.tree is not None else None
    return verdict, tree, diagnostics


@pytest.fixture(scope="module")
def full_parsers():
    product = build_dialect("full")
    program = product.program()
    return {
        name: get_backend(name).build(product, program=program)
        for name in (INTERPRETER, COMPILED)
    }


@pytest.fixture(scope="module")
def full_queries():
    accepted = generate_workload("full", 30, seed=11)
    rng = random.Random(5)
    return accepted + [mutate(query, rng) for query in accepted]


class TestSharedParserConcurrency:
    @pytest.mark.parametrize("backend", [INTERPRETER, COMPILED])
    def test_threads_match_a_sequential_pass(
        self, full_parsers, full_queries, backend
    ):
        parser = full_parsers[backend]
        expected = [outcomes(parser, query) for query in full_queries]
        results = [None] * THREADS
        errors = []
        barrier = threading.Barrier(THREADS)

        def worker(k):
            # each thread walks the corpus from a different offset, so
            # accepted and rejected calls overlap on the one parser
            n = len(full_queries)
            order = [(k * n // THREADS + j) % n for j in range(n)]
            try:
                barrier.wait()
                results[k] = {
                    index: outcomes(parser, full_queries[index])
                    for index in order
                }
            except Exception as error:  # pragma: no cover - diagnostic aid
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often
        try:
            threads = [
                threading.Thread(target=worker, args=(k,))
                for k in range(THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        for got in results:
            mismatches = [
                full_queries[index]
                for index, outcome in got.items()
                if outcome != expected[index]
            ]
            assert not mismatches


def snapshot(parser):
    return {name: id(value) for name, value in vars(parser).items()}


class TestParserIsNeverWritten:
    """No parse call of any outcome leaves a trace on the parser."""

    @pytest.fixture(scope="class")
    def scql(self):
        product = build_dialect("scql")
        program = product.program()
        return product, program

    @pytest.mark.parametrize("backend", [INTERPRETER, COMPILED])
    def test_vars_unchanged(self, scql, backend):
        product, program = scql
        parser = get_backend(backend).build(product, program=program)
        before = snapshot(parser)

        # accepted
        assert parser.parse("SELECT a FROM t").to_sexpr()
        # rejected, with a feature hint built into the error
        outcome = parser.parse_with_diagnostics(
            "SELECT a FROM t WINDOW w AS (PARTITION BY a)"
        )
        assert any(d.hints for d in outcome.diagnostics)
        # budget trip
        tokens = parser.scanner.scan("SELECT a, b FROM t WHERE a = 1")
        with pytest.raises(ParseBudgetExceeded):
            parser.parse_tokens(tokens, max_steps=5)
        # deadline trip (long enough to reach a deadline check)
        tokens = parser.scanner.scan(
            "SELECT a FROM t WHERE "
            + " AND ".join(f"c{i} = {i}" for i in range(300))
        )
        with pytest.raises(ParseDeadlineExceeded):
            parser.parse_tokens(tokens, deadline=Deadline.after(0.0))
        # instrumented
        collector = CoverageMap(program).collector()
        assert parser.accepts("SELECT a FROM t WHERE a = 1", coverage=collector)
        assert collector.score() > 0

        assert snapshot(parser) == before

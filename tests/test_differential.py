"""Differential equivalence across every registered parse backend.

All backends in the :mod:`repro.parsing.backends` registry —
interpreter, closure-compiled, generated source — execute the *same*
compiled :class:`~repro.parsing.program.ParseProgram`, so for every
preset dialect, over a grammar-guided fuzz corpus (valid sentences,
workload queries, and mutated/invalid inputs) they must agree exactly:

* on accepted inputs, identical s-expression parse trees;
* on rejected inputs, identical error line/column and identical
  expected-terminal sets at the furthest failure point.

``REPRO_FUZZ_SEED`` / ``REPRO_FUZZ_ITERATIONS`` scale the corpus the
same way as the recovery fuzzer.
"""

import os
import random

import pytest

from repro.parsing import SentenceGenerator, backend_names, get_backend
from repro.sql import build_dialect, dialect_names
from repro.workloads.generator import generate_workload

from tests.test_fuzz_recovery import GARBAGE, mutate

SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))
ITERATIONS = int(os.environ.get("REPRO_FUZZ_ITERATIONS", "40"))

REJECTED_FIXED = [
    "SELECT FROM t",
    "SELECT a FROM",
    "SELECT a FROM t WHERE",
    "SELECT a,, b FROM t",
    "SELECT a FROM t GROUP WHERE",
    ";",
    "",
    # past the 200-activation depth limit: every backend rejects at the
    # same token with an empty expected set
    "SELECT " + "(" * 250 + "a" + ")" * 250 + " FROM t",
    "SELECT a FROM t WHERE " + "(" * 300 + "a = 1" + ")" * 300,
]


@pytest.fixture(scope="module", params=dialect_names())
def backends(request):
    """(dialect, {backend name: parser}, corpus) per preset dialect."""
    dialect = request.param
    product = build_dialect(dialect)
    program = product.program()
    parsers = {
        name: get_backend(name).build(product, program=program, hints=False)
        for name in backend_names()
    }
    rng = random.Random(SEED)
    corpus = list(generate_workload(dialect, 25, seed=11))
    corpus += SentenceGenerator(product.grammar, seed=SEED).sentences(
        ITERATIONS
    )
    corpus += [mutate(s, rng) for s in corpus[:ITERATIONS]]
    corpus += REJECTED_FIXED + GARBAGE
    return dialect, parsers, corpus


class TestDifferentialEquivalence:
    def test_backends_agree_on_whole_corpus(self, backends):
        dialect, parsers, corpus = backends
        reference_name = "interpreter"
        reference = parsers[reference_name]
        others = {
            name: parser
            for name, parser in parsers.items()
            if name != reference_name
        }
        assert others, "the backend registry must hold more than the reference"
        accepted = rejected = 0
        for text in corpus:
            expected = get_backend(reference_name).outcome(reference, text)
            for name, parser in others.items():
                actual = get_backend(name).outcome(parser, text)
                assert actual == expected, (
                    f"[{dialect}] backends disagree on {text!r}:\n"
                    f"  {reference_name}: {expected}\n"
                    f"  {name}: {actual}"
                )
            if expected[0] == "ok":
                accepted += 1
            else:
                rejected += 1
        # the corpus must genuinely exercise both paths
        assert accepted > 0, f"[{dialect}] corpus had no accepted inputs"
        assert rejected > 0, f"[{dialect}] corpus had no rejected inputs"

    def test_workload_fully_accepted_by_all(self, backends):
        dialect, parsers, _ = backends
        for query in generate_workload(dialect, 25, seed=77):
            for name, parser in parsers.items():
                assert parser.accepts(query), f"[{dialect}] {name}: {query!r}"

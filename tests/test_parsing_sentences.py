"""Sentence round trips: the strongest whole-pipeline check.

For every preset dialect, the sentences the coverage-guided generator
derives from the composed product, until its coverage runs dry, must be
accepted by (a) the product itself (the generator keeps what its parse
rejected in ``rejected``), (b) a freshly built interpreting parser and
(c) the generated standalone parser — and (b) and (c) must produce
identical trees.
"""

import pytest

from repro.parsing import load_generated_parser
from repro.sql import build_dialect, dialect_names
from repro.workloads import CoverageGuidedGenerator

from tests.test_fuzz_recovery import assert_accepted


@pytest.fixture(scope="module")
def products():
    return {name: build_dialect(name) for name in dialect_names()}


@pytest.mark.parametrize("dialect", dialect_names())
def test_generated_sentences_parse(products, dialect):
    product = products[dialect]
    generator = CoverageGuidedGenerator(product, seed=17)
    parser = product.parser()
    for sentence in generator.generate_until_dry():
        assert parser.accepts(sentence), sentence[:160]
    assert_accepted(generator)


@pytest.mark.parametrize("dialect", ["scql", "tinysql", "core"])
def test_interpreter_and_generated_parser_agree(products, dialect):
    product = products[dialect]
    generator = CoverageGuidedGenerator(product, seed=23)
    parser = product.parser()
    module = load_generated_parser(product.generate_source(), f"agree_{dialect}")
    for sentence in generator.generate_until_dry():
        tree_a = parser.parse(sentence)
        tree_b = module.parse(sentence)
        assert tree_a.to_sexpr() == tree_b.to_sexpr(), sentence[:160]
    assert_accepted(generator)


def test_generator_terminates_on_recursive_grammars(products):
    # the FULL grammar is deeply recursive (expressions, subqueries)
    generator = CoverageGuidedGenerator(products["full"], seed=1)
    sentences = generator.generate_until_dry()
    assert all(len(s) < 50_000 for s in sentences)
    assert_accepted(generator)


def test_full_dialect_generated_parser_smoke(products):
    """The 9k-line generated FULL parser loads and agrees on a workload."""
    from repro.workloads import generate_workload

    product = products["full"]
    module = load_generated_parser(product.generate_source(), "agree_full")
    parser = product.parser()
    for query in generate_workload("full", 30, seed=41):
        assert module.accepts(query), query[:120]
        assert (
            module.parse(query).to_sexpr() == parser.parse(query).to_sexpr()
        ), query[:120]

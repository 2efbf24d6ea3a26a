"""Grammar-guided fuzzing of the diagnostics pipeline.

Valid sentences are drawn from the coverage-guided generator (until its
coverage runs dry, and at least ``REPRO_FUZZ_ITERATIONS`` of them), and
joined into one long script as well; then they are mutated — tokens
deleted, swapped, duplicated, the tail truncated, garbage injected —
before being fed to ``parse_with_diagnostics``.  The pipeline's contract
under fire:

* no uncaught exception, ever (crash-free pipeline);
* termination within the fuel budget (no hangs);
* every reported span lies inside the input;
* valid (unmutated) sentences still parse clean, and the product
  accepted every sentence the generator derived.

The run is deterministic: set ``REPRO_FUZZ_SEED`` to explore another
region of the input space, ``REPRO_FUZZ_ITERATIONS`` to scale the run
(the tier-1 default is a bounded smoke run; CI can crank it up).
"""

import os
import random
import re

import pytest

from repro.sql import build_dialect
from repro.workloads import CoverageGuidedGenerator

SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))
ITERATIONS = int(os.environ.get("REPRO_FUZZ_ITERATIONS", "150"))

GARBAGE = ["@@", "§", "$%", "\x00", "'", '"', "((", "))", ";;", "\\", "`"]


def mutate(sentence: str, rng: random.Random) -> str:
    """Apply 1-3 random mutations to a valid sentence."""
    words = sentence.split()
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(5)
        if op == 0 and words:  # delete a token
            del words[rng.randrange(len(words))]
        elif op == 1 and len(words) >= 2:  # swap two tokens
            i, j = rng.sample(range(len(words)), 2)
            words[i], words[j] = words[j], words[i]
        elif op == 2 and words:  # duplicate a token
            i = rng.randrange(len(words))
            words.insert(i, words[i])
        elif op == 3 and words:  # truncate the tail
            words = words[: rng.randrange(1, len(words) + 1)]
        else:  # inject garbage
            words.insert(
                rng.randrange(len(words) + 1), rng.choice(GARBAGE)
            )
    return " ".join(words)


def check_outcome(parser, source: str) -> None:
    """One fuzz probe: must not raise, hang, or report out-of-range spans."""
    outcome = parser.parse_with_diagnostics(source, max_errors=10)
    lines = source.splitlines() or [""]
    for diag in outcome.diagnostics:
        if diag.span is None:
            continue
        assert 1 <= diag.span.line <= len(lines) + 1, (source, diag)
        assert diag.span.column >= 1, (source, diag)
        assert diag.span.end_line >= diag.span.line, (source, diag)


#: The one known way a product rejects what its grammar derives (ROADMAP,
#: "An alternative shadowed by ordered choice"): ``full``'s
#: ``insert_columns_and_source`` commits to its VALUES alternative, so an
#: INSERT whose source is a query expression that opens with VALUES and
#: goes on with a set operator is rejected.
SHADOWED_INSERT = re.compile(
    r"\bINSERT INTO [^;]*?\bVALUES\b[^;]*?\b(UNION|EXCEPT|INTERSECT)\b"
)


def assert_accepted(generator) -> None:
    """The product accepted every sentence the generator derived.  The
    generator drops a rejected sentence, so this is where one shows."""
    unexplained = [s for s in generator.rejected if not SHADOWED_INSERT.search(s)]
    assert unexplained == [], f"{len(unexplained)} rejected, e.g. {unexplained[:2]}"


def valid_sentences(product, seed: int, count: int) -> list[str]:
    """Guided sentences of ``product``: until its coverage runs dry, and
    at least ``count`` of them."""
    generator = CoverageGuidedGenerator(product, seed=seed)
    sentences = generator.generate_until_dry()
    sentences += generator.generate(count - len(sentences))
    assert_accepted(generator)
    return sentences


def as_script(sentences: list[str]) -> str:
    """One long input: the sentences as the statements of one script."""
    return " ; ".join(s.removesuffix(" ;") for s in sentences)


def fuzz_corpus(dialect: str, count: int, seed: int):
    product = build_dialect(dialect)
    rng = random.Random(seed * 7919 + 13)
    sentences = valid_sentences(product, seed, count)
    sentences.append(as_script(sentences))
    return product.parser(), [mutate(s, rng) for s in sentences]


class TestFuzzSmoke:
    """Bounded smoke run — always part of tier-1."""

    @pytest.mark.parametrize("dialect", ["core", "scql"])
    def test_mutated_sentences_never_crash(self, dialect):
        parser, corpus = fuzz_corpus(dialect, ITERATIONS, SEED)
        for source in corpus:
            check_outcome(parser, source)

    def test_valid_sentences_parse_clean(self):
        product = build_dialect("core")
        parser = product.parser()
        sentences = valid_sentences(product, SEED, 25)
        for sentence in sentences + [as_script(sentences)]:
            outcome = parser.parse_with_diagnostics(sentence)
            assert outcome.ok, sentence[:160]

    def test_pathological_inputs_never_crash(self):
        parser = build_dialect("core").parser()
        for source in [
            "",
            ";",
            ";;;;;",
            "(" * 100,
            ")" * 100,
            "SELECT " * 50,
            "@" * 200,
            "SELECT a FROM t " + "WHERE " * 30,
            "'unterminated",
            "\x00\x01\x02",
            "\n" * 50 + "SELECT",
        ]:
            check_outcome(parser, source)


@pytest.mark.fuzz
class TestFuzzExtended:
    """The long-haul campaign: 500+ inputs across dialects."""

    @pytest.mark.parametrize("dialect", ["core", "scql", "full"])
    def test_extended_campaign(self, dialect):
        parser, corpus = fuzz_corpus(dialect, max(ITERATIONS, 200), SEED + 1)
        for source in corpus:
            check_outcome(parser, source)

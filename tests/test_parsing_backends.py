"""The parse-backend registry and the closure-compiled backend's surface.

The registry is the tentpole contract: every execution strategy for a
compiled ParseProgram registers under a name, exposes capability flags,
and normalizes parse attempts into comparable verdicts.  The closure
backend additionally claims the *full* parser surface — diagnostics,
coverage, fuel — so those claims are checked against the interpreter
here, case by case, not just accept/reject.
"""

import pytest

from repro.errors import ParseBudgetExceeded, ParseDeadlineExceeded
from repro.parsing import (
    COMPILED,
    GENERATED,
    INTERPRETER,
    ClosureParser,
    ClosureProgram,
    CompiledBackend,
    CoverageMap,
    ParseBackend,
    backend_names,
    get_backend,
    register_backend,
)
from repro.resilience.deadline import Deadline
from repro.sql import build_dialect

ACCEPTED = [
    "SELECT a FROM t",
    "SELECT a, b FROM t WHERE x = 1 ORDER BY a DESC",
    "SELECT count(a) FROM t GROUP BY b HAVING count(a) > 2",
]
REJECTED = [
    "SELECT FROM t",
    "SELECT a FROM t WHERE",
    "SELECT a,, b FROM t",
    "",
]


@pytest.fixture(scope="module")
def product():
    return build_dialect("full")


@pytest.fixture(scope="module")
def program(product):
    return product.program()


@pytest.fixture(scope="module")
def interpreter(product, program):
    return get_backend(INTERPRETER).build(product, program=program)


@pytest.fixture(scope="module")
def compiled(product, program):
    return get_backend(COMPILED).build(product, program=program)


class TestRegistry:
    def test_all_three_backends_registered(self):
        names = backend_names()
        assert set(names) == {INTERPRETER, GENERATED, COMPILED}
        # serving-preference order: the fast path leads
        assert names[0] == COMPILED

    def test_get_backend_unknown_name_lists_registered(self):
        with pytest.raises(KeyError, match="compiled"):
            get_backend("jit")

    def test_register_rejects_duplicates_and_blank_names(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(CompiledBackend())
        with pytest.raises(ValueError, match="non-empty name"):
            register_backend(ParseBackend())

    def test_replace_swaps_an_implementation(self):
        original = get_backend(COMPILED)
        try:
            register_backend(CompiledBackend(), replace=True)
            assert get_backend(COMPILED) is not original
        finally:
            register_backend(original, replace=True)

    def test_build_returns_a_closure_parser_for_compiled(self, compiled):
        assert isinstance(compiled, ClosureParser)

    def test_outcomes_comparable_across_all_backends(self, product, program):
        parsers = {
            name: get_backend(name).build(product, program=program)
            for name in backend_names()
        }
        for text in ACCEPTED + REJECTED:
            verdicts = {
                name: get_backend(name).outcome(parser, text)
                for name, parser in parsers.items()
            }
            assert len(set(verdicts.values())) == 1, verdicts


class TestCompiledDiagnosticsParity:
    """The closure backend's diagnostics must be byte-identical to the
    interpreter's — same codes, messages, spans, and hints."""

    @pytest.mark.parametrize("text", ACCEPTED + REJECTED)
    def test_diagnostics_match_interpreter(self, interpreter, compiled, text):
        ref = interpreter.parse_with_diagnostics(text)
        got = compiled.parse_with_diagnostics(text)
        assert got.ok == ref.ok
        assert [
            (d.code, d.message, repr(d.span), d.severity, tuple(d.hints))
            for d in got.diagnostics.sorted()
        ] == [
            (d.code, d.message, repr(d.span), d.severity, tuple(d.hints))
            for d in ref.diagnostics.sorted()
        ]
        if ref.ok:
            assert got.tree.to_sexpr() == ref.tree.to_sexpr()


class TestCompiledFuel:
    def test_budget_trips_identically(self, interpreter, compiled):
        text = "SELECT a, b, c FROM t WHERE x = 1 AND y = 2"
        tokens_i = interpreter.scanner.scan(text)
        tokens_c = compiled.scanner.scan(text)
        with pytest.raises(ParseBudgetExceeded) as ref:
            interpreter.parse_tokens(tokens_i, max_steps=10)
        with pytest.raises(ParseBudgetExceeded) as got:
            compiled.parse_tokens(tokens_c, max_steps=10)
        assert got.value.code == ref.value.code == "E0202"

    def test_expired_deadline_aborts(self, compiled):
        text = "SELECT a FROM t WHERE " + " AND ".join(
            f"c{i} = {i}" for i in range(200)
        )
        tokens = compiled.scanner.scan(text)
        with pytest.raises(ParseDeadlineExceeded):
            compiled.parse_tokens(tokens, deadline=Deadline.after(0.0))


class TestCompiledCoverage:
    def test_coverage_counts_match_interpreter(self, product, program):
        texts = ACCEPTED + REJECTED
        ref_parser = get_backend(INTERPRETER).build(product, program=program)
        got_parser = get_backend(COMPILED).build(product, program=program)
        ref = CoverageMap(program).collector()
        got = CoverageMap(program).collector()
        for text in texts:
            ref_parser.parse_with_diagnostics(text, coverage=ref)
            got_parser.parse_with_diagnostics(text, coverage=got)
        assert got.rules == ref.rules
        assert got.alts == ref.alts
        assert got.taken == ref.taken
        assert got.skipped == ref.skipped


class TestClosureArtifactValidation:
    def test_compile_round_trip(self, program):
        closure = ClosureProgram(program)
        assert len(closure.rule_fns) == len(program.code)

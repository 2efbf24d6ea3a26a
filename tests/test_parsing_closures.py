"""The closure backend's lazy loader: each lowered function compiles on
its first call.

``ClosureProgram`` binds every function name to a stub made from one
shared code object; a stub's first call compiles that function's text
and swaps the compiled code into the stub itself.  So ``RULES``, the
helper tuples and every global reference keep the same function objects
and run the real code from then on.  Pinned here: one compile per
function, also under racing threads; no trampoline left after a first
call; a coverage-counting call compiles nothing and counts what the
interpreter counts; a first-ever deep parse trips the depth limit
exactly as a warm one does; and a compile that raises degrades one
request, then is retried by the next.
"""

import re
import sys
import threading
from collections import Counter

import pytest

from repro.core import GrammarProductLine
from repro.errors import ParseBudgetExceeded
from repro.parsing import closures
from repro.parsing.backends import INTERPRETER, get_backend
from repro.parsing.closures import ClosureParser, ClosureProgram
from repro.parsing.coverage import CoverageMap
from repro.service import ParseService, ParserRegistry, ServiceMetrics
from repro.service.registry import RegistryEntry
from repro.sql import build_dialect, dialect_names
from repro.workloads import generate_workload

from tests.test_core_product_line import mini_model, mini_units
from tests.test_differential import REJECTED_FIXED

THREADS = 4
STUB = closures._stub.__code__
#: The two inputs nested past the 200-activation depth limit.
DEEP = [text for text in REJECTED_FIXED if "(" * 250 in text]
QUERY = "SELECT a, b FROM t WHERE a = 1 AND b IN (1, 2) ORDER BY a"
#: Reaches ``full``'s helper-function tuples (long backtracking
#: candidate lists; the smaller presets have none).
DDL = "CREATE VIEW v AS SELECT a FROM t WHERE a IN (1, 2)"


@pytest.fixture(scope="module")
def core():
    product = build_dialect("core")
    return product, product.program()


@pytest.fixture(scope="module")
def full():
    product = build_dialect("full")
    return product, product.program()


@pytest.fixture
def compiles(monkeypatch):
    """Names of the functions the loader compiles, in call order."""
    names = []
    real = compile

    def counting(text, filename, mode):
        names.append(text[len("def "):text.index("(")])
        return real(text, filename, mode)

    monkeypatch.setattr(closures, "compile", counting, raising=False)
    return names


def functions(fns):
    """``name -> function`` for every lowered function behind ``fns``."""
    namespace = fns[0].__globals__
    return {
        name: value for name, value in namespace.items()
        if re.fullmatch(r"_[rh]\d+", name)
    }


def helper_tuples(closure):
    namespace = closure.rule_fns[0].__globals__
    return {
        name: value for name, value in namespace.items()
        if re.fullmatch(r"_t\d+", name)
    }


def outcome(parser, text):
    return get_backend(INTERPRETER).outcome(parser, text)


class TestFirstCallCompilation:
    def test_each_function_compiles_once_on_first_call(self, core, compiles):
        product, program = core
        closure = ClosureProgram(program)
        assert compiles == []  # building the program compiles nothing
        parser = ClosureParser(product.grammar, closure)
        queries = generate_workload("core", 40, seed=3)
        for text in queries:
            parser.accepts(text)
        first = Counter(compiles)
        assert first and set(first.values()) == {1}
        # only what the workload reached was compiled
        assert len(first) < len(functions(closure.rule_fns))
        for text in queries:
            parser.accepts(text)
        assert Counter(compiles) == first

    def test_racing_threads_compile_each_function_once(self, full, compiles):
        product, program = full
        queries = generate_workload("full", 60, seed=5)
        reference = product.parser(hints=False, program=program)
        expected = [outcome(reference, text) for text in queries]

        parser = ClosureParser(product.grammar, ClosureProgram(program))
        barrier = threading.Barrier(THREADS)
        results, errors = [None] * THREADS, []

        def run(slot):
            try:
                barrier.wait()
                results[slot] = [outcome(parser, text) for text in queries]
            except Exception as error:  # pragma: no cover - the assertion
                errors.append(error)

        threads = [
            threading.Thread(target=run, args=(slot,))
            for slot in range(THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-compile, mid-swap
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert all(result == expected for result in results)
        assert compiles and set(Counter(compiles).values()) == {1}

    def test_tables_keep_their_objects_and_lose_the_trampoline(self, full):
        product, program = full
        closure = ClosureProgram(program)
        rules = closure.rule_fns
        before = functions(rules)
        tuples = helper_tuples(closure)
        assert tuples
        assert all(fn.__code__ is STUB for fn in before.values())

        parser = ClosureParser(product.grammar, closure)
        parser.parse(DDL)

        assert closure.rule_fns is rules
        after = functions(rules)
        assert after.keys() == before.keys()
        assert all(after[name] is fn for name, fn in before.items())
        for name, table in helper_tuples(closure).items():
            assert all(a is b for a, b in zip(table, tuples[name]))
        compiled = {
            name for name, fn in before.items() if fn.__code__ is not STUB
        }
        assert compiled
        assert any(
            fn.__name__ in compiled
            for table in tuples.values() for fn in table
        )
        for name, fn in before.items():
            if name in compiled:
                assert fn.__code__.co_name == name
                assert fn.__defaults__ is None
            else:
                assert fn.__defaults__ is not None

        # the same parse again enters no stub: every reference the first
        # call went through now runs the compiled code directly
        entered = []

        def profile(frame, event, _arg):
            if event == "call":
                entered.append(frame.f_code)

        sys.setprofile(profile)
        try:
            parser.parse(DDL)
        finally:
            sys.setprofile(None)
        assert STUB not in entered
        assert {code.co_name for code in entered} & compiled

    def test_counting_call_compiles_nothing(self, core, compiles):
        """A coverage-counting call walks the interpreter's ``_exec``
        from start to end: no lowered function compiles, and the counts
        are the interpreter's own."""
        product, program = core
        closure = ClosureProgram(program)
        parser = ClosureParser(product.grammar, closure)
        cmap = CoverageMap(program)
        collector = cmap.collector()
        assert parser.parse_with_diagnostics(QUERY, coverage=collector).ok
        assert compiles == []
        assert all(
            fn.__code__ is STUB for fn in functions(closure.rule_fns).values()
        )

        reference = cmap.collector()
        product.parser(hints=False, program=program).parse_with_diagnostics(
            QUERY, coverage=reference
        )
        assert sum(reference.rules) > 0
        assert collector.rules == reference.rules
        assert collector.alts == reference.alts
        assert collector.taken == reference.taken
        assert collector.skipped == reference.skipped


@pytest.mark.parametrize("dialect", dialect_names())
def test_first_ever_deep_parse_trips_like_a_warm_one(dialect):
    """The first call of a rule may come at the deepest activation; the
    compile it triggers must not change how the depth limit trips."""
    product = build_dialect(dialect)

    def error_of(parser, text):
        with pytest.raises(ParseBudgetExceeded) as excinfo:
            parser.parse(text)
        error = excinfo.value
        return str(error), error.line, error.column, error.expected

    warm = RegistryEntry(product, ServiceMetrics()).compiled_parser()
    for text in DEEP:
        error_of(warm, text)
    for text in DEEP:
        fresh = RegistryEntry(product, ServiceMetrics()).compiled_parser()
        assert error_of(fresh, text) == error_of(warm, text)


def test_compile_failure_degrades_one_request_and_is_retried(monkeypatch):
    line = GrammarProductLine(mini_model(), mini_units(), name="mini-sql")
    registry = ParserRegistry(line)
    service = ParseService(registry=registry)
    features, text = ["Query", "Where"], "SELECT a FROM t WHERE x = y"
    failed, compiled = [], []
    real = compile

    def flaky(source, filename, mode):
        name = source[len("def "):source.index("(")]
        if not failed:
            failed.append(name)
            raise SyntaxError("injected compile failure")
        compiled.append(name)
        return real(source, filename, mode)

    monkeypatch.setattr(closures, "compile", flaky, raising=False)
    reference = registry.get(features).parser().parse(text).to_sexpr()

    result = service.parse(text, features)
    assert result.ok and result.degraded == ("backend",)
    assert result.tree.to_sexpr() == reference
    assert failed[0] not in compiled
    snap = service.metrics.snapshot()
    assert snap["counters"]["degraded_backend"] == 1
    assert snap["latency"]["parse_interpreter"]["count"] == 1

    again = service.parse(text, features)
    assert again.ok and again.degraded == ()
    assert again.tree.to_sexpr() == reference
    assert failed[0] in compiled  # still pending, so this call compiled it

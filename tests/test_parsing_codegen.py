"""Tests for standalone parser source generation.

The key property: the generated parser and the interpreting parser accept
exactly the same language and produce structurally identical trees.
"""

import builtins
import dis
import inspect
import os
import re
import subprocess
import sys
from types import CodeType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.grammar import read_grammar
from repro.lexer import (
    TokenSet,
    keyword,
    literal,
    pattern,
    standard_skip_tokens,
)
from repro.parsing import (
    Parser,
    generate_parser_source,
    load_generated_parser,
)
from repro.parsing.codegen import _EMBEDDED

from repro.errors import GrammarError, ScanError
from repro.sql import build_dialect, dialect_names
from repro.workloads import generate_workload

from tests.test_parsing_coverage import under
from tests.test_parsing_parser import TINY_SQL, tiny_tokens


@pytest.fixture(scope="module")
def generated():
    grammar = read_grammar(TINY_SQL, tokens=tiny_tokens())
    return load_generated_parser(generate_parser_source(grammar))


@pytest.fixture(scope="module")
def interpreter():
    return Parser(read_grammar(TINY_SQL, tokens=tiny_tokens()))


ACCEPTED = [
    "SELECT a FROM t",
    "SELECT * FROM t",
    "SELECT DISTINCT a, b FROM t WHERE x = 1",
    "select all a from t",
    "SELECT a FROM t WHERE x = y",
]

REJECTED = [
    "SELECT FROM t",
    "SELECT a",
    "SELECT a FROM t WHERE",
    "SELECT a, FROM t",
    "FROM t SELECT a",
    "",
]


class TestGeneratedParser:
    @pytest.mark.parametrize("text", ACCEPTED)
    def test_accepts(self, generated, text):
        assert generated.accepts(text)

    @pytest.mark.parametrize("text", REJECTED)
    def test_rejects(self, generated, text):
        assert not generated.accepts(text)

    @pytest.mark.parametrize("text", ACCEPTED)
    def test_tree_matches_interpreter(self, generated, interpreter, text):
        assert (
            generated.parse(text).to_sexpr()
            == interpreter.parse(text).to_sexpr()
        )

    def test_error_carries_position(self, generated):
        with pytest.raises(generated.ParseError) as exc:
            generated.parse("SELECT a WHERE")
        assert exc.value.line == 1
        assert exc.value.expected

    def test_start_override(self, generated):
        node = generated.parse("x = 1", start="condition")
        assert node.name == "condition"

    def test_source_is_self_contained(self, tmp_path):
        grammar = read_grammar(TINY_SQL, tokens=tiny_tokens())
        source = generate_parser_source(grammar)
        assert "import re" in source
        # no repro imports: the module must run anywhere
        assert "repro" not in source.replace("repro.parsing.codegen", "")
        # ... and it does: -I ignores PYTHONPATH, the cwd and user site
        (tmp_path / "tiny_parser.py").write_text(source)
        check = (
            "import runpy, sys\n"
            "ns = runpy.run_path('tiny_parser.py')\n"
            "assert ns['accepts']('SELECT a FROM t WHERE x = 1')\n"
            "assert not ns['accepts']('SELECT a FROM')\n"
            "assert 'repro' not in sys.modules\n"
        )
        done = subprocess.run(
            [sys.executable, "-I", "-c", check],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr


class TestGeneratedEdgeCases:
    def test_separated_list_backoff(self):
        tokens = TokenSet(
            "t",
            standard_skip_tokens()
            + [literal("COMMA", ","), literal("X", "x"), literal("END", ".")],
        )
        g = read_grammar("a : item (COMMA item)* COMMA END ;\nitem : X ;", tokens=tokens)
        mod = load_generated_parser(generate_parser_source(g))
        assert mod.accepts("x , x , .")
        assert mod.accepts("x , .")

    def test_keywords_case_insensitive(self):
        tokens = TokenSet(
            "t",
            standard_skip_tokens()
            + [keyword("go"), pattern("IDENTIFIER", r"[A-Za-z]+", priority=1)],
        )
        g = read_grammar("a : GO IDENTIFIER ;", tokens=tokens)
        mod = load_generated_parser(generate_parser_source(g))
        assert mod.accepts("GO north")
        assert mod.accepts("go north")
        assert not mod.accepts("stop north")

    def test_plus_min_enforced(self):
        tokens = TokenSet("t", standard_skip_tokens() + [literal("X", "x")])
        g = read_grammar("a : X+ ;", tokens=tokens)
        mod = load_generated_parser(generate_parser_source(g))
        assert not mod.accepts("")
        assert mod.accepts("x x")

    def test_scan_error_is_parse_error_subclass(self):
        tokens = TokenSet("t", standard_skip_tokens() + [literal("X", "x")])
        g = read_grammar("a : X ;", tokens=tokens)
        mod = load_generated_parser(generate_parser_source(g))
        with pytest.raises(mod.ParseError):
            mod.parse("@")


class TestExportScanner:
    """The export's inline scanner reads text as the served scanner does.

    It embeds the fast pattern (one match per token, positions from
    offsets) and keeps the master-pattern loop for the precise error.
    """

    SCRIPT = (
        "SELECT a, -- the first key\n"
        "  b /* a comment\n  over two lines */ FROM t\n"
        "\n"
        "WHERE a = 'x'; -- trailing\n"
        "SELECT c FROM u /* last */"
    )

    @pytest.fixture(scope="class", params=dialect_names())
    def pair(self, request):
        product = build_dialect(request.param)
        source = generate_parser_source(product.grammar, program=product.program())
        return request.param, product.parser().scanner, load_generated_parser(source)

    @staticmethod
    def fields(tokens):
        return [(t.type, t.text, t.line, t.column, t.offset) for t in tokens]

    def test_tokens_match_the_served_scanner(self, pair):
        dialect, scanner, module = pair
        texts = generate_workload(dialect, 40, seed=3) + generate_workload(
            dialect, 20, seed=3, mode="coverage"
        )
        for text in texts + [self.SCRIPT, "", " \n\t "]:
            assert self.fields(module._scan(text)) == self.fields(
                scanner.scan(text)
            ), text

    @pytest.mark.parametrize(
        "text", ["SELECT a\n  FROM t WHERE @ = 1", "SELECT a /* x\n */ `", "\n\n  #"]
    )
    def test_unmatchable_character_raises_at_the_same_place(self, pair, text):
        _, scanner, module = pair
        with pytest.raises(ScanError) as served:
            scanner.scan(text)
        with pytest.raises(module.ScanError) as exported:
            module.parse(text)
        assert (exported.value.line, exported.value.column) == (
            served.value.line,
            served.value.column,
        )


def _export(dialect):
    product = build_dialect(dialect)
    source = generate_parser_source(product.grammar, program=product.program())
    return product, source


class TestEmbeddedRuntime:
    """The export's runtime is the served one: each embedded object's
    source appears verbatim and is defined once, and every name a
    function of the export reads is defined there."""

    @pytest.fixture(scope="class", params=dialect_names())
    def export(self, request):
        return _export(request.param)[1]

    def test_served_source_is_embedded_verbatim_once(self, export):
        embedded = [
            name for name, value in _EMBEDDED.items()
            if getattr(value, "__name__", None) == name
        ]
        assert {"Token", "Node", "RunState", "fast_scan"} <= set(embedded)
        for name in embedded:
            assert inspect.getsource(_EMBEDDED[name]) in export, name
            assert len(re.findall(rf"^(?:class|def) {name}\b", export, re.M)) == 1

    def test_every_global_a_function_reads_is_defined(self, export):
        module = load_generated_parser(export)
        code = compile(export, "<export>", "exec")
        stack, read = [code], set()
        while stack:
            current = stack.pop()
            stack.extend(c for c in current.co_consts if isinstance(c, CodeType))
            read.update(
                op.argval for op in dis.get_instructions(current)
                if op.opname == "LOAD_GLOBAL"
            )
        assert {"ScanError", "ParseBudgetExceeded", "Token"} <= read
        assert read - set(vars(module)) - set(vars(builtins)) == set()


class TestExportUnknownStartRule:
    """An unknown ``start=`` raises the export's own GrammarError with
    the served message, from ``parse`` and ``accepts`` alike."""

    @pytest.mark.parametrize("dialect", dialect_names())
    def test_raises_the_served_error(self, dialect):
        product, source = _export(dialect)
        module = load_generated_parser(source)
        with pytest.raises(GrammarError) as served:
            product.parser().parse("SELECT a FROM t", start="no_such_rule")
        for call in (module.parse, module.accepts):
            with pytest.raises(module.GrammarError) as exported:
                call("SELECT a FROM t", start="no_such_rule")
            assert str(exported.value) == str(served.value)


#: Text the scanners must agree on: ASCII, line breaks, comment and quote
#: openers and closers, and a few characters no token matches.
_SCAN_TEXT = st.lists(
    st.one_of(
        st.text(st.characters(max_codepoint=127), max_size=4),
        st.sampled_from(
            ["\n", "\r\n", "--", "/*", "*/", "'", "''", '"', "`", "e1",
             "SELECT", "from", "\u00e9", "\u00a0", "\u4e2d", "\U0001f600"]
        ),
    ),
    max_size=12,
).map("".join)


class TestExportScansAsServed:
    """Over arbitrary text the export's ``_scan`` returns the served
    scanner's tokens, or raises its ScanError at the same place."""

    @pytest.fixture(scope="class", params=["core", "full"])
    def pair(self, request):
        product, source = _export(request.param)
        return product.parser().scanner, load_generated_parser(source)

    @staticmethod
    def outcome(scan, error, text):
        try:
            return [(t.type, t.text, t.line, t.column, t.offset) for t in scan(text)]
        except error as exc:
            return (str(exc), exc.line, exc.column)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(text=_SCAN_TEXT)
    def test_same_tokens_or_same_scan_error(self, pair, text):
        scanner, module = pair
        assert self.outcome(module._scan, module.ScanError, text) == (
            self.outcome(scanner.scan, ScanError, text)
        )


# the directory holding the repro package under test
_SRC = os.path.dirname(os.path.dirname(repro.__file__))

_DIGESTS = """
import hashlib
from repro.parsing import generate_parser_source
from repro.sql import build_dialect
for name in ("core", "full"):
    product = build_dialect(name)
    source = generate_parser_source(product.grammar, program=product.program())
    print(name, hashlib.sha256(source.encode()).hexdigest())
"""


def test_generated_source_does_not_depend_on_the_hash_seed():
    # dispatch tables are dicts over terminal sets: their iteration order
    # follows the hash seed, the emitted source must not
    def digests(seed):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=_SRC)
        done = subprocess.run(
            [sys.executable, "-c", _DIGESTS],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()

    first = digests("0")
    assert len(first) == 2
    assert first == digests("1")


def _stack_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def at_depth(depth, call):
    """``call()`` made with ``depth`` frames on the stack below it."""
    return under(depth - _stack_depth() - 2, call)


class TestExportUnderADeepCaller:
    """Under a caller holding 960 frames, Python's stack runs out before
    the export's 200-activation depth limit does: ``parse`` raises the
    export's own ParseError at the cursor, worded as the served parsers
    word it, and ``accepts`` answers False.  RecursionError never gets
    out."""

    NESTED = "SELECT " + "(" * 40 + "a" + ")" * 40 + " FROM t"

    @pytest.fixture(scope="class")
    def module(self):
        product = build_dialect("full")
        return load_generated_parser(
            generate_parser_source(product.grammar, program=product.program())
        )

    def test_stack_exhaustion_is_a_parse_error(self, module):
        assert sys.getrecursionlimit() == 1000

        def parse():
            with pytest.raises(module.ParseError) as excinfo:
                module.parse(self.NESTED)
            return excinfo.value

        error = at_depth(960, parse)
        assert str(error).startswith(
            "parser stack exhausted before the depth limit of 200 "
            "(input nested too deeply near"
        )
        assert at_depth(960, lambda: module.accepts(self.NESTED)) is False
        # from a shallow caller the depth limit itself answers
        with pytest.raises(module.ParseError, match="depth limit of 200 exceeded"):
            module.parse(self.NESTED)

"""Standalone parser source generation — the reproduction's ANTLR analogue.

The paper feeds each composed LL(k) grammar to ANTLR and ships what it
outputs.  :func:`generate_parser_source` plays that role here (``repro
compose --emit`` writes its output), and it is the generator the parse
service already runs: the module body is the closure lowering of
:mod:`repro.parsing.closures` — one function per rule of the product's
:class:`~repro.parsing.program.ParseProgram` — so the exported parser
is the code the differential and conformance suites check, not a second
encoding of the LL decision procedure.

Only the header differs.  Where the served backend binds its runtime
from ``repro`` in memory, the export inlines one that needs nothing
beyond ``re``: token and tree classes, ``ParseError``/``ScanError``, the
parse-state registers the lowering reads, the scanner, and
``parse``/``accepts``.
Like the served backends it stops input nested deeper than 200 rule
activations with a ``ParseError``; unlike them it has no fuel budget or
deadline.

Typical use::

    source = generate_parser_source(grammar)
    module = load_generated_parser(source)
    tree = module.parse("SELECT a FROM t")
"""

from __future__ import annotations

import types

from ..grammar.grammar import Grammar
from ..lexer.spec import compile_fast_pattern, compile_master_pattern
from .closures import _Lowering
from .first_follow import GrammarAnalysis
from .parser import DEFAULT_MAX_DEPTH
from .program import ParseProgram, compile_program

#: Module-level constant the export embeds: the fingerprint of the
#: product it was generated for.
FINGERPRINT_CONSTANT = "_FINGERPRINT"


def source_fingerprint(source: str) -> str | None:
    """The fingerprint digest embedded in generated source, if any.

    A cheap line scan for the ``_FINGERPRINT = "…"`` line near the top,
    so a caller identifies an export without exec'ing it.
    """
    prefix = f"{FINGERPRINT_CONSTANT} = "
    for line in source.splitlines():
        if line.startswith(prefix):
            value = line[len(prefix):].strip()
            if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
                return value[1:-1]
            return None
    return None


_RUNTIME = '''
import re

EOF = "EOF"


class Token:
    __slots__ = ("type", "text", "line", "column", "offset")

    def __init__(self, type, text, line, column, offset):
        self.type = type
        self.text = text
        self.line = line
        self.column = column
        self.offset = offset

    def __repr__(self):
        return "%s(%r@%d:%d)" % (self.type, self.text, self.line, self.column)


class Node(list):
    """A rule name over its children; the node is its own child list."""

    __slots__ = ("name",)

    @property
    def children(self):
        return self

    def __bool__(self):
        return True

    def __eq__(self, other):
        return (
            isinstance(other, Node)
            and self.name == other.name
            and list.__eq__(self, other)
        )

    def __ne__(self, other):
        return not self.__eq__(other)

    def __repr__(self):
        return "<Node %s with %d children>" % (self.name, len(self))

    def to_sexpr(self):
        parts = [self.name]
        for c in self:
            parts.append(c.to_sexpr() if isinstance(c, Node) else (c.text or c.type))
        return "(" + " ".join(parts) + ")"


class ParseError(SyntaxError):
    def __init__(self, message, line, column, expected):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column
        self.expected = expected


class ScanError(ParseError):
    pass


class _Fail(Exception):
    __slots__ = ()


class _State:
    """The registers of one parse call (the ``s`` of every rule function;
    each rule function takes its depth as an argument)."""

    __slots__ = ("tokens", "i", "fi", "fexp", "steps", "limit", "max_depth")

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.fi = 0
        self.fexp = set()
        self.steps = 0
        self.limit = 1 << 62
        self.max_depth = _MAX_DEPTH


def _fail(s, expected):
    i = s.i
    if i > s.fi:
        s.fi = i
        s.fexp = set(expected)
    elif i == s.fi:
        s.fexp |= expected
    raise _Fail()


def _check(s, st):
    """Never reached: the export has no fuel budget or deadline."""


def _depth_fail(s):
    t = s.tokens[s.i]
    raise ParseError(
        "parser recursion depth limit of %d exceeded "
        "(input nested too deeply near %s)" % (s.max_depth, t.type),
        t.line,
        t.column,
        frozenset(),
    )


def _scan(text):
    """One fast-pattern match per token, positions taken from offsets."""
    tokens = []
    append = tokens.append
    n = len(text)
    multiline = "\\n" in text
    line = 1
    line_start = 0  # offset of the first character of ``line``
    counted = 0  # the newlines before this offset are in ``line``
    start = -1
    for m in _FAST.finditer(text):
        name = m.lastgroup
        start, end = m.span(name)
        if multiline:
            newlines = text.count("\\n", counted, start)
            if newlines:
                line += newlines
                line_start = text.rfind("\\n", counted, start) + 1
            counted = start
        if start == end:  # a sentinel, or a zero-width token
            break
        lexeme = text[start:end]
        if name in _IDENT_RULES:
            name = _KEYWORDS.get(lexeme.upper(), name)
        append(Token(name, lexeme, line, start - line_start + 1, start))
    if start != n:
        # an unmatchable character or a zero-width token: the precise
        # loop owns the error
        return _scan_precise(text)
    append(Token(EOF, "", line, n - line_start + 1, n))
    if _STRAY:
        return [t for t in tokens if t.type not in _STRAY]
    return tokens


def _scan_precise(text):
    """The master-pattern loop for text ``_scan`` cannot finish: it raises
    the ScanError at the exact line and column."""
    tokens = []
    pos, line, col = 0, 1, 1
    n = len(text)
    while pos < n:
        m = _MASTER.match(text, pos)
        if m is None or m.end() == pos:
            raise ScanError("unexpected character %r" % text[pos], line, col, frozenset())
        name = m.lastgroup
        lexeme = m.group()
        if name not in _SKIP:
            ttype = name
            if name in _IDENT_RULES:
                ttype = _KEYWORDS.get(lexeme.upper(), name)
            tokens.append(Token(ttype, lexeme, line, col, pos))
        nl = lexeme.count("\\n")
        if nl:
            line += nl
            col = len(lexeme) - lexeme.rfind("\\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token(EOF, "", line, col, pos))
    return tokens


def parse(text, start=None):
    s = _State(_scan(text))
    name = start or _START
    out = []
    try:
        RULES[_RULE_IDS[name]](s, out, 0)
        if s.tokens[s.i].type != EOF:
            _fail(s, frozenset((EOF,)))
    except _Fail:
        t = s.tokens[min(s.fi, len(s.tokens) - 1)]
        found = "end of input" if t.type == EOF else repr(t.text)
        raise ParseError(
            "syntax error: found %s, expected one of: %s"
            % (found, ", ".join(sorted(s.fexp))),
            t.line,
            t.column,
            frozenset(s.fexp),
        ) from None
    except RecursionError:
        # a deep caller: Python's stack ran out before the depth limit
        t = s.tokens[min(s.i, len(s.tokens) - 1)]
        raise ParseError(
            "parser stack exhausted before the depth limit of %d "
            "(input nested too deeply near %s)" % (s.max_depth, t.type),
            t.line,
            t.column,
            frozenset(),
        ) from None
    if out[0].name != name:
        # the root stays the start rule's node even when its activation
        # passed its only child through
        root = Node(out)
        root.name = name
        return root
    return out[0]


def accepts(text, start=None):
    try:
        parse(text, start=start)
    except ParseError:
        return False
    return True


_Node = Node
_new = list.__new__
'''


def generate_parser_source(
    grammar: Grammar,
    analysis: GrammarAnalysis | None = None,
    fingerprint: str | None = None,
    program: ParseProgram | None = None,
) -> str:
    """The standalone parser module for ``grammar``, as source text.

    ``analysis``/``program`` let a caller that already compiled the
    product (the registry) skip recomputation; ``fingerprint`` (default:
    the program's) is embedded as the ``_FINGERPRINT`` line.
    """
    if program is None:
        program = compile_program(
            grammar, analysis=analysis, fingerprint=fingerprint
        )
    if fingerprint is None:
        fingerprint = program.fingerprint
    tokens = grammar.tokens
    fast, stray = compile_fast_pattern(tokens)
    rule_ids = ", ".join(
        f"{name!r}: {rid}" for rid, name in enumerate(program.rule_names)
    )
    head = [
        f'"""Parser for grammar {program.grammar_name!r} '
        f"({len(program.rule_names)} rules).",
        "",
        "Generated by repro.parsing.codegen; do not edit.",
        '"""',
    ]
    if fingerprint is not None:
        head += ["", f'{FINGERPRINT_CONSTANT} = "{fingerprint}"']
    head += [
        _RUNTIME,
        f"_FAST = re.compile({fast.pattern!r})",
        f"_STRAY = frozenset({sorted(stray)!r})",
        f"_MASTER = re.compile({compile_master_pattern(tokens).pattern!r})",
        f"_SKIP = frozenset({sorted(d.name for d in tokens if d.skip)!r})",
        f"_KEYWORDS = {tokens.keywords!r}",
        # a stray skip match keeps its name, so it is never promoted
        f"_IDENT_RULES = {tuple(r for r in ('IDENTIFIER',) if r not in stray)!r}",
        f"_MAX_DEPTH = {DEFAULT_MAX_DEPTH}",
        f"_START = {program.start_name()!r}",
        f"_RULE_IDS = {{{rule_ids}}}",
        "",
        _Lowering(program).body(),
    ]
    return "\n".join(head)


def load_generated_parser(source: str, module_name: str = "generated_parser"):
    """Execute generated parser source and return it as a module object."""
    module = types.ModuleType(module_name)
    exec(compile(source, f"<{module_name}>", "exec"), module.__dict__)
    return module

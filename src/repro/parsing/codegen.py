"""Standalone parser source generation — the reproduction's ANTLR analogue.

The paper feeds each composed LL(k) grammar to ANTLR and ships what it
outputs.  :func:`generate_parser_source` plays that role here (``repro
compose --emit`` writes its output), and it is the generator the parse
service already runs: the module body is the closure lowering of
:mod:`repro.parsing.closures` — one function per rule of the product's
:class:`~repro.parsing.program.ParseProgram` — so the exported parser
is the code the differential and conformance suites check, not a second
encoding of the LL decision procedure.

The runtime is the served one too.  Where the served backend binds its
runtime from ``repro`` in memory, the export writes the source of the
same objects (:data:`_EMBEDDED`, read with :func:`inspect.getsource`):
``Token``, ``Node``, the scanner's fast and precise loops, ``RunState``
and the failure, depth and stack-exhaustion paths.  Its own text is only
what the export alone needs: ``ParseError``/``ScanError``, the
``ParseBudgetExceeded`` the depth paths raise, the ``GrammarError`` an
unknown start rule raises (with the served message; ``accepts`` lets it
out, as the served one does), the grammar's scanner tables, ``_scan``,
``parse`` and ``accepts``.  It imports nothing but
``re``, and its annotations are never evaluated.
Like the served backends it stops input nested deeper than 200 rule
activations with a ``ParseBudgetExceeded``; unlike them it has no fuel
budget or deadline.

Typical use::

    source = generate_parser_source(grammar)
    module = load_generated_parser(source)
    tree = module.parse("SELECT a FROM t")
"""

from __future__ import annotations

import inspect
import types
from functools import cache
from typing import Any

from ..grammar.grammar import Grammar
from ..lexer.scanner import (
    IDENTIFIER_RULES,
    Scanner,
    _advance,
    fast_scan,
    precise_tokens,
)
from ..lexer.token import EOF, ERROR, Token, eof_token
from .closures import _RUNTIME, _Lowering
from .parser import (
    _MAXSTEPS,
    DEADLINE_CHECK_INTERVAL,
    DEFAULT_MAX_DEPTH,
    RunState,
    _stack_exhausted,
)
from .program import ParseProgram, compile_program
from .tree import Node

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


#: The served runtime the export defines, by name, in definition order:
#: the lowering's own runtime (:data:`~repro.parsing.closures._RUNTIME`)
#: and what it, ``_scan`` and ``parse`` read in turn.  A constant is
#: written as its value, an alias as its target, anything else as its
#: source.
_EMBEDDED: dict[str, Any] = {
    "EOF": EOF,
    "ERROR": ERROR,
    "IDENTIFIER_RULES": IDENTIFIER_RULES,
    "DEFAULT_MAX_DEPTH": DEFAULT_MAX_DEPTH,
    "DEADLINE_CHECK_INTERVAL": DEADLINE_CHECK_INTERVAL,
    "_MAXSTEPS": _MAXSTEPS,
    "Token": Token,
    "eof_token": eof_token,
    "_advance": _advance,
    "fast_scan": fast_scan,
    "precise_tokens": precise_tokens,
    "Node": Node,
    "RunState": RunState,
    "_stack_exhausted": _stack_exhausted,
    **_RUNTIME,
}

# The export's own definitions, under the names the embedded objects
# and the entry points read: its exception types and the Child alias.
_PRELUDE = '''
import re


class ParseError(SyntaxError):
    def __init__(self, message, line=0, column=0, expected=frozenset()):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column
        self.expected = expected


class ScanError(ParseError):
    pass


class ParseBudgetExceeded(ParseError):
    """Input nested past the depth limit, or past Python's stack."""

    def __init__(self, message, line=0, column=0, steps=0):
        super().__init__(message, line, column)
        self.steps = steps


class GrammarError(Exception):
    """A start rule the grammar does not define."""


# _check names it, but the export sets no deadline: never raised
ParseDeadlineExceeded = ParseBudgetExceeded
# Node's base is list[Child]
Child = object
'''

_ENTRY_POINTS = '''
def _scan(text):
    """The served scanner's scan: the fast loop, else the precise one."""
    return fast_scan(
        text, _FAST, _KINDS, _KEYWORDS, _IDENT_RULES, _STRAY
    ) or list(precise_tokens(text, _MASTER, _KEYWORDS, _SKIP))


def parse(text, start=None):
    s = RunState(_scan(text))
    name = start or _START
    if name not in _RULE_IDS:
        raise GrammarError("grammar %r has no rule %r" % (_GRAMMAR, name))
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
        raise _stack_exhausted(s) from None
    if out[0].name != name:
        # the root stays the start rule's node even when its activation
        # passed its only child through
        return Node(name, out)
    return out[0]


def accepts(text, start=None):
    try:
        parse(text, start=start)
    except ParseError:
        return False
    return True
'''


@cache
def _runtime() -> str:
    """:data:`_EMBEDDED` as module text."""
    parts = []
    for name, value in _EMBEDDED.items():
        if isinstance(value, (int, str, tuple)):
            parts.append(f"{name} = {value!r}\n")
        elif value.__name__ != name:
            parts.append(f"{name} = {value.__qualname__}\n")
        else:
            parts.append(f"\n{inspect.getsource(value)}\n")
    return "".join(parts)


def generate_parser_source(
    grammar: Grammar,
    fingerprint: str | None = None,
    program: ParseProgram | None = None,
) -> str:
    """The standalone parser module for ``grammar``, as source text.

    ``program`` lets a caller that already compiled the product (the
    registry) skip recompiling it; ``fingerprint`` (default: the
    program's) is embedded as the ``_FINGERPRINT`` line.
    """
    if program is None:
        program = compile_program(grammar, fingerprint=fingerprint)
    if fingerprint is None:
        fingerprint = program.fingerprint
    scanner = Scanner(grammar.tokens)
    rule_ids = ", ".join(
        f"{name!r}: {rid}" for rid, name in enumerate(program.rule_names)
    )
    head = [
        f'"""Parser for grammar {program.grammar_name!r} '
        f"({len(program.rule_names)} rules).",
        "",
        "Generated by repro.parsing.codegen; do not edit.",
        '"""',
        "",
        "from __future__ import annotations",
    ]
    if fingerprint is not None:
        head += ["", f'{FINGERPRINT_CONSTANT} = "{fingerprint}"']
    head += [
        _PRELUDE,
        _runtime(),
        f"_FAST = re.compile({scanner._fast.pattern!r})",
        f"_KINDS = {scanner._fast_kinds!r}",
        f"_STRAY = frozenset({sorted(scanner._stray_skips)!r})",
        f"_MASTER = re.compile({scanner._master.pattern!r})",
        f"_SKIP = frozenset({sorted(scanner._skip_names)!r})",
        f"_KEYWORDS = {scanner._keywords!r}",
        f"_IDENT_RULES = {scanner._fast_id_rules!r}",
        f"_GRAMMAR = {program.grammar_name!r}",
        f"_START = {program.start_name()!r}",
        f"_RULE_IDS = {{{rule_ids}}}",
        "",
        _ENTRY_POINTS,
        _Lowering(program).body(),
    ]
    return "\n".join(head)


def load_generated_parser(source: str, module_name: str = "generated_parser"):
    """Execute generated parser source and return it as a module object."""
    module = types.ModuleType(module_name)
    exec(compile(source, f"<{module_name}>", "exec"), module.__dict__)
    return module

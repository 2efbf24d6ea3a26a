"""Longest-match scanner driven by a composable :class:`TokenSet`.

The scanner is the "separate scanner" the paper argues is sufficient for
decomposing a single language (in contrast to MetaBorg's scannerless
approach): every composed dialect gets its own scanner whose keyword table
contains exactly the keywords its features contributed.

One class serves every parse backend.  :meth:`Scanner.scan` and
:meth:`Scanner.scan_with_diagnostics` run the fast loop
(:func:`fast_scan`) over the fast pattern's ``finditer``, one match per
token; any input that loop cannot finish (an unmatchable character, a
zero-width token) is rescanned by the precise loop
(:func:`precise_tokens`, behind :meth:`Scanner.tokens`) over the master
pattern, which owns every error message and the recovery path.  The
loops are module functions over the compiled patterns and the keyword
table, so the ``compose --emit`` export writes their source and scans
with the code the service runs.
"""

from __future__ import annotations

import re
from typing import Iterator, Mapping

from ..diagnostics.model import SCAN_ERROR, Diagnostic, Severity, Span
from ..errors import ScanError
from .spec import TokenSet, compile_fast_pattern, compile_master_pattern
from .token import ERROR, Token, eof_token

#: Scanner rules whose matches are promoted to keyword terminals.
IDENTIFIER_RULES = ("IDENTIFIER",)


class Scanner:
    """Tokenizes source text according to one token set.

    Keywords are recognized case-insensitively: any token whose matching
    rule is named ``IDENTIFIER`` is promoted to its keyword terminal when
    its upper-cased text is in the token set's keyword table.
    """

    def __init__(self, token_set: TokenSet) -> None:
        self.token_set = token_set
        self._master = compile_master_pattern(token_set)
        self._keywords = token_set.keywords
        self._skip_names = frozenset(d.name for d in token_set if d.skip)
        self._fast, self._fast_kinds, self._stray_skips = compile_fast_pattern(
            token_set
        )
        # a stray skip match keeps its name, so dropping by type is exact
        self._fast_id_rules = tuple(
            r for r in IDENTIFIER_RULES if r not in self._stray_skips
        )

    def tokens(self, text: str, recover: bool = False) -> Iterator[Token]:
        """Yield tokens for ``text``, ending with a single EOF token.

        This is the precise loop (:func:`precise_tokens`) over this
        scanner's tables: :meth:`scan` and :meth:`scan_with_diagnostics`
        fall back to it for input their fast loop cannot finish.

        Raises:
            ScanError: when no token matches and ``recover`` is False.
        """
        return precise_tokens(
            text, self._master, self._keywords, self._skip_names, recover
        )

    def scan(self, text: str) -> list[Token]:
        """Tokenize the full input eagerly (EOF token included).

        Raises:
            ScanError: on the first unmatchable character.
        """
        # the precise loop re-runs only to raise its ScanError
        return self._fast_scan(text) or list(self.tokens(text))

    def scan_with_diagnostics(
        self, text: str
    ) -> tuple[list[Token], list[Diagnostic]]:
        """Tokenize in recovery mode: never raises on bad input.

        Returns the token list (ERROR tokens included, EOF terminated)
        plus one diagnostic per run of unmatchable characters.
        """
        tokens = self._fast_scan(text)
        if tokens is not None:
            return tokens, []
        tokens = list(self.tokens(text, recover=True))
        diagnostics = [
            Diagnostic(
                message=_describe_bad_run(token.text),
                span=Span.of_token(token),
                severity=Severity.ERROR,
                code=SCAN_ERROR,
            )
            for token in tokens
            if token.type == ERROR
        ]
        return tokens, diagnostics

    def _fast_scan(self, text: str) -> list[Token] | None:
        """The fast loop (:func:`fast_scan`) over this scanner's tables."""
        return fast_scan(
            text, self._fast, self._fast_kinds, self._keywords,
            self._fast_id_rules, self._stray_skips,
        )


def fast_scan(
    text: str,
    pattern: re.Pattern[str],
    kinds: tuple[str | None, ...],
    keywords: Mapping[str, str],
    id_rules: tuple[str, ...],
    stray: frozenset[str],
) -> list[Token] | None:
    """The precise loop's tokens for clean input, or ``None`` on any gap.

    One match of the fast ``pattern`` per token: the skip run before a
    token is the match's group 1, so the token starts at ``m.end(1)``,
    and ``kinds[m.lastindex]`` names it.  The sentinels make each match
    start where the previous one ended.  A text without ``"\\n"`` puts
    every token on line 1 at column ``offset + 1``; otherwise the
    newlines since the previous token's start are counted with one
    ``str.count``.  An ``id_rules`` match is promoted to its keyword,
    and a match of a ``stray`` skip token is dropped.  An unmatchable
    character (the any-character sentinel, whose kind is ``None``) or a
    zero-width token returns ``None``; the end sentinel is zero-width
    too, and ends the scan.
    """
    kw_get = keywords.get
    n = len(text)
    multiline = "\n" in text
    line = 1
    line_start = 0  # offset of the first character of ``line``
    counted = 0  # the newlines before this offset are in ``line``
    start = -1
    out: list[Token] = []
    append = out.append
    for m in pattern.finditer(text):
        start = m.end(1)
        end = m.end()
        if multiline:
            newlines = text.count("\n", counted, start)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", counted, start) + 1
            counted = start
        if start == end:  # the end sentinel, or a zero-width token
            break
        name = kinds[m.lastindex or 0]
        if name is None:  # the any-character sentinel
            return None
        lexeme = text[start:end]
        if name in id_rules:
            name = kw_get(lexeme.upper(), name)
        append(Token(name, lexeme, line, start - line_start + 1, start))
    if start != n:
        return None
    append(eof_token(line, n - line_start + 1, n))
    if stray:
        return [t for t in out if t.type not in stray]
    return out


def precise_tokens(
    text: str,
    pattern: re.Pattern[str],
    keywords: Mapping[str, str],
    skip: frozenset[str],
    recover: bool = False,
) -> Iterator[Token]:
    """The precise loop: one match of the master ``pattern`` per token.

    It drops the ``skip`` tokens and promotes an identifier to its
    keyword.  Unmatchable input raises the ScanError at its exact line
    and column, or with ``recover=True`` does not raise: each maximal
    run of unmatchable characters is yielded as a single ERROR token
    and scanning continues, so one bad character cannot kill the whole
    scan.
    """
    pos = 0
    line = 1
    col = 1
    n = len(text)
    bad_start: int | None = None
    bad_line = bad_col = 0
    while pos < n:
        match = pattern.match(text, pos)
        if match is None or match.end() == pos:
            if not recover:
                raise ScanError(
                    f"unexpected character {text[pos]!r}", line=line, column=col
                )
            if bad_start is None:
                bad_start, bad_line, bad_col = pos, line, col
            line, col = _advance(text[pos], line, col)
            pos += 1
            continue
        if bad_start is not None:
            yield Token(ERROR, text[bad_start:pos], bad_line, bad_col, bad_start)
            bad_start = None
        name = match.lastgroup or ""
        lexeme = match.group()
        if name not in skip:
            token_type = name
            if name in IDENTIFIER_RULES:
                token_type = keywords.get(lexeme.upper(), name)
            yield Token(token_type, lexeme, line, col, pos)
        line, col = _advance(lexeme, line, col)
        pos = match.end()
    if bad_start is not None:
        yield Token(ERROR, text[bad_start:pos], bad_line, bad_col, bad_start)
    yield eof_token(line, col, pos)


def _describe_bad_run(text: str) -> str:
    if len(text) == 1:
        return f"unexpected character {text!r}"
    return f"unexpected characters {text!r} ({len(text)} characters skipped)"


def _advance(lexeme: str, line: int, col: int) -> tuple[int, int]:
    """Advance a (line, column) position over the matched text."""
    newlines = lexeme.count("\n")
    if newlines:
        return line + newlines, len(lexeme) - lexeme.rfind("\n")
    return line, col + len(lexeme)

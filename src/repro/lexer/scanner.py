"""Longest-match scanner driven by a composable :class:`TokenSet`.

The scanner is the "separate scanner" the paper argues is sufficient for
decomposing a single language (in contrast to MetaBorg's scannerless
approach): every composed dialect gets its own scanner whose keyword table
contains exactly the keywords its features contributed.

One class serves every parse backend.  :meth:`Scanner.scan` and
:meth:`Scanner.scan_with_diagnostics` run a fast loop over the fast
pattern's ``finditer``, one match per token; any input that loop cannot
finish (an unmatchable character, a zero-width token) is rescanned by the
precise :meth:`Scanner.tokens` generator over the master pattern, which
owns every error message and the recovery path.
"""

from __future__ import annotations

from typing import Iterator

from ..diagnostics.model import SCAN_ERROR, Diagnostic, Severity, Span
from ..errors import ScanError
from .spec import TokenSet, compile_fast_pattern, compile_master_pattern
from .token import ERROR, Token, eof_token


class Scanner:
    """Tokenizes source text according to one token set.

    Keywords are recognized case-insensitively: any token whose matching
    rule is named ``IDENTIFIER`` (or any rule listed in
    ``identifier_rules``) is promoted to its keyword terminal when its
    upper-cased text is in the token set's keyword table.
    """

    def __init__(
        self,
        token_set: TokenSet,
        identifier_rules: tuple[str, ...] = ("IDENTIFIER",),
    ) -> None:
        self.token_set = token_set
        self.identifier_rules = identifier_rules
        self._master = compile_master_pattern(token_set)
        self._keywords = token_set.keywords
        self._skip_names = frozenset(d.name for d in token_set if d.skip)
        self._fast, self._stray_skips = compile_fast_pattern(token_set)
        # a stray skip match keeps its name, so dropping by type is exact
        self._fast_id_rules = tuple(
            r for r in identifier_rules if r not in self._stray_skips
        )

    def tokens(self, text: str, recover: bool = False) -> Iterator[Token]:
        """Yield tokens for ``text``, ending with a single EOF token.

        This is the precise loop: :meth:`scan` and
        :meth:`scan_with_diagnostics` fall back to it for input their fast
        loop cannot finish.  With ``recover=True`` unmatchable input does
        not raise: each maximal run of unmatchable characters is emitted
        as a single :data:`~repro.lexer.token.ERROR` token and scanning
        continues, so one bad character can no longer kill the whole scan.

        Raises:
            ScanError: when no token matches and ``recover`` is False.
        """
        pos = 0
        line = 1
        col = 1
        n = len(text)
        bad_start: int | None = None
        bad_line = bad_col = 0
        while pos < n:
            match = self._master.match(text, pos)
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
            if name not in self._skip_names:
                token_type = name
                if name in self.identifier_rules:
                    token_type = self._keywords.get(lexeme.upper(), name)
                yield Token(token_type, lexeme, line, col, pos)
            line, col = _advance(lexeme, line, col)
            pos = match.end()
        if bad_start is not None:
            yield Token(ERROR, text[bad_start:pos], bad_line, bad_col, bad_start)
        yield eof_token(line, col, pos)

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
        """The :meth:`tokens` loop for clean input, or ``None`` on any gap.

        One match of the fast pattern per token: the skip run before a
        token is the match's prefix, and the sentinels make each match
        start where the previous one ended.  A text without ``"\\n"``
        puts every token on line 1 at column ``offset + 1``; otherwise
        the newlines since the previous token's start are counted with
        one ``str.count``.  An unmatchable character or a zero-width
        token returns ``None``.
        """
        kw_get = self._keywords.get
        id_rules = self._fast_id_rules
        n = len(text)
        multiline = "\n" in text
        line = 1
        line_start = 0  # offset of the first character of ``line``
        counted = 0  # the newlines before this offset are in ``line``
        start = -1
        out: list[Token] = []
        append = out.append
        for m in self._fast.finditer(text):
            name = m.lastgroup or ""
            start, end = m.span(name)
            if multiline:
                newlines = text.count("\n", counted, start)
                if newlines:
                    line += newlines
                    line_start = text.rfind("\n", counted, start) + 1
                counted = start
            if start == end:  # a sentinel, or a zero-width token
                break
            lexeme = text[start:end]
            if name in id_rules:
                name = kw_get(lexeme.upper(), name)
            append(Token(name, lexeme, line, start - line_start + 1, start))
        if start != n:
            return None
        append(eof_token(line, n - line_start + 1, n))
        if self._stray_skips:
            return [t for t in out if t.type not in self._stray_skips]
        return out


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

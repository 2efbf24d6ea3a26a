"""Token value object produced by the scanner.

A :class:`Token` carries its terminal name (``type``), the matched text,
and its source position.  Positions are 1-based, matching what editors and
the paper's error-reporting discussion expect.
"""

from __future__ import annotations

from typing import Any

#: Terminal name used for the synthetic end-of-input token.
EOF = "EOF"

#: Terminal name used for unmatchable input in recovery mode.  No grammar
#: rule ever references it, so an ERROR token can never be silently
#: accepted; the diagnostics pipeline reports and drops it.
ERROR = "ERROR"


class Token:
    """A single lexical token.

    A plain slotted class, not a frozen dataclass, whose constructor
    would pay an ``object.__setattr__`` per field on every token
    scanned.  It keeps the dataclass's contract (equality over the class
    and all five fields, a matching hash, the same ``repr``, pickling
    and :mod:`copy`) and is immutable by convention.

    Attributes:
        type: Terminal name, e.g. ``"SELECT"`` or ``"IDENTIFIER"``.
        text: The exact matched source text.
        line: 1-based line of the first character.
        column: 1-based column of the first character.
        offset: 0-based character offset into the source string.
    """

    __slots__ = ("type", "text", "line", "column", "offset")

    def __init__(
        self,
        type: str,
        text: str,
        line: int = 1,
        column: int = 1,
        offset: int = 0,
    ) -> None:
        self.type = type
        self.text = text
        self.line = line
        self.column = column
        self.offset = offset

    @property
    def is_eof(self) -> bool:
        return self.type == EOF

    def _fields(self) -> tuple[str, str, int, int, int]:
        return (self.type, self.text, self.line, self.column, self.offset)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}(type={self.type!r}, "
            f"text={self.text!r}, line={self.line!r}, "
            f"column={self.column!r}, offset={self.offset!r})"
        )

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"{self.type}({self.text!r}@{self.line}:{self.column})"

    def __reduce__(self) -> tuple[Any, ...]:
        # the constructor's arguments: every pickle protocol and copy
        return (self.__class__, self._fields())


def eof_token(line: int = 1, column: int = 1, offset: int = 0) -> Token:
    """Build the synthetic end-of-input token at the given position."""
    return Token(EOF, "", line, column, offset)

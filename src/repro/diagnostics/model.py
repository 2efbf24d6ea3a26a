"""Diagnostic value objects: spans, severities, codes, and collections.

A :class:`Diagnostic` is the unit of error reporting across the whole
pipeline — scanner, parser, composer, and configuration checker all
produce them.  Unlike a bare exception it carries a precise source
:class:`Span`, a stable error ``code``, and actionable ``hints`` ("enable
feature 'Window'"), so tools can render rich messages and tests can
assert on structure instead of message text.

This module has **no** intra-package imports: every other subsystem may
depend on it without creating cycles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class Span:
    """A half-open source region: ``(line, column)`` up to ``(end_line, end_column)``.

    Positions are 1-based, matching :class:`~repro.lexer.token.Token`.
    ``end_column`` points one past the last covered character, so a
    single-character span at line 1, column 5 is ``Span(1, 5, 1, 6)``.
    """

    line: int
    column: int
    end_line: int = 0
    end_column: int = 0

    def __post_init__(self) -> None:
        # normalize: a point span covers exactly one character
        if self.end_line < self.line:
            object.__setattr__(self, "end_line", self.line)
        if self.end_line == self.line and self.end_column <= self.column:
            object.__setattr__(self, "end_column", self.column + 1)

    @staticmethod
    def point(line: int, column: int) -> "Span":
        """One-character span at a position."""
        return Span(line, column, line, column + 1)

    @staticmethod
    def of_token(token) -> "Span":
        """Span covering one scanner token (EOF gets a point span)."""
        width = max(1, len(getattr(token, "text", "") or ""))
        newlines = (getattr(token, "text", "") or "").count("\n")
        if newlines:
            tail = token.text.rsplit("\n", 1)[1]
            return Span(token.line, token.column,
                        token.line + newlines, len(tail) + 1)
        return Span(token.line, token.column, token.line, token.column + width)

    @property
    def is_multiline(self) -> bool:
        return self.end_line > self.line

    def contains(self, line: int, column: int) -> bool:
        """Is the (1-based) position inside this span?"""
        if line < self.line or line > self.end_line:
            return False
        if line == self.line and column < self.column:
            return False
        if line == self.end_line and column >= self.end_column:
            return False
        return True

    def __str__(self) -> str:
        if self.is_multiline:
            return f"{self.line}:{self.column}-{self.end_line}:{self.end_column}"
        return f"{self.line}:{self.column}"


class Severity(enum.IntEnum):
    """How bad a diagnostic is; ordering lets bags sort worst-first."""

    NOTE = 0
    WARNING = 1
    ERROR = 2

    def label(self) -> str:
        return self.name.lower()


# -- stable error codes --------------------------------------------------------
#
# Codes are grouped by subsystem; renderers print them as ``error[E0201]``
# so users can grep documentation and scripts can match on them without
# parsing prose.

SCAN_ERROR = "E0101"            #: unmatchable characters in the input
PARSE_ERROR = "E0201"           #: token stream rejected by the grammar
PARSE_BUDGET_EXCEEDED = "E0202"  #: fuel/step budget exhausted (pathological input)
PARSE_TIMEOUT = "E0203"         #: a parse-service request exceeded its deadline
SERVICE_OVERLOADED = "E0204"    #: request shed by service admission control
CONFIG_INVALID = "E0301"        #: feature selection violates the model
COMPOSITION_ORDER = "E0302"     #: units composed in a forbidden order
LINT_GATE_FAILED = "E0303"      #: composed product rejected by the lint gate
CIRCUIT_OPEN = "E0304"          #: fingerprint failing fast (circuit breaker open)
PRODUCT_INCOMPLETE = "E0305"    #: composed grammar references undefined symbols
UNTRANSLATABLE = "E0401"        #: query uses features the target dialect lacks
UNRENDERABLE = "E0402"          #: AST node not expressible with the selected features
GENERIC_ERROR = "E0000"         #: any ReproError without a more specific code
TOO_MANY_ERRORS = "N0001"       #: note emitted when max_errors truncates


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One reportable problem.

    Attributes:
        message: Human-readable, single-line description.
        span: Source region, or ``None`` for problems with no position
            (e.g. configuration errors).
        severity: :class:`Severity` of the problem.
        code: Stable error code (``E0201`` …).
        hints: Actionable follow-ups, rendered as ``hint:`` lines.
    """

    message: str
    span: Span | None = None
    severity: Severity = Severity.ERROR
    code: str = GENERIC_ERROR
    hints: tuple[str, ...] = ()

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def with_hints(self, *hints: str) -> "Diagnostic":
        """A copy with extra hints appended (deduplicated, order kept)."""
        merged = list(self.hints)
        for hint in hints:
            if hint and hint not in merged:
                merged.append(hint)
        return Diagnostic(self.message, self.span, self.severity,
                          self.code, tuple(merged))

    def format(self) -> str:
        """One-line rendering without source context."""
        where = f"{self.span}: " if self.span is not None else ""
        return f"{where}{self.severity.label()}[{self.code}]: {self.message}"

    def __str__(self) -> str:
        return self.format()


@dataclass
class DiagnosticBag:
    """An append-only collection with an optional error cap.

    When ``max_errors`` is reached, further :meth:`add` calls are dropped
    and :attr:`truncated` is set; callers use :meth:`full` to stop work
    early (the parser stops recovering, the CLI stops printing).
    """

    max_errors: int | None = None
    items: list[Diagnostic] = field(default_factory=list)
    truncated: bool = False

    def add(self, diagnostic: Diagnostic) -> bool:
        """Record a diagnostic; returns False when it was dropped."""
        if diagnostic.is_error and self.full():
            self.truncated = True
            return False
        self.items.append(diagnostic)
        return True

    def extend(self, diagnostics) -> None:
        for diagnostic in diagnostics:
            self.add(diagnostic)

    def full(self) -> bool:
        """Has the error cap been reached?  Errors are counted only once
        there are as many items as the cap: never more errors than items."""
        return (
            self.max_errors is not None
            and len(self.items) >= self.max_errors
            and self.error_count() >= self.max_errors
        )

    def error_count(self) -> int:
        return sum(1 for d in self.items if d.is_error)

    @property
    def has_errors(self) -> bool:
        if not self.items:
            return False
        return any(d.is_error for d in self.items)

    def sorted(self) -> list[Diagnostic]:
        """Source order (position-less diagnostics first), then severity."""
        def key(d: Diagnostic):
            span = d.span
            if span is None:
                return (0, 0, 0, -int(d.severity))
            return (1, span.line, span.column, -int(d.severity))

        return sorted(self.items, key=key)

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

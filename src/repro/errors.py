"""Shared exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch one base class.  Sub-hierarchies mirror the subsystems:
lexing, grammar handling, parser generation, feature modeling, and feature
composition.

Positioned errors (:class:`ScanError`, :class:`GrammarSyntaxError`,
:class:`ParseError`) expose a uniform ``.span`` property — a
:class:`~repro.diagnostics.model.Span` with start *and* end line/column —
and every :class:`ReproError` converts to a structured
:class:`~repro.diagnostics.model.Diagnostic` via :meth:`~ReproError.to_diagnostic`.
Message formats are unchanged from earlier releases.
"""

from __future__ import annotations

from .diagnostics.model import (
    CIRCUIT_OPEN,
    COMPOSITION_ORDER,
    CONFIG_INVALID,
    GENERIC_ERROR,
    LINT_GATE_FAILED,
    PARSE_BUDGET_EXCEEDED,
    PARSE_ERROR,
    PARSE_TIMEOUT,
    PRODUCT_INCOMPLETE,
    SCAN_ERROR,
    SERVICE_OVERLOADED,
    Diagnostic,
    Severity,
    Span,
)


class ReproError(Exception):
    """Base class for all errors raised by this library."""

    #: Stable diagnostic code; subclasses override.
    code: str = GENERIC_ERROR

    #: Actionable follow-ups attached when the error was raised.
    hints: tuple[str, ...] = ()

    @property
    def span(self) -> Span | None:
        """Source region of the error, when one is known."""
        return None

    def to_diagnostic(self) -> Diagnostic:
        """Structured form of this error for rendering and tooling."""
        message = getattr(self, "bare_message", None) or str(self)
        return Diagnostic(
            message=message,
            span=self.span,
            severity=Severity.ERROR,
            code=self.code,
            hints=tuple(self.hints),
        )


class _PositionedMixin:
    """Shared ``.span`` plumbing for errors that carry line/column info.

    Subclasses set ``line``/``column`` (1-based start) and optionally
    ``end_line``/``end_column``; a missing end collapses to a
    one-character span.
    """

    line: int
    column: int
    end_line: int
    end_column: int

    @property
    def span(self) -> Span:
        return Span(self.line, self.column, self.end_line, self.end_column)


class LexerError(ReproError):
    """Base class for tokenization errors."""


class TokenConflictError(LexerError):
    """Two token definitions with the same name but different patterns."""


class ScanError(_PositionedMixin, LexerError):
    """Input text contains a character sequence no token matches."""

    code = SCAN_ERROR

    def __init__(
        self,
        message: str,
        line: int,
        column: int,
        end_line: int = 0,
        end_column: int = 0,
    ) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.bare_message = message
        self.line = line
        self.column = column
        self.end_line = end_line or line
        self.end_column = end_column or column + 1


class GrammarError(ReproError):
    """Base class for grammar construction and validation errors."""


class GrammarSyntaxError(_PositionedMixin, GrammarError):
    """The textual grammar DSL could not be parsed."""

    def __init__(
        self,
        message: str,
        line: int,
        column: int,
        end_line: int = 0,
        end_column: int = 0,
    ) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.bare_message = message
        self.line = line
        self.column = column
        self.end_line = end_line or line
        self.end_column = end_column or column + 1


class UndefinedNonterminalError(GrammarError):
    """A production references a nonterminal that has no rule."""


class LeftRecursionError(GrammarError):
    """The grammar contains left recursion, which LL parsers cannot handle."""


class ParserGenerationError(ReproError):
    """Base class for errors while building a parser from a grammar."""


class LLConflictError(ParserGenerationError):
    """The grammar is not LL(1) and strict mode was requested."""

    def __init__(self, message: str, conflicts: list | None = None) -> None:
        super().__init__(message)
        self.conflicts = conflicts or []


class ParseError(_PositionedMixin, ReproError):
    """Input text does not conform to the composed grammar."""

    code = PARSE_ERROR

    def __init__(
        self,
        message: str,
        line: int = 0,
        column: int = 0,
        expected: frozenset[str] = frozenset(),
        found: str | None = None,
        end_line: int = 0,
        end_column: int = 0,
        hints: tuple[str, ...] = (),
    ) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.bare_message = message
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found
        self.end_line = end_line or line
        self.end_column = end_column or column + 1
        self.hints = tuple(hints)


class ParseBudgetExceeded(ParseError):
    """The parser's fuel/step budget ran out before the input was decided.

    Raised instead of letting pathological (usually adversarial) non-LL(1)
    backtracking run unbounded.  Being a :class:`ParseError`, existing
    ``except ParseError`` handlers and :meth:`Parser.accepts` treat it as
    a clean rejection rather than a hang.
    """

    code = PARSE_BUDGET_EXCEEDED

    def __init__(
        self,
        message: str,
        line: int = 0,
        column: int = 0,
        steps: int = 0,
        **kwargs,
    ) -> None:
        super().__init__(message, line=line, column=column, **kwargs)
        self.steps = steps


class ParseDeadlineExceeded(ParseBudgetExceeded):
    """A cooperative deadline check fired inside the parse driver.

    Subclasses :class:`ParseBudgetExceeded` so every existing handler
    (``accepts``, the recovery loop, the service's outcome mapping)
    already treats a deadline abort as a clean bounded rejection — but
    with the service-timeout code so callers can tell "input was
    pathological" (E0202) apart from "request ran out of time" (E0203).
    """

    code = PARSE_TIMEOUT


class ServiceOverloadedError(ReproError):
    """The parse service shed this request at admission.

    Raised (and immediately converted to an E0204 diagnostic) when the
    bounded request queue is full; callers should back off and retry.
    """

    code = SERVICE_OVERLOADED

    def __init__(self, message: str, in_flight: int = 0, limit: int = 0) -> None:
        super().__init__(message)
        self.in_flight = in_flight
        self.limit = limit
        self.hints = ("the service is at capacity; retry with backoff",)


class FeatureModelError(ReproError):
    """Base class for feature-model construction errors."""


class UnknownFeatureError(FeatureModelError):
    """A configuration or constraint references a feature that is not in the model."""


class UnknownDialectError(FeatureModelError, ValueError):
    """A dialect name that is no preset: a caller's selection error."""

    code = CONFIG_INVALID


class InvalidConfigurationError(FeatureModelError):
    """A feature selection violates the feature model.

    Carries the full list of violation messages so tools can show all of
    them at once rather than one at a time.
    """

    code = CONFIG_INVALID

    def __init__(self, violations: list[str]) -> None:
        super().__init__(
            "invalid feature configuration:\n  - " + "\n  - ".join(violations)
        )
        self.violations = list(violations)

    def diagnostics(self) -> list[Diagnostic]:
        """One diagnostic per violation, each with a suggested fix."""
        return [
            Diagnostic(
                message=violation,
                severity=Severity.ERROR,
                code=self.code,
                hints=_configuration_fix(violation),
            )
            for violation in self.violations
        ]


def _configuration_fix(violation: str) -> tuple[str, ...]:
    """Suggest a fix for one textual configuration violation."""
    import re

    match = re.search(r"feature '([^']+)' requires feature '([^']+)'", violation)
    if match:
        return (f"add feature '{match.group(2)}' to the selection "
                f"(or drop '{match.group(1)}')",)
    match = re.search(r"feature '([^']+)' excludes feature '([^']+)'", violation)
    if match:
        return (f"remove either '{match.group(1)}' or '{match.group(2)}' "
                "from the selection",)
    match = re.search(r"mandatory feature '([^']+)' of '([^']+)'", violation)
    if match:
        return (f"add mandatory feature '{match.group(1)}'",)
    match = re.search(r"feature '([^']+)' selected without its parent '([^']+)'",
                      violation)
    if match:
        return (f"add parent feature '{match.group(2)}'",)
    match = re.search(r"unknown feature '([^']+)'", violation)
    if match:
        return ("check the feature name against `python -m repro.cli diagrams`",)
    return ()


class CompositionError(ReproError):
    """Base class for feature-composition errors."""


class TokenMergeConflictError(CompositionError, TokenConflictError):
    """Composing two units' token files redefined a token incompatibly.

    Raised by :meth:`~repro.lexer.spec.TokenSet.merge` when the same
    terminal name arrives with a different pattern, kind, or flags from
    two different contributing units; the message names both units.
    Inherits from both :class:`CompositionError` (it is a composition
    failure) and :class:`TokenConflictError` (existing lexer-level
    handlers keep working).
    """

    def __init__(
        self,
        message: str,
        token: str | None = None,
        units: tuple[str, str] | None = None,
    ) -> None:
        super().__init__(message)
        self.token = token
        self.units = units or ()


class CompositionOrderError(CompositionError):
    """Units were composed in an order the paper's rules forbid.

    For example an optional extension ``A : B [C]`` arriving before its
    non-optional base ``A : B``, or a complex list arriving before its
    sublist.
    """

    code = COMPOSITION_ORDER

    def __init__(self, message: str, hints: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.hints = tuple(hints)


class ConstraintViolationError(CompositionError):
    """A requires/excludes constraint between features is violated."""


class LintGateError(CompositionError):
    """A composed product was rejected by the static-analysis gate.

    Raised by a :class:`~repro.service.registry.ParserRegistry` built
    with ``lint_gate=True`` when the :mod:`repro.lint` program passes
    find error-grade defects (nullable loops, shadowed tokens) in a
    freshly composed product.  Carries the findings so callers can
    render them with full rule/feature provenance.
    """

    code = LINT_GATE_FAILED

    def __init__(self, message: str, findings: tuple = ()) -> None:
        super().__init__(message)
        self.findings = tuple(findings)


class IncompleteProductError(CompositionError):
    """A selection composed into a grammar that is not closed.

    Raised by the :class:`~repro.service.registry.ParserRegistry` when a
    freshly composed product references a nonterminal with no rule or a
    terminal with no token definition — a parser over it would fail on
    every request.  ``undefined`` maps each such symbol to the selected
    units that reference it; the hints name the line's units that define
    it.
    """

    code = PRODUCT_INCOMPLETE

    def __init__(
        self,
        message: str,
        undefined: dict[str, tuple[str, ...]] | None = None,
        hints: tuple[str, ...] = (),
    ) -> None:
        super().__init__(message)
        self.undefined = dict(undefined or {})
        self.hints = tuple(hints)


class CircuitOpenError(CompositionError):
    """A fingerprint's circuit breaker is open: failing fast.

    After ``threshold`` consecutive composition/lint-gate failures for
    the same fingerprint, the registry stops re-running the expensive
    pipeline and raises this instead until the cooldown elapses.
    """

    code = CIRCUIT_OPEN

    def __init__(
        self, message: str, fingerprint: str = "", retry_after: float = 0.0
    ) -> None:
        super().__init__(message)
        self.fingerprint = fingerprint
        self.retry_after = retry_after
        self.hints = (
            f"circuit breaker cools down in {retry_after:.1f}s; "
            "fix the underlying composition failure or wait",
        )


class EngineError(ReproError):
    """Base class for relational-engine errors."""


class CatalogError(EngineError):
    """Unknown or duplicate table/column/schema."""


class TypeMismatchError(EngineError):
    """An expression or assignment combined incompatible types."""


class ExecutionError(EngineError):
    """A statement failed during execution (constraint violation, etc.)."""

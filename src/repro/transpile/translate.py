"""Cross-dialect translation: parse with A's parser, re-render for B.

The paper's product line composes a *parser* per dialect; with the
feature-aware renderer the composition metadata works in the other
direction too: a query written for one dialect can be re-emitted in
another dialect's concrete syntax, or rejected with a structured
explanation of exactly which feature units the target is missing.

The pipeline of :func:`translate_on` (:func:`translate` runs it on the
process-wide parser registry, ``ParseService.translate`` on its own):

1. **parse** the input with the compiled parser (the backend that serves
   ``parse``) of the registry's entry for the source dialect;
2. **build** the AST (:func:`repro.sql.build_ast`);
3. **render** with the target's :class:`~repro.transpile.render.RenderOptions`
   in one walk that records every construct's feature requirement and
   applies lossless rewrites (``FETCH FIRST`` ↔ ``LIMIT``, ``SOME`` ↔
   ``ANY``) where spellings differ;
4. **refuse** when the walk recorded gaps — requirements the target's
   selection cannot satisfy: :class:`TranspileError` (``E0401``) with
   one "enable feature 'X'" hint per gap, and the drafted text is
   dropped;
5. **verify** by re-parsing the output with the target's compiled
   parser — the "never emit malformed SQL" guarantee is checked, not
   assumed.

The result carries a versioned JSON report (kind
``repro-transpile-report``, v1) through the shared report envelope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..conformance.report import report_envelope
from ..diagnostics.model import UNTRANSLATABLE
from ..errors import ReproError
from ..sql import build_ast, dialect_selection, sql_parser_registry
from .render import CapabilityReport, Requirement, SqlRenderer

if TYPE_CHECKING:
    from ..service.registry import ParserRegistry

__all__ = ["TranspileError", "TranslationResult", "translate", "translate_on"]

#: Report envelope identity for transpile reports.
REPORT_KIND = "repro-transpile-report"
REPORT_VERSION = 1


class TranspileError(ReproError):
    """The query uses constructs the target dialect cannot express."""

    code = UNTRANSLATABLE

    def __init__(
        self,
        message: str,
        *,
        gaps: tuple[Requirement, ...] = (),
        source_dialect: str | None = None,
        target_dialect: str | None = None,
    ) -> None:
        super().__init__(message)
        self.gaps = tuple(gaps)
        self.source_dialect = source_dialect
        self.target_dialect = target_dialect
        where = f" in dialect '{target_dialect}'" if target_dialect else ""
        self.hints = tuple(
            f"enable feature '{gap.primary}'{where} to express {gap.construct}"
            for gap in self.gaps
        )


@dataclass(frozen=True)
class TranslationResult:
    """A verified translation plus everything needed to explain it."""

    sql: str
    source_dialect: str
    target_dialect: str
    #: Human-readable notes about lossless degradations the renderer
    #: applied (e.g. "FETCH FIRST ... ROWS ONLY degraded to LIMIT").
    rewrites: tuple[str, ...]
    #: Feature requirements the rendering recorded, in walk order.
    capabilities: CapabilityReport
    #: The original input text.
    source_sql: str

    def report(self) -> dict:
        """Versioned JSON payload (kind ``repro-transpile-report``, v1)."""
        return report_envelope(
            REPORT_KIND,
            REPORT_VERSION,
            {
                "source": {"dialect": self.source_dialect, "sql": self.source_sql},
                "target": {"dialect": self.target_dialect, "sql": self.sql},
                "rewrites": list(self.rewrites),
                "requirements": self.capabilities.to_payload(),
                "verified": True,
            },
        )


def translate(sql: str, source_dialect: str, target_dialect: str) -> TranslationResult:
    """Translate ``sql`` from one preset dialect's syntax to another's.

    Runs :func:`translate_on` on the process-wide parser registry.

    Raises:
        UnknownDialectError: a dialect name is no preset (a ``ValueError``).
        ScanError / ParseError: the input is not valid in the *source*
            dialect (standard parse diagnostics, feature hints included).
        TranspileError: the query parses but uses features the *target*
            dialect lacks (E0401; one hint per gap), or the verify reparse
            rejected the output (E0401 without gaps: a transpiler defect).
        UnrenderableNodeError: an AST node has no spelling at all (E0402)
            — a FROM-less SELECT, a join whose right operand is a join, a
            non-finite numeric literal, a node type without a renderer;
            still structured, never malformed output.
    """
    return translate_on(
        sql_parser_registry(), sql, source_dialect, target_dialect
    )


def translate_on(
    registry: ParserRegistry, sql: str, source_dialect: str,
    target_dialect: str,
) -> TranslationResult:
    """:func:`translate` with both dialects looked up in ``registry``,
    which must serve the SQL:2003 line (its lookups' errors propagate).

    The entries keep what a translate reads of their products (render
    options, rule origins), so a warm translate builds none of it.
    """
    source = registry.get(dialect_selection(source_dialect))
    target = registry.get(dialect_selection(target_dialect))

    tree = source.compiled_parser().parse(sql)
    script = build_ast(tree)

    renderer = SqlRenderer(
        target.render_options(), rule_origins=source.rule_origins()
    )
    rendered = renderer.draft(script)
    if renderer.gaps:
        missing = ", ".join(sorted({gap.primary for gap in renderer.gaps}))
        raise TranspileError(
            f"query is not expressible in dialect '{target_dialect}': "
            f"missing feature units {missing}",
            gaps=tuple(renderer.gaps),
            source_dialect=source_dialect,
            target_dialect=target_dialect,
        )

    # never-malformed guarantee: the target's own parser must accept the
    # output; a rejection here is a gate the renderer is missing and
    # surfaces as a structured error, not as bad SQL handed to the caller
    try:
        target.compiled_parser().parse(rendered)
    except ReproError as exc:
        raise TranspileError(
            f"translation to dialect '{target_dialect}' produced SQL its own "
            f"parser rejects ({exc}); this is a transpiler defect, not a "
            f"problem with the input",
            source_dialect=source_dialect,
            target_dialect=target_dialect,
        ) from exc

    return TranslationResult(
        sql=rendered,
        source_dialect=source_dialect,
        target_dialect=target_dialect,
        rewrites=tuple(renderer.rewrites),
        capabilities=CapabilityReport(tuple(renderer.requirements)),
        source_sql=sql,
    )

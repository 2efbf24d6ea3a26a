"""Cross-dialect transpilation: render, analyze, translate.

Public API::

    from repro.transpile import (
        RenderOptions, SqlRenderer, render_sql, UnrenderableNodeError,
        Requirement, CapabilityReport, analyze,
        TranspileError, TranslationResult, translate, translate_on,
    )
"""

from .render import (
    CapabilityReport,
    RenderOptions,
    Requirement,
    SqlRenderer,
    UnrenderableNodeError,
    analyze,
    render_sql,
)
from .translate import (
    REPORT_KIND,
    REPORT_VERSION,
    TranslationResult,
    TranspileError,
    translate,
    translate_on,
)

__all__ = [
    "CapabilityReport",
    "REPORT_KIND",
    "REPORT_VERSION",
    "RenderOptions",
    "Requirement",
    "SqlRenderer",
    "TranslationResult",
    "TranspileError",
    "UnrenderableNodeError",
    "analyze",
    "render_sql",
    "translate",
    "translate_on",
]

"""Static analysis of grammars, parse programs, and the product line.

``repro.lint`` is the static half of the quality story: where
:mod:`repro.conformance` runs inputs through composed parsers, lint
finds defects *before any input exists* — unreachable rules, dead CHOICE
alternatives, nullable loops, shadowed tokens, and feature pairs that
cannot compose.  Findings are graded (error/warning/info), carry
feature provenance from the composition trace, serialize as the
versioned ``repro-lint-report`` JSON artifact, and can be suppressed by
a reviewed baseline file.

Typical use::

    from repro.lint import lint_sql_dialects

    report = lint_sql_dialects()
    print(report.render())
    ok = report.gate(fail_on="error")
"""

from .analyzer import (
    analyze_grammar,
    analyze_product,
    lint_products,
    lint_sql_dialects,
    run_program_passes,
)
from .baseline import Baseline, BaselineEntry, render_baseline
from .codes import ALL_CODES, LintCode, code_for, severity_label
from .interactions import check_feature_interactions
from .report import (
    LINT_REPORT_KIND,
    LINT_REPORT_VERSION,
    AnalysisReport,
    Finding,
    TargetReport,
)

__all__ = [
    "ALL_CODES",
    "AnalysisReport",
    "Baseline",
    "BaselineEntry",
    "Finding",
    "LINT_REPORT_KIND",
    "LINT_REPORT_VERSION",
    "LintCode",
    "TargetReport",
    "analyze_grammar",
    "analyze_product",
    "check_feature_interactions",
    "code_for",
    "lint_products",
    "lint_sql_dialects",
    "render_baseline",
    "run_program_passes",
    "severity_label",
]

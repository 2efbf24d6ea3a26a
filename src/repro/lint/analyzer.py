"""Analyzer orchestration: products and product lines in, report out.

:func:`analyze_product` runs every program-level pass over one composed
product (compiling its parse program if the caller has none to share)
and wires provenance in from the composition trace.
:func:`analyze_grammar` does the same for a hand-built grammar with no
product line behind it.  :func:`lint_products` adds the pairwise
feature-interaction pass and assembles the versioned
:class:`~repro.lint.report.AnalysisReport`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..core.product_line import ComposedProduct, GrammarProductLine
from ..grammar.grammar import Grammar
from ..parsing.first_follow import GrammarAnalysis
from ..parsing.program import ParseProgram, compile_program
from .baseline import Baseline
from .interactions import check_feature_interactions
from .passes import (
    IDENTIFIER_RULES,
    check_choices,
    check_first_follow,
    check_loops,
    check_reachability,
    check_token_shadowing,
    check_unused_tokens,
)
from .report import AnalysisReport, Finding, TargetReport

_EMPTY: Mapping[str, str] = {}


def run_program_passes(
    target: str,
    grammar: Grammar,
    program: ParseProgram,
    analysis: GrammarAnalysis | None = None,
    origins: Mapping[str, str] | None = None,
    token_origins: Mapping[str, str] | None = None,
    identifier_rules: tuple[str, ...] = IDENTIFIER_RULES,
) -> list[Finding]:
    """Every program-level pass (L0101–L0107) over one compiled product."""
    if analysis is None:
        analysis = GrammarAnalysis(grammar)
    origins = origins or _EMPTY
    findings: list[Finding] = []
    findings += check_reachability(target, program, origins)
    findings += check_choices(target, program, origins)
    findings += check_loops(target, program, origins)
    findings += check_first_follow(target, program, analysis, origins)
    findings += check_token_shadowing(
        target, grammar, token_origins, identifier_rules
    )
    findings += check_unused_tokens(target, grammar, token_origins)
    return findings


def token_origins(product: ComposedProduct) -> dict[str, str]:
    """Token name -> feature whose unit first defined it.

    Mirrors the first-contribution semantics of the rule-origin trace:
    token merge keeps the first definition, so the first unit in the
    composition sequence that declares a token owns it.
    """
    if product.line is None:
        return {}
    origins: dict[str, str] = {}
    for feature in product.sequence:
        unit = product.line.unit_for(feature)
        if unit is None:
            continue
        for definition in unit.tokens:
            origins.setdefault(definition.name, feature)
    return origins


def analyze_product(product: ComposedProduct) -> TargetReport:
    """All program-level passes over one composed product.

    The passes read the product's own program (:meth:`ComposedProduct.program`)
    and the analysis it was compiled with (:attr:`ComposedProduct.analysis`).
    """
    findings = run_program_passes(
        product.name,
        product.grammar,
        product.program(),
        analysis=product.analysis,
        origins=product.rule_origins(),
        token_origins=token_origins(product),
    )
    digest = getattr(product.fingerprint, "digest", None)
    return TargetReport(
        target=product.name, fingerprint=digest, findings=tuple(findings)
    )


def analyze_grammar(
    grammar: Grammar,
    target: str | None = None,
    program: ParseProgram | None = None,
) -> TargetReport:
    """Program-level passes over a grammar with no product line behind it."""
    analysis = GrammarAnalysis(grammar)
    if program is None:
        program = compile_program(grammar, analysis=analysis)
    findings = run_program_passes(
        target or grammar.name, grammar, program, analysis=analysis
    )
    return TargetReport(
        target=target or grammar.name,
        fingerprint=program.fingerprint,
        findings=tuple(findings),
    )


def lint_products(
    products: Sequence[ComposedProduct],
    line: GrammarProductLine | None = None,
    interactions: bool = True,
    baseline: Baseline | None = None,
) -> AnalysisReport:
    """The full ``repro lint`` run: products + optional interaction pass.

    ``line`` defaults to the product line of the first product; pass it
    explicitly (or ``interactions=False``) when linting loose grammars.
    """
    targets = [analyze_product(product) for product in products]
    pairs_checked = 0
    if line is None and products:
        line = products[0].line
    if interactions and line is not None:
        pair_findings, pairs_checked = check_feature_interactions(line)
        targets.append(
            TargetReport(
                target=f"line:{line.name}",
                fingerprint=None,
                findings=tuple(pair_findings),
            )
        )
    report = AnalysisReport(targets, pairs_checked=pairs_checked)
    if baseline is not None:
        report = report.apply_baseline(baseline)
    return report


def lint_sql_dialects(
    names: Iterable[str] | None = None,
    interactions: bool = True,
    baseline: Baseline | None = None,
) -> AnalysisReport:
    """Lint the preset SQL dialects (the CI ``lint-grammar`` entry point)."""
    from ..sql.dialects import build_dialect, dialect_names
    from ..sql.product_line import build_sql_product_line

    selected = list(names) if names is not None else dialect_names()
    products = [build_dialect(name) for name in selected]
    return lint_products(
        products,
        line=build_sql_product_line(),
        interactions=interactions,
        baseline=baseline,
    )

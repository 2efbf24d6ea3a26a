"""Program-level lint passes over one compiled product.

Every pass reads the :class:`~repro.parsing.program.ParseProgram` (the
single compiled semantics source) plus, for the scanner/token passes,
the composed grammar's token set.  Rule provenance — *which feature* a
defective rule came from — is attached from the composition trace's
origin map when the analyzed product carries one.

Passes (codes in :mod:`repro.lint.codes`):

====== ======================= ========================================
L0101  unreachable rules       BFS over CALL edges from the start rule
L0102  dead CHOICE alternative FIRST set fully claimed by earlier alts
L0103  nullable-loop body      LOOP/SEPLOOP item can match epsilon
L0104  FIRST/FIRST conflict    partial lookahead overlap inside a CHOICE
L0105  FIRST/FOLLOW conflict   nullable rule, FIRST ∩ FOLLOW non-empty
L0106  shadowed token          scanner can never emit the terminal
L0107  unused token            declared terminal never referenced
====== ======================= ========================================

Decision anchors (``rule/choice[k]``, ``rule/loop[k]``) number decision
points *per rule* in execution order, so baseline keys survive edits to
unrelated rules.
"""

from __future__ import annotations

from typing import Mapping

from ..grammar.grammar import Grammar
from ..lexer.scanner import IDENTIFIER_RULES
from ..lexer.spec import compile_master_pattern
from ..lexer.token import EOF
from ..parsing.first_follow import GrammarAnalysis
from ..parsing.program import (
    OP_CHOICE,
    OP_LOOP,
    OP_SEPLOOP,
    ParseProgram,
    instruction_nullable,
    reachable_rules,
    rule_nullability,
    walk_instructions,
)
from .codes import (
    DEAD_ALTERNATIVE,
    FIRST_FIRST_CONFLICT,
    FIRST_FOLLOW_CONFLICT,
    NULLABLE_LOOP,
    SHADOWED_TOKEN,
    UNREACHABLE_RULE,
    UNUSED_TOKEN,
)
from .report import Finding


def _fmt_terms(terms, limit: int = 6) -> str:
    names = sorted(terms)
    if len(names) > limit:
        return ", ".join(names[:limit]) + f", … +{len(names) - limit}"
    return ", ".join(names)


def check_reachability(
    target: str, program: ParseProgram, origins: Mapping[str, str]
) -> list[Finding]:
    """L0101 — rules no CALL chain from the start rule can reach."""
    reachable = reachable_rules(program)
    start = program.start_name()
    findings = []
    for rid, name in enumerate(program.rule_names):
        if rid in reachable:
            continue
        findings.append(
            Finding(
                code=UNREACHABLE_RULE,
                message=(
                    f"rule '{name}' is unreachable from start rule "
                    f"'{start}'"
                ),
                target=target,
                anchor=name,
                rule=name,
                feature=origins.get(name),
            )
        )
    return findings


def check_choices(
    target: str, program: ParseProgram, origins: Mapping[str, str]
) -> list[Finding]:
    """L0102 / L0104 — dead and conflicting CHOICE alternatives.

    An alternative whose whole (non-empty) FIRST set is claimed by
    earlier alternatives is *dead* under LL(1) dispatch: the interpreter
    only reaches it by backtracking after an earlier candidate fails, so
    it silently changes meaning when an earlier feature composes in
    (L0102).  A partial overlap is the milder FIRST/FIRST conflict
    (L0104); so is a choice with two nullable alternatives, where the
    second epsilon derivation can never be chosen.
    """
    findings = []
    for rid, name in enumerate(program.rule_names):
        feature = origins.get(name)
        n_choices = 0
        for instr in walk_instructions(program.code[rid]):
            if instr[0] != OP_CHOICE:
                continue
            anchor = f"{name}/choice[{n_choices}]"
            n_choices += 1
            firsts, nullables = instr[5], instr[6]
            claimed: set[str] = set()
            for index, first in enumerate(firsts):
                overlap = first & claimed
                if first and overlap == first:
                    findings.append(
                        Finding(
                            code=DEAD_ALTERNATIVE,
                            message=(
                                f"rule '{name}': alternative {index} of "
                                f"{anchor} is dead — every FIRST terminal "
                                f"({_fmt_terms(first)}) is claimed by an "
                                "earlier alternative"
                            ),
                            target=target,
                            anchor=f"{anchor}[{index}]",
                            rule=name,
                            feature=feature,
                            detail={"terminals": sorted(first)},
                        )
                    )
                elif overlap:
                    findings.append(
                        Finding(
                            code=FIRST_FIRST_CONFLICT,
                            message=(
                                f"rule '{name}': alternative {index} of "
                                f"{anchor} competes with an earlier "
                                "alternative for lookahead "
                                f"{_fmt_terms(overlap)} (ordered "
                                "backtracking decides)"
                            ),
                            target=target,
                            anchor=f"{anchor}[{index}]",
                            rule=name,
                            feature=feature,
                            detail={"terminals": sorted(overlap)},
                        )
                    )
                claimed |= first
            nullable_indices = [
                index for index, nullable in enumerate(nullables) if nullable
            ]
            if len(nullable_indices) > 1:
                findings.append(
                    Finding(
                        code=FIRST_FIRST_CONFLICT,
                        message=(
                            f"rule '{name}': alternatives "
                            f"{nullable_indices} of {anchor} can all "
                            "derive the empty string; only the first "
                            "epsilon derivation is ever used"
                        ),
                        target=target,
                        anchor=f"{anchor}[epsilon]",
                        rule=name,
                        feature=feature,
                        detail={"alternatives": nullable_indices},
                    )
                )
    return findings


def check_loops(
    target: str, program: ParseProgram, origins: Mapping[str, str]
) -> list[Finding]:
    """L0103 — repetition bodies that can match the empty string.

    A LOOP whose body derives epsilon makes zero progress per iteration;
    at parse time only the fuel budget (E0202) stands between such a
    grammar and an infinite loop, so statically this is error-grade.
    """
    nullable = rule_nullability(program)
    findings = []
    for rid, name in enumerate(program.rule_names):
        feature = origins.get(name)
        counters = {OP_LOOP: 0, OP_SEPLOOP: 0}
        for instr in walk_instructions(program.code[rid]):
            op = instr[0]
            if op not in (OP_LOOP, OP_SEPLOOP):
                continue
            kind = "loop" if op == OP_LOOP else "seploop"
            anchor = f"{name}/{kind}[{counters[op]}]"
            counters[op] += 1
            if not instruction_nullable(instr[1], nullable):
                continue
            findings.append(
                Finding(
                    code=NULLABLE_LOOP,
                    message=(
                        f"rule '{name}': the body of {anchor} can match "
                        "the empty string — the repetition makes no "
                        "progress and can loop forever"
                    ),
                    target=target,
                    anchor=anchor,
                    rule=name,
                    feature=feature,
                )
            )
    return findings


def check_first_follow(
    target: str,
    program: ParseProgram,
    analysis: GrammarAnalysis,
    origins: Mapping[str, str],
) -> list[Finding]:
    """L0105 — nullable rules whose FIRST and FOLLOW sets overlap.

    When such a rule's epsilon derivation is taken on a terminal that is
    also in its FIRST set, the parser has committed to "skip" where
    "consume" was possible — the classical LL(1) FIRST/FOLLOW conflict,
    reported with the rule's feature origin.
    """
    findings = []
    for name in program.rule_names:
        overlap = analysis.first_follow_overlap(name)
        if not overlap:
            continue
        findings.append(
            Finding(
                code=FIRST_FOLLOW_CONFLICT,
                message=(
                    f"rule '{name}' is nullable and its FIRST and FOLLOW "
                    f"sets share {_fmt_terms(overlap)}"
                ),
                target=target,
                anchor=name,
                rule=name,
                feature=origins.get(name),
                detail={"terminals": sorted(overlap)},
            )
        )
    return findings


def check_token_shadowing(
    target: str,
    grammar: Grammar,
    token_origins: Mapping[str, str] | None = None,
) -> list[Finding]:
    """L0106 — terminals the composed scanner can never emit.

    The scanner matches keywords as identifiers first and promotes them
    (see :mod:`repro.lexer.scanner`), so a keyword is reachable only if
    the master pattern sends its text through an identifier rule.  A
    keyword matched by some other pattern, matched only partially, or
    matched by nothing is statically dead: every input meant to hit it
    scans as something else, and the grammar rule behind it can never
    fire.  Literal (fixed-text) tokens are checked the same way against
    longest-match shadowing by patterns.
    """
    token_origins = token_origins or {}
    master = compile_master_pattern(grammar.tokens)
    findings = []

    def shadow_finding(name: str, reason: str) -> Finding:
        return Finding(
            code=SHADOWED_TOKEN,
            message=f"token '{name}' can never be scanned: {reason}",
            target=target,
            anchor=name,
            feature=token_origins.get(name),
        )

    for definition in grammar.tokens:
        if definition.skip:
            continue
        if definition.is_keyword:
            # promotion upper-cases the lexeme, so any case variant of
            # the word reaches the keyword — the word is shadowed only
            # if NO variant scans as an identifier
            text = definition.pattern  # the upper-cased word itself
            hits = []
            for variant in (text, text.lower(), text.capitalize()):
                match = master.match(variant)
                if match is not None and match.end() == len(variant):
                    if match.lastgroup in IDENTIFIER_RULES:
                        break
                    hits.append(match.lastgroup)
            else:
                if hits:
                    findings.append(
                        shadow_finding(
                            definition.name,
                            f"its text {text!r} is matched by token "
                            f"'{hits[0]}', so keyword promotion never "
                            "sees it",
                        )
                    )
                else:
                    findings.append(
                        shadow_finding(
                            definition.name,
                            "no identifier pattern matches its text "
                            f"{text!r}",
                        )
                    )
        elif definition.kind == "literal":
            match = master.match(definition.pattern)
            if match is not None and match.lastgroup != definition.name:
                findings.append(
                    shadow_finding(
                        definition.name,
                        f"its text {definition.pattern!r} is matched by "
                        f"token '{match.lastgroup}' first",
                    )
                )
    return findings


def check_unused_tokens(
    target: str,
    grammar: Grammar,
    token_origins: Mapping[str, str] | None = None,
) -> list[Finding]:
    """L0107 — declared, non-skip tokens no grammar rule references."""
    token_origins = token_origins or {}
    referenced = grammar.referenced_terminals()
    findings = []
    for definition in grammar.tokens:
        if definition.skip or definition.name == EOF:
            continue
        if definition.name in referenced:
            continue
        findings.append(
            Finding(
                code=UNUSED_TOKEN,
                message=(
                    f"token '{definition.name}' is declared but no "
                    "grammar rule references it"
                ),
                target=target,
                anchor=definition.name,
                feature=token_origins.get(definition.name),
            )
        )
    return findings

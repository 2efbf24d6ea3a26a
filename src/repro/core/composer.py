"""The grammar composition engine — the paper's core contribution (§3.2).

Composition merges an extension sub-grammar into a base grammar.  Rules
that share a nonterminal are merged alternative by alternative using the
paper's rules:

1. *new contains old* → the old production is **replaced** by the new one
   (``A : B`` + ``A : B C`` ⇒ ``A : B C``);
2. *new contained in old* → the old production is **retained**
   (``A : B C`` + ``A : B`` ⇒ ``A : B C``);
3. *otherwise* → productions are **appended as choices**
   (``A : B`` + ``A : C`` ⇒ ``A : B | C``).

Containment is structural: an optional element ``[C]`` covers the plain
element ``C``, a (separated) list covers a single item, and a choice
covers each of its alternatives.  That makes the paper's two ordering
rules checkable:

* *optionals compose after their non-optional base* — composing
  ``A : B [C]`` when no base ``A : B`` exists yet is a
  :class:`~repro.errors.CompositionOrderError` in strict mode;
* *sublists compose ahead of complex lists* — likewise for
  ``A : B (COMMA B)*`` before ``A : B``.

Token files merge via :meth:`repro.lexer.TokenSet.merge`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..errors import CompositionOrderError
from ..grammar.expr import Choice, Element, Opt, Rep, flatten
from ..grammar.grammar import Grammar, Rule


@dataclass
class CompositionTrace:
    """Records what the composer did — inspectable provenance for tools."""

    replaced: list[tuple[str, str, str]] = field(default_factory=list)
    retained: list[tuple[str, str, str]] = field(default_factory=list)
    appended: list[tuple[str, str]] = field(default_factory=list)
    merged: list[tuple[str, str, str]] = field(default_factory=list)
    added_rules: list[str] = field(default_factory=list)
    removed_rules: list[str] = field(default_factory=list)
    #: rule name -> unit (feature) that first contributed the rule; filled
    #: when the composer is told which unit it is composing (``origin=``).
    origins: dict[str, str] = field(default_factory=dict)
    #: rule name -> every unit that added or refined the rule, in
    #: composition order (the coverage report's per-feature rollup key).
    contributors: dict[str, list[str]] = field(default_factory=dict)

    def record_touch(self, rule_name: str, origin: str | None) -> None:
        """Attribute one rule addition/refinement to a composing unit."""
        if origin is None:
            return
        self.origins.setdefault(rule_name, origin)
        touched = self.contributors.setdefault(rule_name, [])
        if origin not in touched:
            touched.append(origin)

    def summary(self) -> str:
        return (
            f"{len(self.added_rules)} rules added, "
            f"{len(self.replaced)} productions replaced, "
            f"{len(self.retained)} retained, "
            f"{len(self.appended)} appended, "
            f"{len(self.merged)} optional-merged, "
            f"{len(self.removed_rules)} rules removed"
        )


def _elements_match(covering: Element, covered: Element) -> bool:
    """Can ``covering`` stand in for ``covered`` at one sequence position?"""
    if covering == covered:
        return True
    if isinstance(covering, Opt):
        if covering.inner == covered:
            return True
        if isinstance(covered, Opt) and structurally_covers(
            flatten(covering.inner), flatten(covered.inner)
        ):
            return True
    if isinstance(covering, Rep):
        if covering.inner == covered:
            return True
        if (
            isinstance(covered, Rep)
            and covering.separator == covered.separator
            and covering.min <= covered.min
            and structurally_covers(
                flatten(covering.inner), flatten(covered.inner)
            )
        ):
            return True
    if isinstance(covering, Choice) and any(
        alt == covered for alt in covering.alternatives
    ):
        return True
    return False


def covering_match(
    covering: list[Element], covered: list[Element]
) -> list[int] | None:
    """Greedy in-order match of ``covered`` into ``covering``.

    Returns, for each element of ``covered``, the index in ``covering``
    that matches it — or ``None`` when no such in-order embedding exists.
    An empty ``covered`` sequence (epsilon) is covered by anything.
    """
    matches: list[int] = []
    position = 0
    for element in covered:
        found = None
        for index in range(position, len(covering)):
            if _elements_match(covering[index], element):
                found = index
                break
        if found is None:
            return None
        matches.append(found)
        position = found + 1
    return matches


def structurally_covers(
    covering: list[Element], covered: list[Element]
) -> bool:
    """The paper's containment relation, restricted to refinements.

    ``covering`` contains ``covered`` when an in-order embedding exists
    and every *unmatched* covering element is either optional/list-like
    (``B [C]`` covers ``B``) or a mandatory **suffix** extension
    (``B C`` covers ``B``, the paper's rule-1 example).  A mandatory
    element *before* the matched region (``DATE s`` vs ``s``) marks a
    genuinely different construct, which must compose as a new choice —
    not replace the old production.
    """
    covering = _expand_separated_lists(covering)
    covered = _expand_separated_lists(covered)
    total_covering = len(covering)
    total_covered = len(covered)
    memo: dict[tuple[int, int], bool] = {}

    def embeds(i: int, j: int) -> bool:
        """Can covered[j:] embed into covering[i:]?

        A covering element may be skipped before a pending match only if
        it is optional/list-like; once everything is matched (j == m) the
        remaining tail may contain anything — that is the paper's
        mandatory-suffix extension (``B C`` covers ``B``).
        """
        if j == total_covered:
            return True
        if i == total_covering:
            return False
        key = (i, j)
        cached = memo.get(key)
        if cached is not None:
            return cached
        result = (
            _elements_match(covering[i], covered[j]) and embeds(i + 1, j + 1)
        ) or (_optional_like(covering[i]) and embeds(i + 1, j))
        memo[key] = result
        return result

    return embeds(0, 0)


def _expand_separated_lists(elements: list[Element]) -> list[Element]:
    """Rewrite ``Rep(x, min=1, sep)`` as ``x (sep x)*`` for matching.

    The DSL normalizes ``x (SEP x)*`` into a separated-list node; a
    refinement that adds material *inside* the repetition (e.g. the
    set-operation quantifier) stays in expanded form.  Expanding both
    sides makes the containment check representation-independent.
    """
    from ..grammar.expr import Seq

    expanded: list[Element] = []
    for element in elements:
        if (
            isinstance(element, Rep)
            and element.separator is not None
            and element.min == 1
        ):
            expanded.append(element.inner)
            expanded.append(
                Rep(Seq((element.separator, element.inner)), min=0)
            )
        else:
            expanded.append(element)
    return expanded


def covers(covering_alt: Element, covered_alt: Element) -> bool:
    """True when ``covering_alt`` contains ``covered_alt`` (paper §3.2)."""
    return structurally_covers(flatten(covering_alt), flatten(covered_alt))


def _optional_like(element: Element) -> bool:
    """Elements whose presence marks an 'optional/list extension'."""
    if isinstance(element, Opt):
        return True
    if isinstance(element, Rep):
        return element.min == 0 or element.separator is not None
    return False


def _unmatched_optional_extras(
    covering: list[Element], covered: list[Element]
) -> bool:
    """Does the covering form add optional/list structure over the covered one?

    True when the in-order embedding leaves unmatched covering elements
    that are optional, or matches a plain element against an
    optional/list wrapper — the signatures of the paper's "optional after
    base" and "sublist before complex list" situations.
    """
    matches = covering_match(covering, covered)
    if matches is None:
        return False
    matched = set(matches)
    for index, element in enumerate(covering):
        if index not in matched and _optional_like(element):
            return True
    for covering_index, covered_element in zip(matches, covered):
        wrapper = covering[covering_index]
        if wrapper != covered_element and _optional_like(wrapper):
            return True
    return False


def _interleave_optionals(
    old_flat: list[Element], new_flat: list[Element]
) -> Element | None:
    """Merge two alternatives sharing the same mandatory core.

    Both forms are decomposed into mandatory "anchor" elements with runs of
    optional/list elements between them.  When the anchor sequences are
    structurally equal, the new form's optionals are appended to the old
    form's run at the same anchor (composition order decides placement —
    earlier features' optionals stay first).  Returns ``None`` when the
    cores differ, or when either form has no mandatory anchor at all
    (purely optional alternatives stay separate choices).
    """
    old_core, old_buckets = _split_by_anchors(old_flat)
    new_core, new_buckets = _split_by_anchors(new_flat)
    if not old_core or old_core != new_core:
        return None
    merged: list[Element] = []
    for bucket_index in range(len(old_core) + 1):
        run = list(old_buckets[bucket_index])
        # Multiplicity-aware union: an optional already present consumes
        # one existing occurrence (re-composing the same feature stays
        # idempotent), but ``[b] [b]`` merged over ``[a]`` must keep both
        # copies of ``[b]`` — dropping duplicates loses language.
        available = Counter(run)
        for element in new_buckets[bucket_index]:
            if available[element] > 0:
                available[element] -= 1
            else:
                run.append(element)
        merged.extend(run)
        if bucket_index < len(old_core):
            merged.append(old_core[bucket_index])
    from ..grammar.expr import seq

    return seq(*merged)


def _split_by_anchors(
    elements: list[Element],
) -> tuple[list[Element], list[list[Element]]]:
    """Split a flat alternative into mandatory anchors and optional runs.

    Returns ``(core, buckets)`` where ``buckets[k]`` holds the optionals
    preceding anchor ``k`` and ``buckets[len(core)]`` the trailing run.
    """
    core: list[Element] = []
    buckets: list[list[Element]] = [[]]
    for element in elements:
        if _optional_like(element):
            buckets[-1].append(element)
        else:
            core.append(element)
            buckets.append([])
    return core, buckets


class GrammarComposer:
    """Composes sub-grammars according to the paper's rules.

    Args:
        strict_order: Enforce the paper's composition-order rules
            (optional extensions and complex lists must not precede their
            base).  When False, out-of-order compositions are accepted and
            resolved by the containment rules, which is convenient for
            exploratory use.
    """

    def __init__(self, strict_order: bool = True) -> None:
        self.strict_order = strict_order

    # -- public -----------------------------------------------------------

    def compose(
        self,
        base: Grammar,
        extension: Grammar,
        trace: CompositionTrace | None = None,
        origin: str | None = None,
    ) -> Grammar:
        """Return a new grammar: ``base`` extended by ``extension``.

        ``origin`` names the feature unit the extension belongs to; when
        given, every rule the extension adds or refines is attributed to
        it in the trace's provenance maps (what lets coverage reports
        say *which feature* an uncovered rule came from).
        """
        result = base.copy()
        result.tokens = base.tokens.copy()
        self.extend(result, extension, trace=trace, origin=origin)
        return result

    def extend(
        self,
        grammar: Grammar,
        extension: Grammar,
        trace: CompositionTrace | None = None,
        origin: str | None = None,
    ) -> None:
        """Fold ``extension`` into ``grammar`` in place.

        The one composition step: :meth:`compose` runs it on a copy, and
        :meth:`~repro.core.product_line.GrammarProductLine.compose_product`
        runs it on one working grammar per product, so composing a
        product copies no grammar and re-merges no token set per unit.
        ``grammar`` must own its rules and token set.  A step that
        raises leaves ``grammar`` partly extended.
        """
        trace = trace if trace is not None else CompositionTrace()
        grammar.tokens.update(extension.tokens)
        for ext_rule in extension:
            if not grammar.has_rule(ext_rule.name):
                grammar.add_rule(ext_rule.copy())
                trace.added_rules.append(ext_rule.name)
                trace.record_touch(ext_rule.name, origin)
                continue
            target = grammar.rule(ext_rule.name)
            for alternative in ext_rule.alternatives:
                self._merge_alternative(target, alternative, trace)
            trace.record_touch(ext_rule.name, origin)
        if grammar.start is None:
            grammar.start = extension.start

    def compose_all(
        self,
        grammars: list[Grammar],
        name: str = "composed",
        trace: CompositionTrace | None = None,
    ) -> Grammar:
        """Fold a composition sequence left to right."""
        result = Grammar(name)
        for grammar in grammars:
            self.extend(result, grammar, trace=trace)
        return result

    def remove_rules(
        self,
        grammar: Grammar,
        names: tuple[str, ...],
        trace: CompositionTrace | None = None,
    ) -> Grammar:
        """Delete rules by name (the 'removing production rules' mechanism)."""
        result = grammar.copy()
        for name in names:
            if result.has_rule(name):
                result.remove_rule(name)
                if trace is not None:
                    trace.removed_rules.append(name)
        return result

    # -- merge machinery ------------------------------------------------------

    def _merge_alternative(
        self, rule: Rule, new_alt: Element, trace: CompositionTrace
    ) -> None:
        if any(old == new_alt for old in rule.alternatives):
            return  # exact duplicate: nothing to do

        new_flat = flatten(new_alt)

        # paper rule 1: the new production contains an old one -> replace
        covered_indices = [
            index
            for index, old in enumerate(rule.alternatives)
            if structurally_covers(new_flat, flatten(old))
        ]
        if covered_indices:
            first = covered_indices[0]
            trace.replaced.append(
                (rule.name, str(rule.alternatives[first]), str(new_alt))
            )
            rule.alternatives[first] = new_alt
            for index in reversed(covered_indices[1:]):
                del rule.alternatives[index]
            return

        # paper rule 2: the new production is contained in an old one -> retain
        covering_indices = [
            index
            for index, old in enumerate(rule.alternatives)
            if structurally_covers(flatten(old), new_flat)
        ]
        if covering_indices:
            if self.strict_order:
                offending = [
                    rule.alternatives[index]
                    for index in covering_indices
                    if _unmatched_optional_extras(
                        flatten(rule.alternatives[index]), new_flat
                    )
                ]
                if offending:
                    raise CompositionOrderError(
                        f"rule {rule.name!r}: optional/list extension "
                        f"{offending[0]} was composed before its base "
                        f"{new_alt}; the paper requires base-first order",
                        hints=(
                            "reorder the composition sequence so the unit "
                            f"contributing '{rule.name} : {new_alt}' comes "
                            "first (add an 'after' edge to the extension "
                            "unit, or compose with strict_order=False to "
                            "let containment resolve it)",
                        ),
                    )
            trace.retained.append(
                (
                    rule.name,
                    str(rule.alternatives[covering_indices[0]]),
                    str(new_alt),
                )
            )
            return

        # paper §3.2 optional composition: when two forms share the same
        # mandatory core and differ only in optional/list elements, the new
        # optionals are inserted into the existing production after their
        # anchors ("we compose any optional specification within a
        # production after the corresponding non optional specification").
        # This is what lets independent clause features — WHERE, GROUP BY,
        # HAVING — each extend ``table_expression`` (Figure 2).
        for index, old in enumerate(rule.alternatives):
            merged = _interleave_optionals(flatten(old), new_flat)
            if merged is not None:
                trace.merged.append((rule.name, str(old), str(new_alt)))
                rule.alternatives[index] = merged
                return

        # paper rule 3: unrelated productions are appended as choices
        trace.appended.append((rule.name, str(new_alt)))
        rule.add_alternative(new_alt)

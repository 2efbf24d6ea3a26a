"""Rules and grammars.

A :class:`Rule` is a labeled nonterminal with an ordered list of
alternatives (the paper's "production rules with choices").  A
:class:`Grammar` is an ordered collection of rules plus a start symbol and
the token set the rules draw their terminals from.

Grammars here are *sub-grammars* in the paper's sense: each feature ships
one, and the composition engine in :mod:`repro.core.composer` merges them.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..errors import GrammarError
from ..lexer.spec import TokenSet
from .expr import Element


class Rule:
    """One nonterminal and its ordered alternatives."""

    def __init__(self, name: str, alternatives: Iterable[Element] = ()) -> None:
        self.name = name
        self.alternatives: list[Element] = list(alternatives)

    def add_alternative(self, alternative: Element) -> None:
        self.alternatives.append(alternative)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rule):
            return NotImplemented
        return self.name == other.name and self.alternatives == other.alternatives

    def __repr__(self) -> str:
        alts = " | ".join(str(a) for a in self.alternatives)
        return f"{self.name} : {alts} ;"

    def copy(self) -> "Rule":
        return Rule(self.name, list(self.alternatives))


class Grammar:
    """An ordered set of rules with a designated start symbol.

    Attributes:
        name: Grammar (feature) name, used in diagnostics.
        start: Start nonterminal; may be None for pure extension grammars
            that only contribute rules to an existing start.
        tokens: The token set this grammar's terminals come from.
    """

    def __init__(
        self,
        name: str,
        rules: Iterable[Rule] = (),
        start: str | None = None,
        tokens: TokenSet | None = None,
    ) -> None:
        self.name = name
        self.start = start
        self.tokens = tokens if tokens is not None else TokenSet(name)
        self._rules: dict[str, Rule] = {}
        for rule in rules:
            self.add_rule(rule)

    # -- rule management -------------------------------------------------

    def add_rule(self, rule: Rule) -> None:
        """Add a rule; a second rule for the same nonterminal merges its
        alternatives (plain append — composition rules live in the composer).
        """
        existing = self._rules.get(rule.name)
        if existing is None:
            self._rules[rule.name] = rule
            if self.start is None:
                self.start = rule.name
        else:
            for alt in rule.alternatives:
                if alt not in existing.alternatives:
                    existing.add_alternative(alt)

    def rule(self, name: str) -> Rule:
        try:
            return self._rules[name]
        except KeyError:
            raise GrammarError(
                f"grammar {self.name!r} has no rule {name!r}"
            ) from None

    def has_rule(self, name: str) -> bool:
        return name in self._rules

    def remove_rule(self, name: str) -> None:
        """Remove a rule (the paper's "removing production rules" mechanism)."""
        if name not in self._rules:
            raise GrammarError(f"grammar {self.name!r} has no rule {name!r}")
        del self._rules[name]

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules.values())

    def __len__(self) -> int:
        return len(self._rules)

    def rule_names(self) -> list[str]:
        return list(self._rules)

    # -- derived information ---------------------------------------------

    def referenced_terminals(self) -> frozenset[str]:
        names: set[str] = set()
        for rule in self:
            for alt in rule.alternatives:
                names.update(alt.terminals())
        return frozenset(names)

    def referenced_nonterminals(self) -> frozenset[str]:
        names: set[str] = set()
        for rule in self:
            for alt in rule.alternatives:
                names.update(alt.nonterminals())
        return frozenset(names)

    def undefined_nonterminals(self) -> frozenset[str]:
        """Nonterminals referenced but not defined by any rule.

        For a *sub*-grammar this is normal (the definition arrives from
        another feature at composition time); for a *composed* grammar it
        is an error surfaced by :func:`repro.grammar.validate.validate`.
        """
        return self.referenced_nonterminals() - frozenset(self._rules)

    def size(self) -> dict[str, int]:
        """Size metrics used by the grammar-size experiment (E6)."""
        n_alts = sum(len(r.alternatives) for r in self)
        n_elems = sum(
            sum(1 for _ in alt.walk()) for r in self for alt in r.alternatives
        )
        return {
            "rules": len(self),
            "alternatives": n_alts,
            "elements": n_elems,
            "tokens": len(self.tokens),
        }

    def copy(self) -> "Grammar":
        clone = Grammar(self.name, start=self.start, tokens=self.tokens)
        for rule in self:
            clone._rules[rule.name] = rule.copy()
        return clone

    def __repr__(self) -> str:
        return f"<Grammar {self.name!r}: {len(self)} rules, start={self.start!r}>"


def rule(name: str, *alternatives: Element) -> Rule:
    """Convenience constructor: ``rule("a", seq(...), seq(...))``."""
    return Rule(name, alternatives)

"""Reference checks for every operation the benchmark makes.

The reference is not the code under test's serving path:

* accept/reject verdicts come from how the inputs were made (generated
  queries are valid by construction, a query with an unmatched trailing
  ``)`` is invalid);
* trees and translation outputs are compared with interpreting parsers
  built directly from separately composed products, outside the
  registry, the service, its workers and the closure-compiled backend;
* dialect inclusion and E0401 hints are checked against each dialect's
  resolved feature selection.
"""

from __future__ import annotations

import hashlib
import re

from repro.errors import ReproError
from repro.parsing.parser import Parser
from repro.parsing.tree import Node
from repro.sql import build_sql_product_line, dialect_features

_ENABLE_HINT = re.compile(r"enable feature '([^']+)'")


def codes(diagnostics) -> set[str]:
    return {str(d.code) for d in diagnostics}


def _walk(node: Node, parts: list[str]) -> None:
    parts.append("(" + node.name)
    for child in node.children:
        if isinstance(child, Node):
            _walk(child, parts)
        else:
            parts.append(f"{child.type}:{child.text}@{child.offset}")
    parts.append(")")


def tree_digest(tree: Node) -> str:
    """A short hash of a tree's full structure and token positions."""
    parts: list[str] = []
    _walk(tree, parts)
    return hashlib.blake2b(
        "\x1f".join(parts).encode(), digest_size=12
    ).hexdigest()


def count_nodes(tree: Node) -> int:
    return 1 + sum(
        count_nodes(child) for child in tree.children if isinstance(child, Node)
    )


def resolved_features(dialects) -> dict[str, frozenset[str]]:
    """Each dialect's expanded feature selection (for inclusion checks)."""
    line = build_sql_product_line()
    return {
        d: frozenset(line.resolve_configuration(dialect_features(d)).selected)
        for d in dialects
    }


def parse_failure(result, valid: bool) -> str | None:
    """Why one parse result is wrong, or ``None`` when it is right.

    Overload answers (shed, E0204, or timed out, E0203) start with
    ``"overload"`` so an open-loop rate step can tell them from wrong
    answers.
    """
    found = codes(result.diagnostics)
    if result.degraded:
        return "degraded: " + ",".join(result.degraded)
    if result.timed_out or found & {"E0204", "E0203"}:
        return "overload: shed or timed out"
    if "E0000" in found:
        return "internal error"
    if valid and not result.ok:
        return "valid query rejected"
    if not valid and result.ok:
        return "invalid query accepted"
    return None


def translate_failure(result, source: str, target: str,
                      features: dict[str, frozenset[str]]) -> str | None:
    """Why one translation result is wrong, or ``None`` (refusals included)."""
    found = codes(result.diagnostics)
    if result.ok:
        return None
    if found != {"E0401"}:
        return "translation failed: " + ",".join(sorted(found))
    if features[source] <= features[target]:
        return "up-translation refused"
    named = {
        match.group(1)
        for diagnostic in result.diagnostics
        for hint in diagnostic.hints
        for match in _ENABLE_HINT.finditer(hint)
    }
    if not named:
        return "E0401 names no unit"
    if named & features[target]:
        return "E0401 names a unit the target already has"
    return None


class Reference:
    """Interpreting parsers over separately composed dialect products."""

    def __init__(self, dialects) -> None:
        line = build_sql_product_line()
        self._parsers = {
            d: Parser(line.configure(dialect_features(d)).grammar)
            for d in dialects
        }
        self._memo: dict[tuple[str, str], tuple[str | None, int, int]] = {}

    def outcome(self, dialect: str, text: str) -> tuple[str | None, int, int]:
        """``(tree digest or None when rejected, tokens, nodes)``."""
        key = (dialect, text)
        if key not in self._memo:
            parser = self._parsers[dialect]
            try:
                tree = parser.parse(text)
            except ReproError:
                self._memo[key] = (None, 0, 0)
            else:
                self._memo[key] = (
                    tree_digest(tree),
                    len(parser.scanner.scan(text)) - 1,
                    count_nodes(tree),
                )
        return self._memo[key]

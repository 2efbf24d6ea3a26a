"""Concrete parse trees produced by the generated parsers.

A :class:`Node` is named after the nonterminal whose rule matched; its
children are nested nodes and :class:`~repro.lexer.token.Token` leaves in
source order.  The SQL AST builder (:mod:`repro.sql.ast_builder`) consumes
these trees, mirroring the paper's separation between generated syntax and
separately-implemented semantic actions.

A tree keeps only nodes that carry information.  A rule activation whose
children are exactly one node leaves that node in its parent instead of
wrapping it, so ``SELECT a FROM t`` parses to ``(sql_script
(query_specification SELECT (identifier a) (from_clause FROM (identifier
t))))``, not to a chain of single-child nodes above each ``identifier``.
Every producer (both backends, the recovery driver, the ``--emit``
export) applies the same rule, with two fixed points: the root is always
the start rule's node (or the ``start=`` rule's), and a node whose only
child is a token is kept.  Rule activations themselves are unchanged:
fuel, the depth limit, coverage counts, hints and diagnostics count
activations, not nodes.

A node *is* the list of its children, the way the standard library's
``xml.etree.ElementTree.Element`` is the list of its subelements: ``len``,
iteration and indexing reach the children directly, and ``children`` is a
read-only alias for the node itself.  Each node is therefore one object
for the cyclic garbage collector instead of a node plus a separate child
list; a caller holding many trees (a batch) pays for every tracked object
they keep, on every later collection.
"""

from __future__ import annotations

from typing import Any, ClassVar, Iterable, Iterator, Union

from ..lexer.token import Token

Child = Union["Node", Token]


class Node(list[Child]):
    """One parse-tree node: a nonterminal name over its ordered children.

    The list contract is narrowed where a bare list would surprise a tree
    reader: nodes are equal only to nodes with the same name and equal
    children (never to a plain list), an empty node is still truthy,
    nodes are unhashable, and ``Node(name, children)`` copies
    ``children``.  Pickling and :mod:`copy` give back nodes at every
    level.
    """

    __slots__ = ("name",)
    __hash__: ClassVar[None] = None  # type: ignore[assignment]

    def __init__(self, name: str, children: Iterable[Child] = ()) -> None:
        super().__init__(children)
        self.name = name

    @property
    def children(self) -> "Node":
        """The node itself, which is its child list (read-only alias)."""
        return self

    # -- navigation ---------------------------------------------------------

    def child(self, name: str) -> "Node | None":
        """First child node with the given rule name, if any."""
        for c in self:
            if isinstance(c, Node) and c.name == name:
                return c
        return None

    def children_named(self, name: str) -> list["Node"]:
        """All direct child nodes with the given rule name."""
        return [c for c in self if isinstance(c, Node) and c.name == name]

    def find_all(self, name: str) -> Iterator["Node"]:
        """All descendant nodes (including self) with the given rule name."""
        if self.name == name:
            yield self
        for c in self:
            if isinstance(c, Node):
                yield from c.find_all(name)

    def token(self, type_name: str) -> Token | None:
        """First direct child token of the given terminal type, if any."""
        for c in self:
            if isinstance(c, Token) and c.type == type_name:
                return c
        return None

    def has_token(self, type_name: str) -> bool:
        return self.token(type_name) is not None

    def tokens(self) -> Iterator[Token]:
        """All leaf tokens below this node, in source order."""
        for c in self:
            if isinstance(c, Token):
                yield c
            else:
                yield from c.tokens()

    def node_children(self) -> list["Node"]:
        """Direct children that are nodes (skipping tokens)."""
        return [c for c in self if isinstance(c, Node)]

    # -- rendering ------------------------------------------------------------

    def text(self) -> str:
        """Reconstructed source text (single-space separated)."""
        return " ".join(t.text for t in self.tokens())

    def to_sexpr(self) -> str:
        """Lisp-style rendering, convenient for test assertions."""
        parts: list[str] = [self.name]
        for c in self:
            if isinstance(c, Token):
                parts.append(c.text if c.text else c.type)
            else:
                parts.append(c.to_sexpr())
        return "(" + " ".join(parts) + ")"

    def pretty(self, indent: int = 0) -> str:
        """Multi-line indented rendering for debugging."""
        pad = "  " * indent
        lines = [f"{pad}{self.name}"]
        for c in self:
            if isinstance(c, Token):
                lines.append(f"{pad}  {c.type} {c.text!r}")
            else:
                lines.append(c.pretty(indent + 1))
        return "\n".join(lines)

    # -- the narrowed list contract -------------------------------------------

    def __repr__(self) -> str:
        return f"<Node {self.name} with {len(self)} children>"

    def __bool__(self) -> bool:
        return True

    def __eq__(self, other: object) -> bool:
        # False, not NotImplemented: Python would then fall back to
        # list.__eq__ and call a node equal to a list of the same items
        return (
            isinstance(other, Node)
            and self.name == other.name
            and list.__eq__(self, other)
        )

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __reduce__(self) -> tuple[Any, ...]:
        # (callable, args, state, list items): pickle and copy rebuild a
        # Node and append the children back, deep-copying them on demand
        return (Node, (self.name,), None, iter(self))

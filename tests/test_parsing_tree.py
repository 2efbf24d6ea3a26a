"""The parse-tree contract: a node is the list of its children.

:class:`~repro.parsing.tree.Node` subclasses ``list``, so each node is
one object for the cyclic garbage collector instead of a node plus a
child list.  These tests pin what that must not change: every backend
builds such nodes, equality is between nodes only, an empty node is
truthy, nodes are unhashable, the constructor copies, and pickle/copy
give back nodes at every level.

A rule activation whose children are exactly one node leaves that node
in its parent instead of wrapping it; the root is always the start
rule's node, and a node over a lone token is kept.  ``TestPassThrough``
pins that for every producer.
"""

from __future__ import annotations

import copy
import gc
import pickle

import pytest

from repro.lexer.token import Token
from repro.parsing import (
    CoverageMap,
    backend_names,
    generate_parser_source,
    get_backend,
    load_generated_parser,
)
from repro.parsing.tree import Node
from repro.sql import build_dialect, dialect_names
from repro.workloads import generate_workload

from tests.test_parsing_parser import TINY_SQL, tiny_tokens

#: The pinned sample every preset parses.
SAMPLE_SIZE = 12
SAMPLE_SEED = 1


def _nodes(tree):
    """Every node of ``tree``, depth first (any backend's node class)."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(c for c in node if isinstance(c, type(tree)))


@pytest.fixture(scope="module", params=dialect_names())
def preset(request):
    """(dialect, {backend: parser}, sample) per preset dialect."""
    dialect = request.param
    product = build_dialect(dialect)
    program = product.program()
    parsers = {
        name: get_backend(name).build(product, program=program, hints=False)
        for name in backend_names()
    }
    return dialect, parsers, generate_workload(
        dialect, SAMPLE_SIZE, seed=SAMPLE_SEED
    )


@pytest.fixture(scope="module")
def full_tree():
    return build_dialect("full").parser().parse(
        "SELECT a, b + 1 FROM t WHERE a = 'x' GROUP BY a ORDER BY b"
    )


@pytest.fixture(scope="module")
def export():
    from repro.grammar import read_grammar

    grammar = read_grammar(TINY_SQL, tokens=tiny_tokens())
    return load_generated_parser(generate_parser_source(grammar))


def _export_node(export):
    # the export embeds the served Node, constructor included
    return export.Node


@pytest.fixture(params=["library", "export"])
def kind(request, export):
    """(node factory, token factory) of the library or the ``--emit`` export."""
    if request.param == "library":
        return Node, lambda text: Token("IDENTIFIER", text)
    return (
        _export_node(export),
        lambda text: export.Token("IDENTIFIER", text, 1, 1, 0),
    )


class TestEveryBackend:
    def test_children_is_the_node_itself(self, preset):
        dialect, parsers, sample = preset
        assert set(parsers) == {"compiled", "interpreter", "generated"}
        for name, parser in parsers.items():
            for sql in sample:
                tree = parser.parse(sql)
                for node in _nodes(tree):
                    assert node.children is node, (dialect, name, sql)
                    assert isinstance(node, list)


class TestCollectorCount:
    """The GC-tracked objects a tree keeps alive are its nodes and tokens.

    A batch caller holds its trees while later collections run, and each
    collection traverses every tracked object that survived; with a
    separate child list per node there were twice as many per node.
    """

    @staticmethod
    def tracked(tree):
        """Tracked objects reachable from ``tree`` (classes excluded)."""
        seen = {id(tree): tree}
        stack = [tree]
        while stack:
            for ref in gc.get_referents(stack.pop()):
                if (
                    gc.is_tracked(ref)
                    and not isinstance(ref, type)
                    and id(ref) not in seen
                ):
                    seen[id(ref)] = ref
                    stack.append(ref)
        return list(seen.values())

    @pytest.mark.parametrize("backend", ["compiled", "interpreter"])
    def test_only_nodes_and_tokens_are_tracked(self, preset, backend):
        dialect, parsers, sample = preset
        for sql in sample:
            tree = parsers[backend].parse(sql)
            nodes = list(_nodes(tree))
            tokens = list(tree.tokens())
            tracked = self.tracked(tree)
            assert len(tracked) == len(nodes) + len(tokens), (dialect, sql)
            assert {id(o) for o in tracked} == {
                id(o) for o in nodes + tokens
            }


class TestEquality:
    def test_node_never_equals_a_list(self, kind):
        make, token = kind
        t = token("a")
        for node, items in ((make("x"), []), (make("x", [t]), [t])):
            assert not node == items
            assert not items == node
            assert node != items
            assert items != node

    def test_nodes_compare_on_name_and_children(self, kind):
        make, token = kind
        a, b = token("a"), token("b")
        assert make("x", [a]) == make("x", [a])
        assert not make("x", [a]) != make("x", [a])
        assert make("x", [a]) != make("y", [a])
        assert make("x") != make("y")
        assert make("x", [a]) != make("x", [b])
        assert make("x", [make("y")]) != make("x", [make("z")])

    def test_empty_node_is_truthy_and_unhashable(self, kind):
        make, _ = kind
        assert make("x")
        assert bool(make("x")) is True
        with pytest.raises(TypeError):
            hash(make("x"))


class TestConstruction:
    def test_children_are_copied_not_aliased(self):
        a, b = Token("IDENTIFIER", "a"), Token("IDENTIFIER", "b")
        kids = [a]
        node = Node("x", kids)
        kids.append(b)
        node.append(b)
        assert kids == [a, b]
        assert list(node) == [a, b]
        kids.pop()
        assert len(node) == 2

    def test_repr_is_unchanged(self):
        node = Node("select_list", [Token("IDENTIFIER", "a")])
        assert repr(node) == "<Node select_list with 1 children>"
        assert str(Node("x")) == "<Node x with 0 children>"

    def test_children_alias_is_read_only(self):
        with pytest.raises(AttributeError):
            Node("x").children = []

    def test_node_reads_as_its_child_list(self, full_tree):
        select_list = next(full_tree.find_all("select_list"))
        first, comma, second = select_list
        assert len(select_list) == 3
        assert select_list[1] is comma
        assert comma == Token("COMMA", ",", 1, 9, 8)
        assert select_list.node_children() == [first, second]
        # select_sublist passes through: the items are their expressions
        assert select_list.children_named("identifier") == [first]
        assert select_list.children_named("additive_expression") == [second]


def _pickled(protocol):
    return lambda tree: pickle.loads(pickle.dumps(tree, protocol=protocol))


ROUND_TRIPS = {
    **{
        f"pickle-{p}": _pickled(p)
        for p in range(pickle.HIGHEST_PROTOCOL + 1)
    },
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


class TestRoundTrips:
    @pytest.mark.parametrize("how", list(ROUND_TRIPS))
    def test_round_trip_keeps_nodes_at_every_level(self, full_tree, how):
        clone = ROUND_TRIPS[how](full_tree)
        assert clone is not full_tree
        assert clone == full_tree
        originals = list(_nodes(full_tree))
        clones = list(_nodes(clone))
        assert len(clones) == len(originals)
        for mine, theirs in zip(clones, originals):
            assert type(mine) is Node
            assert mine.children is mine
            assert mine.name == theirs.name
        assert list(clone.tokens()) == list(full_tree.tokens())

    def test_copy_is_shallow_and_deepcopy_is_deep(self, full_tree):
        shallow = copy.copy(full_tree)
        assert all(a is b for a, b in zip(shallow, full_tree))
        deep = copy.deepcopy(full_tree)
        assert all(a is not b for a, b in zip(deep, full_tree))


def _wrappers(tree):
    """The nodes below the root whose children are exactly one node."""
    node_class = type(tree)
    return [
        node
        for node in _nodes(tree)
        if node is not tree and len(node) == 1 and isinstance(node[0], node_class)
    ]


def _broken(sql: str) -> str:
    """``sql`` with a stray ``)`` after its first word: a syntax error."""
    head, _, tail = sql.partition(" ")
    return f"{head} ) {tail}"


class TestPassThrough:
    """No producer keeps a node that only wraps another node."""

    @pytest.fixture(scope="class")
    def guided(self, preset):
        dialect = preset[0]
        return generate_workload(dialect, SAMPLE_SIZE, seed=SAMPLE_SEED, mode="coverage")

    def test_every_backend_and_entry_point(self, preset, guided):
        dialect, parsers, sample = preset
        start = parsers["interpreter"].grammar.start
        program = parsers["interpreter"].program
        for sql in sample + guided:
            reference = parsers["interpreter"].parse(sql)
            for name, parser in parsers.items():
                tree = parser.parse(sql)
                assert tree.name == start, (dialect, name, sql)
                assert not _wrappers(tree), (dialect, name, sql)
                assert tree.to_sexpr() == reference.to_sexpr(), (dialect, name, sql)
                if name == "generated":
                    continue
                tokens = parser.scanner.scan(sql)
                assert parser.parse_tokens(tokens) == reference
                counted = parser.parse(sql, coverage=CoverageMap(program).collector())
                assert counted == reference, (dialect, name, sql)
                outcome = parser.parse_with_diagnostics(sql)
                assert outcome.ok and outcome.tree == reference, (dialect, name, sql)

    def test_recovery_partial_trees(self, preset, guided):
        dialect, parsers, sample = preset
        start = parsers["interpreter"].grammar.start
        program = parsers["interpreter"].program
        for sql in sample + guided:
            text = _broken(sql)
            reference = parsers["interpreter"].parse_with_diagnostics(text).tree
            for name in ("compiled", "interpreter"):
                parser = parsers[name]
                for coverage in (None, CoverageMap(program).collector()):
                    outcome = parser.parse_with_diagnostics(text, coverage=coverage)
                    assert not outcome.ok
                    tree = outcome.tree
                    assert tree.name == start, (dialect, name, text)
                    assert not _wrappers(tree), (dialect, name, text)
                    assert tree == reference, (dialect, name, text)

    def test_a_start_override_keeps_its_root(self, preset):
        dialect, parsers, _ = preset
        for name, parser in parsers.items():
            tree = parser.parse("a = 1", start="search_condition")
            # search_condition always passes through: the root re-wraps
            assert tree.name == "search_condition", (dialect, name)
            assert [c.name for c in tree] == ["predicate"]
            assert not _wrappers(tree)

    def test_the_shape_of_a_minimal_query(self, preset):
        dialect, parsers, _ = preset
        for name, parser in parsers.items():
            # a lone token keeps its node; a lone node is left in place
            assert parser.parse("SELECT a FROM t").to_sexpr() == (
                "(sql_script (query_specification SELECT (identifier a)"
                " (from_clause FROM (identifier t))))"
            ), (dialect, name)


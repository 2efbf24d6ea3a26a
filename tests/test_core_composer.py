"""Tests for the grammar composition engine.

Every example from Section 3.2 of the paper appears here verbatim (E4's
correctness basis):

* composing ``A: BC`` with ``A: B`` — B is replaced with BC,
* composing ``A: B`` with ``A: BC`` — BC is retained,
* composing ``A: B`` with ``A: C`` — appended to ``A : B | C``,
* optionals compose after the non-optional base only,
* sublists compose ahead of complex lists.
"""

import pytest

from repro.core import CompositionTrace, GrammarComposer, covers
from repro.errors import CompositionOrderError
from repro.grammar import Opt, Ref, Rep, Tok, opt, plus, read_grammar, seq
from repro.lexer import TokenSet, literal


def g(text, name="g", tokens=()):
    return read_grammar(text, name=name, tokens=TokenSet(name, tokens))


def alts(grammar, rule_name):
    return grammar.rule(rule_name).alternatives


class TestCovers:
    def test_longer_sequence_covers_prefix(self):
        assert covers(seq(Ref("b"), Ref("c")), Ref("b"))

    def test_shorter_does_not_cover_longer(self):
        assert not covers(Ref("b"), seq(Ref("b"), Ref("c")))

    def test_equal_covers(self):
        assert covers(seq(Ref("b"), Ref("c")), seq(Ref("b"), Ref("c")))

    def test_optional_covers_plain(self):
        assert covers(seq(Ref("b"), opt(Ref("c"))), seq(Ref("b"), Ref("c")))

    def test_optional_covers_base_without_it(self):
        assert covers(seq(Ref("b"), opt(Ref("c"))), Ref("b"))

    def test_list_covers_single_item(self):
        lst = plus(Ref("b"), separator=Tok("COMMA"))
        assert covers(lst, Ref("b"))

    def test_unrelated_do_not_cover(self):
        assert not covers(Ref("b"), Ref("c"))

    def test_in_order_embedding_required(self):
        assert not covers(seq(Ref("c"), Ref("b")), seq(Ref("b"), Ref("c")))

    def test_star_covers_plus(self):
        assert covers(Rep(Ref("b"), min=0), Rep(Ref("b"), min=1))
        assert not covers(Rep(Ref("b"), min=1), Rep(Ref("b"), min=0))


class TestPaperRule1Replace:
    """Composing A: BC with A: B — the production B is replaced with BC."""

    def test_new_contains_old_replaces(self):
        base = g("a : b ;")
        ext = g("a : b c ;")
        composed = GrammarComposer().compose(base, ext)
        assert alts(composed, "a") == [seq(Ref("b"), Ref("c"))]

    def test_replacement_recorded_in_trace(self):
        trace = CompositionTrace()
        GrammarComposer().compose(g("a : b ;"), g("a : b c ;"), trace=trace)
        assert len(trace.replaced) == 1
        assert trace.replaced[0][0] == "a"

    def test_new_covering_multiple_olds_collapses_them(self):
        base = g("a : b | b c ;")
        ext = g("a : b c d ;")
        composed = GrammarComposer().compose(base, ext)
        assert alts(composed, "a") == [seq(Ref("b"), Ref("c"), Ref("d"))]


class TestPaperRule2Retain:
    """Composing A: B with A: BC — the production BC is retained."""

    def test_new_contained_in_old_is_dropped(self):
        base = g("a : b c ;")
        ext = g("a : b ;")
        composed = GrammarComposer().compose(base, ext)
        assert alts(composed, "a") == [seq(Ref("b"), Ref("c"))]

    def test_retention_recorded_in_trace(self):
        trace = CompositionTrace()
        GrammarComposer().compose(g("a : b c ;"), g("a : b ;"), trace=trace)
        assert len(trace.retained) == 1


class TestPaperRule3Append:
    """Composing A: B with A: C — appended to obtain A : B | C."""

    def test_unrelated_appended_as_choice(self):
        composed = GrammarComposer().compose(g("a : b ;"), g("a : c ;"))
        assert alts(composed, "a") == [Ref("b"), Ref("c")]

    def test_duplicate_alternative_not_duplicated(self):
        composed = GrammarComposer().compose(g("a : b ;"), g("a : b ;"))
        assert alts(composed, "a") == [Ref("b")]

    def test_append_recorded_in_trace(self):
        trace = CompositionTrace()
        GrammarComposer().compose(g("a : b ;"), g("a : c ;"), trace=trace)
        assert trace.appended == [("a", "c")]


class TestOptionalOrdering:
    """A: B then A: B[C] composes; the reverse order is an error (strict)."""

    def test_base_then_optional_extension(self):
        base = g("a : b ;")
        ext = g("a : b [c] ;")
        composed = GrammarComposer().compose(base, ext)
        assert alts(composed, "a") == [seq(Ref("b"), Opt(Ref("c")))]

    def test_prefix_optional_form(self):
        base = g("a : b ;")
        ext = g("a : [c] b ;")
        composed = GrammarComposer().compose(base, ext)
        assert alts(composed, "a") == [seq(Opt(Ref("c")), Ref("b"))]

    def test_optional_before_base_rejected_in_strict_mode(self):
        base = g("a : b [c] ;")
        ext = g("a : b ;")
        with pytest.raises(CompositionOrderError):
            GrammarComposer(strict_order=True).compose(base, ext)

    def test_optional_before_base_tolerated_in_lenient_mode(self):
        base = g("a : b [c] ;")
        ext = g("a : b ;")
        composed = GrammarComposer(strict_order=False).compose(base, ext)
        assert alts(composed, "a") == [seq(Ref("b"), Opt(Ref("c")))]


class TestSublistOrdering:
    """Sublist composes ahead of the complex list: A: B then A: B [, B]."""

    def test_sublist_then_complex_list(self):
        base = g("a : b ;")
        ext = g("a : b (COMMA b)* ;", tokens=[literal("COMMA", ",")])
        composed = GrammarComposer().compose(base, ext)
        assert alts(composed, "a") == [plus(Ref("b"), separator=Tok("COMMA"))]

    def test_complex_list_before_sublist_rejected_in_strict_mode(self):
        base = g("a : b (COMMA b)* ;", tokens=[literal("COMMA", ",")])
        ext = g("a : b ;")
        with pytest.raises(CompositionOrderError):
            GrammarComposer(strict_order=True).compose(base, ext)

    def test_plain_containment_never_raises(self):
        # rule 2 with no optionals involved stays silent even in strict mode
        base = g("a : b c ;")
        ext = g("a : b ;")
        composed = GrammarComposer(strict_order=True).compose(base, ext)
        assert alts(composed, "a") == [seq(Ref("b"), Ref("c"))]


class TestOptionalInterleaving:
    """Independent optional clauses merge into one production (Figure 2).

    ``table_expression : from [where]`` composed with
    ``table_expression : from [group_by]`` yields
    ``table_expression : from [where] [group_by]`` — optionals are placed
    after their anchors in composition order.
    """

    def test_two_optional_clauses_merge(self):
        base = g("te : from_clause ;")
        where = g("te : from_clause where_clause? ;")
        group = g("te : from_clause group_by? ;")
        composer = GrammarComposer()
        composed = composer.compose(composer.compose(base, where), group)
        assert alts(composed, "te") == [
            seq(Ref("from_clause"), Opt(Ref("where_clause")), Opt(Ref("group_by")))
        ]

    def test_composition_order_decides_optional_order(self):
        base = g("te : from_clause ;")
        where = g("te : from_clause where_clause? ;")
        group = g("te : from_clause group_by? ;")
        composer = GrammarComposer()
        composed = composer.compose(composer.compose(base, group), where)
        assert alts(composed, "te") == [
            seq(Ref("from_clause"), Opt(Ref("group_by")), Opt(Ref("where_clause")))
        ]

    def test_prefix_optionals_merge_before_anchor(self):
        base = g("qe : body order_by? ;")
        with_clause = g("qe : with_clause? body ;")
        composed = GrammarComposer().compose(base, with_clause)
        assert alts(composed, "qe") == [
            seq(Opt(Ref("with_clause")), Ref("body"), Opt(Ref("order_by")))
        ]

    def test_figure2_full_clause_chain(self):
        composer = GrammarComposer()
        composed = g("te : from_clause ;")
        for clause in ("where_clause", "group_by", "having", "window"):
            composed = composer.compose(composed, g(f"te : from_clause {clause}? ;"))
        (alt,) = alts(composed, "te")
        assert str(alt) == (
            "from_clause where_clause? group_by? having? window?"
        )

    def test_duplicate_optional_not_duplicated(self):
        base = g("te : from_clause where_clause? ;")
        again = g("te : from_clause where_clause? ;")
        composed = GrammarComposer().compose(base, again)
        (alt,) = alts(composed, "te")
        assert str(alt) == "from_clause where_clause?"

    def test_different_cores_still_append(self):
        base = g("p : IS NULL_KW ;")  # NULL_KW avoids keyword clash in test
        other = g("p : IN_KW value ;")
        composed = GrammarComposer().compose(base, other)
        assert len(alts(composed, "p")) == 2

    def test_merge_recorded_in_trace(self):
        trace = CompositionTrace()
        GrammarComposer().compose(
            g("te : f w? ;"), g("te : f h? ;"), trace=trace
        )
        assert len(trace.merged) == 1
        assert "optional-merged" in trace.summary()

    def test_all_optional_alternatives_not_merged(self):
        base = g("x : a? ;")
        other = g("x : b? ;")
        composed = GrammarComposer().compose(base, other)
        assert len(alts(composed, "x")) == 2


class TestWholeGrammarComposition:
    def test_new_rules_added(self):
        composed = GrammarComposer().compose(g("a : b ;"), g("x : Y ;"))
        assert composed.has_rule("a") and composed.has_rule("x")

    def test_token_sets_merged(self):
        base = g("a : X ;", tokens=[literal("X", "x")])
        ext = g("a : X Y ;", tokens=[literal("Y", "y")])
        composed = GrammarComposer().compose(base, ext)
        assert composed.tokens.names() == {"X", "Y"}

    def test_base_start_retained(self):
        base = g("grammar b ;\nstart a ;\na : X ;")
        ext = g("grammar e ;\nstart z ;\nz : Y ;")
        composed = GrammarComposer().compose(base, ext)
        assert composed.start == "a"

    def test_compose_all_folds_in_order(self):
        composed = GrammarComposer().compose_all(
            [g("a : b ;"), g("a : b c ;"), g("a : d ;")], name="folded"
        )
        assert composed.name == "folded"
        assert alts(composed, "a") == [seq(Ref("b"), Ref("c")), Ref("d")]

    def test_operands_not_mutated(self):
        base = g("a : b ;")
        ext = g("a : b c ;")
        GrammarComposer().compose(base, ext)
        assert alts(base, "a") == [Ref("b")]

    def test_compose_leaves_base_and_extension_unmodified(self):
        base = g("a : X ;\nb : X ;", name="base", tokens=[literal("X", "x")])
        ext = g(
            "a : X Y ;\nc : Y ;", name="ext",
            tokens=[literal("X", "x"), literal("Y", "y")],
        )

        def state(grammar):
            return (
                grammar.name, grammar.start,
                [(r.name, list(r.alternatives)) for r in grammar],
                [(d, grammar.tokens._origins[d.name]) for d in grammar.tokens],
                grammar.tokens.name,
            )

        before = state(base), state(ext)
        composed = GrammarComposer().compose(base, ext)
        assert (state(base), state(ext)) == before
        assert composed.tokens is not base.tokens
        assert composed.tokens.names() == {"X", "Y"}
        assert alts(composed, "a") == [seq(Tok("X"), Tok("Y"))]

    def test_remove_rules(self):
        trace = CompositionTrace()
        composed = GrammarComposer().remove_rules(
            g("a : b ;\nb : X ;"), ("b",), trace=trace
        )
        assert not composed.has_rule("b")
        assert trace.removed_rules == ["b"]

    def test_remove_missing_rule_is_noop(self):
        composed = GrammarComposer().remove_rules(g("a : b ;"), ("zz",))
        assert composed.has_rule("a")

    def test_trace_summary_readable(self):
        trace = CompositionTrace()
        GrammarComposer().compose(g("a : b ;"), g("a : c ;"), trace=trace)
        assert "appended" in trace.summary()


class TestWorkedExample:
    """The paper's worked example: Query Specification composed step by step."""

    BASE = """
    grammar query_specification ;
    start query_specification ;
    query_specification : SELECT select_list table_expression ;
    select_list : select_sublist ;
    select_sublist : IDENTIFIER ;
    table_expression : from_clause ;
    from_clause : FROM table_reference ;
    table_reference : IDENTIFIER ;
    """

    QUANTIFIER = """
    query_specification : SELECT set_quantifier? select_list table_expression ;
    set_quantifier : DISTINCT | ALL ;
    """

    WHERE = """
    table_expression : from_clause where_clause? ;
    where_clause : WHERE IDENTIFIER ;
    """

    MULTI_COLUMN = """
    select_list : select_sublist (COMMA select_sublist)* ;
    """

    def compose_example(self):
        composer = GrammarComposer()
        composed = g(self.BASE, name="qs")
        composed = composer.compose(composed, g(self.QUANTIFIER))
        composed = composer.compose(composed, g(self.WHERE))
        composed = composer.compose(composed, g(self.MULTI_COLUMN))
        return composed

    def test_quantifier_replaces_base_production(self):
        composed = self.compose_example()
        qs = alts(composed, "query_specification")
        assert len(qs) == 1
        assert "set_quantifier?" in str(qs[0])

    def test_where_extends_table_expression(self):
        composed = self.compose_example()
        te = alts(composed, "table_expression")
        assert len(te) == 1
        assert "where_clause?" in str(te[0])

    def test_sublist_upgraded_to_complex_list(self):
        composed = self.compose_example()
        sl = alts(composed, "select_list")
        assert sl == [plus(Ref("select_sublist"), separator=Tok("COMMA"))]

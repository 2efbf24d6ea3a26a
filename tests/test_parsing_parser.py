"""Tests for the recursive-descent parser interpreter."""

import pytest

from repro.errors import LLConflictError, ParseError
from repro.grammar import read_grammar
from repro.lexer import (
    TokenSet,
    keyword,
    literal,
    pattern,
    standard_skip_tokens,
)
from repro.parsing import Parser


def tiny_tokens():
    return TokenSet(
        "tiny",
        standard_skip_tokens()
        + [
            keyword("select"),
            keyword("from"),
            keyword("where"),
            keyword("distinct"),
            keyword("all"),
            literal("COMMA", ","),
            literal("ASTERISK", "*"),
            literal("EQ", "="),
            literal("LPAREN", "("),
            literal("RPAREN", ")"),
            pattern("NUMBER", r"\d+", priority=10),
            pattern("IDENTIFIER", r"[A-Za-z_][A-Za-z0-9_]*", priority=1),
        ],
    )


TINY_SQL = """
grammar tiny ;
start query ;

query : SELECT set_quantifier? select_list FROM table_name where_clause? ;
set_quantifier : DISTINCT | ALL ;
select_list : ASTERISK | column (COMMA column)* ;
column : IDENTIFIER ;
table_name : IDENTIFIER ;
where_clause : WHERE condition ;
condition : IDENTIFIER EQ operand ;
operand : IDENTIFIER | NUMBER ;
"""


@pytest.fixture
def parser():
    return Parser(read_grammar(TINY_SQL, tokens=tiny_tokens()))


class TestBasicParsing:
    def test_minimal_query(self, parser):
        tree = parser.parse("SELECT a FROM t")
        assert tree.name == "query"
        # a select list of one column passes through to the column
        assert tree.child("column").text() == "a"
        assert tree.child("table_name").text() == "t"

    def test_star_select(self, parser):
        tree = parser.parse("SELECT * FROM t")
        assert tree.child("select_list").has_token("ASTERISK")

    def test_optional_quantifier(self, parser):
        tree = parser.parse("SELECT DISTINCT a FROM t")
        assert tree.child("set_quantifier").has_token("DISTINCT")
        tree2 = parser.parse("SELECT a FROM t")
        assert tree2.child("set_quantifier") is None

    def test_column_list(self, parser):
        tree = parser.parse("SELECT a, b, c FROM t")
        cols = tree.child("select_list").children_named("column")
        assert [c.text() for c in cols] == ["a", "b", "c"]

    def test_where_clause(self, parser):
        tree = parser.parse("SELECT a FROM t WHERE x = 1")
        cond = tree.child("where_clause").child("condition")
        assert cond.child("operand").text() == "1"

    def test_case_insensitive_keywords(self, parser):
        assert parser.accepts("select a from t where x = y")


class TestRejection:
    def test_missing_from(self, parser):
        assert not parser.accepts("SELECT a")

    def test_trailing_garbage(self, parser):
        assert not parser.accepts("SELECT a FROM t t2")

    def test_double_quantifier(self, parser):
        assert not parser.accepts("SELECT DISTINCT ALL a FROM t")

    def test_trailing_comma(self, parser):
        assert not parser.accepts("SELECT a, FROM t")

    def test_empty_input(self, parser):
        assert not parser.accepts("")


class TestErrors:
    def test_error_position_and_expected(self, parser):
        with pytest.raises(ParseError) as exc:
            parser.parse("SELECT a WHERE")
        err = exc.value
        assert err.line == 1
        assert err.column == 10
        assert "FROM" in err.expected or "COMMA" in err.expected

    def test_error_at_end_of_input(self, parser):
        with pytest.raises(ParseError) as exc:
            parser.parse("SELECT a FROM")
        assert "end of input" in str(exc.value)

    def test_error_mentions_expected_terminals(self, parser):
        with pytest.raises(ParseError) as exc:
            parser.parse("SELECT FROM t")
        assert exc.value.expected  # non-empty

    def test_hint_provider_raising_type_error_leaves_the_error_hintless(
        self, parser
    ):
        calls = []

        def provider(token, expected):
            calls.append((token.text, expected))
            raise TypeError("broken provider")

        hinted = Parser(parser.grammar, hint_provider=provider)
        with pytest.raises(ParseError) as plain:
            parser.parse("SELECT a WHERE")
        with pytest.raises(ParseError) as exc:
            hinted.parse("SELECT a WHERE")
        assert str(exc.value) == str(plain.value)
        assert exc.value.expected == plain.value.expected
        assert exc.value.hints == ()
        # asked once, with the token and the terminals expected there
        assert calls == [("WHERE", plain.value.expected)]
        outcome = hinted.parse_with_diagnostics("SELECT a WHERE")
        (diagnostic,) = outcome.diagnostics
        assert diagnostic.hints == ()


class TestStartRuleOverride:
    def test_parse_sub_rule(self, parser):
        tree = parser.parse("x = 5", start="condition")
        assert tree.name == "condition"


class TestStrictMode:
    def test_ll1_grammar_accepted(self):
        g = read_grammar("a : X | Y ;", tokens=TokenSet("t", [
            literal("X", "x"), literal("Y", "y")]))
        Parser(g, strict=True)  # should not raise

    def test_non_ll1_grammar_rejected(self):
        g = read_grammar(
            "a : X Y | X Z ;",
            tokens=TokenSet(
                "t", [literal("X", "x"), literal("Y", "y"), literal("Z", "z")]
            ),
        )
        with pytest.raises(LLConflictError):
            Parser(g, strict=True)

    def test_backtracking_handles_non_ll1(self):
        g = read_grammar(
            "a : X Y | X Z ;",
            tokens=TokenSet(
                "t",
                standard_skip_tokens()
                + [literal("X", "x"), literal("Y", "y"), literal("Z", "z")],
            ),
        )
        p = Parser(g)
        assert p.accepts("x y")
        assert p.accepts("x z")
        assert not p.accepts("x x")


class TestRepetitionEdgeCases:
    def test_plus_requires_one(self):
        g = read_grammar(
            "a : X+ ;",
            tokens=TokenSet("t", standard_skip_tokens() + [literal("X", "x")]),
        )
        p = Parser(g)
        assert not p.accepts("")
        assert p.accepts("x")
        assert p.accepts("x x x")

    def test_star_accepts_empty(self):
        g = read_grammar(
            "a : X* END ;",
            tokens=TokenSet(
                "t",
                standard_skip_tokens()
                + [literal("X", "x"), literal("END", ".")],
            ),
        )
        p = Parser(g)
        assert p.accepts(".")
        assert p.accepts("x x .")

    def test_separator_owned_by_outer_context(self):
        # the list's separator also appears after the list; the parser must
        # give the trailing separator back to the outer rule
        g = read_grammar(
            "a : item (COMMA item)* COMMA END ;\nitem : X ;",
            tokens=TokenSet(
                "t",
                standard_skip_tokens()
                + [literal("COMMA", ","), literal("X", "x"), literal("END", ".")],
            ),
        )
        p = Parser(g)
        assert p.accepts("x , x , .")
        assert p.accepts("x , .")


class TestParseTreeShape:
    def test_sexpr_rendering(self, parser):
        tree = parser.parse("SELECT a FROM t", )
        s = tree.to_sexpr()
        assert s.startswith("(query")
        assert "(column a)" in s

    def test_tokens_in_source_order(self, parser):
        tree = parser.parse("SELECT a, b FROM t")
        texts = [t.text for t in tree.tokens()]
        assert texts == ["SELECT", "a", ",", "b", "FROM", "t"]


class TestAcceptsResourceLimits:
    """Resource exhaustion (E0202) counts as rejection, never a crash."""

    def test_accepts_with_per_call_step_budget(self, parser):
        text = "SELECT a FROM t WHERE x = 1"
        assert parser.accepts(text)
        assert parser.accepts(text, max_steps=2) is False

    def test_accepts_with_constructor_step_budget(self):
        from repro.grammar import read_grammar

        limited = Parser(read_grammar(TINY_SQL, tokens=tiny_tokens()),
                         max_steps=2)
        assert limited.accepts("SELECT a FROM t") is False

    def test_parse_raises_where_accepts_rejects(self, parser):
        from repro.errors import ParseBudgetExceeded

        tokens = parser.scanner.scan("SELECT a FROM t")
        with pytest.raises(ParseBudgetExceeded):
            parser.parse_tokens(tokens, max_steps=2)
        assert parser.accepts("SELECT a FROM t", max_steps=2) is False

    def test_accepts_treats_depth_limit_as_rejection(self):
        from repro.grammar import read_grammar

        nest = read_grammar(
            "grammar nest ;\nstart expr ;\n"
            "expr : NUMBER | LPAREN expr RPAREN ;",
            tokens=tiny_tokens(),
        )
        shallow = Parser(nest, max_depth=10)
        assert shallow.accepts("((1))")
        deep = "(" * 50 + "1" + ")" * 50
        assert shallow.accepts(deep) is False

    def test_generous_budget_still_accepts(self, parser):
        assert parser.accepts("SELECT a, b FROM t WHERE x = y",
                              max_steps=100_000)

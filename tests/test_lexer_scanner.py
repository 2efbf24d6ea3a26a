"""Unit tests for the longest-match scanner."""

import pytest

from repro.errors import ScanError
from repro.lexer import (
    EOF,
    Scanner,
    TokenSet,
    keyword,
    literal,
    pattern,
    standard_skip_tokens,
)
from repro.sql import build_dialect, dialect_names
from repro.workloads import generate_workload


def sql_like_token_set(extra_keywords=()):
    defs = standard_skip_tokens() + [
        keyword("select"),
        keyword("from"),
        keyword("where"),
        literal("COMMA", ","),
        literal("ASTERISK", "*"),
        literal("EQ", "="),
        literal("LE", "<="),
        literal("LT", "<"),
        pattern("UNSIGNED_INTEGER", r"\d+", priority=10),
        pattern("IDENTIFIER", r"[A-Za-z_][A-Za-z0-9_]*", priority=1),
        pattern("STRING_LITERAL", r"'(?:[^']|'')*'", priority=11),
    ]
    defs += [keyword(k) for k in extra_keywords]
    return TokenSet("sql-like", defs)


@pytest.fixture
def scanner():
    return Scanner(sql_like_token_set())


class TestScanner:
    def test_simple_statement(self, scanner):
        toks = scanner.scan("SELECT a FROM t")
        assert [t.type for t in toks] == [
            "SELECT",
            "IDENTIFIER",
            "FROM",
            "IDENTIFIER",
            EOF,
        ]

    def test_keywords_are_case_insensitive(self, scanner):
        toks = scanner.scan("select From WHERE")
        assert [t.type for t in toks][:-1] == ["SELECT", "FROM", "WHERE"]
        assert toks[0].text == "select"  # original text preserved

    def test_non_keyword_identifier_stays_identifier(self, scanner):
        toks = scanner.scan("selection")
        assert toks[0].type == "IDENTIFIER"

    def test_longest_match_on_operators(self, scanner):
        toks = scanner.scan("a <= 1 < 2")
        assert [t.type for t in toks][:-1] == [
            "IDENTIFIER",
            "LE",
            "UNSIGNED_INTEGER",
            "LT",
            "UNSIGNED_INTEGER",
        ]

    def test_string_literal_with_escaped_quote(self, scanner):
        toks = scanner.scan("'it''s'")
        assert toks[0].type == "STRING_LITERAL"
        assert toks[0].text == "'it''s'"

    def test_positions_track_lines_and_columns(self, scanner):
        toks = scanner.scan("SELECT a\nFROM t")
        from_tok = toks[2]
        assert from_tok.type == "FROM"
        assert (from_tok.line, from_tok.column) == (2, 1)
        t_tok = toks[3]
        assert (t_tok.line, t_tok.column) == (2, 6)

    def test_comments_are_skipped(self, scanner):
        toks = scanner.scan("SELECT -- everything\n a /* really\neverything */ ,")
        assert [t.type for t in toks][:-1] == ["SELECT", "IDENTIFIER", "COMMA"]

    def test_scan_error_on_unknown_character(self, scanner):
        with pytest.raises(ScanError) as exc:
            scanner.scan("a ; b")
        assert exc.value.line == 1
        assert exc.value.column == 3

    def test_eof_token_always_last(self, scanner):
        assert scanner.scan("")[-1].type == EOF
        assert scanner.scan("a")[-1].type == EOF

    def test_tailored_keyword_set_frees_identifiers(self):
        """Ablation A3: a dialect without GROUP as keyword can use it as a name."""
        small = Scanner(sql_like_token_set())
        big = Scanner(sql_like_token_set(extra_keywords=["group"]))
        assert small.scan("group")[0].type == "IDENTIFIER"
        assert big.scan("group")[0].type == "GROUP"

    def test_offsets_are_character_offsets(self, scanner):
        toks = scanner.scan("SELECT a")
        assert toks[0].offset == 0
        assert toks[1].offset == 7


def _shape(tokens):
    return [(t.type, t.text, t.line, t.column, t.offset) for t in tokens]


@pytest.fixture(scope="module", params=dialect_names())
def preset(request):
    """(dialect name, that preset's scanner)."""
    return request.param, Scanner(build_dialect(request.param).grammar.tokens)


class TestFastLoopParity:
    """``scan``'s fast loop agrees with the precise ``tokens`` loop."""

    TEXTS = [
        "",
        " \n\t ",
        "SELECT a,\n  b\nFROM t\n\n  WHERE a = 1",
        "SELECT a -- trailing comment\nFROM t /* block\ncomment */ WHERE b = 'x\ny'",
        "sElEcT DiStInCt a FrOm t wHeRe a iS nOt NuLl oRdEr By a",
    ]

    def test_clean_input_takes_the_fast_loop_with_identical_tokens(self, preset):
        name, scanner = preset
        for text in generate_workload(name, count=60, seed=5) + self.TEXTS:
            fast = scanner._fast_scan(text)
            assert fast is not None, text  # no fallback hides a mismatch
            assert _shape(fast) == _shape(scanner.tokens(text)), text
            assert _shape(scanner.scan(text)) == _shape(fast)
            tokens, diagnostics = scanner.scan_with_diagnostics(text)
            assert _shape(tokens) == _shape(fast) and diagnostics == []

    @pytest.mark.parametrize(
        "text, message, line, column",
        [
            ("@ SELECT a", "unexpected character '@'", 1, 1),
            ("SELECT a\nFROM t WHERE @@ = 1", "unexpected character '@'", 2, 14),
            ("SELECT a FROM t `", "unexpected character '`'", 1, 17),
        ],
    )
    def test_unmatchable_input_raises_the_precise_scan_error(
        self, preset, text, message, line, column
    ):
        _name, scanner = preset
        with pytest.raises(ScanError) as precise:
            list(scanner.tokens(text))
        with pytest.raises(ScanError) as fast:
            scanner.scan(text)
        assert str(fast.value) == str(precise.value)
        assert message in str(fast.value)
        assert (fast.value.line, fast.value.column) == (line, column)
        assert (precise.value.line, precise.value.column) == (line, column)

    def test_unmatchable_input_gets_the_precise_diagnostics(self, preset):
        _name, scanner = preset
        text = "SELECT a\nFROM t WHERE @@ = 1 `"
        tokens, diagnostics = scanner.scan_with_diagnostics(text)
        assert _shape(tokens) == _shape(scanner.tokens(text, recover=True))
        assert [
            (d.code, d.message, d.span.line, d.span.column, d.span.end_column)
            for d in diagnostics
        ] == [
            ("E0101", "unexpected characters '@@' (2 characters skipped)",
             2, 14, 16),
            ("E0101", "unexpected character '`'", 2, 21, 22),
        ]

"""Unit tests for the longest-match scanner."""

import copy
import pickle
import random
import time
from dataclasses import make_dataclass

import pytest

from repro.errors import ReproError, ScanError
from repro.lexer import (
    EOF,
    Scanner,
    Token,
    TokenSet,
    keyword,
    literal,
    pattern,
    standard_skip_tokens,
)
from repro.sql import build_dialect, build_sql_product_line, dialect_names
from repro.workloads import coverage_guided_workload, generate_workload


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


def assert_fast_matches_precise(scanner, text, context=""):
    """The fast loop gives up exactly when the precise loop raises, and
    otherwise yields the precise loop's tokens."""
    fast = scanner._fast_scan(text)
    try:
        precise = list(scanner.tokens(text))
    except ScanError:
        assert fast is None, (context, text)
        return
    assert fast is not None, (context, text)  # no fallback hides a mismatch
    assert _shape(fast) == _shape(precise), (context, text)


#: The frozen dataclass ``Token`` used to be: the reference for its contract.
DataclassToken = make_dataclass(
    "Token",
    [("type", str), ("text", str), ("line", int, 1), ("column", int, 1),
     ("offset", int, 0)],
    frozen=True,
    slots=True,
)


class TestTokenContract:
    ARGS = [
        ("SELECT", "select", 1, 1, 0),
        ("STRING_LITERAL", "'it''s\n\"é\"'", 3, 14, 52),
        ("EOF", "", 2, 7, 30),
    ]

    @pytest.mark.parametrize("args", ARGS)
    def test_equal_tokens_compare_and_hash_equal(self, args):
        assert Token(*args) == Token(*args)
        assert not Token(*args) != Token(*args)
        assert hash(Token(*args)) == hash(Token(*args))
        assert len({Token(*args), Token(*args)}) == 1

    def test_defaults_match_the_dataclass(self):
        assert Token("A", "a") == Token("A", "a", 1, 1, 0)
        assert repr(Token("A", "a")) == repr(DataclassToken("A", "a"))

    @pytest.mark.parametrize("field", range(5))
    def test_a_token_differing_in_any_field_is_unequal(self, field):
        args = list(self.ARGS[1])
        other = list(args)
        other[field] = other[field] + (1 if isinstance(other[field], int) else "x")
        assert Token(*args) != Token(*other)
        assert not Token(*args) == Token(*other)

    def test_other_objects_are_unequal(self):
        token = Token(*self.ARGS[0])
        for other in (self.ARGS[0], list(self.ARGS[0]),
                      DataclassToken(*self.ARGS[0]), "select", None):
            assert token != other and other != token
            assert not token == other

    @pytest.mark.parametrize("args", ARGS)
    def test_repr_is_the_dataclass_repr(self, args):
        assert repr(Token(*args)) == repr(DataclassToken(*args))

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trips_at_every_protocol(self, protocol):
        for args in self.ARGS:
            back = pickle.loads(pickle.dumps(Token(*args), protocol))
            assert type(back) is Token and back == Token(*args)

    def test_copy_and_deepcopy_round_trip(self):
        token = Token(*self.ARGS[1])
        for clone in (copy.copy(token), copy.deepcopy(token)):
            assert type(clone) is Token and clone == token

    def test_instances_have_no_dict(self):
        token = Token(*self.ARGS[0])
        assert not hasattr(token, "__dict__")
        with pytest.raises(AttributeError):
            token.extra = 1


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

    #: Token sets the fast pattern must not get wrong, each with texts
    #: whose scan would change if it did: skip tokens that must not all
    #: join its prefix, and token texts its alternatives must keep apart.
    UNUSUAL = {
        # LINE_COMMENT ranks below DASHES: ``--`` scans as a token
        "skip after a non-skip pattern": (
            TokenSet("late-skip", [
                pattern("SPACE", r"[ \n]+", priority=9, skip=True),
                pattern("DASHES", r"-+", priority=5),
                pattern("WORD", r"[a-z]+", priority=3),
                pattern("LINE_COMMENT", r"--[^\n]*", priority=1, skip=True),
                pattern("HASH_COMMENT", r"#[^\n]*", priority=0, skip=True),
            ]),
            ["", "a -- b", "--x\ny", "a #c\n  b", "#c", "a b  ", "a ! b", " \n"],
        ),
        # SPACE matches the empty string, so every other character is a
        # zero-width skip match and unmatchable
        "skip matching the empty string": (
            TokenSet("empty-skip", [
                pattern("SPACE", r"[ ]*", priority=9, skip=True),
                pattern("NEWLINE", r"\n", priority=8, skip=True),
                pattern("WORD", r"[a-z]+", priority=3),
            ]),
            ["", "   ", "a", " a", "a b", "\n", " \n "],
        ),
        # token patterns with their own capturing groups (the match's
        # lastindex must still name the token) and a top-level ``|``;
        # literals made of regex metacharacters; and VARIABLE's first
        # character starting the later literal SUBST, which matches
        # where VARIABLE fails
        "capturing groups and metacharacters": (
            TokenSet("grouped", [
                pattern("SPACE", r"[ \n]+", priority=9, skip=True),
                pattern("PAIR", r"(a)(b)?", priority=5),
                pattern("EXES", r"x|xy", priority=4),
                pattern("VARIABLE", r"\$(\w+)", priority=3),
                pattern("NUMBER", r"(\d+)(\.\d*)?", priority=2),
                pattern("IDENTIFIER", r"[c-zC-Z][a-zA-Z]*", priority=1),
                keyword("select"),
                literal("CONCAT", "||"),
                literal("PIPE", "|"),
                literal("STAR_DOT", ".*"),
                literal("DOT", "."),
                literal("SUBST", "$("),
                literal("RPAREN", ")"),
            ]),
            ["", "a", "ab abab aab", "x xy xyz", "$v $( v )", "$(x)$y",
             "1.5 1. 12.", "1.5.5", "a||ab | |||", "a.*ab . .* ..*",
             "select x SELECT", "ab\n  $(x)\n", "a\n ab", "b", "a @ ab",
             "$"],
        ),
    }

    @pytest.mark.parametrize("kind", sorted(UNUSUAL))
    def test_unusual_skip_tokens_scan_as_in_the_precise_loop(self, kind):
        token_set, texts = self.UNUSUAL[kind]
        scanner = Scanner(token_set)
        for text in texts:
            assert_fast_matches_precise(scanner, text, kind)
            tokens, _diagnostics = scanner.scan_with_diagnostics(text)
            assert _shape(tokens) == _shape(scanner.tokens(text, recover=True))

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


class TestLinearTime:
    """Scanning stays linear in the length of a skip run, whatever ends
    it: an unmatchable character, a token, the end of the text."""

    INPUTS = {
        "spaces then an unmatchable character": " " * 200_000 + "@",
        "newlines then a token": "\n" * 200_000 + "x",
        "trailing spaces": "x" + " " * 200_000,
        "line comments": "-- c\n" * 20_000,
    }

    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_long_skip_runs_scan_in_linear_time(self, name):
        scanner = Scanner(build_dialect("full").grammar.tokens)
        text = self.INPUTS[name]
        try:
            expected = _shape(scanner.tokens(text))
        except ScanError as exc:
            expected = str(exc)
        start = time.perf_counter()
        try:
            scanned = _shape(scanner.scan(text))
        except ScanError as exc:
            scanned = str(exc)
        elapsed = time.perf_counter() - start
        assert scanned == expected
        assert elapsed < 1.0, f"{name}: scan took {elapsed:.2f}s"
        start = time.perf_counter()
        tokens, _diagnostics = scanner.scan_with_diagnostics(text)
        elapsed = time.perf_counter() - start
        assert _shape(tokens) == _shape(scanner.tokens(text, recover=True))
        assert elapsed < 1.0, f"{name}: diagnostic scan took {elapsed:.2f}s"


def _reflow(text):
    """``text`` over several lines: every other space becomes a newline."""
    words = text.split(" ")
    return "".join(
        word + ("\n  " if i % 2 else " ") for i, word in enumerate(words)
    ).rstrip()


def _commented(text):
    """``text`` with a block comment after its first word, a line comment
    in the middle and one at the end."""
    words = text.split(" ")
    words.insert(1, "/* note */")
    words.insert(len(words) // 2, "-- middle\n")
    return " ".join(words) + " -- end"


class TestCustomSelectionParity:
    """Fast-vs-precise parity on scanners of sampled custom selections,
    not only the presets: random valid leaf selections, each one's
    coverage-guided workload as written, reflowed and commented."""

    SEED = 22
    SELECTIONS = 20

    def test_sampled_selections_scan_identically(self):
        line = build_sql_product_line()
        leaves = [feature.name for feature in line.model.leaves()]
        rng = random.Random(self.SEED)
        checked = 0
        for _attempt in range(10 * self.SELECTIONS):
            if checked == self.SELECTIONS:
                break
            pick = sorted(rng.sample(leaves, rng.randint(1, 8)))
            try:
                product = line.configure(pick)
                texts = coverage_guided_workload(product, 6, seed=self.SEED)
            except (ReproError, ValueError):
                continue  # an invalid, open or empty selection
            checked += 1
            scanner = Scanner(product.grammar.tokens)
            for text in texts:
                for variant in (text, _reflow(text), _commented(text)):
                    assert_fast_matches_precise(
                        scanner, variant, f"selection {pick}"
                    )
        assert checked == self.SELECTIONS

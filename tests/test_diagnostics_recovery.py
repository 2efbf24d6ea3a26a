"""Tests for scanner/parser error recovery and the fuel budget."""

import pytest

from repro.errors import ParseBudgetExceeded, ParseError, ScanError
from repro.grammar import read_grammar
from repro.lexer import ERROR, Scanner, TokenSet, keyword, literal, pattern, standard_skip_tokens
from repro.parsing import Parser
from repro.sql import build_dialect


def script_tokens():
    return TokenSet(
        "tiny-script",
        standard_skip_tokens()
        + [
            keyword("select"),
            keyword("from"),
            keyword("where"),
            literal("SEMICOLON", ";"),
            literal("COMMA", ","),
            literal("EQ", "="),
            literal("LPAREN", "("),
            literal("RPAREN", ")"),
            pattern("NUMBER", r"\d+", priority=10),
            pattern("IDENTIFIER", r"[A-Za-z_][A-Za-z0-9_]*", priority=1),
        ],
    )


SCRIPT_GRAMMAR = """
grammar tiny_script ;
start script ;

script : statement (SEMICOLON statement)* SEMICOLON? ;
statement : SELECT select_list FROM IDENTIFIER where_clause? ;
select_list : column (COMMA column)* ;
column : IDENTIFIER ;
where_clause : WHERE IDENTIFIER EQ operand ;
operand : IDENTIFIER | NUMBER | LPAREN operand RPAREN ;
"""


@pytest.fixture
def parser():
    return Parser(read_grammar(SCRIPT_GRAMMAR, tokens=script_tokens()))


class TestScannerRecovery:
    def test_default_scan_still_raises(self):
        scanner = Scanner(script_tokens())
        with pytest.raises(ScanError):
            scanner.scan("select @ from t")

    def test_recovery_emits_error_token_and_continues(self):
        scanner = Scanner(script_tokens())
        tokens, diags = scanner.scan_with_diagnostics("select @ from t")
        types = [t.type for t in tokens]
        assert ERROR in types
        assert types[-1] == "EOF"
        assert [t.type for t in tokens if t.type != ERROR] == [
            "SELECT", "FROM", "IDENTIFIER", "EOF",
        ]
        assert len(diags) == 1
        assert diags[0].span.column == 8

    def test_consecutive_bad_characters_group_into_one_token(self):
        scanner = Scanner(script_tokens())
        tokens, diags = scanner.scan_with_diagnostics("select a from t @@%#")
        errors = [t for t in tokens if t.type == ERROR]
        assert len(errors) == 1
        assert errors[0].text == "@@%#"
        assert len(diags) == 1
        assert "4 characters" in diags[0].message

    def test_bad_run_at_end_of_input_is_reported(self):
        scanner = Scanner(script_tokens())
        tokens, diags = scanner.scan_with_diagnostics("@@")
        assert [t.type for t in tokens] == [ERROR, "EOF"]
        assert diags[0].span.column == 1

    def test_positions_survive_recovery(self):
        scanner = Scanner(script_tokens())
        tokens, _ = scanner.scan_with_diagnostics("select\n@ a")
        identifier = [t for t in tokens if t.type == "IDENTIFIER"][0]
        assert (identifier.line, identifier.column) == (2, 3)


class TestParserRecovery:
    def test_clean_input_has_no_diagnostics(self, parser):
        outcome = parser.parse_with_diagnostics(
            "select a from t; select b from u"
        )
        assert outcome.ok
        assert len(outcome.diagnostics) == 0
        assert len(outcome.tree.children_named("statement")) == 2

    def test_three_seeded_errors_all_reported_with_partial_tree(self, parser):
        # error 1: '=' with no operand; error 2: misspelled keyword;
        # error 3: unscannable junk in the third statement
        source = (
            "select a from t where a = ;"
            " selec b from u;"
            " select c from v where c = @@"
        )
        outcome = parser.parse_with_diagnostics(source)
        assert not outcome.ok
        errors = [d for d in outcome.diagnostics if d.is_error]
        assert len(errors) >= 3
        # every span lies inside the input
        lines = source.splitlines() or [source]
        for diag in errors:
            assert diag.span is not None
            assert 1 <= diag.span.line <= len(lines)
            assert 1 <= diag.span.column <= len(lines[diag.span.line - 1]) + 2
        # the partial tree still holds the statements that did parse
        statements = outcome.tree.children_named("statement")
        assert len(statements) >= 2

    def test_recovery_synchronizes_on_semicolons(self, parser):
        outcome = parser.parse_with_diagnostics(
            "select from t; select b from u"
        )
        errors = [d for d in outcome.diagnostics if d.is_error]
        assert len(errors) == 1
        # second statement recovered cleanly
        assert any(
            tok.text == "b"
            for stmt in outcome.tree.children_named("statement")
            for tok in stmt.tokens()
        )

    def test_sync_set_is_follow_derived(self, parser):
        program = parser.program
        sync = program.sync[program.rule_ids["script"]]
        assert "SEMICOLON" in sync
        assert "RPAREN" in sync
        assert "EOF" in sync

    def test_max_errors_truncates_with_note(self, parser):
        source = "; ".join("select 1 from" for _ in range(10))
        outcome = parser.parse_with_diagnostics(source, max_errors=3)
        errors = [d for d in outcome.diagnostics if d.is_error]
        assert len(errors) == 3
        assert outcome.diagnostics.truncated
        assert any(d.code == "N0001" for d in outcome.diagnostics)

    def test_max_errors_zero_is_clamped_to_one(self, parser):
        # a zero-capacity bag must not report invalid input as accepted
        outcome = parser.parse_with_diagnostics("select a", max_errors=0)
        assert not outcome.ok
        errors = [d for d in outcome.diagnostics if d.is_error]
        assert len(errors) == 1

    def test_garbage_only_input_does_not_raise(self, parser):
        outcome = parser.parse_with_diagnostics("@@ %% ^^")
        assert not outcome.ok
        assert outcome.tree is not None

    def test_empty_input_reports_one_error(self, parser):
        outcome = parser.parse_with_diagnostics("")
        errors = [d for d in outcome.diagnostics if d.is_error]
        assert len(errors) == 1

    def test_classic_parse_still_raises(self, parser):
        with pytest.raises(ParseError):
            parser.parse("select from t")


class TestParseBudget:
    def test_budget_raises_clean_error(self, parser):
        tokens = parser.scanner.scan("select a from t where a = 1")
        with pytest.raises(ParseBudgetExceeded) as excinfo:
            parser.parse_tokens(tokens, max_steps=3)
        assert excinfo.value.steps > 3
        assert excinfo.value.span is not None

    def test_constructor_level_budget(self):
        grammar = read_grammar(SCRIPT_GRAMMAR, tokens=script_tokens())
        tight = Parser(grammar, max_steps=2)
        assert not tight.accepts("select a from t")  # rejected, not hung

    def test_generous_budget_parses_normally(self, parser):
        tokens = parser.scanner.scan("select a, b from t where a = 1")
        tree = parser.parse_tokens(tokens, max_steps=100_000)
        assert tree.name == "script"

    def test_diagnostics_path_converts_budget_to_diagnostic(self, parser):
        outcome = parser.parse_with_diagnostics(
            "select a from t", max_steps=3
        )
        assert any(d.code == "E0202" for d in outcome.diagnostics)

    def test_deep_nesting_is_bounded_on_diagnostics_path(self, parser):
        # unclosed parens force repeated failures; must terminate quickly
        source = "select a from t where a = " + "(" * 200
        outcome = parser.parse_with_diagnostics(source, max_errors=5)
        assert not outcome.ok


class TestSqlPipelineRecovery:
    def test_core_dialect_multi_statement_recovery(self):
        parser = build_dialect("core").parser()
        outcome = parser.parse_with_diagnostics(
            "SELECT a FROM t WHERE;"
            " SELEC b FROM u;"
            " SELECT c FROM v"
        )
        errors = [d for d in outcome.diagnostics if d.is_error]
        assert len(errors) == 2
        # sql_statement passes through: each statement is its query
        assert len(outcome.tree.children_named("query_specification")) == 2

    def test_renders_with_carets(self):
        parser = build_dialect("core").parser()
        outcome = parser.parse_with_diagnostics("SELECT a FRM t")
        rendered = outcome.render(filename="<q>")
        assert "^" in rendered
        assert "<q>:1:" in rendered

    def test_database_diagnose_never_raises(self):
        from repro.engine import Database

        db = Database("core")
        report = db.diagnose("SELECT * FROM; @@ SELECT")
        assert not report.ok
        assert report.tree is not None

"""Tests for the parse-program IR: compilation, execution, serialization.

The program is the single compiled semantics source behind the
interpreter, the code generator, the diagnostics sync sets, and the
service disk cache, so these tests pin down its structure and its
round-trip stability.
"""

import json

import pytest

from repro.grammar import read_grammar
from repro.lexer import TokenSet, literal, standard_skip_tokens
from repro.lexer.scanner import Scanner
from repro.parsing import (
    IR_VERSION,
    ParseProgram,
    Parser,
    compile_program,
    program_fingerprint,
)
from repro.parsing.program import (
    OP_CALL,
    OP_CHOICE,
    OP_MATCH,
    OP_SEPLOOP,
    OP_SEQ,
)
from repro.sql import build_dialect, dialect_names
from repro.workloads import generate_workload

from tests.test_parsing_parser import TINY_SQL, tiny_tokens


@pytest.fixture(scope="module")
def program():
    return compile_program(read_grammar(TINY_SQL, tokens=tiny_tokens()))


class TestCompilation:
    def test_rules_and_tokens_are_interned(self, program):
        assert program.rule_names[program.rule_ids["query"]] == "query"
        assert program.start == program.rule_ids["query"]
        assert program.start_name() == "query"
        assert "SELECT" in program.token_ids
        assert "EOF" in program.token_ids
        assert len(program.code) == len(program.rule_names)

    def test_single_token_rule_compiles_to_match(self, program):
        body = program.code[program.rule_ids["column"]]
        assert body[0] == OP_MATCH
        assert body[1] == "IDENTIFIER"

    def test_rule_body_is_tuple_encoded(self, program):
        body = program.code[program.rule_ids["query"]]
        assert body[0] == OP_SEQ
        assert isinstance(body[1], tuple)
        assert body[1][0][:2] == (OP_MATCH, "SELECT")

    def test_choice_carries_dispatch_table(self, program):
        # set_quantifier : DISTINCT | ALL
        body = program.code[program.rule_ids["set_quantifier"]]
        assert body[0] == OP_CHOICE
        dispatch, default, expected = body[1], body[2], body[3]
        assert expected == {"DISTINCT", "ALL"}
        assert set(dispatch) == {"DISTINCT", "ALL"}
        # neither alternative is nullable: unknown lookahead has no default
        assert default == ()
        # each lookahead selects exactly its own alternative
        assert len(dispatch["DISTINCT"]) == 1
        assert dispatch["DISTINCT"][0][:2] == (OP_MATCH, "DISTINCT")

    def test_follow_and_sync_sets(self, program):
        rid = program.rule_ids["select_list"]
        assert "FROM" in program.follow[rid]
        sync = program.sync_for(rid)
        assert "FROM" in sync
        assert "EOF" in sync
        # consumable statement boundaries present in the token set
        assert "RPAREN" in sync
        assert program.consumable == ("RPAREN",)

    def test_expected_at_start(self, program):
        rid = program.rule_ids["query"]
        assert program.expected_at_start(rid) == {"SELECT"}

    def test_size_metrics(self, program):
        size = program.size()
        assert size["rules"] == len(program.rule_names)
        assert size["instructions"] > size["rules"]
        assert size["dispatch_entries"] > 0

    def test_fingerprint_embedding(self):
        grammar = read_grammar(TINY_SQL, tokens=tiny_tokens())
        program = compile_program(grammar, fingerprint="abc123")
        assert program.fingerprint == "abc123"


class TestExecution:
    def test_parser_drives_compiled_program(self, program):
        grammar = read_grammar(TINY_SQL, tokens=tiny_tokens())
        parser = Parser(grammar, program=program)
        assert parser.program is program
        tree = parser.parse("SELECT a, b FROM t WHERE x = 1")
        assert tree.name == "query"
        assert parser.accepts("SELECT * FROM t")
        assert not parser.accepts("SELECT FROM t")

    def test_deserialized_program_parses_identically(self, program):
        grammar = read_grammar(TINY_SQL, tokens=tiny_tokens())
        reloaded = ParseProgram.from_json(program.to_json())
        original = Parser(grammar, program=program)
        revived = Parser(grammar, program=reloaded)
        for text in ("SELECT a FROM t", "SELECT DISTINCT a, b FROM t WHERE x = y"):
            assert (
                original.parse(text).to_sexpr() == revived.parse(text).to_sexpr()
            )
        for text in ("SELECT a,", "WHERE", ""):
            assert not revived.accepts(text)

    def test_seploop_gives_separator_back(self):
        tokens = TokenSet(
            "t",
            standard_skip_tokens()
            + [literal("COMMA", ","), literal("X", "x"), literal("END", ".")],
        )
        g = read_grammar("a : item (COMMA item)* COMMA END ;\nitem : X ;",
                         tokens=tokens)
        program = compile_program(g)
        body = program.code[program.rule_ids["a"]]
        assert any(i[0] == OP_SEPLOOP for i in body[1])
        parser = Parser(g, program=program)
        assert parser.accepts("x , x , .")
        assert parser.accepts("x , .")


class TestSerialization:
    def test_round_trip_preserves_structure(self, program):
        reloaded = ParseProgram.from_json(program.to_json())
        assert reloaded.grammar_name == program.grammar_name
        assert reloaded.token_names == program.token_names
        assert reloaded.rule_names == program.rule_names
        assert reloaded.start == program.start
        assert reloaded.follow == program.follow
        assert reloaded.sync == program.sync
        assert reloaded.consumable == program.consumable
        assert reloaded.code == program.code

    @pytest.mark.parametrize("dialect", dialect_names())
    def test_round_trip_preserves_the_token_set(self, dialect):
        # the program carries its grammar's token definitions: the same
        # object in memory, and an equal set, in the same order, on disk
        product = build_dialect(dialect)
        program = product.program()
        assert program.token_set is product.grammar.tokens
        reloaded = ParseProgram.from_json(program.to_json())
        assert reloaded.token_set == product.grammar.tokens
        assert list(reloaded.token_set) == list(product.grammar.tokens)
        # so a scanner built from the loaded program is the product's
        loaded = Scanner(reloaded.token_set)
        served = Scanner(product.grammar.tokens)
        for text in generate_workload(dialect, 20, seed=7):
            assert loaded.scan(text) == served.scan(text)

    def test_fingerprint_survives_round_trip(self):
        grammar = read_grammar(TINY_SQL, tokens=tiny_tokens())
        program = compile_program(grammar, fingerprint="f" * 64)
        text = program.to_json()
        assert program_fingerprint(text) == "f" * 64
        assert ParseProgram.from_json(text).fingerprint == "f" * 64

    def test_version_mismatch_rejected(self, program):
        payload = json.loads(program.to_json())
        payload["version"] = IR_VERSION + 1
        with pytest.raises(ValueError):
            ParseProgram.from_json(json.dumps(payload))
        assert program_fingerprint(json.dumps(payload)) is None

    def test_garbage_rejected(self):
        for text in ("", "not json", "[]", json.dumps({"kind": "other"})):
            with pytest.raises(ValueError):
                ParseProgram.from_json(text)
            assert program_fingerprint(text) is None

    def test_call_references_stay_by_id(self, program):
        # CALL operands are interned rule ids, stable across the round trip
        body = program.code[program.rule_ids["where_clause"]]
        calls = [i for i in body[1] if i[0] == OP_CALL]
        assert calls and all(isinstance(c[1], int) for c in calls)


class TestListing:
    def test_listing_mentions_every_rule(self, program):
        listing = program.listing()
        for name in program.rule_names:
            assert f" {name}:" in listing
        assert "MATCH SELECT" in listing
        assert "FOLLOW" in listing and "SYNC" in listing

    def test_listing_shows_dispatch_metadata(self, program):
        listing = program.listing()
        assert "CHOICE expected" in listing
        assert "SEPLOOP" in listing

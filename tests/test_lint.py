"""Tests for the repro.lint static analyzer.

Covers the program-level passes (L0101–L0107) over a synthetic defective
grammar, rule/feature origin provenance on composed products, the
pairwise feature-interaction pass (L0120/L0121), report JSON round-trip,
baseline matching (including bracket-literal keys), the registry
lint gate, and the one FIRST/FOLLOW analysis lint and compile share.
"""

import dataclasses

import pytest

from repro.core import GrammarProductLine, unit
from repro.diagnostics import Severity
from repro.errors import LintGateError
from repro.features import FeatureModel, alternative, mandatory, optional
from repro.features.constraints import Excludes
from repro.grammar import read_grammar
from repro.lexer import (
    TokenSet,
    keyword,
    literal,
    pattern,
    standard_skip_tokens,
)
from repro.lint import (
    ALL_CODES,
    AnalysisReport,
    Baseline,
    BaselineEntry,
    Finding,
    TargetReport,
    analyze_grammar,
    analyze_product,
    check_feature_interactions,
    code_for,
    lint_products,
    render_baseline,
)
from repro.parsing import GrammarAnalysis
from repro.service import ParserRegistry

IDENT = pattern("IDENTIFIER", "[A-Za-z_][A-Za-z0-9_]*", priority=1)

# The acceptance fixture: one grammar exhibiting every program-level
# defect class.  WORD outranks IDENTIFIER, so keyword promotion for
# SELECT never happens (L0106) and WORD itself is never referenced
# (L0107).  `list` repeats a nullable item (L0103), `tail` is nullable
# with IDENTIFIER in both FIRST and FOLLOW (L0105), `value` repeats an
# alternative (L0102), `pick` has a partial lookahead overlap (L0104),
# and `orphan`/`value` hang off no CALL chain from `stmt` (L0101).
DEFECTIVE_GRAMMAR = """
stmt : SELECT list pair pick ;
list : item* ;
item : IDENTIFIER? ;
pair : tail IDENTIFIER ;
tail : IDENTIFIER? ;
pick : IDENTIFIER | choice2 ;
choice2 : IDENTIFIER BANG | BANG ;
value : IDENTIFIER | IDENTIFIER ;
orphan : value ;
"""


def defective_grammar():
    tokens = TokenSet(
        "defective",
        standard_skip_tokens()
        + [
            pattern("WORD", "[A-Za-z]+", priority=9),
            IDENT,
            keyword("select"),
            literal("BANG", "!"),
        ],
    )
    return read_grammar(DEFECTIVE_GRAMMAR, name="defective", tokens=tokens)


def make_line():
    """A small product line exercising provenance and interactions.

    TokA/TokB both define CONFLICT but are separated by an Excludes
    constraint; TokC conflicts with both and is co-selectable.  X1/X2
    conflict on XTOK but are ALTERNATIVE siblings.  Remover removes a
    rule Loopy contributes.
    """
    root = mandatory(
        "Root",
        optional("Loopy"),
        optional("TokA"),
        optional("TokB"),
        optional("TokC"),
        optional("Remover"),
        alternative("Alt", mandatory("X1"), mandatory("X2")),
    )
    model = FeatureModel(root, [Excludes("TokA", "TokB")])
    units = [
        unit(
            "Root",
            "stmt : IDENTIFIER ;",
            tokens=standard_skip_tokens() + [IDENT],
        ),
        unit("Loopy", "stmt : IDENTIFIER maybe* ;\nmaybe : IDENTIFIER? ;"),
        unit("TokA", tokens=[pattern("CONFLICT", "a+")]),
        unit("TokB", tokens=[pattern("CONFLICT", "b+")]),
        unit("TokC", tokens=[pattern("CONFLICT", "c+")]),
        unit("Remover", removes=("maybe",)),
        unit("X1", tokens=[pattern("XTOK", "x+")]),
        unit("X2", tokens=[pattern("XTOK", "y+")]),
    ]
    return GrammarProductLine(model, units, name="demo-line", start="stmt")


class TestProgramPasses:
    @pytest.fixture(scope="class")
    def report(self):
        return analyze_grammar(defective_grammar())

    def keys(self, report, code):
        return {f.anchor for f in report.findings if f.code.code == code}

    def test_every_program_code_fires(self, report):
        fired = {f.code.code for f in report.findings}
        assert fired == {
            "L0101", "L0102", "L0103", "L0104", "L0105", "L0106", "L0107",
        }

    def test_unreachable_rules(self, report):
        assert self.keys(report, "L0101") == {"value", "orphan"}

    def test_dead_alternative_anchor(self, report):
        assert self.keys(report, "L0102") == {"value/choice[0][1]"}

    def test_nullable_loop(self, report):
        assert self.keys(report, "L0103") == {"list/loop[0]"}
        (finding,) = [f for f in report.findings if f.code.code == "L0103"]
        assert finding.rule == "list"
        assert finding.graded is Severity.ERROR

    def test_first_first_conflict(self, report):
        assert "pick/choice[0][1]" in self.keys(report, "L0104")
        (finding,) = [
            f for f in report.findings if f.anchor == "pick/choice[0][1]"
        ]
        assert finding.detail["terminals"] == ["IDENTIFIER"]

    def test_first_follow_conflicts(self, report):
        assert {"item", "tail"} <= self.keys(report, "L0105")

    def test_shadowed_keyword(self, report):
        assert self.keys(report, "L0106") == {"SELECT"}
        (finding,) = [f for f in report.findings if f.code.code == "L0106"]
        assert "WORD" in finding.message
        assert finding.graded is Severity.ERROR

    def test_unused_token(self, report):
        assert self.keys(report, "L0107") == {"WORD"}

    def test_epsilon_choice_conflict(self):
        g = read_grammar(
            "a : b | c ;\nb : X? ;\nc : Y? ;",
            name="eps",
            tokens=TokenSet(
                "eps",
                standard_skip_tokens()
                + [literal("X", "x"), literal("Y", "y")],
            ),
        )
        report = analyze_grammar(g)
        anchors = {f.anchor for f in report.findings if f.code.code == "L0104"}
        assert "a/choice[0][epsilon]" in anchors

    def test_clean_grammar_is_clean(self):
        g = read_grammar(
            "stmt : IDENTIFIER BANG ;",
            name="clean",
            tokens=TokenSet(
                "clean",
                standard_skip_tokens() + [IDENT, literal("BANG", "!")],
            ),
        )
        report = analyze_grammar(g)
        assert report.findings == ()
        assert report.counts() == {"error": 0, "warning": 0, "info": 0}

    def test_keyword_case_promotion_not_flagged(self):
        # An ordinary keyword over an identifier pattern is reachable
        # via promotion and must NOT be reported as shadowed.
        g = read_grammar(
            "stmt : SELECT IDENTIFIER ;",
            name="kw",
            tokens=TokenSet(
                "kw", standard_skip_tokens() + [IDENT, keyword("select")]
            ),
        )
        report = analyze_grammar(g)
        assert not [f for f in report.findings if f.code.code == "L0106"]


class TestProvenance:
    def test_rule_and_token_origins_on_composed_product(self):
        line = make_line()
        product = line.configure(["Root", "Loopy", "X1"])
        report = analyze_product(product)
        by_code = {f.code.code: f for f in report.findings}
        # stmt was first contributed by Root; the refinement that makes
        # its loop nullable is attributed to the rule's origin feature
        assert by_code["L0103"].rule == "stmt"
        assert by_code["L0103"].feature == "Root"
        # maybe exists only because Loopy composed in
        assert by_code["L0105"].rule == "maybe"
        assert by_code["L0105"].feature == "Loopy"
        # XTOK is declared by X1's token file and referenced by nothing
        assert by_code["L0107"].anchor == "XTOK"
        assert by_code["L0107"].feature == "X1"
        assert report.fingerprint == product.fingerprint.digest

    def test_origin_appears_in_text_and_json(self):
        line = make_line()
        product = line.configure(["Root", "Loopy", "X1"])
        report = analyze_product(product)
        (loop,) = [f for f in report.findings if f.code.code == "L0103"]
        assert "[from feature Root]" in loop.format()
        assert loop.as_dict()["feature"] == "Root"


class TestInteractions:
    @pytest.fixture(scope="class")
    def result(self):
        return check_feature_interactions(make_line())

    def test_excluded_pair_not_checked(self, result):
        findings, _ = result
        pairs = {f.anchor.split("/")[0] for f in findings}
        assert "TokA+TokB" not in pairs  # Excludes constraint
        assert "X1+X2" not in pairs  # ALTERNATIVE siblings

    def test_token_conflicts_found(self, result):
        findings, _ = result
        conflicts = {
            f.anchor for f in findings if f.code.code == "L0120"
        }
        assert conflicts == {
            "TokA+TokC/CONFLICT",
            "TokB+TokC/CONFLICT",
        }
        (first, _) = sorted(
            (f for f in findings if f.code.code == "L0120"),
            key=lambda f: f.anchor,
        )
        assert first.detail["token"] == "CONFLICT"
        assert first.graded is Severity.ERROR

    def test_removes_rule_found(self, result):
        findings, _ = result
        (removal,) = [f for f in findings if f.code.code == "L0121"]
        assert removal.anchor == "Loopy+Remover/maybe"
        assert removal.detail["remover"] == "Remover"
        assert removal.detail["contributor"] == "Loopy"

    def test_pair_count_excludes_invalid_pairs(self, result):
        _, pairs_checked = result
        # C(8, 2) = 28 pairs, minus the Excludes pair and the XOR pair
        assert pairs_checked == 26

    def test_findings_target_the_line(self, result):
        findings, _ = result
        assert {f.target for f in findings} == {"line:demo-line"}


class TestReportSerialization:
    def build_report(self):
        line = make_line()
        product = line.configure(["Root", "Loopy", "X1"])
        return lint_products([product], line=line)

    def test_json_round_trip(self):
        report = self.build_report()
        loaded = AnalysisReport.from_json(report.to_json())
        assert loaded.counts() == report.counts()
        assert loaded.pairs_checked == report.pairs_checked
        assert [t.target for t in loaded.targets] == [
            t.target for t in report.targets
        ]
        original = {f.key: f for f in report.all_findings()}
        restored = {f.key: f for f in loaded.all_findings()}
        assert restored.keys() == original.keys()
        for key, finding in restored.items():
            assert finding.graded is original[key].graded
            assert finding.message == original[key].message
            assert finding.feature == original[key].feature

    def test_envelope_kind_and_version(self):
        payload = self.build_report().to_dict()
        assert payload["kind"] == "repro-lint-report"
        assert payload["version"] == 1

    def test_gate(self):
        report = self.build_report()
        assert not report.gate("error")  # L0103/L0120 are error-grade
        clean = AnalysisReport(
            [TargetReport(target="t", fingerprint=None, findings=())]
        )
        assert clean.gate("error")
        assert clean.gate("warning")

    def test_gate_warning_strictness(self):
        warning = Finding(
            code=code_for("L0104"),
            message="w",
            target="t",
            anchor="a",
        )
        report = AnalysisReport(
            [TargetReport(target="t", fingerprint=None, findings=(warning,))]
        )
        assert report.gate("error")
        assert not report.gate("warning")

    def test_render_mentions_counts_and_pairs(self):
        text = self.build_report().render()
        assert "lint — " in text
        assert "feature pairs checked" in text

    def test_all_codes_consistent(self):
        for code, definition in ALL_CODES.items():
            assert definition.code == code
            assert code_for(code) is definition
        assert code_for("L9999").code == "L9999"  # unknown fallback


class TestBaseline:
    def test_bracket_keys_match_literally(self):
        entry = BaselineEntry("L0102:defective:value/choice[0][1]")
        assert entry.matches("L0102:defective:value/choice[0][1]")
        assert not entry.matches("L0102:defective:value/choice[0][2]")

    def test_glob_star_and_question(self):
        entry = BaselineEntry("L0107:sql-*:?ORD")
        assert entry.matches("L0107:sql-core:WORD")
        assert not entry.matches("L0106:sql-core:WORD")

    def test_parse_comments_and_blanks(self):
        baseline = Baseline.parse(
            "# header comment\n"
            "\n"
            "L0101:t:a  # trailing comment\n"
            "L0102:t:*\n"
        )
        assert len(baseline) == 2
        assert baseline.entries[0].comment == "trailing comment"
        assert baseline.entries[0].line == 3

    def test_apply_baseline_suppresses_and_tracks_unused(self):
        report = analyze_grammar(defective_grammar())
        baseline = Baseline.parse(
            "L0103:defective:list/loop[0]\n"
            "L0106:defective:SELECT\n"
            "L0199:defective:never  # stale\n"
        )
        full = AnalysisReport([report])
        filtered = full.apply_baseline(baseline)
        assert filtered.suppressed() == 2
        remaining = {f.code.code for f in filtered.all_findings()}
        assert "L0103" not in remaining and "L0106" not in remaining
        assert filtered.gate("error")  # both errors were baselined
        assert [e.pattern for e in baseline.unused_entries()] == [
            "L0199:defective:never"
        ]

    def test_render_baseline_matches_its_own_findings(self):
        # the --write-baseline output must suppress exactly the findings
        # it was seeded from (regression: bracket anchors vs fnmatch)
        report = analyze_grammar(defective_grammar())
        baseline = Baseline.parse(render_baseline(report.findings))
        assert all(baseline.matches(f) for f in report.findings)
        assert not baseline.unused_entries()


class TestRegistryLintGate:
    def gate_line(self):
        root = mandatory("Root", optional("Loopy"))
        return GrammarProductLine(
            FeatureModel(root),
            [
                unit(
                    "Root",
                    "stmt : IDENTIFIER ;",
                    tokens=standard_skip_tokens() + [IDENT],
                ),
                unit(
                    "Loopy",
                    "stmt : IDENTIFIER maybe* ;\nmaybe : IDENTIFIER? ;",
                ),
            ],
            name="gate-line",
            start="stmt",
        )

    def test_clean_product_served(self):
        registry = ParserRegistry(self.gate_line(), lint_gate=True)
        entry = registry.get(["Root"])
        assert entry.product.grammar.rule_names() == ["stmt"]
        assert registry.metrics.counter("lint_checks") == 1
        assert registry.metrics.counter("lint_rejections") == 0

    def test_defective_product_rejected_and_not_cached(self):
        registry = ParserRegistry(self.gate_line(), lint_gate=True)
        with pytest.raises(LintGateError) as exc:
            registry.get(["Root", "Loopy"])
        assert exc.value.code == "E0303"
        assert any(f.code.code == "L0103" for f in exc.value.findings)
        assert len(registry) == 0
        # the rejection is re-derived, not served from cache
        with pytest.raises(LintGateError):
            registry.get(["Root", "Loopy"])
        assert registry.metrics.counter("lint_rejections") == 2

    def test_gate_off_by_default(self):
        registry = ParserRegistry(self.gate_line())
        entry = registry.get(["Root", "Loopy"])
        assert entry is not None
        assert registry.metrics.counter("lint_checks") == 0


class TestSharedAnalysis:
    """A product computes its FIRST/FOLLOW analysis once: compiling its
    program, linting it (the registry's lint gate, E12) and its parsers'
    LL(1) tables share it."""

    @pytest.fixture
    def analyses(self, monkeypatch):
        built = []
        init = GrammarAnalysis.__init__

        def counting_init(self, grammar):
            built.append(grammar)
            init(self, grammar)

        monkeypatch.setattr(GrammarAnalysis, "__init__", counting_init)
        return built

    def test_lint_gate_and_program_share_one_analysis(self, analyses):
        registry = ParserRegistry(
            TestRegistryLintGate().gate_line(), lint_gate=True
        )
        entry = registry.get(["Root"])
        entry.program()
        assert registry.metrics.counter("lint_checks") == 1
        assert analyses == [entry.product.grammar]

    def test_lint_reuses_the_analysis_program_computed(self, analyses):
        product = TestRegistryLintGate().gate_line().configure(["Root"])
        program = product.program()
        report = analyze_product(product)
        assert report.target == product.name
        assert analyses == [product.grammar]
        assert product.program() is program
        assert len(analyses) == 1

    def test_parser_table_reuses_the_product_analysis(self, analyses):
        product = TestRegistryLintGate().gate_line().configure(["Root"])
        parser = product.parser()
        assert parser.table.metrics()
        assert parser.analysis is product.analysis
        assert product.parser(strict=True).table is not None
        assert analyses == [product.grammar]

    def test_a_replaced_copy_starts_without_the_analysis(self, analyses):
        product = TestRegistryLintGate().gate_line().configure(["Root"])
        product.program()
        clone = dataclasses.replace(product)
        assert clone == product and repr(clone) == repr(product)
        assert "analysis" not in vars(clone)
        clone.program()
        assert len(analyses) == 2 and clone.analysis is not product.analysis


class TestPresetDialects:
    def test_presets_have_no_error_grade_findings(self):
        from repro.lint import lint_sql_dialects

        report = lint_sql_dialects(["scql", "tinysql"])
        assert report.gate("error")

    def test_repo_baseline_covers_all_preset_warnings(self):
        from pathlib import Path

        from repro.lint import lint_sql_dialects

        baseline = Baseline.load(
            Path(__file__).resolve().parent.parent / "lint-baseline.txt"
        )
        report = lint_sql_dialects(baseline=baseline)
        assert report.gate("warning"), report.render()

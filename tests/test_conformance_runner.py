"""The conformance runner: shipped corpus, failure shapes, JSON report."""

import json

import pytest

from repro.conformance import (
    CONFORMANCE_REPORT_VERSION,
    ConformanceCase,
    ConformanceRunner,
    Corpus,
    run_conformance,
)
from repro.conformance.runner import (
    COMPILED,
    GENERATED,
    INTERPRETER,
    TRANSPILER,
)


def case(name="probe", dialects=("scql",), expect="accept",
         sql="SELECT a FROM t", **kwargs):
    return ConformanceCase(
        name=name, path="<test>", dialects=tuple(dialects), expect=expect,
        sql=sql, **kwargs,
    )


class TestShippedCorpus:
    def test_every_check_passes(self):
        """The repo's own corpus is green on every preset dialect,
        through every registered parse backend."""
        report, runner = run_conformance()
        assert set(runner.dialects) == {
            "scql", "tinysql", "core", "analytics", "full"
        }
        assert report.ok, "\n" + report.render()
        counts = report.counts()
        assert counts["failed"] == 0
        assert counts["checks"] == len(report.results)
        # every parse backend ran, plus the transpiler for translation cases
        backends = {r.backend for r in report.results}
        assert backends == {INTERPRETER, COMPILED, GENERATED, TRANSPILER}

    def test_collect_coverage_keeps_collectors(self):
        report, runner = run_conformance(
            dialects=["scql"], collect_coverage=True
        )
        assert report.ok
        collector = runner.collectors["scql"]
        assert collector.score() > 0
        assert collector.map.program is runner.programs["scql"]


class TestRunnerMechanics:
    def test_dialects_default_to_corpus_mentions(self):
        corpus = Corpus(cases=[case(dialects=("core", "scql"))])
        runner = ConformanceRunner(corpus=corpus)
        # preset order, not mention order
        assert runner.dialects == ("scql", "core")

    def test_unknown_dialect_rejected(self):
        with pytest.raises(ValueError, match="unknown dialects"):
            ConformanceRunner(
                corpus=Corpus(cases=[case()]), dialects=["nope"]
            )

    def test_wrong_accept_expectation_fails_every_backend(self):
        corpus = Corpus(
            cases=[case(expect="reject", sql="SELECT a FROM t")]
        )
        report = ConformanceRunner(corpus=corpus).run()
        assert not report.ok
        failed = report.failed()
        assert {r.backend for r in failed} == {
            INTERPRETER, COMPILED, GENERATED,
        }
        assert any(
            "expected rejection" in f for r in failed for f in r.failures
        )

    def test_wrong_reject_expectation_carries_diagnostic(self):
        corpus = Corpus(
            cases=[case(expect="accept", sql="SELECT a FROM t ORDER BY a")]
        )
        report = ConformanceRunner(corpus=corpus).run()
        interp = [r for r in report.failed() if r.backend == INTERPRETER]
        assert interp and any(
            "expected accept, got rejection" in f
            for f in interp[0].failures
        )

    def test_code_message_hint_assertions(self):
        corpus = Corpus(cases=[
            case(
                name="wrong-code", expect="reject", sql="SELECT FROM t",
                code="E9999",
            ),
            case(
                name="wrong-message", expect="reject", sql="SELECT FROM t",
                message="no such text anywhere",
            ),
            case(
                name="wrong-hint", expect="reject", sql="SELECT FROM t",
                hint="enable feature 'Imaginary'",
            ),
        ])
        report = ConformanceRunner(
            corpus=corpus, backends=(INTERPRETER,)
        ).run()
        failures = {r.case: r.failures for r in report.failed()}
        assert any("expected code E9999" in f for f in failures["wrong-code"])
        assert any(
            "no diagnostic message contains" in f
            for f in failures["wrong-message"]
        )
        assert any(
            "no diagnostic hint contains" in f for f in failures["wrong-hint"]
        )

    def test_a_cache_dir_changes_no_product_name(self, tmp_path):
        corpus = Corpus(cases=[case(dialects=("scql", "core"))])
        names = []
        for cache_dir in (None, str(tmp_path)):
            runner = ConformanceRunner(corpus=corpus, cache_dir=cache_dir)
            assert runner.run().ok
            names.append({d: p.name for d, p in runner.products.items()})
        assert names[0] == names[1] == {"scql": "sql-scql", "core": "sql-core"}

    def test_translation_cases_run_on_the_runners_registry(self, tmp_path):
        corpus = Corpus(cases=[case(
            dialects=("core",), expect="translates-to", to="scql",
            output="SELECT a FROM t",
        )])
        runner = ConformanceRunner(
            corpus=corpus, backends=(INTERPRETER,), cache_dir=str(tmp_path)
        )
        assert runner.run().ok
        # the verify reparse published the target's program there too
        assert len(list(tmp_path.glob("*.ir.json"))) == 2

    def test_interpreter_only_backend_selection(self):
        report = ConformanceRunner(
            corpus=Corpus(cases=[case()]), backends=(INTERPRETER,)
        ).run()
        assert {r.backend for r in report.results} == {INTERPRETER}


class TestReportShape:
    def test_json_schema(self):
        corpus = Corpus(cases=[case(), case(name="bad", expect="reject")])
        report = ConformanceRunner(corpus=corpus).run()
        data = json.loads(report.to_json())
        assert data["kind"] == "repro-conformance-report"
        assert data["version"] == CONFORMANCE_REPORT_VERSION
        assert data["dialects"] == ["scql"]
        assert data["cases"] == 2
        assert data["checks"] == data["passed"] + data["failed"]
        for result in data["results"]:
            assert set(result) == {
                "case", "dialect", "backend", "expect", "passed", "failures"
            }

    def test_render_lists_failures(self):
        corpus = Corpus(cases=[case(name="broken", expect="reject")])
        report = ConformanceRunner(
            corpus=corpus, backends=(INTERPRETER,)
        ).run()
        text = report.render()
        assert "FAIL broken [scql/interpreter]" in text

    def test_render_caps_failure_listing(self):
        corpus = Corpus(cases=[
            case(name=f"broken-{i}", expect="reject") for i in range(5)
        ])
        report = ConformanceRunner(
            corpus=corpus, backends=(INTERPRETER,)
        ).run()
        text = report.render(max_failures=2)
        assert "+3 more failures" in text


class TestTranslationChecks:
    def run_case(self, **kwargs):
        corpus = Corpus(cases=[case(**kwargs)])
        report = ConformanceRunner(
            corpus=corpus, backends=(INTERPRETER,)
        ).run()
        (result,) = report.results
        assert result.backend == TRANSPILER
        return result

    def test_translates_to_passes_with_exact_output(self):
        result = self.run_case(
            dialects=("full",), expect="translates-to", to="core",
            sql="SELECT a FROM t INNER JOIN u ON a = b",
            output="SELECT a FROM t JOIN u ON a = b",
        )
        assert result.passed, result.failures

    def test_translates_to_fails_on_wrong_output(self):
        result = self.run_case(
            dialects=("core",), expect="translates-to", to="core",
            sql="SELECT a FROM t", output="SELECT b FROM t",
        )
        assert not result.passed
        assert any("expected output" in f for f in result.failures)

    def test_translates_to_fails_when_refused(self):
        result = self.run_case(
            dialects=("core",), expect="translates-to", to="scql",
            sql="SELECT t.a FROM t",
        )
        assert not result.passed
        assert any("E0401" in f for f in result.failures)

    def test_untranslatable_passes_with_code_and_hint(self):
        result = self.run_case(
            dialects=("core",), expect="untranslatable", to="scql",
            sql="SELECT t.a FROM t", code="E0401",
            hint="enable feature 'QualifiedNames'",
        )
        assert result.passed, result.failures

    def test_untranslatable_fails_when_translation_succeeds(self):
        result = self.run_case(
            dialects=("core",), expect="untranslatable", to="analytics",
            sql="SELECT a FROM t",
        )
        assert not result.passed
        assert any("refused" in f for f in result.failures)

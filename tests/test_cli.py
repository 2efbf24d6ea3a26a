"""Tests for the command-line configurator."""


from repro.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCli:
    def test_diagrams(self, capsys):
        code, out, __ = run(capsys, "diagrams")
        assert code == 0
        assert "query_specification" in out
        assert "foundation diagrams" in out

    def test_show_figure1(self, capsys):
        code, out, __ = run(capsys, "show", "QuerySpecification")
        assert code == 0
        assert "[SetQuantifier]" in out
        assert "SelectSublist [1..*]" in out

    def test_show_unknown_feature(self, capsys):
        code, __, err = run(capsys, "show", "Bogus")
        assert code == 1
        assert "no such feature" in err

    def test_dialects_table(self, capsys):
        code, out, __ = run(capsys, "dialects")
        assert code == 0
        for name in ("scql", "tinysql", "core", "analytics", "full"):
            assert name in out

    def test_features_listing(self, capsys):
        code, out, __ = run(capsys, "features", "tinysql")
        assert code == 0
        assert "SamplePeriod" in out

    def test_compose_with_query(self, capsys):
        code, out, __ = run(
            capsys,
            "compose",
            "Where",
            "ComparisonPredicate",
            "Literals",
            "-q",
            "SELECT a FROM t WHERE b = 1",
        )
        assert code == 0
        assert "accepted" in out
        assert "sequence:" in out

    def test_compose_rejects_out_of_dialect(self, capsys):
        code, out, __ = run(
            capsys, "compose", "Where", "ComparisonPredicate", "Literals",
            "-q", "SELECT a FROM t ORDER BY a",
        )
        assert code == 1
        assert "rejected" in out

    def test_compose_emit(self, capsys, tmp_path):
        target = tmp_path / "parser.py"
        code, out, __ = run(
            capsys, "compose", "--dialect", "scql", "--emit", str(target)
        )
        assert code == 0
        assert target.exists()
        source = target.read_text()
        assert "def parse(" in source

    def test_compose_without_selection_fails(self, capsys):
        code, __, err = run(capsys, "compose")
        assert code == 1
        assert "select features" in err

    def test_sample(self, capsys):
        code, out, __ = run(capsys, "sample", "scql", "-n", "4", "--seed", "9")
        assert code == 0
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == 4

    def test_sampled_sentences_parse(self, capsys):
        from repro.sql import build_dialect

        code, out, __ = run(capsys, "sample", "core", "-n", "5")
        parser = build_dialect("core").parser()
        for line in out.splitlines():
            if line.strip():
                assert parser.accepts(line), line[:120]


class TestIrArtifactsCli:
    def test_listing_tells_corrupt_from_stale(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.sql import dialect_features, sql_parser_registry

        registry = sql_parser_registry()
        # --cache repoints the shared registry; restore it afterwards
        monkeypatch.setattr(registry.store, "directory", None)
        entry = registry.get(dialect_features("scql"))
        entry.program()  # in memory, so the command reads no file
        path = tmp_path / f"{entry.fingerprint.digest}.ir.json"
        argv = ("ir", "--dialect", "scql", "--cache", str(tmp_path),
                "--artifacts")
        path.write_text("{not json")
        code, out, __ = run(capsys, *argv)
        assert code == 0
        assert f"corrupt  {path}" in out
        entry.publish_worker_artifacts(tmp_path)
        path.write_text(
            path.read_text().replace(entry.fingerprint.digest, "0" * 64, 1)
        )
        __, out, __ = run(capsys, *argv)
        assert f"stale  {path}" in out


class TestConformanceCli:
    def test_conformance_single_dialect(self, capsys):
        code, out, __ = run(capsys, "conformance", "--dialect", "scql")
        assert code == 0
        assert "checks passed" in out

    def test_conformance_json(self, capsys):
        import json

        code, out, __ = run(capsys, "conformance", "--dialect", "scql", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "repro-conformance-report"
        assert data["version"] == 1
        assert data["failed"] == 0

    def test_conformance_failure_exits_nonzero(self, capsys, tmp_path):
        (tmp_path / "broken.case").write_text(
            "case: wrong-expectation\n"
            "dialects: scql\n"
            "expect: reject\n"
            "\n"
            "SELECT a FROM t\n"
        )
        code, out, __ = run(
            capsys, "conformance", "--corpus", str(tmp_path)
        )
        assert code == 1
        assert "FAIL wrong-expectation" in out

    def test_conformance_bad_corpus_reported(self, capsys, tmp_path):
        code, __, err = run(
            capsys, "conformance", "--corpus", str(tmp_path / "missing")
        )
        assert code == 1
        assert "corpus" in err


class TestCoverageCli:
    def test_coverage_text_report(self, capsys):
        code, out, __ = run(
            capsys, "coverage", "--dialect", "tinysql", "--no-generate"
        )
        assert code == 0
        assert "coverage — " in out
        assert "overall:" in out

    def test_coverage_json_report(self, capsys):
        import json

        code, out, __ = run(
            capsys, "coverage", "--dialect", "tinysql", "--no-generate",
            "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "repro-coverage-report"
        assert data["version"] == 1
        assert [d["name"] for d in data["dialects"]]

    def test_coverage_guided_generation_closes_gap(self, capsys):
        """Without --no-generate the guided generator runs until dry and
        lifts rule coverage to (near) the reachable maximum."""
        code, out, __ = run(
            capsys, "coverage", "--dialect", "scql", "--json",
            "--fail-under", "95",
        )
        assert code == 0
        import json

        (scql,) = json.loads(out)["dialects"]
        assert scql["rules"]["pct"] >= 95.0
        # generated inputs were counted on top of the corpus cases
        assert scql["inputs"] > 20

    def test_gate_passes_at_threshold(self, capsys):
        code, __, err = run(
            capsys, "coverage", "--dialect", "tinysql", "--no-generate",
            "--fail-under", "50",
        )
        assert code == 0
        assert err == ""

    def test_gate_fails_below_threshold(self, capsys):
        code, __, err = run(
            capsys, "coverage", "--dialect", "tinysql", "--no-generate",
            "--fail-under", "99.5",
        )
        assert code == 1
        assert "coverage gate failed" in err


class TestLintCommand:
    BASELINE = "lint-baseline.txt"

    def baseline_path(self):
        from pathlib import Path

        return str(Path(__file__).resolve().parent.parent / self.BASELINE)

    def test_clean_dialect_exits_zero(self, capsys):
        code, out, err = run(capsys, "lint", "--dialect", "scql")
        assert code == 0
        assert "lint — sql-scql: clean" in out
        assert err == ""

    def test_warnings_pass_default_gate(self, capsys):
        code, out, __ = run(capsys, "lint", "--dialect", "tinysql")
        assert code == 0
        assert "warning[" in out

    def test_fail_on_warning_exits_one(self, capsys):
        code, __, err = run(
            capsys, "lint", "--dialect", "tinysql", "--fail-on", "warning",
        )
        assert code == 1
        assert "lint gate failed (--fail-on warning)" in err

    def test_json_report_round_trips(self, capsys):
        from repro.lint import AnalysisReport

        code, out, __ = run(
            capsys, "lint", "--dialect", "scql", "--dialect", "tinysql",
            "--json",
        )
        assert code == 0
        report = AnalysisReport.from_json(out)
        targets = [t.target for t in report.targets]
        assert "sql-scql" in targets and "sql-tinysql" in targets
        assert "line:sql2003" in targets  # interaction pass included
        assert report.pairs_checked > 0

    def test_repo_baseline_makes_warning_gate_pass(self, capsys):
        code, __, err = run(
            capsys, "lint", "--fail-on", "warning",
            "--baseline", self.baseline_path(),
        )
        assert code == 0
        assert "matched nothing" not in err

    def test_unused_baseline_entry_noted(self, capsys, tmp_path):
        stale = tmp_path / "baseline.txt"
        stale.write_text("L0199:never:anything  # stale\n")
        code, __, err = run(
            capsys, "lint", "--dialect", "scql", "--baseline", str(stale),
        )
        assert code == 0
        assert "matched nothing" in err

    def test_write_baseline_suppresses_itself(self, capsys, tmp_path):
        from repro.lint import Baseline

        written = tmp_path / "seed.txt"
        code, out, __ = run(
            capsys, "lint", "--dialect", "tinysql", "--write-baseline",
            str(written),
        )
        assert code == 0
        assert "wrote baseline" in out
        baseline = Baseline.load(written)
        code, __, err = run(
            capsys, "lint", "--dialect", "tinysql", "--fail-on", "warning",
            "--baseline", str(written),
        )
        assert code == 0
        assert len(baseline) > 0

    def test_no_interactions_skips_line_target(self, capsys):
        from repro.lint import AnalysisReport

        code, out, __ = run(
            capsys, "lint", "--dialect", "scql", "--json",
            "--no-interactions",
        )
        assert code == 0
        report = AnalysisReport.from_json(out)
        assert [t.target for t in report.targets] == ["sql-scql"]
        assert report.pairs_checked == 0

    def test_explicit_feature_selection(self, capsys):
        from repro.lint import AnalysisReport

        code, out, __ = run(
            capsys, "lint", "QuerySpecification", "--json",
            "--no-interactions",
        )
        assert code == 0
        report = AnalysisReport.from_json(out)
        assert len(report.targets) == 1
        assert report.targets[0].target.startswith("sql2003@")

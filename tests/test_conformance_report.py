"""Coverage reports: rollups, JSON schema, and the fail-under gate."""

import json

import pytest

from repro.conformance import (
    COVERAGE_REPORT_VERSION,
    CoverageReport,
    CoverageSuiteReport,
    DimensionCount,
)
from repro.conformance.report import UNATTRIBUTED
from repro.parsing.coverage import CoverageMap
from repro.sql import build_dialect

QUERIES = [
    "SELECT a FROM t",
    "SELECT a, b FROM t WHERE a = 1 AND b < 2",
    "INSERT INTO t VALUES (1, 'x')",
    "UPDATE t SET a = 2 WHERE a = 1",
]


@pytest.fixture(scope="module")
def scql_report():
    product = build_dialect("scql")
    parser = product.parser()
    collector = CoverageMap(parser.program).collector()
    for query in QUERIES:
        parser.accepts(query, coverage=collector)
    return product, collector, CoverageReport.of(
        product, collector, inputs=len(QUERIES)
    )


class TestDimensionCount:
    def test_pct_and_empty_dimension(self):
        assert DimensionCount(3, 4).pct == 75.0
        assert DimensionCount(0, 0).pct == 100.0

    def test_addition(self):
        total = DimensionCount(1, 2) + DimensionCount(3, 4)
        assert (total.covered, total.total) == (4, 6)

    def test_as_dict_rounds(self):
        assert DimensionCount(1, 3).as_dict() == {
            "covered": 1, "total": 3, "pct": 33.33,
        }


class TestCoverageReport:
    def test_dimensions_match_collector(self, scql_report):
        _, collector, report = scql_report
        counts = collector.counts()
        assert (report.rules.covered, report.rules.total) == counts["rules"]
        assert (
            report.alternatives.covered, report.alternatives.total
        ) == counts["alternatives"]
        assert (report.edges.covered, report.edges.total) == counts["edges"]
        assert report.inputs == len(QUERIES)

    def test_identity_comes_from_product(self, scql_report):
        product, _, report = scql_report
        assert report.name == product.name
        assert report.fingerprint == product.fingerprint.digest

    def test_feature_rollups_partition_the_grammar(self, scql_report):
        _, collector, report = scql_report
        summed = DimensionCount(0, 0)
        for rollup in report.features:
            summed += rollup.rules
        assert (summed.covered, summed.total) == collector.counts()["rules"]
        # provenance resolved: a composed dialect attributes every rule
        features = {rollup.feature for rollup in report.features}
        assert UNATTRIBUTED not in features
        assert "QuerySpecification" in features

    def test_uncovered_rules_carry_feature_provenance(self, scql_report):
        _, collector, report = scql_report
        assert len(report.uncovered_rules) == len(collector.uncovered_rules())
        for rule, feature in report.uncovered_rules:
            assert feature != ""

    def test_json_schema(self, scql_report):
        _, _, report = scql_report
        data = json.loads(json.dumps(report.to_dict()))
        assert set(data) == {
            "name", "fingerprint", "inputs", "rules", "alternatives",
            "edges", "features", "uncovered",
        }
        for dimension in ("rules", "alternatives", "edges"):
            assert set(data[dimension]) == {"covered", "total", "pct"}
        assert set(data["uncovered"]) == {"rules", "alternatives", "edges"}
        for entry in data["uncovered"]["alternatives"]:
            assert set(entry) == {
                "rule", "feature", "point", "alternative", "first"
            }
        for entry in data["uncovered"]["edges"]:
            assert set(entry) == {"rule", "feature", "point", "kind", "edge"}
            assert entry["edge"] in ("taken", "skipped")

    def test_render_shows_bars_and_uncovered(self, scql_report):
        _, _, report = scql_report
        text = report.render()
        assert "rules" in text and "[" in text and "%" in text
        if report.uncovered_rules:
            assert "uncovered rules" in text


class TestSuiteReport:
    def test_overall_sums_dialects(self):
        suite = make_suite()
        overall = suite.overall()
        assert overall["rules"].covered == sum(
            r.rules.covered for r in suite.reports
        )
        assert overall["rules"].total == sum(
            r.rules.total for r in suite.reports
        )

    def test_gate_thresholds(self):
        suite = make_suite()
        pct = suite.rule_coverage_pct()
        assert suite.gate(0.0)
        assert suite.gate(pct)  # exactly at the threshold passes
        assert not suite.gate(min(pct + 0.01, 100.0)) or pct == 100.0

    def test_json_schema(self):
        suite = make_suite()
        data = json.loads(suite.to_json())
        assert data["kind"] == "repro-coverage-report"
        assert data["version"] == COVERAGE_REPORT_VERSION
        assert len(data["dialects"]) == len(suite.reports)
        assert set(data["overall"]) == {"rules", "alternatives", "edges"}

    def test_render_has_overall_line(self):
        text = make_suite().render()
        assert "overall:" in text


def make_suite():
    reports = []
    for dialect in ("scql", "tinysql"):
        product = build_dialect(dialect)
        parser = product.parser()
        collector = CoverageMap(parser.program).collector()
        parser.accepts("SELECT a FROM t", coverage=collector)
        reports.append(CoverageReport.of(product, collector, inputs=1))
    return CoverageSuiteReport(reports)

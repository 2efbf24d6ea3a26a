"""Dialect preset tests (experiments E6/E9): each dialect accepts its own
workload and rejects constructs of larger dialects.
"""

import pytest

from repro.diagnostics.model import CONFIG_INVALID
from repro.errors import ReproError
from repro.sql import (
    build_dialect,
    dialect_features,
    dialect_names,
    dialect_selection,
)
from repro.transpile import translate


@pytest.fixture(scope="module")
def parsers():
    return {name: build_dialect(name).parser() for name in dialect_names()}


class TestPresets:
    def test_all_presets_build(self, parsers):
        assert set(parsers) == {"scql", "tinysql", "core", "analytics", "full"}

    def test_unknown_dialect_rejected(self):
        with pytest.raises(ValueError):
            dialect_features("nope")

    def test_an_unknown_name_is_a_selection_error_too(self):
        for call in (
            lambda: dialect_selection("nope"),
            lambda: translate("SELECT a FROM t", "core", "nope"),
        ):
            with pytest.raises(ValueError) as caught:
                call()
            assert isinstance(caught.value, ReproError)
            assert caught.value.code == CONFIG_INVALID

    def test_a_selection_resolves_once_per_name(self):
        for name in dialect_names():
            selection = dialect_selection(name)
            assert selection == frozenset(dialect_features(name))
            assert dialect_selection(name) is selection
        assert build_dialect("core").name == "sql-core"
        assert build_dialect("core", "mine").name == "mine"

    def test_grammar_sizes_increase(self):
        sizes = [
            build_dialect(name).size()["rules"]
            for name in ("scql", "core", "full")
        ]
        assert sizes[0] < sizes[1] < sizes[2]

    def test_token_counts_increase(self):
        sizes = [
            build_dialect(name).size()["tokens"]
            for name in ("scql", "core", "full")
        ]
        assert sizes[0] < sizes[1] < sizes[2]


class TestScql:
    ACCEPT = [
        "SELECT * FROM accounts",
        "SELECT balance FROM accounts WHERE id = 5",
        "INSERT INTO accounts VALUES (1, 100)",
        "UPDATE accounts SET balance = 50 WHERE id = 1",
        "DELETE FROM accounts WHERE id = 1",
        "CREATE TABLE accounts (id INT, balance INT)",
        "DROP TABLE accounts",
    ]
    REJECT = [
        "SELECT a FROM t, u",  # no multi-table
        "SELECT a FROM t ORDER BY a",  # no order by
        "SELECT COUNT(*) FROM t",  # no aggregates
        "SELECT a FROM t UNION SELECT b FROM u",  # no set ops
        "GRANT SELECT ON t TO PUBLIC",  # no DCL
    ]

    @pytest.mark.parametrize("query", ACCEPT)
    def test_accepts(self, parsers, query):
        assert parsers["scql"].accepts(query)

    @pytest.mark.parametrize("query", REJECT)
    def test_rejects(self, parsers, query):
        assert not parsers["scql"].accepts(query)


class TestTinySql:
    ACCEPT = [
        "SELECT nodeid, light FROM sensors SAMPLE PERIOD 2048",
        "SELECT AVG(temp) FROM sensors WHERE floor = 6 EPOCH DURATION 1024",
        "SELECT COUNT(*) FROM sensors GROUP BY roomno HAVING MAX(temp) > 55",
        "SELECT nodeid FROM sensors SAMPLE PERIOD 100 LIFETIME 30",
    ]
    REJECT = [
        "SELECT nodeid AS n FROM sensors",  # no column alias (TinySQL)
        "SELECT a FROM sensors, buffer",  # single table in FROM
        "SELECT a FROM sensors ORDER BY a",  # no order by
        "SELECT a FROM (SELECT a FROM s) x",  # no derived tables
    ]

    @pytest.mark.parametrize("query", ACCEPT)
    def test_accepts(self, parsers, query):
        assert parsers["tinysql"].accepts(query)

    @pytest.mark.parametrize("query", REJECT)
    def test_rejects(self, parsers, query):
        assert not parsers["tinysql"].accepts(query)

    def test_sensor_keywords_not_reserved_in_core(self, parsers):
        """Core SQL has no SAMPLE keyword, so it is usable as identifier."""
        assert parsers["core"].accepts("SELECT sample FROM t")
        assert not parsers["core"].accepts("SELECT a FROM t SAMPLE PERIOD 10")


class TestCore:
    ACCEPT = [
        "SELECT DISTINCT o.id, c.name AS who FROM orders o LEFT JOIN customers c "
        "ON o.cid = c.id WHERE o.total >= 10 ORDER BY o.id DESC",
        "SELECT a FROM t WHERE b IN (SELECT b FROM u) EXCEPT SELECT a FROM v",
        "INSERT INTO t (a) SELECT a FROM u",
        "CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(10) NOT NULL, "
        "UNIQUE (b))",
        "SELECT CASE a WHEN 1 THEN 'one' ELSE 'many' END FROM t",
        "COMMIT",
    ]
    REJECT = [
        "SELECT RANK() OVER w FROM t WINDOW w AS (PARTITION BY a)",  # analytics only
        "SELECT a FROM t SAMPLE PERIOD 5",  # sensor extension
        "MERGE INTO t USING u ON t.a = u.a WHEN MATCHED THEN UPDATE SET a = 1",
        "GRANT SELECT ON t TO PUBLIC",
    ]

    @pytest.mark.parametrize("query", ACCEPT)
    def test_accepts(self, parsers, query):
        assert parsers["core"].accepts(query)

    @pytest.mark.parametrize("query", REJECT)
    def test_rejects(self, parsers, query):
        assert not parsers["core"].accepts(query)


class TestAnalytics:
    ACCEPT = [
        "SELECT region, SUM(sales) FROM f GROUP BY ROLLUP (region, year)",
        "SELECT region, SUM(sales) FROM f GROUP BY CUBE (region, year)",
        "WITH top AS (SELECT id FROM f) SELECT COUNT(*) FROM top",
        "SELECT RANK() OVER w FROM f WINDOW w AS (PARTITION BY r ORDER BY s DESC)",
        "SELECT SUM(x) OVER (PARTITION BY r) FROM f",
        "SELECT a FROM f ORDER BY a DESC NULLS LAST",
    ]
    REJECT = [
        "INSERT INTO f VALUES (1)",  # read-only dialect
        "CREATE TABLE t (a INT)",
        "DELETE FROM f",
    ]

    @pytest.mark.parametrize("query", ACCEPT)
    def test_accepts(self, parsers, query):
        assert parsers["analytics"].accepts(query)

    @pytest.mark.parametrize("query", REJECT)
    def test_rejects(self, parsers, query):
        assert not parsers["analytics"].accepts(query)


class TestFull:
    ACCEPT = [
        "GRANT SELECT, UPDATE (a) ON TABLE t TO PUBLIC WITH GRANT OPTION",
        "REVOKE GRANT OPTION FOR SELECT ON t FROM alice CASCADE",
        "MERGE INTO t USING u ON t.id = u.id WHEN MATCHED THEN UPDATE SET a = 1 "
        "WHEN NOT MATCHED THEN INSERT (a) VALUES (2)",
        "START TRANSACTION ISOLATION LEVEL REPEATABLE READ",
        "SET TRANSACTION READ ONLY",
        "CREATE DOMAIN money AS NUMERIC (10, 2) DEFAULT 0",
        "ALTER TABLE t ALTER COLUMN a SET DEFAULT 5",
        "SAVEPOINT sp1; ROLLBACK TO SAVEPOINT sp1; RELEASE SAVEPOINT sp1",
        "SET SCHEMA 'app'",
        "SELECT a FROM t FETCH FIRST 5 ROWS ONLY",
        "SELECT INTERVAL '2' DAY FROM t",
        "CREATE TABLE x (t TIMESTAMP (3) WITH TIME ZONE)",
        "SELECT * FROM a NATURAL JOIN b CROSS JOIN c",
        "SELECT a FROM t WHERE b LIKE 'x!_%' ESCAPE '!'",
        "SELECT POSITION('a' IN b), TRIM(LEADING 'x' FROM y) FROM t",
        "SELECT NEXT VALUE FOR seq FROM t",
    ]

    @pytest.mark.parametrize("query", ACCEPT)
    def test_accepts(self, parsers, query):
        assert parsers["full"].accepts(query)

    def test_dialect_nesting(self, parsers):
        """Every SCQL query is valid TinySQL-core-full? Not necessarily —
        but every TinySQL *non-sensor* query must be valid FULL SQL."""
        plain = "SELECT nodeid, light FROM sensors WHERE roomno = 6"
        for name in ("tinysql", "core", "full"):
            assert parsers[name].accepts(plain), name

    def test_reserved_word_pollution_grows_with_dialect(self, parsers):
        """Ablation A3: FLOOR is an identifier in TinySQL but reserved in
        FULL (which selects the Floor function feature)."""
        query = "SELECT floor FROM sensors"
        assert parsers["tinysql"].accepts(query)
        assert not parsers["full"].accepts(query)

"""Closure-backend artifacts in the registry, and the compiled serving path.

The closure artifact kind (``<digest>.closures.py``) must follow the
same lifecycle contract as the other kinds: fingerprint validation on
load, quarantine on corruption, rebuild on staleness, and safe
coexistence with LRU eviction.  On top sits the serving path:
``ParseService`` serves the compiled backend and degrades to the
interpreter when the closure artifact cannot be produced.
"""

import threading

from repro.core import GrammarProductLine
from repro.resilience.faults import FaultPlan, FaultRule
from repro.service import ParseService, ParserRegistry

from tests.test_core_product_line import mini_model, mini_units

ACCEPTED = "SELECT a FROM t WHERE x = y"
FEATURES = ["Query", "Where"]


def make_registry(capacity=8, cache_dir=None, fault_plan=None):
    line = GrammarProductLine(mini_model(), mini_units(), name="mini-sql")
    return ParserRegistry(
        line, capacity=capacity, cache_dir=cache_dir, fault_plan=fault_plan
    )


class TestClosureDiskCache:
    def test_round_trip_across_registries(self, tmp_path):
        first = make_registry(cache_dir=tmp_path)
        entry = first.get(FEATURES)
        closure = entry.closure_program()
        assert first.metrics.counter("artifact.closures.build") == 1
        assert first.metrics.counter("artifact.closures.miss") == 1
        artifact = tmp_path / f"{entry.fingerprint.digest}.closures.py"
        assert artifact.exists()

        second = make_registry(cache_dir=tmp_path)
        entry2 = second.get(FEATURES)
        closure2 = entry2.closure_program()
        assert second.metrics.counter("artifact.closures.hit") == 1
        assert second.metrics.counter("artifact.closures.build") == 0
        assert len(closure2.rule_fns) == len(closure.rule_fns)
        # the revived artifact actually drives a parser
        parser = entry2.compiled_parser()
        assert parser.accepts(ACCEPTED)
        assert not parser.accepts("SELECT a, b FROM t")

    def test_stale_artifact_is_quarantined_and_rebuilt(self, tmp_path):
        first = make_registry(cache_dir=tmp_path)
        entry = first.get(FEATURES)
        entry.closure_program()
        artifact = tmp_path / f"{entry.fingerprint.digest}.closures.py"

        # stale-file simulation: valid text, wrong embedded provenance
        text = artifact.read_text()
        assert entry.fingerprint.digest in text
        artifact.write_text(
            text.replace(entry.fingerprint.digest, "0" * 64, 1)
        )

        second = make_registry(cache_dir=tmp_path)
        entry2 = second.get(FEATURES)
        assert entry2.closure_program() is not None
        assert second.metrics.counter("artifact.closures.stale") == 1
        assert second.metrics.counter("artifact.closures.hit") == 0
        assert second.metrics.counter("artifact.closures.build") == 1
        # staleness is quarantined but NOT counted as corruption
        assert second.metrics.counter("artifact.closures.corrupt") == 0
        assert second.metrics.counter("quarantined") == 1
        assert artifact.with_name(artifact.name + ".bad").exists()
        # the clean slot holds a fresh artifact with correct provenance
        assert entry.fingerprint.digest in artifact.read_text()

    def test_unparseable_artifact_is_corrupt(self, tmp_path):
        registry = make_registry(cache_dir=tmp_path)
        entry = registry.get(FEATURES)
        artifact = tmp_path / f"{entry.fingerprint.digest}.closures.py"
        artifact.write_text("def broken(:\n")

        assert entry.closure_program() is not None
        assert registry.metrics.counter("artifact.closures.corrupt") == 1
        assert registry.metrics.counter("quarantined") == 1
        assert registry.metrics.counter("artifact.closures.build") == 1

    def test_fingerprint_valid_but_unexecutable_artifact_is_corrupt(
        self, tmp_path
    ):
        """A file that passes the fingerprint scan but does not exec into
        this program's rule table is the dangerous case: it must be
        quarantined, not served."""
        registry = make_registry(cache_dir=tmp_path)
        entry = registry.get(FEATURES)
        entry.closure_program()
        artifact = tmp_path / f"{entry.fingerprint.digest}.closures.py"

        # torn write: keep the provenance header, lose the rule table
        text = artifact.read_text()
        cut = text.index("def _r")
        artifact.write_text(text[:cut])

        second = make_registry(cache_dir=tmp_path)
        entry2 = second.get(FEATURES)
        closure = entry2.closure_program()
        assert closure is not None
        assert second.metrics.counter("artifact.closures.corrupt") == 1
        assert second.metrics.counter("quarantined") == 1
        assert artifact.with_name(artifact.name + ".bad").exists()
        assert entry2.compiled_parser().accepts(ACCEPTED)

    def test_tampered_but_valid_python_artifact_is_corrupt(self, tmp_path):
        """A file that still compiles and keeps its fingerprint line, but
        no longer matches the program, is caught by regeneration: served,
        it would reject a query the interpreter accepts."""
        first = make_registry(cache_dir=tmp_path)
        entry = first.get(FEATURES)
        entry.closure_program()
        artifact = tmp_path / f"{entry.fingerprint.digest}.closures.py"
        text = artifact.read_text()
        assert "'WHERE'" in text
        tampered = text.replace("'WHERE'", "'FROM'")
        compile(tampered, str(artifact), "exec")  # still valid Python
        artifact.write_text(tampered)

        second = make_registry(cache_dir=tmp_path)
        entry2 = second.get(FEATURES)
        entry2.closure_program()
        assert second.metrics.counter("artifact.closures.corrupt") == 1
        assert second.metrics.counter("artifact.closures.hit") == 0
        assert second.metrics.counter("artifact.closures.build") == 1
        assert artifact.with_name(artifact.name + ".bad").exists()
        assert artifact.read_text() == text
        assert entry2.compiled_parser().accepts(ACCEPTED)
        assert entry2.parser().accepts(ACCEPTED)

    def test_artifact_inventory_lists_every_kind(self, tmp_path):
        registry = make_registry(cache_dir=tmp_path)
        entry = registry.get(FEATURES)
        entry.closure_program()

        inventory = {item["kind"]: item for item in entry.artifacts()}
        assert set(inventory) == {"ir", "closures", "lex"}
        assert inventory["ir"]["exists"] and not inventory["ir"]["stale"]
        assert inventory["closures"]["exists"]
        assert inventory["closures"]["size"] > 0
        assert not inventory["closures"]["stale"]
        # only worker publication writes the lexicon
        assert not inventory["lex"]["exists"]

        # staleness and quarantine are both surfaced
        path = tmp_path / f"{entry.fingerprint.digest}.closures.py"
        path.write_text(
            path.read_text().replace(entry.fingerprint.digest, "0" * 64, 1)
        )
        path.with_name(path.name + ".bad").write_text("post-mortem")
        inventory = {item["kind"]: item for item in entry.artifacts()}
        assert inventory["closures"]["stale"]
        assert inventory["closures"]["quarantined"]

    def test_inventory_without_cache_dir_names_the_kinds(self):
        registry = make_registry()
        entry = registry.get(FEATURES)
        inventory = entry.artifacts()
        assert [item["kind"] for item in inventory] == [
            "ir", "closures", "lex",
        ]
        assert all(item["path"] is None for item in inventory)


class TestConcurrentEviction:
    def test_eviction_races_closure_builds(self, tmp_path):
        """LRU eviction while compiled entries are mid-build: a thread
        holding an evicted entry keeps serving through its closure
        parser, and re-acquired selections rebuild (or disk-load) their
        artifact without errors."""
        registry = make_registry(capacity=1, cache_dir=tmp_path)
        entry = registry.get(FEATURES)
        errors = []
        stop = threading.Event()

        def parse_forever():
            try:
                while not stop.is_set():
                    parser = entry.thread_compiled_parser()
                    assert parser.accepts(ACCEPTED)
            except Exception as error:  # pragma: no cover - the assertion
                errors.append(error)

        def churn():
            try:
                for _ in range(25):
                    # capacity 1: each get evicts the previous entry
                    registry.get(["Query", "GroupBy"])
                    registry.get(["Query"])
                    revived = registry.get(FEATURES)
                    parser = revived.thread_compiled_parser()
                    assert parser.accepts(ACCEPTED)
            except Exception as error:  # pragma: no cover - the assertion
                errors.append(error)

        workers = [threading.Thread(target=parse_forever) for _ in range(2)]
        churner = threading.Thread(target=churn)
        for t in workers:
            t.start()
        churner.start()
        churner.join()
        stop.set()
        for t in workers:
            t.join()
        assert errors == []
        assert registry.metrics.counter("evictions") > 0
        # rebuilt entries found the published artifact on disk
        assert registry.metrics.counter("artifact.closures.hit") > 0


class TestCompiledServing:
    def test_service_defaults_to_compiled(self):
        registry = make_registry()
        service = ParseService(registry=registry)
        assert service.backend == "compiled"
        result = service.parse(ACCEPTED, FEATURES)
        assert result.ok and result.degraded == ()
        snap = service.metrics.snapshot()
        assert snap["backend"] == "compiled"
        assert snap["latency"]["parse_compiled"]["count"] == 1
        assert snap["latency"]["parse_interpreter"]["count"] == 0
        assert snap["counters"]["artifact.closures.build"] == 1
        assert service.health()["backend"] == "compiled"
        assert "backend: compiled" in service.render_health()

    def test_closure_compile_failure_degrades_to_interpreter(self):
        plan = FaultPlan(
            [FaultRule(site="closure.compile", probability=1.0, times=1)]
        )
        registry = make_registry(fault_plan=plan)
        service = ParseService(registry=registry)
        result = service.parse(ACCEPTED, FEATURES)
        assert result.ok
        assert result.degraded == ("backend",)
        snap = service.metrics.snapshot()
        assert snap["counters"]["degraded_backend"] == 1
        assert snap["latency"]["parse_interpreter"]["count"] == 1
        assert service.health()["status"] == "degraded"
        # the fault was one-shot: the next request recovers to compiled
        result = service.parse(ACCEPTED, FEATURES)
        assert result.ok and result.degraded == ()
        snap = service.metrics.snapshot()
        assert snap["latency"]["parse_compiled"]["count"] == 1

    def test_coverage_runs_on_the_compiled_backend(self):
        registry = make_registry()
        service = ParseService(registry=registry)
        entry = registry.get(FEATURES)
        collector = entry.coverage_collector()
        result = service.parse(ACCEPTED, FEATURES, coverage=collector)
        assert result.ok
        assert sum(collector.rules) > 0
        snap = service.metrics.snapshot()
        assert snap["latency"]["parse_compiled"]["count"] == 1

    def test_stats_render_shows_backend_and_series(self):
        registry = make_registry()
        service = ParseService(registry=registry)
        service.parse(ACCEPTED, FEATURES)
        rendered = service.metrics.render()
        assert "backend: compiled" in rendered
        assert "parse_compiled" in rendered
        assert "closures: 1 builds" in rendered

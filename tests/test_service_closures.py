"""The compiled backend in the registry, and the compiled serving path.

The closure-compiled program is lowered in memory from the parse
program, which the ``ir`` artifact persists: no other file stands for
it, and it coexists safely with LRU eviction.  On top sits the serving
path: ``ParseService`` serves the compiled backend and degrades to the
interpreter when the closure program cannot be built.
"""

import re
import threading

from repro.core import GrammarProductLine
from repro.resilience.faults import FaultPlan, FaultRule
from repro.service import ParseService, ParserRegistry
from repro.service.workers import WorkerTask, execute_batch, reset_worker_cache

from tests.test_core_product_line import mini_model, mini_units

ACCEPTED = "SELECT a FROM t WHERE x = y"
FEATURES = ["Query", "Where"]


def make_registry(capacity=8, cache_dir=None, fault_plan=None):
    line = GrammarProductLine(mini_model(), mini_units(), name="mini-sql")
    return ParserRegistry(
        line, capacity=capacity, cache_dir=cache_dir, fault_plan=fault_plan
    )


class TestClosureDiskCache:
    """The compiled backend has no artifact of its own: it is lowered from
    the ``ir`` artifact's program, and nothing else is persisted for it."""

    def test_artifact_inventory_lists_every_kind(self, tmp_path):
        registry = make_registry(cache_dir=tmp_path)
        entry = registry.get(FEATURES)
        entry.closure_program()

        item = entry.artifact()
        assert item["state"] == "fresh" and item["size"] > 0
        # the program is the only file: no other kind is written
        assert [p.name for p in tmp_path.iterdir()] == [
            f"{entry.fingerprint.digest}.ir.json"
        ]

        # staleness and quarantine are both surfaced
        path = tmp_path / f"{entry.fingerprint.digest}.ir.json"
        path.write_text(
            path.read_text().replace(entry.fingerprint.digest, "0" * 64, 1)
        )
        path.with_name(path.name + ".bad").write_text("post-mortem")
        item = entry.artifact()
        assert item["state"] == "stale"
        assert item["quarantined"]

    def test_inventory_tells_corrupt_from_stale(self, tmp_path):
        # no readable digest is corrupt (as a read counts it), another
        # digest is stale
        registry = make_registry(cache_dir=tmp_path)
        entry = registry.get(FEATURES)
        entry.program()
        path = tmp_path / f"{entry.fingerprint.digest}.ir.json"
        text = path.read_text()
        path.write_text("{not json")
        assert entry.artifact()["state"] == "corrupt"
        path.write_text(text.replace('"version":2', '"version":1', 1))
        assert entry.artifact()["state"] == "corrupt"
        path.write_text(text.replace(entry.fingerprint.digest, "0" * 64, 1))
        assert entry.artifact()["state"] == "stale"

    def test_inventory_without_cache_dir_names_the_kinds(self):
        registry = make_registry()
        entry = registry.get(FEATURES)
        item = entry.artifact()
        assert item["path"] is None and item["state"] == "missing"

    def test_a_closures_file_is_never_opened(self, tmp_path):
        """A ``<digest>.closures.py`` or ``<digest>.lex.json`` left in
        the cache directory (an old layout's artifact, or garbage) is
        neither read, quarantined nor listed: the registry and a worker
        both serve from the IR alone."""
        first = make_registry(cache_dir=tmp_path)
        entry = first.get(FEATURES)
        entry.publish_worker_artifacts(tmp_path)
        digest = entry.fingerprint.digest
        junk = b"def broken(:\n\x00 not python"
        garbage = [tmp_path / f"{digest}{suffix}"
                   for suffix in (".closures.py", ".lex.json")]
        for path in garbage:
            path.write_bytes(junk)

        second = make_registry(cache_dir=tmp_path)
        entry2 = second.get(FEATURES)
        assert entry2.compiled_parser().accepts(ACCEPTED)
        assert second.metrics.counter("artifact.ir.hit") == 1
        reset_worker_cache()
        reply = execute_batch(
            WorkerTask(
                digest=digest, cache_dir=str(tmp_path), backend="compiled",
                text=ACCEPTED,
            )
        )[0]
        assert not reply.bootstrap_failed and not reply.internal_error
        assert reply.tree == entry2.parser().parse(ACCEPTED)

        for path in garbage:
            assert path.read_bytes() == junk
            assert not path.with_name(path.name + ".bad").exists()
        assert second.metrics.counter("quarantined") == 0
        assert entry2.artifact()["path"] == str(
            tmp_path / f"{digest}.ir.json"
        )


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
                    parser = entry.compiled_parser()
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
                    parser = revived.compiled_parser()
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
        assert registry.metrics.counter("artifact.ir.hit") > 0


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
        assert snap["counters"]["artifact.ir.build"] == 1
        assert not any("closures" in name for name in snap["counters"])
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

    def test_coverage_runs_on_the_interpreter(self):
        # the interpreter counts coverage for both backends, so a
        # counting call runs there and times into its series
        registry = make_registry()
        service = ParseService(registry=registry)
        entry = registry.get(FEATURES)
        collector = entry.coverage_collector()
        result = service.parse(ACCEPTED, FEATURES, coverage=collector)
        assert result.ok and result.degraded == ()
        assert sum(collector.rules) > 0
        snap = service.metrics.snapshot()
        assert snap["latency"]["parse_interpreter"]["count"] == 1
        assert snap["latency"]["parse_compiled"]["count"] == 0
        assert service.metrics.counter("degraded_backend") == 0

    def test_stats_render_shows_backend_and_series(self):
        registry = make_registry()
        service = ParseService(registry=registry)
        service.parse(ACCEPTED, FEATURES)
        rendered = service.metrics.render()
        assert "backend: compiled" in rendered
        assert "parse_compiled" in rendered
        assert re.search(r"^  ir: +1 builds", rendered, re.M)
        assert "closures" not in rendered

"""ParseService: resilient results, batch concurrency, timeouts, stats."""

import shutil
import sys
import threading
import time

import pytest

from repro.core import GrammarProductLine
from repro.core.composer import GrammarComposer
from repro.diagnostics.model import (
    CONFIG_INVALID,
    PARSE_BUDGET_EXCEEDED,
    PARSE_TIMEOUT,
    SERVICE_OVERLOADED,
)
import repro.service.service as service_module
from repro.parsing.closures import ClosureParser
from repro.parsing.parser import Parser
from repro.resilience.faults import FaultPlan, FaultRule
from repro.service import ParseService, ParserRegistry
from repro.service.registry import RegistryEntry
from repro.sql import (
    build_sql_product_line,
    dialect_names,
    dialect_selection,
    sql_parser_registry,
)

from tests.test_core_product_line import mini_model, mini_units

FULL = ["Query", "SetQuantifier", "MultiColumn", "Where", "GroupBy"]


def make_service(**kwargs):
    line = GrammarProductLine(mini_model(), mini_units(), name="mini-sql")
    return ParseService(registry=ParserRegistry(line), **kwargs)


@pytest.fixture
def service():
    with make_service() as svc:
        yield svc


@pytest.fixture
def compose_calls(monkeypatch):
    calls = []
    original = GrammarComposer.extend

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(GrammarComposer, "extend", counting)
    return calls


class TestParse:
    def test_good_input(self, service):
        result = service.parse("SELECT a FROM t WHERE x = y", ["Query", "Where"])
        assert result.ok
        assert result.tree is not None
        assert not result.warm  # first request composed
        assert result.fingerprint is not None
        assert result.seconds >= 0.0

    def test_warm_parse_does_zero_composition(self, service, compose_calls):
        """Acceptance criterion: a warm parse performs no composition work."""
        service.parse("SELECT a FROM t", ["Query", "Where"])
        assert len(compose_calls) > 0
        composed_cold = len(compose_calls)

        result = service.parse("SELECT b FROM u WHERE x = y", ["Query", "Where"])
        assert result.ok
        assert result.warm
        assert len(compose_calls) == composed_cold  # not one more compose
        assert service.metrics.counter("composes") == 1

    def test_bad_input_yields_diagnostics_not_exceptions(self, service):
        result = service.parse("SELECT FROM WHERE", FULL)
        assert not result.ok
        assert result.diagnostics.has_errors
        rendered = result.render(filename="<test>")
        assert "<test>" in rendered
        assert "error[" in rendered

    def test_invalid_selection_yields_error_result(self, service):
        result = service.parse("SELECT a FROM t", ["Query", "NoSuchFeature"])
        assert not result.ok
        assert result.fingerprint is None
        assert result.tree is None
        assert result.diagnostics.has_errors

    def test_fuel_budget_override(self, service):
        result = service.parse("SELECT a FROM t", ["Query"], max_steps=1)
        assert not result.ok
        assert any(
            d.code == PARSE_BUDGET_EXCEEDED for d in result.diagnostics
        )

    def test_warm_explicitly(self, service):
        fp = service.warm(["Query", "Where"])
        result = service.parse("SELECT a FROM t", ["Query", "Where"])
        assert result.warm
        assert result.fingerprint == fp


def service_frames_below(outer: str) -> list[str]:
    """The service-module frames between the caller's caller and the
    nearest service-module ``outer`` frame, innermost first."""
    names = []
    frame = sys._getframe(2)
    while not (
        frame.f_code.co_filename == service_module.__file__
        and frame.f_code.co_name == outer
    ):
        if frame.f_code.co_filename == service_module.__file__:
            names.append(frame.f_code.co_name)
        frame = frame.f_back
    return names


class TestOneStep:
    """One guarded step: the answering rung's ``parse_with_diagnostics``
    runs one service frame below the request."""

    @pytest.mark.parametrize("degraded", [False, True])
    @pytest.mark.parametrize("outer", ["parse", "_parse_many_caller"])
    def test_one_service_frame_to_the_answering_rung(
        self, monkeypatch, outer, degraded
    ):
        stacks = []
        original = Parser.parse_with_diagnostics

        def recording(self, text, **kwargs):
            stacks.append(service_frames_below(outer))
            return original(self, text, **kwargs)

        def broken(self, text, **kwargs):
            raise RuntimeError("the compiled rung fails")

        texts = ["SELECT a FROM t", "SELECT a FROM t WHERE x = y"]
        with make_service(max_workers=2) as service:
            service.warm(FULL)
            monkeypatch.setattr(Parser, "parse_with_diagnostics", recording)
            if degraded:
                monkeypatch.setattr(
                    ClosureParser, "parse_with_diagnostics", broken
                )
            if outer == "parse":
                results = [service.parse(text, FULL) for text in texts]
            else:
                results = service.parse_many(texts, FULL)
        assert all(r.ok for r in results)
        assert [r.degraded for r in results] == (
            [("backend",)] * 2 if degraded else [()] * 2
        )
        assert stacks == [["_parse_entry"]] * 2

    def test_seconds_time_the_answering_parse_alone(self, monkeypatch):
        """Fault-site latency and building the parser are not parse time."""
        plan = FaultPlan([
            FaultRule("worker.execute", error=None, latency=0.1),
            FaultRule("backend.parse", error=None, latency=0.1),
        ])
        line = GrammarProductLine(mini_model(), mini_units(), name="mini-sql")
        original = RegistryEntry.compiled_parser

        def slow_build(self):
            time.sleep(0.1)
            return original(self)

        monkeypatch.setattr(RegistryEntry, "compiled_parser", slow_build)
        registry = ParserRegistry(line, fault_plan=plan)
        with ParseService(registry=registry) as service:
            service.warm(FULL)
            t0 = time.perf_counter()
            result = service.parse("SELECT a FROM t", FULL)
            elapsed = time.perf_counter() - t0
        assert result.ok and result.degraded == ()
        assert elapsed >= 0.3
        assert result.seconds < 0.1

    def test_the_step_has_no_helpers(self):
        assert not hasattr(ParseService, "_run_backend")
        assert not hasattr(service_module, "_timed_parse")


class TestSerialParseManyAdmission:
    """One text or one worker: the caller-thread loop admits every text
    up front, frees each text's slot as it finishes, and records each
    text's queue depth and executor time."""

    @pytest.mark.parametrize(
        "texts, workers",
        [(["SELECT a FROM t"], 2), (["SELECT a FROM t", "SELECT b FROM t"], 1)],
        ids=["one-text", "one-worker"],
    )
    def test_each_text_holds_a_slot_while_it_parses(
        self, monkeypatch, texts, workers
    ):
        with make_service(max_workers=workers) as service:
            seen = []
            original = service._parse_entry

            def recording(*args, **kwargs):
                seen.append(service.in_flight)
                return original(*args, **kwargs)

            monkeypatch.setattr(service, "_parse_entry", recording)
            results = service.parse_many(texts, FULL)
            assert all(r.ok for r in results)
            n = len(texts)
            assert seen == [n - k for k in range(n)]
            assert service.in_flight == 0
            snap = service.metrics.snapshot()
            assert snap["latency"]["executor_thread"]["count"] == n
            depth = snap["queue_depth"]["thread"]
            assert (depth["count"], depth["max"]) == (n, n)

    def test_sheds_while_another_caller_holds_the_only_slot(self, monkeypatch):
        with make_service(max_workers=1, max_queue=1) as service:
            service.warm(FULL)
            entered, release = threading.Event(), threading.Event()
            original = service._parse_entry

            def blocking(entry, text, *args, **kwargs):
                if text == "SELECT blocker FROM t":
                    entered.set()
                    release.wait(timeout=10)
                return original(entry, text, *args, **kwargs)

            monkeypatch.setattr(service, "_parse_entry", blocking)
            held = []
            caller = threading.Thread(
                target=lambda: held.append(
                    service.parse("SELECT blocker FROM t", FULL)
                )
            )
            caller.start()
            try:
                assert entered.wait(timeout=10)
                (result,) = service.parse_many(["SELECT a FROM t"], FULL)
            finally:
                release.set()
                caller.join(timeout=10)
            assert not caller.is_alive()
            assert [d.code for d in result.diagnostics] == [SERVICE_OVERLOADED]
            assert held[0].ok
            assert service.in_flight == 0

    def test_translate_sheds_while_another_caller_holds_the_only_slot(
        self, monkeypatch
    ):
        # a translate resolves its presets on the service's registry
        core = dialect_selection("core")
        registry = ParserRegistry(build_sql_product_line())
        with ParseService(registry, max_workers=1, max_queue=1) as service:
            service.warm(core)
            entered, release = threading.Event(), threading.Event()
            original = service._parse_entry

            def blocking(entry, text, *args, **kwargs):
                entered.set()
                release.wait(timeout=10)
                return original(entry, text, *args, **kwargs)

            monkeypatch.setattr(service, "_parse_entry", blocking)
            held = []
            caller = threading.Thread(
                target=lambda: held.append(
                    service.parse("SELECT blocker FROM t", core)
                )
            )
            caller.start()
            try:
                assert entered.wait(timeout=10)
                shed = service.translate("SELECT a FROM t", "core", "full")
            finally:
                release.set()
                caller.join(timeout=10)
            assert not caller.is_alive()
            assert [d.code for d in shed.diagnostics] == [SERVICE_OVERLOADED]
            assert not shed.ok and shed.sql is None
            counters = service.metrics.snapshot()["counters"]
            assert counters["shed"] == 1
            assert counters["translates"] == 0
            assert held[0].ok
            # with the slot free again, translate runs and releases it
            assert service.translate("SELECT a FROM t", "core", "full").ok
            assert service.in_flight == 0


def make_sql_service(**registry_kwargs):
    """A service on a fresh SQL:2003 registry, where a translate
    resolves its preset dialects."""
    registry = ParserRegistry(build_sql_product_line(), **registry_kwargs)
    return ParseService(registry)


class TestTranslateOnTheServiceRegistry:
    """A translate resolves both dialects on the service's registry, as a
    parse resolves its selection, and never on the shared one."""

    def test_a_cold_translate_composes_on_the_service_registry(self):
        shared = len(sql_parser_registry())
        with make_sql_service() as service:
            assert service.translate("SELECT a FROM t", "core", "scql").ok
            counters = service.metrics.snapshot()["counters"]
            assert len(service.registry) == 2
        assert counters["misses"] == counters["composes"] == 2
        assert len(sql_parser_registry()) == shared

    def test_the_lint_gate_checks_a_cold_translate(self):
        with make_sql_service(lint_gate=True) as service:
            assert service.translate("SELECT a FROM t", "core", "core").ok
            assert service.metrics.snapshot()["counters"]["lint_checks"] >= 1

    def test_a_cleared_registry_composes_again(self):
        with make_sql_service() as service:
            assert service.translate("SELECT a FROM t", "core", "core").ok
            service.registry.clear()
            misses = service.metrics.snapshot()["counters"]["misses"]
            assert service.translate("SELECT a FROM t", "core", "core").ok
            assert service.metrics.snapshot()["counters"]["misses"] > misses

    def test_a_compose_fault_answers_one_diagnostic(self):
        plan = FaultPlan([FaultRule("compose", times=1)])
        with make_sql_service(fault_plan=plan) as service:
            first = service.translate("SELECT a FROM t", "core", "core")
            second = service.translate("SELECT a FROM t", "core", "core")
        assert not first.ok and first.diagnostics.has_errors
        assert plan.checked("compose") > 0
        assert second.ok and second.sql == "SELECT a FROM t"

    @pytest.mark.parametrize("source, target", [("nope", "core"), ("core", "nope")])
    def test_an_unknown_dialect_is_the_callers_error(self, source, target):
        with make_sql_service() as service:
            result = service.translate("SELECT a FROM t", source, target)
            counters = service.metrics.snapshot()["counters"]
            status = service.health()["status"]
        (diagnostic,) = result.diagnostics
        assert diagnostic.code == CONFIG_INVALID
        assert str(dialect_names()) in diagnostic.message
        assert counters["translate_errors"] == 1
        assert counters["internal_errors"] == 0
        assert status == "ok"


class TestParseMany:
    def test_results_in_order(self, service):
        texts = [f"SELECT c{i} FROM t{i}" for i in range(12)]
        results = service.parse_many(texts, ["Query"])
        assert [r.text for r in results] == texts
        assert all(r.ok for r in results)

    def test_one_compose_across_threads(self, compose_calls):
        """N workers, one selection: composition still happens exactly once."""
        with make_service(max_workers=8) as service:
            texts = [f"SELECT c{i} FROM t WHERE a = b" for i in range(32)]
            results = service.parse_many(texts, ["Query", "Where"])
            assert all(r.ok for r in results)
            assert service.metrics.counter("composes") == 1
            assert service.metrics.counter("parses") == 32
            assert not results[0].warm  # the batch composed
            again = service.parse_many(texts[:4], ["Query", "Where"])
            assert again[0].warm
            assert service.metrics.counter("composes") == 1

    def test_mixed_outcomes_keep_positions(self, service):
        texts = ["SELECT a FROM t", "SELECT !! nonsense", "SELECT b FROM u"]
        results = service.parse_many(texts, ["Query"])
        assert results[0].ok
        assert not results[1].ok
        assert results[2].ok

    @pytest.mark.parametrize("workers", [1, 2])
    def test_only_the_first_result_reports_a_cold_batch(self, workers):
        texts = ["SELECT a FROM t", "SELECT b FROM t", "SELECT c FROM t"]
        with make_service(max_workers=workers) as service:
            cold = service.parse_many(texts, FULL)
            warm = service.parse_many(texts, FULL)
        assert [r.warm for r in cold] == [False, True, True]
        assert [r.warm for r in warm] == [True, True, True]

    def test_empty_batch(self, service):
        assert service.parse_many([], ["Query"]) == []

    def test_invalid_selection_fails_whole_batch(self, service):
        results = service.parse_many(["SELECT a FROM t"] * 3, ["Bogus"])
        assert len(results) == 3
        assert all(not r.ok for r in results)

    def test_timeout_yields_e0203(self, monkeypatch):
        original = Parser.parse_with_diagnostics

        def slow(self, text, **kwargs):
            if "SLOW" in text:
                time.sleep(2.0)
            return original(self, text, **kwargs)

        monkeypatch.setattr(Parser, "parse_with_diagnostics", slow)
        # >= 2 texts and >= 2 workers so the pooled (timeout-aware) path runs
        with make_service(max_workers=2) as service:
            results = service.parse_many(
                ["SELECT a FROM t -- SLOW", "SELECT b FROM u"],
                ["Query"],
                timeout=0.2,
            )
        assert results[0].timed_out
        assert not results[0].ok
        assert any(d.code == PARSE_TIMEOUT for d in results[0].diagnostics)
        assert results[1].ok
        assert service.metrics.counter("timeouts") == 1
        # timed-out requests land in the dedicated latency series instead
        # of silently bypassing the histograms
        snapshot = service.metrics.snapshot()
        assert snapshot["latency"]["timeouts"]["count"] == 1


class TestPooledParseManyThreads:
    """Two or more texts on two or more workers: without a timeout the
    caller parses them all; with one, each text gets a pool future."""

    TEXTS = [f"SELECT c{i} FROM t{i} WHERE a = b" for i in range(6)]

    @staticmethod
    def record(monkeypatch, service):
        """(thread id, in_flight) as each ``_parse_entry`` call starts."""
        seen = []
        original = service._parse_entry

        def recording(*args, **kwargs):
            seen.append((threading.get_ident(), service.in_flight))
            return original(*args, **kwargs)

        monkeypatch.setattr(service, "_parse_entry", recording)
        return seen

    def test_no_timeout_parses_on_the_calling_thread(self, monkeypatch):
        with make_service(max_workers=2) as service:
            seen = self.record(monkeypatch, service)
            results = service.parse_many(self.TEXTS, FULL)
        assert all(r.ok for r in results)
        caller = threading.get_ident()
        assert [ident for ident, _ in seen] == [caller] * len(self.TEXTS)

    def test_no_timeout_trees_equal_the_serial_paths(self):
        with make_service(max_workers=1) as serial, \
                make_service(max_workers=2) as pooled:
            expected = serial.parse_many(self.TEXTS, FULL)
            results = pooled.parse_many(self.TEXTS, FULL)
        assert [r.text for r in results] == self.TEXTS
        assert all(r.tree is not None for r in results)
        assert [r.tree for r in results] == [r.tree for r in expected]

    def test_timeout_parses_on_pool_threads(self, monkeypatch):
        with make_service(max_workers=2) as service:
            seen = self.record(monkeypatch, service)
            results = service.parse_many(self.TEXTS, FULL, timeout=30.0)
        assert all(r.ok for r in results)
        assert len(seen) == len(self.TEXTS)
        assert threading.get_ident() not in {ident for ident, _ in seen}

    def test_each_text_releases_its_slot_as_it_finishes(self, monkeypatch):
        with make_service(max_workers=2) as service:
            seen = self.record(monkeypatch, service)
            service.parse_many(self.TEXTS, FULL)
            n = len(self.TEXTS)
            assert [depth for _, depth in seen] == [n - k for k in range(n)]
            assert service.in_flight == 0

    def test_an_interrupt_frees_the_unparsed_texts_slots(self, monkeypatch):
        class Interrupt(BaseException):
            pass

        with make_service(max_workers=2) as service:
            original = service._parse_entry

            def interrupted(entry, text, *args, **kwargs):
                if text == self.TEXTS[2]:
                    raise Interrupt
                return original(entry, text, *args, **kwargs)

            monkeypatch.setattr(service, "_parse_entry", interrupted)
            with pytest.raises(Interrupt):
                service.parse_many(self.TEXTS, FULL)
            assert service.in_flight == 0


class TestForeignCoverageCollector:
    def test_collector_of_another_selection_is_refused(self, service):
        """A collector keyed to another product's program is refused with
        the parser's own ValueError before anything parses, not merged
        inside the never-crash guard into an E0000 result."""
        foreign = service.registry.get(["Query"]).coverage_collector()
        texts = ["SELECT a FROM t", "SELECT b FROM u WHERE x = y"]
        with pytest.raises(ValueError, match="different parse program"):
            service.parse(texts[0], FULL, coverage=foreign)
        with pytest.raises(ValueError, match="different parse program"):
            service.parse_many(texts, FULL, coverage=foreign)
        assert service.metrics.counter("internal_errors") == 0
        assert service.metrics.counter("parses") == 0
        assert service.health()["status"] == "ok"
        assert service.in_flight == 0
        assert sum(foreign.rules) == 0


class TestLifecycleAndStats:
    def test_stats_snapshot_shape(self, service):
        service.parse("SELECT a FROM t", ["Query"])
        snap = service.stats()
        assert set(snap) == {
            "backend", "counters", "hit_rate", "latency", "registry",
            "executor", "queue_depth",
        }
        assert snap["backend"] == "compiled"
        assert snap["executor"]["kind"] == "thread"
        assert snap["executor"]["effective"] == "thread"
        assert snap["counters"]["parses"] == 1
        assert snap["registry"]["entries"] == 1
        assert snap["registry"]["capacity"] == service.registry.capacity
        assert snap["registry"]["disk_cache"] is None
        assert snap["latency"]["parse"]["count"] == 1
        assert "parse service stats" in service.render_stats()

    @pytest.mark.parametrize(
        "texts, workers",
        [(["a", "b"], 2), (["a"], 2), (["a", "b"], 1)],
        ids=["pooled", "one-text", "one-worker"],
    )
    def test_closed_service_refuses_batches(self, texts, workers):
        service = make_service(max_workers=workers)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.parse_many(texts, ["Query"])

    def test_default_service_uses_shared_sql_registry(self):
        from repro.sql import sql_parser_registry

        service = ParseService()
        assert service.registry is sql_parser_registry()

    def test_explicit_registry_is_honored(self):
        line = GrammarProductLine(mini_model(), mini_units(), name="mini-sql")
        registry = ParserRegistry(line, capacity=4)
        service = ParseService(registry=registry)
        assert service.registry is registry
        assert service.metrics is registry.metrics

    def test_cache_dir_reaches_registry(self, tmp_path):
        service = make_service(cache_dir=tmp_path)
        assert service.registry.cache_dir == tmp_path

    @pytest.mark.parametrize("before", [None, "before"])
    def test_close_points_the_registry_back(self, tmp_path, before):
        """A service that set the registry's cache directory gives the
        registry back the directory it had: a later compose on that
        registry (possibly the shared one) writes nothing into, and
        recreates nothing at, the service's directory."""
        line = GrammarProductLine(mini_model(), mini_units(), name="mini-sql")
        previous = tmp_path / before if before else None
        registry = ParserRegistry(line, cache_dir=previous)
        ours = tmp_path / "ours"
        with ParseService(registry=registry, cache_dir=ours) as service:
            assert service.parse("SELECT a FROM t", ["Query"]).ok
        assert list(ours.iterdir())  # the service's compose published here
        shutil.rmtree(ours)
        assert registry.cache_dir == previous
        later = ParseService(registry=registry).parse(
            "SELECT a FROM t WHERE x = y", ["Query", "Where"]
        )
        assert later.ok
        assert not ours.exists()

    def test_close_points_the_shared_registry_back(self, tmp_path):
        shared = sql_parser_registry()
        before = shared.cache_dir
        with ParseService(cache_dir=tmp_path):
            assert shared.cache_dir == tmp_path
        assert shared.cache_dir == before

"""ServiceMetrics accounting: what one fixed script of requests records.

The pin drives one fresh service through every way a request can be
answered and asserts the whole counters dict and the number of
observations in every latency and queue-depth series (never their
times).  The lock test counts ``ServiceMetrics._lock`` acquisitions: one
answered parse, one caller-loop batch and one translate each fold into
the metrics under one acquisition.
"""

import asyncio
import sys
import threading

import pytest

from repro.core import GrammarProductLine
from repro.diagnostics.model import (
    GENERIC_ERROR,
    PARSE_ERROR,
    PARSE_TIMEOUT,
    SERVICE_OVERLOADED,
    UNTRANSLATABLE,
    Diagnostic,
    DiagnosticBag,
    Severity,
)
from repro.parsing.closures import ClosureParser
from repro.parsing.parser import Parser
from repro.resilience.faults import FaultPlan, FaultRule
import repro.transpile
from repro.service import (
    AsyncParseService,
    ParserRegistry,
    ParseService,
    ServiceMetrics,
)
from repro.service.service import ParseServiceResult
from repro.sql import build_sql_product_line, dialect_selection

from tests.test_core_product_line import mini_model, mini_units
from tests.test_resilience import backtracking_grammar

FULL = ["Query", "SetQuantifier", "MultiColumn", "Where", "GroupBy"]
OTHER = ["Query", "Where"]
GOOD = "SELECT a FROM t WHERE x = y"
BAD = "SELECT FROM WHERE"
BATCH = [f"SELECT c{i} FROM t{i} WHERE a = b" for i in range(3)]


def make_service(**kwargs):
    line = GrammarProductLine(mini_model(), mini_units(), name="mini-sql")
    return ParseService(registry=ParserRegistry(line), **kwargs)


def make_sql_service(**kwargs):
    """A service on a fresh SQL:2003 registry: a translate resolves its
    preset dialects there, and the mini-sql line has none."""
    return ParseService(
        registry=ParserRegistry(build_sql_product_line()), **kwargs
    )


def series_counts(service) -> dict:
    """Every counter, and the observation count of every series."""
    snap = service.metrics.snapshot()
    return {
        "counters": snap["counters"],
        "latency": {n: h["count"] for n, h in snap["latency"].items()},
        "queue_depth": {n: g["count"] for n, g in snap["queue_depth"].items()},
    }


def slow_backtrack(original):
    """``parse_with_diagnostics`` that stalls cooperatively on one text."""

    def parse(self, text, **kwargs):
        if "pathological" in text:
            return original(
                Parser(backtracking_grammar()), "a " * 22,
                max_steps=10**9, deadline=kwargs.get("deadline"),
            )
        return original(self, text, **kwargs)

    return parse


def shed_one(service, monkeypatch):
    """With ``max_queue=1`` and the slot held by another caller, one
    ``parse`` is shed; the holder's own parse then completes."""
    entered, release = threading.Event(), threading.Event()
    original = service._parse_entry

    def blocking(entry, text, *args, **kwargs):
        if text == "SELECT blocker FROM t":
            entered.set()
            release.wait(timeout=10)
        return original(entry, text, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(service, "max_queue", 1)
        patch.setattr(service, "_parse_entry", blocking)
        held = []
        holder = threading.Thread(
            target=lambda: held.append(
                service.parse("SELECT blocker FROM t", FULL)
            )
        )
        holder.start()
        try:
            assert entered.wait(timeout=10)
            shed = service.parse(GOOD, FULL)
        finally:
            release.set()
            holder.join(timeout=10)
    assert held[0].ok
    return shed


def run_script(service, monkeypatch) -> list:
    """The fixed script; returns each request's result(s)."""
    out = [service.parse(GOOD, FULL), service.parse(BAD, FULL)]
    with monkeypatch.context() as patch:
        patch.setattr(
            Parser, "parse_with_diagnostics",
            slow_backtrack(Parser.parse_with_diagnostics),
        )
        out.append(service.parse(
            "SELECT x FROM t -- pathological", FULL, timeout=0.05
        ))
    out.append(service.parse_many(BATCH, FULL))
    out.append(service.parse_many(BATCH, FULL, timeout=30.0))
    out.append(shed_one(service, monkeypatch))
    with monkeypatch.context() as patch:
        # a fresh selection's entry picks up the registry's plan
        patch.setattr(
            service.registry, "faults",
            FaultPlan([FaultRule("closure.compile", times=1)]),
        )
        out.append(service.parse(GOOD, OTHER))
    collector = service.registry.get(FULL).coverage_collector()
    out.append(service.parse(GOOD, FULL, coverage=collector))
    with monkeypatch.context() as patch:
        patch.setattr(
            service.registry, "faults",
            FaultPlan([FaultRule("worker.execute", times=1)]),
        )
        out.append(service.parse(GOOD, FULL))
    with monkeypatch.context() as patch:
        def broken(self, text, **kwargs):
            raise RuntimeError("every rung fails")

        patch.setattr(Parser, "parse_with_diagnostics", broken)
        out.append(service.parse(GOOD, FULL))

    async def expired():
        front = AsyncParseService(service)
        try:
            return await front.parse(GOOD, FULL, timeout=-1.0)
        finally:
            await front.close()

    out.append(asyncio.run(expired()))
    return out


#: What the script recorded with the accounting each path did on its own
#: (nonzero counters, and observations per series); the fold keeps all
#: of it but the two entries ``test_fixed_script`` names.
SCRIPT_COUNTERS = {
    "hits": 9, "misses": 2, "composes": 2, "artifact.ir.build": 2,
    "parses": 13, "parse_errors": 2, "timeouts": 2, "shed": 1,
    "degraded_backend": 2, "internal_errors": 2, "async_parses": 1,
}
SCRIPT_LATENCY = {
    "compose": 2, "ir_compile": 2, "closure_compile": 1, "parse": 15,
    "parse_compiled": 10, "parse_interpreter": 2, "lint": 0,
    "timeouts": 2, "render": 0, "translate": 0, "executor_thread": 6,
    "executor_process": 0,
}
SCRIPT_DEPTHS = {"thread": 6, "process": 0, "async": 1}


class TestAccountingPin:
    def test_fixed_script(self, monkeypatch):
        with make_service(max_workers=2) as service:
            out = run_script(service, monkeypatch)
            counts = series_counts(service)
        codes = [
            [d.code for d in r.diagnostics] for r in out
            if not isinstance(r, list)
        ]
        assert codes == [
            [], ["E0201"], [PARSE_TIMEOUT], [SERVICE_OVERLOADED], [], [],
            [GENERIC_ERROR], [GENERIC_ERROR], [PARSE_TIMEOUT],
        ]
        assert [r.degraded for r in out if not isinstance(r, list)][4:8] == [
            ("backend",), (), ("internal-error",), ("internal-error",),
        ]
        assert all(r.ok for batch in out[3:5] for r in batch)
        assert counts["counters"] == {
            **{name: 0 for name in service.metrics.COUNTERS},
            **SCRIPT_COUNTERS,
        }
        # one "parse" observation per answered parse, as "parses"
        # counts; a rung that raises inside its parse adds none (the
        # request every rung failed on added three).  The "render"
        # series, which nothing observed, is gone.
        expected = {**SCRIPT_LATENCY, "parse": 13}
        del expected["render"]
        assert counts["latency"] == expected
        assert counts["queue_depth"] == SCRIPT_DEPTHS

    def test_a_degraded_request_observes_one_parse(self, monkeypatch):
        def broken(self, text, **kwargs):
            raise RuntimeError("the compiled rung fails")

        with make_service() as service:
            service.warm(FULL)
            monkeypatch.setattr(ClosureParser, "parse_with_diagnostics", broken)
            result = service.parse(GOOD, FULL)
            latency = series_counts(service)["latency"]
        assert result.ok and result.degraded == ("backend",)
        assert latency["parse"] == latency["parse_interpreter"] == 1
        assert latency["parse_compiled"] == 0


def run_translates(service, monkeypatch) -> list:
    """Each way a translate can end: translated, refused (E0401), a
    source syntax error, an internal error, and shed."""
    out = [
        service.translate(
            "SELECT a FROM t INNER JOIN u ON a = b", "full", "core"
        ),
        service.translate("SELECT t.a FROM t", "core", "scql"),
        service.translate("SELECT FROM WHERE", "core", "core"),
    ]
    with monkeypatch.context() as patch:
        def broken(registry, sql, source, target):
            raise RuntimeError("the transpiler fails")

        patch.setattr(repro.transpile, "translate_on", broken)
        out.append(service.translate(GOOD, "core", "core"))
    with monkeypatch.context() as patch:
        patch.setattr(service, "max_queue", 0)
        out.append(service.translate(GOOD, "core", "core"))
    return out


class TestTranslatePin:
    """What each way a translate ends returns and records."""

    def test_fixed_script(self, monkeypatch):
        with make_sql_service() as service:
            out = run_translates(service, monkeypatch)
            counts = series_counts(service)
            in_flight = service.in_flight
        assert [r.ok for r in out] == [True, False, False, False, False]
        assert [r.sql for r in out] == [
            "SELECT a FROM t JOIN u ON a = b", None, None, None, None,
        ]
        assert [r.rewrites for r in out] == [()] * 5
        assert [[d.code for d in r.diagnostics] for r in out] == [
            [], [UNTRANSLATABLE], [PARSE_ERROR], [GENERIC_ERROR],
            [SERVICE_OVERLOADED],
        ]
        assert [type(r.result).__name__ for r in out] == [
            "TranslationResult", "NoneType", "NoneType", "NoneType",
            "NoneType",
        ]
        assert out[0].result.sql == out[0].sql
        messages = [[d.message for d in r.diagnostics] for r in out]
        assert "missing feature units QualifiedNames" in messages[1][0]
        assert messages[3] == [
            "internal transpiler error; nothing was translated"
        ]
        # every translate that ran is timed; a shed one never ran
        assert all(r.seconds > 0.0 for r in out[:4])
        assert out[4].seconds == 0.0
        assert [(r.source_dialect, r.target_dialect) for r in out] == [
            ("full", "core"), ("core", "scql"), ("core", "core"),
            ("core", "core"), ("core", "core"),
        ]
        # the registry served both dialects of every translate that ran
        # to a lookup: full, core and scql composed once each, and the
        # refusal and the syntax error never compiled their target
        assert counts["counters"] == {
            **{name: 0 for name in service.metrics.COUNTERS},
            "hits": 3, "misses": 3, "composes": 3, "artifact.ir.build": 2,
            "translates": 4, "renders": 1, "translate_errors": 3,
            "internal_errors": 1, "shed": 1,
        }
        assert counts["latency"] == {
            **{name: 0 for name in counts["latency"]}, "compose": 3,
            "ir_compile": 2, "closure_compile": 2, "translate": 4,
        }
        assert counts["queue_depth"] == {"thread": 0, "process": 0, "async": 0}
        assert in_flight == 0


class CountingLock:
    """A lock proxy that counts its acquisitions."""

    def __init__(self, lock):
        self.lock, self.acquired = lock, 0

    def __enter__(self):
        self.acquired += 1
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


class TestOneLockPerParse:
    def test_one_acquisition_per_batch_and_per_parse(self, monkeypatch):
        texts = [f"SELECT c{i} FROM t WHERE a = b" for i in range(8)]
        with make_service(max_workers=2) as service:
            service.parse_many(texts, FULL)  # compose and compile
            lock = CountingLock(service.metrics._lock)
            monkeypatch.setattr(service.metrics, "_lock", lock)

            def acquisitions(call):
                before = lock.acquired
                call()
                return lock.acquired - before

            # the registry counts its hit under the lock on its own
            lookup = acquisitions(lambda: service.registry.acquire(FULL))
            assert lookup == 1
            assert acquisitions(lambda: service.parse(GOOD, FULL)) == lookup + 1
            # a caller-loop batch folds once, after its last text
            assert acquisitions(
                lambda: service.parse_many(texts, FULL)
            ) == lookup + 1

    def test_one_acquisition_per_translate(self, monkeypatch):
        with make_sql_service() as service:
            service.translate(GOOD, "core", "core")  # warm the dialect
            lock = CountingLock(service.metrics._lock)
            monkeypatch.setattr(service.metrics, "_lock", lock)
            service.registry.acquire(dialect_selection("core"))
            lookup = lock.acquired
            assert lookup == 1
            result = service.translate(GOOD, "core", "core")
        assert result.ok
        # one registry lookup per dialect, as a parse has one, and one fold
        assert lock.acquired - lookup == 2 * lookup + 1


def fold_from_threads(fold, threads=8):
    """Run ``fold`` on ``threads`` threads at once, with a short switch
    interval."""
    barrier = threading.Barrier(threads)

    def run():
        barrier.wait(timeout=10)
        fold()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)


def bag_of(code):
    bag = DiagnosticBag()
    bag.add(Diagnostic("failed", severity=Severity.ERROR, code=code))
    return bag


class TestConcurrentFolds:
    def test_no_fold_is_lost_between_threads(self):
        """Eight threads fold parses into one metrics object at once, with
        a short switch interval: every count lands."""
        metrics = ServiceMetrics()
        result = ParseServiceResult(text=GOOD, seconds=0.001)
        per_thread, threads = 500, 8

        def fold():
            for _ in range(per_thread):
                metrics.record_parse(result, "parse_compiled")

        fold_from_threads(fold, threads)
        snap = metrics.snapshot()
        n = per_thread * threads
        assert snap["counters"]["parses"] == n
        assert snap["latency"]["parse"]["count"] == n
        assert snap["latency"]["parse_compiled"]["count"] == n

    def test_no_batch_fold_is_lost_between_threads(self):
        """Eight threads fold caller-loop batches into one metrics object
        at once, with a short switch interval: every counter, series and
        gauge count is what the same batches folded one by one give."""
        batch = [
            (ParseServiceResult(text=GOOD, seconds=0.001),
             "parse_compiled", 1, 0.002),
            (ParseServiceResult(text=BAD, seconds=0.003,
                                diagnostics=bag_of(PARSE_ERROR)),
             "parse_interpreter", 2, 0.004),
            (ParseServiceResult(text=GOOD, seconds=0.05, timed_out=True,
                                diagnostics=bag_of(PARSE_TIMEOUT)),
             "parse_compiled", 3, 0.06),
            (ParseServiceResult(text=GOOD, seconds=0.05, timed_out=True,
                                diagnostics=bag_of(PARSE_TIMEOUT)),
             None, 4, 0.07),
        ]
        per_thread, threads = 250, 8
        metrics, reference = ServiceMetrics(), ServiceMetrics()
        fold_from_threads(
            lambda: [metrics.record_batch(batch) for _ in range(per_thread)],
            threads,
        )
        for _ in range(per_thread * threads):
            reference.record_batch(batch)

        def counts(snap):
            return {
                "counters": snap["counters"],
                "latency": {n: h["count"] for n, h in snap["latency"].items()},
                "queue_depth": {
                    n: (g["count"], g.get("max"))
                    for n, g in snap["queue_depth"].items()
                },
            }

        n = per_thread * threads
        got = counts(metrics.snapshot())
        assert got == counts(reference.snapshot())
        assert (got["counters"]["parses"], got["counters"]["parse_errors"],
                got["counters"]["timeouts"]) == (3 * n, 2 * n, 2 * n)
        assert got["latency"]["executor_thread"] == 4 * n
        assert got["queue_depth"]["thread"] == (4 * n, 4)


class TestInterruptedBatch:
    def test_the_texts_answered_before_an_interrupt_are_folded(
        self, monkeypatch
    ):
        """An interrupt escapes the never-crash guard at a caller batch's
        third text: the two texts answered before it are folded, and
        every slot is freed."""
        texts = [f"SELECT c{i} FROM t WHERE a = b" for i in range(5)]
        original = ClosureParser.parse_with_diagnostics
        calls = []

        def interrupted(self, text, **kwargs):
            calls.append(text)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return original(self, text, **kwargs)

        with make_service(max_workers=2) as service:
            service.warm(FULL)
            monkeypatch.setattr(
                ClosureParser, "parse_with_diagnostics", interrupted
            )
            with pytest.raises(KeyboardInterrupt):
                service.parse_many(texts, FULL)
            counts = series_counts(service)
            in_flight = service.in_flight
        assert calls == texts[:3]
        assert counts["counters"]["parses"] == 2
        latency = counts["latency"]
        assert latency["parse"] == latency["parse_compiled"] == 2
        assert latency["executor_thread"] == 2
        assert counts["queue_depth"]["thread"] == 2
        assert in_flight == 0

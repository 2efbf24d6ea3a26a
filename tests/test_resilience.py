"""repro.resilience: faults, deadlines, breakers, retry — and the service ladder."""

import threading
import time

import pytest

from repro.core import GrammarProductLine
from repro.diagnostics.model import (
    CIRCUIT_OPEN,
    PARSE_TIMEOUT,
    SERVICE_OVERLOADED,
)
from repro.errors import ParseDeadlineExceeded
from repro.grammar import read_grammar
from repro.lexer import TokenSet, literal, pattern, standard_skip_tokens
from repro.parsing.parser import DEADLINE_CHECK_INTERVAL, Parser
from repro.resilience import (
    BreakerPolicy,
    CircuitBreaker,
    Deadline,
    FaultInjected,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    retry_call,
)
from repro.resilience.faults import SITES
from repro.service import ParseService, ParserRegistry

from tests.test_core_product_line import mini_model, mini_units

FULL = ["Query", "SetQuantifier", "MultiColumn", "Where", "GroupBy"]


def make_line():
    return GrammarProductLine(mini_model(), mini_units(), name="mini-sql")


def make_service(fault_plan=None, **kwargs):
    registry = ParserRegistry(make_line(), fault_plan=fault_plan)
    return ParseService(registry=registry, **kwargs)


# -- FaultPlan ----------------------------------------------------------------


class TestFaultPlan:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan([FaultRule("no.such.site")])

    @pytest.mark.parametrize(
        "site",
        ["artifact.read.closures", "artifact.write.closures",
         "artifact.write.lex"],
    )
    def test_removed_closures_sites_are_unknown(self, site):
        # no artifact is named closures or lex any more: a plan naming
        # these sites fails loudly instead of testing nothing
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan([FaultRule(site)])

    def test_duplicate_site_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan([FaultRule("compose"), FaultRule("compose")])

    def test_certain_fault_fires(self):
        plan = FaultPlan([FaultRule("compose", probability=1.0)])
        with pytest.raises(FaultInjected):
            plan.check("compose")
        assert plan.fired("compose") == 1
        assert plan.checked("compose") == 1

    def test_unruled_site_never_fires(self):
        plan = FaultPlan([FaultRule("compose")])
        for _ in range(100):
            plan.check("backend.parse")
        assert plan.fired() == 0

    def test_determinism_across_instances(self):
        rules = [FaultRule("backend.parse", probability=0.5, times=None)]
        outcomes_a, outcomes_b = [], []
        for outcomes in (outcomes_a, outcomes_b):
            plan = FaultPlan(rules, seed=42)
            for _ in range(50):
                try:
                    plan.check("backend.parse")
                    outcomes.append(False)
                except FaultInjected:
                    outcomes.append(True)
        assert outcomes_a == outcomes_b
        assert any(outcomes_a) and not all(outcomes_a)

    def test_per_site_streams_are_independent(self):
        """Adding a rule for one site must not change another's decisions."""

        def decisions(rules):
            plan = FaultPlan(rules, seed=7)
            out = []
            for _ in range(30):
                try:
                    plan.check("backend.parse")
                    out.append(False)
                except FaultInjected:
                    out.append(True)
            return out

        solo = decisions([FaultRule("backend.parse", probability=0.4)])
        paired = decisions(
            [
                FaultRule("backend.parse", probability=0.4),
                FaultRule("compose", probability=0.9),
            ]
        )
        assert solo == paired

    def test_times_and_after(self):
        plan = FaultPlan(
            [FaultRule("compose", probability=1.0, times=2, after=1)]
        )
        plan.check("compose")  # after=1: the first check never fires
        with pytest.raises(FaultInjected):
            plan.check("compose")
        with pytest.raises(FaultInjected):
            plan.check("compose")
        plan.check("compose")  # times=2 exhausted: back to normal
        assert plan.fired("compose") == 2

    def test_custom_error_type(self):
        plan = FaultPlan([FaultRule("artifact.read.ir", error=OSError)])
        with pytest.raises(OSError):
            plan.check("artifact.read.ir")

    def test_transcript_records_every_decision(self):
        plan = FaultPlan([FaultRule("compose", probability=1.0, times=1)])
        with pytest.raises(FaultInjected):
            plan.check("compose")
        plan.check("compose")
        transcript = plan.transcript()
        assert [t["fired"] for t in transcript] == [True, False]
        assert transcript[0]["error"] == "FaultInjected"
        payload = plan.to_json()
        assert "repro-fault-transcript" in payload
        assert '"fired": true' in payload

    def test_chaos_plan_is_reproducible_and_covers_all_sites(self):
        plan_a = FaultPlan.chaos(123)
        plan_b = FaultPlan.chaos(123)
        assert plan_a.to_json() == plan_b.to_json()
        # same seed, same decisions when exercised identically
        for plan in (plan_a, plan_b):
            for site in SITES * 5:
                try:
                    plan.check(site)
                except Exception:  # noqa: S110 - firing is the point
                    pass
        assert plan_a.fired() == plan_b.fired() > 0
        assert plan_a.transcript() == plan_b.transcript()


# -- Deadline -----------------------------------------------------------------


class TestDeadline:
    def test_fake_clock(self):
        now = [100.0]
        deadline = Deadline.after(5.0, clock=lambda: now[0])
        assert not deadline.expired()
        assert deadline.remaining() == pytest.approx(5.0)
        now[0] += 5.0
        assert deadline.expired()
        now[0] += 1.0
        assert deadline.remaining() == pytest.approx(-1.0)

    def test_real_clock_sanity(self):
        deadline = Deadline.after(60.0)
        assert not deadline.expired()
        assert 59.0 < deadline.remaining() <= 60.0


# -- CircuitBreaker -----------------------------------------------------------


class TestCircuitBreaker:
    def make(self, threshold=3, cooldown=10.0):
        now = [0.0]
        breaker = CircuitBreaker(
            BreakerPolicy(threshold=threshold, cooldown=cooldown),
            clock=lambda: now[0],
        )
        return breaker, now

    def test_trips_after_threshold_consecutive_failures(self):
        breaker, _ = self.make(threshold=3)
        assert not breaker.record_failure()
        assert not breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.record_failure()  # the tripping failure
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_the_streak(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        assert not breaker.record_failure()  # streak restarted
        assert breaker.state == "closed"

    def test_half_open_single_probe_then_close(self):
        breaker, now = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(10.0)
        now[0] += 10.0
        assert breaker.state == "half-open"
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # concurrent requests still fail fast
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_failed_probe_reopens(self):
        breaker, now = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        now[0] += 10.0
        assert breaker.allow()
        assert breaker.record_failure()  # failed probe: reopen
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(10.0)  # cooldown restarted

    def test_snapshot(self):
        breaker, _ = self.make(threshold=1, cooldown=7.0)
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap["state"] == "open"
        assert snap["retry_after"] == pytest.approx(7.0)


# -- retry_call ---------------------------------------------------------------


class FixedRng:
    def random(self):
        return 0.0  # no jitter: the schedule is exactly base * mult**n


class TestRetry:
    def test_transient_error_retried_then_succeeds(self):
        calls = []
        delays = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        result = retry_call(
            flaky,
            RetryPolicy(attempts=3, base_delay=0.01, multiplier=2.0),
            sleep=delays.append,
            rng=FixedRng(),
        )
        assert result == "ok"
        assert len(calls) == 3
        assert delays == [pytest.approx(0.01), pytest.approx(0.02)]

    def test_file_not_found_is_definitive(self):
        calls = []

        def missing():
            calls.append(1)
            raise FileNotFoundError("no such artifact")

        with pytest.raises(FileNotFoundError):
            retry_call(missing, sleep=lambda _s: None)
        assert len(calls) == 1  # not retried

    def test_attempts_exhausted_raises_last_error(self):
        def always():
            raise OSError("still broken")

        with pytest.raises(OSError, match="still broken"):
            retry_call(
                always, RetryPolicy(attempts=4), sleep=lambda _s: None
            )

    def test_on_retry_callback_counts(self):
        seen = []

        def always():
            raise OSError("x")

        with pytest.raises(OSError):
            retry_call(
                always,
                RetryPolicy(attempts=3),
                sleep=lambda _s: None,
                on_retry=lambda attempt, error: seen.append(attempt),
            )
        assert seen == [1, 2]

    def test_delay_capped_at_max(self):
        delays = []

        def always():
            raise OSError("x")

        with pytest.raises(OSError):
            retry_call(
                always,
                RetryPolicy(attempts=5, base_delay=0.05, max_delay=0.08,
                            multiplier=10.0),
                sleep=delays.append,
                rng=FixedRng(),
            )
        assert delays == [
            pytest.approx(0.05), pytest.approx(0.08),
            pytest.approx(0.08), pytest.approx(0.08),
        ]


# -- cooperative deadlines in the parse driver --------------------------------


def backtracking_grammar():
    """A grammar whose non-LL(1) choices backtrack exponentially.

    ``t : y t SEMI | y t | y`` — without semicolons the first
    alternative recurses to the end of the input, fails on ``SEMI``,
    and the second alternative re-parses the entire suffix from
    scratch: T(n) = 2*T(n-1).  Measured: ~3M driver steps for 18
    identifiers, doubling per token — a run of ~22 is minutes of work,
    which is exactly what a propagated deadline must bound.
    """
    tokens = TokenSet(
        "backtrack",
        standard_skip_tokens()
        + [
            literal("SEMI", ";"),
            pattern("IDENTIFIER", r"[A-Za-z_][A-Za-z0-9_]*", priority=1),
        ],
    )
    return read_grammar(
        """
        grammar backtrack ;
        start s ;
        s : t ;
        t : y t SEMI | y t | y ;
        y : IDENTIFIER ;
        """,
        tokens=tokens,
    )


class TestParserDeadline:
    def test_expired_deadline_aborts_promptly(self):
        parser = Parser(backtracking_grammar())
        deadline = Deadline.after(0.0)  # already expired
        with pytest.raises(ParseDeadlineExceeded) as excinfo:
            parser.parse_tokens(
                parser.scanner.scan("a " * 40), max_steps=10**7,
                deadline=deadline,
            )
        # the abort happened within one check interval of work
        assert excinfo.value.steps <= DEADLINE_CHECK_INTERVAL
        assert excinfo.value.code == PARSE_TIMEOUT

    def test_deadline_release_regression(self):
        """A timed-out parse returns within ~one check interval, not at
        fuel exhaustion — the worker-release acceptance criterion."""
        parser = Parser(backtracking_grammar())
        text = "a " * 22
        deadline = Deadline.after(0.05)
        t0 = time.perf_counter()
        outcome = parser.parse_with_diagnostics(
            text, max_steps=10**9, deadline=deadline
        )
        elapsed = time.perf_counter() - t0
        assert any(d.code == PARSE_TIMEOUT for d in outcome.diagnostics)
        # generous bound: deadline 0.05s + check latency; without the
        # cooperative check this input runs for minutes
        assert elapsed < 2.0

    def test_deadline_none_parses_normally(self):
        parser = Parser(backtracking_grammar())
        tree = parser.parse_tokens(
            parser.scanner.scan("a b c ;"), deadline=None
        )
        assert tree is not None

    def test_future_deadline_does_not_change_results(self):
        parser = Parser(backtracking_grammar())
        far = Deadline.after(3600.0)
        with_deadline = parser.parse_tokens(
            parser.scanner.scan("a b c ;"), deadline=far
        )
        without = parser.parse_tokens(parser.scanner.scan("a b c ;"))
        assert with_deadline.to_sexpr() == without.to_sexpr()

    def test_deadline_state_reset_between_parses(self):
        parser = Parser(backtracking_grammar())
        with pytest.raises(ParseDeadlineExceeded):
            parser.parse_tokens(
                parser.scanner.scan("a " * 40), max_steps=10**7,
                deadline=Deadline.after(0.0),
            )
        # a later parse without a deadline is unaffected
        tree = parser.parse_tokens(parser.scanner.scan("a b ;"))
        assert tree is not None


# -- service: worker release, shedding, ladder, breakers, health --------------


class TestServiceDeadlines:
    def test_cooperative_timeout_releases_worker(self, monkeypatch):
        """With one worker and a stuck-slow first request, the second
        request still completes because the cooperative deadline frees
        the worker — the old future.result(timeout) would have leaked it
        for the full fuel budget."""
        original = Parser.parse_with_diagnostics

        def slow_backtrack(self, text, **kwargs):
            if "pathological" in text:
                slow_parser = Parser(backtracking_grammar())
                return original(
                    slow_parser, "a " * 22, max_steps=10**9,
                    deadline=kwargs.get("deadline"),
                )
            return original(self, text, **kwargs)

        monkeypatch.setattr(Parser, "parse_with_diagnostics", slow_backtrack)
        with make_service(max_workers=1) as service:
            service.warm(FULL)
            # serial path (one worker): cooperative deadline is all we have
            t0 = time.perf_counter()
            results = service.parse_many(
                ["SELECT a FROM t -- pathological", "SELECT b FROM t"],
                FULL,
                timeout=0.1,
            )
            elapsed = time.perf_counter() - t0
        assert results[0].timed_out
        assert any(d.code == PARSE_TIMEOUT for d in results[0].diagnostics)
        assert results[1].ok
        assert elapsed < 5.0  # without release this runs for minutes

    def test_timed_out_results_recorded_in_timeouts_histogram(self, monkeypatch):
        original = Parser.parse_with_diagnostics

        def slow_backtrack(self, text, **kwargs):
            if "pathological" in text:
                slow_parser = Parser(backtracking_grammar())
                return original(
                    slow_parser, "a " * 22, max_steps=10**9,
                    deadline=kwargs.get("deadline"),
                )
            return original(self, text, **kwargs)

        monkeypatch.setattr(Parser, "parse_with_diagnostics", slow_backtrack)
        with make_service() as service:
            result = service.parse(
                "SELECT x FROM t -- pathological", FULL, timeout=0.05
            )
        assert result.timed_out
        snapshot = service.metrics.snapshot()
        assert snapshot["latency"]["timeouts"]["count"] == 1
        assert service.metrics.counter("timeouts") == 1


class TestAdmissionControl:
    def test_shed_when_queue_full(self, monkeypatch):
        original = Parser.parse_with_diagnostics
        release = threading.Event()

        def blocking(self, text, **kwargs):
            if "BLOCK" in text:
                release.wait(5.0)
            return original(self, text, **kwargs)

        monkeypatch.setattr(Parser, "parse_with_diagnostics", blocking)
        try:
            with make_service(max_workers=2, max_queue=2) as service:
                service.warm(FULL)
                texts = ["SELECT a FROM t -- BLOCK"] * 2 + ["SELECT b FROM t"] * 3
                results = service.parse_many(texts, FULL, timeout=0.3)
                shed = [
                    r for r in results
                    if any(d.code == SERVICE_OVERLOADED for d in r.diagnostics)
                ]
                assert len(shed) == 3
                assert service.metrics.counter("shed") == 3
                release.set()  # unblock before close() joins the pool
        finally:
            release.set()

    def test_single_parse_admission_released(self):
        with make_service() as service:
            assert service.in_flight == 0
            result = service.parse("SELECT a FROM t", FULL)
            assert result.ok
            assert service.in_flight == 0


class TestDegradationLadder:
    def test_backend_fault_degrades_to_fallback_with_identical_tree(self):
        text = "SELECT a FROM t WHERE x = y"
        clean = make_service()
        expected = clean.parse(text, FULL)
        assert expected.ok

        plan = FaultPlan([FaultRule("backend.parse", probability=1.0)])
        with make_service(fault_plan=plan) as service:
            result = service.parse(text, FULL)
        assert result.ok
        assert result.degraded == ("backend",)
        assert result.tree.to_sexpr() == expected.tree.to_sexpr()
        assert service.metrics.counter("degraded_backend") == 1
        clean.close()

    def test_hint_fault_serves_hintless(self):
        plan = FaultPlan([FaultRule("hints.build", probability=1.0)])
        with make_service(fault_plan=plan) as service:
            good = service.parse("SELECT a FROM t", FULL)
            assert good.ok
            bad = service.parse("SELECT DISTINCT x FROM t", ["Query"])
            assert not bad.ok  # still diagnosed, just without hints
        assert service.metrics.counter("degraded_hints") >= 1

    def test_one_hint_build_failure_costs_one_request_its_hint(self):
        """The shared parsers ask the entry for its hint provider at every
        error, so the build is retried after a failure instead of leaving
        hints off for every later request."""
        from repro.sql import build_sql_product_line, dialect_features

        plan = FaultPlan([FaultRule("hints.build", times=1)])
        features = dialect_features("scql")
        with ParseService(
            registry=ParserRegistry(build_sql_product_line(), fault_plan=plan)
        ) as service:
            hints = [
                sum(len(d.hints) for d in service.parse(
                    "SELECT a FROM t ORDER BY a", features
                ).diagnostics)
                for _ in range(4)
            ]
        assert service.metrics.counter("degraded_hints") == 1
        assert hints[0] == 0
        assert all(count >= 1 for count in hints[1:]), hints

    def test_program_compile_fault_still_serves(self):
        plan = FaultPlan([FaultRule("program.compile", probability=1.0)])
        with make_service(fault_plan=plan) as service:
            result = service.parse("SELECT a FROM t", FULL)
        assert result.ok
        assert result.degraded == ("backend",)

    def test_worker_fault_yields_internal_error_result(self):
        plan = FaultPlan([FaultRule("worker.execute", probability=1.0)])
        with make_service(fault_plan=plan) as service:
            result = service.parse("SELECT a FROM t", FULL)
        assert not result.ok
        assert result.degraded == ("internal-error",)
        assert service.metrics.counter("internal_errors") == 1


class TestCircuitBreakerIntegration:
    def test_breaker_trips_and_recovers_through_lint_gate(self):
        line = make_line()
        plan = FaultPlan([FaultRule("compose", probability=1.0, times=2)])
        registry = ParserRegistry(
            line,
            breaker_policy=BreakerPolicy(threshold=2, cooldown=0.05),
            fault_plan=plan,
        )
        with pytest.raises(FaultInjected):
            registry.get(FULL)
        with pytest.raises(FaultInjected):
            registry.get(FULL)  # second consecutive failure: trips
        assert registry.metrics.counter("breaker_trips") == 1
        from repro.errors import CircuitOpenError

        with pytest.raises(CircuitOpenError) as excinfo:
            registry.get(FULL)  # fast-fail, no compose attempted
        assert excinfo.value.code == CIRCUIT_OPEN
        assert registry.metrics.counter("breaker_fast_fails") == 1
        assert registry.metrics.counter("composes") == 2  # untouched
        time.sleep(0.06)  # cooldown elapses; faults are exhausted (times=2)
        entry = registry.get(FULL)  # half-open probe succeeds
        assert entry is not None
        snapshot = registry.breaker_snapshot()
        digest = entry.fingerprint.digest
        assert snapshot[digest]["state"] == "closed"

    def test_breaker_failure_surfaces_as_diagnostic_through_service(self):
        plan = FaultPlan([FaultRule("compose", probability=1.0)])
        line = make_line()
        registry = ParserRegistry(
            line,
            breaker_policy=BreakerPolicy(threshold=1, cooldown=30.0),
            fault_plan=plan,
        )
        with ParseService(registry=registry) as service:
            first = service.parse("SELECT a FROM t", FULL)
            assert first.degraded == ("internal-error",)
            second = service.parse("SELECT a FROM t", FULL)
        assert not second.ok
        assert any(d.code == CIRCUIT_OPEN for d in second.diagnostics)

    def test_breaker_disabled_with_none_policy(self):
        plan = FaultPlan([FaultRule("compose", probability=1.0)])
        registry = ParserRegistry(
            make_line(), breaker_policy=None, fault_plan=plan
        )
        for _ in range(8):
            with pytest.raises(FaultInjected):
                registry.get(FULL)  # keeps composing, never fast-fails
        assert registry.metrics.counter("breaker_fast_fails") == 0


class TestRegistryRetry:
    def test_transient_ir_read_error_retried_to_disk_hit(self, tmp_path):
        line = make_line()
        # first registry populates the artifact cache
        warm_registry = ParserRegistry(line, cache_dir=tmp_path)
        entry = warm_registry.get(FULL)
        entry.program()
        assert list(tmp_path.glob("*.ir.json"))

        plan = FaultPlan(
            [FaultRule("artifact.read.ir", error=OSError,
                       probability=1.0, times=2)]
        )
        registry = ParserRegistry(
            line,
            cache_dir=tmp_path,
            fault_plan=plan,
            retry_policy=RetryPolicy(attempts=3, base_delay=0.001),
        )
        entry = registry.get(FULL)
        entry.program()  # two injected failures, third read wins
        assert registry.metrics.counter("retries") == 2
        assert registry.metrics.counter("artifact.ir.hit") == 1
        assert registry.metrics.counter("artifact.ir.corrupt") == 0


class TestHealth:
    def test_healthy_service(self):
        with make_service() as service:
            service.parse("SELECT a FROM t", FULL)
            health = service.health()
        assert health["status"] == "ok"
        assert health["breakers"]["open"] == []
        assert health["degradation"] == {}
        assert health["queue"]["limit"] >= 256
        assert "ok" in service.render_health()

    def test_degraded_service(self):
        plan = FaultPlan([FaultRule("backend.parse", probability=1.0)])
        with make_service(fault_plan=plan) as service:
            service.parse("SELECT a FROM t", FULL)
            health = service.health()
        assert health["status"] == "degraded"
        assert health["degradation"]["degraded_backend"] == 1
        rendered = service.render_health()
        assert "degraded" in rendered
        assert "degraded_backend" in rendered

    def test_health_cli_command(self, capsys):
        from repro.cli import main

        assert main(["health"]) == 0
        out = capsys.readouterr().out
        assert "parse service health: ok" in out
        assert main(["health", "--json"]) == 0
        out = capsys.readouterr().out
        assert '"status": "ok"' in out

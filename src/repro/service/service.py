"""The parse service: a concurrent, cache-backed front door for parsing.

:class:`ParseService` is what a long-running process (the CLI shell, a
web endpoint, a batch job) talks to instead of composing parsers by hand.
It serves the :class:`~repro.service.registry.ParserRegistry` it is
given — compose once per fingerprint — or the shared SQL registry, and
adds:

* :meth:`ParseService.parse`: one text, one selection.  Never raises on
  bad input: the result carries the (possibly partial) tree plus every
  diagnostic, exactly like the resilient
  :meth:`~repro.parsing.parser.Parser.parse_with_diagnostics` pipeline
  it reuses, including its input-scaled fuel budget.
* :meth:`ParseService.parse_many`: a homogeneous batch, results in
  input order, with an optional per-request wall-clock timeout.
* :meth:`ParseService.translate`: one query between preset dialects.

Every in-parent parse is one step, :meth:`ParseService._parse_entry`:
the never-crash guard, the degradation ladder and the timing.  Every
operation is recorded in the registry's
:class:`~repro.service.metrics.ServiceMetrics`; :meth:`ParseService.stats`
returns the snapshot that ``repro stats`` renders.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import threading
import time
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    TimeoutError as _FutureTimeout,
)
from dataclasses import dataclass, field, replace
from operator import methodcaller
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ..diagnostics.model import (
    GENERIC_ERROR,
    PARSE_TIMEOUT,
    Diagnostic,
    DiagnosticBag,
    Severity,
)
from ..errors import ReproError, ServiceOverloadedError
from ..resilience.deadline import Deadline
from .fingerprint import Fingerprint
from .metrics import ServiceMetrics
from .registry import ParserRegistry, RegistryEntry
from .workers import WorkerTask, execute_batch

#: Default worker-pool width for batch APIs.
DEFAULT_WORKERS = min(8, (os.cpu_count() or 2))

#: Worker-crash events (broken pool, failed spawn) tolerated before the
#: resilience ladder permanently degrades process -> thread executor.
WORKER_CRASH_THRESHOLD = 2

#: Batch chunks submitted per process-pool worker.  Chunking amortizes
#: the per-task pipe cost (pickle + queue round-trip) across many texts
#: — without it, sub-millisecond parses spend more time in IPC than in
#: parsing; a couple of chunks per worker still keeps the pool balanced
#: when chunk costs vary.
CHUNKS_PER_WORKER = 2

#: Extra seconds :meth:`ParseService._collect` waits past a request's
#: deadline before giving up on the worker.  The cooperative deadline
#: inside the parse driver normally aborts the worker within ~1 ms of
#: expiry, so the grace only matters for non-cooperative stalls.
COLLECT_GRACE = 0.1


@dataclass
class ParseServiceResult:
    """Outcome of one service request — diagnostics instead of exceptions.

    Attributes:
        text: The input text.
        fingerprint: Cache key of the product that served the request
            (``None`` when the request failed before reaching a parser,
            e.g. an invalid feature selection).
        tree: The (possibly partial) parse tree, or ``None``.
        diagnostics: Every diagnostic the pipeline produced.
        warm: True when the product was already composed when the request
            arrived — a warm request does zero composition work.
        seconds: Wall-clock parse time (0.0 for requests that never ran).
        timed_out: True when the request exceeded its deadline.
        degraded: Which degradation-ladder rungs served this request
            (``"backend"``: the primary backend failed and the clean-room
            interpreter answered; ``"internal-error"``: nothing could) —
            empty for a fully healthy request.
    """

    text: str
    fingerprint: Fingerprint | None = None
    tree: object | None = None
    diagnostics: DiagnosticBag = field(default_factory=DiagnosticBag)
    warm: bool = False
    seconds: float = 0.0
    timed_out: bool = False
    degraded: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.diagnostics.has_errors and not self.timed_out

    def render(self, filename: str = "<input>") -> str:
        """All diagnostics as caret-annotated text."""
        from ..diagnostics.render import render_diagnostics

        return render_diagnostics(
            self.diagnostics, source=self.text, filename=filename
        )


@dataclass
class TranslateServiceResult:
    """Outcome of one :meth:`ParseService.translate` call.

    Like :class:`ParseServiceResult`, failures arrive as diagnostics —
    an untranslatable query yields an ``E0401`` diagnostic (one "enable
    feature" hint per missing unit), a source-side syntax error yields
    the usual parse diagnostics, and nothing raises.

    Attributes:
        source_sql: The input text.
        source_dialect: Dialect the input was parsed with.
        target_dialect: Dialect the output was rendered for.
        sql: The translated SQL (``None`` when translation failed).
        rewrites: Lossless spelling changes the renderer applied.
        diagnostics: Every diagnostic the pipeline produced.
        seconds: Wall-clock translation time.
        result: The full :class:`~repro.transpile.TranslationResult`
            (report envelope and capability analysis) when successful.
    """

    source_sql: str
    source_dialect: str
    target_dialect: str
    sql: str | None = None
    rewrites: tuple[str, ...] = ()
    diagnostics: DiagnosticBag = field(default_factory=DiagnosticBag)
    seconds: float = 0.0
    result: object | None = None

    @property
    def ok(self) -> bool:
        return self.sql is not None and not self.diagnostics.has_errors

    def render(self, filename: str = "<input>") -> str:
        """All diagnostics as caret-annotated text."""
        from ..diagnostics.render import render_diagnostics

        return render_diagnostics(
            self.diagnostics, source=self.source_sql, filename=filename
        )


def _timeout_result(text: str, fp: Fingerprint | None, timeout: float,
                    warm: bool) -> ParseServiceResult:
    bag = DiagnosticBag()
    bag.add(
        Diagnostic(
            message=f"parse request exceeded its {timeout:g}s deadline",
            severity=Severity.ERROR,
            code=PARSE_TIMEOUT,
            hints=("raise the timeout, or bound the work with max_steps",),
        )
    )
    return ParseServiceResult(
        text=text, fingerprint=fp, diagnostics=bag, warm=warm,
        seconds=timeout, timed_out=True,
    )


def _answered(text, fp, tree, diagnostics, warm, seconds, degraded):
    """The result of a parse a rung answered: timed out when its
    deadline tripped inside the parse."""
    return ParseServiceResult(
        text=text, fingerprint=fp, tree=tree, diagnostics=diagnostics,
        warm=warm, seconds=seconds,
        timed_out=any(d.code == PARSE_TIMEOUT for d in diagnostics),
        degraded=degraded,
    )


def _error_result(text: str, error) -> ParseServiceResult:
    """Wrap a pre-parse failure (bad selection, composition error)."""
    bag = DiagnosticBag()
    bag.add(error.to_diagnostic())
    return ParseServiceResult(text=text, diagnostics=bag)


def _check_collector(entry: RegistryEntry, coverage) -> None:
    """Refuse, before any text parses, a collector over another program.

    The ``ValueError`` is :meth:`~repro.parsing.parser.Parser.parse`'s;
    unchecked, the collector's ``merge`` would raise it inside the
    never-crash guard and turn a good parse into an E0000 result.  The
    entry's digest is the fingerprint its program embeds, so this is
    ``merge``'s own test, and it builds nothing.
    """
    if coverage is None:
        return
    program = coverage.map.program
    if program.fingerprint != entry.fingerprint.digest:
        raise ValueError(
            "coverage collector is keyed to a different parse program "
            f"({program.grammar_name!r})"
        )


def _internal_error(message: str) -> Diagnostic:
    """The never-crash guard's last answer: an E0000 diagnostic, not a raise."""
    return Diagnostic(
        message=message, severity=Severity.ERROR, code=GENERIC_ERROR,
        hints=("check `repro health` and the server logs",),
    )


def _internal_error_result(
    text: str, fp: Fingerprint | None = None, warm: bool = False
) -> ParseServiceResult:
    bag = DiagnosticBag()
    bag.add(_internal_error("internal service error; the request was not parsed"))
    return ParseServiceResult(
        text=text, fingerprint=fp, diagnostics=bag, warm=warm,
        degraded=("internal-error",),
    )


#: The degradation ladder, top rung first: each rung's latency series,
#: how an entry builds its parser, and the fault site checked first.
_LADDER: tuple[tuple[str, methodcaller, str | None], ...] = (
    ("parse_compiled", methodcaller("compiled_parser"), "backend.parse"),
    ("parse_interpreter", methodcaller("parser"), None),
    # the clean-room parser shares nothing with the cache
    ("parse_interpreter", methodcaller("fallback_parser"), None),
)

#: A coverage-counting parse's one rung: the interpreter.
_COUNTING = _LADDER[1:2]


class ParseService:
    """Serve parse requests from a compose-once registry and a worker pool.

    Every request runs on the closure-compiled backend; an unexpected
    failure degrades down the ladder — to the shared interpreter, then
    to the clean-room interpreter — recording ``degraded_backend``.

    Args:
        registry: The registry to serve.  ``None`` (default) serves the
            shared SQL:2003 registry, so the service, ``configure_sql``,
            preset dialects, and the CLI all reuse one cache.  The
            service's own fault sites (``worker.execute``,
            ``backend.parse``, ``worker.spawn``) consult the registry's
            ``faults`` plan.
        cache_dir: On-disk artifact cache directory (one parse-program
            artifact per product, token definitions included); the
            registry uses it until :meth:`close`.
        max_workers: Worker-pool width for the batch APIs.  With 1, a
            :meth:`parse_many` batch parses on the calling thread.
        max_queue: Admission-control bound: maximum requests in flight
            (queued + executing) before new ones are shed with an E0204
            result.  Defaults to ``max(256, max_workers * 32)``.
        executor: ``"thread"`` (default): a :meth:`parse_many` batch
            without a timeout, of one text or on one worker parses on
            the calling thread, in input order (the GIL runs one
            thread's Python at a time, so pool threads would add
            handoffs, not throughput); any other batch (a timeout) gets
            one :class:`~concurrent.futures.ThreadPoolExecutor` future
            per text, so a stalled text can be abandoned.
            ``"process"`` splits homogeneous batches into chunks over a
            spawned :class:`~concurrent.futures.ProcessPoolExecutor` whose
            workers bootstrap parsers from the on-disk artifacts (see
            :mod:`repro.service.workers`); requires an artifact cache
            directory (a private temporary one is created when
            ``cache_dir`` is not given).  Repeated worker crashes
            degrade process back to thread permanently
            (``executor_degraded``); single :meth:`parse` calls,
            one-text or one-worker batches and coverage-collecting
            batches always run in-parent.
    """

    #: The serving backend (reported by ``stats``/``health``).
    backend = "compiled"

    def __init__(
        self,
        registry: ParserRegistry | None = None,
        cache_dir: str | os.PathLike | None = None,
        max_workers: int = DEFAULT_WORKERS,
        max_queue: int | None = None,
        executor: str = "thread",
    ) -> None:
        if executor not in ("thread", "process"):
            raise ValueError(
                f"unknown executor {executor!r} "
                "(expected 'thread' or 'process')"
            )
        if registry is None:
            from ..sql.product_line import sql_parser_registry

            registry = sql_parser_registry()
        self.registry = registry
        self.metrics: ServiceMetrics = registry.metrics
        self.max_workers = max(1, max_workers)
        self.metrics.backend = self.backend
        self.max_queue = (
            max_queue if max_queue is not None
            else max(256, self.max_workers * 32)
        )
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self._in_flight = 0
        self._admission_lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._closed = False
        self.executor = executor
        self._executor_effective = executor
        self._proc_pool: ProcessPoolExecutor | None = None
        self._proc_crashes = 0
        self._owned_cache_dir: tempfile.TemporaryDirectory | None = None
        if (
            cache_dir is None and executor == "process"
            and self.registry.cache_dir is None
        ):
            # workers bootstrap purely from disk artifacts, so a process
            # service without a cache directory gets a private one
            self._owned_cache_dir = tempfile.TemporaryDirectory(
                prefix="repro-artifacts-", ignore_cleanup_errors=True
            )
            cache_dir = self._owned_cache_dir.name
        #: ``(the registry's directory before, the one set here)``;
        #: :meth:`close` points the registry back
        self._repointed: tuple[Path | None, Path] | None = None
        if cache_dir is not None:
            self._repointed = (self.registry.cache_dir, Path(cache_dir))
            self.registry.set_cache_dir(cache_dir)

    # -- single requests ----------------------------------------------------

    def warm(
        self,
        features: Iterable[str],
        counts: Mapping[str, int] | None = None,
    ) -> Fingerprint:
        """Compose (if needed) and cache a selection; returns its fingerprint."""
        return self.registry.get(features, counts).fingerprint

    def parse(
        self,
        text: str,
        features: Iterable[str],
        counts: Mapping[str, int] | None = None,
        start: str | None = None,
        max_errors: int | None = 25,
        max_steps: int | None = None,
        coverage=None,
        timeout: float | None = None,
    ) -> ParseServiceResult:
        """Parse one text with the parser for one selection.

        A warm call (selection already cached) performs zero composition
        work: the fingerprint lookup finds the entry and its cached
        parser runs immediately.

        ``coverage`` accepts a
        :class:`~repro.parsing.coverage.CoverageCollector` from the
        entry's :meth:`~repro.service.registry.RegistryEntry.coverage_collector`;
        what this parse exercised is merged into it.  A counting parse
        runs on the interpreter; without a collector the compiled
        backend parses, as for any request.  A collector keyed to
        another product's program raises ``ValueError`` before the text
        parses.

        ``timeout`` (seconds) becomes a cooperative deadline propagated
        into the parse driver: expiry surfaces as a ``timed_out`` result
        with an E0203 diagnostic.
        """
        if not self._admit():
            return self._shed_result(text)
        try:
            deadline = Deadline.after(timeout) if timeout is not None else None
            entry, warm, failure = self._acquire_entry(text, features, counts)
            if failure is not None:
                return failure
            _check_collector(entry, coverage)
            return self._parse_entry(
                entry, text, warm, start=start,
                max_errors=max_errors, max_steps=max_steps,
                coverage=coverage, deadline=deadline,
            )
        finally:
            self._release_admission()

    def _acquire_entry(self, text, features, counts):
        """Acquire through the registry, mapping every failure to a result.

        Returns ``(entry, warm, None)`` on success or ``(None, False,
        result)`` when acquisition failed — :class:`~repro.errors.ReproError`
        (invalid selection, lint gate, open breaker) becomes its own
        diagnostic; anything else becomes an internal-error result rather
        than a crash.
        """
        try:
            entry, warm = self.registry.acquire(features, counts)
        except ReproError as error:
            return None, False, _error_result(text, error)
        except Exception:
            self.metrics.incr("internal_errors")
            return None, False, _internal_error_result(text)
        return entry, warm, None

    def translate(
        self, sql: str, source_dialect: str, target_dialect: str
    ) -> TranslateServiceResult:
        """Translate one query between preset dialects — never raises.

        Runs :func:`repro.transpile.translate_on` on :attr:`registry`
        (which must serve the SQL:2003 line), so both dialect lookups are
        the registry's, as :meth:`parse`'s is.  Parse, feature-gap,
        render and dialect-name failures become diagnostics on the
        returned :class:`TranslateServiceResult`; unexpected failures (a
        compile fault too: there is no fallback rung) degrade to an
        ``E0000`` diagnostic instead of a crash.  Each translate that
        ran folds into the metrics once
        (:meth:`~repro.service.metrics.ServiceMetrics.record_translate`:
        ``translates``, the ``translate`` series, and ``renders`` or
        ``translate_errors``).  Admission control is :meth:`parse`'s:
        with ``max_queue`` requests in flight the call is shed with an
        ``E0204`` diagnostic.
        """
        from ..transpile import translate_on

        outcome = TranslateServiceResult(
            source_sql=sql,
            source_dialect=source_dialect,
            target_dialect=target_dialect,
        )
        if not self._admit():
            outcome.diagnostics.add(self._overloaded().to_diagnostic())
            return outcome
        counters: tuple[str, ...]
        t0 = time.perf_counter()
        try:
            result = translate_on(
                self.registry, sql, source_dialect, target_dialect
            )
        except ReproError as error:
            outcome.diagnostics.add(error.to_diagnostic())
            counters = ("translate_errors",)
        except Exception:
            outcome.diagnostics.add(_internal_error(
                "internal transpiler error; nothing was translated"
            ))
            counters = ("translate_errors", "internal_errors")
        else:
            outcome.sql = result.sql
            outcome.rewrites = result.rewrites
            outcome.result = result
            counters = ("renders",)
        finally:
            outcome.seconds = time.perf_counter() - t0
            self._release_admission()
        self.metrics.record_translate(outcome.seconds, *counters)
        return outcome

    # -- batch requests -----------------------------------------------------

    def parse_many(
        self,
        texts: Sequence[str],
        features: Iterable[str],
        counts: Mapping[str, int] | None = None,
        start: str | None = None,
        max_errors: int | None = 25,
        max_steps: int | None = None,
        timeout: float | None = None,
        coverage=None,
    ) -> list[ParseServiceResult]:
        """Parse many texts against one selection; results in input order.

        The selection is composed (at most) once up front.  A batch of
        two or more texts on two or more workers fans out:

        * on the process executor (no ``coverage``): in
          ``max_workers × CHUNKS_PER_WORKER`` chunks over the process
          pool;
        * on the thread executor with a ``timeout``: one thread-pool
          future per text.

        Every other batch (no ``timeout``, one text, or one worker) runs
        the caller-thread loop: every text is admitted up front, then
        all parse in order on the calling thread.

        ``timeout`` is a per-request wall-clock deadline: a request that
        misses it yields a ``timed_out`` result carrying an ``E0203``
        diagnostic instead of blocking the batch forever (a pooled
        worker still winds down on the parser's own fuel budget).

        With a ``coverage`` collector, every parse counts into a private
        per-parse collector and merges it in — the batch's aggregate
        coverage accumulates correctly wherever the texts ran.  A
        collector keyed to another product's program raises
        ``ValueError`` before any text is admitted.

        Only the first result's ``warm`` says whether the *batch* found
        its product composed, whatever path ran: every later text
        parses on a product the batch already holds.
        """
        texts = list(texts)
        if not texts:
            return []
        if self._closed:
            raise RuntimeError("ParseService is closed")
        entry, warm, failure = self._acquire_entry(texts[0], features, counts)
        if failure is not None:
            return [
                ParseServiceResult(
                    text=text,
                    diagnostics=failure.diagnostics,
                    degraded=failure.degraded,
                )
                for text in texts
            ]
        _check_collector(entry, coverage)
        fan_out = len(texts) > 1 and self.max_workers > 1
        results: list[ParseServiceResult] | None = None
        if fan_out and self._executor_effective == "process" and coverage is None:
            # coverage collectors cannot cross the pipe: those batches
            # stay on the thread paths below
            results = self._parse_many_process(
                entry, texts, start, max_errors, max_steps, timeout
            )
        if results is None:
            results = (
                self._parse_many_pooled(
                    entry, texts, start, max_errors, max_steps, timeout,
                    coverage,
                ) if fan_out and timeout is not None
                else self._parse_many_caller(
                    entry, texts, start, max_errors, max_steps, timeout,
                    coverage,
                )
            )
        # the batch's first result reports whether the *batch* was warm
        results[0].warm = warm
        return results

    def _parse_many_caller(
        self, entry, texts, start, max_errors, max_steps, timeout, coverage
    ) -> list[ParseServiceResult]:
        """Parse a batch on the calling thread, in input order.

        Every text is admitted up front, as the pooled path admits at
        submission, so a batch larger than ``max_queue`` sheds its
        excess; each text's slot is released as soon as it finishes.
        With a ``timeout``, each text's deadline starts when its parse
        starts.  Each text's queue depth and executor time fold into
        the metrics with its parse.  The GIL runs one thread's Python
        at a time and neither the scanner nor the parser releases it,
        so pool futures would buy no parallelism here, only a handoff
        per text.
        """
        results: list[ParseServiceResult | None] = [None] * len(texts)
        admitted = []
        for i, text in enumerate(texts):
            depth = self._admit()
            if depth:
                admitted.append((i, (time.perf_counter(), depth)))
            else:
                results[i] = self._shed_result(text)
        unreleased = len(admitted)
        try:
            for i, queued in admitted:
                results[i] = self._parse_entry(
                    entry, texts[i], True, start, max_errors, max_steps,
                    coverage,
                    Deadline.after(timeout) if timeout is not None else None,
                    queued,
                )
                unreleased -= 1
                self._release_admission()
        finally:
            # only an interrupt escapes _parse_entry's guard: free the
            # slots of the texts it left unparsed
            self._release_many(unreleased)
        return results

    def _parse_many_pooled(
        self, entry, texts, start, max_errors, max_steps, timeout, coverage
    ) -> list[ParseServiceResult]:
        """Fan a batch with a timeout out one pool future per text.

        Only a future lets :meth:`_collect`'s hard backstop abandon a
        stalled text without holding its batch-mates.
        """
        pool = self._ensure_pool()
        results: list[ParseServiceResult | None] = [None] * len(texts)
        submitted = []
        for i, text in enumerate(texts):
            depth = self._admit()
            if not depth:
                results[i] = self._shed_result(text)
                continue
            self.metrics.observe_depth("thread", depth)
            # the deadline starts at submission: queueing time counts
            deadline = Deadline.after(timeout)
            future = pool.submit(
                self._parse_entry, entry, text, True, start,
                max_errors, max_steps, coverage, deadline,
            )
            future.add_done_callback(lambda _f: self._release_admission())
            submitted.append((i, text, future, deadline, time.perf_counter()))
        for i, text, future, deadline, t0 in submitted:
            results[i] = self._collect(
                future, text, entry.fingerprint, timeout, deadline
            )
            self.metrics.observe("executor_thread", time.perf_counter() - t0)
        return results

    # -- metrics ------------------------------------------------------------

    def stats(self) -> dict:
        """Snapshot of cache counters and latency histograms."""
        snapshot = self.metrics.snapshot()
        snapshot["executor"] = self._executor_snapshot()
        snapshot["registry"] = {
            "entries": len(self.registry),
            "capacity": self.registry.capacity,
            "disk_cache": (
                str(self.registry.cache_dir) if self.registry.cache_dir else None
            ),
        }
        return snapshot

    def _executor_snapshot(self) -> dict:
        """Executor kind + utilization for stats/health payloads."""
        with self._pool_lock:
            effective = self._executor_effective
            crashes = self._proc_crashes
        in_flight = self.in_flight
        return {
            "kind": self.executor,
            "effective": effective,
            "workers": self.max_workers,
            "in_flight": in_flight,
            "utilization": round(
                min(in_flight, self.max_workers) / self.max_workers, 3
            ),
            "crash_events": crashes,
        }

    def render_stats(self) -> str:
        """Human-readable :meth:`stats` (the ``repro stats`` output)."""
        snap = self.stats()
        reg = snap["registry"]
        ex = snap["executor"]
        lines = [self.metrics.render()]
        lines.append(
            f"  executor: {ex['kind']}"
            + (f" (effective {ex['effective']})"
               if ex["effective"] != ex["kind"] else "")
            + f", {ex['workers']} workers, "
            f"utilization {ex['utilization']:.0%}"
        )
        lines.append(
            f"  registry: {reg['entries']}/{reg['capacity']} products cached, "
            f"disk cache {reg['disk_cache'] or 'off'}"
        )
        return "\n".join(lines)

    def health(self) -> dict:
        """Operational health snapshot (the ``repro health`` payload).

        ``status`` is ``"ok"`` when no breaker is open and no
        degradation has been recorded since startup, ``"degraded"``
        otherwise — degradation means requests were (or are being)
        served on a fallback path, quarantined artifacts were found, or
        load was shed; it does not mean requests are failing.
        """
        snap = self.metrics.snapshot()
        counters = snap["counters"]
        breakers = self.registry.breaker_snapshot()
        open_breakers = sorted(
            digest for digest, state in breakers.items()
            if state["state"] != "closed"
        )
        degradation = {
            name: counters[name]
            for name in (
                "quarantined",
                "artifact.ir.corrupt",
                "degraded_backend", "degraded_hints",
                "internal_errors", "shed", "breaker_fast_fails", "retries",
                "worker_bootstrap_failures", "worker_crashes",
                "executor_degraded",
            )
            if counters[name]
        }
        status = "ok" if not degradation and not open_breakers else "degraded"
        return {
            "status": status,
            "backend": self.backend,
            "executor": {
                **self._executor_snapshot(),
                "queue_depth": snap["queue_depth"],
            },
            "breakers": {
                "tracked": len(breakers),
                "open": open_breakers,
                "states": breakers,
            },
            "degradation": degradation,
            "queue": {
                "in_flight": self.in_flight,
                "limit": self.max_queue,
                "shed": counters["shed"],
            },
            "timeouts": {
                "count": counters["timeouts"],
                "latency": snap["latency"]["timeouts"],
            },
            "registry": {
                "entries": len(self.registry),
                "capacity": self.registry.capacity,
            },
        }

    def render_health(self) -> str:
        """Human-readable :meth:`health` (the ``repro health`` output)."""
        health = self.health()
        lines = [f"parse service health: {health['status']}"]
        lines.append(f"  backend: {health['backend']}")
        ex = health["executor"]
        lines.append(
            f"  executor: {ex['kind']}"
            + (f" (degraded to {ex['effective']})"
               if ex["effective"] != ex["kind"] else "")
            + f", {ex['workers']} workers, "
            f"utilization {ex['utilization']:.0%}"
        )
        queue = health["queue"]
        lines.append(
            f"  queue: {queue['in_flight']}/{queue['limit']} in flight, "
            f"{queue['shed']} shed"
        )
        breakers = health["breakers"]
        if breakers["tracked"]:
            lines.append(
                f"  breakers: {breakers['tracked']} tracked, "
                f"{len(breakers['open'])} open"
            )
            for digest in breakers["open"]:
                state = breakers["states"][digest]
                lines.append(
                    f"    {digest[:12]}: {state['state']} "
                    f"(retry in {state['retry_after']:.1f}s)"
                )
        else:
            lines.append("  breakers: none tracked")
        if health["degradation"]:
            bits = ", ".join(
                f"{count} {name}"
                for name, count in sorted(health["degradation"].items())
            )
            lines.append(f"  degradation: {bits}")
        else:
            lines.append("  degradation: none")
        timeouts = health["timeouts"]
        lines.append(f"  timeouts: {timeouts['count']}")
        return "\n".join(lines)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Shut down both executor kinds and owned resources (idempotent).

        Drains the thread pool and the process pool (cancelling queued
        work).  If the service pointed the registry at a cache directory
        (``cache_dir``, or its own temporary one) and the registry still
        points there, it gets back the directory it had before; then
        the service-owned temporary directory, if any, is removed.  Safe
        to call repeatedly; any batch API raises ``RuntimeError``
        afterwards.
        """
        with self._pool_lock:
            self._closed = True
            if self._pool is not None:
                self._pool.shutdown(wait=True, cancel_futures=True)
                self._pool = None
            if self._proc_pool is not None:
                self._proc_pool.shutdown(wait=True, cancel_futures=True)
                self._proc_pool = None
        if self._repointed is not None:
            # the registry may be shared: point it back, or its next
            # compose writes into (or recreates) this service's directory
            before, ours = self._repointed
            if self.registry.cache_dir == ours:
                self.registry.set_cache_dir(before)
            self._repointed = None
        if self._owned_cache_dir is not None:
            self._owned_cache_dir.cleanup()
            self._owned_cache_dir = None

    def __enter__(self) -> "ParseService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals -----------------------------------------------------------

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._closed:
                raise RuntimeError("ParseService is closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-parse",
                )
            return self._pool

    def _admit(self) -> int:
        """Admission control: reserve one in-flight slot or shed.

        Returns the in-flight count this request makes, 0 when shed.
        """
        with self._admission_lock:
            if self._in_flight >= self.max_queue:
                self.metrics.incr("shed")
                return 0
            self._in_flight += 1
            return self._in_flight

    def _release_admission(self) -> None:
        with self._admission_lock:
            self._in_flight = max(0, self._in_flight - 1)

    @property
    def in_flight(self) -> int:
        with self._admission_lock:
            return self._in_flight

    def _overloaded(self):
        return ServiceOverloadedError(
            f"service overloaded: {self.max_queue} requests already "
            "in flight; request shed",
            in_flight=self.max_queue,
            limit=self.max_queue,
        )

    def _shed_result(self, text: str) -> ParseServiceResult:
        return _error_result(text, self._overloaded())

    def _parse_entry(
        self,
        entry: RegistryEntry,
        text: str,
        warm: bool,
        start: str | None = None,
        max_errors: int | None = 25,
        max_steps: int | None = None,
        coverage=None,
        deadline: Deadline | None = None,
        queued: tuple[float, int] | None = None,
    ) -> ParseServiceResult:
        """One parse: guarded, down the degradation ladder, timed, folded.

        The compiled backend runs first; if it *raises* — as opposed to
        returning a result with diagnostics — the shared interpreter
        answers, and if that also raises, the clean-room fallback
        interpreter does.  Any rung below the first marks the result
        ``degraded=("backend",)`` and bumps ``degraded_backend``.  A
        coverage-counting call runs on the interpreter alone: its walk
        counts coverage for both backends.  ``seconds`` times the
        answering rung's ``parse_with_diagnostics`` call alone, into
        that rung's series, so a fleet silently shifting from compiled
        to interpreter is visible in ``repro stats``.  ``queued`` is a
        caller-loop text's ``(admitted_at, depth)``, folded in with it.

        Whatever goes wrong below — an injected fault, a corrupt shared
        artifact, a bug in a backend — the caller gets an E0000 result,
        never an exception: folded with no series when every rung
        raised, not folded at all when the ``worker.execute`` site did.
        """
        faults = self.registry.faults
        try:
            if faults is not None:
                faults.check("worker.execute")
            degraded: tuple[str, ...] = ()
            series: str | None
            try:
                private = None
                if coverage is not None:
                    # count into a per-call private collector and merge
                    # it: the caller's collector may be shared across
                    # workers
                    private = entry.coverage_collector()
                rungs = _LADDER if private is None else _COUNTING
                last = len(rungs) - 1
                for rung, (series, parser_of, site) in enumerate(rungs):
                    try:
                        if site is not None and faults is not None:
                            faults.check(site)
                        parser = parser_of(entry)
                        t0 = time.perf_counter()
                        outcome = parser.parse_with_diagnostics(
                            text, start=start, max_errors=max_errors,
                            max_steps=max_steps, deadline=deadline,
                            coverage=private,
                        )
                        seconds = time.perf_counter() - t0
                        break
                    except Exception:
                        if rung == last:
                            raise
                        if not degraded:
                            degraded = ("backend",)
                            self.metrics.incr("degraded_backend")
                    finally:
                        if private is not None:
                            coverage.merge(private)
            except Exception:
                series = None
                self.metrics.incr("internal_errors")
                result = _internal_error_result(text, entry.fingerprint, warm)
            else:
                result = _answered(
                    text, entry.fingerprint, outcome.tree,
                    outcome.diagnostics, warm, seconds, degraded,
                )
            self.metrics.record_parse(result, series, queued)
            return result
        except Exception:
            self.metrics.incr("internal_errors")
            return _internal_error_result(text, entry.fingerprint, warm)

    def _collect(
        self,
        future: "Future[ParseServiceResult]",
        text: str,
        fp: Fingerprint,
        timeout: float,
        deadline: Deadline,
    ) -> ParseServiceResult:
        """Await one worker, with a hard backstop past the deadline.

        The cooperative in-driver deadline normally returns a
        ``timed_out`` result on its own; the backstop only fires for
        non-cooperative stalls (native hangs, pathological scanners),
        and those workers are abandoned exactly as before.
        """
        try:
            return future.result(
                timeout=max(0.0, deadline.remaining() + COLLECT_GRACE)
            )
        except _FutureTimeout:
            future.cancel()
            result = _timeout_result(text, fp, timeout, True)
            self.metrics.record_parse(result, None)
            return result

    # -- process executor ----------------------------------------------------

    @property
    def effective_executor(self) -> str:
        """The executor actually serving batches (after any degradation)."""
        with self._pool_lock:
            return self._executor_effective

    def _ensure_process_pool(self) -> ProcessPoolExecutor:
        """The lazily-spawned process pool (``worker.spawn`` fault site).

        Spawn (not fork): the parent is multithreaded, and spawn
        propagates ``sys.path`` so workers import the same tree.
        """
        with self._pool_lock:
            if self._closed:
                raise RuntimeError("ParseService is closed")
            if self._proc_pool is None:
                faults = self.registry.faults
                if faults is not None:
                    faults.check("worker.spawn")
                self._proc_pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    mp_context=multiprocessing.get_context("spawn"),
                )
            return self._proc_pool

    def _note_worker_crash(self) -> None:
        """Count one pool-breakage event; degrade to threads past the cap.

        The degradation is permanent for this service instance — a
        machine that cannot keep worker processes alive should not be
        asked to respawn them on every batch.
        """
        self.metrics.incr("worker_crashes")
        with self._pool_lock:
            self._proc_crashes += 1
            if self._proc_pool is not None:
                self._proc_pool.shutdown(wait=False, cancel_futures=True)
                self._proc_pool = None
            if (
                self._proc_crashes >= WORKER_CRASH_THRESHOLD
                and self._executor_effective == "process"
            ):
                self._executor_effective = "thread"
                self.metrics.incr("executor_degraded")

    def _parse_many_process(
        self, entry, texts, start, max_errors, max_steps, timeout
    ) -> list[ParseServiceResult] | None:
        """Fan one homogeneous batch out over the process pool.

        Returns ``None`` when the process path is unavailable (artifact
        publish failed, pool would not spawn) — the caller falls back to
        the thread pool for this batch; repeated spawn failures degrade
        the executor permanently via :meth:`_note_worker_crash`.
        """
        cache_dir = self.registry.cache_dir
        if cache_dir is None:
            return None
        try:
            entry.publish_worker_artifacts(cache_dir)
        except Exception:
            # cannot stage artifacts -> workers cannot bootstrap
            return None
        try:
            pool = self._ensure_process_pool()
        except Exception:
            self._note_worker_crash()
            return None
        digest = entry.fingerprint.digest
        results: list[ParseServiceResult | None] = [None] * len(texts)
        # chunking: few pipe round-trips, every worker kept busy
        n_chunks = min(len(texts), self.max_workers * CHUNKS_PER_WORKER)
        chunk_size = -(-len(texts) // n_chunks)
        submitted = []
        for lo in range(0, len(texts), chunk_size):
            indices: list[int] = []
            chunk_texts: list[str] = []
            for i in range(lo, min(lo + chunk_size, len(texts))):
                if not self._admit():
                    results[i] = self._shed_result(texts[i])
                    continue
                indices.append(i)
                chunk_texts.append(texts[i])
            if not indices:
                continue
            self.metrics.observe_depth("process", self.in_flight)
            # the deadline starts at submission: queueing time counts
            deadline = Deadline.after(timeout) if timeout is not None else None
            task = WorkerTask(
                digest=digest,
                cache_dir=str(cache_dir),
                backend=self.backend,
                text="",
                texts=tuple(chunk_texts),
                start=start,
                max_errors=max_errors,
                max_steps=max_steps,
                deadline_remaining=(
                    deadline.remaining() if deadline is not None else None
                ),
            )
            try:
                future = pool.submit(execute_batch, task)
            except Exception:
                self._release_many(len(indices))
                self._note_worker_crash()
                for i in indices:
                    results[i] = self._in_parent_fallback(
                        entry, task, texts[i], deadline
                    )
                continue
            future.add_done_callback(
                lambda _f, n=len(indices): self._release_many(n)
            )
            self.metrics.incr("worker_tasks")
            submitted.append((indices, future, deadline, task,
                              time.perf_counter()))
        for indices, future, deadline, task, t0 in submitted:
            chunk_results = self._collect_chunk(
                entry, future, task, timeout, deadline
            )
            for i, result in zip(indices, chunk_results):
                results[i] = result
            self.metrics.observe("executor_process", time.perf_counter() - t0)
        return results

    def _release_many(self, n: int) -> None:
        for _ in range(n):
            self._release_admission()

    def _collect_chunk(
        self, entry, future, task, timeout, deadline
    ) -> list[ParseServiceResult]:
        """Await one chunk's replies and map them to service results.

        Bootstrap failures follow the republish protocol (once), worker
        crashes and internal errors fall back in-parent — the pool never
        deadlocks on a bad artifact and the caller never sees a raise.
        """
        texts = task.texts
        try:
            if timeout is None:
                replies = future.result()
            else:
                # the worker budgets each text separately, so the hard
                # backstop for a chunk is the sum of the per-text budgets
                wait = timeout * len(texts) + COLLECT_GRACE
                reply_budget = (
                    deadline.remaining() if deadline is not None else timeout
                )
                replies = future.result(
                    timeout=max(0.0, max(wait, reply_budget + COLLECT_GRACE))
                )
        except _FutureTimeout:
            future.cancel()
            results = [
                _timeout_result(text, entry.fingerprint, timeout, True)
                for text in texts
            ]
            for result in results:
                self.metrics.record_parse(result, None)
            return results
        except Exception:
            # BrokenProcessPool and friends: the worker died mid-chunk
            self._note_worker_crash()
            return [
                self._in_parent_fallback(entry, task, text, deadline)
                for text in texts
            ]
        if len(replies) == 1 and replies[0].bootstrap_failed:
            self.metrics.incr("worker_bootstrap_failures")
            if replies[0].quarantined:
                self.metrics.incr("quarantined", len(replies[0].quarantined))
            retried = self._retry_after_republish(entry, task, deadline)
            if retried is not None:
                replies = retried
            else:
                return [
                    self._in_parent_fallback(entry, task, text, deadline)
                    for text in texts
                ]
        results = []
        for text, reply in zip(texts, replies):
            if reply.internal_error:
                self.metrics.incr("internal_errors")
                results.append(
                    self._in_parent_fallback(entry, task, text, deadline)
                )
            else:
                results.append(self._reply_to_result(entry, reply, text))
        return results

    def _retry_after_republish(self, entry, task, deadline) -> list | None:
        """Force-republish artifacts and retry one chunk, once.

        A worker that quarantined a corrupt artifact asks the parent to
        rebuild it; the parent rewrites from its in-memory entry and
        resubmits the whole chunk.  Returns the replies, or ``None``
        when the retry also failed (the caller parses in-parent).
        """
        try:
            entry.publish_worker_artifacts(self.registry.cache_dir, force=True)
            self.metrics.incr("worker_republishes")
        except Exception:
            return None
        try:
            pool = self._ensure_process_pool()
            remaining = (
                deadline.remaining() if deadline is not None else None
            )
            retry = replace(task, deadline_remaining=remaining)
            future = pool.submit(execute_batch, retry)
            self.metrics.incr("worker_tasks")
            wait = (
                None if remaining is None
                else max(0.0, remaining * len(task.texts) + COLLECT_GRACE)
            )
            replies = future.result(timeout=wait)
        except Exception:
            # includes the future timeout: give up on the worker path
            self._note_worker_crash()
            return None
        if len(replies) == 1 and replies[0].bootstrap_failed:
            self.metrics.incr("worker_bootstrap_failures")
            return None
        if len(replies) != len(task.texts):
            return None
        return replies

    def _in_parent_fallback(
        self, entry, task, text, deadline
    ) -> ParseServiceResult:
        """Last rung for a process-path request: parse in the parent.

        Marks the result with the ``"worker"`` degradation rung so fleet
        dashboards can tell "the worker protocol failed" apart from "a
        backend failed".
        """
        result = self._parse_entry(
            entry, text, True, task.start, task.max_errors,
            task.max_steps, None, deadline,
        )
        if "worker" not in result.degraded:
            result.degraded = ("worker", *result.degraded)
        return result

    def _reply_to_result(self, entry, reply, text) -> ParseServiceResult:
        """Convert one healthy :class:`WorkerReply`, recording metrics.

        Workers do not share the parent's metrics object, so the parent
        folds each reply in on collection, as the compiled rung — the
        ``repro stats`` series stay complete whichever executor served.
        """
        if reply.bootstrapped:
            self.metrics.incr("worker_bootstraps")
        bag = (
            reply.diagnostics if reply.diagnostics is not None
            else DiagnosticBag()
        )
        result = _answered(
            text, entry.fingerprint, reply.tree, bag, True, reply.seconds, ()
        )
        self.metrics.record_parse(result, "parse_compiled")
        return result

"""Chaos campaigns: the service must never crash and never lie.

Every test drives a :class:`~repro.service.service.ParseService` with a
deterministic :class:`~repro.resilience.FaultPlan` and checks the two
invariants of the graceful-degradation ladder:

1. **Never crash** — every request returns a ``ParseServiceResult``; a
   fault surfaces as a diagnostic (degraded parse, E0000, E0204, E0304),
   never as an uncaught exception.
2. **Never a wrong tree** — any ``ok`` result produced along a degraded
   path must be byte-identical (``to_sexpr``) to the tree a clean,
   fault-free service produces for the same text.

The bounded smoke subset always runs.  ``pytest -m chaos`` adds the
randomized campaign; set ``REPRO_CHAOS_SEED`` to explore another region
(CI pins it on pull requests and randomizes it nightly), and set
``REPRO_CHAOS_TRANSCRIPT`` to a path to dump the fault-plan transcript
of a failing campaign for replay.
"""

import contextlib
import os
import pathlib
import shutil
import threading

import pytest

from repro.core import GrammarProductLine
from repro.errors import ReproError
from repro.resilience import FaultPlan, FaultRule
from repro.resilience.faults import SITES
from repro.service import ParseService, ParserRegistry
from repro.service.service import ParseServiceResult, TranslateServiceResult
from repro.sql import build_sql_product_line, dialect_selection
from repro.transpile import translate

from tests.test_core_product_line import mini_model, mini_units

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "20260807"))

FULL = ["Query", "SetQuantifier", "MultiColumn", "Where", "GroupBy"]

#: Mixed corpus: valid texts (the differential check applies) and
#: invalid ones (degraded paths must still produce clean diagnostics).
CORPUS = (
    "SELECT a FROM t",
    "SELECT DISTINCT a FROM t",
    "SELECT a, b, c FROM t",
    "SELECT a FROM t WHERE x = y",
    "SELECT a, b FROM t WHERE x = y GROUP BY a",
    "SELECT FROM WHERE",
    "SELECT !! nonsense",
    "",
)


def make_line():
    return GrammarProductLine(mini_model(), mini_units(), name="mini-sql")


def make_service(fault_plan=None, **kwargs):
    """A service on a fresh mini-sql registry that carries ``fault_plan``."""
    registry = ParserRegistry(make_line(), fault_plan=fault_plan)
    return ParseService(registry=registry, **kwargs)


@pytest.fixture(scope="module")
def clean_trees():
    """Expected s-expressions from a fault-free service, keyed by text."""
    with make_service() as service:
        results = {text: service.parse(text, FULL) for text in CORPUS}
    return {
        text: result.tree.to_sexpr() if result.ok else None
        for text, result in results.items()
    }


@contextlib.contextmanager
def transcript_on_failure(plan):
    """Dump the fault-plan transcript when the campaign fails.

    CI uploads the file as an artifact so a red nightly run can be
    replayed locally: the transcript pins every fire/no-fire decision.
    """
    try:
        yield
    except BaseException:
        path = os.environ.get("REPRO_CHAOS_TRANSCRIPT")
        if path:
            pathlib.Path(path).write_text(plan.to_json())
        raise


def assert_never_crashes_never_lies(service, clean_trees, rounds=2):
    for _ in range(rounds):
        for text in CORPUS:
            result = service.parse(text, FULL)
            assert isinstance(result, ParseServiceResult)
            if result.ok:
                assert result.tree.to_sexpr() == clean_trees[text], (
                    f"degraded path returned a different tree for {text!r} "
                    f"(degraded={result.degraded})"
                )
            else:
                assert result.diagnostics, (
                    f"failed result for {text!r} carries no diagnostics"
                )


#: Sites the process executor's worker publication (an IR write) and
#: pool spawn reach; their per-site case adds a 2-worker process batch.
PROCESS_SITES = ("artifact.write.ir", "worker.spawn")


def assert_process_batch_never_lies(service, clean_trees):
    results = service.parse_many(list(CORPUS), FULL)
    for text, result in zip(CORPUS, results):
        assert isinstance(result, ParseServiceResult)
        if result.ok:
            assert result.tree.to_sexpr() == clean_trees[text]


class TestPerSiteFaults:
    """One deterministic always-firing fault per site, exercised cold
    and warm, with the artifact cache enabled so the disk sites fire."""

    @pytest.mark.parametrize("site", SITES)
    def test_single_site_fault_is_absorbed(self, site, tmp_path, clean_trees):
        plan = FaultPlan(
            [FaultRule(site, probability=1.0, times=3)], seed=SEED
        )
        with transcript_on_failure(plan):
            # warm the artifact cache with a clean service first so the
            # artifact.read.* sites have something to read through
            with make_service(cache_dir=tmp_path) as warm:
                warm.warm(FULL)
            with make_service(
                plan, cache_dir=tmp_path,
                executor="process" if site in PROCESS_SITES else "thread",
                max_workers=2,
            ) as service:
                assert_never_crashes_never_lies(service, clean_trees)
                if site in PROCESS_SITES:
                    assert_process_batch_never_lies(service, clean_trees)
                # the ladder healed: later requests are served normally
                late = service.parse("SELECT a FROM t", FULL)
                assert late.ok
                assert late.tree.to_sexpr() == clean_trees["SELECT a FROM t"]
            # a site the scenario never reaches would pass vacuously
            assert plan.checked(site) > 0


#: The sites a translate reaches: its two registry lookups and the
#: entries they return.  ``backend.parse`` and ``worker.*`` guard the
#: service's parse step and its workers, which a translate never enters.
TRANSLATE_SITES = (
    "compose", "program.compile", "closure.compile", "hints.build",
    "artifact.read.ir", "artifact.write.ir",
)

#: ``(sql, source, target)``: translated; translated to scql, whose
#: program compiles; refused by scql; and a source syntax error, whose
#: diagnostics build the hint provider.
TRANSLATES = (
    ("SELECT a FROM t WHERE a = 1", "core", "core"),
    ("SELECT a FROM t", "core", "scql"),
    ("SELECT t.a FROM t", "core", "scql"),
    ("SELECT FROM WHERE", "core", "core"),
)


def fault_free(sql, source, target):
    """The SQL a fault-free translate answers (``None``: it fails)."""
    try:
        return translate(sql, source, target).sql
    except ReproError:
        return None


class TestTranslateSiteFaults:
    """One always-firing fault per site a translate reaches, on a SQL
    registry that carries the plan.  Its artifact directory already holds
    core's program, so core reads it and scql compiles and publishes."""

    @pytest.fixture(scope="class")
    def warm_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("translate-artifacts")
        registry = ParserRegistry(build_sql_product_line(), cache_dir=directory)
        registry.get(dialect_selection("core")).program()
        return directory

    @pytest.mark.parametrize("site", TRANSLATE_SITES)
    def test_single_site_fault_is_absorbed(self, site, warm_dir, tmp_path):
        clean = [fault_free(*call) for call in TRANSLATES]
        cache = tmp_path / "artifacts"
        shutil.copytree(warm_dir, cache)
        plan = FaultPlan(
            [FaultRule(site, probability=1.0, times=3)], seed=SEED
        )
        registry = ParserRegistry(
            build_sql_product_line(), cache_dir=cache, fault_plan=plan
        )
        with transcript_on_failure(plan), ParseService(registry) as service:
            for _ in range(2):
                for call, expected in zip(TRANSLATES, clean):
                    result = service.translate(*call)
                    assert isinstance(result, TranslateServiceResult)
                    if result.ok:
                        assert result.sql == expected, (call, site)
                    else:
                        assert result.diagnostics, (call, site)
            # the registry healed: a later translate is served normally
            late = service.translate(*TRANSLATES[0])
            assert late.ok and late.sql == clean[0]
        # a site the scenario never reaches would pass vacuously
        assert plan.checked(site) > 0


class TestRandomizedChaosSmoke:
    """A bounded all-sites randomized sweep that always runs."""

    def test_chaos_sweep_smoke(self, tmp_path, clean_trees):
        plan = FaultPlan.chaos(SEED, max_latency=0.001)
        with transcript_on_failure(plan):
            with make_service(plan, cache_dir=tmp_path) as service:
                assert_never_crashes_never_lies(service, clean_trees, rounds=3)
                health = service.health()
                assert health["status"] in ("ok", "degraded")
                # whatever happened is visible, not silent
                snapshot = service.metrics.snapshot()
                assert snapshot["counters"]["parses"] > 0


@pytest.mark.chaos
class TestChaosCampaign:
    """The extended nightly campaign: several seeds and executors."""

    @pytest.mark.parametrize("offset", range(5))
    def test_interpreter_campaign(self, offset, tmp_path, clean_trees):
        plan = FaultPlan.chaos(SEED + offset, max_latency=0.001)
        with transcript_on_failure(plan):
            with make_service(plan, cache_dir=tmp_path) as service:
                assert_never_crashes_never_lies(service, clean_trees, rounds=4)

    def test_worker_spawn_campaign(self, tmp_path, clean_trees):
        """Spawn faults on the process executor: the crash ladder must
        degrade process -> thread (never crash, never a wrong tree) and
        record the degradation instead of hiding it."""
        plan = FaultPlan.chaos(
            SEED + 2000, sites=("worker.spawn",), max_latency=0.001
        )
        with transcript_on_failure(plan):
            with make_service(
                plan, cache_dir=tmp_path, executor="process", max_workers=2,
            ) as service:
                for _ in range(4):
                    results = service.parse_many(list(CORPUS), FULL)
                    for i, text in enumerate(CORPUS):
                        result = results[i]
                        assert isinstance(result, ParseServiceResult)
                        if result.ok:
                            assert (
                                result.tree.to_sexpr() == clean_trees[text]
                            )
                counters = service.metrics.snapshot()["counters"]
                if service.effective_executor == "thread":
                    # enough spawn faults fired to cross the threshold:
                    # the ladder must say so, loudly
                    assert counters["executor_degraded"] == 1
                    assert counters["worker_crashes"] >= 2
                    assert service.health()["status"] == "degraded"

    def test_pooled_campaign(self, tmp_path, clean_trees, monkeypatch):
        """Chaos under concurrency: the pooled path with shared entries.

        A batch with a timeout fans out one pool future per text, which
        ``_collect`` awaits; the last round, without one, runs the
        caller-thread loop.
        """
        plan = FaultPlan.chaos(SEED + 1000, max_latency=0.001)
        parsed_on = set()
        with transcript_on_failure(plan):
            with make_service(
                plan, cache_dir=tmp_path, max_workers=4
            ) as service:
                original = service._parse_entry

                def recording(*args):
                    parsed_on.add(threading.get_ident())
                    return original(*args)

                monkeypatch.setattr(service, "_parse_entry", recording)
                for timeout in (30.0, 30.0, 30.0, None):
                    results = service.parse_many(
                        list(CORPUS), FULL, timeout=timeout
                    )
                    for i, text in enumerate(CORPUS):
                        result = results[i]
                        assert isinstance(result, ParseServiceResult)
                        if result.ok:
                            assert (
                                result.tree.to_sexpr() == clean_trees[text]
                            )
        # the timed rounds ran on pool threads, not on the caller's
        assert parsed_on - {threading.get_ident()}

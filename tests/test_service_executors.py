"""Process executor: worker bootstrap protocol, degradation, lifecycle.

Covers the parent/worker artifact-bootstrap protocol of
:mod:`repro.service.workers` at three levels:

* pure-unit: direct :func:`execute_batch` calls (no process pool);
* worker-side failure handling: corrupt/missing artifacts must
  quarantine and report — never raise, never deadlock — and the parent
  must force-republish and retry;
* real spawned pools: result parity with the thread path, bootstrap
  counters, crash-threshold degradation, and ``close()`` draining both
  executor kinds.
"""

import os

import pytest

from repro.core import GrammarProductLine
from repro.diagnostics.model import SERVICE_OVERLOADED
from repro.parsing.tree import Node
from repro.resilience import FaultPlan, FaultRule
from repro.service import ParseService, ParserRegistry
from repro.service.registry import RegistryEntry
from repro.service.workers import WorkerTask, execute_batch, reset_worker_cache

from tests.test_core_product_line import mini_model, mini_units

FULL = ["Query", "SetQuantifier", "MultiColumn", "Where", "GroupBy"]

CORPUS = (
    "SELECT a FROM t",
    "SELECT DISTINCT a FROM t",
    "SELECT a, b, c FROM t",
    "SELECT a FROM t WHERE x = y",
    "SELECT a, b FROM t WHERE x = y GROUP BY a",
    "SELECT FROM WHERE",
    "",
)


def make_line():
    return GrammarProductLine(mini_model(), mini_units(), name="mini-sql")


def make_service(fault_plan=None, **kwargs):
    """A service on a fresh mini-sql registry that carries ``fault_plan``."""
    registry = ParserRegistry(make_line(), fault_plan=fault_plan)
    return ParseService(registry=registry, **kwargs)


def published_entry(tmp_path):
    """A composed registry entry with worker artifacts staged on disk."""
    registry = ParserRegistry(make_line(), cache_dir=tmp_path)
    entry = registry.get(FULL)
    entry.publish_worker_artifacts(tmp_path)
    return registry, entry


def task_for(entry, tmp_path, *texts, backend="compiled"):
    return WorkerTask(
        digest=entry.fingerprint.digest,
        cache_dir=str(tmp_path),
        backend=backend,
        text="",
        texts=texts,
    )


def execute_one(task):
    """One text through the worker entry point; its single reply."""
    (reply,) = execute_batch(task)
    return reply


class TestWorkerEntryPoints:
    """execute_batch as a plain function — the worker side of the
    protocol without any process pool in the way."""

    def test_single_text_batch_matches_in_parent_tree(self, tmp_path):
        registry, entry = published_entry(tmp_path)
        reset_worker_cache()
        expected = entry.parser().parse("SELECT a FROM t WHERE x = y")
        reply = execute_one(
            task_for(entry, tmp_path, "SELECT a FROM t WHERE x = y")
        )
        assert not reply.bootstrap_failed and not reply.internal_error
        assert reply.bootstrapped  # first task in this "process"
        assert reply.tree.to_sexpr() == expected.to_sexpr()
        again = execute_one(task_for(entry, tmp_path, "SELECT a FROM t"))
        assert not again.bootstrapped  # cached parser reused

    def test_execute_batch_amortizes_one_bootstrap(self, tmp_path):
        registry, entry = published_entry(tmp_path)
        reset_worker_cache()
        replies = execute_batch(task_for(entry, tmp_path, *CORPUS))
        assert len(replies) == len(CORPUS)
        assert replies[0].bootstrapped
        assert not any(r.bootstrapped for r in replies[1:])
        assert not any(r.bootstrap_failed for r in replies)
        # invalid texts are diagnostics, not internal errors
        bad = replies[CORPUS.index("SELECT FROM WHERE")]
        assert not bad.internal_error
        assert bad.diagnostics.has_errors

    def test_missing_artifacts_report_bootstrap_failure(self, tmp_path):
        registry, entry = published_entry(tmp_path)
        reset_worker_cache()
        task = WorkerTask(
            digest="0" * len(entry.fingerprint.digest),
            cache_dir=str(tmp_path), backend="compiled",
            text="", texts=("SELECT a FROM t",),
        )
        reply = execute_one(task)
        assert reply.bootstrap_failed
        assert "missing" in (reply.error or "")

    def test_non_compiled_backend_is_a_bootstrap_failure(self, tmp_path):
        registry, entry = published_entry(tmp_path)
        reset_worker_cache()
        reply = execute_one(
            task_for(entry, tmp_path, "SELECT a FROM t", backend="generated")
        )
        assert reply.bootstrap_failed
        assert "compiled" in (reply.error or "")

    def test_corrupt_ir_is_quarantined_not_raised(self, tmp_path):
        registry, entry = published_entry(tmp_path)
        reset_worker_cache()
        ir_path = tmp_path / f"{entry.fingerprint.digest}.ir.json"
        ir_path.write_text('{"kind": "repro-parse-program", "oops": 1}')
        replies = execute_batch(task_for(entry, tmp_path, "SELECT a FROM t"))
        assert len(replies) == 1
        assert replies[0].bootstrap_failed
        assert replies[0].quarantined  # renamed aside, pool not poisoned
        assert not ir_path.exists()
        assert ir_path.with_name(ir_path.name + ".bad").exists()

    @pytest.mark.parametrize("kind", ["ir"])
    def test_zero_byte_artifact_reply_lists_the_quarantine(self, tmp_path, kind):
        registry, entry = published_entry(tmp_path)
        reset_worker_cache()
        path = tmp_path / f"{entry.fingerprint.digest}.{kind}.json"
        path.write_text("")
        reply = execute_one(task_for(entry, tmp_path, "SELECT a FROM t"))
        assert reply.bootstrap_failed
        assert f"{kind} artifact corrupt" in reply.error
        assert reply.quarantined == (str(path),)
        assert path.with_name(path.name + ".bad").exists()


@pytest.fixture(scope="module")
def process_service(tmp_path_factory):
    """One spawned 2-worker pool shared by the parity tests (spawn is
    the expensive part; the protocol is per-batch either way)."""
    cache = tmp_path_factory.mktemp("artifacts")
    with make_service(
        cache_dir=cache, executor="process", max_workers=2
    ) as service:
        yield service


class TestProcessExecutor:
    def test_rejects_unknown_executor(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_service(executor="fiber")

    def test_owns_a_cache_dir_when_none_given(self):
        service = make_service(executor="process", max_workers=2)
        registry = service.registry
        try:
            owned = registry.cache_dir
            assert owned is not None and os.path.isdir(owned)
        finally:
            service.close()
        assert not os.path.isdir(owned)  # close() removed the owned dir
        # ...and pointed the registry, which may be shared, away from it:
        # a later compose writes nothing and recreates no directory
        assert registry.cache_dir is None
        registry.get(FULL).program()
        assert not os.path.exists(owned)

    def test_parity_with_thread_results(self, process_service):
        with make_service() as reference:
            expected = reference.parse_many(list(CORPUS), FULL)
        results = process_service.parse_many(list(CORPUS), FULL)
        # the workers bootstrapped from one published file, no more
        digest = process_service.registry.fingerprint(FULL).digest
        assert os.listdir(process_service.registry.cache_dir) == [
            f"{digest}.ir.json"
        ]
        counters = process_service.metrics.snapshot()["counters"]
        assert counters["worker_tasks"] > 0
        assert counters["worker_bootstrap_failures"] == 0
        assert len(results) == len(CORPUS)
        for result, thread in zip(results, expected):
            assert result.ok == thread.ok
            if result.ok:
                # whole trees, token positions included, rebuilt as
                # nodes at every level on this side of the pipe
                assert result.tree == thread.tree
                stack = [result.tree]
                while stack:
                    node = stack.pop()
                    assert type(node) is Node and node.children is node
                    stack.extend(c for c in node if isinstance(c, Node))
            else:
                assert result.diagnostics.has_errors
            assert not result.timed_out

    def test_bootstrap_counters_and_chunking(self, process_service):
        before = process_service.metrics.counter("worker_tasks")
        process_service.parse_many(list(CORPUS), FULL)
        counters = process_service.metrics.snapshot()["counters"]
        # chunked protocol: far fewer pipe round-trips than texts
        assert counters["worker_tasks"] > before
        assert counters["worker_tasks"] - before <= 4  # 2 workers x 2 chunks
        assert counters["worker_bootstraps"] >= 1
        assert counters["worker_crashes"] == 0
        assert process_service.effective_executor == "process"
        snap = process_service.stats()["executor"]
        assert snap["kind"] == "process"
        assert snap["effective"] == "process"
        assert snap["workers"] == 2

    def test_coverage_batches_stay_in_parent(self, process_service):
        entry = process_service.registry.get(FULL)
        collector = entry.coverage_collector()
        before = process_service.metrics.counter("worker_tasks")
        results = process_service.parse_many(
            ["SELECT a FROM t", "SELECT a, b, c FROM t"], FULL,
            coverage=collector,
        )
        assert all(r.ok for r in results)
        # collectors cannot cross the pipe: no worker task was shipped
        assert process_service.metrics.counter("worker_tasks") == before
        assert collector.rules_covered() > 0

    def test_one_text_and_one_worker_batches_stay_in_parent(
        self, process_service, tmp_path
    ):
        # nothing to fan out: the caller-thread loop parses them
        before = process_service.metrics.counter("worker_tasks")
        (result,) = process_service.parse_many(["SELECT a FROM t"], FULL)
        assert result.ok
        assert process_service.metrics.counter("worker_tasks") == before
        with make_service(
            cache_dir=tmp_path, executor="process", max_workers=1
        ) as service:
            results = service.parse_many(list(CORPUS), FULL)
            assert [r.text for r in results] == list(CORPUS)
            assert results[0].ok
            assert service.metrics.counter("worker_tasks") == 0
            assert service._proc_pool is None


class TestWorkerRepublishProtocol:
    def test_corrupt_artifact_degrades_to_republish_and_retry(
        self, tmp_path, monkeypatch
    ):
        """A worker hitting a corrupt ir.json must quarantine it, the
        parent must force-republish and retry, and the batch must still
        come back fully parsed — never a deadlock, never a raise."""
        service = make_service(
            cache_dir=tmp_path, executor="process", max_workers=2
        )
        try:
            entry = service.registry.get(FULL)
            entry.publish_worker_artifacts(tmp_path)
            original = RegistryEntry.publish_worker_artifacts

            def skip_freshness_heal(self, cache_dir, force=False):
                # the parent's batch-start publish would quietly rewrite
                # the corrupt artifact; suppress the non-forced call so
                # the *worker-side* detection path is what gets tested
                if not force:
                    return None
                return original(self, cache_dir, force=force)

            monkeypatch.setattr(
                RegistryEntry, "publish_worker_artifacts", skip_freshness_heal
            )
            ir_path = tmp_path / f"{entry.fingerprint.digest}.ir.json"
            ir_path.write_text('{"kind": "repro-parse-program"}')
            results = service.parse_many(list(CORPUS), FULL)
            assert all(isinstance(r.seconds, float) for r in results)
            for text, result in zip(CORPUS, results):
                if text and "FROM WHERE" not in text:
                    assert result.ok, (text, result.diagnostics)
            counters = service.metrics.snapshot()["counters"]
            assert counters["worker_bootstrap_failures"] >= 1
            assert counters["worker_republishes"] >= 1
            assert counters["quarantined"] >= 1
            assert ir_path.exists()  # force-republish rewrote it
        finally:
            service.close()


class TestCrashDegradation:
    def test_spawn_faults_degrade_to_thread_permanently(self, tmp_path):
        plan = FaultPlan(
            [FaultRule("worker.spawn", probability=1.0)], seed=1
        )
        service = make_service(
            cache_dir=tmp_path, fault_plan=plan,
            executor="process", max_workers=2,
        )
        try:
            for _ in range(3):
                results = service.parse_many(
                    ["SELECT a FROM t", "SELECT a FROM t WHERE x = y"], FULL
                )
                assert all(r.ok for r in results)  # thread fallback served
            counters = service.metrics.snapshot()["counters"]
            assert counters["worker_crashes"] >= 2
            assert counters["executor_degraded"] == 1
            assert service.effective_executor == "thread"
            assert service.executor == "process"  # configured kind intact
            health = service.health()
            assert health["status"] == "degraded"
            assert "worker_crashes" in health["degradation"]
            assert "(degraded to thread)" in service.render_health()
        finally:
            service.close()


class TestLifecycle:
    def test_close_is_idempotent_and_fails_batches(self, tmp_path):
        service = make_service(
            cache_dir=tmp_path, executor="process", max_workers=2
        )
        service.parse_many(["SELECT a FROM t", "SELECT a, b, c FROM t"], FULL)
        service.close()
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.parse_many(["SELECT a FROM t", "x"], FULL)

    def test_context_manager_closes_thread_pool(self):
        with make_service(max_workers=2) as service:
            results = service.parse_many(
                ["SELECT a FROM t", "SELECT DISTINCT a FROM t"], FULL
            )
            assert all(r.ok for r in results)
        with pytest.raises(RuntimeError, match="closed"):
            service.parse_many(["SELECT a FROM t", "x"], FULL)

    def test_shed_results_code(self, tmp_path):
        service = make_service(max_queue=1, max_workers=4)
        try:
            results = service.parse_many(list(CORPUS), FULL)
            shed = [
                r for r in results
                if any(d.code == SERVICE_OVERLOADED for d in r.diagnostics)
            ]
            assert shed  # admission control fired under the 1-slot queue
        finally:
            service.close()

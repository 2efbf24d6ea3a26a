"""ParserRegistry: LRU behavior, disk artifacts, single-flight composition."""

import threading

import pytest

from repro.core import GrammarProductLine
from repro.core.composer import GrammarComposer
from repro.service import ParserRegistry
from repro.service.artifacts import (
    CLOSURES,
    IR,
    KINDS,
    LEX,
    ArtifactMiss,
    Lexicon,
)

from tests.test_core_product_line import mini_model, mini_units


def make_registry(capacity=8, cache_dir=None):
    line = GrammarProductLine(mini_model(), mini_units(), name="mini-sql")
    return ParserRegistry(line, capacity=capacity, cache_dir=cache_dir)


@pytest.fixture
def registry():
    return make_registry()


@pytest.fixture
def compose_calls(monkeypatch):
    """Count grammar compositions performed anywhere in the process."""
    calls = []
    original = GrammarComposer.extend

    def counting(self, *args, **kwargs):
        calls.append(threading.get_ident())
        return original(self, *args, **kwargs)

    monkeypatch.setattr(GrammarComposer, "extend", counting)
    return calls


class TestLookup:
    def test_miss_then_hit(self, registry):
        first = registry.get(["Query", "Where"])
        assert registry.metrics.counter("misses") == 1
        assert registry.metrics.counter("hits") == 0
        second = registry.get(["Query", "Where"])
        assert second is first
        assert registry.metrics.counter("hits") == 1
        assert registry.metrics.counter("composes") == 1

    def test_sparse_and_expanded_share_an_entry(self, registry):
        sparse = registry.get(["Query", "GroupBy"])
        config = registry.line.resolve_configuration(["Query", "GroupBy"])
        expanded = registry.get(config.selected, dict(config.counts))
        assert expanded is sparse
        assert registry.metrics.counter("composes") == 1

    def test_acquire_reports_warmth(self, registry):
        _, warm = registry.acquire(["Query"])
        assert warm is False
        _, warm = registry.acquire(["Query"])
        assert warm is True

    def test_entry_parses(self, registry):
        entry = registry.get(["Query", "Where"])
        parser = entry.parser()
        assert parser.accepts("SELECT a FROM t WHERE x = y")
        assert not parser.accepts("SELECT a, b FROM t")

    def test_peek_does_not_count_or_reorder(self, registry):
        entry = registry.get(["Query"])
        hits = registry.metrics.counter("hits")
        assert registry.peek(entry.fingerprint) is entry
        assert registry.metrics.counter("hits") == hits

    def test_contains_and_len(self, registry):
        assert len(registry) == 0
        entry = registry.get(["Query"])
        assert len(registry) == 1
        assert entry.fingerprint in registry

    def test_capacity_must_be_positive(self, registry):
        with pytest.raises(ValueError):
            ParserRegistry(registry.line, capacity=0)


class TestLRU:
    def test_eviction_order_respects_recency(self):
        registry = make_registry(capacity=2)
        a = registry.get(["Query"])
        b = registry.get(["Query", "Where"])
        # touch A so B becomes the least recently used
        assert registry.get(["Query"]) is a
        c = registry.get(["Query", "MultiColumn"])
        assert a.fingerprint in registry
        assert c.fingerprint in registry
        assert b.fingerprint not in registry
        assert registry.metrics.counter("evictions") == 1

    def test_evicted_entry_is_recomposed_on_return(self):
        registry = make_registry(capacity=1)
        registry.get(["Query"])
        registry.get(["Query", "Where"])  # evicts ["Query"]
        registry.get(["Query"])
        assert registry.metrics.counter("composes") == 3

    def test_manual_evict_and_clear(self, registry):
        entry = registry.get(["Query"])
        assert registry.evict(entry.fingerprint) is True
        assert registry.evict(entry.fingerprint) is False
        registry.get(["Query"])
        registry.get(["Query", "Where"])
        registry.clear()
        assert len(registry) == 0


def value_of(entry, kind):
    """The in-memory artifact of ``kind`` for ``entry``."""
    if kind is LEX:
        grammar = entry.product.grammar
        return Lexicon(
            entry.fingerprint.digest, grammar.name, grammar.start,
            grammar.tokens,
        )
    return entry.program() if kind is IR else entry.closure_program()


def context_of(entry, kind):
    """What decoding ``kind`` needs besides the text (closures: the IR)."""
    return entry.program() if kind is CLOSURES else None


def count(registry, kind, event):
    return registry.metrics.counter(f"artifact.{kind.name}.{event}")


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.name)
class TestDiskCache:
    """Store behaviour, identical for every artifact kind: artifacts are
    written by worker publication and read back the way a worker reads
    them (the IR and closure kinds also load through the entry, covered
    by the per-kind classes below)."""

    def test_artifact_round_trip_across_registries(self, tmp_path, kind):
        first = make_registry(cache_dir=tmp_path)
        entry = first.get(["Query", "Where"])
        entry.publish_worker_artifacts(tmp_path)
        assert count(first, kind, "build") == 1
        artifact = tmp_path / f"{entry.fingerprint.digest}{kind.suffix}"
        assert artifact.exists()

        # a fresh registry (fresh process, in spirit) reuses the artifact
        second = make_registry(cache_dir=tmp_path)
        entry2 = second.get(["Query", "Where"])
        value = second.store.read(
            kind, entry2.fingerprint.digest, context_of(entry, kind)
        )
        assert count(second, kind, "hit") == 1
        assert count(second, kind, "build") == 0
        assert kind.encode(value) == artifact.read_text()

    def test_tampered_artifact_is_invalidated(self, tmp_path, kind):
        first = make_registry(cache_dir=tmp_path)
        entry = first.get(["Query", "Where"])
        entry.publish_worker_artifacts(tmp_path)
        digest = entry.fingerprint.digest
        artifact = tmp_path / f"{digest}{kind.suffix}"

        # corrupt the embedded provenance: stale-file simulation
        text = artifact.read_text()
        assert digest in text
        artifact.write_text(text.replace(digest, "0" * 64, 1))

        second = make_registry(cache_dir=tmp_path)
        entry2 = second.get(["Query", "Where"])
        with pytest.raises(ArtifactMiss) as miss:
            second.store.read(kind, digest, context_of(entry, kind))
        assert miss.value.quarantined == (str(artifact),)
        # stale provenance is quarantined but NOT counted as corruption
        assert count(second, kind, "stale") == 1
        assert count(second, kind, "corrupt") == 0
        assert count(second, kind, "hit") == 0
        assert second.metrics.counter("quarantined") == 1
        # republishing rebuilds the artifact in the clean slot
        entry2.publish_worker_artifacts(tmp_path)
        assert digest in artifact.read_text()

    def test_no_cache_dir_means_no_files(self, registry, tmp_path, kind):
        entry = registry.get(["Query"])
        digest = entry.fingerprint.digest
        registry.store.save(kind, digest, value_of(entry, kind))
        with pytest.raises(ArtifactMiss, match="no cache directory"):
            registry.store.read(kind, digest, context_of(entry, kind))
        assert list(tmp_path.iterdir()) == []
        assert count(registry, kind, "miss") == 0

    def test_set_cache_dir_toggles(self, registry, tmp_path, kind):
        registry.set_cache_dir(tmp_path)
        entry = registry.get(["Query"])
        registry.store.save(kind, entry.fingerprint.digest, value_of(entry, kind))
        assert (tmp_path / f"{entry.fingerprint.digest}{kind.suffix}").exists()
        registry.set_cache_dir(None)
        assert registry.cache_dir is None
        assert not registry.store.fresh(kind, entry.fingerprint.digest)


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.name)
class TestArtifactStoreSafety:
    """The I/O safety properties of the one store, for every kind."""

    def test_missing_file_is_a_plain_miss(self, tmp_path, kind):
        registry = make_registry(cache_dir=tmp_path)
        entry = registry.get(["Query"])
        with pytest.raises(ArtifactMiss, match="missing") as miss:
            registry.store.read(
                kind, entry.fingerprint.digest, context_of(entry, kind)
            )
        assert miss.value.quarantined == ()
        assert count(registry, kind, "miss") == 1
        assert count(registry, kind, "corrupt") == 0
        assert registry.metrics.counter("quarantined") == 0
        assert registry.metrics.counter("retries") == 0

    def test_transient_read_error_is_retried(self, tmp_path, kind, monkeypatch):
        registry = make_registry(cache_dir=tmp_path)
        entry = registry.get(["Query"])
        entry.publish_worker_artifacts(tmp_path)
        digest = entry.fingerprint.digest
        target = registry.store.path(kind, digest)
        original = type(target).read_text
        failures = []

        def flaky(path, *args, **kwargs):
            if path == target and len(failures) < 2:
                failures.append(path)
                raise OSError("transient")
            return original(path, *args, **kwargs)

        monkeypatch.setattr(type(target), "read_text", flaky)
        registry.store.read(kind, digest, context_of(entry, kind))
        assert len(failures) == 2
        assert registry.metrics.counter("retries") == 2
        assert count(registry, kind, "hit") == 1
        assert count(registry, kind, "corrupt") == 0

    def test_publish_is_atomic_and_best_effort(self, tmp_path, kind, monkeypatch):
        registry = make_registry(cache_dir=tmp_path)
        entry = registry.get(["Query"])
        digest = entry.fingerprint.digest
        value = value_of(entry, kind)
        for path in tmp_path.iterdir():
            path.unlink()

        def refuse(*_args):
            raise OSError("disk full")

        monkeypatch.setattr("repro.service.artifacts.os.replace", refuse)
        registry.store.save(kind, digest, value)  # dropped, never raised
        assert not registry.store.fresh(kind, digest)
        assert registry.metrics.counter("retries") == 2
        monkeypatch.undo()
        registry.store.save(kind, digest, value)
        # the artifact name only ever holds a complete file
        path = registry.store.path(kind, digest)
        assert path.read_text() == kind.encode(value)


class TestEntriesFollowTheRegistryDirectory:
    def test_set_cache_dir_moves_existing_entries(self, tmp_path):
        """An entry composed before ``set_cache_dir`` (what ``--cache``
        and ``ParseService(cache_dir=)`` do to the shared registry)
        writes to the new directory, not the one it was created under."""
        old, new = tmp_path / "old", tmp_path / "new"
        old.mkdir()
        new.mkdir()
        registry = make_registry(cache_dir=old)
        entry = registry.get(["Query", "Where"])
        registry.set_cache_dir(new)
        entry.thread_parser()
        assert list(old.iterdir()) == []
        inventory = {item["kind"]: item for item in entry.artifacts()}
        assert inventory["ir"]["exists"]
        assert inventory["ir"]["path"].startswith(str(new))


class TestConcurrency:
    def test_single_flight_composition(self, compose_calls):
        """16 threads race for one selection: exactly one composes."""
        registry = make_registry()
        n = 16
        barrier = threading.Barrier(n)
        entries = [None] * n
        errors = []

        def worker(i):
            try:
                barrier.wait()
                entries[i] = registry.get(["Query", "Where", "GroupBy"])
            except Exception as error:  # pragma: no cover - diagnostic aid
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors
        assert registry.metrics.counter("composes") == 1
        # all threads share the one composed entry
        assert len({id(e) for e in entries}) == 1
        # composition ran in exactly one thread
        assert len({t for t in compose_calls}) == 1

    def test_one_parser_of_each_kind_for_all_threads(self, registry):
        entry = registry.get(["Query"])

        def parsers():
            return (
                entry.parser(), entry.compiled_parser(), entry.fallback_parser()
            )

        main = parsers()
        assert parsers() == main
        # the per-thread accessors' old names are aliases now
        assert entry.thread_parser() is main[0]
        assert entry.thread_compiled_parser(None) is main[1]

        seen = []

        def worker():
            seen.append(parsers())

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert all(a is b for a, b in zip(seen[0], main))

    def test_concurrent_distinct_selections(self, registry):
        selections = [
            ["Query"],
            ["Query", "Where"],
            ["Query", "MultiColumn"],
            ["Query", "SetQuantifier"],
        ]
        results = {}
        barrier = threading.Barrier(len(selections))

        def worker(sel):
            barrier.wait()
            results[tuple(sel)] = registry.get(sel)

        threads = [
            threading.Thread(target=worker, args=(sel,)) for sel in selections
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(results) == 4
        assert registry.metrics.counter("composes") == 4
        fingerprints = {e.fingerprint.digest for e in results.values()}
        assert len(fingerprints) == 4


class TestProgramDiskCache:
    """ParseProgram artifacts (`<digest>.ir.json`) round-trip across processes."""

    def test_program_round_trip_across_registries(self, tmp_path):
        first = make_registry(cache_dir=tmp_path)
        entry = first.get(["Query", "Where"])
        program = entry.program()
        assert count(first, IR, "build") == 1
        assert count(first, IR, "miss") == 1
        artifact = tmp_path / f"{entry.fingerprint.digest}.ir.json"
        assert artifact.exists()

        # a fresh registry (fresh process, in spirit) reuses the artifact
        second = make_registry(cache_dir=tmp_path)
        entry2 = second.get(["Query", "Where"])
        program2 = entry2.program()
        assert count(second, IR, "hit") == 1
        assert count(second, IR, "build") == 0
        assert program2.fingerprint == program.fingerprint
        assert program2.code == program.code
        assert program2.sync == program.sync

        # the revived program actually drives a parser
        parser = entry2.parser()
        assert parser.program is program2
        assert parser.accepts("SELECT a FROM t WHERE x = y")
        assert not parser.accepts("SELECT a, b FROM t")

    def test_stale_program_artifact_is_rebuilt_not_loaded(self, tmp_path):
        first = make_registry(cache_dir=tmp_path)
        entry = first.get(["Query", "Where"])
        entry.program()
        artifact = tmp_path / f"{entry.fingerprint.digest}.ir.json"

        # corrupt the embedded provenance: stale-file simulation
        text = artifact.read_text()
        assert entry.fingerprint.digest in text
        artifact.write_text(
            text.replace(entry.fingerprint.digest, "0" * 64, 1)
        )

        second = make_registry(cache_dir=tmp_path)
        entry2 = second.get(["Query", "Where"])
        program = entry2.program()
        assert count(second, IR, "stale") == 1
        assert count(second, IR, "hit") == 0
        assert count(second, IR, "build") == 1
        # the rebuilt artifact replaces the stale one and carries the
        # correct provenance again
        assert entry.fingerprint.digest in artifact.read_text()
        assert program.fingerprint == entry.fingerprint.digest

    def test_undecodable_program_artifact_is_rebuilt(self, tmp_path):
        first = make_registry(cache_dir=tmp_path)
        entry = first.get(["Query"])
        artifact = tmp_path / f"{entry.fingerprint.digest}.ir.json"
        artifact.write_text("{not json")
        assert entry.program() is not None
        assert count(first, IR, "corrupt") == 1
        assert count(first, IR, "build") == 1

    def test_thread_parsers_share_one_program(self, registry):
        entry = registry.get(["Query"])
        seen = []

        def worker():
            seen.append(entry.compiled_parser())

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert seen[0] is entry.compiled_parser()
        assert seen[0].program is entry.parser().program
        assert count(registry, IR, "build") == 1

class TestQuarantine:
    """Corrupt disk artifacts are renamed aside (``.bad``), counted as
    corruption (distinct from staleness), and rebuilt — the caller
    never sees an error."""

    def test_truncated_ir_artifact_is_quarantined_and_rebuilt(self, tmp_path):
        first = make_registry(cache_dir=tmp_path)
        entry = first.get(["Query", "Where"])
        entry.program()
        artifact = tmp_path / f"{entry.fingerprint.digest}.ir.json"
        text = artifact.read_text()
        artifact.write_text(text[: len(text) // 2])  # torn write simulation

        second = make_registry(cache_dir=tmp_path)
        entry2 = second.get(["Query", "Where"])
        program = entry2.program()
        assert program is not None
        assert count(second, IR, "corrupt") == 1
        assert second.metrics.counter("quarantined") == 1
        # the bad bytes are kept aside for post-mortems...
        bad = tmp_path / f"{entry.fingerprint.digest}.ir.json.bad"
        assert bad.exists()
        assert bad.read_text() == text[: len(text) // 2]
        # ...and a valid artifact is rebuilt in the clean slot
        assert entry.fingerprint.digest in artifact.read_text()

    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.name)
    def test_zero_byte_artifacts_are_quarantined_and_rebuilt(
        self, tmp_path, kind
    ):
        registry = make_registry(cache_dir=tmp_path)
        entry = registry.get(["Query"])
        digest = entry.fingerprint.digest
        path = tmp_path / f"{digest}{kind.suffix}"
        path.write_text("")

        with pytest.raises(ArtifactMiss, match="corrupt"):
            registry.store.read(kind, digest, context_of(entry, kind))
        assert count(registry, kind, "corrupt") == 1
        assert count(registry, kind, "stale") == 0
        assert registry.metrics.counter("quarantined") == 1
        assert path.with_name(path.name + ".bad").read_text() == ""
        # republishing fills the slot with a fresh, valid artifact again
        entry.publish_worker_artifacts(tmp_path)
        assert registry.store.fresh(kind, digest)

    def test_mismatched_fingerprint_is_stale_not_corrupt(self, tmp_path):
        first = make_registry(cache_dir=tmp_path)
        entry = first.get(["Query", "Where"])
        entry.program()
        artifact = tmp_path / f"{entry.fingerprint.digest}.ir.json"
        artifact.write_text(
            artifact.read_text().replace(entry.fingerprint.digest, "0" * 64, 1)
        )

        second = make_registry(cache_dir=tmp_path)
        entry2 = second.get(["Query", "Where"])
        assert entry2.program() is not None
        # stale provenance is quarantined but NOT counted as corruption
        assert count(second, IR, "stale") == 1
        assert count(second, IR, "corrupt") == 0
        assert second.metrics.counter("quarantined") == 1
        assert (tmp_path / f"{entry.fingerprint.digest}.ir.json.bad").exists()

    def test_unreadable_artifact_is_retried_then_quarantined(self, tmp_path):
        """An OSError on read (here: a directory squatting on the
        artifact path) is retried as transient, then treated as
        corruption and rebuilt — not surfaced as a crash."""
        from repro.resilience import RetryPolicy

        line = GrammarProductLine(mini_model(), mini_units(), name="mini-sql")
        registry = ParserRegistry(
            line,
            cache_dir=tmp_path,
            retry_policy=RetryPolicy(attempts=3, base_delay=0.001),
        )
        entry = registry.get(["Query"])
        ir_path = tmp_path / f"{entry.fingerprint.digest}.ir.json"
        ir_path.mkdir()

        assert entry.program() is not None
        assert registry.metrics.counter("retries") == 2  # attempts - 1
        assert count(registry, IR, "corrupt") == 1
        assert registry.metrics.counter("quarantined") == 1
        # the squatter was moved aside and a real file rebuilt in place
        assert (tmp_path / f"{entry.fingerprint.digest}.ir.json.bad").is_dir()
        assert ir_path.is_file()


class TestConcurrentEviction:
    def test_entry_evicted_while_another_thread_parses_through_it(self):
        """Eviction only drops the registry's reference: a thread
        holding the entry keeps parsing, and re-acquiring the selection
        composes a fresh, equally valid entry."""
        registry = make_registry(capacity=1)
        entry = registry.get(["Query"])
        errors = []
        stop = threading.Event()

        def parse_forever():
            try:
                while not stop.is_set():
                    assert entry.thread_parser().accepts("SELECT a FROM t")
            except Exception as error:  # pragma: no cover - the assertion
                errors.append(error)

        def churn():
            try:
                for _ in range(25):
                    # capacity 1: each get evicts the previous entry
                    registry.get(["Query", "Where"])
                    registry.get(["Query", "GroupBy"])
                    revived = registry.get(["Query"])
                    assert revived.thread_parser().accepts("SELECT a FROM t")
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

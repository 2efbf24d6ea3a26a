"""ParserRegistry: LRU behavior, disk artifacts, single-flight composition,
the selection memo and the completeness gate."""

import asyncio
import itertools
import json
import os
import random
import re
import sys
import threading
import time

import pytest

from repro.core import GrammarProductLine, unit
from repro.core.composer import GrammarComposer
from repro.diagnostics.model import GENERIC_ERROR, PRODUCT_INCOMPLETE
from repro.errors import (
    CircuitOpenError,
    IncompleteProductError,
    InvalidConfigurationError,
    ReproError,
)
from repro.features import FeatureModel, mandatory, optional
from repro.features.constraints import Requires
from repro.lexer import keyword, pattern, standard_skip_tokens
from repro.resilience import BreakerPolicy
from repro.service import (
    AsyncParseService,
    ParserRegistry,
    ParseService,
    product_fingerprint,
)
from repro.service import fingerprint as fingerprint_module
from repro.service import registry as registry_module
from repro.sql import (
    build_dialect,
    build_sql_product_line,
    configure_sql,
    dialect_features,
    dialect_names,
)
from repro.workloads import generate_workload
from repro.service.artifacts import ArtifactMiss

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


def count(registry, kind, event):
    return registry.metrics.counter(f"artifact.{kind}.{event}")


@pytest.mark.parametrize("kind", ["ir"])
class TestDiskCache:
    """Store behaviour: the artifact is written by worker publication
    and read back the way a worker reads it (loading it through the
    entry is covered by TestProgramDiskCache below)."""

    def test_artifact_round_trip_across_registries(self, tmp_path, kind):
        first = make_registry(cache_dir=tmp_path)
        entry = first.get(["Query", "Where"])
        entry.publish_worker_artifacts(tmp_path)
        assert count(first, kind, "build") == 1
        artifact = tmp_path / f"{entry.fingerprint.digest}.{kind}.json"
        assert artifact.exists()

        # a fresh registry (fresh process, in spirit) reuses the artifact
        second = make_registry(cache_dir=tmp_path)
        entry2 = second.get(["Query", "Where"])
        program = second.store.read(entry2.fingerprint.digest)
        assert count(second, kind, "hit") == 1
        assert count(second, kind, "build") == 0
        assert program.to_json() == artifact.read_text()

    def test_tampered_artifact_is_invalidated(self, tmp_path, kind):
        first = make_registry(cache_dir=tmp_path)
        entry = first.get(["Query", "Where"])
        entry.publish_worker_artifacts(tmp_path)
        digest = entry.fingerprint.digest
        artifact = tmp_path / f"{digest}.{kind}.json"

        # corrupt the embedded provenance: stale-file simulation
        text = artifact.read_text()
        assert digest in text
        artifact.write_text(text.replace(digest, "0" * 64, 1))

        second = make_registry(cache_dir=tmp_path)
        entry2 = second.get(["Query", "Where"])
        with pytest.raises(ArtifactMiss) as miss:
            second.store.read(digest)
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
        registry.store.save(digest, entry.program())
        with pytest.raises(ArtifactMiss, match="no cache directory"):
            registry.store.read(digest)
        assert list(tmp_path.iterdir()) == []
        assert count(registry, kind, "miss") == 0

    def test_set_cache_dir_toggles(self, registry, tmp_path, kind):
        registry.set_cache_dir(tmp_path)
        entry = registry.get(["Query"])
        registry.store.save(entry.fingerprint.digest, entry.program())
        assert (tmp_path / f"{entry.fingerprint.digest}.{kind}.json").exists()
        registry.set_cache_dir(None)
        assert registry.cache_dir is None
        assert not registry.store.fresh(entry.fingerprint.digest)


@pytest.mark.parametrize("kind", ["ir"])
class TestArtifactStoreSafety:
    """The I/O safety properties of the one store."""

    def test_missing_file_is_a_plain_miss(self, tmp_path, kind):
        registry = make_registry(cache_dir=tmp_path)
        entry = registry.get(["Query"])
        with pytest.raises(ArtifactMiss, match="missing") as miss:
            registry.store.read(entry.fingerprint.digest)
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
        target = registry.store.path(digest)
        original = type(target).read_text
        failures = []

        def flaky(path, *args, **kwargs):
            if path == target and len(failures) < 2:
                failures.append(path)
                raise OSError("transient")
            return original(path, *args, **kwargs)

        monkeypatch.setattr(type(target), "read_text", flaky)
        registry.store.read(digest)
        assert len(failures) == 2
        assert registry.metrics.counter("retries") == 2
        assert count(registry, kind, "hit") == 1
        assert count(registry, kind, "corrupt") == 0

    def test_publish_is_atomic_and_best_effort(self, tmp_path, kind, monkeypatch):
        registry = make_registry(cache_dir=tmp_path)
        entry = registry.get(["Query"])
        digest = entry.fingerprint.digest
        program = entry.program()
        for path in tmp_path.iterdir():
            path.unlink()

        def refuse(*_args):
            raise OSError("disk full")

        monkeypatch.setattr("repro.service.artifacts.os.replace", refuse)
        registry.store.save(digest, program)  # dropped, never raised
        assert not registry.store.fresh(digest)
        assert registry.metrics.counter("retries") == 2
        # every failed attempt removed its temporary file
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()
        registry.store.save(digest, program)
        # the artifact name only ever holds a complete file
        path = registry.store.path(digest)
        assert path.read_text() == program.to_json()


def test_torn_write_removes_its_temp_file(tmp_path, monkeypatch):
    registry = make_registry(cache_dir=tmp_path)
    entry = registry.get(["Query"])
    program = entry.program()
    for path in tmp_path.iterdir():
        path.unlink()
    write_text = type(tmp_path).write_text

    def torn(path, text, *args, **kwargs):
        write_text(path, text[: len(text) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(type(tmp_path), "write_text", torn)
    registry.store.save(entry.fingerprint.digest, program)
    assert registry.metrics.counter("retries") == 2
    assert list(tmp_path.iterdir()) == []


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
        entry.parser()
        assert list(old.iterdir()) == []
        item = entry.artifact()
        assert item["state"] == "fresh"
        assert item["path"].startswith(str(new))


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
        # the per-thread accessors' old names are aliases, kept because
        # perfbench calls them
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


class TestOneValidation:
    def test_a_cold_compose_validates_once(self, tmp_path, monkeypatch):
        """The registry's completeness check and the program compile read
        one validation report; the clean-room parser is not built."""
        from repro.parsing import parser as parser_module
        from repro.parsing import program as program_module

        # the package re-exports the function under the module's name
        validate_module = sys.modules["repro.grammar.validate"]

        calls = []
        original = validate_module.validate

        def counting(grammar):
            calls.append(grammar.name)
            return original(grammar)

        for module in (validate_module, parser_module, program_module):
            monkeypatch.setattr(module, "validate", counting)
        registry = ParserRegistry(build_sql_product_line(), cache_dir=tmp_path)
        entry = registry.get(dialect_features("core"))
        outcome = entry.compiled_parser().parse_with_diagnostics(
            "SELECT a FROM t"
        )
        assert outcome.tree is not None
        assert len(calls) == 1
        # a renamed copy reads its original's report
        assert entry.product.renamed("other").validation is (
            entry.product.validation
        )


class TestProgramDiskCache:
    """ParseProgram artifacts (`<digest>.ir.json`) round-trip across processes."""

    def test_program_round_trip_across_registries(self, tmp_path):
        first = make_registry(cache_dir=tmp_path)
        entry = first.get(["Query", "Where"])
        program = entry.program()
        assert count(first, "ir", "build") == 1
        assert count(first, "ir", "miss") == 1
        artifact = tmp_path / f"{entry.fingerprint.digest}.ir.json"
        assert artifact.exists()

        # a fresh registry (fresh process, in spirit) reuses the artifact
        second = make_registry(cache_dir=tmp_path)
        entry2 = second.get(["Query", "Where"])
        program2 = entry2.program()
        assert count(second, "ir", "hit") == 1
        assert count(second, "ir", "build") == 0
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
        assert count(second, "ir", "stale") == 1
        assert count(second, "ir", "hit") == 0
        assert count(second, "ir", "build") == 1
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
        assert count(first, "ir", "corrupt") == 1
        assert count(first, "ir", "build") == 1

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
        assert count(registry, "ir", "build") == 1

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
        assert count(second, "ir", "corrupt") == 1
        assert second.metrics.counter("quarantined") == 1
        # the bad bytes are kept aside for post-mortems...
        bad = tmp_path / f"{entry.fingerprint.digest}.ir.json.bad"
        assert bad.exists()
        assert bad.read_text() == text[: len(text) // 2]
        # ...and a valid artifact is rebuilt in the clean slot
        assert entry.fingerprint.digest in artifact.read_text()

    @pytest.mark.parametrize("kind", ["ir"])
    def test_zero_byte_artifacts_are_quarantined_and_rebuilt(
        self, tmp_path, kind
    ):
        registry = make_registry(cache_dir=tmp_path)
        entry = registry.get(["Query"])
        digest = entry.fingerprint.digest
        path = tmp_path / f"{digest}.{kind}.json"
        path.write_text("")

        with pytest.raises(ArtifactMiss, match="corrupt"):
            registry.store.read(digest)
        assert count(registry, kind, "corrupt") == 1
        assert count(registry, kind, "stale") == 0
        assert registry.metrics.counter("quarantined") == 1
        assert path.with_name(path.name + ".bad").read_text() == ""
        # republishing fills the slot with a fresh, valid artifact again
        entry.publish_worker_artifacts(tmp_path)
        assert registry.store.fresh(digest)

    def test_previous_format_version_is_rebuilt_once(self, tmp_path):
        """An ``.ir.json`` of the previous format (version 1, no token
        definitions) is corrupt once: quarantined, rebuilt, and served
        from disk afterwards.  A leftover ``.lex.json`` is never touched."""
        first = make_registry(cache_dir=tmp_path)
        entry = first.get(["Query", "Where"])
        digest = entry.fingerprint.digest
        payload = json.loads(entry.program().to_json())
        del payload["token_defs"]
        payload["version"] = 1
        artifact = tmp_path / f"{digest}.ir.json"
        artifact.write_text(json.dumps(payload))
        leftover = tmp_path / f"{digest}.lex.json"
        leftover.write_text('{"kind": "repro-lexicon"}')

        second = make_registry(cache_dir=tmp_path)
        second.get(["Query", "Where"]).program()
        assert count(second, "ir", "corrupt") == 1
        assert count(second, "ir", "build") == 1
        assert second.metrics.counter("quarantined") == 1
        third = make_registry(cache_dir=tmp_path)
        third.get(["Query", "Where"]).compiled_parser()
        assert count(third, "ir", "hit") == 1
        assert count(third, "ir", "build") == 0
        assert third.metrics.counter("quarantined") == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"{digest}.ir.json", f"{digest}.ir.json.bad", f"{digest}.lex.json",
        ]
        assert leftover.read_text() == '{"kind": "repro-lexicon"}'

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
        assert count(second, "ir", "stale") == 1
        assert count(second, "ir", "corrupt") == 0
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
        assert count(registry, "ir", "corrupt") == 1
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
                    assert entry.parser().accepts("SELECT a FROM t")
            except Exception as error:  # pragma: no cover - the assertion
                errors.append(error)

        def churn():
            try:
                for _ in range(25):
                    # capacity 1: each get evicts the previous entry
                    registry.get(["Query", "Where"])
                    registry.get(["Query", "GroupBy"])
                    revived = registry.get(["Query"])
                    assert revived.parser().accepts("SELECT a FROM t")
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


def every_mini_selection():
    """Query plus each subset of the mini line's optional leaves (16)."""
    leaves = ["SetQuantifier", "MultiColumn", "Where", "GroupBy"]
    return [
        ["Query", *subset]
        for size in range(len(leaves) + 1)
        for subset in itertools.combinations(leaves, size)
    ]


def same_fingerprint(got, want):
    """Digest, expanded selection and normalized counts all agree."""
    return (got.digest, got.selection, dict(got.counts)) == (
        want.digest, want.selection, dict(want.counts)
    )


def memo_size(registry):
    with registry._lock:
        return len(registry._memo)


@pytest.fixture
def resolutions(monkeypatch):
    """Count selection resolutions and configuration fingerprints."""
    calls = []
    resolve = GrammarProductLine.resolve_configuration
    fingerprint = fingerprint_module.configuration_fingerprint

    def counting_resolve(self, *args, **kwargs):
        calls.append("resolve")
        return resolve(self, *args, **kwargs)

    def counting_fingerprint(*args, **kwargs):
        calls.append("fingerprint")
        return fingerprint(*args, **kwargs)

    monkeypatch.setattr(
        GrammarProductLine, "resolve_configuration", counting_resolve
    )
    for module in (fingerprint_module, registry_module):
        monkeypatch.setattr(
            module, "configuration_fingerprint", counting_fingerprint
        )
    return calls


class TestSelectionMemo:
    def test_equivalent_spellings_resolve_once(self, registry, resolutions):
        line = registry.line
        fresh = product_fingerprint(line, ["Query", "GroupBy"])
        expanded = sorted(fresh.selection)
        spellings = [
            ["Query", "GroupBy"],
            ["GroupBy", "Query"],  # reordered
            ["GroupBy", "Query", "GroupBy", "Query"],  # duplicates
            expanded,  # sparse vs expanded: another key, same fingerprint
            expanded[::-1],
            expanded + expanded,
        ]
        resolutions.clear()
        for spelling in spellings:
            for _ in range(2):
                entry, _warm = registry.acquire(spelling)
                assert same_fingerprint(entry.fingerprint, fresh)
                assert same_fingerprint(registry.fingerprint(spelling), fresh)
        # one resolution for the sparse set and one for the expanded set
        assert resolutions == ["resolve", "fingerprint"] * 2
        assert registry.metrics.counter("composes") == 1

    def test_distinct_selections_never_share_a_slot(self, registry):
        line = registry.line
        selections = every_mini_selection()
        for _ in range(2):
            for selection in selections:
                assert same_fingerprint(
                    registry.fingerprint(selection),
                    product_fingerprint(line, selection),
                )
        assert len({registry.fingerprint(s) for s in selections}) > 1

    def test_expand_is_part_of_the_key(self, registry):
        sparse = ["Query", "Where"]
        registry.fingerprint(sparse)
        with pytest.raises(InvalidConfigurationError):
            registry.fingerprint(sparse, expand=False)
        expanded = sorted(registry.fingerprint(sparse).selection)
        assert same_fingerprint(
            registry.fingerprint(expanded, expand=False),
            product_fingerprint(registry.line, expanded, expand=False),
        )

    def test_counts_are_part_of_the_key(self):
        registry = ParserRegistry(build_sql_product_line())
        features = ["QuerySpecification", "SelectSublist"]
        spellings = [
            None, {}, {"SelectSublist": 1}, {"SelectSublist": 2},
            {"SelectSublist": 3},
        ]
        for _ in range(2):
            fingerprints = []
            for counts in spellings:
                fp = registry.fingerprint(features, counts)
                fresh = product_fingerprint(registry.line, features, counts)
                assert same_fingerprint(fp, fresh)
                fingerprints.append(fp)
            none, empty, one, two, three = fingerprints
            # None and {} both mean "every count is 1", as before the memo
            assert none == empty == one
            assert len({one, two, three}) == 3

    @pytest.mark.parametrize(
        "mutate",
        [
            # Where is selected, MultiColumn is not: the constraint
            # pulls it into the expansion
            lambda line: line.model.add_constraint(
                Requires("Where", "MultiColumn")
            ),
            # a mandatory child of a selected feature joins the expansion
            lambda line: line.model.graft("Where", mandatory("WhereDetail")),
            lambda line: setattr(line, "start", "select_list"),
            lambda line: setattr(line, "name", "renamed"),
        ],
        ids=["add_constraint", "graft", "start", "name"],
    )
    def test_a_changed_line_invalidates_the_memo(self, registry, mutate):
        line = registry.line
        selection = ["Query", "Where"]
        old, _warm = registry.acquire(selection)
        assert registry.acquire(selection) == (old, True)
        before = registry.fingerprint(selection)

        mutate(line)

        after = registry.fingerprint(selection)
        assert same_fingerprint(after, product_fingerprint(line, selection))
        assert after != before
        entry, warm = registry.acquire(selection)
        assert not warm
        assert entry.fingerprint == after

    def test_a_resolution_that_raced_a_model_change_is_dropped(
        self, registry, monkeypatch
    ):
        """A resolution that read the old model finishes after another
        caller memoised the new one: it must not overwrite that slot."""
        line = registry.line
        selection = ["Query", "Where"]
        resolve = line.resolve_configuration
        raced = []

        def racing(*args, **kwargs):
            config = resolve(*args, **kwargs)
            if not raced:
                raced.append(True)
                line.model.add_constraint(Requires("Where", "MultiColumn"))
                registry.fingerprint(selection)
            return config

        monkeypatch.setattr(line, "resolve_configuration", racing)
        stale = registry.fingerprint(selection)
        fresh = product_fingerprint(line, selection)
        assert stale != fresh
        assert same_fingerprint(registry.fingerprint(selection), fresh)

    def test_clear_empties_the_memo(self, registry):
        registry.get(["Query", "Where"])
        assert memo_size(registry) == 1
        registry.clear()
        assert memo_size(registry) == 0

    def test_invalid_selection_raises_every_time(self, registry, resolutions):
        for _ in range(3):
            with pytest.raises(InvalidConfigurationError):
                registry.fingerprint(["Query"], expand=False)
            with pytest.raises(InvalidConfigurationError):
                registry.acquire(["Query"], expand=False)
        assert resolutions.count("resolve") == 6
        assert memo_size(registry) == 0
        assert len(registry) == 0

    def test_memo_is_bounded_by_twice_the_capacity(self):
        registry = make_registry(capacity=2)
        line = registry.line
        selections = every_mini_selection()
        assert len(selections) > 2 * registry.capacity
        for selection in selections:
            assert same_fingerprint(
                registry.fingerprint(selection),
                product_fingerprint(line, selection),
            )
            assert memo_size(registry) <= 2 * registry.capacity
        assert memo_size(registry) == 2 * registry.capacity

    def test_warm_requests_resolve_nothing(self, registry, resolutions):
        selection = ["Where", "Query"]
        texts = ["SELECT a FROM t", "SELECT a FROM t WHERE a = b"]

        async def through_async(service):
            async with AsyncParseService(service) as front:
                return await front.parse(texts[0], selection)

        def resolved_on_second_call(call):
            assert call()
            resolutions.clear()
            assert call()
            return list(resolutions)

        with ParseService(registry=registry, max_workers=2) as service:
            assert resolved_on_second_call(
                lambda: service.parse(texts[0], selection).ok
            ) == []
            assert resolved_on_second_call(
                lambda: all(r.ok for r in service.parse_many(texts, selection))
            ) == []
            assert resolved_on_second_call(
                lambda: asyncio.run(through_async(service)).ok
            ) == []

    def test_warm_configure_sql_resolves_nothing(self, resolutions):
        features = dialect_features("scql")
        configure_sql(features)
        build_dialect("scql")
        resolutions.clear()
        assert configure_sql(features).fingerprint is not None
        assert build_dialect("scql").name == "sql-scql"
        assert resolutions == []

    def test_stress_mixed_selections_across_threads(self):
        """More threads than cores, a tiny switch interval and more
        selection spellings than the memo holds: every answer equals a
        fresh resolution and the memo never outgrows its bound."""
        registry = make_registry(capacity=2)
        bound = 2 * registry.capacity
        selections = every_mini_selection()
        fresh = {
            tuple(s): product_fingerprint(registry.line, s) for s in selections
        }
        n = 2 * (os.cpu_count() or 1) + 2
        stop_at = time.monotonic() + 1.5
        errors = []
        calls = [0] * n

        def worker(index):
            rng = random.Random(index)
            try:
                while time.monotonic() < stop_at:
                    selection = rng.choice(selections)
                    spelling = rng.sample(selection, len(selection))
                    if rng.random() < 0.25:
                        got = registry.get(spelling).fingerprint
                    else:
                        got = registry.fingerprint(spelling)
                    assert same_fingerprint(got, fresh[tuple(selection)])
                    assert memo_size(registry) <= bound
                    calls[index] += 1
            except Exception as error:  # pragma: no cover - the assertion
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert all(calls)
        assert memo_size(registry) <= bound


def incomplete_line():
    """A line whose ``Where`` unit needs ``condition`` (defined only by
    the ``Comparison`` unit) and the terminal ``STAR`` (defined by no
    unit): selecting Where without Comparison composes an open grammar."""
    model = FeatureModel(
        mandatory("Query", optional("Where"), optional("Comparison"))
    )
    units = [
        unit(
            "Query",
            """
            grammar query ;
            start q ;
            q : SELECT IDENTIFIER ;
            """,
            tokens=standard_skip_tokens() + [
                keyword("select"),
                pattern("IDENTIFIER", r"[A-Za-z_][A-Za-z0-9_]*", priority=1),
            ],
        ),
        unit(
            "Where",
            "q : SELECT IDENTIFIER (WHERE condition)? STAR? ;",
            tokens=[keyword("where")],
            after=("Query",),
        ),
        unit(
            "Comparison",
            "condition : IDENTIFIER ;",
            after=("Where",),
        ),
    ]
    return GrammarProductLine(model, units, name="open")


class TestIncompleteProducts:
    def test_undefined_symbols_raise_e0305_naming_units(self):
        registry = ParserRegistry(incomplete_line())
        with pytest.raises(IncompleteProductError) as info:
            registry.get(["Query", "Where"])
        error = info.value
        assert error.code == PRODUCT_INCOMPLETE == "E0305"
        assert error.undefined == {"condition": ("Where",), "STAR": ("Where",)}
        assert "'condition' referenced by Where" in str(error)
        assert "'STAR' referenced by Where" in str(error)
        assert error.hints == (
            "select a feature that defines 'condition': 'Comparison'",
            "no feature of the product line defines 'STAR'",
        )
        # never cached: the next request composes and fails again
        assert len(registry) == 0
        with pytest.raises(IncompleteProductError):
            registry.get(["Query", "Where"])
        assert registry.metrics.counter("composes") == 2

    def test_failures_count_toward_the_breaker(self):
        registry = ParserRegistry(
            incomplete_line(), breaker_policy=BreakerPolicy(threshold=2)
        )
        for _ in range(2):
            with pytest.raises(IncompleteProductError):
                registry.get(["Query", "Where"])
        with pytest.raises(CircuitOpenError):
            registry.get(["Query", "Where"])

    def test_check_stays_out_of_direct_composition(self):
        line = incomplete_line()
        product = line.configure(["Query", "Where"])
        assert product.grammar.undefined_nonterminals() == {"condition"}

    def test_other_selections_of_the_line_still_serve(self):
        registry = ParserRegistry(incomplete_line())
        with pytest.raises(IncompleteProductError):
            registry.get(["Query", "Where", "Comparison"])  # STAR still open
        assert registry.get(["Query"]).parser().accepts("SELECT a")

    def test_random_valid_selections_never_answer_e0000(self):
        """Random model leaves put through resolution: each selection is
        valid, but some compose an open grammar.  Those answer E0305
        naming a symbol, not an internal error on every request."""
        line = build_sql_product_line()
        leaves = [feature.name for feature in line.model.leaves()]
        rng = random.Random(1)
        selections = []
        while len(selections) < 60:
            pick = rng.sample(leaves, rng.randint(1, 8))
            try:
                selections.append(line.resolve_configuration(pick).selected)
            except ReproError:
                continue
        with ParseService(registry=ParserRegistry(line, capacity=4)) as service:
            codes = []
            for selection in selections:
                result = service.parse("SELECT a FROM t", selection)
                for diagnostic in result.diagnostics:
                    codes.append(diagnostic.code)
                    if diagnostic.code == PRODUCT_INCOMPLETE:
                        assert re.search(
                            r"'\w+' referenced by \w", diagnostic.message
                        )
            assert service.metrics.counter("internal_errors") == 0
            for dialect in dialect_names():
                query = generate_workload(dialect, 1, seed=1)[0]
                assert service.parse(query, dialect_features(dialect)).ok
        assert GENERIC_ERROR not in codes
        assert PRODUCT_INCOMPLETE in codes

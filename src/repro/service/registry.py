"""Thread-safe parser registry: compose once, serve many.

:class:`ParserRegistry` is the caching heart of the serving layer.  It
maps :class:`~repro.service.fingerprint.Fingerprint` keys to
:class:`RegistryEntry` objects holding the composed
:class:`~repro.core.product_line.ComposedProduct` plus everything needed
to parse with it — the (shared, immutable) scanner, parse program and
closure-compiled code, and the parsers over them.

Four cache layers, cheapest first:

1. **Selection memo**: an LRU from a selection's spelling (feature set,
   clone counts, ``expand``) to its fingerprint, so a warm request
   neither resolves the selection nor hashes its units.  It holds
   ``2 * capacity`` spellings and is valid for one stamp — the line's
   model object and its ``revision``, the line's name and start rule —
   and emptied when the stamp changes.
2. **In-memory LRU** of composed products keyed by fingerprint, with
   per-fingerprint build locks so N concurrent requests for the same
   selection trigger exactly one composition.
3. **Per-entry lazy compilation**: the scanner, the parse program, the
   closure-compiled code (whose rules compile on their own first call),
   the entry's three parsers (interpreting, compiled, clean-room
   fallback) and the state a translate reads (render options, rule
   origins) are built on first use.  A parse
   keeps its state in a per-call object, so every thread shares each
   of them.
4. **On-disk artifact cache** (optional): one
   :class:`~repro.service.artifacts.ArtifactStore`, shared by every
   entry of the registry, persists the parse program with its token
   definitions (``<digest>.ir.json``, from which a process-pool worker
   also bootstraps) under ``cache_dir``.  The file embeds its
   fingerprint; a stale or corrupt artifact is quarantined and rebuilt,
   and a changed selection or sub-grammar changes the digest —
   automatic invalidation.  The closure-compiled code is never
   persisted: it is lowered from the program in memory.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from ..core.product_line import ComposedProduct, GrammarProductLine
from ..resilience.breaker import (
    DEFAULT_BREAKER_POLICY,
    BreakerPolicy,
    CircuitBreaker,
)
from ..resilience.faults import FaultPlan
from ..resilience.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from .artifacts import ArtifactStore
from .fingerprint import Fingerprint, configuration_fingerprint
from .metrics import ServiceMetrics

if TYPE_CHECKING:  # pragma: no cover
    from ..parsing.closures import ClosureParser
    from ..parsing.parser import Parser

#: Default number of composed products kept in memory.
DEFAULT_CAPACITY = 32

#: Defining features an E0305 hint names per undefined symbol.
_HINTED_UNITS = 5


class RegistryEntry:
    """One cached product and its lazily-compiled parser artifacts.

    The scanner, hint provider and parsers are immutable once built and
    shared across threads: a parser keeps each call's state in a
    per-call :class:`~repro.parsing.parser.RunState`, so :meth:`parser`,
    :meth:`compiled_parser` and :meth:`fallback_parser` each build one
    instance, on first use, that every thread calls.  The entry builds
    no grammar analysis or LL table: compiling the program builds the
    analysis it needs, and a program loaded from disk needs none.

    Artifacts go through ``store`` — the registry's shared
    :class:`~repro.service.artifacts.ArtifactStore`, so an entry follows
    the registry's cache directory.  A standalone entry gets a private
    store with no directory (nothing touches the disk).
    """

    def __init__(
        self,
        product: ComposedProduct,
        metrics: ServiceMetrics,
        store: ArtifactStore | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self.product = product
        self.fingerprint: Fingerprint = product.fingerprint
        self._metrics = metrics
        self._faults = faults
        self._store = (
            store if store is not None else ArtifactStore(None, metrics)
        )
        self._lock = threading.RLock()
        self._scanner = None
        self._hint_provider = None
        self._hints_built = False
        self._program = None
        self._coverage_map = None
        self._closure = None
        self._parser = None
        self._compiled_parser = None
        self._fallback_parser = None
        self._render_options = None
        self._rule_origins = None

    # -- shared immutable artifacts ---------------------------------------

    def _once(self, attr: str, build):
        """``self.<attr>``, built by ``build()`` under the entry lock on
        first use.  A build that raises is not cached: the next call
        retries it."""
        value = getattr(self, attr)
        if value is None:
            with self._lock:
                value = getattr(self, attr)
                if value is None:
                    value = build()
                    setattr(self, attr, value)
        return value

    def _shared_scanner(self):
        """The product's scanner, shared by the entry's two parsers."""
        from ..lexer.scanner import Scanner

        return self._once(
            "_scanner", lambda: Scanner(self.product.grammar.tokens)
        )

    def _fault(self, site: str) -> None:
        if self._faults is not None:
            self._faults.check(site)

    def hint_provider(self):
        """The product's feature-hint provider, or ``None`` when degraded.

        Hints are the lowest rung of the degradation ladder: if building
        the provider fails (or a fault is injected at ``hints.build``),
        the entry serves hint-less errors and retries the build on the
        next request rather than caching the failure.
        """
        if not self._hints_built:
            with self._lock:
                if not self._hints_built:
                    try:
                        self._fault("hints.build")
                        self._hint_provider = self.product.hint_provider()
                        self._hints_built = True
                    except Exception:
                        self._metrics.incr("degraded_hints")
                        return None
        return self._hint_provider

    def _hints(self, token, expected=frozenset()):
        """The shared parsers' hint provider: asks :meth:`hint_provider`
        at every error, so a build that failed once is retried."""
        provider = self.hint_provider()
        return () if provider is None else provider(token, expected)

    # -- parse program and closure-compiled code ----------------------------

    def program(self):
        """This product's compiled parse program, shared across threads.

        Loaded from the ``<digest>.ir.json`` artifact when the store has
        a fresh one, compiled from the composed grammar (and published)
        otherwise.
        """
        return self._once("_program", lambda: self._store.obtain(
            self.fingerprint.digest, self._compile_program
        ))

    def _compile_program(self):
        self._fault("program.compile")
        with self._metrics.time("ir_compile"):
            return self.product.program()

    def closure_program(self):
        """The closure-compiled program, shared across threads.

        Lowered in memory from :meth:`program`; its rules compile on
        their first call.
        """

        def build():
            from ..parsing.closures import ClosureProgram

            program = self.program()
            self._fault("closure.compile")
            with self._metrics.time("closure_compile"):
                return ClosureProgram(program)

        return self._once("_closure", build)

    # -- coverage ----------------------------------------------------------

    def coverage_map(self):
        """The instrumentation-point numbering for this entry's program.

        Built once and shared: every collector handed out by
        :meth:`coverage_collector` is keyed to the same map (and so to
        the same program object), which is what makes them mergeable.
        """
        from ..parsing.coverage import CoverageMap

        return self._once("_coverage_map", lambda: CoverageMap(self.program()))

    def coverage_collector(self):
        """A fresh collector over this entry's shared coverage map."""
        return self.coverage_map().collector()

    # -- parsers: one of each, shared by every thread ------------------------

    def parser(self) -> "Parser":
        """The interpreting parser over this entry's compiled tables."""

        def build():
            from ..parsing.parser import Parser

            return Parser(
                self.product.grammar,
                scanner=self._shared_scanner(),
                hint_provider=self._hints,
                program=self.program(),
            )

        return self._once("_parser", build)

    def compiled_parser(self) -> "ClosureParser":
        """The closure-backend parser over this entry's shared closure program."""

        def build():
            from ..parsing.closures import ClosureParser

            return ClosureParser(
                self.product.grammar,
                self.closure_program(),
                scanner=self._shared_scanner(),
                hint_provider=self._hints,
            )

        return self._once("_compiled_parser", build)

    def fallback_parser(self) -> "Parser":
        """The clean-room parser: the degradation backstop.

        Shares *nothing* with the cached artifacts — the grammar is
        re-validated and the parse program re-compiled directly in the
        :class:`~repro.parsing.parser.Parser` constructor — so a corrupt
        shared program, a failing artifact cache, or a broken hint
        provider cannot poison it.  Used by the service when the primary
        backend raises unexpectedly.
        """
        from ..parsing.parser import Parser

        return self._once(
            "_fallback_parser", lambda: Parser(self.product.grammar)
        )

    # -- what a translate reads: one of each, shared by every translate -----

    def render_options(self):
        """The product's render options as a translation target."""

        def build():
            from ..transpile.render import RenderOptions

            return RenderOptions.for_product(self.product)

        return self._once("_render_options", build)

    def rule_origins(self) -> Mapping[str, str]:
        """The product's rule origins, for it as a translation source."""
        return self._once("_rule_origins", self.product.rule_origins)

    # the per-thread accessors' old names, kept because perfbench calls them
    thread_parser = parser

    def thread_compiled_parser(self, cache_dir: Path | None = None):
        return self.compiled_parser()

    # -- worker publication and inventory -----------------------------------

    def publish_worker_artifacts(
        self, cache_dir: str | os.PathLike, force: bool = False
    ) -> None:
        """Ensure the artifact a process-pool worker bootstraps from is fresh.

        Called by the parent before shipping
        :class:`~repro.service.workers.WorkerTask`\\ s: the parse
        program, token definitions included, is written to
        ``cache_dir`` — idempotently, skipped when the file's embedded
        fingerprint already matches — so workers never recompose.
        ``force=True`` rewrites unconditionally; it is the parent's
        answer to a worker-reported corrupt/quarantined artifact (the
        "rebuild request" of the bootstrap protocol).
        """
        store = self._store.at(cache_dir)
        digest = self.fingerprint.digest
        if force or not store.fresh(digest):
            store.save(digest, self.program())

    def artifact(self) -> dict:
        """Inventory of this fingerprint's artifact: its path, size,
        state (``missing``, ``fresh``, ``stale`` or ``corrupt``) and
        whether a quarantined ``.bad`` sibling is lying next to it (see
        :meth:`~repro.service.artifacts.ArtifactStore.inventory`)."""
        return self._store.inventory(self.fingerprint.digest)

    def __repr__(self) -> str:
        return f"<RegistryEntry {self.product.name!r} fp={self.fingerprint.short}>"


class ParserRegistry:
    """LRU cache of composed products with single-flight composition.

    Args:
        line: The product line the registry serves.
        capacity: Maximum products kept in memory (least recently used
            evicted first).
        cache_dir: Optional directory for the on-disk artifact cache
            (every entry shares one store over it); ``None`` disables it.
        lint_gate: Refuse to serve products the :mod:`repro.lint` program
            passes find error-grade defects in (nullable loops, shadowed
            tokens).  The check runs once per composition, inside the
            single-flight build lock, and a rejected product is never
            cached — every request for the selection fails with
            :class:`~repro.errors.LintGateError` (code E0303).
        breaker_policy: Circuit-breaker policy applied per fingerprint:
            after ``threshold`` *consecutive* composition or lint-gate
            failures for one selection the registry stops re-running the
            pipeline and fails fast with
            :class:`~repro.errors.CircuitOpenError` (code E0304) until
            the cooldown elapses.  ``None`` disables breakers.
        retry_policy: Backoff schedule for transient artifact-I/O
            failures on the disk-cache read/write paths.
        fault_plan: Optional deterministic
            :class:`~repro.resilience.faults.FaultPlan` consulted at
            every guarded site (chaos testing); ``None`` (production)
            costs one ``is None`` check per site.
    """

    def __init__(
        self,
        line: GrammarProductLine,
        capacity: int = DEFAULT_CAPACITY,
        cache_dir: str | os.PathLike | None = None,
        lint_gate: bool = False,
        breaker_policy: BreakerPolicy | None = DEFAULT_BREAKER_POLICY,
        retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("registry capacity must be >= 1")
        self.line = line
        self.capacity = capacity
        self.metrics = ServiceMetrics()
        self.lint_gate = lint_gate
        self.breaker_policy = breaker_policy
        self.faults = fault_plan
        self.store = ArtifactStore(
            cache_dir, self.metrics, fault_plan, retry_policy
        )
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, RegistryEntry]" = OrderedDict()
        self._building: dict[str, threading.Lock] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        # selection spelling -> fingerprint, LRU, valid for one stamp
        # (see _selection_key); bounded because a full selection key is
        # tens of kilobytes
        self._memo: "OrderedDict[tuple, Fingerprint]" = OrderedDict()
        self._memo_stamp: tuple | None = None
        self._memo_capacity = 2 * capacity

    # -- lookups -----------------------------------------------------------

    def fingerprint(
        self,
        features: Iterable[str],
        counts: Mapping[str, int] | None = None,
        expand: bool = True,
    ) -> Fingerprint:
        """The cache key a selection resolves to (no composition)."""
        features = frozenset(features)
        key, stamp = self._selection_key(features, counts, expand)
        with self._lock:
            fp = self._remembered(key, stamp)
        if fp is None:
            fp = self._resolve(key, stamp, features, counts, expand)[1]
        return fp

    def get(
        self,
        features: Iterable[str],
        counts: Mapping[str, int] | None = None,
        expand: bool = True,
    ) -> RegistryEntry:
        """The entry for a selection, composing at most once per fingerprint.

        Concurrent callers with the same fingerprint rendezvous on a
        per-fingerprint build lock: the first composes, the rest block
        and then receive the cached entry.
        """
        return self.acquire(features, counts, expand=expand)[0]

    def acquire(
        self,
        features: Iterable[str],
        counts: Mapping[str, int] | None = None,
        expand: bool = True,
    ) -> tuple[RegistryEntry, bool]:
        """Like :meth:`get`, also reporting whether the entry was warm.

        Returns ``(entry, warm)`` where ``warm`` is True when the product
        was already composed (no composition work was done for this call).
        A warm call for a selection spelled as before resolves nothing:
        one lock hold finds its fingerprint in the memo and its entry.
        """
        features = frozenset(features)
        key, stamp = self._selection_key(features, counts, expand)
        with self._lock:
            fp = self._remembered(key, stamp)
            entry = None if fp is None else self._lookup(fp)
        if entry is not None:
            return entry, True
        config = None
        if fp is None:
            config, fp = self._resolve(key, stamp, features, counts, expand)
            entry = self._lookup(fp)
            if entry is not None:
                return entry, True

        with self._lock:
            build_lock = self._building.setdefault(fp.digest, threading.Lock())
        with build_lock:
            entry = self._lookup(fp)  # lost the race: someone composed already
            if entry is not None:
                return entry, True
            breaker = self._breaker(fp.digest)
            if breaker is not None and not breaker.allow():
                from ..errors import CircuitOpenError

                self.metrics.incr("breaker_fast_fails")
                raise CircuitOpenError(
                    f"circuit breaker open for fingerprint {fp.short}: "
                    "composition keeps failing for this selection",
                    fingerprint=fp.digest,
                    retry_after=breaker.retry_after(),
                )
            if config is None:  # the memo knew the key, not the configuration
                config = self.line.resolve_configuration(
                    features, counts, expand=expand
                )
            self.metrics.incr("misses")
            self.metrics.incr("composes")
            try:
                if self.faults is not None:
                    self.faults.check("compose")
                with self.metrics.time("compose"):
                    product = self.line.compose_product(config, fingerprint=fp)
                self._check_complete(product)
                if self.lint_gate:
                    self._check_lint_gate(product)
            except Exception:
                breaker = self._breaker(fp.digest, create=True)
                if breaker is not None and breaker.record_failure():
                    self.metrics.incr("breaker_trips")
                raise
            if breaker is not None:
                breaker.record_success()
            entry = RegistryEntry(
                product, self.metrics, store=self.store, faults=self.faults
            )
            with self._lock:
                self._entries[fp.digest] = entry
                self._entries.move_to_end(fp.digest)
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.metrics.incr("evictions")
                self._building.pop(fp.digest, None)
            return entry, False

    # -- the selection memo -------------------------------------------------

    def _selection_key(self, features, counts, expand) -> tuple[tuple, tuple]:
        """``(key, stamp)`` of one selection spelling.

        The key is the spelling itself; the stamp is everything else
        resolution reads (the line's model and its revision, the line's
        name and start rule — its units are fixed when it is built).
        """
        line = self.line
        counts_key = None if counts is None else tuple(sorted(counts.items()))
        return (
            (features, counts_key, expand),
            (line.model, line.model.revision, line.name, line.start),
        )

    def _remembered(self, key: tuple, stamp: tuple) -> Fingerprint | None:
        """The memoised fingerprint of ``key``; the caller holds the lock.

        The memo holds fingerprints for one stamp only: a changed stamp
        empties it, so a hit is exactly what resolving would return now.
        """
        if stamp != self._memo_stamp:
            self._memo.clear()
            self._memo_stamp = stamp
            return None
        fp = self._memo.get(key)
        if fp is not None:
            self._memo.move_to_end(key)
        return fp

    def _resolve(self, key, stamp, features, counts, expand):
        """Resolve and fingerprint a selection, and memoise the fingerprint.

        An invalid selection raises and memoises nothing.  A result is
        kept only if the stamp it was resolved under is still the memo's,
        so a resolution that raced a model change is never served.
        """
        config = self.line.resolve_configuration(features, counts, expand=expand)
        fp = configuration_fingerprint(self.line, config)
        with self._lock:
            if stamp == self._memo_stamp:
                self._memo[key] = fp
                self._memo.move_to_end(key)
                while len(self._memo) > self._memo_capacity:
                    self._memo.popitem(last=False)
        return config, fp

    # -- composition gates ---------------------------------------------------

    def _check_complete(self, product: ComposedProduct) -> None:
        """Reject a product whose grammar references undefined symbols.

        Every parse over such a grammar would fail, so the selection is
        refused once, at composition, instead of on every request.
        """
        from ..errors import IncompleteProductError

        report = product.validation
        missing = report.undefined_nonterminals + report.undefined_terminals
        if not missing:
            return
        references = {
            name: _referenced(self.line.unit_for(name))
            for name in product.sequence
        }
        undefined = {
            symbol: tuple(
                name for name, symbols in references.items() if symbol in symbols
            )
            for symbol in missing
        }
        hints = []
        for symbol in missing:
            defining = [
                f"'{u.feature}'" for u in self.line.units()
                if symbol in _defined(u)
            ]
            if not defining:
                hints.append(f"no feature of the product line defines '{symbol}'")
                continue
            hint = f"select a feature that defines '{symbol}': " + ", ".join(
                defining[:_HINTED_UNITS]
            )
            if len(defining) > _HINTED_UNITS:
                hint += f" (or one of {len(defining) - _HINTED_UNITS} more)"
            hints.append(hint)
        details = "; ".join(
            f"'{symbol}' referenced by {', '.join(units) or 'no selected unit'}"
            for symbol, units in undefined.items()
        )
        raise IncompleteProductError(
            f"product {product.name!r} is incomplete: {len(missing)} "
            f"undefined symbol(s) — {details}",
            undefined=undefined,
            hints=tuple(hints),
        )

    def _check_lint_gate(self, product: ComposedProduct) -> None:
        """Reject a freshly composed product with error-grade lint findings."""
        from ..diagnostics.model import Severity
        from ..errors import LintGateError
        from ..lint.analyzer import analyze_product

        self.metrics.incr("lint_checks")
        with self.metrics.time("lint"):
            target = analyze_product(product)
        errors = [
            f for f in target.findings if f.graded is Severity.ERROR
        ]
        if errors:
            self.metrics.incr("lint_rejections")
            details = "; ".join(f.format() for f in errors[:5])
            raise LintGateError(
                f"product {product.name!r} rejected by the lint gate: "
                f"{len(errors)} error-grade finding(s) — {details}",
                findings=tuple(errors),
            )

    def _breaker(
        self, digest: str, create: bool = False
    ) -> CircuitBreaker | None:
        """The digest's breaker; created lazily on the failure path only,
        so the happy path allocates nothing per fingerprint."""
        if self.breaker_policy is None:
            return None
        with self._lock:
            breaker = self._breakers.get(digest)
            if breaker is None and create:
                breaker = CircuitBreaker(self.breaker_policy)
                self._breakers[digest] = breaker
            return breaker

    def breaker_snapshot(self) -> dict[str, dict]:
        """State of every fingerprint breaker that has seen a failure."""
        with self._lock:
            return {
                digest: breaker.snapshot()
                for digest, breaker in self._breakers.items()
            }

    def _lookup(self, fp: Fingerprint) -> RegistryEntry | None:
        with self._lock:
            entry = self._entries.get(fp.digest)
            if entry is not None:
                self._entries.move_to_end(fp.digest)
                self.metrics.incr("hits")
            return entry

    def peek(self, fp: Fingerprint) -> RegistryEntry | None:
        """The cached entry, if any, without recording a hit or reordering."""
        with self._lock:
            return self._entries.get(fp.digest)

    # -- maintenance --------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fp: Fingerprint) -> bool:
        with self._lock:
            return fp.digest in self._entries

    def evict(self, fp: Fingerprint) -> bool:
        """Drop one entry (e.g. after editing a unit in a REPL session)."""
        with self._lock:
            if self._entries.pop(fp.digest, None) is not None:
                self.metrics.incr("evictions")
                return True
            return False

    def clear(self) -> None:
        with self._lock:
            self.metrics.incr("evictions", len(self._entries))
            self._entries.clear()
            self._memo.clear()

    @property
    def cache_dir(self) -> Path | None:
        """The artifact store's directory (``None``: disk cache off)."""
        return self.store.directory

    def set_cache_dir(self, cache_dir: str | os.PathLike | None) -> None:
        """Enable/disable the on-disk artifact cache (e.g. CLI ``--cache``).

        Every entry shares the registry's store, so entries composed
        earlier follow the new directory too.
        """
        self.store.directory = Path(cache_dir) if cache_dir is not None else None

    def __repr__(self) -> str:
        return (
            f"<ParserRegistry {self.line.name!r}: {len(self)}/{self.capacity} "
            f"entries, disk={'on' if self.cache_dir else 'off'}>"
        )


def _defined(unit) -> frozenset[str]:
    """The rule and token names a unit's sub-grammar defines."""
    if unit.grammar is None:
        return frozenset()
    return frozenset(unit.grammar.rule_names()) | unit.grammar.tokens.names()


def _referenced(unit) -> frozenset[str]:
    """The nonterminals and terminals a unit's sub-grammar references."""
    if unit.grammar is None:
        return frozenset()
    grammar = unit.grammar
    return grammar.referenced_nonterminals() | grammar.referenced_terminals()

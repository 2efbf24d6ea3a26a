"""The on-disk artifact store shared by registry entries and workers.

A composed product persists two artifact kinds under a cache
directory, each named ``<digest><suffix>`` and each embedding the
fingerprint it was built for:

* ``ir`` (``.ir.json``) — the compiled parse program, which the
  compiled backend is lowered from in memory;
* ``lex`` (``.lex.json``) — token definitions + start rule, so a
  process-pool worker can build a scanner without the composed grammar.

:data:`KINDS` describes each kind declaratively (suffix, fingerprint
peek, encode, decode), and :class:`ArtifactStore` is the one code path
that touches the files: a retried read where ``FileNotFoundError`` is
a plain miss, a fingerprint check that keeps *stale* (another digest)
apart from *corrupt* (no digest, or undecodable), a ``.bad``
quarantine, an atomic best-effort publish, a freshness check, and an
inventory.  Every outcome lands in an ``artifact.<kind>.<event>``
counter (:data:`EVENTS`).
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from ..lexer.spec import TokenDef, TokenSet
from ..parsing.program import ParseProgram, program_fingerprint
from ..resilience.faults import FaultPlan
from ..resilience.retry import DEFAULT_RETRY_POLICY, RetryPolicy, retry_call

if TYPE_CHECKING:  # pragma: no cover
    from .metrics import ServiceMetrics

#: Suffix appended to a quarantined (corrupt or stale) artifact.
QUARANTINE_SUFFIX = ".bad"

#: Version tag embedded in the lexicon artifact.
LEXICON_VERSION = 1


# -- the lexicon artifact ----------------------------------------------------


@dataclass(frozen=True)
class Lexicon:
    """What a worker needs besides the IR: token definitions + start rule."""

    fingerprint: str
    grammar: str
    start: str | None
    tokens: Any


def render_lexicon(lexicon: Lexicon) -> str:
    """Serialize a lexicon as the ``<digest>.lex.json`` artifact text."""
    payload = {
        "kind": "repro-lexicon",
        "version": LEXICON_VERSION,
        "fingerprint": lexicon.fingerprint,
        "grammar": lexicon.grammar,
        "start": lexicon.start,
        "tokens": [
            {
                "name": d.name,
                "pattern": d.pattern,
                "kind": d.kind,
                "priority": d.priority,
                "skip": d.skip,
            }
            for d in lexicon.tokens
        ],
    }
    return json.dumps(payload, indent=None, sort_keys=True)


def lexicon_fingerprint(text: str) -> str | None:
    """The fingerprint embedded in a lexicon artifact (None when unreadable)."""
    try:
        payload = json.loads(text)
    except ValueError:
        return None
    if not isinstance(payload, dict) or payload.get("kind") != "repro-lexicon":
        return None
    digest = payload.get("fingerprint")
    return digest if isinstance(digest, str) else None


def load_lexicon(text: str) -> Lexicon:
    """Rebuild a :class:`Lexicon` from artifact text."""
    payload = json.loads(text)
    if payload.get("version") != LEXICON_VERSION:
        raise ValueError(
            f"unsupported lexicon artifact version {payload.get('version')!r}"
        )
    tokens = TokenSet(name=payload.get("grammar") or "")
    for entry in payload["tokens"]:
        tokens.add(
            TokenDef(
                name=entry["name"],
                pattern=entry["pattern"],
                kind=entry["kind"],
                priority=entry["priority"],
                skip=entry["skip"],
            )
        )
    return Lexicon(
        payload["fingerprint"],
        payload.get("grammar") or "",
        payload.get("start"),
        tokens,
    )


# -- the kind table ----------------------------------------------------------


@dataclass(frozen=True)
class ArtifactKind:
    """One persisted artifact kind.

    ``peek`` reads the embedded fingerprint without a full decode
    (``None`` when the text carries none); ``encode`` turns the
    in-memory value into file text; ``decode`` rebuilds the value from
    the text and raises on a bad artifact.
    """

    name: str
    suffix: str
    peek: Callable[[str], str | None]
    encode: Callable[[Any], str]
    decode: Callable[[str], Any]


IR = ArtifactKind(
    "ir", ".ir.json", program_fingerprint,
    lambda program: program.to_json(),
    ParseProgram.from_json,
)
LEX = ArtifactKind(
    "lex", ".lex.json", lexicon_fingerprint, render_lexicon, load_lexicon
)

#: Every artifact kind, in inventory order.
KINDS: tuple[ArtifactKind, ...] = (IR, LEX)

#: Per-kind counter events: served from disk, not served from disk (any
#: reason), found with another digest, found unreadable/undecodable, and
#: built from the grammar instead.
EVENTS = ("hit", "miss", "stale", "corrupt", "build")


class ArtifactMiss(Exception):
    """No usable artifact: why, and which paths were quarantined."""

    def __init__(self, reason: str, quarantined: tuple[str, ...] = ()) -> None:
        super().__init__(reason)
        self.quarantined = quarantined


# -- the store ---------------------------------------------------------------


class ArtifactStore:
    """Reads, validates, quarantines and publishes artifacts of every kind.

    Args:
        directory: Where artifacts live; ``None`` disables the disk
            (reads miss silently, writes are skipped).  Mutable, so the
            entries sharing a registry's store follow its directory.
        metrics: Sink for ``artifact.<kind>.<event>``, ``retries`` and
            ``quarantined``.
        faults: Optional fault plan checked at ``artifact.read.<kind>``
            and ``artifact.write.<kind>``.
        retry_policy: Backoff for transient I/O errors on both paths.
    """

    def __init__(
        self,
        directory: str | os.PathLike | None,
        metrics: ServiceMetrics,
        faults: FaultPlan | None = None,
        retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
    ) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.metrics = metrics
        self.faults = faults
        self.retry_policy = retry_policy

    def at(self, directory: str | os.PathLike) -> "ArtifactStore":
        """This store, or a sibling with the same sinks at ``directory``."""
        if Path(directory) == self.directory:
            return self
        return ArtifactStore(
            directory, self.metrics, self.faults, self.retry_policy
        )

    def path(self, kind: ArtifactKind, digest: str) -> Path | None:
        if self.directory is None:
            return None
        return self.directory / f"{digest}{kind.suffix}"

    def count(self, kind: ArtifactKind, event: str) -> None:
        self.metrics.incr(f"artifact.{kind.name}.{event}")

    # -- reading -------------------------------------------------------------

    def read(self, kind: ArtifactKind, digest: str) -> Any:
        """The decoded artifact, or :class:`ArtifactMiss` saying why not.

        A missing file is a plain miss.  An unreadable file (after
        retries), a foreign digest (stale) or a missing digest or failed
        decode (corrupt) is counted and quarantined before the miss is
        raised.
        """
        path = self.path(kind, digest)
        if path is None:
            raise ArtifactMiss(f"{kind.name} artifact: no cache directory")

        def attempt() -> str:
            self._check(f"artifact.read.{kind.name}")
            return path.read_text()

        try:
            text = self._retry(attempt)
        except FileNotFoundError:
            self.count(kind, "miss")
            raise ArtifactMiss(f"{kind.name} artifact missing: {path}") from None
        except Exception as error:
            raise self._reject(
                kind, path, "corrupt", f"unreadable ({error})"
            ) from None
        embedded = kind.peek(text)
        if embedded != digest:
            raise self._reject(
                kind, path,
                "corrupt" if embedded is None else "stale",
                f"embedded fingerprint {embedded!r}",
            )
        try:
            value = kind.decode(text)
        except Exception as error:
            raise self._reject(
                kind, path, "corrupt", f"does not decode ({error})"
            ) from None
        self.count(kind, "hit")
        return value

    def obtain(
        self, kind: ArtifactKind, digest: str, build: Callable[[], Any]
    ) -> Any:
        """Load the artifact, or build it and publish the result."""
        try:
            return self.read(kind, digest)
        except ArtifactMiss:
            pass
        self.count(kind, "build")
        value = build()
        self.save(kind, digest, value)
        return value

    def _reject(
        self, kind: ArtifactKind, path: Path, event: str, detail: str
    ) -> ArtifactMiss:
        self.count(kind, "miss")
        self.count(kind, event)
        quarantined = (str(path),) if self._quarantine(path) else ()
        return ArtifactMiss(
            f"{kind.name} artifact {event}: {detail}", quarantined
        )

    def _quarantine(self, path: Path) -> bool:
        """Move a bad artifact aside so the rebuild starts from a clean slot.

        The ``.bad`` file is kept for post-mortems instead of deleted.
        Best-effort: a failed rename never blocks the rebuild (the fresh
        artifact overwrites in place).
        """
        try:
            os.replace(path, path.with_name(path.name + QUARANTINE_SUFFIX))
        except OSError:
            return False
        self.metrics.incr("quarantined")
        return True

    # -- writing -------------------------------------------------------------

    def save(self, kind: ArtifactKind, digest: str, value: Any) -> None:
        """Publish atomically (tmp + ``os.replace``); never raises.

        The artifact cache is an optimization: a write that still fails
        after retries is dropped, and readers never see a partial file.
        """
        path = self.path(kind, digest)
        if path is None:
            return
        text = kind.encode(value)

        def attempt() -> None:
            self._check(f"artifact.write.{kind.name}")
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
            tmp.write_text(text)
            os.replace(tmp, path)

        try:
            self._retry(attempt)
        except Exception:
            pass

    # -- inspection ----------------------------------------------------------

    def fresh(self, kind: ArtifactKind, digest: str) -> bool:
        """Does the slot hold an artifact embedding ``digest``?"""
        path = self.path(kind, digest)
        if path is None:
            return False
        try:
            return kind.peek(path.read_text()) == digest
        except OSError:
            return False

    def inventory(self, digest: str) -> list[dict]:
        """One dict per kind: path, existence, size, staleness, quarantine.

        With no directory the listing still names every kind (``path``
        is None) so callers can render a uniform table.
        """
        listing = []
        for kind in KINDS:
            info: dict = {
                "kind": kind.name,
                "path": None,
                "exists": False,
                "size": 0,
                "stale": False,
                "quarantined": False,
            }
            path = self.path(kind, digest)
            if path is not None:
                info["path"] = str(path)
                info["quarantined"] = path.with_name(
                    path.name + QUARANTINE_SUFFIX
                ).exists()
                try:
                    text = path.read_text()
                except OSError:
                    pass
                else:
                    info["exists"] = True
                    info["size"] = len(text.encode())
                    info["stale"] = kind.peek(text) != digest
            listing.append(info)
        return listing

    # -- internals -----------------------------------------------------------

    def _check(self, site: str) -> None:
        if self.faults is not None:
            self.faults.check(site)

    def _retry(self, fn: Callable[[], Any]) -> Any:
        return retry_call(
            fn,
            self.retry_policy,
            on_retry=lambda _attempt, _error: self.metrics.incr("retries"),
        )

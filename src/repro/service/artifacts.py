"""The on-disk artifact store shared by registry entries and workers.

A composed product persists one artifact under a cache directory,
``<digest>.ir.json``: its compiled parse program together with the
token definitions a scanner is built from
(:meth:`~repro.parsing.program.ParseProgram.to_json`).  The file embeds
the fingerprint it was built for, and the compiled backend is lowered
from the loaded program in memory.

:class:`ArtifactStore` is the one code path that touches the files: a
retried read where ``FileNotFoundError`` is a plain miss, a fingerprint
check that keeps *stale* (another digest) apart from *corrupt* (no
digest, or undecodable), a ``.bad`` quarantine, an atomic best-effort
publish, a freshness check, and an inventory.  Every outcome lands in
an ``artifact.ir.<event>`` counter (:data:`EVENTS`).
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from ..parsing.program import ParseProgram, program_fingerprint
from ..resilience.faults import FaultPlan
from ..resilience.retry import DEFAULT_RETRY_POLICY, RetryPolicy, retry_call

if TYPE_CHECKING:  # pragma: no cover
    from .metrics import ServiceMetrics

#: Suffix appended to a quarantined (corrupt or stale) artifact.
QUARANTINE_SUFFIX = ".bad"

#: Counter events: served from disk, not served from disk (any reason),
#: found with another digest, found unreadable/undecodable, and built
#: from the grammar instead.
EVENTS = ("hit", "miss", "stale", "corrupt", "build")


class ArtifactMiss(Exception):
    """No usable artifact: why, and which paths were quarantined."""

    def __init__(self, reason: str, quarantined: tuple[str, ...] = ()) -> None:
        super().__init__(reason)
        self.quarantined = quarantined


# -- the store ---------------------------------------------------------------


class ArtifactStore:
    """Reads, validates, quarantines and publishes parse-program artifacts.

    Args:
        directory: Where artifacts live; ``None`` disables the disk
            (reads miss silently, writes are skipped).  Mutable, so the
            entries sharing a registry's store follow its directory.
        metrics: Sink for ``artifact.ir.<event>``, ``retries`` and
            ``quarantined``.
        faults: Optional fault plan checked at ``artifact.read.ir`` and
            ``artifact.write.ir``.
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

    def path(self, digest: str) -> Path | None:
        if self.directory is None:
            return None
        return self.directory / f"{digest}.ir.json"

    def count(self, event: str) -> None:
        self.metrics.incr(f"artifact.ir.{event}")

    # -- reading -------------------------------------------------------------

    def read(self, digest: str) -> ParseProgram:
        """The decoded program, or :class:`ArtifactMiss` saying why not.

        A missing file is a plain miss.  An unreadable file (after
        retries), a failed decode or a missing digest (corrupt) or a
        foreign digest (stale) is counted and quarantined before the
        miss is raised.  The text is decoded once: a file that fails
        to decode is corrupt whatever digest it embeds.
        """
        path = self.path(digest)
        if path is None:
            raise ArtifactMiss("ir artifact: no cache directory")

        def attempt() -> str:
            self._check("artifact.read.ir")
            return path.read_text()

        try:
            text = self._retry(attempt)
        except FileNotFoundError:
            self.count("miss")
            raise ArtifactMiss(f"ir artifact missing: {path}") from None
        except Exception as error:
            raise self._reject(path, "corrupt", f"unreadable ({error})") from None
        try:
            program = ParseProgram.from_json(text)
        except Exception as error:
            raise self._reject(
                path, "corrupt", f"does not decode ({error})"
            ) from None
        embedded = program.fingerprint
        if embedded != digest:
            raise self._reject(
                path,
                "stale" if isinstance(embedded, str) else "corrupt",
                f"embedded fingerprint {embedded!r}",
            )
        self.count("hit")
        return program

    def obtain(
        self, digest: str, build: Callable[[], ParseProgram]
    ) -> ParseProgram:
        """Load the program, or build it and publish the result."""
        try:
            return self.read(digest)
        except ArtifactMiss:
            pass
        self.count("build")
        program = build()
        self.save(digest, program)
        return program

    def _reject(self, path: Path, event: str, detail: str) -> ArtifactMiss:
        self.count("miss")
        self.count(event)
        quarantined = (str(path),) if self._quarantine(path) else ()
        return ArtifactMiss(f"ir artifact {event}: {detail}", quarantined)

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

    def save(self, digest: str, program: ParseProgram) -> None:
        """Publish atomically (tmp + ``os.replace``); never raises.

        The artifact cache is an optimization: a write that still fails
        after retries is dropped, and readers never see a partial file.
        An attempt that fails removes its temporary file.
        """
        path = self.path(digest)
        if path is None:
            return
        text = program.to_json()

        def attempt() -> None:
            self._check("artifact.write.ir")
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
            try:
                tmp.write_text(text)
                os.replace(tmp, path)
            except BaseException:
                tmp.unlink(missing_ok=True)
                raise

        try:
            self._retry(attempt)
        except Exception:
            pass

    # -- inspection ----------------------------------------------------------

    def fresh(self, digest: str) -> bool:
        """Does the slot hold an artifact embedding ``digest``?"""
        path = self.path(digest)
        if path is None:
            return False
        try:
            return program_fingerprint(path.read_text()) == digest
        except OSError:
            return False

    def inventory(self, digest: str) -> dict:
        """The artifact's path, size, state and quarantine flag.

        ``state`` is ``"missing"``, ``"fresh"``, ``"stale"`` (it embeds
        another digest) or ``"corrupt"`` (no readable digest: the file
        is unreadable, not a parse program, or of another format
        version).  With no directory, ``path`` is None and the state is
        ``"missing"``.
        """
        info: dict = {
            "path": None,
            "size": 0,
            "state": "missing",
            "quarantined": False,
        }
        path = self.path(digest)
        if path is None:
            return info
        info["path"] = str(path)
        info["quarantined"] = path.with_name(
            path.name + QUARANTINE_SUFFIX
        ).exists()
        try:
            text = path.read_text()
        except FileNotFoundError:
            return info
        except OSError:
            info["state"] = "corrupt"
            return info
        embedded = program_fingerprint(text)
        info["size"] = len(text.encode())
        info["state"] = (
            "fresh" if embedded == digest
            else "corrupt" if embedded is None
            else "stale"
        )
        return info

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

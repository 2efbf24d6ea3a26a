"""Asyncio front-end for the parse service: coalescing + backpressure.

:class:`AsyncParseService` wraps a (sync) :class:`ParseService` for
event-loop callers — the shape SpecDB motivates: a thin, stateless
front-end over a shared compose-once core.  It adds exactly three
things; everything else (degradation ladder, executor choice, metrics)
is the wrapped service's:

* **request coalescing** — concurrent requests for the *same work*
  (identical fingerprint, text, start rule, and limits) share one
  underlying parse and all await its result.  The key uses
  :meth:`~repro.service.registry.ParserRegistry.fingerprint`, which
  resolves a selection to its cache key *without composing*, so
  coalescing a cold dialect never composes it twice either.  Awaiters
  are shielded: one caller cancelling does not cancel the shared parse.
* **bounded-queue backpressure** — at most ``max_pending`` requests may
  be admitted (pending + executing); excess requests are shed
  immediately with the same ``E0204`` result the sync service uses.
* **deadline propagation** — a request's deadline starts at *admission*,
  so time spent queued behind the dispatch pool counts against it; the
  remaining budget (not the original timeout) is what reaches the
  parser, and a request whose deadline expired while queued returns a
  timed-out result without parsing at all.

The dispatch pool is a small thread pool; with the wrapped service on
``executor="process"`` the event loop stays responsive while batches
scale across cores.
"""

from __future__ import annotations

import asyncio
import functools
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, Mapping, Sequence

from ..resilience.deadline import Deadline
from .service import (
    ParseService,
    ParseServiceResult,
    _count_timeout,
    _timeout_result,
)


class AsyncParseService:
    """Event-loop face of a :class:`ParseService`.

    Args:
        service: The sync service to wrap.  ``None`` builds one from
            ``**service_kwargs`` (and owns it: :meth:`close` closes it).
        max_pending: Admission bound across pending + executing requests;
            defaults to the wrapped service's ``max_queue``.
    """

    def __init__(
        self,
        service: ParseService | None = None,
        *,
        max_pending: int | None = None,
        **service_kwargs,
    ) -> None:
        self._service = (
            service if service is not None else ParseService(**service_kwargs)
        )
        self._owns_service = service is None
        self.max_pending = (
            max_pending if max_pending is not None else self._service.max_queue
        )
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.metrics = self._service.metrics
        self._pending: dict[tuple, asyncio.Task] = {}
        self._admitted = 0
        self._dispatch = ThreadPoolExecutor(
            max_workers=max(2, self._service.max_workers),
            thread_name_prefix="repro-async",
        )
        self._closed = False

    @property
    def service(self) -> ParseService:
        return self._service

    @property
    def pending(self) -> int:
        """Requests admitted and not yet completed."""
        return self._admitted

    # -- requests -----------------------------------------------------------

    async def parse(
        self,
        text: str,
        features: Iterable[str],
        counts: Mapping[str, int] | None = None,
        start: str | None = None,
        max_errors: int | None = 25,
        max_steps: int | None = None,
        timeout: float | None = None,
    ) -> ParseServiceResult:
        """Parse one text; identical in-flight requests share one parse.

        Never raises on bad input — the result discipline is the sync
        service's.  An over-capacity request returns an ``E0204`` shed
        result; a request whose deadline expires while queued returns a
        ``timed_out`` result.
        """
        if self._closed:
            raise RuntimeError("AsyncParseService is closed")
        self.metrics.incr("async_parses")
        features = tuple(features)
        key = self._coalesce_key(
            text, features, counts, start, max_errors, max_steps
        )
        shared = self._pending.get(key) if key is not None else None
        if shared is not None and not shared.done():
            self.metrics.incr("coalesced")
            # shield: cancelling this awaiter must not cancel the
            # parse the other awaiters share
            return await asyncio.shield(shared)
        if self._admitted >= self.max_pending:
            self.metrics.incr("shed")
            return self._service._shed_result(text)
        self._admitted += 1
        self.metrics.observe_depth("async", self._admitted)
        deadline = Deadline.after(timeout) if timeout is not None else None
        task = asyncio.get_running_loop().create_task(
            self._execute(
                text, features, counts, start, max_errors, max_steps,
                timeout, deadline,
            )
        )
        if key is not None:
            self._pending[key] = task
        task.add_done_callback(functools.partial(self._settle, key))
        return await asyncio.shield(task)

    async def parse_many(
        self,
        texts: Sequence[str],
        features: Iterable[str],
        counts: Mapping[str, int] | None = None,
        start: str | None = None,
        max_errors: int | None = 25,
        max_steps: int | None = None,
        timeout: float | None = None,
    ) -> list[ParseServiceResult]:
        """Concurrent :meth:`parse` per text; results in input order.

        Duplicate texts in one batch coalesce onto a single parse, the
        same as duplicate concurrent callers.
        """
        features = tuple(features)
        return list(
            await asyncio.gather(
                *(
                    self.parse(
                        text, features, counts, start=start,
                        max_errors=max_errors, max_steps=max_steps,
                        timeout=timeout,
                    )
                    for text in texts
                )
            )
        )

    # -- lifecycle ----------------------------------------------------------

    async def close(self) -> None:
        """Await in-flight work, then shut down (idempotent).

        Closes the wrapped service only when this front-end built it.
        """
        self._closed = True
        if self._pending:
            await asyncio.gather(
                *list(self._pending.values()), return_exceptions=True
            )
        self._dispatch.shutdown(wait=True, cancel_futures=True)
        if self._owns_service:
            self._service.close()

    async def __aenter__(self) -> "AsyncParseService":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- internals ----------------------------------------------------------

    def _coalesce_key(
        self, text, features, counts, start, max_errors, max_steps
    ) -> tuple | None:
        """The identity of one unit of work, or ``None`` when unkeyable.

        Fingerprint resolution canonicalizes the selection (order,
        expansion), so ``["Where", "Query"]`` and ``["Query", "Where"]``
        coalesce.  It runs on the event-loop thread, which is affordable
        because a spelling seen before is a registry memo hit, not a
        resolution.  An invalid selection returns ``None`` — the parse
        still runs (and fails with its usual diagnostic result).
        """
        try:
            fp = self._service.registry.fingerprint(features, counts)
        except Exception:
            return None
        return (fp.digest, text, start, max_errors, max_steps)

    async def _execute(
        self, text, features, counts, start, max_errors, max_steps,
        timeout, deadline,
    ) -> ParseServiceResult:
        # the deadline budget that reaches the parser is what is LEFT,
        # so queueing ahead of dispatch counts against the request
        remaining = None
        if deadline is not None:
            remaining = deadline.remaining()
            if remaining <= 0.0:
                _count_timeout(self.metrics, timeout)
                return _timeout_result(text, None, timeout, False)
        return await asyncio.get_running_loop().run_in_executor(
            self._dispatch,
            functools.partial(
                self._service.parse,
                text, features, counts,
                start=start, max_errors=max_errors, max_steps=max_steps,
                timeout=remaining,
            ),
        )

    def _settle(self, key, task) -> None:
        self._admitted = max(0, self._admitted - 1)
        if key is not None and self._pending.get(key) is task:
            del self._pending[key]

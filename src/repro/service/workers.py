"""Process-pool workers: bootstrap parsers from on-disk artifacts.

The GIL caps a thread pool's batch throughput at roughly one core, so
:class:`~repro.service.service.ParseService` can fan batches out over a
``ProcessPoolExecutor`` instead.  The parent/worker protocol keeps the
pipe thin and the workers stateless:

* the **parent** composes (at most once, via the registry), publishes
  the two artifacts a worker needs under the cache directory —
  ``<digest>.ir.json`` (the parse program, which the worker lowers to
  the compiled backend) and ``<digest>.lex.json`` (the lexicon, so
  workers can build a scanner) — and ships only a :class:`WorkerTask`
  (fingerprint digest + texts) across the pipe.  **No grammar
  composition ever happens in a worker.**
* each **worker** keeps a small per-process cache of bootstrapped
  parsers keyed by digest; a miss reads the artifacts through the same
  :class:`~repro.service.artifacts.ArtifactStore` the registry uses.  A
  missing, stale or corrupt artifact comes back as a *bootstrap
  failure* reply listing what was quarantined (renamed ``.bad``) —
  never an exception — so the pool cannot deadlock and the parent can
  republish from its in-memory entry and retry.
* replies (:class:`WorkerReply`) carry the parse tree + diagnostics,
  which pickle cleanly; monotonic deadlines do **not** cross processes,
  so tasks carry *remaining seconds* and the worker rebuilds an absolute
  :class:`~repro.resilience.deadline.Deadline` on arrival.

Worker parsers serve hint-less diagnostics: "enable feature X" hints
need the composed product, which deliberately never crosses the pipe.
Trees, error codes, and positions are identical to the in-parent paths.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .artifacts import IR, LEX, ArtifactMiss, ArtifactStore
from .metrics import ServiceMetrics

#: Parsers cached per worker process (small: workers are many).
WORKER_CACHE_CAPACITY = 8


# -- task / reply envelopes --------------------------------------------------


@dataclass(frozen=True)
class WorkerTask:
    """One parse request shipped to a worker process.

    Everything here pickles in a few hundred bytes: the artifacts stay
    on disk, keyed by ``digest``.  ``deadline_remaining`` is relative
    seconds (monotonic clocks are per-process).
    """

    digest: str
    cache_dir: str
    #: Always ``"compiled"``; any other value gets a bootstrap failure.
    backend: str
    text: str
    start: str | None = None
    max_errors: int | None = 25
    max_steps: int | None = None
    deadline_remaining: float | None = None
    #: Chunked batches: several texts amortize one pipe round-trip (and
    #: one bootstrap check) — essential when parses are microseconds and
    #: IPC is not.  When set, ``text`` is ignored by
    #: :func:`execute_batch`.
    texts: tuple[str, ...] = ()


@dataclass
class WorkerReply:
    """Outcome of one :class:`WorkerTask` — always returned, never raised.

    Attributes:
        tree / diagnostics: The parse outcome (``None`` on failure).
        seconds: Worker-side parse time (bootstrap excluded).
        bootstrapped: True when this task built a fresh parser in the
            worker (first request for the fingerprint in this process).
        bootstrap_failed: True when the artifacts could not be loaded;
            ``error`` says why and ``quarantined`` lists artifacts the
            worker renamed aside.  The parent republishes and retries.
        internal_error: True when the parse itself raised unexpectedly
            (the parent degrades to an in-process parse).
    """

    tree: Any = None
    diagnostics: Any = None
    seconds: float = 0.0
    bootstrapped: bool = False
    bootstrap_failed: bool = False
    internal_error: bool = False
    error: str | None = None
    quarantined: tuple[str, ...] = field(default_factory=tuple)


# -- minimal grammar surface for artifact-built parsers ----------------------


class _ArtifactGrammar:
    """Just enough grammar surface for a parser driven by a ParseProgram.

    A worker has no composed :class:`~repro.grammar.grammar.Grammar`
    (that would mean recomposition); the parse driver only ever touches
    ``.start``, ``.tokens``, ``.name``, and ``.rule()`` on the unknown-
    start-rule error path, so this shim carries exactly those.
    """

    __slots__ = ("name", "start", "tokens")

    def __init__(self, name: str, start: str | None, tokens: Any) -> None:
        self.name = name
        self.start = start
        self.tokens = tokens

    def rule(self, name: str):
        from ..errors import UndefinedNonterminalError

        raise UndefinedNonterminalError(
            f"grammar {self.name!r} has no rule {name!r}"
        )


# -- worker-side bootstrap ---------------------------------------------------

#: Per-process parser cache: ``digest -> ClosureParser``.
_PARSERS: "OrderedDict[str, Any]" = OrderedDict()


def _bootstrap_parser(task: WorkerTask):
    """Build a compiled parser for ``task`` purely from on-disk artifacts.

    The lexicon and the IR come from disk; the IR is lowered in memory,
    and each rule compiles on its first call in this worker.

    Raises :class:`~repro.service.artifacts.ArtifactMiss` (with the
    store's quarantine bookkeeping) on any missing/stale/corrupt
    artifact — the *only* exception the caller sees.
    """
    from ..lexer.scanner import Scanner
    from ..parsing.closures import ClosureParser, ClosureProgram

    store = ArtifactStore(Path(task.cache_dir), ServiceMetrics())
    lexicon = store.read(LEX, task.digest)
    program = store.read(IR, task.digest)
    grammar = _ArtifactGrammar(
        lexicon.grammar, lexicon.start or program.start_name(), lexicon.tokens
    )
    return ClosureParser(
        grammar, ClosureProgram(program), scanner=Scanner(lexicon.tokens)
    )


def _parser_for(task: WorkerTask):
    """The worker's cached parser for a task, bootstrapping on miss."""
    if task.backend != "compiled":
        raise ArtifactMiss(
            f"workers serve the compiled backend, not {task.backend!r}"
        )
    cached = _PARSERS.get(task.digest)
    if cached is not None:
        _PARSERS.move_to_end(task.digest)
        return cached, False
    built = _bootstrap_parser(task)
    _PARSERS[task.digest] = built
    while len(_PARSERS) > WORKER_CACHE_CAPACITY:
        _PARSERS.popitem(last=False)
    return built, True


def execute_batch(task: WorkerTask) -> list[WorkerReply]:
    """The process-pool entry point: every text in ``task.texts`` (or
    ``task.text`` alone) parsed by one bootstrapped parser.

    One pipe round-trip carries N texts out and N replies back, so
    per-task IPC overhead is amortized across the chunk — the difference
    between a process pool that scales and one that drowns in pickling
    for sub-millisecond parses.  Never raises: a bootstrap failure
    returns a single flagged reply (the parent republishes and retries
    the whole chunk); per-text parse failures stay per-text.
    """
    from ..resilience.deadline import Deadline

    texts = task.texts if task.texts else (task.text,)
    try:
        parser, bootstrapped = _parser_for(task)
    except ArtifactMiss as error:
        return [
            WorkerReply(
                bootstrap_failed=True,
                error=str(error),
                quarantined=error.quarantined,
            )
        ]
    except Exception as error:
        return [WorkerReply(bootstrap_failed=True, error=repr(error))]

    replies = []
    for text in texts:
        # each text gets its own budget from when its turn starts —
        # the closest per-process analogue of "deadline per request"
        deadline = (
            Deadline.after(task.deadline_remaining)
            if task.deadline_remaining is not None
            else None
        )
        t0 = time.perf_counter()
        try:
            outcome = parser.parse_with_diagnostics(
                text,
                start=task.start,
                max_errors=task.max_errors,
                max_steps=task.max_steps,
                deadline=deadline,
            )
        except Exception as error:
            replies.append(
                WorkerReply(
                    internal_error=True,
                    error=repr(error),
                    seconds=time.perf_counter() - t0,
                    bootstrapped=bootstrapped,
                )
            )
            bootstrapped = False
            continue
        replies.append(
            WorkerReply(
                tree=outcome.tree,
                diagnostics=outcome.diagnostics,
                seconds=time.perf_counter() - t0,
                bootstrapped=bootstrapped,
            )
        )
        bootstrapped = False  # only the first reply reports the bootstrap
    return replies


def reset_worker_cache() -> None:
    """Drop every bootstrapped parser (tests; never needed in production)."""
    _PARSERS.clear()

"""Serving layer: fingerprinted parser registry, caches, batch parsing.

The paper's workflow is compose-once, parse-many.  This package is the
"parse-many" half at production scale::

    from repro.service import ParseService

    service = ParseService()            # serves the shared SQL registry
    result = service.parse("SELECT a FROM t", ["QuerySpecification", "Where"])
    result.ok, result.tree, result.diagnostics

    results = service.parse_many(queries, features, timeout=0.5)
    print(service.render_stats())

A service serves the registry it is given
(``ParseService(registry=ParserRegistry(line))``), and an
:class:`AsyncParseService` wraps a service its caller built and closes.

Layers:

* :mod:`repro.service.fingerprint` — canonical cache keys: equivalent
  sparse selections hash to the same :class:`Fingerprint`.
* :mod:`repro.service.registry` — thread-safe LRU of composed products
  with single-flight composition.
* :mod:`repro.service.artifacts` — the on-disk artifact store (one
  parse program per product, token definitions included) shared by
  registry entries and workers.
* :mod:`repro.service.service` — :class:`ParseService`:
  ``parse``/``parse_many``/``translate`` over a worker pool (thread- or
  process-backed via ``executor=``), per-request timeout and fuel
  budgets, diagnostics instead of exceptions; each in-parent parse is
  one guarded step down the degradation ladder.
* :mod:`repro.service.workers` — the process-pool protocol: workers
  bootstrap parsers from on-disk artifacts, no recomposition.
* :mod:`repro.service.async_service` — :class:`AsyncParseService`:
  asyncio front-end with request coalescing and backpressure.
* :mod:`repro.service.metrics` — hit/miss counters and latency
  histograms behind ``repro stats``; a parse and a translate each fold
  in under one lock acquisition.
"""

from .async_service import AsyncParseService
from .fingerprint import (
    Fingerprint,
    configuration_fingerprint,
    product_fingerprint,
)
from .metrics import LatencyHistogram, ServiceMetrics
from .registry import ParserRegistry, RegistryEntry
from .service import (
    ParseService,
    ParseServiceResult,
    TranslateServiceResult,
)
from .workers import WorkerReply, WorkerTask

__all__ = [
    "AsyncParseService",
    "Fingerprint",
    "LatencyHistogram",
    "ParseService",
    "ParseServiceResult",
    "ParserRegistry",
    "RegistryEntry",
    "ServiceMetrics",
    "TranslateServiceResult",
    "WorkerReply",
    "WorkerTask",
    "configuration_fingerprint",
    "product_fingerprint",
]

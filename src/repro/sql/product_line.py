"""The assembled SQL:2003 grammar product line.

Entry points::

    from repro.sql import build_sql_product_line, sql_registry

    line = build_sql_product_line()
    product = line.configure(["QuerySpecification", "Where"])
    parser = product.parser()

:func:`configure_sql` (and everything built on it — preset dialects, the
:class:`~repro.engine.database.Database`, the CLI) routes through one
process-wide :class:`~repro.service.registry.ParserRegistry`, so an
already-seen selection is served from cache instead of being recomposed.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Iterable, Mapping

from ..core.product_line import ComposedProduct, GrammarProductLine
from .registry import SqlRegistry


def sql_registry() -> SqlRegistry:
    """Build a fresh registry with every SQL feature diagram registered."""
    from .features import register_all

    registry = SqlRegistry()
    register_all(registry)
    return registry


@lru_cache(maxsize=1)
def _cached_registry() -> SqlRegistry:
    return sql_registry()


def build_sql_product_line(name: str = "sql2003") -> GrammarProductLine:
    """The SQL:2003 grammar product line (cached registry, fresh line)."""
    return _cached_registry().build_product_line(name)


#: Capacity of the process-wide SQL parser registry; generous enough for
#: every preset dialect plus a healthy working set of custom selections.
SQL_REGISTRY_CAPACITY = 64

_registry_lock = threading.Lock()
_shared_registry = None


def sql_parser_registry():
    """The process-wide parser registry over the SQL:2003 product line.

    Shared by :func:`configure_sql`, the preset dialects, the
    :class:`~repro.engine.database.Database`, the CLI, and any
    :class:`~repro.service.service.ParseService` constructed without an
    explicit line — one compose per fingerprint, process-wide.
    """
    global _shared_registry
    if _shared_registry is None:
        with _registry_lock:
            if _shared_registry is None:
                from ..service.registry import ParserRegistry

                _shared_registry = ParserRegistry(
                    build_sql_product_line(), capacity=SQL_REGISTRY_CAPACITY
                )
    return _shared_registry


def configure_sql(
    features: Iterable[str],
    counts: Mapping[str, int] | None = None,
    product_name: str | None = None,
) -> ComposedProduct:
    """One-call convenience: select features, get a composed product.

    Clone counts participate the way the paper's worked example implies: a
    ``SelectSublist`` count greater than one selects the
    ``SelectSublist.Multiple`` feature (the complex-list grammar form).

    Products are served from the shared fingerprint-keyed registry:
    composing the same (expanded) selection twice performs the
    composition work only once.  A caller-supplied ``product_name`` is
    applied to the returned product without disturbing the cached one.
    """
    features = set(features)
    counts = dict(counts or {})
    if counts.get("SelectSublist", 1) > 1:
        features.add("SelectSublist.Multiple")
    product = sql_parser_registry().get(features, counts=counts).product
    if product_name is not None:
        product = product.renamed(product_name)
    return product

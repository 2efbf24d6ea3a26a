"""Canonical fingerprints for composed parser products.

The paper's workflow is compose-once, parse-many: one grammar is composed
per feature selection and the resulting parser serves all subsequent
input.  To *reuse* that work safely, the serving layer needs a stable
cache key that identifies "the parser this selection would produce" — not
the selection text the caller happened to type.

A :class:`Fingerprint` hashes, with SHA-256:

* the product line's identity (name, forced start rule),
* the fully *resolved* configuration — sparse selections are expanded
  through the model (ancestors, mandatory children, requires closure)
  before hashing, so ``["Query", "GroupBy"]`` and the equivalent
  expanded set map to the same key,
* clone counts (normalized: a count of 1 is the default and is omitted),
* the model pre-order of the selected features (composition order input),
* every participating unit's full contribution: its sub-grammar in
  canonical DSL text, its token definitions, and its
  requires/excludes/after/removes metadata.

Because unit *content* participates, editing a feature's sub-grammar or
token file invalidates every cached artifact that composed it — including
the compiled artifacts persisted on disk across processes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports us lazily)
    from ..core.product_line import GrammarProductLine
    from ..core.unit import FeatureUnit
    from ..features.configuration import Configuration

#: Bump when the fingerprint recipe changes incompatibly; participates in
#: the hash so stale on-disk artifacts from older layouts never match.
FINGERPRINT_VERSION = 1

_SEP = b"\x1f"  # field separator inside hashed records
_END = b"\x1e"  # record separator


@dataclass(frozen=True)
class Fingerprint:
    """A stable identity for one composed product of a product line.

    Attributes:
        digest: Full SHA-256 hex digest.
        selection: The fully expanded feature selection that was hashed.
        counts: Normalized clone counts (only entries different from 1).
    """

    digest: str
    selection: frozenset[str] = frozenset()
    counts: Mapping[str, int] = field(default_factory=dict)

    @property
    def short(self) -> str:
        """First 12 hex chars — enough for human-readable product names."""
        return self.digest[:12]

    def __str__(self) -> str:
        return self.short

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fingerprint):
            return NotImplemented
        return self.digest == other.digest

    def __hash__(self) -> int:
        return hash(self.digest)


@lru_cache(maxsize=None)
def unit_digest(unit: "FeatureUnit") -> bytes:
    """Content digest of one feature unit's full contribution.

    Cached per unit instance: units are immutable, and the SQL product
    line reuses the same unit objects across lines built from the cached
    registry, so each sub-grammar is serialized and hashed exactly once
    per process.
    """
    from ..grammar.writer import write_grammar

    h = hashlib.sha256()
    h.update(unit.feature.encode())
    h.update(_SEP)
    if unit.grammar is not None:
        h.update(write_grammar(unit.grammar, header=True).encode())
        h.update(_SEP)
        for d in sorted(unit.grammar.tokens, key=lambda d: d.name):
            h.update(
                f"{d.name}\x1f{d.kind}\x1f{d.pattern}\x1f{d.priority}"
                f"\x1f{int(d.skip)}".encode()
            )
            h.update(_END)
    for label, names in (
        ("requires", unit.requires),
        ("excludes", unit.excludes),
        ("after", unit.after),
        ("removes", unit.removes),
    ):
        h.update(label.encode())
        h.update(_SEP)
        h.update("\x1f".join(names).encode())
        h.update(_END)
    return h.digest()


def configuration_fingerprint(
    line: "GrammarProductLine", config: "Configuration"
) -> Fingerprint:
    """Fingerprint an already-resolved configuration of a product line."""
    selected = frozenset(config.selected)
    counts = {
        name: config.count(name)
        for name in sorted(selected)
        if config.count(name) != 1
    }

    h = hashlib.sha256()
    h.update(f"repro-fingerprint-v{FINGERPRINT_VERSION}".encode())
    h.update(_END)
    h.update(line.name.encode())
    h.update(_SEP)
    h.update((line.start or "").encode())
    h.update(_END)
    # composition order is the model pre-order restricted to the selection;
    # hashing it keeps two structurally different models from colliding on
    # an identical selection set
    for name in (f.name for f in line.model.root.walk() if f.name in selected):
        h.update(name.encode())
        h.update(_SEP)
    h.update(_END)
    for name in sorted(selected):
        h.update(f"{name}\x1f{config.count(name)}".encode())
        h.update(_END)
        unit = line.unit_for(name)
        if unit is not None:
            h.update(unit_digest(unit))
            h.update(_END)
    return Fingerprint(digest=h.hexdigest(), selection=selected, counts=counts)


def product_fingerprint(
    line: "GrammarProductLine",
    features: Iterable[str],
    counts: Mapping[str, int] | None = None,
    expand: bool = True,
) -> Fingerprint:
    """Fingerprint a (possibly sparse) feature selection.

    The selection is resolved exactly as :meth:`GrammarProductLine.configure`
    would resolve it, so the fingerprint of a sparse selection equals the
    fingerprint of its expanded form — and of the product either produces.
    """
    config = line.resolve_configuration(features, counts, expand=expand)
    return configuration_fingerprint(line, config)

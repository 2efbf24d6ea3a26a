"""Feature-model analyses: product counting, dead/core feature detection.

``count_products`` uses the standard tree dynamic program, which is exact
for models without cross-tree constraints; with constraints it reports an
upper bound unless the model is small enough to enumerate exactly.
``enumerate_products`` yields every valid configuration of small models;
it powers dead/core-feature detection and several property-based tests.
"""

from __future__ import annotations

from typing import Iterator

from .configuration import Configuration, validate_configuration
from .model import Feature, FeatureModel, GroupType


#: Largest constrained model :func:`count_products` counts by enumeration.
EXACT_LIMIT = 24


def count_products(model: FeatureModel) -> int:
    """Number of valid configurations of the model.

    Exact when the model has no cross-tree constraints.  With constraints,
    the count is computed by enumeration when the model has at most
    :data:`EXACT_LIMIT` features, otherwise the unconstrained tree count is
    returned as an upper bound.
    """
    if model.constraints and len(model) <= EXACT_LIMIT:
        return sum(1 for _ in enumerate_products(model))
    return _tree_count(model.root)


def _tree_count(feature: Feature) -> int:
    """Configurations of the subtree rooted here, given it is selected."""
    if not feature.children:
        return 1
    if feature.group is GroupType.AND:
        total = 1
        for child in feature.children:
            ways = _tree_count(child)
            total *= ways if child.mandatory else ways + 1
        return total
    if feature.group is GroupType.OR:
        total = 1
        for child in feature.children:
            total *= _tree_count(child) + 1
        return total - 1  # "none selected" is not allowed
    # ALTERNATIVE
    return sum(_tree_count(child) for child in feature.children)


def enumerate_products(model: FeatureModel) -> Iterator[Configuration]:
    """Yield every valid configuration (exponential; small models only)."""
    for subtree in _enumerate_subtree(model.root):
        config = Configuration.of(subtree)
        if not validate_configuration(model, config):
            yield config


def _enumerate_subtree(feature: Feature) -> Iterator[frozenset[str]]:
    """All selections of the subtree assuming ``feature`` is selected."""
    if not feature.children:
        yield frozenset((feature.name,))
        return
    child_options: list[list[frozenset[str] | None]] = []
    for child in feature.children:
        options: list[frozenset[str] | None] = list(_enumerate_subtree(child))
        if feature.group is not GroupType.AND or child.optional:
            options.append(None)  # "child not selected"
        child_options.append(options)

    for combo in _product(child_options):
        picked = [c for c in combo if c is not None]
        if feature.group is GroupType.OR and not picked:
            continue
        if feature.group is GroupType.ALTERNATIVE and len(picked) != 1:
            continue
        if feature.group is GroupType.AND:
            # mandatory children were given no None option above
            pass
        selection = {feature.name}
        for part in picked:
            selection |= part
        yield frozenset(selection)


def _product(options: list[list]) -> Iterator[tuple]:
    if not options:
        yield ()
        return
    head, *rest = options
    for choice in head:
        for tail in _product(rest):
            yield (choice, *tail)


def dead_features(model: FeatureModel) -> list[str]:
    """Features that appear in no valid configuration (enumeration-based)."""
    alive: set[str] = set()
    for config in enumerate_products(model):
        alive |= config.selected
    return sorted(set(model.feature_names()) - alive)


def core_features(model: FeatureModel) -> list[str]:
    """Features present in every valid configuration (enumeration-based)."""
    core: set[str] | None = None
    for config in enumerate_products(model):
        core = set(config.selected) if core is None else core & config.selected
    return sorted(core or set())


def model_statistics(model: FeatureModel) -> dict[str, int]:
    """Summary numbers used by experiment E3's report."""
    features = list(model.root.walk())
    return {
        "features": len(features),
        "leaves": sum(1 for f in features if not f.children),
        "optional": sum(1 for f in features if f.optional),
        "mandatory": sum(1 for f in features if f.mandatory),
        "or_groups": sum(1 for f in features if f.group is GroupType.OR and f.children),
        "alternative_groups": sum(
            1 for f in features if f.group is GroupType.ALTERNATIVE and f.children
        ),
        "constraints": len(model.constraints),
        "depth": _depth(model.root),
    }


def _depth(feature: Feature) -> int:
    if not feature.children:
        return 1
    return 1 + max(_depth(c) for c in feature.children)

"""Feature models: the paper's feature diagrams as data.

A feature diagram is a tree whose root is the *concept*; child features are
mandatory or optional, and a feature's children may form an AND group
(default), an OR group (select at least one) or an ALTERNATIVE group
(select exactly one).  A feature may carry a clone cardinality such as
``[1..*]`` (Figure 1 uses it for Select Sublist).  Cross-tree
requires/excludes constraints live on the model.

Build models with the constructors::

    from repro.features import FeatureModel, mandatory, optional, Cardinality

    root = mandatory(
        "QuerySpecification",
        optional("SetQuantifier", mandatory("ALL"), mandatory("DISTINCT"),
                 group=GroupType.ALTERNATIVE),
        mandatory("SelectList", ...),
    )
    model = FeatureModel(root)
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from ..errors import FeatureModelError, UnknownFeatureError


class GroupType(Enum):
    """How the children of a feature constrain each other."""

    AND = "and"  # children independently mandatory/optional
    OR = "or"  # at least one child
    ALTERNATIVE = "alternative"  # exactly one child


@dataclass(frozen=True, slots=True)
class Cardinality:
    """Clone cardinality of a feature, e.g. ``[1..*]``.

    ``max=None`` means unbounded.  The default ``[1..1]`` is an ordinary
    (non-cloned) feature.
    """

    min: int = 1
    max: int | None = 1

    def __post_init__(self) -> None:
        if self.min < 0:
            raise ValueError("cardinality minimum must be >= 0")
        if self.max is not None and self.max < self.min:
            raise ValueError("cardinality maximum must be >= minimum")

    @property
    def is_clone(self) -> bool:
        return self.max is None or self.max > 1

    def __str__(self) -> str:
        upper = "*" if self.max is None else str(self.max)
        return f"[{self.min}..{upper}]"


MANY = Cardinality(1, None)
"""The paper's ``[1..*]`` cardinality."""


class Feature:
    """One node of a feature diagram."""

    def __init__(
        self,
        name: str,
        children: Iterable["Feature"] = (),
        optional: bool = False,
        group: GroupType = GroupType.AND,
        cardinality: Cardinality = Cardinality(),
        description: str = "",
    ) -> None:
        self.name = name
        self.optional = optional
        self.group = group
        self.cardinality = cardinality
        self.description = description
        self.parent: Feature | None = None
        self.children: list[Feature] = []
        for child in children:
            self.add_child(child)

    def add_child(self, child: "Feature") -> "Feature":
        if child.parent is not None:
            raise FeatureModelError(
                f"feature {child.name!r} already has parent {child.parent.name!r}"
            )
        child.parent = self
        self.children.append(child)
        return child

    @property
    def mandatory(self) -> bool:
        return not self.optional

    def walk(self) -> Iterator["Feature"]:
        """This feature and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def ancestors(self) -> Iterator["Feature"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def clone(self) -> "Feature":
        """Deep copy of this subtree, detached from any parent."""
        return Feature(
            self.name,
            [child.clone() for child in self.children],
            optional=self.optional,
            group=self.group,
            cardinality=self.cardinality,
            description=self.description,
        )

    def __repr__(self) -> str:
        kind = "optional" if self.optional else "mandatory"
        return f"<Feature {self.name!r} ({kind}, {self.group.value})>"


def mandatory(
    name: str,
    *children: Feature,
    group: GroupType = GroupType.AND,
    cardinality: Cardinality = Cardinality(),
    description: str = "",
) -> Feature:
    """Build a mandatory feature."""
    return Feature(
        name,
        children,
        optional=False,
        group=group,
        cardinality=cardinality,
        description=description,
    )


def optional(
    name: str,
    *children: Feature,
    group: GroupType = GroupType.AND,
    cardinality: Cardinality = Cardinality(),
    description: str = "",
) -> Feature:
    """Build an optional feature."""
    return Feature(
        name,
        children,
        optional=True,
        group=group,
        cardinality=cardinality,
        description=description,
    )


def alternative(name: str, *children: Feature, **kwargs) -> Feature:
    """A feature whose children form an alternative (XOR) group."""
    kwargs.setdefault("group", GroupType.ALTERNATIVE)
    return Feature(name, children, **kwargs)


def or_group(name: str, *children: Feature, **kwargs) -> Feature:
    """A feature whose children form an OR group (pick at least one)."""
    kwargs.setdefault("group", GroupType.OR)
    return Feature(name, children, **kwargs)


class FeatureModel:
    """A feature diagram plus its cross-tree constraints.

    Feature names must be unique within a model; lookups, configurations
    and composition all address features by name.

    ``revision`` counts the model's mutations (:meth:`add_constraint`,
    :meth:`graft`), so a cache of what a selection resolves to can tell
    that the model it was computed from has changed.  It is bumped once
    a mutation is complete: a resolution that read the model mid-change
    was made under the old revision and is discarded with it.
    """

    def __init__(self, root: Feature, constraints: Iterable = ()) -> None:
        self.root = root
        self.revision = 0
        self._by_name: dict[str, Feature] = {}
        for feature in root.walk():
            if feature.name in self._by_name:
                raise FeatureModelError(
                    f"duplicate feature name {feature.name!r} in model"
                )
            self._by_name[feature.name] = feature
        self.constraints = list(constraints)
        from .constraints import Constraint  # local import to avoid a cycle

        for constraint in self.constraints:
            if not isinstance(constraint, Constraint):
                raise FeatureModelError(
                    f"not a constraint: {constraint!r}"
                )
            for name in constraint.feature_names():
                self.feature(name)  # raises UnknownFeatureError if absent

    # -- lookups -----------------------------------------------------------

    def feature(self, name: str) -> Feature:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownFeatureError(
                f"model has no feature named {name!r}"
            ) from None

    def has_feature(self, name: str) -> bool:
        return name in self._by_name

    def feature_names(self) -> list[str]:
        return list(self._by_name)

    def __len__(self) -> int:
        return len(self._by_name)

    def __iter__(self) -> Iterator[Feature]:
        return iter(self._by_name.values())

    def leaves(self) -> list[Feature]:
        return [f for f in self if not f.children]

    def add_constraint(self, constraint) -> None:
        for name in constraint.feature_names():
            self.feature(name)
        self.constraints.append(constraint)
        self.revision += 1

    def graft(self, parent_name: str, subtree: Feature) -> None:
        """Attach a new subtree under an existing feature.

        This is how extension feature diagrams (e.g. the sensor-network
        extensions of E9) plug into the base SQL model.
        """
        parent = self.feature(parent_name)
        for feature in subtree.walk():
            if feature.name in self._by_name:
                raise FeatureModelError(
                    f"cannot graft: feature {feature.name!r} already exists"
                )
        parent.add_child(subtree)
        for feature in subtree.walk():
            self._by_name[feature.name] = feature
        self.revision += 1

    def __repr__(self) -> str:
        return f"<FeatureModel root={self.root.name!r}, {len(self)} features>"

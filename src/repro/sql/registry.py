"""Registry assembling the SQL:2003 product line from feature diagrams.

The decomposition (DESIGN.md §2, system S6) is organized exactly as the
paper describes: the SQL Foundation grammar is split into *feature
diagrams* — each a named subtree of the overall feature model — and every
feature may carry a sub-grammar unit.  Each module under
``repro.sql.features`` contributes one or more :class:`FeatureDiagram`
objects; :func:`build_registry` imports them all in dependency order and
:meth:`SqlRegistry.build_product_line` produces the composable
:class:`~repro.core.product_line.GrammarProductLine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.product_line import GrammarProductLine
from ..core.unit import FeatureUnit
from ..errors import FeatureModelError
from ..features.constraints import Constraint
from ..features.model import Feature, FeatureModel, mandatory


@dataclass
class FeatureDiagram:
    """One of the paper's feature diagrams: a named subtree plus its units.

    Attributes:
        name: Diagram name (e.g. ``"query_specification"``); experiment E3
            counts these.
        parent: Feature name the subtree grafts under.
        root: The subtree of features this diagram contributes.
        units: Sub-grammar units for features in (or referenced by) the
            subtree.
        constraints: Cross-tree constraints this diagram introduces.
        package: ``"foundation"`` for SQL Foundation diagrams,
            ``"extension"`` for extension packages (sensor/limit/...).
        description: What part of SQL the diagram covers.
    """

    name: str
    parent: str
    root: Feature
    units: list[FeatureUnit] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    package: str = "foundation"
    description: str = ""

    def feature_count(self) -> int:
        return sum(1 for _ in self.root.walk())


class SqlRegistry:
    """Ordered collection of feature diagrams forming the SQL product line."""

    ROOT_FEATURE = "SQL2003"

    def __init__(self) -> None:
        self.diagrams: list[FeatureDiagram] = []
        self._extra_units: list[FeatureUnit] = []
        self._root_unit: FeatureUnit | None = None

    def add(self, diagram: FeatureDiagram) -> None:
        if any(d.name == diagram.name for d in self.diagrams):
            raise FeatureModelError(f"duplicate diagram name {diagram.name!r}")
        self.diagrams.append(diagram)

    def set_root_unit(self, unit: FeatureUnit) -> None:
        """The unit composed first: sql_script scaffolding + base tokens."""
        self._root_unit = unit

    # -- assembly --------------------------------------------------------------

    def build_model(self) -> FeatureModel:
        """Graft every diagram subtree into one feature model."""
        root = mandatory(self.ROOT_FEATURE, description="SQL:2003 concept root")
        model = FeatureModel(root)
        for diagram in self.diagrams:
            # graft a clone so the registry can build any number of models
            model.graft(diagram.parent, diagram.root.clone())
        for diagram in self.diagrams:
            for constraint in diagram.constraints:
                model.add_constraint(constraint)
        return model

    def build_product_line(self, name: str = "sql2003") -> GrammarProductLine:
        model = self.build_model()
        units: list[FeatureUnit] = []
        if self._root_unit is not None:
            units.append(self._root_unit)
        for diagram in self.diagrams:
            units.extend(diagram.units)
        return GrammarProductLine(model, units, name=name, start="sql_script")

    # -- reporting (experiment E3) ------------------------------------------------

    def statistics(self) -> dict[str, int]:
        model = self.build_model()
        foundation = [d for d in self.diagrams if d.package == "foundation"]
        extensions = [d for d in self.diagrams if d.package == "extension"]
        return {
            "diagrams": len(foundation),
            "extension_diagrams": len(extensions),
            "features": len(model) - 1,  # excluding the synthetic root
            "features_with_units": sum(len(d.units) for d in self.diagrams)
            + (1 if self._root_unit else 0),
            "constraints": len(model.constraints),
        }

    def report(self) -> str:
        """Per-diagram feature counts, the table experiment E3 prints."""
        lines = [f"{'diagram':40} {'package':10} {'features':>8}"]
        for diagram in self.diagrams:
            lines.append(
                f"{diagram.name:40} {diagram.package:10} {diagram.feature_count():>8}"
            )
        stats = self.statistics()
        lines.append("-" * 60)
        lines.append(
            f"{stats['diagrams']} foundation diagrams "
            f"(+{stats['extension_diagrams']} extension), "
            f"{stats['features']} features, "
            f"{stats['constraints']} constraints"
        )
        return "\n".join(lines)

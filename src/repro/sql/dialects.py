"""Dialect presets — the paper's "different SQL dialects" as feature sets.

Each dialect is a named feature selection over the SQL:2003 product line:

* **SCQL** — the smartcard subset (ISO 7816-7): single-table
  select/insert/update/delete, no expressions beyond comparisons.
* **TINYSQL** — TinyDB's sensor-network dialect: single table in FROM, no
  column aliases, aggregation, and the acquisitional extensions
  (SAMPLE PERIOD / EPOCH DURATION / LIFETIME).
* **CORE** — a reasonable "Core SQL" interactive subset: full SELECT with
  joins, subqueries, set operations, DML and basic DDL.
* **FULL** — every Foundation feature in the decomposition (the whole
  product line, minus extension packages).
* **ANALYTICS** — a warehouse-flavoured dialect: OLAP grouping, window
  functions, CASE, aggregates; no DML/DDL.

``dialect_features(name)`` returns the selection (``dialect_selection``:
cached as a frozenset), ``build_dialect(name)`` the composed product.
"""

from __future__ import annotations

from functools import lru_cache

from ..errors import UnknownDialectError
from .product_line import build_sql_product_line, sql_parser_registry
from .registry import SqlRegistry

#: All six comparison operators.
ALL_COMPARISONS = [
    "ComparisonPredicate",
    "Comparison.Equals",
    "Comparison.NotEquals",
    "Comparison.Less",
    "Comparison.Greater",
    "Comparison.LessOrEquals",
    "Comparison.GreaterOrEquals",
]

_BASIC_EXPRESSIONS = [
    "Literals",
    "BooleanLiteral",
    "OrOperator",
    "AndOperator",
    "NotOperator",
    "Addition",
    "Multiplication",
    "UnarySign",
]

SCQL = [
    # ISO 7816-7 smartcard queries: one table, simple predicates, no joins
    "QuerySpecification",
    "Asterisk",
    "SelectSublist",
    "SelectSublist.Multiple",
    "Where",
    "Literals",
    *ALL_COMPARISONS,
    "AndOperator",
    "Insert",
    "InsertFromConstructor",
    "Update",
    "UpdateWhere",
    "Delete",
    "DeleteWhere",
    "CreateTable",
    "Type.Integer",
    "Type.Numeric",
    "NumericPrecisionSpec",
    "FixedCharType",
    "CharLengthSpec",
    "DropTable",
    # ISO 7816-7 has BEGIN/COMMIT/ROLLBACK TRANSACTION-style control
    "Commit",
    "Rollback",
]

TINYSQL = [
    # TinyDB: single table in FROM (no MultipleTables), no column alias
    # (no DerivedColumn.As), aggregation, sensor extensions
    "QuerySpecification",
    "Asterisk",
    "SelectSublist",
    "SelectSublist.Multiple",
    "Where",
    "GroupBy",
    "Having",
    "Literals",
    *ALL_COMPARISONS,
    "AndOperator",
    "OrOperator",
    "Addition",
    "Multiplication",
    "AggregateFunctions",
    "CountStar",
    "GeneralSetFunction",
    "SetFunction.Sum",
    "SetFunction.Avg",
    "SetFunction.Min",
    "SetFunction.Max",
    "SetFunction.Count",
    # acquisitional extensions
    "SamplePeriod",
    "EpochDuration",
    "QueryLifetime",
]

CORE = [
    "QuerySpecification",
    "Asterisk",
    "SelectSublist",
    "SelectSublist.Multiple",
    "QualifiedAsterisk",
    "SetQuantifier.ALL",
    "SetQuantifier.DISTINCT",
    "DerivedColumn.As",
    "Where",
    "GroupBy",
    "Having",
    "OrderBy",
    "Ascending",
    "Descending",
    "MultipleTables",
    "CorrelationName",
    "CorrelationName.As",
    "DerivedTable",
    "JoinedTable",
    "InnerJoin",
    "OuterJoin",
    "LeftJoin",
    "RightJoin",
    "OnCondition",
    "Union",
    "Except",
    "Intersect",
    "SetOpQuantifiers",
    "SetOpQuantifier.All",
    "SetOpQuantifier.Distinct",
    "NestedQuery",
    "Subquery",
    "ScalarSubquery",
    "ExistsPredicate",
    "InPredicate",
    "InValueList",
    "InSubquery",
    "BetweenPredicate",
    "LikePredicate",
    "NullPredicate",
    *ALL_COMPARISONS,
    *_BASIC_EXPRESSIONS,
    "CaseExpression",
    "SearchedCase",
    "SimpleCase",
    "Coalesce",
    "NullIf",
    "CastSpecification",
    "DataTypes",
    "Type.Integer",
    "Type.Numeric",
    "NumericPrecisionSpec",
    "Type.Smallint",
    "Type.Bigint",
    "Type.Float",
    "Type.Real",
    "Type.Double",
    "FixedCharType",
    "CharLengthSpec",
    "VaryingCharType",
    "BooleanType",
    "Type.Date",
    "Type.Time",
    "Type.Timestamp",
    "AggregateFunctions",
    "CountStar",
    "GeneralSetFunction",
    "AggregateQuantifier",
    "SetFunction.Sum",
    "SetFunction.Avg",
    "SetFunction.Min",
    "SetFunction.Max",
    "SetFunction.Count",
    "RowValues",
    "TableValueConstructor",
    "Insert",
    "InsertFromConstructor",
    "InsertColumnList",
    "InsertFromQuery",
    "Update",
    "UpdateWhere",
    "Delete",
    "DeleteWhere",
    "CreateTable",
    "ColumnDefault",
    "ColumnConstraints",
    "NotNullConstraint",
    "ColumnPrimaryKey",
    "ColumnUnique",
    "ColumnCheck",
    "TableConstraints",
    "TablePrimaryKey",
    "TableUnique",
    "TableForeignKey",
    "TableCheck",
    "CreateView",
    "ViewColumnList",
    "DropTable",
    "DropView",
    "Commit",
    "Rollback",
]

ANALYTICS = [
    "QuerySpecification",
    "Asterisk",
    "SelectSublist",
    "SelectSublist.Multiple",
    "SetQuantifier.DISTINCT",
    "SetQuantifier.ALL",
    "DerivedColumn.As",
    "Where",
    "GroupBy",
    "Rollup",
    "Cube",
    "GroupingSets",
    "Having",
    "OrderBy",
    "Ascending",
    "Descending",
    "NullOrdering",
    "NullsFirst",
    "NullsLast",
    "MultipleTables",
    "CorrelationName",
    "CorrelationName.As",
    "JoinedTable",
    "InnerJoin",
    "OuterJoin",
    "LeftJoin",
    "RightJoin",
    "FullJoin",
    "OnCondition",
    "Union",
    "Intersect",
    "SetOpQuantifiers",
    "SetOpQuantifier.All",
    "SetOpQuantifier.Distinct",
    "NestedQuery",
    "WithClause",
    "WithColumnList",
    "Subquery",
    "ScalarSubquery",
    "InPredicate",
    "InValueList",
    "InSubquery",
    "BetweenPredicate",
    "NullPredicate",
    *ALL_COMPARISONS,
    *_BASIC_EXPRESSIONS,
    "CaseExpression",
    "SearchedCase",
    "Coalesce",
    "AggregateFunctions",
    "CountStar",
    "GeneralSetFunction",
    "AggregateQuantifier",
    "SetFunction.Sum",
    "SetFunction.Avg",
    "SetFunction.Min",
    "SetFunction.Max",
    "SetFunction.Count",
    "Window",
    "PartitionClause",
    "WindowOrderClause",
    "FrameClause",
    "FrameUnits.Rows",
    "FrameUnits.Range",
    "Frame.Unbounded",
    "Frame.CurrentRow",
    "Frame.Bounded",
    "FrameBetween",
    "WindowFunctions",
    "RankFunction",
    "RowNumberFunction",
    "AggregateOver",
]

_DIALECTS: dict[str, list[str]] = {
    "scql": SCQL,
    "tinysql": TINYSQL,
    "core": CORE,
    "analytics": ANALYTICS,
}


def dialect_names() -> list[str]:
    """All preset dialect names, smallest to largest."""
    return ["scql", "tinysql", "core", "analytics", "full"]


def dialect_features(name: str) -> list[str]:
    """The feature selection behind a preset dialect."""
    key = name.lower()
    if key == "full":
        # every feature that has a unit, foundation and extension alike
        line = build_sql_product_line()
        return [
            f for f in line.features_with_units() if f != SqlRegistry.ROOT_FEATURE
        ]
    try:
        return list(_DIALECTS[key])
    except KeyError:
        raise UnknownDialectError(
            f"unknown dialect {name!r}; choose from {dialect_names()}"
        ) from None


@lru_cache(maxsize=None)
def dialect_selection(name: str) -> frozenset[str]:
    """:func:`dialect_features` as one frozenset per preset name and
    process (names and feature sets only, never an entry or a product):
    a registry's selection memo finds the same object every lookup."""
    return frozenset(dialect_features(name))


def build_dialect(name: str, product_name: str | None = None):
    """Compose a preset dialect into a ComposedProduct (shared registry)."""
    product = sql_parser_registry().get(dialect_selection(name)).product
    return product.renamed(product_name or f"sql-{name.lower()}")

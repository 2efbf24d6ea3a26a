"""Capability analysis: which feature units does an AST require?

The composition trace already records which feature unit contributed
every grammar rule (``ComposedProduct.rule_origins``); this module is
the AST-level counterpart.  :func:`analyze` walks a tree and emits one
:class:`Requirement` per construct, naming the feature unit(s) — any one
of which suffices — whose grammar productions can express it.

Translation uses the report in both directions:

* against the **target** dialect's selected units, :meth:`CapabilityReport.gaps`
  yields the constructs that cannot be expressed — each gap becomes a
  structured ``E0401`` diagnostic with an "enable feature 'X'" hint,
  so the translator fails *before* emitting malformed SQL;
* the requirement list itself documents which units a query exercises,
  which the transpile report surfaces for provenance.

Requirements use the most specific unit in the feature model: the
configuration checker resolves child→parent dependencies, so a selected
``LeftJoin`` implies ``OuterJoin`` and ``JoinedTable`` are selected too —
checking the leaf is sufficient.  Constructs every product can express
(plain function-call syntax, unary signs) produce no requirement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..sql import ast

__all__ = ["Requirement", "CapabilityReport", "analyze"]


@dataclass(frozen=True)
class Requirement:
    """One construct and the feature units (alternatives) that express it."""

    construct: str
    alternatives: tuple[str, ...]

    @property
    def primary(self) -> str:
        """The preferred unit to suggest enabling."""
        return self.alternatives[0]

    def satisfied_by(self, features: frozenset[str]) -> bool:
        return any(unit in features for unit in self.alternatives)


@dataclass(frozen=True)
class CapabilityReport:
    """All feature requirements of one AST, in first-occurrence order."""

    requirements: tuple[Requirement, ...]

    def gaps(self, features: frozenset[str]) -> tuple[Requirement, ...]:
        """Requirements the given selected-unit set cannot satisfy."""
        return tuple(
            r for r in self.requirements if not r.satisfied_by(features)
        )

    def units(self) -> frozenset[str]:
        """Every feature unit referenced by any requirement."""
        return frozenset(
            unit for r in self.requirements for unit in r.alternatives
        )

    def to_payload(self) -> list[dict]:
        """JSON-friendly shape for the transpile report."""
        return [
            {"construct": r.construct, "features": list(r.alternatives)}
            for r in self.requirements
        ]


def analyze(node, source_product=None, *, rule_origins=None) -> CapabilityReport:
    """Collect the feature requirements of ``node`` (any AST object).

    ``source_product`` (a :class:`~repro.composer.ComposedProduct`)
    sharpens :class:`~repro.sql.ast.GenericStatement` analysis: the
    statement's rule name is mapped through the product's composition
    trace to the unit that contributed the rule.  A caller that analyzes
    many queries of one product passes that product's
    ``rule_origins()`` map instead, so it is not rebuilt per call.
    """
    if rule_origins is None and source_product is not None:
        rule_origins = source_product.rule_origins()
    walker = _Walker(rule_origins or {})
    walker.visit(node)
    return CapabilityReport(tuple(walker.requirements))


_COMPARISON_UNITS = {
    "=": "Comparison.Equals",
    "<>": "Comparison.NotEquals",
    "<": "Comparison.Less",
    ">": "Comparison.Greater",
    "<=": "Comparison.LessOrEquals",
    ">=": "Comparison.GreaterOrEquals",
}

_LITERAL_UNITS = {
    "integer": ("ExactNumericLiteral",),
    "numeric": ("ApproximateNumericLiteral", "ExactNumericLiteral"),
    "string": ("CharacterStringLiteral",),
    "nstring": ("NationalStringLiteral",),
    "binary": ("BinaryStringLiteral",),
    "ustring": ("UnicodeStringLiteral",),
    "boolean": ("BooleanLiteral",),
    "date": ("DateLiteral",),
    "time": ("TimeLiteral",),
    "timestamp": ("TimestampLiteral",),
    "interval": ("IntervalLiteral",),
}

_FUNCTION_UNITS = {
    "EXTRACT": "ExtractFunction",
    "SUBSTRING": "SubstringFunction",
    "POSITION": "PositionFunction",
    "OVERLAY": "OverlayFunction",
    "TRIM": "TrimFunction",
    "COALESCE": "Coalesce",
    "NULLIF": "NullIf",
    "NEXT VALUE FOR": "NextValue",
    "GROUPING": "GroupingFunction",
    "CURRENT_DATE": "CurrentDate",
    "CURRENT_TIME": "CurrentTime",
    "CURRENT_TIMESTAMP": "CurrentTimestamp",
    "LOCALTIME": "LocalTime",
    "LOCALTIMESTAMP": "LocalTimestamp",
    "USER": "UserFn.User",
    "CURRENT_USER": "UserFn.CurrentUser",
    "SESSION_USER": "UserFn.SessionUser",
    "SYSTEM_USER": "UserFn.SystemUser",
    "CURRENT_ROLE": "UserFn.CurrentRole",
    "CURRENT_PATH": "UserFn.CurrentPath",
}

_TYPE_UNITS = {
    "boolean": "BooleanType",
    "interval": "IntervalType",
    "date": "DatetimeTypes",
    "time": "DatetimeTypes",
    "timestamp": "DatetimeTypes",
}

_DROP_UNITS = {
    "table": "DropTable",
    "view": "DropView",
    "schema": "DropSchema",
    "domain": "DropDomain",
    "sequence": "DropSequence",
}

_JOIN_UNITS = {
    "inner": "InnerJoin",
    "left": "LeftJoin",
    "right": "RightJoin",
    "full": "FullJoin",
    "cross": "CrossJoin",
    "natural": "NaturalJoin",
    "union": "UnionJoin",
}


class _Walker:
    def __init__(self, rule_origins: Mapping[str, str]) -> None:
        self.requirements: list[Requirement] = []
        self._seen: set[tuple[str, tuple[str, ...]]] = set()
        self._rule_origins = rule_origins

    def need(self, construct: str, *alternatives: str) -> None:
        key = (construct, alternatives)
        if key not in self._seen:
            self._seen.add(key)
            self.requirements.append(Requirement(construct, alternatives))

    # -- dispatch -----------------------------------------------------------

    def visit(self, node) -> None:
        if node is None:
            return
        method = _VISITORS.get(type(node).__name__)
        if method is not None:
            method(self, node)

    def _visit_each(self, nodes) -> None:
        for node in nodes:
            self.visit(node)

    # -- scripts and statements ---------------------------------------------

    def _visit_Script(self, node: ast.Script) -> None:
        self._visit_each(node.statements)

    def _visit_QueryStatement(self, node: ast.QueryStatement) -> None:
        self.visit(node.query)

    def _visit_GenericStatement(self, node: ast.GenericStatement) -> None:
        origin = self._rule_origins.get(node.kind)
        if origin:
            self.need(f"{node.kind.replace('_', ' ')}", origin)

    def _visit_Insert(self, node: ast.Insert) -> None:
        self.need("INSERT statement", "Insert")
        if node.columns:
            self.need("INSERT column list", "InsertColumnList")
        if node.overriding is not None:
            self.need("OVERRIDING clause", "OverridingClause")
        if node.source is None:
            self.need("INSERT ... DEFAULT VALUES", "InsertDefaultValues")
        elif isinstance(node.source, ast.Values):
            self.need("INSERT ... VALUES", "InsertFromConstructor")
            if len(node.source.rows) > 1:
                self.need("multi-row INSERT", "Insert.MultiRow")
            for row in node.source.rows:
                self._visit_each(row)
        else:
            self.need("INSERT from query", "InsertFromQuery")
            self.visit(node.source)

    def _visit_Update(self, node: ast.Update) -> None:
        self.need("UPDATE statement", "Update")
        if len(node.assignments) > 1:
            self.need("multiple SET assignments", "Update.MultipleAssignments")
        for _, value in node.assignments:
            self.visit(value)
        if node.current_of is not None:
            self.need("UPDATE ... WHERE CURRENT OF", "PositionedUpdate")
        elif node.where is not None:
            self.need("UPDATE ... WHERE", "UpdateWhere")
            self.visit(node.where)

    def _visit_Delete(self, node: ast.Delete) -> None:
        self.need("DELETE statement", "Delete")
        if node.current_of is not None:
            self.need("DELETE ... WHERE CURRENT OF", "PositionedDelete")
        elif node.where is not None:
            self.need("DELETE ... WHERE", "DeleteWhere")
            self.visit(node.where)

    def _visit_Merge(self, node: ast.Merge) -> None:
        self.need("MERGE statement", "Merge")
        self._visit_table_ref(node.source)
        self.visit(node.condition)
        if node.matched_assignments:
            self.need("WHEN MATCHED clause", "WhenMatched")
            for _, value in node.matched_assignments:
                self.visit(value)
        if node.not_matched_values is not None:
            self.need("WHEN NOT MATCHED clause", "WhenNotMatched")
            for row in node.not_matched_values.rows:
                self._visit_each(row)

    def _visit_CreateTable(self, node: ast.CreateTable) -> None:
        self.need("CREATE TABLE statement", "CreateTable")
        if node.scope is not None:
            self.need("temporary table", "TemporaryTables")
        if node.on_commit is not None:
            self.need("ON COMMIT clause", "OnCommitRows")
        if len(node.columns) + len(node.constraints) > 1:
            self.need("multiple table elements", "CreateTable.MultipleElements")
        for column in node.columns:
            self._visit_column_def(column)
        if node.constraints:
            self.need("table constraints", "TableConstraints")
        for constraint in node.constraints:
            self._visit_table_constraint(constraint)

    def _visit_column_def(self, column: ast.ColumnDef) -> None:
        self._visit_type(column.type)
        if column.default is not None:
            self.need("column DEFAULT", "ColumnDefault")
            self.visit(column.default)
        if column.identity is not None:
            self.need("identity column", "IdentityColumn")
        if column.not_null:
            self.need("NOT NULL constraint", "NotNullConstraint")
        if column.primary_key:
            self.need("column PRIMARY KEY", "ColumnPrimaryKey")
        if column.unique:
            self.need("column UNIQUE", "ColumnUnique")
        if column.references is not None:
            self.need("column REFERENCES", "ColumnReferences")
        if column.check is not None:
            self.need("column CHECK", "ColumnCheck")
            self.visit(column.check)

    def _visit_table_constraint(self, constraint: ast.TableConstraint) -> None:
        if constraint.kind == "primary key":
            self.need("table PRIMARY KEY", "TablePrimaryKey")
        elif constraint.kind == "unique":
            self.need("table UNIQUE", "TableUnique")
        elif constraint.kind == "foreign key":
            self.need("FOREIGN KEY constraint", "TableForeignKey")
        elif constraint.kind == "check":
            self.need("table CHECK", "TableCheck")
            self.visit(constraint.check)

    def _visit_type(self, spec: ast.TypeSpec) -> None:
        unit = _TYPE_UNITS.get(spec.name)
        if unit is not None:
            self.need(f"{spec.name.upper()} type", unit)

    def _visit_CreateView(self, node: ast.CreateView) -> None:
        self.need("CREATE VIEW statement", "CreateView")
        if node.recursive:
            self.need("recursive view", "RecursiveView")
        if node.columns:
            self.need("view column list", "ViewColumnList")
        if node.check_option:
            self.need("WITH CHECK OPTION", "CheckOption")
        self.visit(node.query)

    def _visit_DropStatement(self, node: ast.DropStatement) -> None:
        unit = _DROP_UNITS.get(node.kind)
        if unit is not None:
            self.need(f"DROP {node.kind.upper()} statement", unit)

    def _visit_Commit(self, node: ast.Commit) -> None:
        self.need("COMMIT statement", "Commit")

    def _visit_Rollback(self, node: ast.Rollback) -> None:
        self.need("ROLLBACK statement", "Rollback")
        if node.savepoint is not None:
            self.need("ROLLBACK TO SAVEPOINT", "Savepoints")

    def _visit_Savepoint(self, node: ast.Savepoint) -> None:
        self.need("SAVEPOINT statement", "Savepoints")

    def _visit_ReleaseSavepoint(self, node: ast.ReleaseSavepoint) -> None:
        self.need("RELEASE SAVEPOINT statement", "ReleaseSavepoint")

    # -- queries ------------------------------------------------------------

    def _visit_Query(self, node: ast.Query) -> None:
        if node.ctes:
            self.need("WITH clause", "WithClause")
            if node.recursive:
                self.need("WITH RECURSIVE", "RecursiveWith")
            if len(node.ctes) > 1:
                self.need("multiple WITH elements", "With.MultipleElements")
            for cte in node.ctes:
                if cte.columns:
                    self.need("WITH column list", "WithColumnList")
                self.visit(cte.query)
        self._visit_body(node.body, top=True)
        if node.order_by:
            self.need("ORDER BY clause", "OrderBy")
            if len(node.order_by) > 1:
                self.need("multiple sort keys", "OrderBy.MultipleKeys")
            for spec in node.order_by:
                self._visit_sort_spec(spec)
        if node.limit is not None:
            if node.limit_style == "fetch":
                self.need("row limiting", "FetchFirst", "Limit")
            else:
                self.need("row limiting", "Limit", "FetchFirst")
        if node.offset is not None:
            self.need("OFFSET clause", "Offset")

    def _visit_sort_spec(self, spec: ast.SortSpec) -> None:
        self.visit(spec.expression)
        if spec.collation:
            self.need("COLLATE on a sort key", "CollateClause")
        if spec.descending:
            self.need("DESC ordering", "Descending")
        if spec.nulls_last is not None:
            self.need("NULLS FIRST/LAST", "NullOrdering")
            self.need(
                "NULLS LAST" if spec.nulls_last else "NULLS FIRST",
                "NullsLast" if spec.nulls_last else "NullsFirst",
            )

    def _visit_body(self, body, top: bool) -> None:
        if isinstance(body, ast.SetOperation):
            self._visit_set_operation(body, top)
        elif isinstance(body, ast.Select):
            self._visit_Select(body)
        elif isinstance(body, ast.Values):
            self.need("VALUES as a query", "TableValueConstructor")
            if len(body.rows) > 1:
                self.need("multi-row VALUES", "RowValues.MultipleElements")
            for row in body.rows:
                self._visit_each(row)
        elif isinstance(body, ast.ExplicitTable):
            self.need("TABLE statement", "ExplicitTable")

    def _visit_set_operation(self, op: ast.SetOperation, top: bool) -> None:
        if op.kind == "union":
            self.need("UNION", "Union")
        elif op.kind == "except":
            self.need("EXCEPT", "Except")
        else:
            self.need("INTERSECT", "Intersect")
        if not top:
            self.need("nested set operation", "NestedQuery")
        if op.quantifier == "ALL":
            self.need("set-operation ALL", "SetOpQuantifier.All")
        elif op.quantifier == "DISTINCT":
            self.need("set-operation DISTINCT", "SetOpQuantifier.Distinct")
        if op.corresponding:
            self.need("CORRESPONDING", "Corresponding")
            if op.corresponding_by:
                self.need("CORRESPONDING BY", "CorrespondingBy")
        # a set-op operand nested under another set-op needs parentheses
        left_top = top and op.kind in ("union", "except")
        self._visit_body(op.left, top=left_top)
        right_nested = isinstance(op.right, ast.SetOperation)
        self._visit_body(op.right, top=not right_nested and top)

    def _visit_Select(self, node: ast.Select) -> None:
        if node.quantifier == "DISTINCT":
            self.need("SELECT DISTINCT", "SetQuantifier.DISTINCT")
        elif node.quantifier == "ALL":
            self.need("SELECT ALL", "SetQuantifier.ALL")
        if len(node.items) > 1:
            self.need("multiple select items", "SelectSublist.Multiple")
        for item in node.items:
            if isinstance(item, ast.Star):
                self.visit(item)
            else:
                if item.alias is not None:
                    self.need("column alias", "DerivedColumn.As")
                self.visit(item.expression)
        if node.into:
            self.need("SELECT INTO", "SelectInto")
        if len(node.from_tables) > 1:
            self.need("multiple FROM tables", "MultipleTables")
        for ref in node.from_tables:
            self._visit_table_ref(ref)
        if node.where is not None:
            self.need("WHERE clause", "Where")
            self.visit(node.where)
        self._visit_grouping(node)
        if node.having is not None:
            self.need("HAVING clause", "Having")
            self.visit(node.having)
        if node.windows:
            self.need("WINDOW clause", "Window")
            for window in node.windows:
                self._visit_window_spec(window.spec)
        if node.sample_period is not None:
            self.need("SAMPLE PERIOD clause", "SamplePeriod")
        if node.epoch_duration is not None:
            self.need("EPOCH DURATION clause", "EpochDuration")
        if node.output_action is not None:
            self.need("OUTPUT ACTION clause", "OutputAction")
        if node.lifetime is not None:
            self.need("LIFETIME clause", "QueryLifetime")

    def _visit_grouping(self, node: ast.Select) -> None:
        elements = node.grouping or node.group_by
        if not elements:
            return
        self.need("GROUP BY clause", "GroupBy")
        if len(elements) > 1:
            self.need("multiple grouping keys", "GroupBy.MultipleKeys")
        for element in node.grouping:
            self._visit_grouping_element(element)
        if not node.grouping:
            for expr in node.group_by:
                self.visit(expr)
            if node.grouping_kind == "rollup":
                self.need("ROLLUP grouping", "Rollup")
            elif node.grouping_kind == "cube":
                self.need("CUBE grouping", "Cube")
            elif node.grouping_kind == "grouping sets":
                self.need("GROUPING SETS", "GroupingSets")

    def _visit_grouping_element(self, element) -> None:
        if not isinstance(element, ast.GroupingElement):
            self.visit(element)
            return
        if element.kind == "rollup":
            self.need("ROLLUP grouping", "Rollup")
        elif element.kind == "cube":
            self.need("CUBE grouping", "Cube")
        elif element.kind == "grouping sets":
            self.need("GROUPING SETS", "GroupingSets")
        else:
            self.need("empty grouping set", "EmptyGroupingSet")
        for nested in element.elements:
            self._visit_grouping_element(nested)

    def _visit_table_ref(self, ref) -> None:
        if isinstance(ref, ast.NamedTable):
            if len(ref.parts) > 1:
                self.need("qualified table name", "QualifiedNames")
            if ref.alias is not None:
                self.need("table alias", "CorrelationName")
        elif isinstance(ref, ast.DerivedTable):
            self.need("derived table", "DerivedTable")
            if ref.lateral:
                self.need("LATERAL derived table", "LateralDerivedTable")
            self.visit(ref.query)
        elif isinstance(ref, ast.Join):
            self._visit_join(ref)

    def _visit_join(self, join: ast.Join) -> None:
        unit = _JOIN_UNITS.get(join.kind)
        if unit is not None:
            self.need(f"{join.kind.upper()} JOIN", unit)
        self._visit_table_ref(join.left)
        self._visit_table_ref(join.right)
        if join.on is not None:
            self.need("join ON condition", "OnCondition")
            self.visit(join.on)
        elif join.using:
            self.need("join USING columns", "UsingColumns")
        elif join.kind == "inner":
            # renderable only by degrading to CROSS JOIN
            self.need(
                "unconditional inner join", "CrossJoin", "OnCondition"
            )

    def _visit_window_spec(self, spec: ast.WindowSpec) -> None:
        if spec.existing:
            self.need("named window reference", "ExistingWindowName")
        if spec.partition_by:
            self.need("PARTITION BY clause", "PartitionClause")
            self._visit_each(spec.partition_by)
        if spec.order_by:
            self.need("window ORDER BY", "WindowOrderClause")
            for sort in spec.order_by:
                self._visit_sort_spec(sort)
        if spec.frame:
            self.need("window frame clause", "FrameClause")

    # -- expressions --------------------------------------------------------

    def _visit_Literal(self, node: ast.Literal) -> None:
        units = _LITERAL_UNITS.get(node.type_name)
        if units is not None:
            self.need(f"{node.type_name} literal", *units)

    def _visit_ColumnRef(self, node: ast.ColumnRef) -> None:
        if len(node.parts) > 1:
            self.need("qualified column reference", "QualifiedNames")

    def _visit_Star(self, node: ast.Star) -> None:
        if node.table is not None:
            self.need("qualified asterisk", "QualifiedAsterisk")
        else:
            self.need("select-list asterisk", "Asterisk")

    def _visit_BinaryOp(self, node: ast.BinaryOp) -> None:
        op = node.op
        if op in _COMPARISON_UNITS:
            self.need(f"{op} comparison", _COMPARISON_UNITS[op])
        elif op == "OVERLAPS":
            self.need("OVERLAPS predicate", "OverlapsPredicate")
        elif op == "||":
            self.need("string concatenation", "Concatenation")
        elif op in ("+", "-"):
            self.need("additive arithmetic", "Addition")
        elif op in ("*", "/"):
            self.need("multiplicative arithmetic", "Multiplication")
        elif op == "AND":
            self.need("AND operator", "AndOperator")
        elif op == "OR":
            self.need("OR operator", "OrOperator")
        self.visit(node.left)
        self.visit(node.right)

    def _visit_UnaryOp(self, node: ast.UnaryOp) -> None:
        if node.op == "NOT":
            self.need("NOT operator", "NotOperator")
        self.visit(node.operand)

    def _visit_FunctionCall(self, node: ast.FunctionCall) -> None:
        unit = _FUNCTION_UNITS.get(node.name)
        if unit is not None:
            self.need(f"{node.name} function", unit)
        for arg in node.args:
            if isinstance(arg, ast.Literal) and arg.type_name in (
                "field",
                "trim_spec",
            ):
                continue
            self.visit(arg)

    def _visit_AggregateCall(self, node: ast.AggregateCall) -> None:
        self.need("aggregate function", "AggregateFunctions")
        if node.argument is None:
            self.need("COUNT(*)", "CountStar")
        else:
            if node.quantifier is not None:
                self.need("aggregate quantifier", "AggregateQuantifier")
            self.visit(node.argument)
        if node.filter_condition is not None:
            self.need("FILTER clause", "FilterClause")
            self.visit(node.filter_condition)

    def _visit_WindowCall(self, node: ast.WindowCall) -> None:
        self.need("window function", "WindowFunctions")
        if isinstance(node.function, ast.AggregateCall):
            self.need("aggregate OVER window", "AggregateOver")
        self.visit(node.function)
        if isinstance(node.window, ast.WindowSpec):
            self._visit_window_spec(node.window)
        # OVER <window name> is part of the base WindowFunctions grammar
        # (window_name_or_spec); only an existing name *inside* an inline
        # spec needs ExistingWindowName — handled by _visit_window_spec.

    def _visit_CaseExpr(self, node: ast.CaseExpr) -> None:
        if node.operand is not None:
            self.need("simple CASE", "SimpleCase")
            self.visit(node.operand)
        else:
            self.need("searched CASE", "SearchedCase")
        for condition, result in node.whens:
            self.visit(condition)
            self.visit(result)
        self.visit(node.else_result)

    def _visit_Cast(self, node: ast.Cast) -> None:
        self.need("CAST specification", "CastSpecification")
        self.visit(node.operand)
        if node.type_spec is not None:
            self._visit_type(node.type_spec)

    def _visit_IsNull(self, node: ast.IsNull) -> None:
        self.need("IS NULL predicate", "NullPredicate")
        self.visit(node.operand)

    def _visit_Between(self, node: ast.Between) -> None:
        self.need("BETWEEN predicate", "BetweenPredicate")
        self.visit(node.operand)
        self.visit(node.low)
        self.visit(node.high)

    def _visit_InList(self, node: ast.InList) -> None:
        self.need("IN value list", "InValueList")
        self.visit(node.operand)
        self._visit_each(node.items)

    def _visit_InSubquery(self, node: ast.InSubquery) -> None:
        self.need("IN subquery", "InSubquery")
        self.visit(node.operand)
        self.visit(node.query)

    def _visit_Like(self, node: ast.Like) -> None:
        if node.similar:
            self.need("SIMILAR TO predicate", "SimilarPredicate")
        else:
            self.need("LIKE predicate", "LikePredicate")
            if node.escape is not None:
                self.need("LIKE ... ESCAPE", "LikeEscape")
        self.visit(node.operand)
        self.visit(node.pattern)
        self.visit(node.escape)

    def _visit_Exists(self, node: ast.Exists) -> None:
        self.need("EXISTS predicate", "ExistsPredicate")
        self.visit(node.query)

    def _visit_UniqueSubquery(self, node: ast.UniqueSubquery) -> None:
        self.need("UNIQUE predicate", "UniquePredicate")
        self.visit(node.query)

    def _visit_Quantified(self, node: ast.Quantified) -> None:
        self.need("quantified comparison", "QuantifiedComparison")
        if node.quantifier == "ALL":
            self.need("ALL quantifier", "AllQuantifier")
        else:
            self.need(
                f"{node.quantifier} quantifier",
                "SomeQuantifier" if node.quantifier == "SOME" else "AnyQuantifier",
                "AnyQuantifier" if node.quantifier == "SOME" else "SomeQuantifier",
            )
        self.visit(node.operand)
        self.visit(node.query)

    def _visit_ScalarSubquery(self, node: ast.ScalarSubquery) -> None:
        self.need("scalar subquery", "ScalarSubquery")
        self.visit(node.query)

    def _visit_IsDistinctFrom(self, node: ast.IsDistinctFrom) -> None:
        self.need("IS DISTINCT FROM predicate", "DistinctPredicate")
        self.visit(node.left)
        self.visit(node.right)

    def _visit_BooleanIs(self, node: ast.BooleanIs) -> None:
        self.need("boolean test", "BooleanTest")
        truth_unit = {
            True: "Truth.True", False: "Truth.False", None: "Truth.Unknown"
        }[node.truth]
        label = {True: "TRUE", False: "FALSE", None: "UNKNOWN"}[node.truth]
        self.need(f"IS {label} test", truth_unit)
        self.visit(node.operand)

    def _visit_Match(self, node: ast.Match) -> None:
        self.need("MATCH predicate", "MatchPredicate")
        if node.unique:
            self.need("MATCH UNIQUE", "Match.Unique")
        if node.option is not None:
            self.need(
                f"MATCH {node.option}", f"Match.{node.option.capitalize()}"
            )
        self.visit(node.operand)
        self.visit(node.query)

    def _visit_AtTimeZone(self, node: ast.AtTimeZone) -> None:
        self.need("AT TIME ZONE operator", "AtTimeZone")
        self.visit(node.operand)
        self.visit(node.zone)


#: AST class name -> visitor, collected once from the ``_visit_*`` methods
#: so :meth:`_Walker.visit` dispatches with one dict lookup per node.
_VISITORS = {
    name.removeprefix("_visit_"): method
    for name, method in vars(_Walker).items()
    if name.startswith("_visit_")
}

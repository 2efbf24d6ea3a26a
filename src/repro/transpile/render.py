"""Feature-aware SQL renderer over :mod:`repro.sql.ast`.

The product line composes a *parser* per dialect; this module is the
inverse direction: print an AST using only the syntax the target
dialect's selected feature units provide.  Three design rules keep the
output honest:

* **Precedence-driven parenthesization.**  Every expression node knows
  the precedence level its grammar production produces and the minimum
  level each operand position requires; parentheses are inserted exactly
  when an operand's own level is too low.  The ladder mirrors the
  composed expression grammar (``boolean_value_expression`` down to
  ``value_expression_primary``)::

      1 OR · 2 AND · 3 NOT · 4 IS-test · 5 predicate/comparison ·
      6 || · 7 + - · 8 * / · 9 unary sign · 10 primary

* **Feature-keyed syntax choices.**  Where the grammar offers
  per-feature spellings the renderer consults :class:`RenderOptions`
  — e.g. ``LIMIT n`` vs ``FETCH FIRST n ROWS ONLY`` (units ``Limit`` /
  ``FetchFirst``), ``SOME`` vs ``ANY`` (``SomeQuantifier`` /
  ``AnyQuantifier``), alias ``AS`` (``DerivedColumn.As`` /
  ``CorrelationName.As``), delimited identifiers
  (``DelimitedIdentifiers``).  Lossless degradations are recorded in
  :attr:`SqlRenderer.rewrites` so translation reports can surface them.

* **One source of truth for feature gating.**  Every construct that
  needs a feature unit passes through ``_require(construct, *units)``,
  which records a :class:`Requirement` (the units are alternatives; any
  one suffices).  A requirement the target lacks is also recorded in
  :attr:`SqlRenderer.gaps` and the walk goes on, so one pass collects
  every gap; :meth:`SqlRenderer.render` then raises
  :class:`UnrenderableNodeError` (``E0402``) for the first one instead
  of returning SQL the target parser would reject.  A node with no
  spelling at all (a FROM-less SELECT, a join whose right operand is a
  join, a non-finite numeric literal, an unknown node) raises at once.
  :func:`analyze` is a permissive render that returns the recorded
  requirements, and :func:`~repro.transpile.translate` turns the gaps
  into ``E0401``.

Rendering with default (permissive) options emits the full-dialect
surface syntax and is what the round-trip property suite exercises:
``parse ∘ render ∘ parse`` must be the identity on ASTs for every
preset dialect.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Mapping

from ..diagnostics.model import UNRENDERABLE
from ..errors import ReproError
from ..sql import ast

__all__ = [
    "CapabilityReport",
    "RenderOptions",
    "Requirement",
    "SqlRenderer",
    "UnrenderableNodeError",
    "analyze",
    "render_sql",
]


class UnrenderableNodeError(ReproError):
    """An AST node has no spelling under the selected feature units."""

    code = UNRENDERABLE

    def __init__(
        self,
        message: str,
        *,
        construct: str | None = None,
        features: tuple[str, ...] = (),
    ) -> None:
        super().__init__(message)
        #: Human label of the construct that failed to render.
        self.construct = construct or message
        #: Feature units, any one of which would make it renderable.
        self.features = tuple(features)
        self.hints = tuple(
            f"enable feature '{name}' to make this construct expressible"
            for name in self.features
        )


@dataclass(frozen=True)
class RenderOptions:
    """Target-dialect knobs for the renderer.

    ``features`` is the *resolved* selected-unit set of a composed
    product (``product.configuration.selected``); ``None`` means
    permissive — every construct may be used (full-dialect rendering).
    ``keywords`` is the target scanner's keyword vocabulary, used to
    decide when an identifier must be delimited.
    """

    features: frozenset[str] | None = None
    keywords: frozenset[str] = field(default_factory=frozenset)

    @classmethod
    def for_product(cls, product) -> "RenderOptions":
        return cls(
            features=frozenset(product.configuration.selected),
            keywords=frozenset(
                t.name for t in product.grammar.tokens if t.kind == "keyword"
            ),
        )

    def has(self, *units: str) -> bool:
        """True when any of ``units`` is selected (or options are permissive)."""
        if self.features is None:
            return True
        return any(u in self.features for u in units)


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

    def to_payload(self) -> list[dict]:
        """JSON-friendly shape for the transpile report."""
        return [
            {"construct": r.construct, "features": list(r.alternatives)}
            for r in self.requirements
        ]


def analyze(node, source_product=None) -> CapabilityReport:
    """Collect the feature requirements of ``node`` by rendering it permissively.

    ``node`` is anything :meth:`SqlRenderer.render` accepts (script,
    statement, query, expression); one with no spelling at all raises
    :class:`UnrenderableNodeError`.

    ``source_product`` (a :class:`~repro.composer.ComposedProduct`)
    sharpens :class:`~repro.sql.ast.GenericStatement` analysis: the
    statement's rule name is mapped through the product's composition
    trace to the unit that contributed the rule.
    """
    renderer = SqlRenderer(
        rule_origins=(
            source_product.rule_origins() if source_product is not None else None
        )
    )
    renderer.render(node)
    return CapabilityReport(tuple(renderer.requirements))


#: Precedence ladder; see module docstring.
_OR, _AND, _NOT, _IS, _CMP, _CONCAT, _ADD, _MUL, _UNARY, _PRIMARY = range(1, 11)

#: op -> (result level, left-operand minimum, right-operand minimum,
#: construct, feature unit)
_BINARY_OPERATORS = {
    "OR": (_OR, _OR, _AND, "OR operator", "OrOperator"),
    "AND": (_AND, _AND, _NOT, "AND operator", "AndOperator"),
    "=": (_CMP, _CONCAT, _CONCAT, "= comparison", "Comparison.Equals"),
    "<>": (_CMP, _CONCAT, _CONCAT, "<> comparison", "Comparison.NotEquals"),
    "<": (_CMP, _CONCAT, _CONCAT, "< comparison", "Comparison.Less"),
    ">": (_CMP, _CONCAT, _CONCAT, "> comparison", "Comparison.Greater"),
    "<=": (_CMP, _CONCAT, _CONCAT, "<= comparison", "Comparison.LessOrEquals"),
    ">=": (_CMP, _CONCAT, _CONCAT, ">= comparison", "Comparison.GreaterOrEquals"),
    "OVERLAPS": (_CMP, _CONCAT, _CONCAT, "OVERLAPS predicate", "OverlapsPredicate"),
    "||": (_CONCAT, _CONCAT, _ADD, "string concatenation", "Concatenation"),
    "+": (_ADD, _ADD, _MUL, "additive arithmetic", "Addition"),
    "-": (_ADD, _ADD, _MUL, "additive arithmetic", "Addition"),
    "*": (_MUL, _MUL, _UNARY, "multiplicative arithmetic", "Multiplication"),
    "/": (_MUL, _MUL, _UNARY, "multiplicative arithmetic", "Multiplication"),
}

#: Literal kind -> the unit whose token spells it.
_LITERAL_UNITS = {
    "integer": "ExactNumericLiteral",
    "numeric": "ExactNumericLiteral",
    "string": "CharacterStringLiteral",
    "nstring": "NationalStringLiteral",
    "binary": "BinaryStringLiteral",
    "ustring": "UnicodeStringLiteral",
    "boolean": "BooleanLiteral",
    "date": "DateLiteral",
    "time": "TimeLiteral",
    "timestamp": "TimestampLiteral",
    "interval": "IntervalLiteral",
}

#: Function head -> the unit that contributes its special form.
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
    "RANK": "RankFunction",
    "DENSE_RANK": "RankFunction",
    "ROW_NUMBER": "RowNumberFunction",
    "PERCENT_RANK": "PercentRankFunction",
    "CUME_DIST": "PercentRankFunction",
    "NTILE": "NtileFunction",
}

#: Data-type keyword or phrase -> the ``sql/features/data_types`` leaf
#: unit whose production spells it.
_TYPE_UNITS = {
    "CHARACTER": "FixedCharType",
    "CHAR": "FixedCharType",
    "CHARACTER VARYING": "VaryingCharType",
    "CHAR VARYING": "VaryingCharType",
    "VARCHAR": "VaryingCharType",
    "CHARACTER SET": "CharacterSetSpec",
    "NUMERIC": "Type.Numeric",
    "DECIMAL": "Type.Numeric",
    "DEC": "Type.Numeric",
    "INTEGER": "Type.Integer",
    "INT": "Type.Integer",
    "SMALLINT": "Type.Smallint",
    "BIGINT": "Type.Bigint",
    "FLOAT": "Type.Float",
    "REAL": "Type.Real",
    "DOUBLE PRECISION": "Type.Double",
    "NCHAR": "NationalCharTypes",
    "NCHAR VARYING": "NationalCharTypes",
    "NCLOB": "NationalCharTypes",
    "BOOLEAN": "BooleanType",
    "DATE": "Type.Date",
    "TIME": "Type.Time",
    "TIMESTAMP": "Type.Timestamp",
    "WITH TIME ZONE": "WithTimeZone",
    "WITHOUT TIME ZONE": "WithTimeZone",
    "INTERVAL": "IntervalType",
    "BLOB": "Type.Blob",
    "CLOB": "Type.Clob",
}

#: Parameterised type phrase -> (what its parenthesised parameters are,
#: the units whose productions spell them).  A fixed ``CHAR``'s length
#: comes with ``CharLengthSpec``, ``VaryingCharType`` or
#: ``CharacterSetSpec`` (all three carry ``char_length``); a numeric
#: precision only with ``NumericPrecisionSpec``.  The other
#: parameterised types (``VARCHAR``, ``FLOAT``, ``NCHAR``, ``TIME``,
#: ``BLOB``, ...) take their parameters in their own unit.
_CHAR_LENGTH = ("length", ("CharLengthSpec", "VaryingCharType", "CharacterSetSpec"))
_NUMERIC_PRECISION = ("precision", ("NumericPrecisionSpec",))
_TYPE_PARAMETER_UNITS = {
    "CHARACTER": _CHAR_LENGTH,
    "CHAR": _CHAR_LENGTH,
    "NUMERIC": _NUMERIC_PRECISION,
    "DECIMAL": _NUMERIC_PRECISION,
    "DEC": _NUMERIC_PRECISION,
}

#: Finds the ``_TYPE_UNITS`` phrases of a type's text, longest first, so
#: ``TIME`` inside ``WITH TIME ZONE`` is not read as a type of its own.
_TYPE_PHRASE = re.compile(
    r"\b(?:"
    + "|".join(re.escape(p) for p in sorted(_TYPE_UNITS, key=len, reverse=True))
    + r")\b"
)

_DROP_UNITS = {
    "table": "DropTable",
    "view": "DropView",
    "schema": "DropSchema",
    "domain": "DropDomain",
    "sequence": "DropSequence",
}

#: Join kind -> (construct, feature unit, keyword).
_JOINS = {
    "inner": ("INNER JOIN", "InnerJoin", "JOIN"),
    "left": ("LEFT JOIN", "LeftJoin", "LEFT JOIN"),
    "right": ("RIGHT JOIN", "RightJoin", "RIGHT JOIN"),
    "full": ("FULL JOIN", "FullJoin", "FULL JOIN"),
    "cross": ("CROSS JOIN", "CrossJoin", "CROSS JOIN"),
    "natural": ("NATURAL JOIN", "NaturalJoin", "NATURAL JOIN"),
    "union": ("UNION JOIN", "UnionJoin", "UNION JOIN"),
}

#: Boolean-test truth value -> (keyword, feature unit).
_TRUTH = {
    True: ("TRUE", "Truth.True"),
    False: ("FALSE", "Truth.False"),
    None: ("UNKNOWN", "Truth.Unknown"),
}

_MATCH_OPTIONS = {
    "SIMPLE": "Match.Simple",
    "PARTIAL": "Match.Partial",
    "FULL": "Match.Full",
}

_BARE_IDENTIFIER = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

#: Interval qualifier vocabulary, for splitting the builder's flattened
#: ``"<value> <qualifier>"`` interval literal back apart.
_INTERVAL_FIELDS = frozenset({"YEAR", "MONTH", "DAY", "HOUR", "MINUTE", "SECOND"})

#: Heads spelled without an argument list.
_BARE_FUNCTIONS = frozenset(
    {
        "CURRENT_DATE", "CURRENT_TIME", "CURRENT_TIMESTAMP",
        "LOCALTIME", "LOCALTIMESTAMP",
        "USER", "CURRENT_USER", "SESSION_USER", "SYSTEM_USER",
        "CURRENT_ROLE", "CURRENT_PATH",
    }
)


def render_sql(node, options: RenderOptions | None = None) -> str:
    """Render any AST node (script, statement, query, expression)."""
    return SqlRenderer(options).render(node)


class SqlRenderer:
    """One rendering pass; records requirements, gaps and rewrite notes.

    ``rule_origins`` (rule name -> contributing unit, the source
    product's :meth:`~repro.core.ComposedProduct.rule_origins`) gates
    :class:`~repro.sql.ast.GenericStatement`, whose text is re-emitted
    verbatim.  The lists accumulate over every call made on one renderer.
    """

    def __init__(
        self,
        options: RenderOptions | None = None,
        *,
        rule_origins: Mapping[str, str] | None = None,
    ) -> None:
        self.options = options or RenderOptions()
        #: Human-readable notes about feature-driven degradations applied
        #: during this pass (e.g. "FETCH FIRST degraded to LIMIT").
        self.rewrites: list[str] = []
        #: Every construct met so far and the units that express it, in
        #: first-occurrence order.
        self.requirements: list[Requirement] = []
        #: The requirements the target's features cannot satisfy.
        self.gaps: list[Requirement] = []
        self._rule_origins = rule_origins or {}
        self._seen: set[tuple[str, tuple[str, ...]]] = set()

    # -- entry points -------------------------------------------------------

    def render(self, node) -> str:
        """Render ``node``; raise ``E0402`` for the first gap after the walk."""
        text = self.draft(node)
        if self.gaps:
            gap = self.gaps[0]
            raise UnrenderableNodeError(
                f"{gap.construct} is not expressible in the target dialect",
                construct=gap.construct,
                features=gap.alternatives,
            )
        return text

    def draft(self, node) -> str:
        """Render ``node`` without refusing what the target lacks.

        Gaps land in :attr:`gaps` and are spelled anyway, so the text is
        target SQL only when :attr:`gaps` is empty.  A node with no
        spelling at all still raises :class:`UnrenderableNodeError`.
        """
        if isinstance(node, ast.Script):
            return self.render_script(node)
        if isinstance(node, ast.Statement):
            return self.render_statement(node)
        if isinstance(node, ast.Query):
            return self.render_query(node)
        if isinstance(node, ast.Expression):
            return self._expr(node, 0)
        raise UnrenderableNodeError(
            f"cannot render object of type {type(node).__name__}"
        )

    def render_script(self, script: ast.Script) -> str:
        return " ;\n".join(self.render_statement(s) for s in script.statements)

    # -- helpers ------------------------------------------------------------

    def _require(self, construct: str, *units: str) -> None:
        """Record that ``construct`` needs one of ``units``."""
        key = (construct, units)
        if key in self._seen:
            return
        self._seen.add(key)
        requirement = Requirement(construct, units)
        self.requirements.append(requirement)
        if not self.options.has(*units):
            self.gaps.append(requirement)

    def _falls_back(
        self, construct: str, preferred: str, fallback: str, note: str
    ) -> bool:
        """Record ``construct``; True when only ``fallback`` can spell it.

        The rewrite ``note`` is recorded when the fallback spelling is
        chosen; with neither unit selected the preferred one is kept and
        the requirement is a gap.
        """
        self._require(construct, preferred, fallback)
        if self.options.has(preferred) or not self.options.has(fallback):
            return False
        self.rewrites.append(note)
        return True

    def _ident(self, name: str) -> str:
        if len(name) >= 2 and name[0] == '"' and name[-1] == '"':
            # raw source text of a delimited identifier (builder paths
            # that keep token text verbatim); unwrap before re-quoting
            name = name[1:-1].replace('""', '"')
        if (
            _BARE_IDENTIFIER.match(name)
            and name.upper() not in self.options.keywords
        ):
            return name
        self._require(f"identifier {name!r}", "DelimitedIdentifiers")
        return '"' + name.replace('"', '""') + '"'

    def _chain(
        self, parts: tuple[str, ...], construct: str = "qualified name"
    ) -> str:
        if len(parts) > 1:
            self._require(construct, "QualifiedNames")
        return ".".join(self._ident(p) for p in parts)

    # -- expressions --------------------------------------------------------

    def _expr(self, node: ast.Expression, min_level: int) -> str:
        text, level = self._expr_with_level(node)
        if level < min_level:
            self._require("parenthesized expression", "ParenthesizedExpression")
            return f"({text})"
        return text

    def _expr_with_level(self, node: ast.Expression) -> tuple[str, int]:
        method = _EXPRESSIONS.get(type(node).__name__)
        if method is None:
            raise UnrenderableNodeError(
                f"no renderer for AST node {type(node).__name__}"
            )
        return method(self, node)

    def _render_Literal(self, node: ast.Literal) -> tuple[str, int]:
        kind, value = node.type_name, node.value
        unit = _LITERAL_UNITS.get(kind)
        if unit is not None:
            self._require(f"{kind} literal", unit)
        if kind == "integer":
            return str(value), _PRIMARY
        if kind == "numeric":
            if not math.isfinite(value):
                raise UnrenderableNodeError(
                    f"numeric literal {value!r} has no finite spelling"
                )
            # positional: an exponent would need ApproximateNumericLiteral
            text = format(Decimal(repr(float(value))), "f")
            return (text if "." in text else text + ".0"), _PRIMARY
        if kind == "string":
            return "'" + str(value).replace("'", "''") + "'", _PRIMARY
        if kind == "nstring":
            return "N'" + str(value).replace("'", "''") + "'", _PRIMARY
        if kind == "ustring":
            return "U&'" + str(value).replace("'", "''") + "'", _PRIMARY
        if kind == "binary":
            return f"X'{value}'", _PRIMARY
        if kind == "boolean":
            if value is None:
                return "UNKNOWN", _PRIMARY
            return ("TRUE" if value else "FALSE"), _PRIMARY
        if kind == "null":
            return "NULL", _PRIMARY
        if kind in ("date", "time", "timestamp"):
            return f"{kind.upper()} '" + str(value).replace("'", "''") + "'", _PRIMARY
        if kind == "interval":
            return self._render_interval(str(value)), _PRIMARY
        if kind in ("field", "trim_spec"):
            # only meaningful inside EXTRACT / TRIM argument positions
            return str(value), _PRIMARY
        # engine-constructed literal without a source kind: render by type
        if value is None:
            return "NULL", _PRIMARY
        if isinstance(value, bool):
            return ("TRUE" if value else "FALSE"), _PRIMARY
        if isinstance(value, (int, float)):
            return str(value), _PRIMARY
        return "'" + str(value).replace("'", "''") + "'", _PRIMARY

    def _render_interval(self, flattened: str) -> str:
        """Invert the builder's ``"<value> <qualifier>"`` flattening.

        The qualifier is one interval field or ``X TO Y``; both come
        from a closed keyword vocabulary, so splitting from the right is
        unambiguous unless the literal's value itself ends in a field
        name — a shape the workload generators never produce.
        """
        words = flattened.split(" ")
        if (
            len(words) >= 4
            and words[-2] == "TO"
            and words[-1] in _INTERVAL_FIELDS
            and words[-3] in _INTERVAL_FIELDS
        ):
            value, qualifier = " ".join(words[:-3]), " ".join(words[-3:])
        elif len(words) >= 2 and words[-1] in _INTERVAL_FIELDS:
            value, qualifier = " ".join(words[:-1]), words[-1]
        else:  # no recognizable qualifier; emit verbatim
            value, qualifier = flattened, ""
        quoted = "'" + value.replace("'", "''") + "'"
        return f"INTERVAL {quoted} {qualifier}".rstrip()

    def _render_Default(self, node: ast.Default) -> tuple[str, int]:
        return "DEFAULT", _PRIMARY

    def _render_ColumnRef(self, node: ast.ColumnRef) -> tuple[str, int]:
        return self._chain(node.parts, "qualified column reference"), _PRIMARY

    def _render_Star(self, node: ast.Star) -> tuple[str, int]:
        if node.table is not None:
            self._require("qualified asterisk", "QualifiedAsterisk")
            # the builder joins the qualifier chain with "."
            qualifier = ".".join(
                self._ident(p) for p in node.table.split(".")
            )
            return f"{qualifier}.*", _PRIMARY
        self._require("select-list asterisk", "Asterisk")
        return "*", _PRIMARY

    def _render_BinaryOp(self, node: ast.BinaryOp) -> tuple[str, int]:
        operator = _BINARY_OPERATORS.get(node.op)
        if operator is None:
            raise UnrenderableNodeError(f"unknown binary operator {node.op!r}")
        level, left_min, right_min, construct, unit = operator
        self._require(construct, unit)
        left = self._expr(node.left, left_min)
        right = self._expr(node.right, right_min)
        return f"{left} {node.op} {right}", level

    def _render_UnaryOp(self, node: ast.UnaryOp) -> tuple[str, int]:
        if node.op == "NOT":
            self._require("NOT operator", "NotOperator")
            return f"NOT {self._expr(node.operand, _IS)}", _NOT
        return f"{node.op} {self._expr(node.operand, _PRIMARY)}", _UNARY

    def _render_IsNull(self, node: ast.IsNull) -> tuple[str, int]:
        self._require("IS NULL predicate", "NullPredicate")
        not_kw = " NOT" if node.negated else ""
        return f"{self._expr(node.operand, _CONCAT)} IS{not_kw} NULL", _CMP

    def _render_Between(self, node: ast.Between) -> tuple[str, int]:
        self._require("BETWEEN predicate", "BetweenPredicate")
        not_kw = "NOT " if node.negated else ""
        return (
            f"{self._expr(node.operand, _CONCAT)} {not_kw}BETWEEN "
            f"{self._expr(node.low, _CONCAT)} AND {self._expr(node.high, _CONCAT)}",
            _CMP,
        )

    def _render_InList(self, node: ast.InList) -> tuple[str, int]:
        self._require("IN value list", "InValueList")
        not_kw = "NOT " if node.negated else ""
        items = ", ".join(self._expr(i, _CONCAT) for i in node.items)
        return f"{self._expr(node.operand, _CONCAT)} {not_kw}IN ({items})", _CMP

    def _render_InSubquery(self, node: ast.InSubquery) -> tuple[str, int]:
        self._require("IN subquery", "InSubquery")
        not_kw = "NOT " if node.negated else ""
        sub = self.render_query(node.query)
        return f"{self._expr(node.operand, _CONCAT)} {not_kw}IN ({sub})", _CMP

    def _render_Like(self, node: ast.Like) -> tuple[str, int]:
        if node.similar:
            self._require("SIMILAR TO predicate", "SimilarPredicate")
        else:
            self._require("LIKE predicate", "LikePredicate")
            if node.escape is not None:
                self._require("LIKE ... ESCAPE", "LikeEscape")
        not_kw = "NOT " if node.negated else ""
        verb = "SIMILAR TO" if node.similar else "LIKE"
        text = (
            f"{self._expr(node.operand, _CONCAT)} {not_kw}{verb} "
            f"{self._expr(node.pattern, _CONCAT)}"
        )
        if node.escape is not None:
            text += f" ESCAPE {self._expr(node.escape, _CONCAT)}"
        return text, _CMP

    def _render_Exists(self, node: ast.Exists) -> tuple[str, int]:
        self._require("EXISTS predicate", "ExistsPredicate")
        return f"EXISTS ({self.render_query(node.query)})", _CMP

    def _render_UniqueSubquery(self, node: ast.UniqueSubquery) -> tuple[str, int]:
        self._require("UNIQUE predicate", "UniquePredicate")
        return f"UNIQUE ({self.render_query(node.query)})", _CMP

    def _render_Quantified(self, node: ast.Quantified) -> tuple[str, int]:
        self._require("quantified comparison", "QuantifiedComparison")
        quantifier = node.quantifier
        if quantifier == "ALL":
            self._require("ALL quantifier", "AllQuantifier")
        elif quantifier == "SOME":
            if self._falls_back(
                "SOME quantifier", "SomeQuantifier", "AnyQuantifier",
                "SOME quantifier rewritten to ANY",
            ):
                quantifier = "ANY"
        elif self._falls_back(
            "ANY quantifier", "AnyQuantifier", "SomeQuantifier",
            "ANY quantifier rewritten to SOME",
        ):
            quantifier = "SOME"
        return (
            f"{self._expr(node.operand, _CONCAT)} {node.op} {quantifier} "
            f"({self.render_query(node.query)})",
            _CMP,
        )

    def _render_ScalarSubquery(self, node: ast.ScalarSubquery) -> tuple[str, int]:
        self._require("scalar subquery", "ScalarSubquery")
        return f"({self.render_query(node.query)})", _PRIMARY

    def _render_IsDistinctFrom(self, node: ast.IsDistinctFrom) -> tuple[str, int]:
        self._require("IS DISTINCT FROM predicate", "DistinctPredicate")
        not_kw = " NOT" if node.negated else ""
        return (
            f"{self._expr(node.left, _CONCAT)} IS{not_kw} DISTINCT FROM "
            f"{self._expr(node.right, _CONCAT)}",
            _CMP,
        )

    def _render_BooleanIs(self, node: ast.BooleanIs) -> tuple[str, int]:
        truth, unit = _TRUTH[node.truth]
        self._require("boolean test", "BooleanTest")
        self._require(f"IS {truth} test", unit)
        not_kw = " NOT" if node.negated else ""
        return f"{self._expr(node.operand, _CMP)} IS{not_kw} {truth}", _IS

    def _render_Match(self, node: ast.Match) -> tuple[str, int]:
        self._require("MATCH predicate", "MatchPredicate")
        parts = [self._expr(node.operand, _CONCAT), "MATCH"]
        if node.unique:
            self._require("MATCH UNIQUE", "Match.Unique")
            parts.append("UNIQUE")
        if node.option:
            self._require(f"MATCH {node.option}", _MATCH_OPTIONS[node.option])
            parts.append(node.option)
        parts.append(f"({self.render_query(node.query)})")
        return " ".join(parts), _CMP

    def _render_AtTimeZone(self, node: ast.AtTimeZone) -> tuple[str, int]:
        self._require("AT TIME ZONE operator", "AtTimeZone")
        operand = self._expr(node.operand, _PRIMARY)
        if node.zone is None:
            return f"{operand} AT LOCAL", _UNARY
        return f"{operand} AT TIME ZONE {self._expr(node.zone, _PRIMARY)}", _UNARY

    def _render_CaseExpr(self, node: ast.CaseExpr) -> tuple[str, int]:
        parts = ["CASE"]
        if node.operand is None:
            self._require("searched CASE", "SearchedCase")
        else:
            self._require("simple CASE", "SimpleCase")
            parts.append(self._expr(node.operand, _CONCAT))
        for condition, result in node.whens:
            level = _CONCAT if node.operand is not None else 0
            parts.append(
                f"WHEN {self._expr(condition, level)} "
                f"THEN {self._expr(result, 0)}"
            )
        if node.else_result is not None:
            parts.append(f"ELSE {self._expr(node.else_result, 0)}")
        parts.append("END")
        return " ".join(parts), _PRIMARY

    def _render_Cast(self, node: ast.Cast) -> tuple[str, int]:
        self._require("CAST specification", "CastSpecification")
        operand = self._expr(node.operand, 0)
        type_text = self._type_text(node.type_spec, node.type_name)
        return f"CAST({operand} AS {type_text})", _PRIMARY

    def _type_text(self, spec: ast.TypeSpec | None, fallback_name: str) -> str:
        """Spell a data type, gating each of its keywords by its leaf unit."""
        if spec is not None and spec.text:
            text = _tidy_type_text(spec.text)
        else:
            name = spec.name if spec is not None else fallback_name
            text = name.upper()
            params = spec.parameters if spec is not None else ()
            if params:
                text += f"({', '.join(str(p) for p in params)})"
        upper = text.upper()
        for match in _TYPE_PHRASE.finditer(upper):
            phrase = match.group()
            self._require(f"{phrase} type", _TYPE_UNITS[phrase])
            parameters = _TYPE_PARAMETER_UNITS.get(phrase)
            if parameters is not None and upper.startswith("(", match.end()):
                what, units = parameters
                self._require(f"{phrase} {what}", *units)
        return text

    def _render_FunctionCall(self, node: ast.FunctionCall) -> tuple[str, int]:
        name, args = node.name, node.args
        unit = _FUNCTION_UNITS.get(name)
        if unit is not None:
            self._require(f"{name} function", unit)
        if name == "NEXT VALUE FOR":
            chain = self._chain(args[0].parts)
            return f"NEXT VALUE FOR {chain}", _PRIMARY
        if name in _BARE_FUNCTIONS:
            if args and name not in (
                "USER", "CURRENT_USER", "SESSION_USER", "SYSTEM_USER",
                "CURRENT_ROLE", "CURRENT_PATH",
            ):
                # datetime head with a time precision
                return f"{name}({self._expr(args[0], 0)})", _PRIMARY
            return name, _PRIMARY
        if name == "EXTRACT":
            field_name, operand = args
            return (
                f"EXTRACT({field_name.value} FROM {self._expr(operand, 0)})",
                _PRIMARY,
            )
        if name == "SUBSTRING":
            text = f"SUBSTRING({self._expr(args[0], 0)} FROM {self._expr(args[1], 0)}"
            if len(args) > 2:
                text += f" FOR {self._expr(args[2], 0)}"
            return text + ")", _PRIMARY
        if name == "POSITION":
            return (
                f"POSITION({self._expr(args[0], 0)} IN {self._expr(args[1], 0)})",
                _PRIMARY,
            )
        if name == "OVERLAY":
            text = (
                f"OVERLAY({self._expr(args[0], 0)} PLACING "
                f"{self._expr(args[1], 0)} FROM {self._expr(args[2], 0)}"
            )
            if len(args) > 3:
                text += f" FOR {self._expr(args[3], 0)}"
            return text + ")", _PRIMARY
        if name == "TRIM":
            return self._render_trim(args), _PRIMARY
        if name in ("TRANSLATE", "CONVERT"):
            target = self._chain(args[1].parts)
            return f"{name}({self._expr(args[0], 0)} USING {target})", _PRIMARY
        rendered = ", ".join(self._expr(a, 0) for a in args)
        return f"{self._function_name(name)}({rendered})", _PRIMARY

    def _function_name(self, name: str) -> str:
        """Spell a routine name; delimit parts the scanner couldn't rescan.

        Special-form heads (COALESCE, MOD, ...) are keywords and must
        stay bare, so unlike :meth:`_ident` a keyword-shaped part is NOT
        quoted — only parts that are lexically unspeakable as plain
        identifiers (spaces, punctuation) are delimited.
        """
        parts = []
        for part in name.split("."):
            if _BARE_IDENTIFIER.match(part):
                parts.append(part)
            else:
                self._require(f"identifier {part!r}", "DelimitedIdentifiers")
                parts.append('"' + part.replace('"', '""') + '"')
        return ".".join(parts)

    def _render_trim(self, args: tuple[ast.Expression, ...]) -> str:
        spec = None
        exprs = list(args)
        if (
            exprs
            and isinstance(exprs[0], ast.Literal)
            and exprs[0].type_name == "trim_spec"
        ):
            spec = str(exprs.pop(0).value)
        if spec is not None:
            if len(exprs) == 1:
                return f"TRIM({spec} FROM {self._expr(exprs[0], 0)})"
            return (
                f"TRIM({spec} {self._expr(exprs[0], 0)} "
                f"FROM {self._expr(exprs[1], 0)})"
            )
        if len(exprs) == 2:
            return f"TRIM({self._expr(exprs[0], 0)} FROM {self._expr(exprs[1], 0)})"
        return f"TRIM({self._expr(exprs[0], 0)})"

    def _render_AggregateCall(self, node: ast.AggregateCall) -> tuple[str, int]:
        self._require("aggregate function", "AggregateFunctions")
        if node.argument is None:
            self._require("COUNT(*)", "CountStar")
            text = "COUNT(*)"
        else:
            quantifier = ""
            if node.quantifier:
                self._require("aggregate quantifier", "AggregateQuantifier")
                quantifier = f"{node.quantifier} "
            text = f"{node.function}({quantifier}{self._expr(node.argument, 0)})"
        if node.filter_condition is not None:
            self._require("FILTER clause", "FilterClause")
            text += f" FILTER (WHERE {self._expr(node.filter_condition, 0)})"
        return text, _PRIMARY

    def _render_WindowCall(self, node: ast.WindowCall) -> tuple[str, int]:
        self._require("window function", "WindowFunctions")
        if isinstance(node.function, ast.AggregateCall):
            self._require("aggregate OVER window", "AggregateOver")
        function, _ = self._expr_with_level(node.function)
        if isinstance(node.window, str):
            return f"{function} OVER {self._ident(node.window)}", _PRIMARY
        return f"{function} OVER {self._window_spec(node.window)}", _PRIMARY

    def _window_spec(self, spec: ast.WindowSpec) -> str:
        # grammar order: partition clause, existing window name, order, frame
        parts = []
        if spec.partition_by:
            self._require("PARTITION BY clause", "PartitionClause")
            parts.append(
                "PARTITION BY "
                + ", ".join(self._expr(c, _PRIMARY) for c in spec.partition_by)
            )
        if spec.existing:
            self._require("named window reference", "ExistingWindowName")
            parts.append(self._ident(spec.existing))
        if spec.order_by:
            self._require("window ORDER BY", "WindowOrderClause")
            parts.append("ORDER BY " + self._sort_specs(spec.order_by))
        if spec.frame:
            self._require("window frame clause", "FrameClause")
            parts.append(spec.frame)
        return "(" + " ".join(parts) + ")"

    # -- queries ------------------------------------------------------------

    def render_query(self, query: ast.Query) -> str:
        parts = []
        if query.ctes:
            self._require("WITH clause", "WithClause")
            if query.recursive:
                self._require("WITH RECURSIVE", "RecursiveWith")
            if len(query.ctes) > 1:
                self._require("multiple WITH elements", "With.MultipleElements")
            ctes = ", ".join(self._cte(c) for c in query.ctes)
            recursive = "RECURSIVE " if query.recursive else ""
            parts.append(f"WITH {recursive}{ctes}")
        parts.append(self._body(query.body, level="body"))
        if query.order_by:
            self._require("ORDER BY clause", "OrderBy")
            if len(query.order_by) > 1:
                self._require("multiple sort keys", "OrderBy.MultipleKeys")
            parts.append("ORDER BY " + self._sort_specs(query.order_by))
        parts.extend(self._limit_clauses(query))
        return " ".join(parts)

    def _limit_clauses(self, query: ast.Query) -> list[str]:
        fetch = False
        if query.limit is not None:
            if query.limit_style == "fetch":
                fetch = not self._falls_back(
                    "row limiting", "FetchFirst", "Limit",
                    "FETCH FIRST ... ROWS ONLY degraded to LIMIT",
                )
            else:
                fetch = self._falls_back(
                    "row limiting", "Limit", "FetchFirst",
                    "LIMIT promoted to FETCH FIRST ... ROWS ONLY",
                )
        # grammar order: LIMIT, then OFFSET, then FETCH FIRST
        parts = []
        if query.limit is not None and not fetch:
            parts.append(f"LIMIT {query.limit}")
        if query.offset is not None:
            self._require("OFFSET clause", "Offset")
            parts.append(f"OFFSET {query.offset}")
        if fetch:
            parts.append(f"FETCH FIRST {query.limit} ROWS ONLY")
        return parts

    def _cte(self, cte: ast.CommonTableExpr) -> str:
        columns = ""
        if cte.columns:
            self._require("WITH column list", "WithColumnList")
            columns = " (" + ", ".join(self._ident(c) for c in cte.columns) + ")"
        return f"{self._ident(cte.name)}{columns} AS ({self.render_query(cte.query)})"

    def _sort_specs(self, specs: tuple[ast.SortSpec, ...]) -> str:
        rendered = []
        # grammar order: sort key, ASC/DESC, NULLS ordering, COLLATE
        for spec in specs:
            text = self._expr(spec.expression, 0)
            if spec.descending:
                self._require("DESC ordering", "Descending")
                text += " DESC"
            if spec.nulls_last is not None:
                self._require("NULLS FIRST/LAST", "NullOrdering")
                if spec.nulls_last:
                    self._require("NULLS LAST", "NullsLast")
                    text += " NULLS LAST"
                else:
                    self._require("NULLS FIRST", "NullsFirst")
                    text += " NULLS FIRST"
            if spec.collation:
                self._require("COLLATE on a sort key", "CollateClause")
                text += " COLLATE " + ".".join(
                    self._ident(p) for p in spec.collation
                )
            rendered.append(text)
        return ", ".join(rendered)

    def _body(self, body: ast.QueryBody, level: str) -> str:
        """Render a query body at grammar ``level``: body > term > primary."""
        if isinstance(body, ast.SetOperation):
            return self._set_operation(body, level)
        if isinstance(body, ast.Select):
            return self._select(body)
        if isinstance(body, ast.Values):
            self._require("VALUES as a query", "TableValueConstructor")
            if len(body.rows) > 1:
                self._require("multi-row VALUES", "RowValues.MultipleElements")
            return self._values(body)
        if isinstance(body, ast.ExplicitTable):
            self._require("TABLE statement", "ExplicitTable")
            return f"TABLE {self._chain(body.parts)}"
        raise UnrenderableNodeError(
            f"cannot render query body {type(body).__name__}"
        )

    def _set_operation(self, op: ast.SetOperation, level: str) -> str:
        if op.kind in ("union", "except"):
            feature = "Union" if op.kind == "union" else "Except"
            self._require(op.kind.upper(), feature)
            if level != "body":
                self._require("nested set operation", "NestedQuery")
                return f"({self._set_operation(op, 'body')})"
            left = self._body(op.left, "body")
            right = self._body(op.right, "term")
            keyword = op.kind.upper()
        else:
            self._require("INTERSECT", "Intersect")
            if level == "primary":
                self._require("nested set operation", "NestedQuery")
                return f"({self._set_operation(op, 'term')})"
            left = self._body(op.left, "term")
            right = self._body(op.right, "primary")
            keyword = "INTERSECT"
        text = f"{left} {keyword}"
        if op.quantifier:
            self._require(
                f"set-operation {op.quantifier}",
                "SetOpQuantifier.All" if op.quantifier == "ALL"
                else "SetOpQuantifier.Distinct",
            )
            text += f" {op.quantifier}"
        if op.corresponding:
            self._require("CORRESPONDING", "Corresponding")
            text += " CORRESPONDING"
            if op.corresponding_by:
                self._require("CORRESPONDING BY", "CorrespondingBy")
                text += (
                    " BY ("
                    + ", ".join(self._ident(c) for c in op.corresponding_by)
                    + ")"
                )
        return f"{text} {right}"

    def _select(self, select: ast.Select) -> str:
        parts = ["SELECT"]
        if select.quantifier:
            self._require(
                f"SELECT {select.quantifier}",
                "SetQuantifier.DISTINCT" if select.quantifier == "DISTINCT"
                else "SetQuantifier.ALL",
            )
            parts.append(select.quantifier)
        parts.append(self._select_items(select.items))
        if select.into:
            self._require("SELECT INTO", "SelectInto")
            parts.append("INTO " + ", ".join(self._ident(i) for i in select.into))
        if not select.from_tables:
            raise UnrenderableNodeError(
                "SELECT without a FROM clause has no composed-grammar spelling",
                construct="FROM-less SELECT",
                features=("From",),
            )
        if len(select.from_tables) > 1:
            self._require("multiple FROM tables", "MultipleTables")
        parts.append(
            "FROM " + ", ".join(self._table_ref(t) for t in select.from_tables)
        )
        if select.where is not None:
            self._require("WHERE clause", "Where")
            parts.append(f"WHERE {self._expr(select.where, 0)}")
        group = self._group_by(select)
        if group:
            parts.append(group)
        if select.having is not None:
            self._require("HAVING clause", "Having")
            parts.append(f"HAVING {self._expr(select.having, 0)}")
        if select.windows:
            self._require("WINDOW clause", "Window")
            parts.append(
                "WINDOW "
                + ", ".join(
                    f"{self._ident(w.name)} AS {self._window_spec(w.spec)}"
                    for w in select.windows
                )
            )
        # grammar order: SAMPLE PERIOD, EPOCH DURATION, LIFETIME, OUTPUT ACTION
        if select.sample_period is not None:
            self._require("SAMPLE PERIOD clause", "SamplePeriod")
            parts.append(f"SAMPLE PERIOD {select.sample_period}")
        if select.epoch_duration is not None:
            self._require("EPOCH DURATION clause", "EpochDuration")
            parts.append(f"EPOCH DURATION {select.epoch_duration}")
        if select.lifetime is not None:
            self._require("LIFETIME clause", "QueryLifetime")
            parts.append(f"LIFETIME {select.lifetime}")
        if select.output_action is not None:
            self._require("OUTPUT ACTION clause", "OutputAction")
            parts.append(f"OUTPUT ACTION {self._ident(select.output_action)}")
        return " ".join(parts)

    def _select_items(self, items: tuple) -> str:
        if len(items) > 1:
            self._require("multiple select items", "SelectSublist.Multiple")
        rendered = []
        for item in items:
            if isinstance(item, ast.Star):
                text, _ = self._render_Star(item)
                rendered.append(text)
                continue
            text = self._expr(item.expression, 0)
            if item.alias is not None:
                self._require("column alias", "DerivedColumn.As")
                text += f" AS {self._ident(item.alias)}"
            rendered.append(text)
        return ", ".join(rendered)

    def _group_by(self, select: ast.Select) -> str | None:
        elements: tuple = select.grouping
        if not elements and select.group_by:
            # engine-constructed Select: reassemble from the flat view
            if select.grouping_kind is None:
                elements = tuple(select.group_by)
            else:
                elements = (
                    ast.GroupingElement(select.grouping_kind, tuple(select.group_by)),
                )
        if not elements:
            return None
        self._require("GROUP BY clause", "GroupBy")
        if len(elements) > 1:
            self._require("multiple grouping keys", "GroupBy.MultipleKeys")
        return "GROUP BY " + ", ".join(
            self._grouping_element(e) for e in elements
        )

    def _grouping_element(self, element) -> str:
        if not isinstance(element, ast.GroupingElement):
            return self._expr(element, _PRIMARY)
        if element.kind == "empty":
            self._require("empty grouping set", "EmptyGroupingSet")
            return "( )"
        columns = ", ".join(self._grouping_element(e) for e in element.elements)
        if element.kind == "rollup":
            self._require("ROLLUP grouping", "Rollup")
            return f"ROLLUP ({columns})"
        if element.kind == "cube":
            self._require("CUBE grouping", "Cube")
            return f"CUBE ({columns})"
        self._require("GROUPING SETS", "GroupingSets")
        return f"GROUPING SETS ({columns})"

    def _table_ref(self, ref) -> str:
        if isinstance(ref, ast.NamedTable):
            text = self._chain(ref.parts, "qualified table name")
            if ref.alias is not None:
                self._require("table alias", "CorrelationName")
                text += f" {self._alias(ref.alias)}"
            return text
        if isinstance(ref, ast.DerivedTable):
            self._require("derived table", "DerivedTable")
            prefix = ""
            if ref.lateral:
                self._require("LATERAL derived table", "LateralDerivedTable")
                prefix = "LATERAL "
            return (
                f"{prefix}({self.render_query(ref.query)}) {self._alias(ref.alias)}"
            )
        if isinstance(ref, ast.Join):
            return self._join(ref)
        raise UnrenderableNodeError(
            f"cannot render table reference {type(ref).__name__}"
        )

    def _alias(self, alias: str) -> str:
        if self.options.has("CorrelationName.As"):
            return f"AS {self._ident(alias)}"
        return self._ident(alias)

    def _join(self, join: ast.Join) -> str:
        if isinstance(join.right, ast.Join):
            raise UnrenderableNodeError(
                "join with a joined right operand has no grammar spelling"
            )
        kind = join.kind
        conditional = kind in ("inner", "left", "right", "full")
        if conditional and join.on is None and not join.using:
            if kind != "inner":
                raise UnrenderableNodeError(
                    f"{kind} join without a join specification",
                    construct=f"{kind} join specification",
                    features=("OnCondition", "UsingColumns"),
                )
            # inner join without ON/USING has no spelling; CROSS JOIN is
            # the lossless equivalent
            kind, conditional = "cross", False
        construct, unit, keyword = _JOINS[kind]
        self._require(construct, unit)
        text = f"{self._table_ref(join.left)} {keyword} {self._table_ref(join.right)}"
        if kind != join.kind:
            self.rewrites.append("unconditional inner join rewritten to CROSS JOIN")
        if conditional:
            text += " " + self._join_spec(join)
        return text

    def _join_spec(self, join: ast.Join) -> str:
        if join.on is not None:
            self._require("join ON condition", "OnCondition")
            return f"ON {self._expr(join.on, 0)}"
        self._require("join USING columns", "UsingColumns")
        return "USING (" + ", ".join(self._ident(c) for c in join.using) + ")"

    def _values(self, values: ast.Values) -> str:
        rows = ", ".join(
            "(" + ", ".join(self._expr(e, 0) for e in row) + ")"
            for row in values.rows
        )
        return f"VALUES {rows}"

    # -- statements ---------------------------------------------------------

    def render_statement(self, stmt: ast.Statement) -> str:
        method = _STATEMENTS.get(type(stmt).__name__)
        if method is None:
            raise UnrenderableNodeError(
                f"no renderer for statement {type(stmt).__name__}"
            )
        return method(self, stmt)

    def _stmt_QueryStatement(self, stmt: ast.QueryStatement) -> str:
        return self.render_query(stmt.query)

    def _stmt_GenericStatement(self, stmt: ast.GenericStatement) -> str:
        # reconstructed token text of a statement the engine doesn't model;
        # round-trips verbatim, gated by the unit that contributed its rule
        origin = self._rule_origins.get(stmt.kind)
        if origin:
            self._require(stmt.kind.replace("_", " "), origin)
        return stmt.text

    def _stmt_Insert(self, stmt: ast.Insert) -> str:
        self._require("INSERT statement", "Insert")
        parts = [f"INSERT INTO {self._chain(stmt.table)}"]
        if stmt.columns:
            # the unit licensing the list is the one whose production
            # carries it for this source kind: a query source's
            # ``column_list?`` comes with InsertFromQuery
            from_query = stmt.source is not None and not isinstance(
                stmt.source, ast.Values
            )
            self._require(
                "INSERT column list",
                "InsertFromQuery" if from_query else "InsertColumnList",
            )
            parts.append(
                "(" + ", ".join(self._ident(c) for c in stmt.columns) + ")"
            )
        if stmt.overriding is not None:
            self._require("OVERRIDING clause", "OverridingClause")
            parts.append(f"OVERRIDING {stmt.overriding} VALUE")
        if stmt.source is None:
            self._require("INSERT ... DEFAULT VALUES", "InsertDefaultValues")
            parts.append("DEFAULT VALUES")
        elif isinstance(stmt.source, ast.Values):
            self._require("INSERT ... VALUES", "InsertFromConstructor")
            if len(stmt.source.rows) > 1:
                self._require("multi-row INSERT", "Insert.MultiRow")
            parts.append(self._values(stmt.source))
        else:
            self._require("INSERT from query", "InsertFromQuery")
            parts.append(self.render_query(stmt.source))
        return " ".join(parts)

    def _stmt_Update(self, stmt: ast.Update) -> str:
        self._require("UPDATE statement", "Update")
        if len(stmt.assignments) > 1:
            self._require("multiple SET assignments", "Update.MultipleAssignments")
        assignments = ", ".join(
            f"{self._ident(column)} = {self._expr(value, 0)}"
            for column, value in stmt.assignments
        )
        text = f"UPDATE {self._chain(stmt.table)} SET {assignments}"
        if stmt.current_of is not None:
            self._require("UPDATE ... WHERE CURRENT OF", "PositionedUpdate")
            return f"{text} WHERE CURRENT OF {self._ident(stmt.current_of)}"
        if stmt.where is not None:
            self._require("UPDATE ... WHERE", "UpdateWhere")
            text += f" WHERE {self._expr(stmt.where, 0)}"
        return text

    def _stmt_Delete(self, stmt: ast.Delete) -> str:
        self._require("DELETE statement", "Delete")
        text = f"DELETE FROM {self._chain(stmt.table)}"
        if stmt.current_of is not None:
            self._require("DELETE ... WHERE CURRENT OF", "PositionedDelete")
            return f"{text} WHERE CURRENT OF {self._ident(stmt.current_of)}"
        if stmt.where is not None:
            self._require("DELETE ... WHERE", "DeleteWhere")
            text += f" WHERE {self._expr(stmt.where, 0)}"
        return text

    def _stmt_Merge(self, stmt: ast.Merge) -> str:
        self._require("MERGE statement", "Merge")
        parts = [f"MERGE INTO {self._chain(stmt.target)}"]
        if stmt.target_alias is not None:
            parts.append(f"AS {self._ident(stmt.target_alias)}")
        parts.append(f"USING {self._table_ref(stmt.source)}")
        parts.append(f"ON {self._expr(stmt.condition, 0)}")
        if stmt.matched_assignments:
            self._require("WHEN MATCHED clause", "WhenMatched")
            assignments = ", ".join(
                f"{self._ident(c)} = {self._expr(v, 0)}"
                for c, v in stmt.matched_assignments
            )
            parts.append(f"WHEN MATCHED THEN UPDATE SET {assignments}")
        if stmt.not_matched_values is not None:
            self._require("WHEN NOT MATCHED clause", "WhenNotMatched")
            clause = "WHEN NOT MATCHED THEN INSERT"
            if stmt.not_matched_columns:
                clause += (
                    " ("
                    + ", ".join(self._ident(c) for c in stmt.not_matched_columns)
                    + ")"
                )
            parts.append(f"{clause} {self._values(stmt.not_matched_values)}")
        return " ".join(parts)

    def _stmt_CreateTable(self, stmt: ast.CreateTable) -> str:
        self._require("CREATE TABLE statement", "CreateTable")
        parts = ["CREATE"]
        if stmt.scope is not None:
            self._require("temporary table", "TemporaryTables")
            parts.append(stmt.scope.upper())
        parts.append(f"TABLE {self._chain(stmt.name)}")
        elements = [self._column_def(c) for c in stmt.columns]
        elements.extend(self._table_constraint(c) for c in stmt.constraints)
        if stmt.constraints:
            self._require("table constraints", "TableConstraints")
        if len(elements) > 1:
            self._require(
                "multiple table elements", "CreateTable.MultipleElements"
            )
        parts.append("(" + ", ".join(elements) + ")")
        if stmt.on_commit is not None:
            self._require("ON COMMIT clause", "OnCommitRows")
            parts.append(f"ON COMMIT {stmt.on_commit.upper()} ROWS")
        return " ".join(parts)

    def _column_def(self, column: ast.ColumnDef) -> str:
        parts = [self._ident(column.name), self._type_text(column.type, column.type.name)]
        if column.default is not None:
            self._require("column DEFAULT", "ColumnDefault")
            parts.append(f"DEFAULT {self._expr(column.default, _PRIMARY)}")
        if column.identity is not None:
            self._require("identity column", "IdentityColumn")
            parts.append(
                f"GENERATED {column.identity.upper()} AS IDENTITY"
            )
        if column.not_null:
            self._require("NOT NULL constraint", "NotNullConstraint")
            parts.append("NOT NULL")
        if column.primary_key:
            self._require("column PRIMARY KEY", "ColumnPrimaryKey")
            parts.append("PRIMARY KEY")
        if column.unique:
            self._require("column UNIQUE", "ColumnUnique")
            parts.append("UNIQUE")
        if column.references is not None:
            self._require("column REFERENCES", "ColumnReferences")
            parts.append(f"REFERENCES {self._chain(column.references)}")
        if column.check is not None:
            self._require("column CHECK", "ColumnCheck")
            parts.append(f"CHECK ({self._expr(column.check, 0)})")
        return " ".join(parts)

    def _table_constraint(self, constraint: ast.TableConstraint) -> str:
        if constraint.kind == "check":
            self._require("table CHECK", "TableCheck")
            return f"CHECK ({self._expr(constraint.check, 0)})"
        columns = "(" + ", ".join(self._ident(c) for c in constraint.columns) + ")"
        if constraint.kind == "primary key":
            self._require("table PRIMARY KEY", "TablePrimaryKey")
            return f"PRIMARY KEY {columns}"
        if constraint.kind == "unique":
            self._require("table UNIQUE", "TableUnique")
            return f"UNIQUE {columns}"
        self._require("FOREIGN KEY constraint", "TableForeignKey")
        text = (
            f"FOREIGN KEY {columns} REFERENCES "
            f"{self._chain(constraint.references_table)}"
        )
        if constraint.references_columns:
            text += (
                " ("
                + ", ".join(self._ident(c) for c in constraint.references_columns)
                + ")"
            )
        if constraint.on_delete is not None:
            text += f" ON DELETE {constraint.on_delete.upper()}"
        if constraint.on_update is not None:
            text += f" ON UPDATE {constraint.on_update.upper()}"
        return text

    def _stmt_CreateView(self, stmt: ast.CreateView) -> str:
        self._require("CREATE VIEW statement", "CreateView")
        parts = ["CREATE"]
        if stmt.recursive:
            self._require("recursive view", "RecursiveView")
            parts.append("RECURSIVE")
        parts.append(f"VIEW {self._chain(stmt.name)}")
        if stmt.columns:
            self._require("view column list", "ViewColumnList")
            parts.append(
                "(" + ", ".join(self._ident(c) for c in stmt.columns) + ")"
            )
        parts.append(f"AS {self.render_query(stmt.query)}")
        if stmt.check_option:
            self._require("WITH CHECK OPTION", "CheckOption")
            parts.append("WITH CHECK OPTION")
        return " ".join(parts)

    def _stmt_DropStatement(self, stmt: ast.DropStatement) -> str:
        unit = _DROP_UNITS.get(stmt.kind)
        if unit is not None:
            self._require(f"DROP {stmt.kind.upper()} statement", unit)
        text = f"DROP {stmt.kind.upper()} {self._chain(stmt.name)}"
        if stmt.behavior is not None:
            text += f" {stmt.behavior.upper()}"
        return text

    def _stmt_Commit(self, stmt: ast.Commit) -> str:
        self._require("COMMIT statement", "Commit")
        return "COMMIT"

    def _stmt_Rollback(self, stmt: ast.Rollback) -> str:
        self._require("ROLLBACK statement", "Rollback")
        if stmt.savepoint is not None:
            self._require("ROLLBACK TO SAVEPOINT", "Savepoints")
            return f"ROLLBACK TO SAVEPOINT {self._ident(stmt.savepoint)}"
        return "ROLLBACK"

    def _stmt_Savepoint(self, stmt: ast.Savepoint) -> str:
        self._require("SAVEPOINT statement", "Savepoints")
        return f"SAVEPOINT {self._ident(stmt.name)}"

    def _stmt_ReleaseSavepoint(self, stmt: ast.ReleaseSavepoint) -> str:
        self._require("RELEASE SAVEPOINT statement", "ReleaseSavepoint")
        return f"RELEASE SAVEPOINT {self._ident(stmt.name)}"


def _tidy_type_text(text: str) -> str:
    """Normalize the space-joined token text of a data-type spec."""
    text = re.sub(r"\s*\(\s*", "(", text)
    text = re.sub(r"\s*\)", ")", text)
    return re.sub(r"\s*,\s*", ", ", text)


def _methods(prefix: str) -> dict:
    """AST class name -> ``SqlRenderer`` method, for one method prefix."""
    return {
        name.removeprefix(prefix): method
        for name, method in vars(SqlRenderer).items()
        if name.startswith(prefix)
    }


#: Dispatch tables, collected once so rendering a node costs one dict
#: lookup instead of formatting a method name and calling ``getattr``.
_EXPRESSIONS = _methods("_render_")
_STATEMENTS = _methods("_stmt_")

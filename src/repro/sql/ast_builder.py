"""Parse-tree → AST construction.

The paper generates parsers for composed grammars and implements semantic
actions separately (with Jak in AHEAD); here the "semantic actions" are
the builder functions in this module.  They are keyed by grammar rule
name, so a tailored dialect — which only ever produces the parse-tree
nodes of its selected features — automatically gets exactly the semantic
actions it needs.

A parse tree keeps no node for a rule activation whose only child is a
node (:mod:`repro.parsing.tree`): a column reference in a ``WHERE``
clause arrives as the ``identifier`` under ``where_clause``, not fifteen
nodes below it.  So a builder takes a child by its *role* (the only
node of ``where_clause``, the second node of ``set_clause``), and a
rule that can pass through is looked up by name only where its own node
is the one that survives (a ``case_result`` node is the ``NULL``
alternative; a value arrives as its expression).

Use::

    from repro.sql import build_ast
    script = build_ast(parser.parse(sql_text))
"""

from __future__ import annotations

from ..lexer.token import Token
from ..parsing.tree import Node
from . import ast

__all__ = ["build_ast", "AstBuilder"]


def build_ast(tree: Node) -> ast.Script | ast.Statement | ast.Query | ast.Expression:
    """Build the AST for a parse tree rooted at any known rule."""
    return AstBuilder().build(tree)


def _token_texts(node: Node) -> list[str]:
    return [c.type for c in node.children if isinstance(c, Token)]


def _items(node: Node, list_rule: str) -> list[Node]:
    """The items of a ``list_rule : item (COMMA item)*`` position.

    A list of one item passes through, so the position holds the item.
    """
    return node.node_children() if node.name == list_rule else [node]


def _others(node: Node, *names: str) -> list[Node]:
    """The node children of ``node`` not named any of ``names``."""
    return [c for c in node if isinstance(c, Node) and c.name not in names]


def _name(node: Node) -> str:
    """The identifier text of a name position (``identifier``, or
    ``AS? identifier`` when the ``AS`` keeps its node)."""
    if node.name != "identifier":
        node = node.node_children()[0]
    return node.text()


def _identifier(node: Node) -> str:
    """One ``identifier`` node's name, a delimited one unquoted."""
    token = next(iter(node.tokens()))
    if token.type == "QUOTED_IDENTIFIER":
        return token.text[1:-1].replace('""', '"')
    return token.text


#: The rules a query statement can arrive as: ``query_expression`` and the
#: rules it passes through to.
_QUERY_RULES = frozenset(
    {
        "query_expression",
        "query_expression_body",
        "query_term",
        "query_primary",
        "query_specification",
        "table_value_constructor",
    }
)


class AstBuilder:
    """Stateless recursive builder: one method per interesting rule."""

    # -- dispatch ----------------------------------------------------------

    def build(self, node: Node):
        method = _BUILDERS.get(node.name)
        if method is not None:
            return method(self, node)
        # a rule without a builder whose one node child carries the
        # meaning (a start-rule root such as value_expression, RETURN x)
        kids = node.node_children()
        if len(kids) == 1:
            return self.build(kids[0])
        raise NotImplementedError(
            f"no AST builder for rule {node.name!r} "
            f"(children: {[c.name if isinstance(c, Node) else c.type for c in node.children]})"
        )

    # -- script / statements --------------------------------------------------

    def _build_sql_script(self, node: Node) -> ast.Script:
        # sql_statement always passes through: the children are statements
        return ast.Script(tuple(self._statement(s) for s in node.node_children()))

    def _statement(self, node: Node) -> ast.Statement:
        query = node.name in _QUERY_RULES
        # a query statement is sql_statement's query_expression alternative
        kind = "query_expression" if query else node.name
        try:
            built = self._query(node) if query else self.build(node)
        except NotImplementedError:
            # parsed but not executable: GRANT, SET SCHEMA, ALTER, ...
            return ast.GenericStatement(kind, node.text())
        if isinstance(built, ast.Query):
            return ast.QueryStatement(built)
        if isinstance(built, ast.Statement):
            return built
        return ast.GenericStatement(kind, node.text())

    # -- queries ------------------------------------------------------------------

    def _build_query_expression(self, node: Node) -> ast.Query:
        ctes: tuple[ast.CommonTableExpr, ...] = ()
        recursive = False
        with_node = node.child("with_clause")
        if with_node is not None:
            # only this clause's direct elements: find_all would descend
            # into nested WITH clauses inside the CTE bodies
            ctes = tuple(
                self._build_with_element(e)
                for e in _items(with_node.node_children()[0], "with_list")
            )
            recursive = with_node.has_token("RECURSIVE")
        body = self.build(_others(node, "with_clause")[0])
        order_by: tuple[ast.SortSpec, ...] = ()
        ob = node.child("order_by_clause")
        if ob is not None:
            order_by = self._build_order_by(ob)
        limit = offset = limit_style = None
        limit_node = node.child("limit_clause")
        if limit_node is not None:
            limit = int(limit_node.token("UNSIGNED_INTEGER").text)
            limit_style = "limit"
        offset_node = node.child("offset_clause")
        if offset_node is not None:
            offset = int(offset_node.token("UNSIGNED_INTEGER").text)
        fetch_node = node.child("fetch_first_clause")
        if fetch_node is not None:
            limit = int(fetch_node.token("UNSIGNED_INTEGER").text)
            limit_style = "fetch"
        return ast.Query(
            body=body,
            ctes=ctes,
            recursive=recursive,
            order_by=order_by,
            limit=limit,
            offset=offset,
            limit_style=limit_style,
        )

    def _build_with_element(self, node: Node) -> ast.CommonTableExpr:
        name = node.child("identifier").text()
        columns = self._column_list(node.child("column_list"))
        return ast.CommonTableExpr(
            name=name,
            columns=columns,
            query=self._query(node.node_children()[-1]),
        )

    def _build_query_expression_body(self, node: Node) -> ast.QueryBody:
        return self._fold_set_ops(node, op_rule="union_or_except")

    def _build_query_term(self, node: Node) -> ast.QueryBody:
        return self._fold_set_ops(node, op_rule=None)  # INTERSECT tokens

    def _fold_set_ops(self, node: Node, op_rule: str | None) -> ast.QueryBody:
        result: ast.QueryBody | None = None
        pending_op: str | None = None
        pending_quant: str | None = None
        pending_corr = False
        pending_corr_by: tuple[str, ...] = ()
        for child in node.children:
            if isinstance(child, Token):
                if child.type == "INTERSECT":
                    pending_op = "intersect"
                continue
            if op_rule is not None and child.name == op_rule:
                pending_op = child.text().lower()
                continue
            if child.name == "set_op_quantifier":
                pending_quant = child.text().upper()
                continue
            if child.name == "corresponding_spec":
                pending_corr = True
                pending_corr_by = self._column_list(child.child("column_list"))
                continue
            operand = self.build(child)
            if result is None:
                result = operand
            else:
                result = ast.SetOperation(
                    kind=pending_op or "union",
                    quantifier=pending_quant,
                    left=result,
                    right=operand,
                    corresponding=pending_corr,
                    corresponding_by=pending_corr_by,
                )
                pending_op = pending_quant = None
                pending_corr, pending_corr_by = False, ()
        assert result is not None
        return result

    def _build_query_primary(self, node: Node) -> ast.QueryBody:
        if node.has_token("TABLE"):
            return ast.ExplicitTable(self._chain(node.node_children()[0]))
        kids = node.node_children()
        built = self.build(kids[0])
        if isinstance(built, ast.Query):
            return built.body
        return built

    def _build_query_specification(self, node: Node) -> ast.Select:
        quantifier = None
        quant_node = node.child("set_quantifier")
        if quant_node is not None:
            quantifier = quant_node.text().upper()
        items = self._build_select_list(_others(node, "set_quantifier")[0])
        from_tables: tuple = ()
        where = having = None
        group_by: tuple = ()
        grouping_kind = None
        grouping: tuple = ()
        windows: tuple = ()
        # table_expression passes through to a lone from_clause
        te = node.child("table_expression") or node
        if te.child("from_clause") is not None:
            from_tables = self._build_from(te.child("from_clause"))
            wc = te.child("where_clause")
            if wc is not None:
                where = self.build(wc.node_children()[0])
            gb = te.child("group_by_clause")
            if gb is not None:
                group_by, grouping_kind, grouping = self._build_group_by(gb)
            hv = te.child("having_clause")
            if hv is not None:
                having = self.build(hv.node_children()[0])
            wd = te.child("window_clause")
            if wd is not None:
                windows = tuple(
                    ast.WindowDef(
                        name=d.child("identifier").text(),
                        spec=self._build_window_spec(d.child("window_specification")),
                    )
                    for d in wd.children_named("window_definition")
                )

        def _int_clause(rule: str) -> int | None:
            clause = node.child(rule)
            if clause is None:
                return None
            return int(clause.token("UNSIGNED_INTEGER").text)

        into: tuple[str, ...] = ()
        into_node = node.child("into_clause")
        if into_node is not None:
            into = tuple(i.text() for i in into_node.children_named("identifier"))
        output_action = None
        oa = node.child("output_action_clause")
        if oa is not None:
            output_action = oa.child("identifier").text()
        return ast.Select(
            items=items,
            from_tables=from_tables,
            quantifier=quantifier,
            where=where,
            group_by=group_by,
            grouping_kind=grouping_kind,
            having=having,
            windows=windows,
            sample_period=_int_clause("sample_period_clause"),
            epoch_duration=_int_clause("epoch_duration_clause"),
            lifetime=_int_clause("lifetime_clause"),
            output_action=output_action,
            into=into,
            grouping=grouping,
        )

    def _build_select_list(self, node: Node) -> tuple:
        if node.name == "select_list" and node.has_token("ASTERISK"):
            return (ast.Star(),)
        items = []
        for sub in _items(node, "select_list"):
            if sub.name == "qualified_asterisk":
                items.append(ast.Star(table=".".join(self._chain(sub.node_children()[0]))))
                continue
            alias = None
            if sub.name == "derived_column":  # the alias keeps its node
                sub, as_clause = sub.node_children()
                alias = _name(as_clause)
            items.append(ast.SelectItem(self.build(sub), alias))
        return tuple(items)

    def _build_from(self, node: Node) -> tuple:
        return tuple(
            self._build_table_reference(tr)
            for tr in _items(node.node_children()[0], "table_reference_list")
        )

    def _build_table_reference(self, node: Node) -> ast.TableRef:
        """A table reference: a ``table_reference`` node when it has joins,
        else its table primary."""
        if node.name != "table_reference":
            return self._build_table_primary(node)
        primary, *suffixes = node.node_children()
        result = self._build_table_primary(primary)
        for suffix in suffixes:
            result = self._apply_join(result, suffix)
        return result

    def _build_table_primary(self, node: Node) -> ast.TableRef:
        """A ``table_primary`` node (an alias or a subquery), else a table name."""
        if node.name != "table_primary":
            return ast.NamedTable(self._chain(node))
        source, *correlation = node.node_children()
        alias = _name(correlation[0]) if correlation else None
        if source.name == "table_subquery":
            return ast.DerivedTable(
                query=self._subquery(source),
                alias=alias or "?",
                lateral=node.has_token("LATERAL"),
            )
        return ast.NamedTable(self._chain(source), alias=alias)

    def _apply_join(self, left: ast.TableRef, suffix: Node) -> ast.Join:
        tokens = _token_texts(suffix)
        if "CROSS" in tokens:
            kind = "cross"
        elif "NATURAL" in tokens:
            kind = "natural"
        elif "UNION" in tokens:
            kind = "union"
        else:
            ojt = suffix.child("outer_join_type")
            kind = ojt.text().lower() if ojt is not None else "inner"
        right = self._build_table_primary(
            _others(suffix, "outer_join_type", "join_specification")[0]
        )
        on = None
        using: tuple[str, ...] = ()
        spec = suffix.child("join_specification")
        if spec is not None:
            if spec.has_token("ON"):
                on = self.build(spec.node_children()[0])
            else:
                using = self._column_list(spec.child("column_list"))
        return ast.Join(kind=kind, left=left, right=right, on=on, using=using)

    def _build_group_by(self, node: Node) -> tuple[tuple, str | None, tuple]:
        exprs: list = []
        kind = None
        structured = []
        for element in _items(node.node_children()[0], "grouping_element_list"):
            built = self._build_grouping_element(element)
            structured.append(built)
            if isinstance(built, ast.GroupingElement):
                if built.kind == "empty":
                    continue  # "( )" contributes no expressions
                kind = built.kind
                exprs.extend(self._flatten_grouping(built))
            else:
                exprs.append(built)
        return tuple(exprs), kind, tuple(structured)

    def _build_grouping_element(self, element: Node):
        if element.name != "grouping_element":  # a column reference
            return self.build(element)
        tokens = _token_texts(element)
        if "ROLLUP" in tokens or "CUBE" in tokens:
            cols = tuple(
                self.build(c)
                for c in _items(element.node_children()[0], "column_reference_list")
            )
            return ast.GroupingElement(
                "rollup" if "ROLLUP" in tokens else "cube", cols
            )
        if "GROUPING" in tokens:
            inner = tuple(
                self._build_grouping_element(e)
                for e in _items(element.node_children()[0], "grouping_element_list")
            )
            return ast.GroupingElement("grouping sets", inner)
        return ast.GroupingElement("empty")

    def _flatten_grouping(self, element: ast.GroupingElement) -> list:
        out: list = []
        for sub in element.elements:
            if isinstance(sub, ast.GroupingElement):
                out.extend(self._flatten_grouping(sub))
            else:
                out.append(sub)
        return out

    def _build_order_by(self, node: Node) -> tuple[ast.SortSpec, ...]:
        specs = []
        # only this clause's direct sort keys: find_all would descend into
        # subqueries inside the key expressions and collect their ORDER BYs
        for spec in _items(node.node_children()[0], "sort_specification_list"):
            if spec.name != "sort_specification":  # a bare key expression
                specs.append(ast.SortSpec(expression=self.build(spec)))
                continue
            descending = False
            direction = spec.child("ordering_specification")
            if direction is not None:
                descending = direction.has_token("DESC")
            nulls_last = None
            nulls = spec.child("null_ordering")
            if nulls is not None:
                nulls_last = nulls.has_token("LAST")
            collation: tuple[str, ...] = ()
            collate = spec.child("collate_clause")
            if collate is not None:
                collation = self._chain(collate.node_children()[0])
            specs.append(
                ast.SortSpec(
                    expression=self.build(spec.node_children()[0]),
                    descending=descending,
                    nulls_last=nulls_last,
                    collation=collation,
                )
            )
        return tuple(specs)

    def _build_window_spec(self, node: Node) -> ast.WindowSpec:
        partition: tuple = ()
        pc = node.child("partition_clause")
        if pc is not None:
            partition = tuple(
                self.build(c)
                for c in _items(pc.node_children()[0], "column_reference_list")
            )
        order_by: tuple = ()
        ob = node.child("order_by_clause")
        if ob is not None:
            order_by = self._build_order_by(ob)
        frame = None
        fc = node.child("frame_clause")
        if fc is not None:
            frame = fc.text()
        existing = None
        ewn = node.child("identifier")  # existing_window_name passes through
        if ewn is not None:
            existing = ewn.text()
        return ast.WindowSpec(
            partition_by=partition, order_by=order_by, frame=frame, existing=existing
        )

    def _build_table_value_constructor(self, node: Node) -> ast.Values:
        rows = []
        for rvc in node.children_named("row_value_constructor"):
            row = []
            for element in rvc.node_children():
                if element.name != "row_value_element":  # a value
                    row.append(self.build(element))
                elif element.has_token("NULL"):
                    row.append(ast.NULL)
                else:
                    row.append(ast.Default())
            rows.append(tuple(row))
        return ast.Values(tuple(rows))

    # -- expressions ----------------------------------------------------------------

    def _build_boolean_value_expression(self, node: Node):
        return self._fold_binary(node, {"OR": "OR"})

    def _build_boolean_term(self, node: Node):
        return self._fold_binary(node, {"AND": "AND"})

    def _build_boolean_factor(self, node: Node):
        inner = self.build(node.node_children()[0])
        if node.has_token("NOT"):
            return ast.UnaryOp("NOT", inner)
        return inner

    _TRUTH = {"TRUE": True, "FALSE": False, "UNKNOWN": None}

    def _build_boolean_test(self, node: Node):
        operand = self.build(node.node_children()[0])
        truth_node = node.child("truth_value")
        if truth_node is None:
            return operand
        return ast.BooleanIs(
            operand=operand,
            truth=self._TRUTH[truth_node.text().upper()],
            negated=node.has_token("NOT"),
        )

    def _build_predicate(self, node: Node):
        if node.has_token("EXISTS"):
            return ast.Exists(self._subquery(node.child("table_subquery")))
        if node.has_token("UNIQUE"):
            return ast.UniqueSubquery(self._subquery(node.child("table_subquery")))
        operand = self.build(node.node_children()[0])
        suffix = node.child("predicate_suffix")
        if suffix is None:
            return operand
        return self._apply_predicate_suffix(operand, suffix)

    def _apply_predicate_suffix(self, operand, suffix: Node):
        tokens = _token_texts(suffix)
        negated = "NOT" in tokens
        if "BETWEEN" in tokens:
            low, high = [
                self.build(c) for c in _others(suffix, "between_symmetry")
            ]
            return ast.Between(operand, low, high, negated=negated)
        if "IN" in tokens:
            value = suffix.node_children()[0]
            if value.name == "table_subquery":  # in_predicate_value passed
                return ast.InSubquery(operand, self._subquery(value), negated=negated)
            items = tuple(self.build(c) for c in value.node_children())
            return ast.InList(operand, items, negated=negated)
        if "LIKE" in tokens:
            exprs = [self.build(c) for c in suffix.node_children()]
            pattern = exprs[0]
            escape = exprs[1] if len(exprs) > 1 else None
            return ast.Like(operand, pattern, escape=escape, negated=negated)
        if "NULL" in tokens:
            return ast.IsNull(operand, negated=negated)
        if "DISTINCT" in tokens and "FROM" in tokens:
            right = self.build(suffix.node_children()[0])
            return ast.IsDistinctFrom(operand, right, negated=negated)
        if "OVERLAPS" in tokens:
            right = self.build(suffix.node_children()[0])
            return ast.BinaryOp("OVERLAPS", operand, right)
        if "SIMILAR" in tokens:
            pattern = self.build(suffix.node_children()[0])
            return ast.Like(operand, pattern, negated=negated, similar=True)
        if "MATCH" in tokens:
            option_node = suffix.child("match_option")
            return ast.Match(
                operand=operand,
                query=self._subquery(suffix.child("table_subquery")),
                unique="UNIQUE" in tokens,
                option=option_node.text().upper() if option_node is not None else None,
            )
        # comparison / quantified comparison
        comp = suffix.child("comp_op")
        if comp is None:
            raise NotImplementedError(f"predicate suffix with tokens {tokens!r}")
        op = comp.text()
        quant = suffix.child("quantifier")
        if quant is not None:
            return ast.Quantified(
                op=op,
                quantifier=quant.text().upper(),
                operand=operand,
                query=self._subquery(suffix.child("table_subquery")),
            )
        right = self.build(suffix.node_children()[-1])
        return ast.BinaryOp(op, operand, right)

    def _build_common_value_expression(self, node: Node):
        return self._fold_binary(node, {"CONCAT": "||"})

    def _build_additive_expression(self, node: Node):
        return self._fold_binary(node, {"PLUS": "+", "MINUS": "-"})

    def _build_multiplicative_expression(self, node: Node):
        return self._fold_binary(node, {"ASTERISK": "*", "SOLIDUS": "/"})

    def _build_factor(self, node: Node):
        inner = self.build(node.node_children()[0])
        tz = node.child("at_time_zone")
        if tz is not None:
            zone = tz.node_children()  # none for AT LOCAL
            inner = ast.AtTimeZone(inner, self.build(zone[0]) if zone else None)
        if node.has_token("MINUS"):
            return ast.UnaryOp("-", inner)
        if node.has_token("PLUS"):
            return ast.UnaryOp("+", inner)
        return inner

    def _fold_binary(self, node: Node, ops: dict[str, str]):
        result = None
        pending: str | None = None
        for child in node.children:
            if isinstance(child, Token):
                if child.type in ops:
                    pending = ops[child.type]
                continue
            built = self.build(child)
            if result is None:
                result = built
            else:
                result = ast.BinaryOp(pending or "?", result, built)
                pending = None
        return result

    def _build_value_expression_primary(self, node: Node):
        tokens = _token_texts(node)
        head = tokens[0] if tokens else None
        if head == "LPAREN":
            return self.build(node.node_children()[0])
        if head == "CAST":
            operand_node, type_node = node.node_children()
            # a cast_operand node survives only as its NULL alternative
            if operand_node.name == "cast_operand":
                operand = ast.NULL
            else:
                operand = self.build(operand_node)
            type_spec = self._build_data_type(type_node)
            return ast.Cast(operand, type_spec.name, type_spec=type_spec)
        if head in _FUNCTION_HEADS:
            return self._build_head_function(node, tokens)
        if head == "NEXT":
            return ast.FunctionCall(
                "NEXT VALUE FOR",
                (ast.ColumnRef(self._chain(node.node_children()[0])),),
            )
        # the node-only alternatives pass through, so a primary node here
        # is keyword-headed; a form nobody claimed: refuse loudly instead of
        # silently returning the first operand (the statement degrades to
        # a GenericStatement upstream).
        raise NotImplementedError(f"primary with tokens {tokens!r}")

    def _build_head_function(self, node: Node, tokens: list[str]):
        head = tokens[0]
        if head in ("CURRENT_DATE", "CURRENT_TIME", "CURRENT_TIMESTAMP",
                    "LOCALTIME", "LOCALTIMESTAMP"):
            tp = node.child("time_precision")
            if tp is not None:
                precision = int(tp.token("UNSIGNED_INTEGER").text)
                return ast.FunctionCall(head, (ast.Literal(precision, "integer"),))
            return ast.FunctionCall(head)
        if head in _ZERO_ARG_HEADS:
            return ast.FunctionCall(head)
        if head == "EXTRACT":
            field, value = node.node_children()
            return ast.FunctionCall(
                "EXTRACT",
                (ast.Literal(field.text().upper(), "field"), self.build(value)),
            )
        if head == "TRIM":
            operands = node.node_children()[0]
            if operands.name != "trim_operands":  # TRIM(x) passes through
                return ast.FunctionCall("TRIM", (self.build(operands),))
            exprs: tuple[ast.Expression, ...] = tuple(
                self.build(c) for c in _others(operands, "trim_specification")
            )
            spec = operands.child("trim_specification")
            if spec is not None:
                exprs = (ast.Literal(spec.text().upper(), "trim_spec"), *exprs)
            return ast.FunctionCall("TRIM", exprs)
        if head in ("TRANSLATE", "CONVERT"):
            value, name = node.node_children()
            return ast.FunctionCall(
                head, (self.build(value), ast.ColumnRef(self._chain(name)))
            )
        if head in ("CEILING", "CEIL"):
            head = "CEILING"
        if head in ("CHAR_LENGTH", "CHARACTER_LENGTH"):
            head = "CHAR_LENGTH"
        # every node child is an argument (GROUPING's is a column reference)
        exprs = tuple(self.build(c) for c in node.node_children())
        return ast.FunctionCall(head, exprs)

    def _build_general_value_expression(self, node: Node):
        # without routine_args the node passes through to its reference
        name, args_node = node.node_children()
        args = tuple(self.build(c) for c in args_node.node_children())
        return ast.FunctionCall(".".join(self._chain(name)).upper(), args)

    # column_reference and general_value_expression pass through: a
    # column reference arrives as its identifier or identifier chain

    def _build_identifier(self, node: Node):
        return ast.ColumnRef((_identifier(node),))

    def _build_identifier_chain(self, node: Node):
        return ast.ColumnRef(self._chain(node))

    def _build_unsigned_literal(self, node: Node):
        token = next(iter(node.tokens()))
        text = token.text
        kind = token.type
        if kind == "UNSIGNED_INTEGER":
            return ast.Literal(int(text), "integer")
        if kind == "DECIMAL_LITERAL" or kind == "APPROXIMATE_LITERAL":
            return ast.Literal(float(text), "numeric")
        if kind == "STRING_LITERAL":
            return ast.Literal(text[1:-1].replace("''", "'"), "string")
        if kind == "NATIONAL_STRING_LITERAL":
            return ast.Literal(text[2:-1].replace("''", "'"), "nstring")
        if kind == "BINARY_STRING_LITERAL":
            return ast.Literal(text[2:-1], "binary")
        if kind == "UNICODE_STRING_LITERAL":
            return ast.Literal(text[3:-1].replace("''", "'"), "ustring")
        if kind in ("TRUE", "FALSE"):
            return ast.Literal(kind == "TRUE", "boolean")
        if kind == "UNKNOWN":
            return ast.Literal(None, "boolean")
        if kind in ("DATE", "TIME", "TIMESTAMP"):
            value = node.token("STRING_LITERAL").text[1:-1].replace("''", "'")
            return ast.Literal(value, kind.lower())
        if kind == "INTERVAL":
            value = node.token("STRING_LITERAL").text[1:-1].replace("''", "'")
            qualifier = node.node_children()[0].text().upper()
            return ast.Literal(f"{value} {qualifier}", "interval")
        raise NotImplementedError(f"literal token {kind!r}")

    def _build_case_expression(self, node: Node):
        tokens = _token_texts(node)
        if "NULLIF" in tokens:
            a, b = [self.build(c) for c in node.node_children()]
            return ast.FunctionCall("NULLIF", (a, b))
        if "COALESCE" in tokens:
            return ast.FunctionCall(
                "COALESCE", tuple(self.build(c) for c in node.node_children())
            )
        operand = None
        whens = []
        first = node.node_children()[0]
        if first.name not in ("simple_when_clause", "searched_when_clause"):
            operand = self.build(first)
        for when in node.children_named("simple_when_clause"):
            condition, result = when.node_children()
            whens.append((self.build(condition), self._case_result(result)))
        for when in node.children_named("searched_when_clause"):
            condition, result = when.node_children()
            whens.append((self.build(condition), self._case_result(result)))
        else_result = None
        else_node = node.child("else_clause")
        if else_node is not None:
            else_result = self._case_result(else_node.node_children()[0])
        return ast.CaseExpr(operand, tuple(whens), else_result)

    def _case_result(self, node: Node):
        # a case_result node survives only as its NULL alternative
        if node.name == "case_result":
            return ast.NULL
        return self.build(node)

    def _build_aggregate_function(self, node: Node):
        filter_condition = None
        fc = node.child("filter_clause")
        if fc is not None:
            filter_condition = self.build(fc.node_children()[0])
        if node.has_token("ASTERISK"):
            return ast.AggregateCall(
                "COUNT", None, filter_condition=filter_condition
            )
        function = node.child("set_function_type").text().upper()
        quantifier = None
        quant_node = node.child("aggregate_quantifier")
        if quant_node is not None:
            quantifier = quant_node.text().upper()
        value = _others(
            node, "set_function_type", "aggregate_quantifier", "filter_clause"
        )[0]
        return ast.AggregateCall(
            function,
            self.build(value),
            quantifier=quantifier,
            filter_condition=filter_condition,
        )

    def _build_window_function(self, node: Node):
        wft, target = node.node_children()
        if wft.name == "aggregate_function":  # window_function_type passed
            function = self.build(wft)
        else:
            args = wft.node_children()  # NTILE's bucket count
            function = ast.FunctionCall(
                _token_texts(wft)[0], tuple(self.build(a) for a in args)
            )
        # window_name_or_spec passes through to a name or a specification
        window: str | ast.WindowSpec
        if target.name == "window_specification":
            window = self._build_window_spec(target)
        else:
            window = target.text()
        return ast.WindowCall(function=function, window=window)

    def _build_table_subquery(self, node: Node):
        return ast.ScalarSubquery(self._subquery(node))

    # -- DML --------------------------------------------------------------------

    def _build_insert_statement(self, node: Node) -> ast.Insert:
        name, source_node = node.node_children()
        table = self._chain(name)
        columns: tuple[str, ...] = ()
        overriding = None
        source = source_node
        if source_node.name == "insert_columns_and_source":
            # else it passed through to its table value constructor or query
            columns = self._column_list(source_node.child("column_list"))
            oc = source_node.child("overriding_clause")
            if oc is not None:
                overriding = "USER" if oc.has_token("USER") else "SYSTEM"
            if source_node.has_token("DEFAULT"):
                return ast.Insert(table, columns, None, overriding=overriding)
            source = source_node.node_children()[-1]
        if source.name == "table_value_constructor":
            return ast.Insert(
                table,
                columns,
                self._build_table_value_constructor(source),
                overriding=overriding,
            )
        return ast.Insert(table, columns, self._query(source), overriding=overriding)

    def _build_update_statement(self, node: Node) -> ast.Update:
        where = None
        wc = node.child("where_clause")
        if wc is not None:
            where = self.build(wc.node_children()[0])
        name, clauses = node.node_children()[:2]
        return ast.Update(
            table=self._chain(name),
            assignments=self._assignments(clauses),
            where=where,
            current_of=self._current_of(node),
        )

    def _current_of(self, node: Node) -> str | None:
        wcc = node.child("where_current_clause")
        if wcc is None:
            return None
        return wcc.child("identifier").text()

    def _assignments(self, node: Node) -> tuple:
        result = []
        for clause in _items(node, "set_clause_list"):
            column, source = clause.node_children()
            # an update_source node survives only as DEFAULT or NULL
            if source.name != "update_source":
                result.append((column.text(), self.build(source)))
            elif source.has_token("DEFAULT"):
                result.append((column.text(), ast.Default()))
            else:
                result.append((column.text(), ast.NULL))
        return tuple(result)

    def _build_delete_statement(self, node: Node) -> ast.Delete:
        where = None
        wc = node.child("where_clause")
        if wc is not None:
            where = self.build(wc.node_children()[0])
        return ast.Delete(
            self._chain(node.node_children()[0]),
            where,
            current_of=self._current_of(node),
        )

    def _build_merge_statement(self, node: Node) -> ast.Merge:
        # table name, merge_correlation?, table reference, condition
        head = _others(node, "merge_operation")
        alias = _name(head[1]) if len(head) == 4 else None
        matched: tuple = ()
        nm_columns: tuple[str, ...] = ()
        nm_values = None
        for op in node.children_named("merge_operation"):
            if op.has_token("UPDATE"):
                matched = self._assignments(op.node_children()[0])
            else:
                nm_columns = self._column_list(op.child("column_list"))
                nm_values = self._build_table_value_constructor(
                    op.child("table_value_constructor")
                )
        return ast.Merge(
            target=self._chain(head[0]),
            target_alias=alias,
            source=self._build_table_reference(head[-2]),
            condition=self.build(head[-1]),
            matched_assignments=matched,
            not_matched_columns=nm_columns,
            not_matched_values=nm_values,
        )

    # -- DDL ---------------------------------------------------------------------

    def _build_table_definition(self, node: Node) -> ast.CreateTable:
        columns = []
        constraints = []
        name, elements = _others(node, "table_scope", "on_commit_clause")
        # table_element passes through to a column or constraint definition
        for element in _items(elements, "table_element_list"):
            if element.name == "column_definition":
                columns.append(self._build_column_definition(element))
            else:
                constraints.append(self._build_table_constraint(element))
        scope = None
        scope_node = node.child("table_scope")
        if scope_node is not None:
            scope = scope_node.text().lower()
        on_commit = None
        oc = node.child("on_commit_clause")
        if oc is not None:
            on_commit = "preserve" if oc.has_token("PRESERVE") else "delete"
        return ast.CreateTable(
            name=self._chain(name),
            columns=tuple(columns),
            constraints=tuple(constraints),
            scope=scope,
            on_commit=on_commit,
        )

    def _build_column_definition(self, node: Node) -> ast.ColumnDef:
        default = None
        dc = node.child("default_clause")
        if dc is not None:
            option = dc.node_children()[0]
            # a default_option node survives only as its NULL alternative
            if option.name == "default_option":
                default = ast.NULL
            else:
                default = self.build(option)
        not_null = primary = unique = False
        references = None
        check = None
        for constraint in node.children_named("column_constraint"):
            tokens = _token_texts(constraint)
            if "NOT" in tokens:
                not_null = True
            elif "PRIMARY" in tokens:
                primary = True
            elif "UNIQUE" in tokens:
                unique = True
            elif "REFERENCES" in tokens:
                references = self._chain(constraint.node_children()[0])
            elif "CHECK" in tokens:
                check = self.build(constraint.node_children()[0])
        identity = None
        id_node = node.child("identity_spec")
        if id_node is not None:
            identity = "always" if id_node.has_token("ALWAYS") else "by default"
        return ast.ColumnDef(
            name=node.node_children()[0].text(),
            type=self._build_data_type(node.child("data_type")),
            default=default,
            not_null=not_null,
            primary_key=primary,
            unique=unique,
            references=references,
            check=check,
            identity=identity,
        )

    def _build_table_constraint(self, node: Node) -> ast.TableConstraint:
        tokens = _token_texts(node)
        column_lists = node.children_named("column_list")
        if "FOREIGN" in tokens:
            on_delete = on_update = None
            for action in node.children_named("referential_action"):
                action_tokens = _token_texts(action)
                kind = action.child("referential_action_kind").text().lower()
                if "DELETE" in action_tokens:
                    on_delete = kind
                else:
                    on_update = kind
            return ast.TableConstraint(
                kind="foreign key",
                columns=self._column_list(column_lists[0]),
                references_table=self._chain(node.node_children()[1]),
                references_columns=(
                    self._column_list(column_lists[1])
                    if len(column_lists) > 1
                    else ()
                ),
                on_delete=on_delete,
                on_update=on_update,
            )
        if "CHECK" in tokens:
            return ast.TableConstraint(
                kind="check", check=self.build(node.node_children()[0])
            )
        kind = "primary key" if "PRIMARY" in tokens else "unique"
        return ast.TableConstraint(
            kind=kind, columns=self._column_list(column_lists[0])
        )

    _TYPE_NAMES = {
        "CHARACTER": "char",
        "CHAR": "char",
        "VARCHAR": "varchar",
        "NUMERIC": "numeric",
        "DECIMAL": "numeric",
        "DEC": "numeric",
        "INTEGER": "integer",
        "INT": "integer",
        "SMALLINT": "integer",
        "BIGINT": "integer",
        "FLOAT": "real",
        "REAL": "real",
        "DOUBLE": "real",
        "BOOLEAN": "boolean",
        "DATE": "date",
        "TIME": "time",
        "TIMESTAMP": "timestamp",
        "INTERVAL": "interval",
        "BLOB": "blob",
        "CLOB": "clob",
    }

    def _build_data_type(self, node: Node) -> ast.TypeSpec:
        tokens = _token_texts(node)
        head = tokens[0]
        name = self._TYPE_NAMES.get(head, head.lower())
        if head in ("CHARACTER", "CHAR") and "VARYING" in tokens:
            name = "varchar"
        params = tuple(
            int(t.text)
            for t in node.tokens()
            if t.type == "UNSIGNED_INTEGER"
        )
        return ast.TypeSpec(name=name, parameters=params, text=node.text())

    def _build_view_definition(self, node: Node) -> ast.CreateView:
        name, query = _others(node, "column_list", "check_option")
        return ast.CreateView(
            name=self._chain(name),
            columns=self._column_list(node.child("column_list")),
            query=self._query(query),
            recursive=node.has_token("RECURSIVE"),
            check_option=node.child("check_option") is not None,
        )

    def _build_drop_table_statement(self, node: Node) -> ast.DropStatement:
        return self._drop(node, "table")

    def _build_drop_view_statement(self, node: Node) -> ast.DropStatement:
        return self._drop(node, "view")

    def _build_drop_schema_statement(self, node: Node) -> ast.DropStatement:
        return self._drop(node, "schema")

    def _build_drop_domain_statement(self, node: Node) -> ast.DropStatement:
        return self._drop(node, "domain")

    def _build_drop_sequence_statement(self, node: Node) -> ast.DropStatement:
        return self._drop(node, "sequence")

    def _drop(self, node: Node, kind: str) -> ast.DropStatement:
        behavior = None
        bh = node.child("drop_behavior")
        if bh is not None:
            behavior = bh.text().lower()
        return ast.DropStatement(
            kind=kind, name=self._chain(node.node_children()[0]), behavior=behavior
        )

    # -- transactions ---------------------------------------------------------------

    def _build_commit_statement(self, node: Node) -> ast.Commit:
        return ast.Commit()

    def _build_rollback_statement(self, node: Node) -> ast.Rollback:
        savepoint = None
        sp = node.child("savepoint_clause")
        if sp is not None:
            savepoint = sp.child("identifier").text()
        return ast.Rollback(savepoint=savepoint)

    def _build_savepoint_statement(self, node: Node) -> ast.Savepoint:
        return ast.Savepoint(node.child("identifier").text())

    def _build_release_savepoint_statement(self, node: Node) -> ast.ReleaseSavepoint:
        return ast.ReleaseSavepoint(node.child("identifier").text())

    # -- helpers ---------------------------------------------------------------------

    def _subquery(self, table_subquery: Node) -> ast.Query:
        return self._query(table_subquery.node_children()[0])

    def _query(self, node: Node) -> ast.Query:
        """A query position: ``query_expression``, or the body it passed to."""
        built = self.build(node)
        if isinstance(built, ast.Query):
            return built
        return ast.Query(body=built)

    def _chain(self, name_node: Node) -> tuple[str, ...]:
        """The parts of a name position: an ``identifier_chain``, or the
        one ``identifier`` it passed through to."""
        if name_node.name == "identifier":
            return (_identifier(name_node),)
        return tuple(_identifier(i) for i in name_node.children_named("identifier"))

    def _column_list(self, node: Node | None) -> tuple[str, ...]:
        if node is None:
            return ()
        # column_name passes through: the items are identifiers
        return tuple(c.text() for c in node.node_children())


#: Rule name -> builder, collected once from the ``_build_*`` methods so
#: :meth:`AstBuilder.build` dispatches with one dict lookup per node.
_BUILDERS = {
    name.removeprefix("_build_"): method
    for name, method in vars(AstBuilder).items()
    if name.startswith("_build_")
}

#: Parameterless special-value heads (USER, CURRENT_ROLE, ...; §6.4).
_ZERO_ARG_HEADS = frozenset(
    {
        "USER", "CURRENT_USER", "SESSION_USER", "SYSTEM_USER",
        "CURRENT_ROLE", "CURRENT_PATH",
    }
)

#: Keyword-headed primaries handled by :meth:`AstBuilder._build_head_function`.
_FUNCTION_HEADS = frozenset(
    {
        "ABS", "MOD", "LN", "EXP", "POWER", "SQRT", "FLOOR", "CEILING", "CEIL",
        "SUBSTRING", "UPPER", "LOWER", "TRIM", "CHAR_LENGTH", "CHARACTER_LENGTH",
        "OCTET_LENGTH", "POSITION", "EXTRACT", "OVERLAY",
        "TRANSLATE", "CONVERT", "NORMALIZE", "CARDINALITY", "WIDTH_BUCKET",
        "GROUPING",
        "CURRENT_DATE", "CURRENT_TIME", "CURRENT_TIMESTAMP",
        "LOCALTIME", "LOCALTIMESTAMP",
    }
    | _ZERO_ARG_HEADS
)

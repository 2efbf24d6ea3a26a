"""Parse-tree → AST construction.

The paper generates parsers for composed grammars and implements semantic
actions separately (with Jak in AHEAD); here the "semantic actions" are
the builder functions in this module.  They are keyed by grammar rule
name, so a tailored dialect — which only ever produces the parse-tree
nodes of its selected features — automatically gets exactly the semantic
actions it needs.

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


class AstBuilder:
    """Stateless recursive builder: one method per interesting rule."""

    # -- dispatch ----------------------------------------------------------

    def build(self, node: Node):
        method = _BUILDERS.get(node.name)
        if method is not None:
            return method(self, node)
        # chain rules (single node child, no meaningful tokens) pass through
        kids = node.node_children()
        if len(kids) == 1:
            return self.build(kids[0])
        raise NotImplementedError(
            f"no AST builder for rule {node.name!r} "
            f"(children: {[c.name if isinstance(c, Node) else c.type for c in node.children]})"
        )

    # -- script / statements --------------------------------------------------

    def _build_sql_script(self, node: Node) -> ast.Script:
        return ast.Script(
            tuple(self.build(s) for s in node.children_named("sql_statement"))
        )

    def _build_sql_statement(self, node: Node) -> ast.Statement:
        child = node.node_children()[0]
        try:
            built = self.build(child)
        except NotImplementedError:
            # parsed but not executable: GRANT, SET SCHEMA, ALTER, ...
            return ast.GenericStatement(child.name, child.text())
        if isinstance(built, ast.Query):
            return ast.QueryStatement(built)
        if isinstance(built, ast.Statement):
            return built
        return ast.GenericStatement(child.name, child.text())

    # -- queries ------------------------------------------------------------------

    def _build_query_expression(self, node: Node) -> ast.Query:
        ctes: tuple[ast.CommonTableExpr, ...] = ()
        recursive = False
        with_node = node.child("with_clause")
        if with_node is not None:
            # only this clause's direct elements: find_all would descend
            # into nested WITH clauses inside the CTE bodies
            with_list = with_node.child("with_list") or with_node
            ctes = tuple(
                self._build_with_element(e)
                for e in with_list.children_named("with_list_element")
            )
            recursive = with_node.has_token("RECURSIVE")
        body = self.build(node.child("query_expression_body"))
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
            query=self.build(node.child("query_expression")),
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
            return ast.ExplicitTable(self._chain(node.child("table_name")))
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
        items = self._build_select_list(node.child("select_list"))
        te = node.child("table_expression")
        from_tables: tuple = ()
        where = having = None
        group_by: tuple = ()
        grouping_kind = None
        grouping: tuple = ()
        windows: tuple = ()
        if te is not None:
            from_tables = self._build_from(te.child("from_clause"))
            wc = te.child("where_clause")
            if wc is not None:
                where = self.build(wc.child("search_condition"))
            gb = te.child("group_by_clause")
            if gb is not None:
                group_by, grouping_kind, grouping = self._build_group_by(gb)
            hv = te.child("having_clause")
            if hv is not None:
                having = self.build(hv.child("search_condition"))
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
        if node.has_token("ASTERISK"):
            return (ast.Star(),)
        items = []
        for sub in node.children_named("select_sublist"):
            qa = sub.child("qualified_asterisk")
            if qa is not None:
                items.append(ast.Star(table=".".join(self._chain(qa.child("identifier_chain")))))
                continue
            dc = sub.child("derived_column")
            expr = self.build(dc.child("value_expression"))
            alias = None
            ac = dc.child("as_clause")
            if ac is not None:
                alias = ac.child("column_name").text()
            items.append(ast.SelectItem(expr, alias))
        return tuple(items)

    def _build_from(self, node: Node | None) -> tuple:
        if node is None:
            return ()
        trl = node.child("table_reference_list")
        return tuple(
            self._build_table_reference(tr)
            for tr in trl.children_named("table_reference")
        )

    def _build_table_reference(self, node: Node) -> ast.TableRef:
        result = self._build_table_primary(node.child("table_primary"))
        for suffix in node.children_named("join_suffix"):
            result = self._apply_join(result, suffix)
        return result

    def _build_table_primary(self, node: Node) -> ast.TableRef:
        alias = None
        corr = node.child("correlation_spec")
        if corr is not None:
            alias = corr.child("identifier").text()
        sub = node.child("table_subquery")
        if sub is not None:
            return ast.DerivedTable(
                query=self.build(sub.child("query_expression")),
                alias=alias or "?",
                lateral=node.has_token("LATERAL"),
            )
        return ast.NamedTable(self._chain(node.child("table_name")), alias=alias)

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
        right = self._build_table_primary(suffix.child("table_primary"))
        on = None
        using: tuple[str, ...] = ()
        spec = suffix.child("join_specification")
        if spec is not None:
            if spec.has_token("ON"):
                on = self.build(spec.child("search_condition"))
            else:
                using = self._column_list(spec.child("column_list"))
        return ast.Join(kind=kind, left=left, right=right, on=on, using=using)

    def _build_group_by(self, node: Node) -> tuple[tuple, str | None, tuple]:
        gel = node.child("grouping_element_list")
        exprs: list = []
        kind = None
        structured = []
        for element in gel.children_named("grouping_element"):
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
        tokens = _token_texts(element)
        if "ROLLUP" in tokens or "CUBE" in tokens:
            cols = tuple(
                self.build(c)
                for c in element.child("column_reference_list").children_named(
                    "column_reference"
                )
            )
            return ast.GroupingElement(
                "rollup" if "ROLLUP" in tokens else "cube", cols
            )
        if "GROUPING" in tokens:
            inner = tuple(
                self._build_grouping_element(e)
                for e in element.child("grouping_element_list").children_named(
                    "grouping_element"
                )
            )
            return ast.GroupingElement("grouping sets", inner)
        cr = element.child("column_reference")
        if cr is not None:
            return self.build(cr)
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
        spec_list = node.child("sort_specification_list") or node
        for spec in spec_list.children_named("sort_specification"):
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
                collation = self._chain(collate.child("identifier_chain"))
            specs.append(
                ast.SortSpec(
                    expression=self.build(spec.child("value_expression")),
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
                for c in pc.child("column_reference_list").children_named(
                    "column_reference"
                )
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
        ewn = node.child("existing_window_name")
        if ewn is not None:
            existing = ewn.text()
        return ast.WindowSpec(
            partition_by=partition, order_by=order_by, frame=frame, existing=existing
        )

    def _build_table_value_constructor(self, node: Node) -> ast.Values:
        rows = []
        for rvc in node.children_named("row_value_constructor"):
            row = []
            for element in rvc.children_named("row_value_element"):
                if element.has_token("NULL"):
                    row.append(ast.NULL)
                elif element.has_token("DEFAULT"):
                    row.append(ast.Default())
                else:
                    row.append(self.build(element.node_children()[0]))
            rows.append(tuple(row))
        return ast.Values(tuple(rows))

    # -- expressions ----------------------------------------------------------------

    def _build_search_condition(self, node: Node):
        return self.build(node.node_children()[0])

    def _build_value_expression(self, node: Node):
        return self.build(node.node_children()[0])

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
                self.build(c) for c in suffix.children_named("common_value_expression")
            ]
            return ast.Between(operand, low, high, negated=negated)
        if "IN" in tokens:
            value = suffix.child("in_predicate_value")
            sub = value.child("table_subquery")
            if sub is not None:
                return ast.InSubquery(operand, self._subquery(sub), negated=negated)
            items = tuple(
                self.build(c) for c in value.children_named("common_value_expression")
            )
            return ast.InList(operand, items, negated=negated)
        if "LIKE" in tokens:
            exprs = [
                self.build(c) for c in suffix.children_named("common_value_expression")
            ]
            pattern = exprs[0]
            escape = exprs[1] if len(exprs) > 1 else None
            return ast.Like(operand, pattern, escape=escape, negated=negated)
        if "NULL" in tokens:
            return ast.IsNull(operand, negated=negated)
        if "DISTINCT" in tokens and "FROM" in tokens:
            right = self.build(suffix.child("common_value_expression"))
            return ast.IsDistinctFrom(operand, right, negated=negated)
        if "OVERLAPS" in tokens:
            right = self.build(suffix.child("common_value_expression"))
            return ast.BinaryOp("OVERLAPS", operand, right)
        if "SIMILAR" in tokens:
            pattern = self.build(suffix.child("common_value_expression"))
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
        right = self.build(suffix.child("common_value_expression"))
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
            zone = tz.child("value_expression_primary")
            inner = ast.AtTimeZone(
                inner, self.build(zone) if zone is not None else None
            )
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
            return self.build(node.child("value_expression"))
        if head == "CAST":
            operand_node = node.child("cast_operand")
            if operand_node.has_token("NULL"):
                operand = ast.NULL
            else:
                operand = self.build(operand_node.node_children()[0])
            type_spec = self._build_data_type(node.child("data_type"))
            return ast.Cast(operand, type_spec.name, type_spec=type_spec)
        if head in _FUNCTION_HEADS:
            return self._build_head_function(node, tokens)
        if head == "NEXT":
            return ast.FunctionCall(
                "NEXT VALUE FOR",
                (ast.ColumnRef(self._chain(node.child("identifier_chain"))),),
            )
        kids = node.node_children()
        if kids and head is None:
            return self.build(kids[0])
        # keyword-headed form nobody claimed: refuse loudly instead of
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
            field = node.child("extract_field").text().upper()
            return ast.FunctionCall(
                "EXTRACT",
                (ast.Literal(field, "field"), self.build(node.child("value_expression"))),
            )
        if head == "TRIM":
            operands = node.child("trim_operands")
            exprs: tuple[ast.Expression, ...] = tuple(
                self.build(c) for c in operands.children_named("value_expression")
            )
            spec = operands.child("trim_specification")
            if spec is not None:
                exprs = (ast.Literal(spec.text().upper(), "trim_spec"), *exprs)
            return ast.FunctionCall("TRIM", exprs)
        if head in ("TRANSLATE", "CONVERT"):
            return ast.FunctionCall(
                head,
                (
                    self.build(node.child("value_expression")),
                    ast.ColumnRef(self._chain(node.child("identifier_chain"))),
                ),
            )
        if head == "GROUPING":
            return ast.FunctionCall(
                "GROUPING", (self.build(node.child("column_reference")),)
            )
        if head in ("CEILING", "CEIL"):
            head = "CEILING"
        if head in ("CHAR_LENGTH", "CHARACTER_LENGTH"):
            head = "CHAR_LENGTH"
        exprs = tuple(
            self.build(c) for c in node.children_named("value_expression")
        )
        return ast.FunctionCall(head, exprs)

    def _build_general_value_expression(self, node: Node):
        ref = ast.ColumnRef(self._chain(node.child("column_reference").child("identifier_chain")))
        args_node = node.child("routine_args")
        if args_node is None:
            return ref
        args = tuple(
            self.build(c) for c in args_node.children_named("value_expression")
        )
        return ast.FunctionCall(".".join(ref.parts).upper(), args)

    def _build_column_reference(self, node: Node):
        return ast.ColumnRef(self._chain(node.child("identifier_chain")))

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
            value = node.token("STRING_LITERAL").text[1:-1]
            return ast.Literal(value, kind.lower())
        if kind == "INTERVAL":
            value = node.token("STRING_LITERAL").text[1:-1]
            qualifier = node.child("interval_qualifier").text().upper()
            return ast.Literal(f"{value} {qualifier}", "interval")
        raise NotImplementedError(f"literal token {kind!r}")

    def _build_case_expression(self, node: Node):
        tokens = _token_texts(node)
        if "NULLIF" in tokens:
            a, b = [self.build(c) for c in node.children_named("value_expression")]
            return ast.FunctionCall("NULLIF", (a, b))
        if "COALESCE" in tokens:
            return ast.FunctionCall(
                "COALESCE",
                tuple(self.build(c) for c in node.children_named("value_expression")),
            )
        operand = None
        whens = []
        cve = node.child("common_value_expression")
        if cve is not None:
            operand = self.build(cve)
        for when in node.children_named("simple_when_clause"):
            condition = self.build(when.child("common_value_expression"))
            whens.append((condition, self._case_result(when.child("case_result"))))
        for when in node.children_named("searched_when_clause"):
            condition = self.build(when.child("search_condition"))
            whens.append((condition, self._case_result(when.child("case_result"))))
        else_result = None
        else_node = node.child("else_clause")
        if else_node is not None:
            else_result = self._case_result(else_node.child("case_result"))
        return ast.CaseExpr(operand, tuple(whens), else_result)

    def _case_result(self, node: Node):
        if node.has_token("NULL"):
            return ast.NULL
        return self.build(node.node_children()[0])

    def _build_aggregate_function(self, node: Node):
        filter_condition = None
        fc = node.child("filter_clause")
        if fc is not None:
            filter_condition = self.build(fc.child("search_condition"))
        if node.has_token("ASTERISK"):
            return ast.AggregateCall(
                "COUNT", None, filter_condition=filter_condition
            )
        function = node.child("set_function_type").text().upper()
        quantifier = None
        quant_node = node.child("aggregate_quantifier")
        if quant_node is not None:
            quantifier = quant_node.text().upper()
        return ast.AggregateCall(
            function,
            self.build(node.child("value_expression")),
            quantifier=quantifier,
            filter_condition=filter_condition,
        )

    def _build_window_function(self, node: Node):
        wft = node.child("window_function_type")
        if wft.child("aggregate_function") is not None:
            function = self.build(wft.child("aggregate_function"))
        else:
            function = ast.FunctionCall(_token_texts(wft)[0])
        target = node.child("window_name_or_spec")
        spec_node = target.child("window_specification")
        window: str | ast.WindowSpec
        if spec_node is not None:
            window = self._build_window_spec(spec_node)
        else:
            window = target.text()
        return ast.WindowCall(function=function, window=window)

    def _build_table_subquery(self, node: Node):
        return ast.ScalarSubquery(self._subquery(node))

    # -- DML --------------------------------------------------------------------

    def _build_insert_statement(self, node: Node) -> ast.Insert:
        table = self._chain(node.child("table_name"))
        source_node = node.child("insert_columns_and_source")
        columns = self._column_list(source_node.child("column_list"))
        overriding = None
        oc = source_node.child("overriding_clause")
        if oc is not None:
            overriding = "USER" if oc.has_token("USER") else "SYSTEM"
        if source_node.has_token("DEFAULT"):
            return ast.Insert(table, columns, None, overriding=overriding)
        tvc = source_node.child("table_value_constructor")
        if tvc is not None:
            return ast.Insert(
                table,
                columns,
                self._build_table_value_constructor(tvc),
                overriding=overriding,
            )
        return ast.Insert(
            table,
            columns,
            self.build(source_node.child("query_expression")),
            overriding=overriding,
        )

    def _build_update_statement(self, node: Node) -> ast.Update:
        where = None
        wc = node.child("where_clause")
        if wc is not None:
            where = self.build(wc.child("search_condition"))
        return ast.Update(
            table=self._chain(node.child("table_name")),
            assignments=self._assignments(node.child("set_clause_list")),
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
        for clause in node.children_named("set_clause"):
            column = clause.child("column_name").text()
            source = clause.child("update_source")
            if source.has_token("DEFAULT"):
                result.append((column, ast.Default()))
            elif source.has_token("NULL"):
                result.append((column, ast.NULL))
            else:
                result.append((column, self.build(source.node_children()[0])))
        return tuple(result)

    def _build_delete_statement(self, node: Node) -> ast.Delete:
        where = None
        wc = node.child("where_clause")
        if wc is not None:
            where = self.build(wc.child("search_condition"))
        return ast.Delete(
            self._chain(node.child("table_name")),
            where,
            current_of=self._current_of(node),
        )

    def _build_merge_statement(self, node: Node) -> ast.Merge:
        alias = None
        corr = node.child("merge_correlation")
        if corr is not None:
            alias = corr.child("identifier").text()
        matched: tuple = ()
        nm_columns: tuple[str, ...] = ()
        nm_values = None
        for op in node.children_named("merge_operation"):
            if op.child("set_clause_list") is not None:
                matched = self._assignments(op.child("set_clause_list"))
            else:
                nm_columns = self._column_list(op.child("column_list"))
                nm_values = self._build_table_value_constructor(
                    op.child("table_value_constructor")
                )
        return ast.Merge(
            target=self._chain(node.child("table_name")),
            target_alias=alias,
            source=self._build_table_reference(node.child("table_reference")),
            condition=self.build(node.child("search_condition")),
            matched_assignments=matched,
            not_matched_columns=nm_columns,
            not_matched_values=nm_values,
        )

    # -- DDL ---------------------------------------------------------------------

    def _build_table_definition(self, node: Node) -> ast.CreateTable:
        columns = []
        constraints = []
        for element in node.child("table_element_list").children_named("table_element"):
            cd = element.child("column_definition")
            if cd is not None:
                columns.append(self._build_column_definition(cd))
            else:
                constraints.append(
                    self._build_table_constraint(element.child("table_constraint"))
                )
        scope = None
        scope_node = node.child("table_scope")
        if scope_node is not None:
            scope = scope_node.text().lower()
        on_commit = None
        oc = node.child("on_commit_clause")
        if oc is not None:
            on_commit = "preserve" if oc.has_token("PRESERVE") else "delete"
        return ast.CreateTable(
            name=self._chain(node.child("table_name")),
            columns=tuple(columns),
            constraints=tuple(constraints),
            scope=scope,
            on_commit=on_commit,
        )

    def _build_column_definition(self, node: Node) -> ast.ColumnDef:
        default = None
        dc = node.child("default_clause")
        if dc is not None:
            option = dc.child("default_option")
            if option.has_token("NULL"):
                default = ast.NULL
            else:
                default = self.build(option.node_children()[0])
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
                references = self._chain(constraint.child("table_name"))
            elif "CHECK" in tokens:
                check = self.build(constraint.child("search_condition"))
        identity = None
        id_node = node.child("identity_spec")
        if id_node is not None:
            identity = "always" if id_node.has_token("ALWAYS") else "by default"
        return ast.ColumnDef(
            name=node.child("column_name").text(),
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
                references_table=self._chain(node.child("table_name")),
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
                kind="check", check=self.build(node.child("search_condition"))
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
        return ast.CreateView(
            name=self._chain(node.child("table_name")),
            columns=self._column_list(node.child("column_list")),
            query=self.build(node.child("query_expression")),
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
            kind=kind, name=self._chain(node.child("table_name")), behavior=behavior
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
        return self.build(table_subquery.child("query_expression"))

    def _chain(self, name_node: Node) -> tuple[str, ...]:
        chain = name_node
        if chain.name != "identifier_chain":
            chain = name_node.child("identifier_chain") or name_node
        parts = []
        for ident in chain.children_named("identifier"):
            token = next(iter(ident.tokens()))
            text = token.text
            if token.type == "QUOTED_IDENTIFIER":
                parts.append(text[1:-1].replace('""', '"'))
            else:
                parts.append(text)
        if not parts:  # bare identifier node (e.g. column_name)
            parts = [name_node.text()]
        return tuple(parts)

    def _column_list(self, node: Node | None) -> tuple[str, ...]:
        if node is None:
            return ()
        return tuple(c.text() for c in node.children_named("column_name"))


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

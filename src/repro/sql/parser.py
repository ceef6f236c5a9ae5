"""Recursive-descent parser: SQL text → logical plans.

Supported subset (enough for every query in the paper):

.. code-block:: sql

    SELECT [DISTINCT] expr [AS name], ...
    FROM table [, table ...] [JOIN table ON cond ...]
    [WHERE cond] [GROUP BY col, ...] [HAVING cond]
    [ORDER BY col [DESC], ...] [LIMIT n]
    [UNION / EXCEPT select]

Aggregates ``SUM/COUNT/MIN/MAX/AVG`` in the select list trigger an
:class:`~repro.algebra.ast.Aggregate` node; ``CASE WHEN`` maps to
:class:`~repro.core.expressions.If`.  Attribute names are assumed globally
unique across joined tables (TPC-H style), which keeps name resolution
simple and mirrors the paper's examples; a FROM clause that names one
table twice (a self-join) is a :class:`SqlSyntaxError` — rename one
side's columns through a subquery instead.

``ORDER BY`` keys that the select list projects away (legal SQL) are
sorted — and, with ``LIMIT``, top-k'd via
:class:`~repro.algebra.ast.TopK` — *below* the projection, so the
deterministic engine returns the correct rows.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..algebra.ast import (
    Aggregate,
    CrossProduct,
    Difference,
    Distinct,
    Join,
    Limit,
    OrderBy,
    Plan,
    Projection,
    Selection,
    TableRef,
    TopK,
    Union,
)
from ..core.aggregation import AGGREGATES, AggregateSpec
from ..core.expressions import (
    And,
    Const,
    Eq,
    Expression,
    Geq,
    Gt,
    If,
    IsNull,
    Leq,
    Lt,
    Neq,
    Not,
    Or,
    Parameter,
    Var,
)
from .lexer import SqlSyntaxError, Token, number_value, tokenize

__all__ = ["parse_sql", "SqlSyntaxError"]

AGG_FUNCTIONS = {name.upper() for name in AGGREGATES}


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.n_positional_params = 0

    # -- token helpers ---------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        tok = self.peek()
        if tok.kind == kind and (value is None or tok.value == value):
            return self.advance()
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        tok = self.accept(kind, value)
        if tok is None:
            got = self.peek()
            raise SqlSyntaxError(
                f"expected {value or kind} at position {got.position}, got {got.value!r}"
            )
        return tok

    def accept_kw(self, *words: str) -> bool:
        save = self.pos
        for w in words:
            if not self.accept("keyword", w):
                self.pos = save
                return False
        return True

    # -- grammar ----------------------------------------------------------
    def parse(self) -> Plan:
        plan = self.select_statement()
        while True:
            if self.accept_kw("UNION"):
                self.accept("keyword", "ALL")
                plan = Union(plan, self.select_statement())
            elif self.accept_kw("EXCEPT"):
                self.accept("keyword", "ALL")
                plan = Difference(plan, self.select_statement())
            else:
                break
        self.expect("eof")
        return plan

    def select_statement(self) -> Plan:
        self.expect("keyword", "SELECT")
        is_distinct = bool(self.accept("keyword", "DISTINCT"))
        select_items = self.select_list()
        self.expect("keyword", "FROM")
        plan = self.from_clause()
        if self.accept_kw("WHERE"):
            plan = Selection(plan, self.expression())
        group_by: List[str] = []
        if self.accept_kw("GROUP", "BY"):
            group_by = self.column_name_list()
        having: Optional[Expression] = None
        if self.accept_kw("HAVING"):
            having = self.expression()

        plan = self._apply_select(plan, select_items, group_by, having)

        if is_distinct:
            plan = Distinct(plan)
        keys: List[str] = []
        descending = False
        if self.accept_kw("ORDER", "BY"):
            while True:
                keys.append(self.expect("ident").value)
                if self.accept("keyword", "DESC"):
                    descending = True
                else:
                    self.accept("keyword", "ASC")
                if not self.accept("symbol", ","):
                    break
        limit_n: Optional[int] = None
        if self.accept_kw("LIMIT"):
            limit_n = int(self.expect("number").value)

        if keys and isinstance(plan, Distinct) and isinstance(plan.child, Projection):
            visible = {name for _, name in plan.child.columns}
            if not all(k in visible for k in keys):
                # mirrors real SQL: "for SELECT DISTINCT, ORDER BY
                # expressions must appear in select list"
                raise SqlSyntaxError(
                    "ORDER BY column must appear in the SELECT DISTINCT list"
                )
        if keys and isinstance(plan, Projection):
            out_names = {name for _, name in plan.columns}
            hidden = list(dict.fromkeys(k for k in keys if k not in out_names))
            if hidden:
                # ORDER BY mentions columns the projection drops (legal
                # SQL).  Extend the projection with the hidden keys so the
                # sort sees select-list aliases (resolved first, as SQL
                # requires — including computed ones) *and* the base
                # columns, then re-project to the select list on top.
                inner = Projection(
                    plan.child,
                    list(plan.columns) + [(Var(k), k) for k in hidden],
                )
                sorted_plan: Plan
                if limit_n is not None:
                    sorted_plan = TopK(inner, keys, descending, limit_n)
                else:
                    sorted_plan = OrderBy(inner, keys, descending)
                return Projection(
                    sorted_plan, [(Var(name), name) for _, name in plan.columns]
                )
        if keys:
            plan = OrderBy(plan, keys, descending)
        if limit_n is not None:
            plan = Limit(plan, limit_n)
        return plan

    def _apply_select(
        self,
        plan: Plan,
        items: List[Tuple[object, str]],
        group_by: List[str],
        having: Optional[Expression],
    ) -> Plan:
        """Split the select list into group-by columns, aggregates, and
        plain projections; emit Aggregate / Projection nodes."""
        has_aggs = any(isinstance(e, AggregateSpec) for e, _ in items)
        if not has_aggs and not group_by:
            if having is not None:
                # previously dropped silently; a HAVING can only filter
                # groups, so without grouping it is a malformed query
                raise SqlSyntaxError(
                    "HAVING requires GROUP BY or aggregates in the "
                    "select list"
                )
            if len(items) == 1 and isinstance(items[0][0], str):
                return plan  # SELECT *
            columns = [(e, name) for e, name in items]
            return Projection(plan, columns)

        aggregates: List[AggregateSpec] = []
        out_columns: List[Tuple[Expression, str]] = []
        for e, name in items:
            if isinstance(e, AggregateSpec):
                spec = AggregateSpec(e.kind, e.expr, name)
                aggregates.append(spec)
                out_columns.append((Var(name), name))
            else:
                if not isinstance(e, Var) or e.name not in group_by:
                    raise SqlSyntaxError(
                        f"non-aggregate select item {name!r} must be a "
                        "GROUP BY column"
                    )
                out_columns.append((e, name))
        agg = Aggregate(plan, group_by, aggregates, having)
        # re-project to the select-list order / names if it differs
        natural = list(group_by) + [a.name for a in aggregates]
        wanted = [name for _, name in out_columns]
        if wanted != natural:
            return Projection(agg, out_columns)
        return agg

    def select_list(self) -> List[Tuple[object, str]]:
        if self.accept("symbol", "*"):
            return [("*", "*")]
        items: List[Tuple[object, str]] = []
        while True:
            item = self.select_item()
            items.append(item)
            if not self.accept("symbol", ","):
                break
        return items

    def select_item(self) -> Tuple[object, str]:
        expr = self.expression_or_aggregate()
        if self.accept("keyword", "AS"):
            name = self.expect("ident").value
        else:
            maybe = self.accept("ident")
            if maybe is not None:
                name = maybe.value
            elif isinstance(expr, Var):
                name = expr.name
            elif isinstance(expr, AggregateSpec):
                name = expr.name
            else:
                name = f"col{len('') or 0}_{self.pos}"
        return expr, name

    def expression_or_aggregate(self):
        tok = self.peek()
        if tok.kind == "ident" and tok.value.upper() in AGG_FUNCTIONS:
            nxt = self.tokens[self.pos + 1]
            if nxt.kind == "symbol" and nxt.value == "(":
                return self.aggregate_call()
        return self.expression()

    def aggregate_call(self) -> AggregateSpec:
        fn = self.expect("ident").value.upper()
        self.expect("symbol", "(")
        if fn == "COUNT":
            if self.accept("symbol", "*"):
                self.expect("symbol", ")")
                return AggregateSpec("count", None, "count")
            self.accept("keyword", "DISTINCT")  # tolerated, bag count
            expr = self.expression()
            self.expect("symbol", ")")
            return AggregateSpec("count", expr, "count")
        expr = self.expression()
        self.expect("symbol", ")")
        return AggregateSpec(fn.lower(), expr, fn.lower())

    def column_name_list(self) -> List[str]:
        names = [self.expect("ident").value]
        while self.accept("symbol", ","):
            names.append(self.expect("ident").value)
        return names

    # -- FROM -------------------------------------------------------------
    def from_clause(self) -> Plan:
        named: set = set()
        plan = self.table_factor(named)
        while True:
            if self.accept("symbol", ","):
                plan = CrossProduct(plan, self.table_factor(named))
            elif self.accept_kw("CROSS", "JOIN"):
                plan = CrossProduct(plan, self.table_factor(named))
            elif self.peek().value in {"JOIN", "INNER"}:
                self.accept("keyword", "INNER")
                self.expect("keyword", "JOIN")
                right = self.table_factor(named)
                self.expect("keyword", "ON")
                plan = Join(plan, right, self.expression())
            else:
                break
        return plan

    def table_factor(self, named: set) -> Plan:
        if self.accept("symbol", "("):
            plan = self.select_statement()
            self.expect("symbol", ")")
            self.accept("keyword", "AS")
            self.accept("ident")  # optional subquery alias, names pass through
            return plan
        name = self.expect("ident").value
        if name in named:
            # attribute names are global: both sides would read one
            # set of columns
            raise SqlSyntaxError(
                f"table {name!r} appears twice in one FROM clause; "
                "rename one side's columns through a subquery, e.g. "
                f"(SELECT a AS a2, ... FROM {name}) AS {name}2"
            )
        named.add(name)
        # optional table alias (ignored; attribute names are global)
        if self.peek().kind == "ident":
            self.advance()
        return TableRef(name)

    # -- expressions (precedence climbing) ---------------------------------
    def expression(self) -> Expression:
        return self.or_expr()

    def or_expr(self) -> Expression:
        left = self.and_expr()
        while self.accept("keyword", "OR"):
            left = Or(left, self.and_expr())
        return left

    def and_expr(self) -> Expression:
        left = self.not_expr()
        while self.accept("keyword", "AND"):
            left = And(left, self.not_expr())
        return left

    def not_expr(self) -> Expression:
        if self.accept("keyword", "NOT"):
            return Not(self.not_expr())
        return self.comparison()

    def comparison(self) -> Expression:
        left = self.additive()
        tok = self.peek()
        if tok.kind == "symbol" and tok.value in {"=", "<>", "!=", "<=", ">=", "<", ">"}:
            op = self.advance().value
            right = self.additive()
            return {
                "=": Eq,
                "<>": Neq,
                "!=": Neq,
                "<=": Leq,
                ">=": Geq,
                "<": Lt,
                ">": Gt,
            }[op](left, right)
        if self.accept_kw("IS"):
            negate = bool(self.accept("keyword", "NOT"))
            self.expect("keyword", "NULL")
            test: Expression = IsNull(left)
            return Not(test) if negate else test
        if self.accept_kw("BETWEEN"):
            lo = self.additive()
            self.expect("keyword", "AND")
            hi = self.additive()
            return And(Geq(left, lo), Leq(left, hi))
        if self.accept_kw("IN"):
            self.expect("symbol", "(")
            options = [self.additive()]
            while self.accept("symbol", ","):
                options.append(self.additive())
            self.expect("symbol", ")")
            cond: Expression = Eq(left, options[0])
            for opt in options[1:]:
                cond = Or(cond, Eq(left, opt))
            return cond
        return left

    def additive(self) -> Expression:
        left = self.multiplicative()
        while True:
            if self.accept("symbol", "+"):
                left = left + self.multiplicative()
            elif self.accept("symbol", "-"):
                left = left - self.multiplicative()
            else:
                return left

    def multiplicative(self) -> Expression:
        left = self.unary()
        while True:
            if self.accept("symbol", "*"):
                left = left * self.unary()
            elif self.accept("symbol", "/"):
                left = left / self.unary()
            else:
                return left

    def unary(self) -> Expression:
        if self.accept("symbol", "-"):
            return -self.unary()
        return self.primary()

    def primary(self) -> Expression:
        tok = self.peek()
        if tok.kind == "ident" and tok.value.upper() == "MAKEUNCERTAIN":
            nxt = self.tokens[self.pos + 1]
            if nxt.kind == "symbol" and nxt.value == "(":
                from ..core.expressions import MakeUncertain

                self.advance()
                self.expect("symbol", "(")
                lb = self.expression()
                self.expect("symbol", ",")
                sg = self.expression()
                self.expect("symbol", ",")
                ub = self.expression()
                self.expect("symbol", ")")
                return MakeUncertain(lb, sg, ub)
        if tok.kind == "param":
            self.advance()
            if tok.value == "?":
                # positional placeholders number left-to-right, 0-based
                p = Parameter(self.n_positional_params)
                self.n_positional_params += 1
                return p
            return Parameter(tok.value)
        if tok.kind == "number":
            self.advance()
            return Const(number_value(tok.value))
        if tok.kind == "string":
            self.advance()
            return Const(tok.value)
        if tok.kind == "keyword" and tok.value in {"TRUE", "FALSE"}:
            self.advance()
            return Const(tok.value == "TRUE")
        if tok.kind == "keyword" and tok.value == "NULL":
            self.advance()
            return Const(None)
        if tok.kind == "keyword" and tok.value == "CASE":
            return self.case_expression()
        if tok.kind == "symbol" and tok.value == "(":
            self.advance()
            inner = self.expression()
            self.expect("symbol", ")")
            return inner
        if tok.kind == "ident":
            self.advance()
            name = tok.value
            if self.accept("symbol", "."):
                # qualified name: keep only the attribute (global names)
                name = self.expect("ident").value
            return Var(name)
        raise SqlSyntaxError(
            f"unexpected token {tok.value!r} at position {tok.position}"
        )

    def case_expression(self) -> Expression:
        self.expect("keyword", "CASE")
        branches: List[Tuple[Expression, Expression]] = []
        while self.accept("keyword", "WHEN"):
            cond = self.expression()
            self.expect("keyword", "THEN")
            value = self.expression()
            branches.append((cond, value))
        default: Expression = Const(None)
        if self.accept("keyword", "ELSE"):
            default = self.expression()
        self.expect("keyword", "END")
        result = default
        for cond, value in reversed(branches):
            result = If(cond, value, result)
        return result


def parse_sql(sql: str) -> Plan:
    """Parse SQL text into a logical plan."""
    return _Parser(tokenize(sql)).parse()

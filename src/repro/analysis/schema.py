"""Typed schema inference over the logical plan algebra.

A :class:`Schema` maps each output column of a plan to a
:class:`ColumnInfo`: an inferred type from a small lattice
(:data:`TYPE_NUMBER` / :data:`TYPE_STRING` / :data:`TYPE_BOOL` with
:data:`TYPE_ANY` as top), a nullability flag, and an
annotation-*certainty* flag (``certain=True`` means the catalog proves
every value of the column is a point value, never a proper AU range).

Inference is bottom-up and *permissive where the runtime is*: the
universal domain order makes comparisons between any two values legal,
so type mismatches only become :class:`PlanTypeError` where evaluation
would raise a ``TypeError`` in every world (e.g. ``string + number``);
everything else unifies to :data:`TYPE_ANY`.  Unknown subtrees (tables
missing from the catalog, plan nodes the analysis does not know)
produce ``None`` instead of a schema, and every check downstream of an
unknown schema is skipped — verification never rejects a plan for lack
of catalog knowledge, only for provable inconsistency.

Certainty provenance mirrors the evaluation semantics: base columns are
certain when their harvested ``uncertain_fraction`` is exactly 0,
constants are certain, ``MakeUncertain`` is not, operators propagate
the conjunction of their operands, and aggregate outputs are
conservatively uncertain (group membership may differ across worlds).

Every rule is written once, per operator *shape* (select, project,
rename, join, set operation, aggregate, order keys): a function of the
child schemas and the node's own fields.  :func:`infer_logical`
dispatches each logical node to its shape, and
:func:`repro.analysis.verify.infer_physical` each physical node, so the
two IRs cannot drift apart.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..algebra import ast
from ..core import expressions as ex
from ..core.aggregation import AGGREGATES, AggregateSpec
from .errors import (
    PlanCompatibilityError,
    PlanReferenceError,
    PlanTypeError,
)

__all__ = [
    "TYPE_NUMBER",
    "TYPE_STRING",
    "TYPE_BOOL",
    "TYPE_ANY",
    "ColumnInfo",
    "Schema",
    "unify",
    "infer_expression",
    "infer_logical",
    "table_schema",
    "select_shape",
    "project_shape",
    "rename_shape",
    "join_shape",
    "set_op_shape",
    "aggregate_shape",
    "order_shape",
]

TYPE_NUMBER = "number"
TYPE_STRING = "string"
TYPE_BOOL = "bool"
TYPE_ANY = "any"


@dataclass(frozen=True)
class ColumnInfo:
    """One inferred output column: name, type, nullability, certainty."""

    name: str
    type: str = TYPE_ANY
    nullable: bool = True
    certain: bool = False

    def __repr__(self) -> str:
        flags = []
        if self.nullable:
            flags.append("null")
        if self.certain:
            flags.append("certain")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return f"{self.name}:{self.type}{suffix}"


class Schema:
    """An ordered tuple of :class:`ColumnInfo` with name lookup.

    Duplicate names are allowed (join outputs may collide); lookup is
    last-wins, matching how the executors build their row index
    (:meth:`repro.core.expressions.RowView.index_of`).
    """

    __slots__ = ("columns", "_by_name")

    def __init__(self, columns: Sequence[ColumnInfo]) -> None:
        self.columns: Tuple[ColumnInfo, ...] = tuple(columns)
        self._by_name: Dict[str, ColumnInfo] = {c.name: c for c in self.columns}

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def mapping(self) -> Dict[str, ColumnInfo]:
        return self._by_name

    def get(self, name: str) -> Optional[ColumnInfo]:
        return self._by_name.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> "Iterator[ColumnInfo]":
        return iter(self.columns)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.columns == other.columns

    def __hash__(self) -> int:
        return hash(self.columns)

    def __repr__(self) -> str:
        return f"Schema({', '.join(repr(c) for c in self.columns)})"


def unify(a: str, b: str) -> str:
    """Join of two lattice types; mismatches go to top, never raise."""
    if a == b:
        return a
    return TYPE_ANY


# ----------------------------------------------------------------------
# value / base-column typing
# ----------------------------------------------------------------------
def _value_type(value: Any) -> str:
    if isinstance(value, bool):
        return TYPE_BOOL
    if isinstance(value, (int, float)):
        return TYPE_NUMBER
    if isinstance(value, str):
        return TYPE_STRING
    # RangeValue (duck-typed to avoid importing the core at call sites
    # that only see plain values): type by the selected guess, falling
    # back to the bounds when the guess is null
    if hasattr(value, "sg") and hasattr(value, "lb") and hasattr(value, "ub"):
        for bound in (value.sg, value.lb, value.ub):
            if bound is not None:
                return _value_type(bound)
    return TYPE_ANY


def _column_from_stats(name: str, col: Any) -> ColumnInfo:
    """Base-table column info from a harvested
    :class:`~repro.algebra.stats.ColumnStats` (``None`` = no catalog)."""
    if col is None:
        return ColumnInfo(name)
    lo = getattr(col, "min_value", None)
    hi = getattr(col, "max_value", None)
    kind = TYPE_ANY
    if lo is not None and hi is not None:
        kind = unify(_value_type(lo), _value_type(hi))
    elif lo is not None:
        kind = _value_type(lo)
    elif hi is not None:
        kind = _value_type(hi)
    return ColumnInfo(
        name,
        kind,
        nullable=getattr(col, "null_fraction", 1.0) > 0.0,
        certain=getattr(col, "uncertain_fraction", 1.0) == 0.0,
    )


# Per-catalog memo for base-table schemas.  A Statistics catalog is an
# immutable snapshot (frozen dataclass; every refresh builds a new
# object and fresh ColumnStats), so caching on catalog *identity* is
# sound — the weakref guards against id() reuse after the snapshot is
# garbage-collected.  This matters because per-rewrite verification
# re-infers the same base tables once per optimizer pass.
_TABLE_SCHEMA_CACHE: Dict[
    int, Tuple[Any, Dict[str, Optional[Schema]]]
] = {}
_TABLE_SCHEMA_CACHE_MAX = 8


def _table_schema_uncached(name: str, catalog: Any) -> Optional[Schema]:
    schemas = getattr(catalog, "schemas", None) or {}
    names = schemas.get(name)
    if names is None:
        return None
    columns = (getattr(catalog, "columns", None) or {}).get(name) or {}
    return Schema([_column_from_stats(a, columns.get(a)) for a in names])


def table_schema(name: str, catalog: Any) -> Optional[Schema]:
    """Schema of base table ``name`` per the statistics catalog
    (``None`` when the catalog does not know the table)."""
    if catalog is None:
        return None
    key = id(catalog)
    entry = _TABLE_SCHEMA_CACHE.get(key)
    if entry is None or entry[0]() is not catalog:
        if len(_TABLE_SCHEMA_CACHE) >= _TABLE_SCHEMA_CACHE_MAX:
            _TABLE_SCHEMA_CACHE.clear()
        try:
            ref = weakref.ref(catalog)
        except TypeError:  # non-weakrefable duck-typed catalog
            return _table_schema_uncached(name, catalog)
        entry = (ref, {})
        _TABLE_SCHEMA_CACHE[key] = entry
    per_table = entry[1]
    if name not in per_table:
        per_table[name] = _table_schema_uncached(name, catalog)
    return per_table[name]


# ----------------------------------------------------------------------
# expression inference
# ----------------------------------------------------------------------
Env = Optional[Mapping[str, ColumnInfo]]

_COMPARISONS = (ex.Eq, ex.Neq, ex.Leq, ex.Lt, ex.Geq, ex.Gt)
_BOOLEANS = (ex.And, ex.Or)


def infer_expression(expr: ex.Expression, env: Env, where: str = "") -> ColumnInfo:
    """Infer the (anonymous) type of ``expr`` over column environment ``env``.

    ``env`` is a name → :class:`ColumnInfo` mapping (last-wins, as built
    by :meth:`Schema.mapping`), or ``None`` when the input schema is
    unknown — every reference then resolves permissively.  ``where``
    names the plan node for diagnostics.  Raises
    :class:`PlanReferenceError` for a variable missing from a *known*
    environment and :class:`PlanTypeError` for arithmetic that fails in
    every world.
    """
    suffix = f" in {where}" if where else ""
    if isinstance(expr, ex.Var):
        if env is None:
            return ColumnInfo(expr.name)
        info = env.get(expr.name)
        if info is None:
            # same leading phrase as the runtime's KeyError so callers
            # matching on "unbound variable" see the identical failure,
            # just at prepare time and with the node named
            raise PlanReferenceError(
                f"unbound variable {expr.name!r}{suffix}; "
                f"available columns: {sorted(env)}"
            )
        return info
    if isinstance(expr, ex.Const):
        value = expr.value
        certain = True
        if hasattr(value, "is_certain"):
            certain = bool(value.is_certain)
        return ColumnInfo(
            "", _value_type(value), nullable=value is None, certain=certain
        )
    if isinstance(expr, ex.Parameter):
        # parameters bind to arbitrary constants; nothing is provable
        return ColumnInfo("", TYPE_ANY, nullable=True, certain=True)
    if isinstance(expr, _BOOLEANS) or isinstance(expr, _COMPARISONS):
        a = infer_expression(expr.left, env, where)
        b = infer_expression(expr.right, env, where)
        # the universal domain order totalizes comparisons: never a
        # type error, only a (possibly surprising) ordering
        return ColumnInfo(
            "", TYPE_BOOL, nullable=False, certain=a.certain and b.certain
        )
    if isinstance(expr, ex.Not):
        a = infer_expression(expr.operand, env, where)
        return ColumnInfo("", TYPE_BOOL, nullable=False, certain=a.certain)
    if isinstance(expr, ex.IsNull):
        a = infer_expression(expr.operand, env, where)
        return ColumnInfo("", TYPE_BOOL, nullable=False, certain=a.certain)
    if isinstance(expr, ex.Add):
        a = infer_expression(expr.left, env, where)
        b = infer_expression(expr.right, env, where)
        pair = {a.type, b.type}
        if pair == {TYPE_STRING, TYPE_NUMBER} or pair == {TYPE_STRING, TYPE_BOOL}:
            raise PlanTypeError(
                f"cannot add {a.type} and {b.type}{suffix}: {expr!r}"
            )
        return ColumnInfo(
            "",
            unify(a.type, b.type),
            nullable=a.nullable or b.nullable,
            certain=a.certain and b.certain,
        )
    if isinstance(expr, (ex.Sub, ex.Div)):
        a = infer_expression(expr.left, env, where)
        b = infer_expression(expr.right, env, where)
        op = "subtract" if isinstance(expr, ex.Sub) else "divide"
        if TYPE_STRING in (a.type, b.type):
            raise PlanTypeError(f"cannot {op} strings{suffix}: {expr!r}")
        known = a.type == TYPE_NUMBER and b.type == TYPE_NUMBER
        return ColumnInfo(
            "",
            TYPE_NUMBER if known else TYPE_ANY,
            nullable=a.nullable or b.nullable,
            certain=a.certain and b.certain,
        )
    if isinstance(expr, ex.Mul):
        a = infer_expression(expr.left, env, where)
        b = infer_expression(expr.right, env, where)
        if a.type == TYPE_STRING and b.type == TYPE_STRING:
            raise PlanTypeError(
                f"cannot multiply two strings{suffix}: {expr!r}"
            )
        known = a.type == TYPE_NUMBER and b.type == TYPE_NUMBER
        return ColumnInfo(
            "",
            TYPE_NUMBER if known else TYPE_ANY,
            nullable=a.nullable or b.nullable,
            certain=a.certain and b.certain,
        )
    if isinstance(expr, ex.Neg):
        a = infer_expression(expr.operand, env, where)
        if a.type == TYPE_STRING:
            raise PlanTypeError(f"cannot negate a string{suffix}: {expr!r}")
        return ColumnInfo(
            "",
            TYPE_NUMBER if a.type == TYPE_NUMBER else TYPE_ANY,
            nullable=a.nullable,
            certain=a.certain,
        )
    if isinstance(expr, ex.If):
        c = infer_expression(expr.cond, env, where)
        t = infer_expression(expr.then_branch, env, where)
        e = infer_expression(expr.else_branch, env, where)
        return ColumnInfo(
            "",
            unify(t.type, e.type),
            nullable=t.nullable or e.nullable,
            certain=c.certain and t.certain and e.certain,
        )
    if isinstance(expr, ex.MakeUncertain):
        parts = [
            infer_expression(e, env, where)
            for e in (expr.lb, expr.sg, expr.ub)
        ]
        kind = parts[0].type
        for p in parts[1:]:
            kind = unify(kind, p.type)
        return ColumnInfo(
            "",
            kind,
            nullable=any(p.nullable for p in parts),
            certain=False,
        )
    # unknown expression node: inspect nothing, prove nothing
    return ColumnInfo("")


# ----------------------------------------------------------------------
# shape rules: one per operator shape, shared by the logical and the
# physical inference (:func:`repro.analysis.verify.infer_physical`)
# ----------------------------------------------------------------------
def _env(schema: Optional[Schema]) -> Env:
    return schema.mapping() if schema is not None else None


def _named(name: str, info: ColumnInfo) -> ColumnInfo:
    return ColumnInfo(name, info.type, info.nullable, info.certain)


def select_shape(
    child: Optional[Schema], condition: ex.Expression, where: str
) -> Optional[Schema]:
    """σ: the condition resolves over the child, whose schema passes."""
    infer_expression(condition, _env(child), where)
    return child


def project_shape(
    child: Optional[Schema],
    columns: Sequence[Tuple[ex.Expression, str]],
    where: str,
) -> Schema:
    """π: one output column per ``(expression, name)``."""
    env = _env(child)
    return Schema(
        [
            _named(name, infer_expression(expr, env, f"{where} column {name!r}"))
            for expr, name in columns
        ]
    )


def rename_shape(
    child: Optional[Schema], mapping: Mapping[str, str]
) -> Optional[Schema]:
    """ρ: every renamed column exists; types and flags carry over."""
    if child is None:
        return None
    for old in mapping:
        if old not in child:
            raise PlanReferenceError(
                f"Rename of unknown column {old!r}; "
                f"available columns: {sorted(child.names)}"
            )
    return Schema([_named(mapping.get(c.name, c.name), c) for c in child])


def join_shape(
    left: Optional[Schema],
    right: Optional[Schema],
    condition: Optional[ex.Expression],
    where: str,
) -> Optional[Schema]:
    """⋈ / ×: the left columns, then the right; the condition (if any)
    resolves over both."""
    combined: Optional[Schema] = None
    if left is not None and right is not None:
        combined = Schema(left.columns + right.columns)
    if condition is not None:
        infer_expression(condition, _env(combined), f"{where} condition")
    return combined


def set_op_shape(
    op: str, left: Optional[Schema], right: Optional[Schema]
) -> Optional[Schema]:
    """∪ / − (``op`` is ``"union"`` or ``"difference"``): the branches
    are union-compatible; names follow the left branch, types and flags
    merge positionally across both."""
    if left is None:
        return None
    if right is None:
        return left
    if len(left) != len(right):
        raise PlanCompatibilityError(
            f"{op} branches are not union-compatible: left has "
            f"{len(left)} column(s) {left.names}, right has "
            f"{len(right)} column(s) {right.names}"
        )
    return Schema(
        [
            ColumnInfo(
                a.name,
                unify(a.type, b.type),
                a.nullable or b.nullable,
                a.certain and b.certain,
            )
            for a, b in zip(left, right)
        ]
    )


def aggregate_shape(
    child: Optional[Schema],
    group_by: Sequence[str],
    aggregates: Sequence[AggregateSpec],
    having: Optional[ex.Expression],
    where: str,
) -> Schema:
    """γ: the group-by columns, then one column per aggregate; HAVING
    sees the output schema only."""
    env = _env(child)
    out: List[ColumnInfo] = []
    for key in group_by:
        if env is None:
            out.append(ColumnInfo(key))
            continue
        info = env.get(key)
        if info is None:
            raise PlanReferenceError(
                f"unknown group-by column {key!r} in {where}; "
                f"available columns: {sorted(env)}"
            )
        out.append(_named(key, info))
    out.extend(_aggregate_output(spec, env) for spec in aggregates)
    # colliding output names are tolerated (last-wins), matching the
    # executors' RowView semantics — same as duplicate join columns
    result = Schema(out)
    if having is not None:
        infer_expression(having, result.mapping(), "HAVING clause")
    return result


def order_shape(
    child: Optional[Schema], keys: Sequence[str], where: str
) -> Optional[Schema]:
    """Ordering (sort or top-k): every key resolves; the schema passes."""
    if child is not None:
        for key in keys:
            if key not in child:
                raise PlanReferenceError(
                    f"unknown column {key!r} in {where} order-by keys; "
                    f"available columns: {sorted(child.names)}"
                )
    return child


def _aggregate_output(spec: AggregateSpec, env: Env) -> ColumnInfo:
    inner: Optional[ColumnInfo] = None
    if spec.expr is not None:
        inner = infer_expression(
            spec.expr, env, f"aggregate {spec.kind}(...) AS {spec.name!r}"
        )
    try:
        kind, nullable = AGGREGATES[spec.kind].result_type(inner)
    except TypeError as exc:
        raise PlanTypeError(
            f"aggregate {spec.kind}() over {exc} "
            f"({spec.name!r}): {spec.expr!r}"
        ) from None
    # aggregate outputs are conservatively uncertain: group membership
    # (and hence the aggregated multiset) can differ across worlds
    return ColumnInfo(spec.name, kind, nullable=nullable, certain=False)


# ----------------------------------------------------------------------
# logical plan inference
# ----------------------------------------------------------------------
def _describe(plan: ast.Plan) -> str:
    if isinstance(plan, ast.TableRef):
        return f"TableRef({plan.name})"
    return type(plan).__name__


def infer_logical(
    plan: ast.Plan, catalog: Any = None
) -> Optional[Schema]:
    """Infer the output :class:`Schema` of a logical plan bottom-up.

    ``catalog`` is a :class:`~repro.algebra.optimizer.Statistics` (or
    any object with ``schemas`` / ``columns`` mappings), or ``None``.
    Returns ``None`` when the schema cannot be determined (unknown
    table, unknown node type, or an opaque subtree in a position that
    needs names).  Raises the :mod:`repro.analysis.errors` diagnostics
    for references, set operations, and expression types that are
    provably wrong.  Each node dispatches to its operator's shape rule.
    """
    if isinstance(plan, ast.TableRef):
        return table_schema(plan.name, catalog)
    if isinstance(plan, ast.Selection):
        return select_shape(
            infer_logical(plan.child, catalog),
            plan.condition,
            f"Selection over {_describe(plan.child)}",
        )
    if isinstance(plan, ast.Projection):
        return project_shape(
            infer_logical(plan.child, catalog), plan.columns, "Projection"
        )
    if isinstance(plan, ast.Rename):
        return rename_shape(infer_logical(plan.child, catalog), plan.mapping_dict())
    if isinstance(plan, (ast.Join, ast.CrossProduct)):
        return join_shape(
            infer_logical(plan.left, catalog),
            infer_logical(plan.right, catalog),
            plan.condition if isinstance(plan, ast.Join) else None,
            "Join",
        )
    if isinstance(plan, (ast.Union, ast.Difference)):
        return set_op_shape(
            "union" if isinstance(plan, ast.Union) else "difference",
            infer_logical(plan.left, catalog),
            infer_logical(plan.right, catalog),
        )
    if isinstance(plan, ast.Aggregate):
        return aggregate_shape(
            infer_logical(plan.child, catalog),
            plan.group_by,
            plan.aggregates,
            plan.having,
            "Aggregate",
        )
    if isinstance(plan, (ast.OrderBy, ast.TopK)):
        return order_shape(
            infer_logical(plan.child, catalog), plan.keys, type(plan).__name__
        )
    if isinstance(plan, (ast.Distinct, ast.Limit)):
        return infer_logical(plan.child, catalog)
    # unknown plan node (e.g. an extension subclass): opaque, not wrong
    return None

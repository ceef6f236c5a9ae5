"""Deterministic bag-semantics query engine (the ``Det`` / SGQP baseline).

Evaluates :mod:`repro.algebra` plans over :class:`~repro.db.storage.DetRelation`
instances with standard K-relation semantics for ``N``: selection filters,
projection sums multiplicities, joins multiply them, union adds, difference
is truncating subtraction, aggregation folds multiplicities into SUM/COUNT
and ignores them for MIN/MAX.

``ORDER BY … LIMIT k`` is honoured: a :class:`~repro.algebra.ast.Limit`
whose child is an :class:`~repro.algebra.ast.OrderBy` (or a fused
:class:`~repro.algebra.ast.TopK` produced by the optimizer) returns the
top-k rows under the requested sort keys; a bare ``Limit`` falls back to
the full-tuple domain order, which is arbitrary but deterministic.  Empty
MIN/MAX aggregates return ``None`` (SQL NULL), not ±inf.  Float SUM/AVG
fold through :mod:`repro.core.sums`, so results are bit-identical across
backends, plan shapes, and parallelism levels.

By default plans pass through the shared logical optimizer
(:mod:`repro.algebra.optimizer`) and are then *lowered* into an explicit
physical plan (:mod:`repro.exec.physical`), which makes every physical
choice — join algorithm, compression budget, parallel regions — at plan
time.  By default the physical plan runs on
:mod:`repro.exec.vectorized`, optionally partition-parallel via
``parallelism``; ``backend="tuple"`` interprets it tuple-at-a-time in
this module instead.  ``physical=False`` selects the legacy direct
interpretation of the logical plan (kept as the differential fuzzer's
reference lowering) on either backend.

This engine doubles as the *possible-world evaluator*: the ground-truth
oracle runs the same plan in every world of an incomplete database.
"""

from __future__ import annotations

from heapq import nlargest, nsmallest
from itertools import compress, repeat
from operator import ge, gt, le
from typing import Any, Dict, List, Optional, Sequence, Tuple

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
    Rename,
    Selection,
    TableRef,
    TopK,
    Union,
)
from ..algebra.optimizer import DEFAULT_JOIN_ORDER
from ..core.aggregation import AggregateSpec
from ..core.expressions import Expression, RowView, Var
from ..core.ranges import order_key
from ..core.sums import exact_sum
from ..exec import physical as phys
from .. import telemetry as _tm
from .storage import DetDatabase, DetRelation

__all__ = [
    "evaluate_det", "execute_physical_det", "subtract", "take", "topk_candidates"
]

Rows = Dict[Tuple[Any, ...], int]


def evaluate_det(
    plan: Plan,
    db: DetDatabase,
    optimize: bool = True,
    join_order: str = DEFAULT_JOIN_ORDER,
    actuals: Optional[Dict[int, int]] = None,
    backend: str = phys.DEFAULT_BACKEND,
    parallelism: int = 1,
    physical: bool = True,
    chunk_size: Optional[int] = None,
) -> DetRelation:
    """Evaluate ``plan`` over deterministic database ``db``.

    Since the query-session layer (:mod:`repro.session`) this is a thin
    shim: it opens an ephemeral :class:`~repro.session.Connection`,
    compiles the plan through the full pipeline, and executes it once.
    Repeated-query workloads should hold a ``Connection`` (or a
    :class:`~repro.session.PreparedQuery`) instead and amortize the
    parse/optimize/lower stages across executions.

    ``optimize`` (default on) runs the shared logical plan optimizer
    first; its rewrites are exact for bag semantics, so the result is
    identical either way.  ``join_order`` selects the join enumeration
    strategy (``"dp"`` cost-based / ``"greedy"``).

    ``physical`` (default on) lowers the (optimized) plan through
    :func:`repro.exec.physical.lower`, which picks the join algorithm
    per join from the statistics catalog and fuses selection/projection
    pairs; ``physical=False`` keeps the legacy direct interpretation of
    the logical plan and lowers nothing, whatever ``backend`` says (the
    fuzzer's oracle).

    ``backend`` selects the physical executor: ``"vectorized"`` (the
    default — :mod:`repro.exec`: columnar batches, fused compiled
    predicates, hash joins/aggregates) or ``"tuple"`` (this module's
    operator-at-a-time interpreter).  ``parallelism`` > 1 adds
    morsel-parallel regions to vectorized plans
    (:mod:`repro.exec.parallel`), forking the worker pool.
    ``chunk_size`` sets the rows per storage chunk for vectorized
    scans (:mod:`repro.db.chunks`; ``None`` → the default).  Results are
    identical on every backend, parallelism level, and chunk size,
    floats included (:mod:`repro.core.sums`).

    ``actuals``, when a dict, is filled with the actual output
    cardinality of every evaluated node — keyed by ``id(node)`` of the
    logical nodes (as before) and additionally of the physical nodes,
    feeding both ``explain`` renderings; with ``optimize=True`` the
    recorded nodes belong to the *optimized* plan, so pre-optimize and
    pass ``optimize=False`` to correlate them.
    """
    from ..algebra.evaluator import EvalConfig
    from ..session import Connection

    config = EvalConfig(
        optimize=optimize,
        join_order=join_order,
        backend=backend,
        parallelism=parallelism,
        physical=physical,
        chunk_size=chunk_size,
    )
    with Connection(db, engine="det", config=config) as conn:
        return conn.execute(plan, actuals=actuals)


# ----------------------------------------------------------------------
# physical-plan interpreter (tuple-at-a-time)
# ----------------------------------------------------------------------
def execute_physical_det(
    pplan: phys.PhysNode,
    db: DetDatabase,
    actuals: Optional[Dict[int, int]] = None,
) -> DetRelation:
    """Interpret a physical plan tuple-at-a-time.

    A thin mapping from physical operators to this module's bag
    operators; all choices (hash vs nested loop, parallel regions)
    were made by :func:`repro.exec.physical.lower`.

    Every node evaluation goes through :func:`repro.telemetry.run_op`
    (operator span when a trace is active, per-node ``actuals``).
    """
    return _tm.run_op(
        pplan, _exec_node, (db, actuals), actuals, DetRelation.total_rows
    )


def _exec(p: phys.PhysNode, db: DetDatabase, actuals) -> DetRelation:
    return execute_physical_det(p, db, actuals)


def _exec_node(
    p: phys.PhysNode, db: DetDatabase, actuals: Optional[Dict[int, int]]
) -> DetRelation:
    if isinstance(p, phys.Scan):
        return db[p.table]
    if isinstance(p, phys.FusedSelectProject):
        rel = _exec(p.child, db, actuals)
        if p.condition is not None:
            rel = _selection(rel, p.condition)
        if p.columns is not None:
            rel = _projection(rel, p.columns)
        return rel
    if isinstance(p, phys.HashJoin):
        left = _exec(p.left, db, actuals)
        right = _exec(p.right, db, actuals)
        if _tm._ACTIVE is not None:
            _tm.annotate(build_rows=right.total_rows())
        return _hash_join(left, right, p.condition, p.eq_pairs)
    if isinstance(p, phys.NLJoin):
        left = _exec(p.left, db, actuals)
        right = _exec(p.right, db, actuals)
        if p.condition is None:
            return _cross(left, right)
        return _loop_join(left, right, p.condition)
    if isinstance(p, phys.Concat):
        return _union(_exec(p.left, db, actuals), _exec(p.right, db, actuals))
    if isinstance(p, phys.HashDistinct):
        return _distinct(_exec(p.child, db, actuals))
    if isinstance(p, phys.HashAggregate):
        result = _aggregate(
            _exec(p.child, db, actuals), p.group_by, p.aggregates
        )
        if p.having is not None:
            result = _selection(result, p.having)
        return result
    if isinstance(p, phys.Rename):
        return _rename(_exec(p.child, db, actuals), p.mapping)
    if isinstance(p, phys.TopK):
        return _topk(_exec(p.child, db, actuals), p.keys, p.descending, p.n)
    if isinstance(p, phys.Limit):
        return _limit(_exec(p.child, db, actuals), p.n)
    if isinstance(p, phys.HashExcept):
        return _difference(_exec(p.left, db, actuals), _exec(p.right, db, actuals))
    raise TypeError(f"unsupported physical node {type(p).__name__}")


# ----------------------------------------------------------------------
# legacy direct interpretation of logical plans
# ----------------------------------------------------------------------
def _evaluate(
    plan: Plan, db: DetDatabase, actuals: Optional[Dict[int, int]] = None
) -> DetRelation:
    result = _evaluate_node(plan, db, actuals)
    if actuals is not None:
        actuals[id(plan)] = result.total_rows()
    return result


def _evaluate_node(
    plan: Plan, db: DetDatabase, actuals: Optional[Dict[int, int]]
) -> DetRelation:
    if isinstance(plan, TableRef):
        return db[plan.name]
    if isinstance(plan, Selection):
        return _selection(_evaluate(plan.child, db, actuals), plan.condition)
    if isinstance(plan, Projection):
        return _projection(_evaluate(plan.child, db, actuals), plan.columns)
    if isinstance(plan, Join):
        return _join(
            _evaluate(plan.left, db, actuals),
            _evaluate(plan.right, db, actuals),
            plan.condition,
        )
    if isinstance(plan, CrossProduct):
        return _cross(
            _evaluate(plan.left, db, actuals), _evaluate(plan.right, db, actuals)
        )
    if isinstance(plan, Union):
        return _union(
            _evaluate(plan.left, db, actuals), _evaluate(plan.right, db, actuals)
        )
    if isinstance(plan, Difference):
        return _difference(
            _evaluate(plan.left, db, actuals), _evaluate(plan.right, db, actuals)
        )
    if isinstance(plan, Distinct):
        return _distinct(_evaluate(plan.child, db, actuals))
    if isinstance(plan, Aggregate):
        result = _aggregate(
            _evaluate(plan.child, db, actuals), plan.group_by, plan.aggregates
        )
        if plan.having is not None:
            result = _selection(result, plan.having)
        return result
    if isinstance(plan, Rename):
        return _rename(_evaluate(plan.child, db, actuals), plan.mapping_dict())
    if isinstance(plan, OrderBy):
        return _evaluate(plan.child, db, actuals)  # bags are unordered
    if isinstance(plan, TopK):
        return _topk(
            _evaluate(plan.child, db, actuals), plan.keys, plan.descending, plan.n
        )
    if isinstance(plan, Limit):
        child = plan.child
        if isinstance(child, OrderBy):
            # thread the ORDER BY keys into the limit so the *right* top-k
            # rows survive, not the top-k of an arbitrary tuple order
            return _topk(
                _evaluate(child.child, db, actuals),
                child.keys,
                child.descending,
                plan.n,
            )
        return _limit(_evaluate(child, db, actuals), plan.n)
    raise TypeError(f"unsupported plan node {type(plan).__name__}")


# ----------------------------------------------------------------------
# operators
# ----------------------------------------------------------------------
def _selection(rel: DetRelation, condition: Expression) -> DetRelation:
    out = DetRelation(rel.schema)
    index = RowView.index_of(rel.schema)
    for t, m in rel.tuples():
        if bool(condition.eval(RowView(index, t))):
            out.add(t, m)
    return out


def _projection(
    rel: DetRelation, columns: Sequence[Tuple[Expression, str]]
) -> DetRelation:
    out = DetRelation([name for _, name in columns])
    index = RowView.index_of(rel.schema)
    for t, m in rel.tuples():
        valuation = RowView(index, t)
        out.add(tuple(expr.eval(valuation) for expr, _ in columns), m)
    return out


def _join(left: DetRelation, right: DetRelation, condition: Expression) -> DetRelation:
    """Legacy lowering: hash whenever an equi-conjunct exists."""
    eq_pairs = _equi_pairs(condition, left.schema, right.schema)
    if eq_pairs:
        return _hash_join(left, right, condition, eq_pairs)
    return _loop_join(left, right, condition)


def _hash_join(
    left: DetRelation,
    right: DetRelation,
    condition: Expression,
    eq_pairs: Sequence[Tuple[str, str]],
) -> DetRelation:
    schema = tuple(left.schema) + tuple(right.schema)
    index = RowView.index_of(schema)
    out = DetRelation(schema)
    l_idx = [left.attr_index(a) for a, _ in eq_pairs]
    r_idx = [right.attr_index(b) for _, b in eq_pairs]
    hash_index: Dict[Tuple[Any, ...], List[Tuple[Tuple[Any, ...], int]]] = {}
    for rt, rm in right.tuples():
        hash_index.setdefault(tuple(rt[i] for i in r_idx), []).append((rt, rm))
    for lt, lm in left.tuples():
        key = tuple(lt[i] for i in l_idx)
        for rt, rm in hash_index.get(key, ()):
            combined = lt + rt
            if bool(condition.eval(RowView(index, combined))):
                out.add(combined, lm * rm)
    return out


def _loop_join(
    left: DetRelation, right: DetRelation, condition: Expression
) -> DetRelation:
    schema = tuple(left.schema) + tuple(right.schema)
    index = RowView.index_of(schema)
    out = DetRelation(schema)
    right_rows = list(right.tuples())
    for lt, lm in left.tuples():
        for rt, rm in right_rows:
            combined = lt + rt
            if bool(condition.eval(RowView(index, combined))):
                out.add(combined, lm * rm)
    return out


def _equi_pairs(
    condition: Expression, left_schema: Sequence[str], right_schema: Sequence[str]
) -> List[Tuple[str, str]]:
    from ..core.expressions import And, Eq

    left_set, right_set = set(left_schema), set(right_schema)
    pairs: List[Tuple[str, str]] = []

    def walk(e: Expression) -> None:
        if isinstance(e, And):
            walk(e.left)
            walk(e.right)
        elif isinstance(e, Eq) and isinstance(e.left, Var) and isinstance(e.right, Var):
            if e.left.name in left_set and e.right.name in right_set:
                pairs.append((e.left.name, e.right.name))
            elif e.right.name in left_set and e.left.name in right_set:
                pairs.append((e.right.name, e.left.name))

    walk(condition)
    return pairs


def _cross(left: DetRelation, right: DetRelation) -> DetRelation:
    out = DetRelation(tuple(left.schema) + tuple(right.schema))
    for lt, lm in left.tuples():
        for rt, rm in right.tuples():
            out.add(lt + rt, lm * rm)
    return out


def _union(left: DetRelation, right: DetRelation) -> DetRelation:
    if len(left.schema) != len(right.schema):
        raise ValueError("union requires union-compatible schemas")
    out = DetRelation(left.schema)
    for t, m in left.tuples():
        out.add(t, m)
    for t, m in right.tuples():
        out.add(t, m)
    return out


def _difference(left: DetRelation, right: DetRelation) -> DetRelation:
    if len(left.schema) != len(right.schema):
        raise ValueError("difference requires union-compatible schemas")
    return DetRelation(left.schema, subtract(left.rows, right.rows))


def _distinct(rel: DetRelation) -> DetRelation:
    return DetRelation(rel.schema, dict.fromkeys(rel.rows, 1))


def _rename(rel: DetRelation, mapping: Dict[str, str]) -> DetRelation:
    out = DetRelation([mapping.get(a, a) for a in rel.schema])
    for t, m in rel.tuples():
        out.add(t, m)
    return out


def _limit(rel: DetRelation, n: int) -> DetRelation:
    return DetRelation(rel.schema, take(rel.rows, n))


def _topk(
    rel: DetRelation, keys: Sequence[str], descending: bool, n: int
) -> DetRelation:
    key_idx = [rel.attr_index(k) for k in keys]
    return DetRelation(rel.schema, take(rel.rows, n, key_idx, descending))


# Bag operators over ``{row: multiplicity}`` dicts: the relations above
# and the vectorized executor's merged batches both run through them.
def subtract(left: Rows, right: Rows) -> Rows:
    """Each left row's multiplicity less the right's, kept where positive."""
    out: Rows = {}
    for t, m in left.items():
        remaining = m - right.get(t, 0)
        if remaining > 0:
            out[t] = remaining
    return out


def take(
    rows: Rows,
    n: int,
    key_idx: Optional[Sequence[int]] = None,
    descending: bool = False,
) -> Rows:
    """The first ``n`` copies of ``rows`` in full-tuple order or, given
    ``key_idx``, ordered on those columns with that order breaking ties:
    ``ORDER BY … [DESC] LIMIT n``.  Both sorts run on
    :func:`~repro.core.ranges.order_key`, which ranks NaN consistently."""
    order = sorted(rows, key=lambda t: tuple(map(order_key, t)))
    if key_idx is not None:
        order.sort(
            key=lambda t: tuple(order_key(t[j]) for j in key_idx),
            reverse=descending,
        )
    out: Rows = {}
    taken = 0
    for t in order:
        if taken >= n:
            break
        out[t] = step = min(rows[t], n - taken)
        taken += step
    return out


def topk_candidates(
    keys: Sequence, firm: Sequence[int], n: int, descending: bool = False
) -> Optional[List[int]]:
    """The positions of the rows that can be among the first ``n`` output
    copies of an ``ORDER BY … [DESC] LIMIT n`` (:func:`take`, or the AU
    :func:`~repro.core.operators.au_topk`), or ``None`` when it keeps
    every row.

    ``keys`` holds each row's order key, ``firm`` how many copies the row
    certainly contributes: a det row's multiplicity, an AU row's ``lb``.
    A row strictly worse than the ``n``-th best key among the rows with
    ``firm > 0`` follows at least ``n`` certain copies, so it is cut; the
    rows that tie with or beat that key are kept, in their order.  The
    callers then run the exact sort and prefix logic on the kept rows
    only: they are a prefix of its order.
    """
    if n <= 0:
        return []
    if min(firm, default=1) <= 0:
        keys_firm = list(compress(keys, map(gt, firm, repeat(0))))
    else:
        keys_firm = keys
    if len(keys_firm) < n:
        return None
    bar = (nlargest if descending else nsmallest)(n, keys_firm)[-1]
    beats = map(ge if descending else le, keys, repeat(bar))
    kept = list(compress(range(len(keys)), beats))
    return kept if len(kept) < len(keys) else None


def _aggregate(
    rel: DetRelation,
    group_by: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> DetRelation:
    """Standard SQL/bag aggregation.

    SUM and COUNT weight by multiplicity; MIN/MAX ignore it; AVG is the
    multiplicity-weighted mean.  Each output group has multiplicity 1.
    Float SUM/AVG use order-independent exact summation
    (:mod:`repro.core.sums`), matching the vectorized backend bit for
    bit.
    """
    group_idx = [rel.attr_index(a) for a in group_by]
    out_schema = list(group_by) + [spec.name for spec in aggregates]
    out = DetRelation(out_schema)

    groups: Dict[Tuple[Any, ...], List[Tuple[Tuple[Any, ...], int]]] = {}
    for t, m in rel.tuples():
        key = tuple(t[i] for i in group_idx)
        groups.setdefault(key, []).append((t, m))

    if not groups and not group_by:
        out.add(tuple(_empty_value(spec) for spec in aggregates), 1)
        return out

    for key, rows in groups.items():
        values: List[Any] = list(key)
        for spec in aggregates:
            values.append(_fold(spec, rel.schema, rows))
        out.add(tuple(values), 1)
    return out


def _fold(
    spec: AggregateSpec,
    schema: Sequence[str],
    rows: Sequence[Tuple[Tuple[Any, ...], int]],
) -> Any:
    if spec.kind == "count":
        return sum(m for _t, m in rows)
    index = RowView.index_of(schema)
    values = [(spec.expr.eval(RowView(index, t)), m) for t, m in rows]
    if spec.kind == "sum":
        return exact_sum(values)
    if spec.kind == "min":
        return min((v for v, _m in values), key=order_key)
    if spec.kind == "max":
        return max((v for v, _m in values), key=order_key)
    if spec.kind == "avg":
        total_m = sum(m for _v, m in values)
        return exact_sum(values) / total_m
    raise ValueError(f"unsupported aggregate {spec.kind!r}")


def _empty_value(spec: AggregateSpec) -> Any:
    if spec.kind in {"sum", "count"}:
        return 0
    if spec.kind == "avg":
        return 0.0
    # SQL semantics: MIN/MAX over an empty input is NULL, not ±inf
    return None

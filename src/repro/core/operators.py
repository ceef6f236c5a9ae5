"""Bound-preserving relational operators over AU-relations.

This module implements the ``RA+`` query semantics of Section 7 (selection,
projection, cross product / join, union), the SG-combiner ``Ψ``
(Definition 21), and set difference (Definition 22).  Aggregation lives in
:mod:`repro.core.aggregation`.

All operators are pure functions ``AURelation -> AURelation``.  By
Theorems 3 and 4 they preserve bounds: if the inputs bound an incomplete
database, the outputs bound the query result over that database.  The
property-based tests in ``tests/test_property_bounds.py`` verify this
against brute-force possible-world evaluation.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .expressions import Expression, RowView, Var
from .ranges import RangeValue
from .relation import AURelation
from .semirings import AUAnnotation, au_add, au_multiply
from .tuples import (
    AUTuple,
    merge_tuples,
    sg_tuple,
    tuple_is_certain,
    tuples_certainly_equal,
    tuples_may_equal,
)

__all__ = [
    "selection",
    "projection",
    "cross_product",
    "join",
    "union",
    "sg_combine",
    "difference",
    "rename",
    "distinct",
    "au_topk",
    "condition_annotation",
]


def condition_annotation(
    condition: Expression, valuation: Dict[str, RangeValue]
) -> AUAnnotation:
    """Evaluate a selection condition and map ``B^3 -> N^AU``.

    This is ``M_N(⟦θ⟧)`` of Definitions 19/20: each of the three boolean
    bounds becomes multiplicity ``1`` when true and ``0`` otherwise.
    """
    r = condition.eval_range(valuation)
    return (
        1 if bool(r.lb) else 0,
        1 if bool(r.sg) else 0,
        1 if bool(r.ub) else 0,
    )


def selection(rel: AURelation, condition: Expression) -> AURelation:
    """``σ_θ(R)``: multiply each annotation with ``M_N(θ(t))``.

    Tuples whose condition is certainly false (upper bound ``⊥``) are
    dropped entirely.
    """
    out = AURelation(rel.schema)
    index = RowView.index_of(rel.schema)
    for t, ann in rel.tuples():
        theta = condition_annotation(condition, RowView(index, t))
        new_ann = au_multiply(ann, theta)
        if new_ann[2] > 0:
            out.add(t, new_ann)
    return out


def projection(
    rel: AURelation,
    columns: Sequence[Tuple[Expression, str]],
) -> AURelation:
    """Generalized projection ``π_{e1→A1, ..., ek→Ak}(R)``.

    Each expression is evaluated with the range-annotated semantics
    (Definition 9); annotations of tuples that project to the same output
    tuple are summed (standard K-relation projection).
    """
    out = AURelation([name for _, name in columns])
    index = RowView.index_of(rel.schema)
    for t, ann in rel.tuples():
        valuation = RowView(index, t)
        values = [expr.eval_range(valuation) for expr, _ in columns]
        out.add(values, ann)
    return out


def project_columns(rel: AURelation, names: Sequence[str]) -> AURelation:
    """Positional projection onto named attributes."""
    return projection(rel, [(Var(n), n) for n in names])


def rename(rel: AURelation, mapping: Dict[str, str]) -> AURelation:
    """Rename attributes according to ``mapping`` (old -> new)."""
    new_schema = [mapping.get(a, a) for a in rel.schema]
    out = AURelation(new_schema)
    for t, ann in rel.tuples():
        out.add(t, ann)
    return out


def cross_product(left: AURelation, right: AURelation) -> AURelation:
    """``R × S``: annotations multiply pointwise in ``K^3``."""
    overlap = set(left.schema) & set(right.schema)
    if overlap:
        raise ValueError(
            f"cross product with overlapping attributes {sorted(overlap)}; "
            "rename first"
        )
    out = AURelation(tuple(left.schema) + tuple(right.schema))
    right_rows = list(right.tuples())
    for lt, lann in left.tuples():
        for rt, rann in right_rows:
            out.add(lt + rt, au_multiply(lann, rann))
    return out


def join(
    left: AURelation,
    right: AURelation,
    condition: Expression,
    allow_certain_hash: bool = True,
) -> AURelation:
    """Theta-join ``R ⋈_θ S`` = ``σ_θ(R × S)``.

    An equality-join fast path hashes tuples on attributes whose values
    are *certain* on both sides; tuples with uncertain join attributes
    fall back to the nested-loop interval-overlap path.  This preserves
    the exact naive semantics while avoiding quadratic work on mostly
    certain data (the fully optimized rewrite with compression lives in
    :mod:`repro.core.compression`).

    ``allow_certain_hash=False`` disables the fast path and runs the pure
    interval-overlap nested loop — the behaviour of the paper's
    *unoptimized* rewriting inside PostgreSQL (its inequality join
    conditions force nested loops), used by the Figure 14/16 baselines.
    """
    eq_pairs = _extract_equi_pairs(condition, left.schema, right.schema)
    if not eq_pairs or not allow_certain_hash:
        if eq_pairs:
            return _interval_nested_loop(left, right, condition)
        return selection(cross_product(left, right), condition)

    l_idx = [left.attr_index(a) for a, _ in eq_pairs]
    r_idx = [right.attr_index(b) for _, b in eq_pairs]

    certain_right: Dict[Tuple[Any, ...], List[Tuple[AUTuple, AUAnnotation]]] = {}
    uncertain_right: List[Tuple[AUTuple, AUAnnotation]] = []
    for rt, rann in right.tuples():
        keyvals = [rt[i] for i in r_idx]
        if all(v.is_certain for v in keyvals):
            key = tuple(v.sg for v in keyvals)
            certain_right.setdefault(key, []).append((rt, rann))
        else:
            uncertain_right.append((rt, rann))

    out = AURelation(tuple(left.schema) + tuple(right.schema))
    schema = tuple(left.schema) + tuple(right.schema)
    index = RowView.index_of(schema)
    pure_equi = _is_pure_equi_condition(condition, len(eq_pairs))

    def emit(lt: AUTuple, lann: AUAnnotation, rt: AUTuple, rann: AUAnnotation) -> None:
        combined = lt + rt
        theta = condition_annotation(condition, RowView(index, combined))
        ann = au_multiply(au_multiply(lann, rann), theta)
        if ann[2] > 0:
            out.add(combined, ann)

    def emit_equal_certain(lt: AUTuple, lann: AUAnnotation, rt: AUTuple, rann: AUAnnotation) -> None:
        # hash-matched certain keys under a pure equi-condition: the
        # condition is certainly true, no expression evaluation needed
        ann = au_multiply(lann, rann)
        if ann[2] > 0:
            out.add(lt + rt, ann)

    for lt, lann in left.tuples():
        keyvals = [lt[i] for i in l_idx]
        if all(v.is_certain for v in keyvals):
            key = tuple(v.sg for v in keyvals)
            fast = emit_equal_certain if pure_equi else emit
            for rt, rann in certain_right.get(key, ()):  # hash path
                fast(lt, lann, rt, rann)
        else:
            # uncertain key on the left: may match any certain right tuple
            for bucket in certain_right.values():
                for rt, rann in bucket:
                    if _key_overlaps(keyvals, [rt[i] for i in r_idx]):
                        emit(lt, lann, rt, rann)
        for rt, rann in uncertain_right:
            if _key_overlaps(keyvals, [rt[i] for i in r_idx]):
                emit(lt, lann, rt, rann)
    return out


def _interval_nested_loop(
    left: AURelation, right: AURelation, condition: Expression
) -> AURelation:
    """Pure interval-overlap nested-loop join (no hashing)."""
    schema = tuple(left.schema) + tuple(right.schema)
    out = AURelation(schema)
    index = RowView.index_of(schema)
    right_rows = list(right.tuples())
    for lt, lann in left.tuples():
        for rt, rann in right_rows:
            combined = lt + rt
            theta = condition_annotation(condition, RowView(index, combined))
            ann = au_multiply(au_multiply(lann, rann), theta)
            if ann[2] > 0:
                out.add(combined, ann)
    return out


def _key_overlaps(a: Sequence[RangeValue], b: Sequence[RangeValue]) -> bool:
    return all(x.overlaps(y) for x, y in zip(a, b))


def _extract_equi_pairs(
    condition: Expression,
    left_schema: Sequence[str],
    right_schema: Sequence[str],
) -> List[Tuple[str, str]]:
    """Find ``L.a = R.b`` conjuncts usable for hash joining."""
    from .expressions import And, Eq  # local import avoids cycle at import time

    left_set, right_set = set(left_schema), set(right_schema)
    pairs: List[Tuple[str, str]] = []

    def walk(e: Expression) -> None:
        if isinstance(e, And):
            walk(e.left)
            walk(e.right)
        elif isinstance(e, Eq):
            lhs, rhs = e.left, e.right
            if isinstance(lhs, Var) and isinstance(rhs, Var):
                if lhs.name in left_set and rhs.name in right_set:
                    pairs.append((lhs.name, rhs.name))
                elif rhs.name in left_set and lhs.name in right_set:
                    pairs.append((rhs.name, lhs.name))

    walk(condition)
    return pairs


def _is_pure_equi_condition(condition: Expression, n_pairs: int) -> bool:
    """Is the condition exactly a conjunction of ``Var = Var`` equalities?

    When true, hash-matched tuples with certain keys satisfy the condition
    certainly, so ``M_N(θ) = (1,1,1)`` without evaluating the expression.
    """
    from .expressions import And, Eq

    count = 0

    def walk(e: Expression) -> bool:
        nonlocal count
        if isinstance(e, And):
            return walk(e.left) and walk(e.right)
        if isinstance(e, Eq) and isinstance(e.left, Var) and isinstance(e.right, Var):
            count += 1
            return True
        return False

    return walk(condition) and count == n_pairs


def union(left: AURelation, right: AURelation) -> AURelation:
    """``R ∪ S``: annotations of identical tuples add pointwise."""
    if len(left.schema) != len(right.schema):
        raise ValueError("union requires union-compatible schemas")
    out = AURelation(left.schema)
    for t, ann in left.tuples():
        out.add(t, ann)
    for t, ann in right.tuples():
        out.add(t, ann)
    return out


def sg_combine(rel: AURelation) -> AURelation:
    """The SG-combiner ``Ψ`` (Definition 21).

    Groups tuples by their SG attribute values; each group collapses to a
    single tuple whose attribute ranges are the minimum bounding box of
    the group and whose annotation is the pointwise sum.
    """
    groups: Dict[Tuple[Any, ...], Tuple[AUTuple, AUAnnotation]] = {}
    for t, ann in rel.tuples():
        key = sg_tuple(t)
        if key in groups:
            prev_t, prev_ann = groups[key]
            groups[key] = (merge_tuples(prev_t, t), au_add(prev_ann, ann))
        else:
            groups[key] = (t, ann)
    out = AURelation(rel.schema)
    for t, ann in groups.values():
        out.add(t, ann)
    return out


def difference(left: AURelation, right: AURelation) -> AURelation:
    """Set difference ``R − S`` (Definition 22).

    After SG-combining the left input, each surviving tuple's bounds are::

        lb := Ψ(R)(t).lb ∸ Σ_{t ≃ t'} S(t').ub      (pessimistic: any
                                                     overlapping tuple may
                                                     cancel it)
        sg := Ψ(R)(t).sg ∸ Σ_{t.sg = t'.sg} S(t').sg (SG world semantics)
        ub := Ψ(R)(t).ub ∸ Σ_{t ≡ t'} S(t').lb       (optimistic: only
                                                     certainly equal tuples
                                                     must cancel it)

    where ``∸`` is the truncating monus of ``N``.  Tuples with resulting
    upper bound 0 are dropped.
    """
    if len(left.schema) != len(right.schema):
        raise ValueError("difference requires union-compatible schemas")
    combined = sg_combine(left)
    right_rows = list(right.tuples())
    right_by_sg: Dict[Tuple[Any, ...], int] = {}
    for rt, rann in right_rows:
        key = sg_tuple(rt)
        right_by_sg[key] = right_by_sg.get(key, 0) + rann[1]

    out = AURelation(left.schema)
    for t, (lb, sg, ub) in combined.tuples():
        overlap_ub = 0
        certain_lb = 0
        for rt, rann in right_rows:
            if tuples_may_equal(t, rt):
                overlap_ub += rann[2]
                if tuples_certainly_equal(t, rt):
                    certain_lb += rann[0]
        new_lb = max(0, lb - overlap_ub)
        new_sg = max(0, sg - right_by_sg.get(sg_tuple(t), 0))
        new_ub = max(0, ub - certain_lb)
        if new_ub > 0:
            out.add(t, (new_lb, min(new_sg, new_ub), new_ub))
    return out


def au_topk(rel: AURelation, keys: Sequence[str], descending: bool, n: int) -> AURelation:
    """Bound-preserving ``ORDER BY keys [DESC] LIMIT n`` over an AU-relation.

    **Certain-key case** (every row's order-key attributes are certain):
    a true top-k is sound.  Sort rows by key (with a deterministic
    content tie-break; both sorts on
    :func:`~repro.core.ranges.order_key`, so a NaN bound of a non-key
    cell sorts consistently) and bound, per row, how many of its copies can
    survive in the top-k of *any* world bounded by ``rel``:

    * ``ub' = min(ub, n − Σ lb`` over rows whose keys *strictly precede*
      this row's ``)`` — at least that many slots are certainly taken by
      strictly better rows in every world (tie-broken copies of equal
      keys may always lose to this row, so ties are excluded);
    * ``lb' = max(0, min(lb, n − Σ ub`` over *other* rows whose keys
      precede or tie ``))`` — at most that many slots can be taken
      before this row in the worst world (ties may win against it);
    * ``sg'`` replays the deterministic engine's top-k over the SG
      multiplicities, so the selected-guess world of the result equals
      ``ORDER BY … LIMIT n`` over the input's SG world exactly.

    Rows whose adjusted upper bound is 0 are dropped.  The bounds above
    bracket the replayed SG take (``lb ≤ sg`` and strict-prefix sums are
    below tie-inclusive prefix sums), so annotations stay valid.

    **Uncertain order key — known soundness gap**: when any order key is
    uncertain the rank of a row differs across worlds, and this function
    returns its input unchanged.  That identity is sound for upper
    bounds only (every row that can be in the top-k of some world is
    there with its ``ub``); it is *not* sound for lower bounds, since
    every row keeps its ``lb`` although a world may rank it out of the
    top-k.  On rows ``(1, 10)``, ``(2, 20)``, ``(3, [5/30/40])``, each
    ``(1, 1, 1)``, a top-1 by the second attribute descending keeps all
    three rows at ``lb = 1``, which does not bound the SG world's top-1.
    Sound position bounds for uncertain keys are an open item.  Bare
    ``LIMIT`` without ORDER BY stays the identity in the AU engine: its
    deterministic tuple-order tie-break is arbitrary and carries no
    semantics to preserve under uncertainty.
    """
    from .ranges import order_key

    key_idx = [rel.attr_index(k) for k in keys]
    rows = list(rel.tuples())
    if any(not t[i].is_certain for t, _ann in rows for i in key_idx):
        return rel  # uncertain order key: identity is the only sound choice

    # deterministic order: primary sort on the (certain) key values —
    # reversed for DESC — with a stable full-content tie-break so the
    # result is independent of the input's row order
    def content_key(item):
        t, _ann = item
        return (
            tuple(order_key(v.sg) for v in t),
            tuple(order_key(v.lb) for v in t),
            tuple(order_key(v.ub) for v in t),
        )

    rows.sort(key=content_key)
    rows.sort(
        key=lambda item: tuple(order_key(item[0][i].sg) for i in key_idx),
        reverse=descending,
    )

    # group rows by equal key values to form the prefix sums
    key_of = lambda item: tuple(order_key(item[0][i].sg) for i in key_idx)
    out = AURelation(rel.schema)
    remaining_sg = n
    strict_lb = 0  # Σ lb of rows with strictly better keys
    prefix_ub = 0  # Σ ub of rows with better-or-tied keys (incl. current group)
    pos = 0
    while pos < len(rows):
        group_end = pos
        group_key = key_of(rows[pos])
        group_ub = 0
        while group_end < len(rows) and key_of(rows[group_end]) == group_key:
            group_ub += rows[group_end][1][2]
            group_end += 1
        prefix_ub += group_ub
        for t, (lb, sg, ub) in rows[pos:group_end]:
            take = min(sg, remaining_sg) if remaining_sg > 0 else 0
            remaining_sg -= take
            new_ub = min(ub, n - strict_lb)
            if new_ub > 0:
                tied_others_ub = prefix_ub - ub
                new_lb = max(0, min(lb, n - tied_others_ub))
                out.add(t, (new_lb, min(max(take, new_lb), new_ub), new_ub))
        strict_lb += sum(lb for _t, (lb, _sg, _ub) in rows[pos:group_end])
        if strict_lb >= n:
            break
        pos = group_end
    return out


def distinct(rel: AURelation) -> AURelation:
    """Duplicate elimination ``δ(R)``.

    SG-combines first (one output per SG tuple), then applies ``δ_N``.
    The lower bound stays 1 only if the tuple certainly exists *and* its
    attributes are certain.  The upper bound clamps to 1 only for
    attribute-certain tuples: a range-annotated tuple may represent up to
    ``ub`` *distinct* values in a world, all of which survive duplicate
    elimination, so its possible multiplicity cannot shrink.
    """
    combined = sg_combine(rel)
    out = AURelation(rel.schema)
    for t, (lb, sg, ub) in combined.tuples():
        new_lb = 1 if lb > 0 and tuple_is_certain(t) else 0
        new_ub = min(ub, 1) if tuple_is_certain(t) else ub
        out.add(t, (new_lb, min(sg, 1, new_ub), new_ub))
    return out

"""Bound-preserving aggregation over AU-relations (Section 9).

Aggregation functions are *commutative monoids* (Section 9.1): ``SUM``,
``MIN``, ``MAX`` (``COUNT`` is ``SUM`` of the constant 1; ``AVG`` derives
from ``SUM``/``COUNT``).  Tuple multiplicities are folded into aggregate
values with the bound-preserving operator ``⊛`` (Definition 23, proven
sound by Theorem 5) — the paper shows a true ``K^AU``-semimodule cannot be
bound preserving (Lemma 3), so ``⊛`` deliberately violates the semimodule
laws while preserving bounds.

Group-by handling follows the *default grouping strategy* (Definition 24):
one output tuple per selected-guess group; every input tuple is assigned to
the output of its SG group, and contributes to the aggregate bounds of
every output whose merged group-by box its own group-by ranges overlap
(the set ``ð(g)`` of Definition 26).  Output multiplicity bounds follow
Definitions 27/28.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .expressions import Expression, RowView, Var
from .ranges import (
    RangeValue,
    certain,
    domain_key,
    domain_max,
    domain_min,
    overlap_index,
)
from .ranges import domain_le as _ranges_domain_le
from .relation import AURelation
from .semirings import AUAnnotation
from .sums import add_product, finish, merge_acc, new_acc
from .tuples import AUTuple

__all__ = [
    "Monoid",
    "SUM",
    "MIN",
    "MAX",
    "AggregateSpec",
    "agg_sum",
    "agg_count",
    "agg_min",
    "agg_max",
    "agg_avg",
    "GroupingStrategy",
    "DefaultGroupingStrategy",
    "aggregate",
    "semimodule_action",
    "star_operator",
    "UncertainGroupError",
    "fold_partial_groups",
    "merge_partial_groups",
    "finalize_partial_groups",
]


# ----------------------------------------------------------------------
# Monoids and the N-semimodule action *_{N,M}
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Monoid:
    """A commutative aggregation monoid ``(M, +_M, 0_M)``."""

    name: str
    neutral: Any
    combine: Callable[[Any, Any], Any]

    def fold(self, values) -> Any:
        acc = self.neutral
        for v in values:
            acc = self.combine(acc, v)
        return acc


SUM = Monoid("SUM", 0, lambda a, b: a + b)
MIN = Monoid("MIN", math.inf, lambda a, b: a if _dom_le(a, b) else b)
MAX = Monoid("MAX", -math.inf, lambda a, b: b if _dom_le(a, b) else a)


def _dom_le(a: Any, b: Any) -> bool:
    # fast path: plain numbers (also covers +/- infinity vs numbers)
    ta = type(a)
    tb = type(b)
    if (ta is int or ta is float) and (tb is int or tb is float):
        return a <= b
    # +/- inf sentinels compare numerically against numbers and win/lose
    # against any other type via domain order.
    if ta is float and math.isinf(a):
        return a < 0
    if tb is float and math.isinf(b):
        return b > 0
    return _ranges_domain_le(a, b)


def semimodule_action(monoid: Monoid, k: int, m: Any) -> Any:
    """``k *_{N,M} m``: fold multiplicity ``k`` into value ``m``.

    ``*_{N,SUM}`` is multiplication; for MIN/MAX a non-zero multiplicity
    acts as the identity and zero yields the neutral element (Section 9.2).
    Zero copies sum to the neutral ``0`` even for infinite ``m`` (plain
    ``0 * inf`` would be ``nan``).
    """
    if monoid.name == "SUM":
        if k == 0:
            return 0
        return k * m
    return m if k != 0 else monoid.neutral


def star_operator(
    monoid: Monoid, k: AUAnnotation, m: RangeValue
) -> RangeValue:
    """The bound-preserving ``⊛_M`` operator (Definition 23).

    Bounds are the min/max over the four combinations of annotation and
    value bounds; the SG component uses the plain semimodule action.
    """
    corners = [
        semimodule_action(monoid, k[0], m.lb),
        semimodule_action(monoid, k[0], m.ub),
        semimodule_action(monoid, k[2], m.lb),
        semimodule_action(monoid, k[2], m.ub),
    ]
    lo = corners[0]
    hi = corners[0]
    for c in corners[1:]:
        if _dom_le(c, lo):
            lo = c
        if _dom_le(hi, c):
            hi = c
    sg = semimodule_action(monoid, k[1], m.sg)
    # sg may fall outside [lo, hi] when k.sg differs from both bounds in a
    # monoid-neutral way (e.g. MIN with k=(0,0,1)); widen defensively.
    if not _dom_le(lo, sg):
        lo = sg
    if not _dom_le(sg, hi):
        hi = sg
    return RangeValue(lo, sg, hi)


# ----------------------------------------------------------------------
# Aggregate specifications
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AggregateSpec:
    """One aggregation function application ``f(e) AS name``.

    ``kind`` is one of ``sum, count, min, max, avg``.  ``expr`` is the
    aggregated scalar expression (ignored for ``count``).
    """

    kind: str
    expr: Optional[Expression]
    name: str

    def __post_init__(self) -> None:
        if self.kind not in {"sum", "count", "min", "max", "avg"}:
            raise ValueError(f"unsupported aggregate kind {self.kind!r}")
        if self.kind != "count" and self.expr is None:
            raise ValueError(f"aggregate {self.kind} requires an expression")


def agg_sum(expr: Expression | str, name: str | None = None) -> AggregateSpec:
    expr = Var(expr) if isinstance(expr, str) else expr
    return AggregateSpec("sum", expr, name or "sum")


def agg_count(name: str | None = None) -> AggregateSpec:
    return AggregateSpec("count", None, name or "count")


def agg_min(expr: Expression | str, name: str | None = None) -> AggregateSpec:
    expr = Var(expr) if isinstance(expr, str) else expr
    return AggregateSpec("min", expr, name or "min")


def agg_max(expr: Expression | str, name: str | None = None) -> AggregateSpec:
    expr = Var(expr) if isinstance(expr, str) else expr
    return AggregateSpec("max", expr, name or "max")


def agg_avg(expr: Expression | str, name: str | None = None) -> AggregateSpec:
    expr = Var(expr) if isinstance(expr, str) else expr
    return AggregateSpec("avg", expr, name or "avg")


# ----------------------------------------------------------------------
# Grouping strategies (Section 9.4 / 9.5)
# ----------------------------------------------------------------------
class GroupingStrategy:
    """Maps input tuples to output groups.

    Returns ``(groups, alpha)`` where ``groups`` is the list of output
    group identifiers and ``alpha[tuple_index]`` is the index of the group
    each input tuple is assigned to.  The contract of Section 9.4: all
    tuples sharing SG group-by values must map to the same output.
    """

    def assign(
        self,
        rows: Sequence[Tuple[AUTuple, AUAnnotation]],
        group_idx: Sequence[int],
    ) -> Tuple[List[Tuple[Any, ...]], List[int]]:
        raise NotImplementedError


class DefaultGroupingStrategy(GroupingStrategy):
    """One output per SG group; assignment by SG group-by values
    (Definition 24)."""

    def assign(
        self,
        rows: Sequence[Tuple[AUTuple, AUAnnotation]],
        group_idx: Sequence[int],
    ) -> Tuple[List[Tuple[Any, ...]], List[int]]:
        groups: List[Tuple[Any, ...]] = []
        index_of: Dict[Tuple[Any, ...], int] = {}
        alpha: List[int] = []
        for t, _ann in rows:
            key = tuple(t[i].sg for i in group_idx)
            if key not in index_of:
                index_of[key] = len(groups)
                groups.append(key)
            alpha.append(index_of[key])
        return groups, alpha


def _uncertain_group(
    t: AUTuple, ann: AUAnnotation, group_idx: Sequence[int]
) -> bool:
    """The ``ug(G, R, t)`` predicate: uncertain group-by value or the tuple
    may be absent from some world."""
    if ann[0] == 0:
        return True
    return any(not t[i].is_certain for i in group_idx)


def _delta(k: int) -> int:
    return 1 if k > 0 else 0


# ----------------------------------------------------------------------
# The aggregation operator
# ----------------------------------------------------------------------
def aggregate(
    rel: AURelation,
    group_by: Sequence[str],
    aggregates: Sequence[AggregateSpec],
    strategy: GroupingStrategy | None = None,
    compress_buckets: Optional[int] = None,
) -> AURelation:
    """``γ_{G, f1(A1), ..., fk(Ak)}(R)`` over an AU-relation.

    Output schema is ``group_by + [spec.name for each aggregate]``.  With
    an empty ``group_by`` the result is the single-tuple aggregation of
    Definition 27 (annotation ``(1,1,1)``).

    ``compress_buckets`` enables the Section 10.5 optimization: instead of
    the O(groups × rows) interval-overlap join computing ``ð(g)``, each
    group's *foreign* possible contributors are drawn from at most
    ``compress_buckets`` bucket tuples (minimum bounding boxes with summed
    possible multiplicities).  SG results, group boxes, and output
    annotations are still computed exactly from the uncompressed members,
    matching the paper's piggy-backed SG computation (Lemma 10.2: the
    optimized rewrite preserves bounds, trading tightness for speed).
    """
    strategy = strategy or DefaultGroupingStrategy()
    group_idx = [rel.attr_index(a) for a in group_by]
    rows = list(rel.tuples())
    out_schema = list(group_by) + [spec.name for spec in aggregates]
    out = AURelation(out_schema)
    if not rows:
        if not group_by:
            # aggregation over an empty input still yields one row in SQL /
            # K-relation semantics for COUNT-style monoids
            values = [_empty_aggregate_value(spec) for spec in aggregates]
            out.add(values, (1, 1, 1))
        return out

    if group_by:
        groups, alpha = strategy.assign(rows, group_idx)
    else:
        groups, alpha = [()], [0] * len(rows)

    n_groups = len(groups)
    members: List[List[int]] = [[] for _ in range(n_groups)]
    for row_i, g_i in enumerate(alpha):
        members[g_i].append(row_i)

    # -- group-by attribute bounds (Definition 25) ----------------------
    group_boxes: List[List[RangeValue]] = []
    for g_i, key in enumerate(groups):
        box: List[RangeValue] = []
        for pos, attr_i in enumerate(group_idx):
            lbs = [rows[r][0][attr_i].lb for r in members[g_i]]
            ubs = [rows[r][0][attr_i].ub for r in members[g_i]]
            box.append(RangeValue(domain_min(lbs), key[pos], domain_max(ubs)))
        group_boxes.append(box)

    # -- ð(g): tuples whose group-by ranges overlap the output box ------
    if compress_buckets is not None and group_by:
        rows, contributors = _compressed_contributors(
            rel, rows, members, group_idx, group_boxes, compress_buckets
        )
    else:
        contributors = _overlap_sets(rows, group_idx, group_boxes)

    # -- evaluate aggregate inputs once per row --------------------------
    agg_inputs = _materialize_agg_inputs(rel, rows, aggregates)

    for g_i in range(n_groups):
        values: List[RangeValue] = list(group_boxes[g_i])
        box_certain = all(v.is_certain for v in group_boxes[g_i])
        for a_i, spec in enumerate(aggregates):
            values.append(
                _aggregate_bounds(
                    spec,
                    a_i,
                    rows,
                    agg_inputs,
                    contributors[g_i],
                    set(members[g_i]),
                    group_idx,
                    box_certain,
                )
            )
        ann = _group_annotation(rows, members[g_i], group_idx, bool(group_by))
        if ann[2] > 0:
            out.add(values, ann)
    return out


def _compressed_contributors(
    rel: AURelation,
    rows: List[Tuple[AUTuple, AUAnnotation]],
    members: Sequence[Sequence[int]],
    group_idx: Sequence[int],
    group_boxes: Sequence[Sequence[RangeValue]],
    buckets: int,
) -> Tuple[List[Tuple[AUTuple, AUAnnotation]], List[List[int]]]:
    """Section 10.5: compress foreign possible contributors.

    Returns an extended row list (original rows + synthetic bucket rows
    annotated ``(0, 0, Σub)``) and per-group contributor index lists:
    each group's exact members plus every overlapping bucket.  Bucket rows
    are always treated as group-uncertain (annotation lower bound 0), so
    their contributions pass through the ``min(0_M, ·)`` / ``max(0_M, ·)``
    clamps and the result stays a sound (if looser) bound even though
    member rows are double counted inside buckets.
    """
    first_group_attr = group_idx[0]
    # Only rows whose group-by attributes are uncertain can contribute to a
    # *foreign* group; rows with certain group-by values are fully handled
    # as exact members of their own group, so bucketing them would only
    # double count their possible mass.
    foreign_capable = [
        r
        for r in range(len(rows))
        if any(not rows[r][0][i].is_certain for i in group_idx)
    ]
    sortable = sorted(
        foreign_capable,
        key=lambda r: domain_key(rows[r][0][first_group_attr].sg),
    )
    bucket_size = max(1, -(-len(sortable) // buckets))
    extended = list(rows)
    bucket_rows: List[int] = []
    for start in range(0, len(sortable), bucket_size):
        chunk = [rows[r] for r in sortable[start : start + bucket_size]]
        box_t, _ = chunk[0]
        total_ub = 0
        for t, (_lb, _sg, ub) in chunk:
            box_t = tuple(a.merge(b) for a, b in zip(box_t, t))
            total_ub += ub
        if total_ub > 0:
            bucket_rows.append(len(extended))
            extended.append((box_t, (0, 0, total_ub)))

    # bucket rows overlapping a group box, ascending: an index probe on
    # the first group-by attribute, the other attributes tested on its
    # hits only
    on_first = overlap_index(
        [extended[b_i][0][first_group_attr] for b_i in bucket_rows]
    )
    rest = list(enumerate(group_idx))[1:]
    contributors: List[List[int]] = []
    for g_i, box in enumerate(group_boxes):
        contrib = list(members[g_i])
        for k in on_first(box[0]):
            t = extended[bucket_rows[k]][0]
            if all(t[attr_i].overlaps(box[pos]) for pos, attr_i in rest):
                contrib.append(bucket_rows[k])
        contributors.append(contrib)
    return extended, contributors


def _overlap_sets(
    rows: Sequence[Tuple[AUTuple, AUAnnotation]],
    group_idx: Sequence[int],
    group_boxes: Sequence[Sequence[RangeValue]],
) -> List[List[int]]:
    """Compute ``ð(g)`` for every group.

    Rows whose group-by attributes are all certain can be matched by hash
    against certain group boxes; uncertain rows/boxes use interval checks.
    """
    contributors: List[List[int]] = [[] for _ in group_boxes]
    if not group_idx:
        all_rows = list(range(len(rows)))
        return [list(all_rows) for _ in group_boxes]

    for g_i, box in enumerate(group_boxes):
        for r_i, (t, _ann) in enumerate(rows):
            ok = True
            for pos, attr_i in enumerate(group_idx):
                if not t[attr_i].overlaps(box[pos]):
                    ok = False
                    break
            if ok:
                contributors[g_i].append(r_i)
    return contributors


def _materialize_agg_inputs(
    rel: AURelation,
    rows: Sequence[Tuple[AUTuple, AUAnnotation]],
    aggregates: Sequence[AggregateSpec],
) -> List[List[RangeValue]]:
    """Per-aggregate, per-row input value (COUNT uses the constant 1)."""
    one = certain(1)
    inputs: List[List[RangeValue]] = []
    for spec in aggregates:
        col: List[RangeValue] = []
        if spec.kind == "count":
            col = [one] * len(rows)
        else:
            index = RowView.index_of(rel.schema)
            for t, _ann in rows:
                col.append(spec.expr.eval_range(RowView(index, t)))
        inputs.append(col)
    return inputs


def _monoid_for(kind: str) -> Monoid:
    return {"sum": SUM, "count": SUM, "min": MIN, "max": MAX}[kind]


def _part_value(part: Tuple[int, Any]) -> Any:
    """The rounded product a ``(multiplicity, value)`` part denotes —
    used only for corner *selection* and sign tests, never accumulated."""
    k, v = part
    return 0 if k == 0 else k * v


def _add_part(acc: list, value: Any, mult: int) -> None:
    """Accumulate the part ``mult·value`` exactly, under the semimodule
    law ``0·x = 0`` that :func:`_part_value` selects corners by: IEEE
    ``0 * ±inf`` is ``nan`` (:func:`repro.core.sums.add_product` keeps
    that for deterministic sums), but a row that is possibly absent
    contributes nothing even when its value bound is infinite."""
    if mult == 0 and type(value) is float and not math.isfinite(value):
        value = 0.0
    add_product(acc, value, mult)


def _sum_parts(
    ann: AUAnnotation, m: RangeValue
) -> Tuple[Tuple[int, Any], Tuple[int, Any]]:
    """``⊛_SUM`` bounds of one row as exact ``(multiplicity, value)`` parts.

    Definition 23 takes the min/max over the four annotation×value corner
    products; returning the chosen corner as a part lets callers feed it to
    :func:`_add_part`, which accumulates ``k·v`` exactly
    (power-of-two scalings) instead of summing rounded products.  That is
    what makes SUM bounds regrouping-invariant to the bit: folding a row
    with annotation ``k1+k2`` equals folding two value-equal rows with
    ``k1`` and ``k2``, so per-worker partials merge exactly.  Corner
    selection (including tie behavior) matches :func:`star_operator`.
    """
    k0, _k1, k2 = ann
    if k0 == k2 and m.lb is m.ub:
        # a point annotation times a point value: the four corners are
        # one, and ties go to the last
        part = (k2, m.ub)
        return part, part
    corners = ((k0, m.lb), (k0, m.ub), (k2, m.lb), (k2, m.ub))
    lo = hi = corners[0]
    lo_v = hi_v = _part_value(corners[0])
    for c in corners[1:]:
        v = _part_value(c)
        if _dom_le(v, lo_v):
            lo, lo_v = c, v
        if _dom_le(hi_v, v):
            hi, hi_v = c, v
    return lo, hi


def _fold_sum_row(
    lo_acc, hi_acc, ann: AUAnnotation, m: RangeValue, certainly_in_group: bool
) -> None:
    """Fold one row's ``⊛_SUM`` bound contributions into exact accumulators,
    applying Definition 26's ``min(0_M, ·)`` / ``max(0_M, ·)`` clamps for
    rows that are not certainly in the group."""
    lo_part, hi_part = _sum_parts(ann, m)
    if certainly_in_group or _dom_le(_part_value(lo_part), 0):
        _add_part(lo_acc, lo_part[1], lo_part[0])
    if certainly_in_group or _dom_le(0, _part_value(hi_part)):
        _add_part(hi_acc, hi_part[1], hi_part[0])


def _clamped_range(lo: Any, sg: Any, hi: Any) -> RangeValue:
    """``RangeValue(lo, sg, hi)`` with the SG component clamped into the
    bounds (the SG world's exact value can fall outside when clamps
    tightened a bound the SG fold did not see)."""
    if not _dom_le(lo, sg):
        sg = lo
    elif not _dom_le(sg, hi):
        sg = hi
    return RangeValue(lo, sg, hi)


def _aggregate_bounds(
    spec: AggregateSpec,
    agg_index: int,
    rows: Sequence[Tuple[AUTuple, AUAnnotation]],
    agg_inputs: Sequence[Sequence[RangeValue]],
    contributor_rows: Sequence[int],
    sg_members: set,
    group_idx: Sequence[int],
    box_certain: bool = True,
) -> RangeValue:
    """Aggregation function result bounds for one output tuple
    (Definition 26; AVG handled via SUM/COUNT + MIN/MAX envelope)."""
    if spec.kind == "avg":
        return _avg_bounds(
            spec, agg_index, rows, agg_inputs, contributor_rows, sg_members, group_idx
        )

    monoid = _monoid_for(spec.kind)
    if monoid is SUM:
        # SUM/COUNT accumulate through repro.core.sums so float bounds are
        # exact (regrouping-invariant) — the morsel-parallel partial path
        # folds the same per-row parts and merges accumulators bit-exactly.
        lo_acc = new_acc()
        hi_acc = new_acc()
        sg_acc = new_acc()
        for r_i in contributor_rows:
            t, ann = rows[r_i]
            m = agg_inputs[agg_index][r_i]
            certainly_in_group = (
                box_certain
                and r_i in sg_members
                and not _uncertain_group(t, ann, group_idx)
            )
            _fold_sum_row(lo_acc, hi_acc, ann, m, certainly_in_group)
            if r_i in sg_members:
                _add_part(sg_acc, m.sg, ann[1])
        return _clamped_range(finish(lo_acc), finish(sg_acc), finish(hi_acc))

    lo = monoid.neutral
    hi = monoid.neutral
    sg = monoid.neutral
    for r_i in contributor_rows:
        t, ann = rows[r_i]
        m = agg_inputs[agg_index][r_i]
        folded = star_operator(monoid, ann, m)
        # A contribution may be counted without clamping only when the
        # tuple *certainly belongs to every group this output can bound*:
        # the output's group box must be a single point, the tuple's
        # group-by values certain and assigned here, and the tuple must
        # certainly exist.  This is the rewriting's θ_c test (Section
        # 10.2), which compares input group bounds against the *output's*
        # bounds.  If the box spans several possible groups, the output
        # tuple may have to bound a world group this tuple is absent from,
        # so its contribution is clamped against the monoid's neutral
        # element (Definition 26's min(0_M, ·) / max(0_M, ·)).
        certainly_in_group = (
            box_certain
            and r_i in sg_members
            and not _uncertain_group(t, ann, group_idx)
        )
        if not certainly_in_group:
            lb_contrib = folded.lb if _dom_le(folded.lb, monoid.neutral) else monoid.neutral
            ub_contrib = folded.ub if _dom_le(monoid.neutral, folded.ub) else monoid.neutral
        else:
            lb_contrib = folded.lb
            ub_contrib = folded.ub
        lo = monoid.combine(lo, lb_contrib)
        hi = monoid.combine(hi, ub_contrib)
        if r_i in sg_members:
            sg = monoid.combine(sg, folded.sg)
    return _clamped_range(lo, sg, hi)


def _avg_bounds(
    spec: AggregateSpec,
    agg_index: int,
    rows: Sequence[Tuple[AUTuple, AUAnnotation]],
    agg_inputs: Sequence[Sequence[RangeValue]],
    contributor_rows: Sequence[int],
    sg_members: set,
    group_idx: Sequence[int],
) -> RangeValue:
    """AVG bounds.

    The mean of any multiset of values, each drawn from the contributing
    tuples' value ranges, lies between the smallest lower bound and the
    largest upper bound of any contributor — so MIN/MAX envelopes over
    ``ð(g)`` give sound (if loose) AVG bounds.  The SG value is the exact
    SGW average (sum/count in the SG world).
    """
    lo = math.inf
    hi = -math.inf
    seen = False
    sg_acc = new_acc()
    sg_count = 0
    for r_i in contributor_rows:
        t, ann = rows[r_i]
        m = agg_inputs[agg_index][r_i]
        if ann[2] > 0:
            seen = True
            if _dom_le(m.lb, lo):
                lo = m.lb
            if _dom_le(hi, m.ub):
                hi = m.ub
        if r_i in sg_members and ann[1] > 0:
            # exact value×multiplicity accumulation (repro.core.sums), so
            # the SG average is regrouping-invariant to the bit and the
            # morsel-parallel partials merge exactly
            add_product(sg_acc, m.sg, ann[1])
            sg_count += ann[1]
    sg = finish(sg_acc) / sg_count if sg_count else 0.0
    if not seen:  # no possible contributor
        return RangeValue(0.0, 0.0, 0.0)
    if not _dom_le(lo, sg):
        sg = lo
    if not _dom_le(sg, hi):
        sg = hi
    return RangeValue(lo, sg, hi)


def _group_annotation(
    rows: Sequence[Tuple[AUTuple, AUAnnotation]],
    member_rows: Sequence[int],
    group_idx: Sequence[int],
    has_group_by: bool,
) -> AUAnnotation:
    """Output multiplicity bounds (Definitions 27/28)."""
    if not has_group_by:
        return (1, 1, 1)
    lb_sum = 0
    sg_sum = 0
    ub_sum = 0
    for r_i in member_rows:
        t, ann = rows[r_i]
        if not _uncertain_group(t, ann, group_idx):
            lb_sum += ann[0]
        sg_sum += ann[1]
        ub_sum += ann[2]
    return (_delta(lb_sum), _delta(sg_sum), ub_sum)


def _empty_aggregate_value(spec: AggregateSpec) -> RangeValue:
    if spec.kind in {"sum", "count"}:
        return certain(0)
    if spec.kind == "avg":
        return certain(0.0)
    # SQL semantics (mirrored by the Det engine): MIN/MAX over an empty
    # input is NULL, not the monoid's ±inf neutral element
    return certain(None)


# ----------------------------------------------------------------------
# Morsel-parallel partial aggregation (SG-combine-aware merges)
# ----------------------------------------------------------------------
# When every input row's group-by attributes are *certain*, the default
# grouping strategy degenerates into exact hash grouping: each group's
# box is a single point, ð(g) equals the member set, and every per-row
# contribution is row-local.  The γ fold then factors into per-morsel
# partial states merged with an associative combine:
#
# * the K^AU output annotation sums pointwise (δ applied at finalize);
# * SUM/COUNT and the AVG numerator are exact Shewchuk accumulators
#   (``merge_acc``), so float results are regrouping-invariant bit for
#   bit at every parallelism level;
# * MIN/MAX fold with the monoid combine, whose tie behavior (MIN keeps
#   the earliest attaining value, MAX the latest) is associative as long
#   as partials merge in partition order;
# * the AVG envelope folds with the same order-compatible min/max update
#   rules the serial operator uses.
#
# A single row with uncertain group-by attributes breaks row-locality
# (it contributes to every overlapping group's bounds), so the fold
# raises :class:`UncertainGroupError` and the caller falls back to the
# serial :func:`aggregate` operator.


class UncertainGroupError(ValueError):
    """A partial (morsel-parallel) aggregate met a row whose group-by
    attributes are uncertain: the contributor sets ð(g) are then not
    row-local and only the serial operator computes sound bounds."""


def _new_agg_partial(spec: AggregateSpec) -> list:
    if spec.kind in ("sum", "count"):
        return [new_acc(), new_acc(), new_acc()]  # lo, sg, hi accumulators
    if spec.kind == "avg":
        return [math.inf, -math.inf, new_acc(), 0, False]  # lo, hi, Σsg, n, seen
    monoid = _monoid_for(spec.kind)
    return [monoid.neutral, monoid.neutral, monoid.neutral]  # lo, sg, hi


def _fold_agg_partial(
    spec: AggregateSpec,
    agg: list,
    ann: AUAnnotation,
    m: RangeValue,
    certainly: bool,
) -> None:
    """Fold one (certain-group) row into a per-aggregate partial, with
    contribution logic identical to the serial ``_aggregate_bounds`` /
    ``_avg_bounds`` folds restricted to the certain-group case."""
    if spec.kind in ("sum", "count"):
        _fold_sum_row(agg[0], agg[2], ann, m, certainly)
        _add_part(agg[1], m.sg, ann[1])
        return
    if spec.kind == "avg":
        if ann[2] > 0:
            agg[4] = True
            if _dom_le(m.lb, agg[0]):
                agg[0] = m.lb
            if _dom_le(agg[1], m.ub):
                agg[1] = m.ub
        if ann[1] > 0:
            add_product(agg[2], m.sg, ann[1])
            agg[3] += ann[1]
        return
    monoid = _monoid_for(spec.kind)
    folded = star_operator(monoid, ann, m)
    if certainly:
        lb_contrib = folded.lb
        ub_contrib = folded.ub
    else:
        lb_contrib = folded.lb if _dom_le(folded.lb, monoid.neutral) else monoid.neutral
        ub_contrib = folded.ub if _dom_le(monoid.neutral, folded.ub) else monoid.neutral
    agg[0] = monoid.combine(agg[0], lb_contrib)
    agg[2] = monoid.combine(agg[2], ub_contrib)
    agg[1] = monoid.combine(agg[1], folded.sg)


def fold_partial_groups(
    groups: Dict[Tuple[Any, ...], list],
    schema: Sequence[str],
    rows,
    group_by: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> None:
    """Fold ``(tuple, annotation)`` rows into ``groups`` in place.

    ``groups`` maps each SG group key to ``[rep, ann_sums, agg_partials]``
    where ``rep`` is the group-by value tuple of the group's first member
    (identical across members up to numeric representation — group-by
    attributes are certain), ``ann_sums`` the pointwise annotation sums of
    Definition 27 (δ applied at finalize), and ``agg_partials`` one
    mergeable state per aggregate.  Raises :class:`UncertainGroupError`
    on the first row whose group-by attributes are uncertain.
    """
    schema = tuple(schema)
    group_idx = [schema.index(a) for a in group_by]
    index = RowView.index_of(schema)
    one = certain(1)
    for t, ann in rows:
        for i in group_idx:
            if not t[i].is_certain:
                raise UncertainGroupError(
                    f"uncertain group-by value {t[i]!r} for attribute "
                    f"{schema[i]!r}: partial aggregation is not sound"
                )
        key = tuple(t[i].sg for i in group_idx)
        state = groups.get(key)
        if state is None:
            state = [
                [t[i] for i in group_idx],
                [0, 0, 0],
                [_new_agg_partial(spec) for spec in aggregates],
            ]
            groups[key] = state
        ann_sums = state[1]
        ann_sums[0] += ann[0]
        ann_sums[1] += ann[1]
        ann_sums[2] += ann[2]
        certainly = ann[0] > 0
        view = RowView(index, t)
        for spec, agg in zip(aggregates, state[2]):
            m = one if spec.kind == "count" else spec.expr.eval_range(view)
            _fold_agg_partial(spec, agg, ann, m, certainly)


def _merge_agg_partial(spec: AggregateSpec, dst: list, src: list) -> None:
    if spec.kind in ("sum", "count"):
        merge_acc(dst[0], src[0])
        merge_acc(dst[1], src[1])
        merge_acc(dst[2], src[2])
        return
    if spec.kind == "avg":
        # src is the later partition: its envelope candidates replay the
        # serial fold's "ties update" rules against dst's running values
        if src[4]:
            dst[4] = True
            if _dom_le(src[0], dst[0]):
                dst[0] = src[0]
            if _dom_le(dst[1], src[1]):
                dst[1] = src[1]
        merge_acc(dst[2], src[2])
        dst[3] += src[3]
        return
    monoid = _monoid_for(spec.kind)
    dst[0] = monoid.combine(dst[0], src[0])
    dst[1] = monoid.combine(dst[1], src[1])
    dst[2] = monoid.combine(dst[2], src[2])


def merge_partial_groups(
    target: Dict[Tuple[Any, ...], list],
    source: Dict[Tuple[Any, ...], list],
    aggregates: Sequence[AggregateSpec],
) -> None:
    """Merge ``source`` into ``target`` in place (``source`` is consumed).

    Call in partition order: group first-occurrence order and the
    order-sensitive tie rules of MIN/MAX/AVG envelopes then reproduce the
    serial fold exactly.
    """
    for key, src in source.items():
        dst = target.get(key)
        if dst is None:
            target[key] = src
            continue
        dst[1][0] += src[1][0]
        dst[1][1] += src[1][1]
        dst[1][2] += src[1][2]
        for spec, d, s in zip(aggregates, dst[2], src[2]):
            _merge_agg_partial(spec, d, s)


def _finalize_agg_partial(spec: AggregateSpec, agg: list) -> RangeValue:
    if spec.kind in ("sum", "count"):
        return _clamped_range(finish(agg[0]), finish(agg[1]), finish(agg[2]))
    if spec.kind == "avg":
        lo, hi, acc, cnt, seen = agg
        sg = finish(acc) / cnt if cnt else 0.0
        if not seen:  # no possible contributor
            return RangeValue(0.0, 0.0, 0.0)
        if not _dom_le(lo, sg):
            sg = lo
        if not _dom_le(sg, hi):
            sg = hi
        return RangeValue(lo, sg, hi)
    return _clamped_range(agg[0], agg[1], agg[2])


def finalize_partial_groups(
    groups: Dict[Tuple[Any, ...], list],
    group_by: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> AURelation:
    """Finalize merged partial states into the γ output relation —
    bit-identical to :func:`aggregate` on the same (certain-group)
    input."""
    out_schema = list(group_by) + [spec.name for spec in aggregates]
    out = AURelation(out_schema)
    if not groups:
        if not group_by:
            out.add(
                [_empty_aggregate_value(spec) for spec in aggregates],
                (1, 1, 1),
            )
        return out
    has_group_by = bool(group_by)
    for rep, ann_sums, aggs in groups.values():
        values: List[RangeValue] = list(rep)
        for spec, agg in zip(aggregates, aggs):
            values.append(_finalize_agg_partial(spec, agg))
        if has_group_by:
            ann = (_delta(ann_sums[0]), _delta(ann_sums[1]), ann_sums[2])
        else:
            ann = (1, 1, 1)
        if ann[2] > 0:
            out.add(values, ann)
    return out

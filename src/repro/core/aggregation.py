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
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

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
from .sums import (
    add_product,
    add_product_each,
    add_products,
    finish,
    merge_acc,
    new_acc,
    unmerge_acc,
)
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

    ``kind`` is a key of :data:`AGGREGATES` (``sum, count, min, max,
    avg``).  ``expr`` is the aggregated scalar expression (ignored by a
    function that takes no input, i.e. ``count``).
    """

    kind: str
    expr: Optional[Expression]
    name: str

    def __post_init__(self) -> None:
        fn = AGGREGATES.get(self.kind)
        if fn is None:
            raise ValueError(f"unsupported aggregate kind {self.kind!r}")
        if fn.takes_input and self.expr is None:
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
            out.add(_empty_row(aggregates), (1, 1, 1))
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
            rows,
            members,
            group_idx,
            _referenced_columns(rel.schema, group_idx, aggregates),
            group_boxes,
            compress_buckets,
        )
    else:
        contributors = _overlap_sets(rows, group_idx, group_boxes)

    # -- evaluate aggregate inputs once per row --------------------------
    agg_inputs = _materialize_agg_inputs(rel, rows, aggregates)
    algebras = [AGGREGATES[spec.kind].au for spec in aggregates]

    for g_i in range(n_groups):
        values: List[RangeValue] = list(group_boxes[g_i])
        box_certain = all(v.is_certain for v in group_boxes[g_i])
        sg_members = set(members[g_i])
        # Definition 26's two row flags, once per (group, contributor).
        # A contribution is counted without clamping only when the tuple
        # *certainly belongs to every group this output can bound*: the
        # output's group box must be a single point, the tuple's
        # group-by values certain and assigned here, and the tuple must
        # certainly exist.  This is the rewriting's θ_c test (Section
        # 10.2), which compares input group bounds against the
        # *output's* bounds.  If the box spans several possible groups,
        # the output tuple may have to bound a world group this tuple is
        # absent from, so its contribution is clamped against the
        # monoid's neutral element (min(0_M, ·) / max(0_M, ·)).
        flagged = []
        for r_i in contributors[g_i]:
            t, ann = rows[r_i]
            in_sg_group = r_i in sg_members
            certainly_in_group = (
                box_certain
                and in_sg_group
                and not _uncertain_group(t, ann, group_idx)
            )
            flagged.append((r_i, ann, certainly_in_group, in_sg_group))
        for algebra, inputs in zip(algebras, agg_inputs):
            state = algebra.init()
            step = algebra.step
            for r_i, ann, certainly_in_group, in_sg_group in flagged:
                step(state, ann, inputs[r_i], certainly_in_group, in_sg_group)
            values.append(algebra.finalize(state))
        ann = _group_annotation(rows, members[g_i], group_idx, bool(group_by))
        if ann[2] > 0:
            out.add(values, ann)
    return out


def _referenced_columns(
    schema: Sequence[str],
    group_idx: Sequence[int],
    aggregates: Sequence[AggregateSpec],
) -> List[int]:
    """Positions of the columns the operator reads: the group-by
    attributes and what the aggregate expressions mention."""
    index = RowView.index_of(schema)
    used = set(group_idx)
    for spec in aggregates:
        if AGGREGATES[spec.kind].takes_input:
            used.update(
                index[name] for name in spec.expr.variables() if name in index
            )
    return sorted(used)


def _compressed_contributors(
    rows: List[Tuple[AUTuple, AUAnnotation]],
    members: Sequence[Sequence[int]],
    group_idx: Sequence[int],
    read_idx: Sequence[int],
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
    member rows are double counted inside buckets.  A bucket bounds its
    rows on the ``read_idx`` columns only; nothing reads the others,
    which keep the cells of the bucket's first row.
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
        box = list(chunk[0][0])
        for j in read_idx:
            cell = box[j]
            for t, _ann in chunk[1:]:
                cell = cell.merge(t[j])
            box[j] = cell
        total_ub = sum(ub for _t, (_lb, _sg, ub) in chunk)
        if total_ub > 0:
            bucket_rows.append(len(extended))
            extended.append((tuple(box), (0, 0, total_ub)))

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
    """Compute ``ð(g)`` for every group, rows ascending: an overlap-index
    probe on the first group-by attribute, the other attributes tested
    on its hits only."""
    if not group_idx:
        return [list(range(len(rows))) for _ in group_boxes]
    on_first = overlap_index([t[group_idx[0]] for t, _ann in rows])
    rest = list(enumerate(group_idx))[1:]
    return [
        [
            r_i
            for r_i in on_first(box[0])
            if all(rows[r_i][0][attr_i].overlaps(box[pos]) for pos, attr_i in rest)
        ]
        for box in group_boxes
    ]


def _materialize_agg_inputs(
    rel: AURelation,
    rows: Sequence[Tuple[AUTuple, AUAnnotation]],
    aggregates: Sequence[AggregateSpec],
) -> List[List[RangeValue]]:
    """Per-aggregate, per-row input value (a function that takes no
    input, i.e. COUNT, folds the constant 1)."""
    index = RowView.index_of(rel.schema)
    inputs: List[List[RangeValue]] = []
    for spec in aggregates:
        if not AGGREGATES[spec.kind].takes_input:
            inputs.append([_ONE] * len(rows))
        else:
            eval_range = spec.expr.eval_range
            inputs.append([eval_range(RowView(index, t)) for t, _ann in rows])
    return inputs


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


# ----------------------------------------------------------------------
# The aggregate registry: one algebra per function per engine
# ----------------------------------------------------------------------
class _Algebra(NamedTuple):
    """A mergeable aggregation state — the commutative monoid of Section
    9.1 folded through the multiplicity action, spelled as five members
    and two optional ones:

    * ``init()`` — a fresh state (the monoid's neutral element);
    * ``step`` — fold one weighted input into a state.  Det:
      ``step(state, value, weight) -> state`` with a signed bag
      ``weight`` (the result may be ``state`` itself, mutated).  AU:
      ``step(state, ann, m, certainly_in_group, in_sg_group)`` mutates
      ``state`` with the ``⊛``-contribution (Definition 23) of a row
      annotated ``ann`` whose aggregate input is the range ``m``;
      the two flags are Definition 26's: ``certainly_in_group`` lifts the
      ``min(0_M, ·)`` / ``max(0_M, ·)`` clamps, ``in_sg_group`` says the
      row is a member of the output's selected-guess group;
    * ``merge(a, b) -> state`` — combine two states, ``b`` the *later*
      partition (tie rules replay the in-order fold), consuming both;
    * ``finalize(state)`` — the output value (det) / range (AU);
    * ``empty`` — the output over an empty input without GROUP BY;
    * ``fold`` (optional) — a column at a time.  Det: ``fold(state,
      values, weights) -> state`` folds a whole group's input column and
      weights at once, ≡ the ``step`` loop over them (``values`` is
      ``repeat(None)`` for a function that takes no input); ``None``
      means exactly that loop (:meth:`column_fold`).  AU: ``fold(state,
      values, weights, slots)`` adds every *point* contribution
      ``weights[i]·values[i]`` (a row annotated ``(k, k, k)``, ``k >
      0``, whose input is ``values[i]`` as lower, SG and upper bound
      object) to the slice ``slots`` of the state (:func:`point_slots`),
      ≡ the ``step`` of those rows in any order, to the bit of
      ``finalize``;
      ``None`` (a function whose result depends on the row order) means
      every row takes ``step``;
    * ``unmerge(a, b) -> state`` (optional) — the exact inverse of
      ``merge``: ``finalize(unmerge(merge(a, b), b))`` is
      ``finalize(a)`` to the bit, for a ``b`` that holds no non-finite
      float, so a kept state takes a contribution back out.  ``None``:
      the state keeps extrema or envelopes, and only grows.
    """

    init: Callable[[], Any]
    step: Callable[..., Any]
    merge: Callable[[Any, Any], Any]
    finalize: Callable[[Any], Any]
    empty: Any
    fold: Optional[Callable[..., Any]] = None
    unmerge: Optional[Callable[[Any, Any], Any]] = None

    def column_fold(self) -> Callable[[Any, Iterable, Sequence[int]], Any]:
        """The det ``fold``, or the ``step`` loop it defaults to."""
        if self.fold is not None:
            return self.fold
        step = self.step

        def fold(state: Any, values: Iterable, weights: Sequence[int]) -> Any:
            for value, weight in zip(values, weights):
                state = step(state, value, weight)
            return state

        return fold


@dataclass(frozen=True)
class _AggregateFunction:
    """One SQL aggregate: its algebra on each engine and its typing."""

    det: _Algebra
    au: _Algebra
    #: ``result_type(inner) -> (type, nullable)`` for the inferred input
    #: column ``inner`` (``.type`` / ``.nullable``; ``None`` when there
    #: is none or it is unknown); ``TypeError`` for an input type the
    #: function rejects in every world
    result_type: Callable[[Any], Tuple[str, bool]]
    #: ``False``: ``expr`` is not evaluated (det folds ``None``, AU the
    #: constant 1)
    takes_input: bool = True


# -- det: SUM / COUNT / AVG (exact sums), MIN / MAX (domain-key pairs) --
def _det_count_step(state: int, _value: Any, weight: int) -> int:
    return state + weight


def _det_sum_step(state: list, value: Any, weight: int) -> list:
    add_product(state, value, weight)
    return state


def _det_sum_fold(state: list, values: Sequence, weights: Sequence[int]) -> list:
    add_products(state, values, weights)
    return state


def _det_sum_merge(a: list, b: list) -> list:
    merge_acc(a, b)
    return a


def _det_sum_unmerge(a: list, b: list) -> list:
    unmerge_acc(a, b)
    return a


def _det_avg_step(state: list, value: Any, weight: int) -> list:
    add_product(state[0], value, weight)
    state[1] += weight
    return state


def _det_avg_fold(state: list, values: Sequence, weights: Sequence[int]) -> list:
    add_products(state[0], values, weights)
    state[1] += sum(weights)
    return state


def _det_avg_merge(a: list, b: list) -> list:
    merge_acc(a[0], b[0])
    a[1] += b[1]
    return a


def _det_avg_unmerge(a: list, b: list) -> list:
    unmerge_acc(a[0], b[0])
    a[1] -= b[1]
    return a


def _det_min_step(state: Optional[tuple], value: Any, _weight: int) -> tuple:
    key = domain_key(value)
    if state is None or key < state[0]:
        return (key, value)
    return state


def _det_max_step(state: Optional[tuple], value: Any, _weight: int) -> tuple:
    key = domain_key(value)
    if state is None or key > state[0]:
        return (key, value)
    return state


def _det_extremum(step: Callable[..., tuple]) -> _Algebra:
    """MIN / MAX keep ``(domain key, value)`` of the first row attaining
    the extremum (``None`` before any row); SQL's empty result is NULL,
    not the monoid's ±inf neutral element."""
    return _Algebra(
        init=lambda: None,
        step=step,
        merge=lambda a, b: step(a, b[1], 1),
        finalize=lambda state: state[1],
        empty=None,
    )


# -- AU: three-bound states -------------------------------------------
#: Definition 26 for a point contribution ``k·v`` (annotation and input
#: points, so the four ``⊛_SUM`` corners are one product): the slice of
#: the ``[lo, sg, hi]`` state it enters, by ``[in_sg_group][enters
#: lo][enters hi]``.  A foreign product enters the bounds only; a
#: member's is also its SG part, so it enters a slice of the three alike.
_POINT_SLOTS = (
    ((slice(0, 0), slice(2, 3)), (slice(0, 1), slice(0, 3, 2))),
    ((slice(0, 2), slice(1, 3)), (slice(0, 2), slice(0, 3))),
)


def point_slots(value: Any, certainly_in_group: bool, in_sg_group: bool) -> slice:
    """The slice of an AU ``SUM`` state ``[lo, sg, hi]`` that a point
    contribution of ``value`` enters (Definition 26): both bounds when
    the row certainly is in the group, else only the side the clamps
    ``min(0, ·)`` / ``max(0, ·)`` let through — the sign of the value,
    the multiplicity being positive."""
    slots = _POINT_SLOTS[in_sg_group]
    if certainly_in_group:
        return slots[True][True]
    kind = type(value)
    if kind is float or kind is int:
        return slots[value <= 0][value >= 0]
    return slots[_dom_le(value, 0)][_dom_le(0, value)]


def _au_sum_step(
    state: list, ann: AUAnnotation, m: RangeValue, certainly_in_group: bool,
    in_sg_group: bool,
) -> None:
    # exact (regrouping-invariant) float bounds: repro.core.sums
    k0, k1, k2 = ann
    value = m.ub
    if k0 == k2 and k2 and m.lb is value:
        # a point annotation times a point value (what :func:`_sum_parts`
        # returns for both bounds): one non-zero product, entering the
        # slots :func:`point_slots` gives it — its sign test inlined
        if certainly_in_group:
            low = high = True
        else:
            vt = type(value)
            if vt is float or vt is int:
                low, high = value <= 0, value >= 0
            else:
                low, high = _dom_le(value, 0), _dom_le(0, value)
        if in_sg_group and k1 == k2 and m.sg is value:
            # ... which is also the SG part (a row certainly in the
            # group enters all three: the state itself, no slice)
            if not certainly_in_group:
                state = state[_POINT_SLOTS[True][low][high]]
            add_product_each(state, value, k2)
            return
        if low:
            add_product(state[0], value, k2)
        if high:
            add_product(state[2], value, k2)
    else:
        _fold_sum_row(state[0], state[2], ann, m, certainly_in_group)
    if in_sg_group:
        _add_part(state[1], m.sg, k1)


def _au_sum_fold(
    state: list, values: Sequence, weights: Sequence[int], slots: slice
) -> None:
    # one exact sum of the column, merged into each slot: the same
    # accumulator value as the add_product loop into every slot
    acc = new_acc()
    add_products(acc, values, weights)
    for dst in state[slots]:
        merge_acc(dst, acc)


def _au_sum_merge(dst: list, src: list) -> list:
    for d, s in zip(dst, src):
        merge_acc(d, s)
    return dst


def _au_sum_unmerge(dst: list, src: list) -> list:
    for d, s in zip(dst, src):
        unmerge_acc(d, s)
    return dst


_AU_SUM = _Algebra(
    init=lambda: [new_acc(), new_acc(), new_acc()],  # lo, sg, hi
    step=_au_sum_step,
    merge=_au_sum_merge,
    finalize=lambda s: _clamped_range(finish(s[0]), finish(s[1]), finish(s[2])),
    empty=certain(0),
    fold=_au_sum_fold,
    unmerge=_au_sum_unmerge,
)


def _au_monoid(monoid: Monoid) -> _Algebra:
    """MIN / MAX: fold ``⊛_M`` bounds with the monoid's combine, whose
    tie behavior (MIN keeps the earliest attaining value, MAX the
    latest) is associative as long as partials merge in partition
    order."""
    neutral, combine = monoid.neutral, monoid.combine

    def step(state, ann, m, certainly_in_group, in_sg_group) -> None:
        folded = star_operator(monoid, ann, m)
        lb, ub = folded.lb, folded.ub
        if not certainly_in_group:
            if not _dom_le(lb, neutral):
                lb = neutral
            if not _dom_le(neutral, ub):
                ub = neutral
        state[0] = combine(state[0], lb)
        state[2] = combine(state[2], ub)
        if in_sg_group:
            state[1] = combine(state[1], folded.sg)

    def merge(dst: list, src: list) -> list:
        dst[:] = [combine(d, s) for d, s in zip(dst, src)]
        return dst

    return _Algebra(
        init=lambda: [neutral, neutral, neutral],  # lo, sg, hi
        step=step,
        merge=merge,
        finalize=lambda state: _clamped_range(*state),
        empty=certain(None),  # SQL NULL, like the det engine
    )


def _au_avg_step(
    state: list, ann: AUAnnotation, m: RangeValue, _certainly_in_group: bool,
    in_sg_group: bool,
) -> None:
    """The mean of any multiset of values, each drawn from the
    contributing tuples' value ranges, lies between the smallest lower
    and the largest upper bound of any contributor — so MIN/MAX
    envelopes over ``ð(g)`` give sound (if loose) AVG bounds.  The SG
    value is the exact SGW average (sum/count in the SG world)."""
    if ann[2] > 0:
        state[4] = True
        if _dom_le(m.lb, state[0]):
            state[0] = m.lb
        if _dom_le(state[1], m.ub):
            state[1] = m.ub
    if in_sg_group and ann[1] > 0:
        add_product(state[2], m.sg, ann[1])
        state[3] += ann[1]


def _au_avg_merge(dst: list, src: list) -> list:
    # src is the later partition: its envelope candidates replay the
    # in-order fold's "ties update" rules against dst's running values
    if src[4]:
        dst[4] = True
        if _dom_le(src[0], dst[0]):
            dst[0] = src[0]
        if _dom_le(dst[1], src[1]):
            dst[1] = src[1]
    merge_acc(dst[2], src[2])
    dst[3] += src[3]
    return dst


def _au_avg_finalize(state: list) -> RangeValue:
    """The envelope around the SG world's mean ``Σ / count`` — the det
    ``AVG`` of that world, to the bit: its rounding may leave the
    envelope (three ``0.1`` average to ``0.10000000000000002``), which
    is widened to contain it.  Without an SG member the SG value is
    ``0.0`` clamped into the envelope."""
    lo, hi, acc, cnt, seen = state
    if not seen:  # no possible contributor
        return RangeValue(0.0, 0.0, 0.0)
    if cnt:
        sg = finish(acc) / cnt
        if not _dom_le(lo, sg):
            lo = sg
        if not _dom_le(sg, hi):
            hi = sg
        return RangeValue(lo, sg, hi)
    sg = 0.0
    if not _dom_le(lo, sg):
        sg = lo
    if not _dom_le(sg, hi):
        sg = hi
    return RangeValue(lo, sg, hi)


# -- typing, in the vocabulary of repro.analysis.schema (which imports
# -- this module): TYPE_NUMBER / TYPE_STRING / TYPE_ANY
def _reject_strings(inner: Any) -> None:
    if inner is not None and inner.type == "string":
        raise TypeError("a string column")


def _sum_type(inner: Any) -> Tuple[str, bool]:
    _reject_strings(inner)
    return "number", (inner.nullable if inner is not None else True)


def _avg_type(inner: Any) -> Tuple[str, bool]:
    _reject_strings(inner)
    return "number", True


def _type_of_input(inner: Any) -> Tuple[str, bool]:
    return (inner.type if inner is not None else "any"), True


#: Every aggregate function, defined once: the SQL parser accepts these
#: names, :class:`AggregateSpec` validates against them, schema
#: inference types them, and every fold — serial, partial, parallel
#: merge, delta — runs these functions.  A sixth function is one entry
#: here (``tests/test_aggregate_registry.py`` holds it to the
#: whole-group references on both engines).
AGGREGATES: Dict[str, _AggregateFunction] = {
    "sum": _AggregateFunction(
        det=_Algebra(
            new_acc, _det_sum_step, _det_sum_merge, finish, 0, _det_sum_fold,
            _det_sum_unmerge,
        ),
        au=_AU_SUM,
        result_type=_sum_type,
    ),
    "count": _AggregateFunction(
        det=_Algebra(
            init=lambda: 0,
            step=_det_count_step,
            merge=lambda a, b: a + b,
            finalize=lambda state: state,
            empty=0,
            fold=lambda state, _values, weights: state + sum(weights),
            unmerge=lambda a, b: a - b,
        ),
        au=_AU_SUM,  # SUM of the constant 1
        result_type=lambda inner: ("number", False),
        takes_input=False,
    ),
    "min": _AggregateFunction(
        det=_det_extremum(_det_min_step),
        au=_au_monoid(MIN),
        result_type=_type_of_input,
    ),
    "max": _AggregateFunction(
        det=_det_extremum(_det_max_step),
        au=_au_monoid(MAX),
        result_type=_type_of_input,
    ),
    "avg": _AggregateFunction(
        det=_Algebra(
            init=lambda: [new_acc(), 0],  # exact Σ value·weight, Σ weight
            step=_det_avg_step,
            merge=_det_avg_merge,
            finalize=lambda state: finish(state[0]) / state[1],
            empty=0.0,
            fold=_det_avg_fold,
            unmerge=_det_avg_unmerge,
        ),
        au=_Algebra(
            # envelope lo, hi; exact SG Σ; SG count; any possible row
            init=lambda: [math.inf, -math.inf, new_acc(), 0, False],
            step=_au_avg_step,
            merge=_au_avg_merge,
            finalize=_au_avg_finalize,
            empty=certain(0.0),
        ),
        result_type=_avg_type,
    ),
}

_ONE = certain(1)


def _empty_row(aggregates: Sequence[AggregateSpec]) -> List[RangeValue]:
    return [AGGREGATES[spec.kind].au.empty for spec in aggregates]


# ----------------------------------------------------------------------
# Morsel-parallel partial aggregation (SG-combine-aware merges)
# ----------------------------------------------------------------------
# When every input row's group-by attributes are *certain*, the default
# grouping strategy degenerates into exact hash grouping: each group's
# box is a single point, ð(g) equals the member set, and every per-row
# contribution is row-local (``in_sg_group`` always holds,
# ``certainly_in_group`` is "the row certainly exists").  The γ fold then
# factors into per-morsel partial states — the registry's AU states —
# merged in partition order; the K^AU output annotation sums pointwise
# (δ applied at finalize).  :mod:`repro.exec.au_aggregate` folds, merges
# and finalizes them.
#
# A single row with uncertain group-by attributes breaks row-locality
# (it contributes to every overlapping group's bounds), so the fold
# raises :class:`UncertainGroupError` and the caller falls back to the
# serial operator.


class UncertainGroupError(ValueError):
    """A partial (morsel-parallel) aggregate met a row whose group-by
    attributes are uncertain: the contributor sets ð(g) are then not
    row-local and only the serial operator computes sound bounds."""

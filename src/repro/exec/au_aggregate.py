"""The Section 9 / 10.5 aggregate on column batches.

``γ_{G, f1(e1), …}`` for the vectorized AU executor: batch in, batch out,
no :class:`~repro.core.relation.AURelation` in between.  The reference is
:func:`repro.core.aggregation.aggregate` (what the tuple backend runs);
:func:`aggregate_batch` returns the same relation **including the order
of ``tuples()`` and the ``repr`` of every cell** once its output batch is
materialized — a ``Cpr`` or a top-k above the aggregate is
order-sensitive.

The order / dedupe / merge-order contract, step by step:

* value-equal input rows are merged first, annotations summed, in
  first-occurrence order — the rows ``to_relation()`` would hold;
* one hash pass over the plain SG values of the group-by columns assigns
  every row to its output group (Definition 24), groups in
  first-occurrence order;
* a group none of whose members has an uncertain group-by cell is
  bounded by its first member's cells; any other group gets, per
  attribute, the first minimum lower / first maximum upper bound of its
  members under ``domain_key`` (Definition 25);
* aggregate inputs are computed once per row and per aggregate by the
  value kernels of :mod:`repro.exec.compile` (a plain attribute is its
  column, ``COUNT`` the constant 1, anything the compiler rejects is
  interpreted), all rows of one aggregate before the next aggregate;
* a group's *members* are folded in row order straight into its registry
  state (:data:`repro.core.aggregation.AGGREGATES`), flagged
  ``in_sg_group`` and — when the group box is a point, the row's
  group-by cells are certain and the row certainly exists —
  ``certainly_in_group``;
* every *foreign* contributor is folded **once** into a state of its own
  with the flags ``(False, False)`` and that state is ``merge``\\ d into
  each group whose box it overlaps, found by an overlap-index probe on
  the first group-by attribute.  Without a bucket budget the foreign
  contributors are the non-member rows, interleaved with the members in
  ascending row order; with one (Section 10.5) they are at most
  ``buckets`` boxes over the rows with an uncertain group-by cell —
  stably sorted on the first group-by attribute's SG value, bounded
  column-wise over the group-by and the referenced columns only,
  annotated ``(0, 0, Σub)`` — merged after the members, in bucket order.
  The algebra's ``merge`` replays the in-order fold, so this is the
  reference's result to the bit;
* except for *point contributions* of an algebra with a column ``fold``
  (``SUM`` / ``COUNT``): a row annotated ``(k, k, k)``, ``k > 0``, whose
  input cell is one object ``v`` as lower, SG and upper bound, in a
  group of at least :data:`_COLUMN_MIN_ROWS` members.  Its product
  ``k·v`` joins a column of its own group and one of each foreign group
  its key overlaps, under the state slots Definition 26 gives it there
  (:func:`~repro.core.aggregation.point_slots`), and each column is one
  ``fold`` — no step, no foreign state, no merge.  This is exact in any
  order: a ``SUM`` state is three :mod:`repro.core.sums` accumulators,
  each a pure function of the weighted multiset it received.

The same member fold is the per-morsel half of a parallel AU aggregate
(:func:`fold_partial_groups`): every box a point, and a row with an
uncertain group-by cell — which would contribute to foreign groups — is
an :class:`~repro.core.aggregation.UncertainGroupError`.

A view kept live by :mod:`repro.ivm` keeps the whole fold's state beside
its input (:class:`GammaState`) and folds certain-key input changes
into it, so that a read only finalizes.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .. import telemetry as _tm
from ..core.aggregation import (
    AGGREGATES,
    AggregateSpec,
    UncertainGroupError,
    _ONE,
    _referenced_columns,
    point_slots,
)
from ..core.expressions import Var
from ..core.ranges import RangeValue, domain_key, overlap_index
from .batch import AUColumnBatch, BatchRowView, charge_materialization
from .compile import CompileError, compile_range_values

__all__ = [
    "aggregate_batch",
    "fold_partial_groups",
    "merge_partial_groups",
    "finalize_groups",
    "GammaState",
]

#: the fewest members a group needs for its point contributions to fold
#: by column: below it, a column's fixed cost (gathering it, a fresh
#: accumulator, a merge per slot) exceeds the per-row steps it replaces
#: (on certain-key groups the two break even at about 40 rows)
_COLUMN_MIN_ROWS = 64

#: group key -> ``[box, annotation sums, one AU registry state per
#: aggregate]``: the group-by cells of the output row, the pointwise
#: ``K^AU`` sums of Definitions 27/28 (δ applied at finalize) and the
#: mergeable aggregate states
Groups = Dict[Tuple[Any, ...], List[Any]]

_EXECUTIONS = {
    inputs: _tm.get_registry().counter(
        "repro_exec_au_aggregate_total",
        "AU aggregates executed on column batches, by how their "
        "aggregate inputs were evaluated.",
        inputs=inputs,
    )
    for inputs in ("compiled", "interpreted")
}


def aggregate_batch(
    batch: AUColumnBatch,
    group_by: Sequence[str],
    aggregates: Sequence[AggregateSpec],
    buckets: Optional[int] = None,
) -> AUColumnBatch:
    """``γ_{group_by, aggregates}(batch)``; ``buckets`` is the Section
    10.5 compression budget for foreign contributors (``None``: every
    overlapping row contributes on its own)."""
    fold = _fold_batch(batch, group_by, aggregates, buckets)[0]
    out = finalize_groups(fold.groups, group_by, aggregates)
    charge_materialization(len(out))
    return out


def _fold_batch(
    batch: AUColumnBatch,
    group_by: Sequence[str],
    aggregates: Sequence[AggregateSpec],
    buckets: Optional[int],
) -> Tuple[_Fold, AUColumnBatch]:
    """:func:`_fold` over the merged rows of ``batch`` — one executed
    aggregate, counted and annotated as such — and those rows."""
    if buckets is not None and buckets <= 0:
        raise ValueError("bucket count must be positive")
    group_idx = [_attr_index(batch.schema, a) for a in group_by]
    batch, merged = batch.merge_duplicates()
    fold = _fold(batch, group_idx, aggregates, buckets, strict=False)
    _EXECUTIONS[fold.attrs["inputs"]].inc()
    if _tm._ACTIVE is not None:
        _tm.annotate(groups=len(fold.groups), dedup_rows=merged, **fold.attrs)
    return fold, batch


def fold_partial_groups(
    batch: AUColumnBatch,
    group_by: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> Groups:
    """Fold one morsel into mergeable per-group state: the member fold
    of :func:`aggregate_batch` over unmerged rows.  Raises
    :class:`UncertainGroupError` on a row whose group-by attributes are
    uncertain."""
    group_idx = [_attr_index(batch.schema, a) for a in group_by]
    return _fold(batch, group_idx, aggregates, None, strict=True).groups


def merge_partial_groups(
    target: Groups, source: Groups, aggregates: Sequence[AggregateSpec]
) -> None:
    """Merge ``source`` into ``target`` in place (``source`` is consumed).

    Call in partition order: group first-occurrence order and the
    order-sensitive tie rules of MIN/MAX/AVG envelopes then reproduce the
    serial fold exactly.
    """
    merges = [AGGREGATES[spec.kind].au.merge for spec in aggregates]
    for key, src in source.items():
        dst = target.get(key)
        if dst is None:
            target[key] = src
            continue
        dst[1][0] += src[1][0]
        dst[1][1] += src[1][1]
        dst[1][2] += src[1][2]
        for merge, d, s in zip(merges, dst[2], src[2]):
            merge(d, s)


def finalize_groups(
    groups: Groups, group_by: Sequence[str], aggregates: Sequence[AggregateSpec]
) -> AUColumnBatch:
    """The γ output batch of (possibly merged) group state; no group and
    no GROUP BY is the one-row empty-input result."""
    schema = list(group_by) + [spec.name for spec in aggregates]
    algebras = [AGGREGATES[spec.kind].au for spec in aggregates]
    if not groups and not group_by:
        return AUColumnBatch(
            schema, [[algebra.empty] for algebra in algebras], [1], [1], [1]
        )
    columns: List[List[RangeValue]] = [[] for _ in schema]
    ann_lb: List[int] = []
    ann_sg: List[int] = []
    ann_ub: List[int] = []
    base = len(group_by)
    for box, (lb, sg, ub), states in groups.values():
        if not base:
            lb = sg = ub = 1  # Definition 27: one certain output row
        elif not ub:
            continue
        for out, cell in zip(columns, box):
            out.append(cell)
        for a, algebra in enumerate(algebras):
            columns[base + a].append(algebra.finalize(states[a]))
        # Definition 28: δ of the member sums
        ann_lb.append(1 if lb > 0 else 0)
        ann_sg.append(1 if sg > 0 else 0)
        ann_ub.append(ub)
    return AUColumnBatch(schema, columns, ann_lb, ann_sg, ann_ub)


# ----------------------------------------------------------------------
# γ state kept beside its input (incremental view maintenance)
# ----------------------------------------------------------------------
class GammaState:
    """The state of one AU aggregate kept beside its changing input.

    :meth:`rebuild` runs :func:`aggregate_batch` over the whole input and
    keeps what its fold returned — group boxes, ``K^AU`` annotation sums
    and one registry state per aggregate — with what decides whether a
    later change of one input row folds into it exactly.  :meth:`apply`
    folds such a change, or returns why it cannot (the state is then
    unusable until the next :meth:`rebuild`), and :meth:`result`
    finalizes: the γ output batch :func:`aggregate_batch` returns over
    the changed input, to the bit and in row order, provided the input
    keeps its rows in place and appends new ones (a relation's order).

    A change folds when the row's group-by cells are certain and its SG
    group exists.  The old annotation's contribution is stepped into a
    scratch state and taken out (the registry's ``unmerge``), the new
    one's stepped in and merged: into the group's state with the flags
    the fold gives a member, and into the state of every group with an
    uncertain box that the key overlaps, as a foreign contributor (a
    certain key overlaps no certain box, and under a bucket budget a
    certain-key row is a member only).  So a change costs
    O(aggregates × (1 + uncertain-box groups)).
    """

    def __init__(
        self,
        schema: Sequence[str],
        group_by: Sequence[str],
        aggregates: Sequence[AggregateSpec],
        buckets: Optional[int],
    ) -> None:
        self.group_by = tuple(group_by)
        self.aggregates = tuple(aggregates)
        self.buckets = buckets
        self._group_idx = [_attr_index(schema, a) for a in group_by]
        self._kernels = _input_kernels(schema, aggregates)[0]
        self._algebras = [AGGREGATES[spec.kind].au for spec in aggregates]
        #: every state takes a contribution back out: a change may also
        #: remove one, or land before a bucket merge
        self._order_free = all(a.unmerge is not None for a in self._algebras)
        self.groups: Groups = {}
        #: group key -> [members, first member, first certain-key member
        #: (or None), box certain, receives bucket merges]
        self._info: Dict[Tuple, List[Any]] = {}
        #: each input row -> itself: the stored cells of a value-equal row
        self._rows: Dict[Tuple, Tuple] = {}
        #: keys of the groups whose box is uncertain
        self._uncertain: List[Tuple] = []

    def rebuild(self, batch: AUColumnBatch) -> AUColumnBatch:
        """Aggregate all of ``batch`` and keep the state; returns the γ
        output batch."""
        fold, batch = _fold_batch(batch, self.group_by, self.aggregates, self.buckets)
        rows = list(zip(*batch.columns)) if batch.columns else [()] * len(batch)
        keys = list(fold.groups)
        info = {}
        for key, group, certain_box in zip(keys, fold.members, fold.box_certain):
            plain = next(
                (rows[r] for r in group if not fold.key_uncertain[r]), None
            )
            info[key] = [len(group), rows[group[0]], plain, certain_box, False]
        if self.buckets is not None:
            for hit in fold.targets.values():
                for g in hit:
                    info[keys[g]][4] = True
        self.groups = fold.groups
        self._info = info
        self._rows = dict(zip(rows, rows))
        self._uncertain = [key for key in keys if not info[key][3]]
        return self.result()

    def result(self) -> AUColumnBatch:
        """The γ output batch of the state."""
        out = finalize_groups(self.groups, self.group_by, self.aggregates)
        charge_materialization(len(out))
        return out

    def apply(
        self,
        t: Tuple[RangeValue, ...],
        old: Optional[Tuple[int, int, int]],
        new: Optional[Tuple[int, int, int]],
    ) -> Optional[str]:
        """Fold input row ``t``'s annotation change from ``old`` to
        ``new`` (``None``: absent) into the state.  Returns ``None``, or
        why it cannot before it changed anything: the row's group-by
        cells are uncertain (``uncertain_group_key``: boxes and buckets
        would move), its group is new or the removal empties it
        (``new_group``, ``group_emptied``), the removal takes the first
        member or first certain-key member that fix group order and the
        box (``first_member_deleted``), a state keeps order-dependent
        envelopes (``order_sensitive_delta``: anything but a new row, or
        a new row in a group bucket boxes merge into after it), an input
        bound of an aggregate with ``unmerge`` is a non-finite float
        (``non_finite_addend``: the absorbing IEEE slot has no inverse),
        or stepping it raised (``fold_error``)."""
        cells = [t[j] for j in self._group_idx]
        for cell in cells:
            if cell.lb is not cell.ub and not cell.is_certain:
                return "uncertain_group_key"
        key = tuple(cell.sg for cell in cells)
        entry = self.groups.get(key)
        if entry is None:
            return "new_group"
        info = self._info[key]
        members, first, plain, certain_box, bucketed = info
        if old is None:
            row = t
            if bucketed and not self._order_free:
                return "order_sensitive_delta"
        else:
            if not self._order_free:
                return "order_sensitive_delta"
            row = self._rows[t]
            if new is None:
                if members == 1:
                    return "group_emptied"
                if row is first or row is plain:
                    return "first_member_deleted"
        # the states the row enters, with its Definition 26 flags there
        entered = [(key, certain_box, True)]
        if self.buckets is None:
            for other in self._uncertain:
                if other != key and all(
                    cell.overlaps(box)
                    for cell, box in zip(cells, self.groups[other][0])
                ):
                    entered.append((other, False, False))
        columns = [[cell] for cell in row]
        parts = []
        try:
            for a, (kernel, algebra) in enumerate(zip(self._kernels, self._algebras)):
                m = kernel(columns, 1)[0]
                if algebra.unmerge is not None and not _finite(m):
                    return "non_finite_addend"
                for target, certain, in_sg in entered:
                    for ann, combine in ((old, algebra.unmerge), (new, algebra.merge)):
                        if ann is not None:
                            part = algebra.init()
                            algebra.step(part, ann, m, certain and ann[0] > 0, in_sg)
                            parts.append((self.groups[target][2], a, combine, part))
        except (TypeError, ValueError, ArithmeticError):
            return "fold_error"  # the re-run raises it to the reader
        for states, a, combine, part in parts:
            states[a] = combine(states[a], part)
        total = entry[1]
        for ann, sign in ((old, -1), (new, 1)):
            if ann is not None:
                total[0] += sign * ann[0]
                total[1] += sign * ann[1]
                total[2] += sign * ann[2]
        if old is None:
            info[0] += 1
            self._rows[t] = t
            if plain is None:
                info[2] = t
        elif new is None:
            info[0] -= 1
            del self._rows[row]
        return None


def _finite(m: RangeValue) -> bool:
    """No bound of ``m`` is an ``inf`` / ``nan`` float."""
    return all(type(x) is not float or math.isfinite(x) for x in (m.lb, m.sg, m.ub))


# ----------------------------------------------------------------------
# the fold
# ----------------------------------------------------------------------
def _attr_index(schema: Sequence[str], name: str) -> int:
    try:
        return schema.index(name)
    except ValueError:
        raise KeyError(f"attribute {name!r} not in schema {schema}") from None


class _Fold(NamedTuple):
    """What :func:`_fold` computed.  A *contributor* is a batch row or,
    numbered after them, a Section 10.5 bucket box."""

    groups: Groups
    #: what the fold did (the operator span's attributes)
    attrs: Dict[str, Any]
    #: per group number (the order of ``groups``), its rows in order
    members: List[List[int]]
    #: per row: a group-by cell is uncertain
    key_uncertain: List[bool]
    #: per group number: no member has an uncertain group-by cell
    box_certain: List[bool]
    #: contributor -> the groups it enters as a foreign contributor
    targets: Dict[int, List[int]]


def _fold(
    batch: AUColumnBatch,
    group_idx: Sequence[int],
    aggregates: Sequence[AggregateSpec],
    buckets: Optional[int],
    strict: bool,
) -> _Fold:
    """The group state of ``batch``.  ``strict``: a row with an
    uncertain group-by cell is an :class:`UncertainGroupError`."""
    n = len(batch)
    columns = batch.columns
    key_cols = [columns[j] for j in group_idx]

    # -- one hash pass over the SG key values: alpha / members ----------
    index_of, alpha, members = sg_groups(key_cols, n)

    # -- rows with an uncertain group-by cell, once per row -------------
    key_uncertain = [False] * n
    for j, col in zip(group_idx, key_cols):
        for r, cell in enumerate(col):
            if cell.lb is not cell.ub and not cell.is_certain:
                if strict:
                    raise UncertainGroupError(
                        f"uncertain group-by value {cell!r} for attribute "
                        f"{batch.schema[j]!r}: partial aggregation is not "
                        "sound"
                    )
                key_uncertain[r] = True
    foreign_capable = [r for r in range(n) if key_uncertain[r]]

    # -- group boxes (Definition 25) ------------------------------------
    # members with certain group-by cells all hold the group's value, so
    # the first of them stands for the rest: a group's bounds are those
    # of its uncertain-key members and that one, in row order
    boxes = [[col[m[0]] for m in members] for col in key_cols]
    box_certain = [True] * len(members)
    spreads: Dict[int, List[int]] = {}  # group -> the rows its box bounds
    for g in {alpha[r] for r in foreign_capable}:
        box_certain[g] = False
        rows = members[g]
        if len(rows) > 1:
            plain = next((r for r in rows if not key_uncertain[r]), None)
            spreads[g] = [r for r in rows if key_uncertain[r] or r == plain]
    if spreads:
        for box, col in zip(boxes, key_cols):
            for g, cell in zip(spreads, box_runs(col, list(spreads.values()))):
                box[g] = cell

    # -- ð(g) beyond the members: each group's foreign contributors ----
    # (rows by position, Section 10.5 bucket boxes numbered after them)
    foreign: Sequence[Sequence[int]] = [()] * len(members)
    extra_cols: List[List[RangeValue]] = [[] for _ in columns]
    extra_ub: List[int] = []
    if foreign_capable and buckets is not None:
        extra_cols, extra_ub = _bucket_boxes(
            batch,
            foreign_capable,
            group_idx[0],
            _referenced_columns(batch.schema, group_idx, aggregates),
            buckets,
        )
        hits = _overlapping([extra_cols[j] for j in group_idx], boxes)
        foreign = [[n + k for k in found] for found in hits]
    elif foreign_capable:
        foreign = [
            [r for r in found if alpha[r] != g]
            for g, found in enumerate(_overlapping(key_cols, boxes))
        ]
    targets: Dict[int, List[int]] = {}  # contributor -> its foreign groups
    for g, rows in enumerate(foreign):
        for r in rows:
            targets.setdefault(r, []).append(g)

    # -- aggregate inputs, once per row and aggregate -------------------
    inputs, attrs = _aggregate_inputs(batch, extra_cols, len(extra_ub), aggregates)

    # -- the fold: a point contribution of an algebra with a column fold
    # -- joins its (group, slots) column; every other one is stepped in
    # -- ascending order, so every state sees its own in the reference's
    # -- order, and a foreign one is folded once and merged -------------
    anns = list(zip(batch.ann_lb, batch.ann_sg, batch.ann_ub))
    certainly = [
        box_certain[g] and not uncertain and ann[0] > 0
        for g, uncertain, ann in zip(alpha, key_uncertain, anns)
    ]
    owner, contributions = alpha, anns
    if targets:  # bucket boxes: no group of their own, possible only
        owner = alpha + [-1] * len(extra_ub)
        contributions = anns + [(0, 0, ub) for ub in extra_ub]
        certainly += [False] * len(extra_ub)
    # rows whose contributions may fold by column: annotated (k, k, k),
    # k > 0, in a group of at least _COLUMN_MIN_ROWS members (a bucket
    # box, (0, 0, Σub), never is one)
    wide = [len(rows) >= _COLUMN_MIN_ROWS for rows in members]
    foldable = None
    if True in wide:
        foldable = [
            lb == ub > 0 and sg == ub and wide[g]
            for g, (lb, sg, ub) in zip(alpha, anns)
        ] + [False] * len(extra_ub)
    column_rows = foreign_states = state_merges = 0
    states = []
    for spec, col in zip(aggregates, inputs):
        algebra = AGGREGATES[spec.kind].au
        init, step, merge = algebra.init, algebra.step, algebra.merge
        per_group = [init() for _ in members]
        stepped = None  # which rows take ``step``: all
        if algebra.fold is not None and foldable is not None:
            point = [p and m.lb is m.sg is m.ub for p, m in zip(foldable, col)]
            if True in point:
                _fold_points(
                    algebra.fold, per_group, point, members, foreign, box_certain,
                    col, batch.ann_ub,
                )
                column_rows += point.count(True)
                stepped = [not p for p in point]
        rows = zip(owner, contributions, col, certainly)
        if not targets:
            for g, ann, m, sure in rows if stepped is None else compress(rows, stepped):
                step(per_group[g], ann, m, sure, True)
        else:
            rows = enumerate(rows)
            for r, (g, ann, m, sure) in (
                rows if stepped is None else compress(rows, stepped)
            ):
                if g >= 0:
                    step(per_group[g], ann, m, sure, True)
                hit = targets.get(r)
                if hit is not None:
                    other = init()
                    step(other, ann, m, False, False)
                    for g in hit:
                        merge(per_group[g], other)
                    foreign_states += 1
                    state_merges += len(hit)
        states.append(per_group)
    attrs.update(
        uncertain_key_rows=len(foreign_capable),
        column_rows=column_rows,
        foreign_states=foreign_states,
        state_merges=state_merges,
    )

    # -- annotation sums (Definitions 27/28) ----------------------------
    totals = [[0, 0, 0] for _ in members]
    for g, uncertain, (lb, sg, ub) in zip(alpha, key_uncertain, anns):
        total = totals[g]
        if not uncertain:
            total[0] += lb
        total[1] += sg
        total[2] += ub
    groups = {
        key: [[box[g] for box in boxes], totals[g], [s[g] for s in states]]
        for g, key in enumerate(index_of)
    }
    return _Fold(groups, attrs, members, key_uncertain, box_certain, targets)


def _fold_points(
    fold: Callable,
    per_group: List[Any],
    point: List[bool],
    members: Sequence[Sequence[int]],
    foreign: Sequence[Sequence[int]],
    box_certain: Sequence[bool],
    col: Sequence[RangeValue],
    weights: Sequence[int],
) -> None:
    """Fold one aggregate's point contributions (``point[r]``: annotation
    ``(k, k, k)``, ``k > 0``, and input one object ``v``) by column:
    each group's point members, then its point foreign contributors,
    split by the slots Definition 26 gives ``k·v`` there
    (:func:`~repro.core.aggregation.point_slots`), one registry ``fold``
    per slot set."""
    for g, state in enumerate(per_group):
        for rows, in_sg_group in ((members[g], True), (foreign[g], False)):
            rows = [r for r in rows if point[r]] if rows else rows
            if not rows:
                continue
            values = [col[r].ub for r in rows]
            column_weights = [weights[r] for r in rows]
            if in_sg_group and box_certain[g]:
                # certainly in the group: every slot, whatever the sign
                fold(state, values, column_weights, point_slots(values[0], True, True))
                continue
            slots_of = [point_slots(v, False, in_sg_group) for v in values]
            if slots_of.count(slots_of[0]) == len(slots_of):  # one sign
                fold(state, values, column_weights, slots_of[0])
                continue
            # point_slots returns one of a few constant slices
            for slots in {id(s): s for s in slots_of}.values():
                pick = [s is slots for s in slots_of]
                fold(
                    state,
                    list(compress(values, pick)),
                    list(compress(column_weights, pick)),
                    slots,
                )


def sg_groups(
    key_cols: Sequence[Sequence[RangeValue]], n: int
) -> Tuple[Dict[Tuple, int], List[int], List[List[int]]]:
    """One hash pass over the SG values of ``key_cols`` (``n`` rows):
    each distinct SG key's group number, groups in first-occurrence
    order, every row's group (``alpha``) and every group's rows in
    order (``members``) — the grouping of Definitions 21 and 24."""
    if key_cols:
        keys: Sequence[Tuple] = list(
            zip(*[[cell.sg for cell in col] for col in key_cols])
        )
    else:
        keys = [()] * n
    index_of: Dict[Tuple, int] = {}
    alpha: List[int] = []
    members: List[List[int]] = []
    for r, key in enumerate(keys):
        g = index_of.get(key)
        if g is None:
            g = index_of[key] = len(members)
            members.append([r])
        else:
            members[g].append(r)
        alpha.append(g)
    return index_of, alpha, members


#: value types that order among themselves as their ``domain_key`` does:
#: ``(1, v)`` for every int / float (not ``bool``), ``(2, v)`` for a str
_NUMBERS = frozenset({int, float})
_STRINGS = frozenset({str})


def _order_keys(values: List[Any]) -> List[Any]:
    """Keys ordering ``values`` as ``domain_key`` does, ties included:
    the values themselves when all are int / float or all str, else
    the ``domain_key`` of each."""
    kinds = set(map(type, values))
    if kinds <= _NUMBERS or kinds <= _STRINGS:
        return values
    return list(map(domain_key, values))


def box_runs(
    col: Sequence[RangeValue], runs: Sequence[Sequence[int]]
) -> List[RangeValue]:
    """One box per run of row positions over ``col``, as the reference's
    left fold of ``RangeValue.merge`` builds it: the first minimum lower
    bound, the run's first SG value and the first maximum upper bound
    under ``domain_key``; a run of one row keeps its cell.  The keys are
    computed once per column, over the runs' cells in run order."""
    cells = [col[r] for run in runs for r in run]
    lows = _order_keys([cell.lb for cell in cells])
    highs = _order_keys([cell.ub for cell in cells])
    out = []
    start = 0
    for run in runs:
        end = start + len(run)
        first = cells[start]
        if end - start == 1:
            out.append(first)
        else:
            low = lows[start:end]
            high = highs[start:end]
            out.append(
                RangeValue(
                    cells[start + low.index(min(low))].lb,
                    first.sg,
                    cells[start + high.index(max(high))].ub,
                )
            )
        start = end
    return out


def _bucket_boxes(
    batch: AUColumnBatch,
    rows: Sequence[int],
    sort_on: int,
    read_idx: Sequence[int],
    buckets: int,
) -> Tuple[List[List[RangeValue]], List[int]]:
    """Section 10.5 bucket boxes over ``rows`` (ascending), as columns
    aligned with the batch's, and their summed upper multiplicities.

    The rows are stably sorted on the SG value of column ``sort_on`` and
    cut into at most ``buckets`` runs; a box bounds its run column-wise
    (:func:`box_runs`) on the ``read_idx`` columns and keeps the first
    row's cell elsewhere (nothing reads it).  Over every row and column
    this is the compressed join's ``Cpr``
    (:mod:`repro.exec.compressed_join`).
    """
    sort_col = batch.columns[sort_on]
    keys = _order_keys([sort_col[r].sg for r in rows])
    order = [rows[k] for k in sorted(range(len(keys)), key=keys.__getitem__)]
    size = max(1, -(-len(order) // buckets))
    runs = [order[start : start + size] for start in range(0, len(order), size)]
    columns = []
    for j, col in enumerate(batch.columns):
        if size == 1 or j not in read_idx:
            columns.append([col[run[0]] for run in runs])
        else:
            columns.append(box_runs(col, runs))
    ann_ub = batch.ann_ub.__getitem__
    return columns, [sum(map(ann_ub, run)) for run in runs]


def _overlapping(
    key_cols: Sequence[Sequence[RangeValue]],
    boxes: Sequence[Sequence[RangeValue]],
) -> List[List[int]]:
    """Per group box the ascending positions of the rows of ``key_cols``
    overlapping it on every group-by attribute: an overlap-index probe
    on the first attribute, the others tested on its hits only."""
    on_first = overlap_index(key_cols[0])
    rest = list(zip(key_cols, boxes))[1:]
    return [
        [
            k
            for k in on_first(first)
            if all(col[k].overlaps(box[g]) for col, box in rest)
        ]
        for g, first in enumerate(boxes[0])
    ]


def _aggregate_inputs(
    batch: AUColumnBatch,
    extra_cols: List[List[RangeValue]],
    extra: int,
    aggregates: Sequence[AggregateSpec],
) -> Tuple[List[Sequence[RangeValue]], Dict[str, Any]]:
    """Per aggregate the input range of every batch row followed by the
    ``extra`` bucket rows of ``extra_cols``, and whether every
    expression ran compiled (else why not)."""
    kernels, attrs = _input_kernels(batch.schema, aggregates)
    n = len(batch)
    inputs: List[Sequence[RangeValue]] = []
    for kernel in kernels:
        values = kernel(batch.columns, n)
        inputs.append([*values, *kernel(extra_cols, extra)] if extra else values)
    return inputs, attrs


def _input_kernels(
    schema: Sequence[str], aggregates: Sequence[AggregateSpec]
) -> Tuple[List[Callable[[Sequence, int], Sequence[RangeValue]]], Dict[str, Any]]:
    """Per aggregate ``kernel(columns, n)``: its input range on each of
    the ``n`` rows of ``columns`` — a plain attribute is its column,
    ``COUNT`` the constant 1, an expression runs compiled or, where the
    compiler rejects it, interpreted — and whether every expression
    compiled (else why not)."""
    index = {name: j for j, name in enumerate(schema)}
    reason = None
    kernels: List[Callable[[Sequence, int], Sequence[RangeValue]]] = []
    for spec in aggregates:
        expr = spec.expr
        if not AGGREGATES[spec.kind].takes_input:
            kernels.append(_ones)
        elif isinstance(expr, Var) and expr.name in index:
            kernels.append(_column(index[expr.name]))
        else:
            try:
                kernels.append(compile_range_values(expr, schema))
            except CompileError as exc:
                reason = str(exc)
                kernels.append(_interpreter(expr, index))
    if reason is None:
        return kernels, {"inputs": "compiled"}
    return kernels, {"inputs": "interpreted", "kernel_reason": reason}


def _ones(_columns: Sequence, n: int) -> List[RangeValue]:
    return [_ONE] * n


def _column(j: int) -> Callable[[Sequence, int], Sequence[RangeValue]]:
    def kernel(columns: Sequence, _n: int) -> Sequence[RangeValue]:
        return columns[j]

    return kernel


def _interpreter(expr, index: Dict[str, int]) -> Callable:
    """``expr.eval_range`` over every row: the interpreted form of
    :func:`repro.exec.compile.compile_range_values`."""

    def evaluate(columns: Sequence, n: int) -> List[RangeValue]:
        view = BatchRowView(index, columns)
        out = []
        for i in range(n):
            view.i = i
            out.append(expr.eval_range(view))
        return out

    return evaluate

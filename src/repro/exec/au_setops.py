"""The SG-combining AU operators on column batches: ``Ψ``, ``δ``, ``−`` and
top-k.

The vectorized AU executor's :class:`~repro.exec.physical.HashDistinct`,
:class:`~repro.exec.physical.HashExcept` and
:class:`~repro.exec.physical.TopK`: batch in, batch out, no
:class:`~repro.core.relation.AURelation` in between.  Each returns
exactly ``AUColumnBatch.from_relation(ref(batch.to_relation()))`` for its
:mod:`repro.core.operators` reference ``ref`` — the same rows in the same
order, the same annotations and the same ``repr`` of every cell — so an
order-sensitive operator above (a ``Cpr``, another top-k) sees what the
tuple engine sees.  The shared steps:

* the input rows are value-merged, annotations summed, in
  first-occurrence order (:meth:`AUColumnBatch.merge_duplicates`, the
  rows ``to_relation()`` would hold) — a certain-key top-k merges only
  its candidates (below);
* ``Ψ`` (Definition 21) is the SG-key hash pass of the AU aggregate
  (:func:`~repro.exec.au_aggregate.sg_groups`): a group of one keeps its
  row, a larger group becomes the box of its members built like the
  reference's left fold of ``RangeValue.merge`` (the aggregate's
  column-wise :func:`~repro.exec.au_aggregate.box_runs`), with the
  summed annotation;
* Definition 22's ``≃`` and ``≡`` are tested against every right row,
  the reference's nested loop;
* a certain-key top-k first keeps the rows
  :func:`repro.db.engine.topk_candidates` keeps (every row with
  ``lb > 0`` certainly takes a slot), merges them, sorts their positions
  on :func:`~repro.core.ranges.order_key` columns with the reference's
  two stable sorts, then runs its prefix sums.
"""

from __future__ import annotations

from itertools import groupby
from typing import Dict, List, Sequence, Tuple

from .. import telemetry as _tm
from ..db import engine as _engine
from ..core.ranges import order_key
from ..core.tuples import tuples_certainly_equal, tuples_may_equal
from .au_aggregate import _attr_index, box_runs, sg_groups
from .batch import AUColumnBatch, charge_materialization

__all__ = ["sg_combine", "distinct_batch", "except_batch", "topk_batch"]


def sg_combine(batch: AUColumnBatch) -> Tuple[AUColumnBatch, List[Tuple]]:
    """``Ψ`` of ``batch.to_relation()`` as a batch, and the SG values of
    each of its rows."""
    batch, _merged = batch.merge_duplicates()
    index_of, _alpha, members = sg_groups(batch.columns, len(batch))
    keys = list(index_of)
    if len(members) == len(batch):
        return batch, keys
    columns = [box_runs(col, members) for col in batch.columns]
    anns = [
        [sum(ann[r] for r in rows) for rows in members]
        for ann in (batch.ann_lb, batch.ann_sg, batch.ann_ub)
    ]
    return AUColumnBatch(batch.schema, columns, *anns), keys


def _rows(batch: AUColumnBatch) -> List[Tuple]:
    """The cells of every row as tuples."""
    return list(zip(*batch.columns)) if batch.columns else [()] * len(batch)


def distinct_batch(batch: AUColumnBatch) -> AUColumnBatch:
    """``δ(Ψ(R))`` (:func:`repro.core.operators.distinct`): the lower
    bound stays 1 and the upper bound clamps to 1 only on rows whose
    cells are all certain."""
    combined, _keys = sg_combine(batch)
    ann_lb: List[int] = []
    ann_sg: List[int] = []
    ann_ub: List[int] = []
    rows = zip(_rows(combined), combined.ann_lb, combined.ann_sg, combined.ann_ub)
    for t, lb, sg, ub in rows:
        certain = all(v.is_certain for v in t)
        ub = min(ub, 1) if certain else ub
        ann_lb.append(1 if lb > 0 and certain else 0)
        ann_sg.append(min(sg, 1, ub))
        ann_ub.append(ub)
    if _tm._ACTIVE is not None:
        _tm.annotate(groups=len(combined))
    charge_materialization(len(combined))
    return AUColumnBatch(combined.schema, combined.columns, ann_lb, ann_sg, ann_ub)


def except_batch(left: AUColumnBatch, right: AUColumnBatch) -> AUColumnBatch:
    """``R − S`` (Definition 22, :func:`repro.core.operators.difference`)
    over ``Ψ(R)``: ``lb`` loses the upper multiplicity of every right row
    that may equal the row, ``sg`` the SG multiplicity of the right rows
    with its SG values, ``ub`` the lower multiplicity of the right rows
    certainly equal to it; rows left with ``ub == 0`` go."""
    if len(left.schema) != len(right.schema):
        raise ValueError("difference requires union-compatible schemas")
    combined, keys = sg_combine(left)
    r_rows = _rows(right)
    right_by_sg: Dict[Tuple, int] = {}
    for t, sg in zip(r_rows, right.ann_sg):
        key = tuple(v.sg for v in t)
        right_by_sg[key] = right_by_sg.get(key, 0) + sg
    certain_equal = 0
    keep: List[int] = []
    ann_lb: List[int] = []
    ann_sg: List[int] = []
    ann_ub: List[int] = []
    l_rows = _rows(combined)
    for i, (t, key) in enumerate(zip(l_rows, keys)):
        overlap_ub = certain_lb = 0
        for r, r_lb, r_ub in zip(r_rows, right.ann_lb, right.ann_ub):
            if tuples_may_equal(t, r):
                overlap_ub += r_ub
                if tuples_certainly_equal(t, r):
                    certain_lb += r_lb
                    certain_equal += 1
        ub = max(0, combined.ann_ub[i] - certain_lb)
        if ub > 0:
            keep.append(i)
            ann_lb.append(max(0, combined.ann_lb[i] - overlap_ub))
            sg = max(0, combined.ann_sg[i] - right_by_sg.get(key, 0))
            ann_sg.append(min(sg, ub))
            ann_ub.append(ub)
    if _tm._ACTIVE is not None:
        _tm.annotate(
            overlap_probes=len(l_rows) * len(r_rows), certain_equal=certain_equal
        )
    charge_materialization(len(keep))
    columns = [[col[i] for i in keep] for col in combined.columns]
    return AUColumnBatch(left.schema, columns, ann_lb, ann_sg, ann_ub)


def _keyed(columns: Sequence[Sequence], attr: str, count: int) -> List[Tuple]:
    """Each of ``count`` rows' :func:`~repro.core.ranges.order_key` of
    the ``attr`` bound of its cells in ``columns``, as a tuple."""
    cols = [[order_key(getattr(c, attr)) for c in col] for col in columns]
    return list(zip(*cols)) if cols else [()] * count


def topk_batch(
    batch: AUColumnBatch, keys: Sequence[str], descending: bool, n: int
) -> AUColumnBatch:
    """``ORDER BY keys [DESC] LIMIT n``
    (:func:`repro.core.operators.au_topk`): with an uncertain order key
    the merged input itself — sound for upper bounds only, as every row
    keeps its ``lb`` (the known gap documented there) — else position
    bounds from prefix sums over the candidate rows sorted on their key
    (full content breaking ties)."""
    key_idx = [_attr_index(batch.schema, k) for k in keys]
    tracing = _tm._ACTIVE is not None
    live = [batch.columns[j] for j in key_idx]
    ubs = batch.ann_ub
    # rows with ub = 0 are not in the relation: the merge drops them
    if not all(c.is_certain for col in live for c, ub in zip(col, ubs) if ub):
        batch, _merged = batch.merge_duplicates()
        if tracing:
            _tm.annotate(topk="identity", topk_reason="uncertain order key")
        charge_materialization(len(batch))
        return batch
    if tracing:
        _tm.annotate(topk="bounded")
    # value-equal rows share their key and the merge sums their lb, so
    # the candidates of the unmerged rows are whole merged rows
    count = len(batch)
    picked = _engine.topk_candidates(
        _keyed(live, "sg", count), batch.ann_lb, n, descending
    )
    if tracing:
        kept = count if picked is None else len(picked)
        _tm.annotate_ratio("candidates", kept, count)
    if picked is not None:
        columns = [[col[r] for r in picked] for col in batch.columns]
        anns = (batch.ann_lb, batch.ann_sg, batch.ann_ub)
        batch = AUColumnBatch(
            batch.schema, columns, *([ann[r] for r in picked] for ann in anns)
        )
    batch, _merged = batch.merge_duplicates()
    columns = batch.columns
    count = len(batch)

    key_of = _keyed([columns[j] for j in key_idx], "sg", count)
    content = list(
        zip(*(_keyed(columns, attr, count) for attr in ("sg", "lb", "ub")))
    )
    order = sorted(range(count), key=content.__getitem__)
    order.sort(key=key_of.__getitem__, reverse=descending)

    lbs, sgs, ubs = batch.ann_lb, batch.ann_sg, batch.ann_ub
    keep: List[int] = []
    ann_lb: List[int] = []
    ann_sg: List[int] = []
    ann_ub: List[int] = []
    remaining_sg = n
    strict_lb = 0  # Σ lb of rows with strictly better keys
    prefix_ub = 0  # Σ ub of rows with better-or-tied keys
    for _key, tied in groupby(order, key=key_of.__getitem__):
        group = list(tied)
        prefix_ub += sum(ubs[r] for r in group)
        for r in group:
            lb, sg, ub = lbs[r], sgs[r], ubs[r]
            take = min(sg, remaining_sg) if remaining_sg > 0 else 0
            remaining_sg -= take
            new_ub = min(ub, n - strict_lb)
            if new_ub > 0:
                new_lb = max(0, min(lb, n - (prefix_ub - ub)))
                keep.append(r)
                ann_lb.append(new_lb)
                ann_sg.append(min(max(take, new_lb), new_ub))
                ann_ub.append(new_ub)
        strict_lb += sum(lbs[r] for r in group)
        if strict_lb >= n:
            break
    charge_materialization(len(keep))
    out = [[col[r] for r in keep] for col in columns]
    return AUColumnBatch(batch.schema, out, ann_lb, ann_sg, ann_ub)

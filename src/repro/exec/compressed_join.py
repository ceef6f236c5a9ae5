"""The Section 10.4 compressed join on column batches.

``opt(R ⋈ S) = (split_sg(R) ⋈ split_sg(S)) ∪ (Cpr(split_up(R)) ⋈
Cpr(split_up(S)))`` for the vectorized AU executor: batch in, batch out,
no :class:`~repro.core.relation.AURelation` in between.  The reference
is :func:`repro.core.compression.optimized_join` (what the tuple backend
runs); this operator returns the same relation **including the order of
``tuples()``** once its output batch is materialized, because ``Cpr`` is
order-sensitive (stable sort on the SG value, then fixed-size runs of
*distinct* tuples) and a compressed join may feed the next one.

The order / dedupe contract, step by step:

* value-equal input rows are merged first, annotations summed, in
  first-occurrence order — the rows ``to_relation()`` would hold, so row
  positions and the distinct count ``Cpr`` buckets by are the
  reference's;
* **SG part** — rows with ``ann_sg > 0``, every cell collapsed to its SG
  value (a cell whose three bounds are one object is reused), the row
  lower bound kept only when every cell was certain; joined by the AU
  hash join's pairing (:func:`repro.exec.vectorized.au_join_pairs`),
  which on these all-certain keys is the det join table on the SG key
  values, per probe row its matches in build order; the residual is
  evaluated only when the condition is not a pure equi-conjunction;
* **possible part** — every row as ``(0, 0, ub)``; beyond ``buckets``
  rows they are boxed by the γ's Section 10.5 boxer
  (:func:`repro.exec.au_aggregate._bucket_boxes` over every row and
  column: stably sorted on the compress attribute's SG value, cut into
  runs, bounded column-wise by first minimum lower bound / first
  maximum upper bound under ``domain_key``, the run's first SG value,
  summed ``ub``); the box join is the AU hash join's pairing over the
  boxes — certain-key boxes through the join table, the pairs with an
  uncertain key box from an overlap index in
  :func:`repro.core.operators.join`'s emission order (per probe box the
  certain-key build boxes grouped by key in first-occurrence order,
  then the uncertain-key ones);
* the output is the SG rows followed by the possible rows, unmerged.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from .. import telemetry as _tm
from ..core.expressions import Expression
from ..core.operators import _extract_equi_pairs, _is_pure_equi_condition
from ..core.ranges import RangeValue
from .au_aggregate import _bucket_boxes
from .batch import AUColumnBatch, charge_materialization

__all__ = ["compressed_join"]

#: ``emit_pairs(left, right, li, ri, condition)``: the executor's pair
#: combiner (``_AUExec._emit_pairs`` — compiled or interpreted residual;
#: ``li=None`` pairs every left row in order)
EmitPairs = Callable[
    [
        AUColumnBatch,
        AUColumnBatch,
        Optional[List[int]],
        Sequence[int],
        Optional[Expression],
    ],
    AUColumnBatch,
]


def compressed_join(
    left: AUColumnBatch,
    right: AUColumnBatch,
    condition: Expression,
    left_compress_on: str,
    right_compress_on: str,
    buckets: int,
    emit_pairs: EmitPairs,
) -> AUColumnBatch:
    """``opt(left ⋈_condition right)`` with at most ``buckets`` boxes a side."""
    eq_pairs = _extract_equi_pairs(condition, left.schema, right.schema)
    # a pure equi-condition is certainly true on hash-matched SG rows and
    # possibly true on key-overlapping boxes: nothing left to evaluate
    residual = (
        None if _is_pure_equi_condition(condition, len(eq_pairs)) else condition
    )
    left, l_merged = left.merge_duplicates()
    right, r_merged = right.merge_duplicates()

    # the executor module imports this one
    from .vectorized import au_join_pairs

    sg_left, sg_right = _split_sg(left), _split_sg(right)
    sg_pairs = au_join_pairs(sg_left, sg_right, eq_pairs)
    sg_part = emit_pairs(sg_left, sg_right, *sg_pairs.merged(), residual)

    box_left = _compress(left, left_compress_on, buckets)
    box_right = _compress(right, right_compress_on, buckets)
    box_pairs = au_join_pairs(box_left, box_right, eq_pairs)
    poss_part = emit_pairs(box_left, box_right, *box_pairs.merged(), residual)

    if _tm._ACTIVE is not None:
        _tm.annotate(
            buckets=buckets,
            dedup_rows=l_merged + r_merged,
            sg_pairs=len(sg_pairs.ri),
            poss_boxes_left=len(box_left),
            poss_boxes_right=len(box_right),
            box_pairs_tested=len(box_pairs.ri) + box_pairs.interval_tested,
            box_pairs_matched=len(poss_part),
        )
    charge_materialization(len(sg_part) + len(poss_part))
    return AUColumnBatch.concat(sg_part.schema, [sg_part, poss_part])


def _split_sg(batch: AUColumnBatch) -> AUColumnBatch:
    """``split_sg``: the rows with ``ann_sg > 0`` as certain SG tuples
    annotated ``(lb if the row was certain else 0, sg, sg)``."""
    rows = [i for i, a_sg in enumerate(batch.ann_sg) if a_sg]
    sg = [batch.ann_sg[i] for i in rows]
    lb = [batch.ann_lb[i] for i in rows]
    columns = []
    for col in batch.columns:
        out = []
        for k, i in enumerate(rows):
            cell = col[i]
            v = cell.sg
            if cell.lb is v and cell.ub is v:
                out.append(cell)
                continue
            if lb[k] and not cell.is_certain:
                lb[k] = 0
            out.append(RangeValue(v, v, v))
        columns.append(out)
    return AUColumnBatch(batch.schema, columns, lb, sg, sg)


def _compress(batch: AUColumnBatch, attribute: str, buckets: int) -> AUColumnBatch:
    """``Cpr_{attribute,buckets}(split_up(batch))`` over distinct rows:
    the γ's Section 10.5 boxer over every row and column, except that
    at most ``buckets`` rows stay as they are, in input order (the
    reference keeps them unsorted)."""
    if buckets <= 0:
        raise ValueError("bucket count must be positive")
    n = len(batch)
    if n <= buckets:
        zeros = [0] * n
        return AUColumnBatch(batch.schema, batch.columns, zeros, zeros, batch.ann_ub)
    columns, ann_ub = _bucket_boxes(
        batch,
        range(n),
        batch.schema.index(attribute),
        range(len(batch.columns)),
        buckets,
    )
    zeros = [0] * len(ann_ub)
    return AUColumnBatch(batch.schema, columns, zeros, zeros, ann_ub)

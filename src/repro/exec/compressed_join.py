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
  lower bound kept only when every cell was certain; the hash join's
  table on the SG key values (:func:`repro.exec.vectorized.build_join_table`
  / :func:`~repro.exec.vectorized.probe_au_join_table`), per probe row
  its matches in build order, the residual evaluated only when the
  condition is not a pure equi-conjunction;
* **possible part** — every row as ``(0, 0, ub)``; beyond ``buckets``
  rows they are stably sorted on the compress attribute's SG value and
  boxed column-wise (first minimum lower bound / first maximum upper
  bound under ``domain_key``, the run's first SG value, summed ``ub``);
  the box join probes a sorted-endpoint overlap index
  (:func:`repro.core.ranges.overlap_index`) on the first key pair, and
  its candidates are then put in :func:`repro.core.operators.join`'s
  emission order — per probe box the certain-key build boxes grouped by
  key in first-occurrence order, then the uncertain-key ones;
* the output is the SG rows followed by the possible rows, unmerged.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import telemetry as _tm
from ..core.expressions import Expression
from ..core.operators import _extract_equi_pairs, _is_pure_equi_condition
from ..core.ranges import RangeValue, domain_key, overlap_index
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
    l_keys = [left.schema.index(a) for a, _ in eq_pairs]
    r_keys = [right.schema.index(b) for _, b in eq_pairs]

    # the executor module imports this one
    from .vectorized import build_join_table, probe_au_join_table

    sg_left, sg_right = _split_sg(left), _split_sg(right)
    table = build_join_table(sg_right, [b for _, b in eq_pairs])
    li, ri, _probe, _uncertain = probe_au_join_table(
        table, [sg_left.columns[k] for k in l_keys]
    )
    sg_part = emit_pairs(sg_left, sg_right, li, ri, residual)

    box_left = _compress(left, left_compress_on, buckets)
    box_right = _compress(right, right_compress_on, buckets)
    bi, bj, tested = _overlap_pairs(
        [box_left.columns[k] for k in l_keys],
        [box_right.columns[k] for k in r_keys],
    )
    poss_part = emit_pairs(box_left, box_right, bi, bj, residual)

    if _tm._ACTIVE is not None:
        _tm.annotate(
            buckets=buckets,
            dedup_rows=l_merged + r_merged,
            sg_pairs=len(ri),
            poss_boxes_left=len(box_left),
            poss_boxes_right=len(box_right),
            box_pairs_tested=tested,
            box_pairs_matched=len(poss_part),
        )
    charge_materialization(len(sg_part) + len(poss_part))
    return sg_part.concat(poss_part)


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
    """``Cpr_{attribute,buckets}(split_up(batch))`` over distinct rows."""
    if buckets <= 0:
        raise ValueError("bucket count must be positive")
    n = len(batch)
    if n <= buckets:
        zeros = [0] * n
        return AUColumnBatch(batch.schema, batch.columns, zeros, zeros, batch.ann_ub)
    sort_keys = [
        domain_key(cell.sg) for cell in batch.columns[batch.schema.index(attribute)]
    ]
    order = sorted(range(n), key=sort_keys.__getitem__)
    size = -(-n // buckets)  # ceil division
    runs = [order[start : start + size] for start in range(0, n, size)]
    columns = []
    for col in batch.columns:
        # min/max return the first extreme row of a run, as the
        # reference's left fold of ``RangeValue.merge`` does
        lb_keys = [domain_key(cell.lb) for cell in col]
        ub_keys = [
            key if cell.ub is cell.lb else domain_key(cell.ub)
            for key, cell in zip(lb_keys, col)
        ]
        lowest, highest = lb_keys.__getitem__, ub_keys.__getitem__
        columns.append(
            [
                RangeValue(
                    col[min(run, key=lowest)].lb,
                    col[run[0]].sg,
                    col[max(run, key=highest)].ub,
                )
                for run in runs
            ]
        )
    ann_ub = batch.ann_ub
    zeros = [0] * len(runs)
    return AUColumnBatch(
        batch.schema, columns, zeros, zeros, [sum(ann_ub[i] for i in run) for run in runs]
    )


def _overlap_pairs(
    l_keys: Sequence[Sequence[RangeValue]], r_keys: Sequence[Sequence[RangeValue]]
) -> Tuple[List[int], List[int], int]:
    """Box pairs the interval join of :func:`repro.core.operators.join`
    evaluates its condition on, in its order, and how many candidates
    the overlap probe on the first key pair produced.

    A pair qualifies when both keys are certain and equal as hash keys,
    or when one is uncertain and every key range overlaps.
    """
    l_rows, l_point = _key_points(l_keys)
    r_rows, r_point = _key_points(r_keys)
    # the build side in the reference's order: certain-key boxes grouped
    # by key in first-occurrence order, then the uncertain-key ones
    groups: Dict[Tuple, List[int]] = {}
    uncertain: List[int] = []
    for j, point in enumerate(r_point):
        if point is None:
            uncertain.append(j)
        else:
            groups.setdefault(point, []).append(j)
    rank = [0] * len(r_rows)
    for position, j in enumerate(chain(*groups.values(), uncertain)):
        rank[j] = position

    on_first = overlap_index(r_keys[0])
    tested = 0
    matched: List[Tuple[int, int, int]] = []
    for i, cells in enumerate(l_rows):
        candidates = on_first(cells[0])
        tested += len(candidates)
        for j in candidates:
            if l_point[i] is not None and r_point[j] is not None:
                if l_point[i] != r_point[j]:
                    continue
            elif not all(x.overlaps(y) for x, y in zip(cells[1:], r_rows[j][1:])):
                continue
            matched.append((i, rank[j], j))
    matched.sort()
    return [i for i, _, _ in matched], [j for _, _, j in matched], tested


def _key_points(
    keys: Sequence[Sequence[RangeValue]],
) -> Tuple[List[Tuple[RangeValue, ...]], List[Optional[Tuple]]]:
    """Per row: its key cells, and its SG key values when every key cell
    is certain (``None`` otherwise)."""
    rows = list(zip(*keys))
    points = [
        tuple(c.sg for c in cells) if all(c.is_certain for c in cells) else None
        for cells in rows
    ]
    return rows, points

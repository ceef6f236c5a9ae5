"""Compression operators trading bound tightness for performance.

Section 10.4/10.5 of the paper: joins over AU-relations degenerate into
interval-overlap joins (potentially quadratic) when attribute bounds are
loose.  The mitigation splits each input into

* ``split_sg(R)`` — the selected-guess portion with all attribute
  uncertainty removed (hash-joinable), and
* ``split_up(R)`` — a possible-only portion carrying ``(0, 0, ub)``
  annotations,

and compresses the possible portion with ``Cpr_{A,n}`` into at most ``n``
bucket tuples (minimum bounding boxes with summed upper bounds).  Both
transformations preserve bounds (Lemmas 6 and 7), so the optimized join
``opt(R ⋈ S) = (split_sg(R) ⋈ split_sg(S)) ∪ (Cpr(split_up(R)) ⋈
Cpr(split_up(S)))`` is bound preserving but (deliberately) looser.

The aggregation analogue compresses the possible contributors before the
group-overlap join (Section 10.5).

:func:`optimized_join` is the *reference implementation*: the tuple
backend runs it, and the vectorized backend's columnar operator
(:func:`repro.exec.compressed_join.compressed_join`) is held to it —
same relation, same ``tuples()`` order — by
``tests/test_exec_compressed_join.py`` and the differential fuzzer's
compression lane, the way :func:`repro.core.operators.join` is the
reference of ``HashJoin``.  ``Cpr`` is order-sensitive (stable sort, then
fixed-size runs of distinct tuples), so the iteration order of every
relation built here is part of that contract.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from .expressions import Expression
from .operators import condition_annotation, join as naive_join, union
from .ranges import RangeValue, domain_key, domain_max, domain_min
from .relation import AURelation
from .semirings import AUAnnotation, au_multiply
from .tuples import AUTuple, merge_tuples, tuple_is_certain

__all__ = [
    "split_sg",
    "split_up",
    "compress",
    "optimized_join",
    "recommended_buckets",
]


def recommended_buckets(
    est_left_rows: float, est_right_rows: float, budget: Optional[int]
) -> Optional[int]:
    """Compression-budget placement policy for one join.

    Given the optimizer's estimated input cardinalities and the
    configured per-join budget ``CT``, decide what the AU evaluator
    should actually spend on this join:

    * ``None`` (skip compression) when both inputs are estimated to fit
      within the budget — ``Cpr_{A,n}`` is the identity below ``n``
      tuples, so the split/box rewrite could only *loosen* bounds while
      costing an extra pass; the naive join is at least as fast and
      strictly tighter;
    * the full budget otherwise — large inputs are where the possible
      side degenerates into a quadratic interval join, which is exactly
      what the paper's ``opt(·)`` rewrite exists to cap.

    The returned value is a *hint*: evaluation stays bound-preserving
    whichever branch is taken (Lemma 10.1 for the compressed join, the
    plain Theorem 3 semantics for the naive one).
    """
    if budget is None:
        return None
    if max(est_left_rows, est_right_rows) <= budget:
        return None
    return budget


def split_sg(rel: AURelation) -> AURelation:
    """``split_sg(R)``: SG tuples with attribute uncertainty removed.

    Every tuple with non-zero SG multiplicity contributes its SG values as
    a fully certain tuple.  Its lower bound survives only when the original
    attribute values were certain (otherwise the lower bound moves to the
    possible side, conservatively 0); the upper bound collapses to the SG
    multiplicity (the possible overhang moves to :func:`split_up`).
    """
    out = AURelation(rel.schema)
    for t, (lb, sg, ub) in rel.tuples():
        if sg == 0:
            continue
        certain_values = tuple(RangeValue(v.sg, v.sg, v.sg) for v in t)
        new_lb = lb if tuple_is_certain(t) else 0
        out.add(certain_values, (min(new_lb, sg), sg, sg))
    return out


def split_up(rel: AURelation) -> AURelation:
    """``split_up(R)``: the possible-only over-approximation.

    Keeps every tuple's ranges but zeroes the lower/SG multiplicities,
    retaining only the possible upper bound.
    """
    out = AURelation(rel.schema)
    for t, (_lb, _sg, ub) in rel.tuples():
        if ub > 0:
            out.add(t, (0, 0, ub))
    return out


def compress(rel: AURelation, attribute: str, buckets: int) -> AURelation:
    """``Cpr_{A,n}(R)``: compress to at most ``n`` bucket tuples.

    Tuples are ordered by the SG value of ``attribute`` and partitioned
    into ``n`` roughly equal buckets; each bucket collapses into a single
    tuple whose attribute ranges are the bucket's minimum bounding box and
    whose annotation is ``(0, 0, Σ ub)`` (Lemma 7 shows this preserves
    bounds; SG information is not preserved, which is fine because
    ``split_up`` outputs carry no SG multiplicity).
    """
    if buckets <= 0:
        raise ValueError("bucket count must be positive")
    rows = list(rel.tuples())
    if len(rows) <= buckets:
        out = AURelation(rel.schema)
        for t, (_lb, _sg, ub) in rows:
            out.add(t, (0, 0, ub))
        return out

    attr_i = rel.attr_index(attribute)
    rows.sort(key=lambda item: domain_key(item[0][attr_i].sg))
    out = AURelation(rel.schema)
    bucket_size = -(-len(rows) // buckets)  # ceil division
    for start in range(0, len(rows), bucket_size):
        chunk = rows[start : start + bucket_size]
        box, _ = chunk[0]
        total_ub = 0
        for t, (_lb, _sg, ub) in chunk:
            box = merge_tuples(box, t)
            total_ub += ub
        if total_ub > 0:
            out.add(box, (0, 0, total_ub))
    return out


def optimized_join(
    left: AURelation,
    right: AURelation,
    condition: Expression,
    left_compress_on: str,
    right_compress_on: str,
    buckets: int = 32,
) -> AURelation:
    """``opt(R ⋈_θ S)`` (Section 10.4, Lemma 10.1).

    The SG parts hash-join on certain values; the possible parts are
    compressed to ``buckets`` tuples each before the interval join, so the
    possible side contributes at most ``buckets²`` (typically ``buckets``)
    result tuples regardless of input size.

    Because ``split_up`` retains each tuple's *full* possible upper bound
    (it is not reduced by the SG multiplicity), the possible-side join
    alone over-approximates every world's join result; the SG-side join
    supplies the SGW and the certain lower bounds.  Cross terms are
    therefore unnecessary, exactly as in the paper's ``opt(·)`` rewrite.
    """
    sg_part = naive_join(split_sg(left), split_sg(right), condition)
    poss_left = compress(split_up(left), left_compress_on, buckets)
    poss_right = compress(split_up(right), right_compress_on, buckets)
    poss_part = naive_join(poss_left, poss_right, condition)
    return union(sg_part, poss_part)

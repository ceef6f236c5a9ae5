"""Evaluate logical plans over AU-databases with bound-preserving semantics.

This is the AU-DB counterpart of :func:`repro.db.engine.evaluate_det`; the
two interpreters share the :mod:`repro.algebra.ast` plan language, which is
how the repo realizes the paper's "same query, rewritten" middleware
architecture: the deterministic engine plays PostgreSQL-on-the-SGW, this
module plays the rewritten query over the relational encoding.

Since PR 4 evaluation is a four-stage pipeline: the logical plan is
optimized (:mod:`repro.algebra.optimizer`), *lowered* into an explicit
physical plan (:func:`repro.exec.physical.lower` — join algorithm and
``Cpr`` compression budgets chosen at plan time), and then interpreted
by the selected backend.
:class:`EvalConfig` toggles the Section 10.4/10.5 optimizations:

* ``join_buckets`` — compress the possible side of joins with ``Cpr``;
* ``aggregation_buckets`` — compress foreign possible contributors of
  group-by aggregation;
* ``optimize`` — run the shared logical plan optimizer.  The rewrites
  are exact for the AU semantics, so results are identical with the
  knob on or off (compression budgets excepted: bucket boundaries
  depend on operator inputs, so compressed runs remain *sound* but need
  not be bit-identical across plan shapes);
* ``backend`` — ``"vectorized"`` (the default) executes physical plans
  over columnar batches (:mod:`repro.exec`); ``"tuple"`` interprets
  them here, with identical results;
* ``physical`` — ``False`` selects the legacy direct interpretation of
  the logical plan whatever the backend, kept as the differential
  fuzzer's reference lowering.

``ORDER BY … LIMIT`` / fused ``TopK`` return a true bound-adjusted top-k
when the order keys are certain (:func:`repro.core.operators.au_topk`)
and the sound identity superset otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .. import telemetry as _tm
from ..core import operators as ops
from ..core.aggregation import aggregate
from ..core.compression import optimized_join
from ..core.expressions import Expression
from ..core.relation import AUDatabase, AURelation
from ..exec.physical import DEFAULT_BACKEND
from .ast import (
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
from .optimizer import DEFAULT_JOIN_ORDER

__all__ = ["EvalConfig", "evaluate_audb", "execute_physical_audb"]


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation knobs for the AU-DB interpreter.

    ``join_buckets`` / ``aggregation_buckets`` of ``None`` select the naive
    (tightest) semantics; integers select the corresponding compression
    budget ``CT`` from the paper's experiments.  ``optimize`` runs the
    shared logical plan optimizer before lowering (exact rewrites;
    default on); ``join_order`` selects its join enumeration strategy
    (``"dp"`` cost-based bushy trees / ``"greedy"``).
    ``adaptive_compression`` (default off, to keep the paper's fixed-CT
    experiments reproducible) lets the planner *place* the join
    compression budget: joins whose estimated inputs fit within the
    budget run the naive — faster here, and strictly tighter — join
    instead of the split/Cpr rewrite.  Either way every join remains
    bound-preserving.

    ``backend`` selects the physical execution backend:
    ``"vectorized"`` (the default, :data:`repro.exec.DEFAULT_BACKEND`;
    :mod:`repro.exec`, columnar batches from scan to result — a
    relation exists only at the result edge) or ``"tuple"`` (the
    operator-at-a-time interpreter in this module).  Results are
    identical.  ``physical=False`` keeps the legacy direct
    interpretation of logical plans and runs no lowering, whatever
    ``backend`` says — it is the oracle, never the engine under test.

    ``parallelism`` > 1 adds morsel-parallel regions to vectorized plans
    (so, with no backend named, it forks the worker pool) on both
    engines (:mod:`repro.exec.parallel`): AU linear operators
    and certain-group partial aggregates run per morsel and merge
    bit-exactly at the Exchange; the globally SG-combining fragment
    (compressed joins and aggregates, distinct, difference) stays
    serial, and top-k runs once over the concatenated morsels.  Results
    are identical at every setting.

    ``chunk_size`` sets the paged-storage chunk size for the vectorized
    backends (:mod:`repro.db.chunks`): ``None`` selects the default page
    size, a positive integer fixes the rows-per-chunk (anything else is
    a ``ValueError``).  Results are identical at every setting.
    """

    join_buckets: Optional[int] = None
    aggregation_buckets: Optional[int] = None
    hash_join: bool = True
    optimize: bool = True
    join_order: str = DEFAULT_JOIN_ORDER
    adaptive_compression: bool = False
    backend: str = DEFAULT_BACKEND
    parallelism: int = 1
    physical: bool = True
    chunk_size: Optional[int] = None


DEFAULT_CONFIG = EvalConfig()

_NO_HINTS: Dict[int, Optional[int]] = {}


def evaluate_audb(
    plan: Plan,
    db: AUDatabase,
    config: EvalConfig = DEFAULT_CONFIG,
    actuals: Optional[Dict[int, int]] = None,
) -> AURelation:
    """Evaluate ``plan`` over the AU-database ``db``.

    Since the query-session layer (:mod:`repro.session`) this is a thin
    shim over an ephemeral :class:`~repro.session.Connection`; hold a
    ``Connection`` (or a prepared query) to amortize the
    parse/optimize/lower stages across repeated executions.

    By Theorems 3/4/6 the result bounds the result of the plan over any
    incomplete database bounded by ``db``.  ``actuals``, when a dict, is
    filled with the actual number of AU-tuples produced by every node
    (keyed by ``id(node)`` of the logical nodes and, on the physical
    path, the physical nodes too); with ``config.optimize`` the recorded
    nodes belong to the *optimized* plan.
    """
    from ..session import Connection

    with Connection(db, engine="au", config=config) as conn:
        return conn.execute(plan, actuals=actuals)


# ----------------------------------------------------------------------
# physical-plan interpreter (tuple-at-a-time)
# ----------------------------------------------------------------------
def execute_physical_audb(pplan, db: AUDatabase, actuals=None) -> AURelation:
    """Interpret a physical plan with the exact tuple operators.

    All physical choices — certain-key hash vs interval nested loop,
    ``Cpr`` compression and its bucket budget — were made by
    :func:`repro.exec.physical.lower`; this is a thin dispatch onto
    :mod:`repro.core.operators`.

    Every node evaluation goes through :func:`repro.telemetry.run_op`
    (operator span when a trace is active, per-node ``actuals`` in
    AU-tuples).
    """
    return _tm.run_op(pplan, _exec_node, (db, actuals), actuals, len)


def _pexec(p, db, actuals) -> AURelation:
    return execute_physical_audb(p, db, actuals)


def _exec_node(p, db: AUDatabase, actuals) -> AURelation:
    from ..exec import physical as phys

    if isinstance(p, phys.Scan):
        return db[p.table]
    if isinstance(p, phys.FusedSelectProject):
        rel = _pexec(p.child, db, actuals)
        if p.condition is not None:
            rel = ops.selection(rel, p.condition)
        if p.columns is not None:
            rel = ops.projection(rel, list(p.columns))
        return rel
    if isinstance(p, phys.HashJoin):
        left = _pexec(p.left, db, actuals)
        right = _pexec(p.right, db, actuals)
        if _tm._ACTIVE is not None:
            _tm.annotate(build_rows=len(right))
        return ops.join(left, right, p.condition, allow_certain_hash=True)
    if isinstance(p, phys.NLJoin):
        left = _pexec(p.left, db, actuals)
        right = _pexec(p.right, db, actuals)
        if p.condition is None:
            return ops.cross_product(left, right)
        return ops.join(left, right, p.condition, allow_certain_hash=False)
    if isinstance(p, phys.CompressedJoin):
        left = _pexec(p.left, db, actuals)
        right = _pexec(p.right, db, actuals)
        if _tm._ACTIVE is not None:
            _tm.annotate(buckets=p.buckets, build_rows=len(right))
        return optimized_join(
            left, right, p.condition, p.pair[0], p.pair[1], p.buckets
        )
    if isinstance(p, phys.Concat):
        return ops.union(
            _pexec(p.left, db, actuals), _pexec(p.right, db, actuals)
        )
    if isinstance(p, phys.Rename):
        return ops.rename(_pexec(p.child, db, actuals), p.mapping)
    if isinstance(p, phys.HashAggregate):
        result = aggregate(
            _pexec(p.child, db, actuals),
            list(p.group_by),
            list(p.aggregates),
            compress_buckets=p.buckets,
        )
        if p.having is not None:
            result = ops.selection(result, p.having)
        return result
    if isinstance(p, phys.HashDistinct):
        return ops.distinct(_pexec(p.child, db, actuals))
    if isinstance(p, phys.HashExcept):
        return ops.difference(
            _pexec(p.left, db, actuals), _pexec(p.right, db, actuals)
        )
    if isinstance(p, phys.TopK):
        return ops.au_topk(_pexec(p.child, db, actuals), p.keys, p.descending, p.n)
    raise TypeError(f"unsupported physical node {type(p).__name__}")


# ----------------------------------------------------------------------
# legacy direct interpretation of logical plans
# ----------------------------------------------------------------------
def _evaluate(
    plan: Plan,
    db: AUDatabase,
    config: EvalConfig,
    hints: Dict[int, Optional[int]] = _NO_HINTS,
    actuals: Optional[Dict[int, int]] = None,
) -> AURelation:
    result = _evaluate_node(plan, db, config, hints, actuals)
    if actuals is not None:
        actuals[id(plan)] = len(result)
    return result


def _evaluate_node(
    plan: Plan,
    db: AUDatabase,
    config: EvalConfig,
    hints: Dict[int, Optional[int]],
    actuals: Optional[Dict[int, int]],
) -> AURelation:
    if isinstance(plan, TableRef):
        return db[plan.name]
    if isinstance(plan, Selection):
        return ops.selection(
            _evaluate(plan.child, db, config, hints, actuals), plan.condition
        )
    if isinstance(plan, Projection):
        return ops.projection(
            _evaluate(plan.child, db, config, hints, actuals), list(plan.columns)
        )
    if isinstance(plan, Join):
        left = _evaluate(plan.left, db, config, hints, actuals)
        right = _evaluate(plan.right, db, config, hints, actuals)
        buckets = hints.get(id(plan), config.join_buckets)
        if buckets is not None:
            attrs = _join_attributes(plan.condition, left, right)
            if attrs is not None:
                return optimized_join(
                    left, right, plan.condition, attrs[0], attrs[1],
                    buckets,
                )
        return ops.join(
            left, right, plan.condition, allow_certain_hash=config.hash_join
        )
    if isinstance(plan, CrossProduct):
        return ops.cross_product(
            _evaluate(plan.left, db, config, hints, actuals),
            _evaluate(plan.right, db, config, hints, actuals),
        )
    if isinstance(plan, Union):
        return ops.union(
            _evaluate(plan.left, db, config, hints, actuals),
            _evaluate(plan.right, db, config, hints, actuals),
        )
    if isinstance(plan, Difference):
        return ops.difference(
            _evaluate(plan.left, db, config, hints, actuals),
            _evaluate(plan.right, db, config, hints, actuals),
        )
    if isinstance(plan, Distinct):
        return ops.distinct(_evaluate(plan.child, db, config, hints, actuals))
    if isinstance(plan, Aggregate):
        result = aggregate(
            _evaluate(plan.child, db, config, hints, actuals),
            list(plan.group_by),
            list(plan.aggregates),
            compress_buckets=config.aggregation_buckets,
        )
        if plan.having is not None:
            result = ops.selection(result, plan.having)
        return result
    if isinstance(plan, Rename):
        return ops.rename(
            _evaluate(plan.child, db, config, hints, actuals), plan.mapping_dict()
        )
    if isinstance(plan, OrderBy):
        return _evaluate(plan.child, db, config, hints, actuals)
    if isinstance(plan, TopK):
        # sound true top-k when the order keys are certain; identity
        # (keep everything) otherwise — see ops.au_topk
        return ops.au_topk(
            _evaluate(plan.child, db, config, hints, actuals),
            plan.keys,
            plan.descending,
            plan.n,
        )
    if isinstance(plan, Limit):
        child = plan.child
        if isinstance(child, OrderBy):
            # thread the ORDER BY keys into the limit (the unfused form
            # of TopK), mirroring the deterministic engine
            return ops.au_topk(
                _evaluate(child.child, db, config, hints, actuals),
                child.keys,
                child.descending,
                plan.n,
            )
        # bare LIMIT over unordered uncertain data: keep everything
        # (sound over-approximation).
        return _evaluate(child, db, config, hints, actuals)
    raise TypeError(f"unsupported plan node {type(plan).__name__}")


def _join_attributes(
    condition: Expression, left: AURelation, right: AURelation
) -> Optional[tuple]:
    """Pick compression attributes (one per side) from an equi-conjunct."""
    from ..core.operators import _extract_equi_pairs

    pairs = _extract_equi_pairs(condition, left.schema, right.schema)
    if pairs:
        return pairs[0]
    return None

"""The physical plan layer: typed physical operators and cost-based lowering.

Until PR 4 every *physical* decision lived in a runtime side-channel:
``join_strategy_hints`` dicts priced hash vs nested-loop joins outside
the plan, the vectorized AU executor decided tuple-operator fallbacks
with per-node ``isinstance`` checks mid-query, and compression budgets
arrived through an ``{id(node): buckets}`` hints mapping.  This module
makes those choices *once, at plan time*, in an explicit IR:

``lower(plan, stats, config)`` turns an optimized logical plan
(:mod:`repro.algebra.ast`) into a tree of physical operators —

* :class:`Scan` / :class:`ParallelScan` — base-table access, the latter
  splitting the cached columnar image into morsels for the worker pool;
* :class:`FusedSelectProject` — selection and/or projection fused into
  one pass (one gather for a ``π∘σ`` pair on the deterministic side);
* :class:`HashJoin` / :class:`NLJoin` — the join algorithm, chosen from
  the statistics catalog (:data:`HASH_JOIN_MIN_ROWS`); for the AU engine
  ``HashJoin`` means the certain-key hash + key-overlap interval split
  and ``NLJoin`` the pure interval-overlap loop;
* :class:`CompressedJoin` — the paper's ``Cpr`` join with its bucket
  budget resolved (absorbing the optimizer's adaptive placement);
* :class:`HashAggregate` — aggregation on both engines (``partial``
  mode for parallel det plans; for the AU engine the Section 9 operator
  with its Section 10.5 ``buckets`` budget resolved),
  :class:`HashDistinct`, :class:`HashExcept`, :class:`TopK`,
  :class:`Limit`, :class:`Concat`, :class:`Rename` — one node per
  logical operator, which every executor implements on its own
  representation (on the AU engine ``HashDistinct`` is ``δ∘Ψ``,
  ``HashExcept`` Definition 22's difference and ``TopK`` the
  bound-preserving top-k; a bare AU ``LIMIT`` lowers to the identity);
* :class:`Exchange` — the merge point of a partition-parallel region:
  morsel results are concatenated, or partial aggregates / top-k /
  limit / distinct states are combined.

Every executor — the tuple interpreters in :mod:`repro.db.engine` and
:mod:`repro.algebra.evaluator` as much as the vectorized backend in
:mod:`repro.exec.vectorized` — is a thin interpreter of this IR, so a
plan's physical shape is inspectable before it runs:
:func:`explain_physical` renders the chosen algorithms with estimated
(and, after execution, actual) row counts.  The vectorized executors
keep batches from scan to result: a relation exists only at the result
edge.

Each physical node remembers the logical node(s) it implements
(``sources``), which is how per-node ``actuals`` keep working for the
logical ``explain`` while also keying the physical rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..algebra.ast import (
    CHILD,
    EXPRS,
    Aggregate,
    CrossProduct,
    Difference,
    Distinct,
    Join,
    Limit as LLimit,
    Node,
    OrderBy,
    Plan,
    Projection,
    Rename as LRename,
    Selection,
    TableRef,
    TopK as LTopK,
    Union,
)
from ..algebra.optimizer import Statistics, estimate, schema_of
from ..analysis import verification_enabled
from ..core.aggregation import AggregateSpec
from ..core.compression import recommended_buckets
from ..core.expressions import Expression
from ..core.operators import _extract_equi_pairs, _is_pure_equi_condition

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "PhysicalConfig",
    "PhysNode",
    "Scan",
    "ParallelScan",
    "FusedSelectProject",
    "Rename",
    "HashJoin",
    "NLJoin",
    "CompressedJoin",
    "HashAggregate",
    "AUPartialAggregate",
    "HashDistinct",
    "HashExcept",
    "TopK",
    "Limit",
    "Concat",
    "Exchange",
    "lower",
    "lower_delta",
    "DeltaPhysical",
    "explain_physical",
    "explain_delta",
    "gamma_segment",
    "HASH_JOIN_MIN_ROWS",
]


#: Below this many estimated rows on the larger join input, building a
#: hash table costs more than a straight nested loop over the batch
#: (moved here from the PR 3 ``join_strategy_hints`` side-channel).
HASH_JOIN_MIN_ROWS = 12.0

#: Physical execution backends accepted by ``evaluate_det`` /
#: ``EvalConfig.backend`` / the CLI ``--backend`` flag.
BACKENDS = ("tuple", "vectorized")

#: The backend of every caller that names none — ``EvalConfig``,
#: ``PhysicalConfig``, ``evaluate_det`` and the CLI all read this.
DEFAULT_BACKEND = "vectorized"


@dataclass(frozen=True)
class PhysicalConfig:
    """Everything :func:`lower` needs to make physical choices.

    ``engine`` selects the semantics (``"det"`` bags / ``"au"``
    bound-preserving); ``backend`` the runtime (``"vectorized"``, the
    default, or ``"tuple"``); ``parallelism`` > 1 adds morsel-parallel
    regions to vectorized plans of either engine.  The AU knobs mirror
    :class:`repro.algebra.evaluator.EvalConfig`: ``join_buckets`` /
    ``aggregation_buckets`` are the paper's compression budgets,
    ``adaptive_compression`` lets the estimates skip ``Cpr`` on joins
    that fit the budget, ``hash_join`` disables the certain-key hash
    fast path (the paper's unoptimized-rewrite baselines).
    """

    engine: str = "det"
    backend: str = DEFAULT_BACKEND
    parallelism: int = 1
    hash_join: bool = True
    join_buckets: Optional[int] = None
    aggregation_buckets: Optional[int] = None
    adaptive_compression: bool = False
    #: rows per storage chunk for base-table scans (``None`` → the
    #: default in :mod:`repro.db.chunks`, else a positive integer)
    chunk_size: Optional[int] = None

    @classmethod
    def from_eval(cls, engine: str, config: Any) -> "PhysicalConfig":
        """The physical knobs of a session-level
        :class:`~repro.algebra.evaluator.EvalConfig` for ``engine``."""
        return cls(
            engine=engine,
            backend=config.backend,
            parallelism=config.parallelism,
            hash_join=config.hash_join,
            join_buckets=config.join_buckets,
            aggregation_buckets=config.aggregation_buckets,
            # adaptive Cpr placement applies to optimized plans only:
            # optimize=False keeps every join on its fixed budget
            adaptive_compression=(
                config.adaptive_compression and config.optimize
            ),
            chunk_size=config.chunk_size,
        )


# ======================================================================
# the IR
# ======================================================================
@dataclass(eq=False)
class PhysNode(Node):
    """Base physical operator.

    ``est`` is the planner's output-cardinality estimate (rows for the
    deterministic engine, AU-tuples for the AU engine); ``sources`` the
    logical node(s) this operator implements — executors record their
    actual output cardinality under ``id(node)`` *and* each
    ``id(source)`` so both the logical and the physical ``explain`` can
    show estimated-vs-actual columns.

    Operators are plain dataclasses over the structural description of
    :class:`repro.algebra.ast.Node` (``CHILD`` / ``EXPRS`` field marks):
    ``children()``, ``walk()``, copy-with and pickling for the worker
    pool are derived, and ``est`` / ``sources`` travel with every copy.
    Equality and hashing stay by identity — ``id(node)`` keys actuals,
    bindings, join tables and trace aliases.
    """

    est: float = field(default=0.0, kw_only=True)
    sources: Tuple[Plan, ...] = field(default=(), kw_only=True)


@dataclass(eq=False)
class Scan(PhysNode):
    """A base-table scan.

    ``chunk_size`` selects the chunked columnar store backing the scan
    (copied from :class:`PhysicalConfig` at plan time).  ``skip`` is
    the plan-time chunk-skip predicate —
    conjuncts of the selection directly above, testable against the
    store's per-chunk zone maps (:mod:`repro.db.chunks`); atoms over a
    parameter are templates the session's binding fills on a copy.
    """

    table: str
    chunk_size: Optional[int] = None
    skip: Optional[object] = None


@dataclass(eq=False)
class ParallelScan(PhysNode):
    """A base-table scan split into ``partitions`` morsels.

    Appears exactly once inside a parallel region; the
    :class:`Exchange` above the region binds it to one morsel per
    worker (:mod:`repro.exec.parallel`).  Morsels are contiguous runs
    of storage chunks (boundaries never split a chunk) and ``skip``
    drops zone-map-excluded chunks before morsels are formed.
    ``partitions`` is sized adaptively from the catalog
    cardinality (:func:`repro.algebra.stats.adaptive_morsel_count`).
    """

    table: str
    partitions: int
    chunk_size: Optional[int] = None
    skip: Optional[object] = None


@dataclass(eq=False)
class FusedSelectProject(PhysNode):
    """``π_columns(σ_condition(child))`` in a single pass.

    Either part may be ``None`` (pure selection / pure projection); the
    deterministic lowering fuses a ``Projection`` directly above a
    ``Selection`` so survivors are gathered once.
    """

    child: PhysNode = field(metadata=CHILD)
    condition: Optional[Expression] = field(metadata=EXPRS)
    columns: Optional[Tuple[Tuple[Expression, str], ...]] = field(metadata=EXPRS)

    def __post_init__(self) -> None:
        if self.columns is not None:
            self.columns = tuple(self.columns)


@dataclass(eq=False)
class Rename(PhysNode):
    child: PhysNode = field(metadata=CHILD)
    mapping: Dict[str, str]

    def __post_init__(self) -> None:
        self.mapping = dict(self.mapping)


@dataclass(eq=False)
class HashJoin(PhysNode):
    """Equi-join via a hash table on ``eq_pairs`` (built on the right).

    ``pure_equi`` (decided at plan time) means the condition is exactly
    the conjunction of the pairs, so hash matches need no residual
    re-check.  Under AU semantics this is the certain-key hash +
    interval split of :func:`repro.core.operators.join`; the vectorized
    executor runs the det join table on the certain-key rows and an
    overlap index on the rows with an uncertain key cell
    (:func:`repro.exec.vectorized.au_join_pairs`).
    """

    left: PhysNode = field(metadata=CHILD)
    right: PhysNode = field(metadata=CHILD)
    condition: Expression = field(metadata=EXPRS)
    eq_pairs: Tuple[Tuple[str, str], ...]
    pure_equi: bool

    def __post_init__(self) -> None:
        self.eq_pairs = tuple(self.eq_pairs)


@dataclass(eq=False)
class NLJoin(PhysNode):
    """Nested-loop join: cross the inputs, filter by ``condition``.

    ``condition=None`` is a plain cross product.  ``check_overlap``
    preserves the AU engine's schema-overlap validation for plans with
    no usable equi-conjunct.
    """

    left: PhysNode = field(metadata=CHILD)
    right: PhysNode = field(metadata=CHILD)
    condition: Optional[Expression] = field(metadata=EXPRS)
    check_overlap: bool = False


@dataclass(eq=False)
class CompressedJoin(PhysNode):
    """AU join through the paper's ``Cpr`` compression operator.

    ``buckets`` is resolved at plan time: the fixed budget, or — with
    adaptive compression — ``None``-skipping via
    :func:`repro.core.compression.recommended_buckets` happened already,
    so a ``CompressedJoin`` node always compresses.
    """

    left: PhysNode = field(metadata=CHILD)
    right: PhysNode = field(metadata=CHILD)
    condition: Expression = field(metadata=EXPRS)
    pair: Tuple[str, str]
    buckets: int


@dataclass(eq=False)
class HashAggregate(PhysNode):
    """Single-pass hash aggregation, fused with its ``having`` filter.

    Deterministic plans: ``partial=True`` (inside a parallel region)
    emits mergeable accumulator state instead of finished rows; the
    :class:`Exchange` above combines the states and applies ``having``.

    AU plans: the bound-preserving ``γ`` of Section 9 — hash grouping on
    the SG values, group boxes, and every overlapping row folded into
    each group's bounds.  ``buckets`` is the Section 10.5 compression
    budget for the foreign contributors (``None``: uncompressed); never
    ``partial`` — the per-morsel form is :class:`AUPartialAggregate`.
    The tuple backend runs :func:`repro.core.aggregation.aggregate`, the
    vectorized backend :func:`repro.exec.au_aggregate.aggregate_batch`.
    """

    child: PhysNode = field(metadata=CHILD)
    group_by: Tuple[str, ...]
    aggregates: Tuple[AggregateSpec, ...] = field(metadata=EXPRS)
    having: Optional[Expression] = field(metadata=EXPRS)
    partial: bool = False
    buckets: Optional[int] = None

    def __post_init__(self) -> None:
        self.group_by = tuple(self.group_by)
        self.aggregates = tuple(self.aggregates)


@dataclass(eq=False)
class AUPartialAggregate(PhysNode):
    """Per-morsel AU aggregation emitting mergeable partial state.

    Appears only as the child of an ``Exchange(merge="au_aggregate")``:
    each worker folds its morsel into per-group ``K^AU`` annotation sums
    and SG-combine-aware aggregate partials
    (:func:`repro.exec.au_aggregate.fold_partial_groups`, the serial
    operator's member fold); the Exchange merges the states in partition
    order and finalizes — bit-identical to the serial operator.  Sound
    only while every row's group-by attributes are certain; a worker
    meeting an uncertain group raises and the Exchange re-runs its
    ``final`` (the original serial :class:`HashAggregate`) instead.
    """

    child: PhysNode = field(metadata=CHILD)
    group_by: Tuple[str, ...]
    aggregates: Tuple[AggregateSpec, ...] = field(metadata=EXPRS)

    def __post_init__(self) -> None:
        self.group_by = tuple(self.group_by)
        self.aggregates = tuple(self.aggregates)


@dataclass(eq=False)
class HashDistinct(PhysNode):
    """Duplicate elimination: ``δ`` over bags; on the AU engine ``δ``
    over the SG-combined input (:func:`repro.core.operators.distinct`)."""

    child: PhysNode = field(metadata=CHILD)


@dataclass(eq=False)
class HashExcept(PhysNode):
    """``left − right`` over union-compatible inputs: truncating bag
    difference, or on the AU engine Definition 22's bounds
    (:func:`repro.core.operators.difference`)."""

    left: PhysNode = field(metadata=CHILD)
    right: PhysNode = field(metadata=CHILD)


@dataclass(eq=False)
class TopK(PhysNode):
    """``ORDER BY keys [DESC] LIMIT n``; on the AU engine the
    bound-preserving :func:`repro.core.operators.au_topk` (the identity
    when an order key is uncertain)."""

    child: PhysNode = field(metadata=CHILD)
    keys: Tuple[str, ...]
    descending: bool
    n: int

    def __post_init__(self) -> None:
        self.keys = tuple(self.keys)


@dataclass(eq=False)
class Limit(PhysNode):
    child: PhysNode = field(metadata=CHILD)
    n: int


@dataclass(eq=False)
class Concat(PhysNode):
    """Bag union: concatenate the inputs (annotations add on merge)."""

    left: PhysNode = field(metadata=CHILD)
    right: PhysNode = field(metadata=CHILD)


@dataclass(eq=False)
class Exchange(PhysNode):
    """Merge point of a partition-parallel region.

    ``child`` is evaluated once per morsel of the region's
    :class:`ParallelScan`; ``merge`` says how the per-partition results
    recombine (``concat`` / ``aggregate`` / ``topk`` / ``limit`` /
    ``distinct``); ``final`` is the original serial operator carrying
    the merge parameters (the :class:`HashAggregate` for ``having`` and
    finalization, the :class:`TopK`/:class:`Limit` for re-limiting).
    It is off the ``children()`` spine: never walked or executed as an
    input, but rewritten with the plan (parameter binding).
    """

    child: PhysNode = field(metadata=CHILD)
    merge: str
    partitions: int
    final: Optional[PhysNode] = field(default=None, metadata=EXPRS)


# ======================================================================
# lowering
# ======================================================================
def lower(
    plan: Plan,
    stats: Optional[Statistics],
    config: PhysicalConfig,
    *,
    verify: Optional[bool] = None,
) -> PhysNode:
    """Lower an optimized logical plan into a physical plan.

    All physical choices happen here: the join algorithm per join (hash
    vs nested loop from the catalog estimates, ``Cpr`` compression with
    its resolved bucket budget), fusion of adjacent selection/projection
    pairs, and — for the vectorized backend with
    ``config.parallelism > 1``, on both engines — the morsel-parallel
    regions (:class:`ParallelScan` at the driver table,
    :class:`Exchange` at the merge point).  The result is
    engine-agnostic data: interpreters in :mod:`repro.db.engine`,
    :mod:`repro.algebra.evaluator`, and :mod:`repro.exec.vectorized`
    execute it without making further decisions.

    ``verify`` runs :func:`repro.analysis.verify_physical` over the
    lowered plan as a debug assertion (``None`` defers to
    :func:`repro.analysis.verification_enabled`): operator placement and
    per-node schemas are statically checked before any executor sees the
    plan.
    """
    pplan = _Lowerer(stats, config).lower(plan)
    _attach_chunk_skips(pplan)
    if config.backend == "vectorized" and config.parallelism > 1:
        pplan = _parallelize(pplan, config.parallelism, au=config.engine == "au")
    if verify is None:
        verify = verification_enabled()
    if verify:
        from ..analysis import verify_physical

        verify_physical(pplan, stats, config)
    return pplan


class _Lowerer:
    def __init__(self, stats: Optional[Statistics], config: PhysicalConfig) -> None:
        self.stats = stats
        self.config = config
        self.au = config.engine == "au"
        #: every node's estimate, each subtree estimated once per lowering
        self._estimates: Dict[int, Any] = {}

    def _est(self, node: Plan) -> float:
        return estimate(node, self.stats, memo=self._estimates)

    def _tag(self, pnode: PhysNode, node: Plan) -> PhysNode:
        pnode.est = self._est(node)
        pnode.sources = pnode.sources + (node,)
        return pnode

    def lower(self, node: Plan) -> PhysNode:
        if isinstance(node, TableRef):
            return self._tag(Scan(node.name, chunk_size=self.config.chunk_size), node)
        if isinstance(node, Selection):
            return self._tag(
                FusedSelectProject(self.lower(node.child), node.condition, None),
                node,
            )
        if isinstance(node, Projection):
            child = self.lower(node.child)
            if (
                not self.au
                and isinstance(child, FusedSelectProject)
                and child.columns is None
            ):
                # fuse π over σ: filter and gather the survivors once.
                # (Det only: AU per-node actuals count distinct tuples,
                # which projection changes, so the nodes stay separate.)
                fused = FusedSelectProject(
                    child.child,
                    child.condition,
                    node.columns,
                    sources=child.sources,
                )
                return self._tag(fused, node)
            return self._tag(FusedSelectProject(child, None, node.columns), node)
        if isinstance(node, LRename):
            return self._tag(Rename(self.lower(node.child), node.mapping_dict()), node)
        if isinstance(node, Join):
            return self._tag(self._lower_join(node), node)
        if isinstance(node, CrossProduct):
            return self._tag(
                NLJoin(
                    self.lower(node.left),
                    self.lower(node.right),
                    None,
                    check_overlap=self.au,
                ),
                node,
            )
        if isinstance(node, Union):
            return self._tag(
                Concat(self.lower(node.left), self.lower(node.right)), node
            )
        if isinstance(node, Difference):
            return self._tag(
                HashExcept(self.lower(node.left), self.lower(node.right)), node
            )
        if isinstance(node, Distinct):
            return self._tag(HashDistinct(self.lower(node.child)), node)
        if isinstance(node, Aggregate):
            return self._tag(
                HashAggregate(
                    self.lower(node.child),
                    node.group_by,
                    node.aggregates,
                    node.having,
                    buckets=self.config.aggregation_buckets if self.au else None,
                ),
                node,
            )
        if isinstance(node, OrderBy):
            # bags are unordered: identity, but keep the node's actuals
            child = self.lower(node.child)
            child.sources = child.sources + (node,)
            return child
        if isinstance(node, LTopK):
            return self._tag(
                TopK(self.lower(node.child), node.keys, node.descending, node.n),
                node,
            )
        if isinstance(node, LLimit):
            inner = node.child
            if isinstance(inner, OrderBy):
                # unfused ORDER BY … LIMIT: same top-k as the fused node
                topk = TopK(
                    self.lower(inner.child), inner.keys, inner.descending, node.n
                )
                return self._tag(topk, node)
            if self.au:
                # bare LIMIT over unordered uncertain data stays the
                # identity (the only sound choice)
                child = self.lower(inner)
                child.sources = child.sources + (node,)
                return child
            return self._tag(Limit(self.lower(inner), node.n), node)
        raise TypeError(f"unsupported plan node {type(node).__name__}")

    def _lower_join(self, node: Join) -> PhysNode:
        left = self.lower(node.left)
        right = self.lower(node.right)
        condition = node.condition
        left_schema = schema_of(node.left, self.stats)
        right_schema = schema_of(node.right, self.stats)
        pairs: List[Tuple[str, str]] = []
        if left_schema is not None and right_schema is not None:
            pairs = _extract_equi_pairs(condition, left_schema, right_schema)

        if self.au:
            buckets = self.config.join_buckets
            if buckets is not None and self.config.adaptive_compression:
                buckets = recommended_buckets(
                    self._est(node.left), self._est(node.right), buckets
                )
            if buckets is not None and pairs:
                return CompressedJoin(left, right, condition, pairs[0], buckets)
            if not pairs:
                return NLJoin(left, right, condition, check_overlap=True)
            if not self.config.hash_join or self._tiny(node):
                return NLJoin(left, right, condition, check_overlap=False)
            return HashJoin(
                left,
                right,
                condition,
                tuple(pairs),
                _is_pure_equi_condition(condition, len(pairs)),
            )

        if not pairs or self._tiny(node):
            return NLJoin(left, right, condition, check_overlap=False)
        return HashJoin(
            left,
            right,
            condition,
            tuple(pairs),
            _is_pure_equi_condition(condition, len(pairs)),
        )

    def _tiny(self, node: Join) -> bool:
        """Hash-table build/probe bookkeeping dominates tiny inputs."""
        return (
            max(self._est(node.left), self._est(node.right)) < HASH_JOIN_MIN_ROWS
        )


# ======================================================================
# partition parallelism (vectorized backend, both engines)
# ======================================================================
def _parallelize(root: PhysNode, partitions: int, au: bool = False) -> PhysNode:
    """Insert morsel-parallel regions into a vectorized plan.

    A *region* is a subtree whose result distributes over a bag-union
    partitioning of one base-table scan (its *driver*): selections,
    projections, renames, and the probe side of joins are linear in the
    driver, so running the subtree once per morsel and merging is exact.
    Pipeline breakers become merge points: an aggregate region computes
    partial states per morsel (merged exactly — SUM/AVG via
    :mod:`repro.core.sums`), top-k/limit/distinct regions merge and
    re-apply, and a fully linear region just concatenates.  Subtrees
    with no partitionable driver (e.g. under a :class:`HashExcept`)
    stay serial.

    With ``au`` the same region calculus applies to ``K^AU`` plans —
    annotations multiply along linear operators and add at the merge, so
    bag-union partitioning stays exact.  The merge kinds differ: an
    uncompressed aggregate becomes an :class:`AUPartialAggregate` region
    merged with SG-combine-aware folds (``au_aggregate``), a
    :class:`TopK` concatenates morsels and applies the AU top-k once at
    the merge (``au_topk`` — its prefix-sum bounds need the *full*
    input, so no sound local pruning exists), and the remaining
    non-linear operators (difference / distinct / compressed
    aggregation) always stay serial — only their linear input subtrees
    get concat regions.
    """

    def walk(node: PhysNode) -> PhysNode:
        region = _try_region(node, partitions, au)
        return region if region is not None else node.map_children(walk)

    return walk(root)


def _try_region(
    node: PhysNode, partitions: int, au: bool = False
) -> Optional[Exchange]:
    def exchange(
        child: PhysNode, merge: str, final: Optional[PhysNode], chosen: int
    ) -> Exchange:
        return Exchange(
            child, merge, chosen, final, est=node.est, sources=node.sources
        )

    if au:
        if isinstance(node, HashAggregate) and node.buckets is None:
            split = _partition_subtree(node.child, partitions)
            if split is None:
                return None
            region, chosen = split
            partial = AUPartialAggregate(
                region, node.group_by, node.aggregates, est=node.est
            )
            return exchange(partial, "au_aggregate", node, chosen)
        if isinstance(node, TopK):
            split = _partition_subtree(node.child, partitions)
            if split is None:
                return None
            region, chosen = split
            return exchange(region, "au_topk", node, chosen)
        split = _partition_subtree(node, partitions, require_ops=True)
        if split is not None:
            region, chosen = split
            return exchange(region, "concat", None, chosen)
        return None

    if isinstance(node, HashAggregate) and not node.partial:
        split = _partition_subtree(node.child, partitions)
        if split is None:
            return None
        region, chosen = split
        partial = HashAggregate(
            region, node.group_by, node.aggregates, None, True, est=node.est
        )
        return exchange(partial, "aggregate", node, chosen)
    if isinstance(node, TopK):
        split = _partition_subtree(node.child, partitions)
        if split is None:
            return None
        region, chosen = split
        local = TopK(region, node.keys, node.descending, node.n, est=node.est)
        return exchange(local, "topk", node, chosen)
    if isinstance(node, Limit):
        split = _partition_subtree(node.child, partitions)
        if split is None:
            return None
        region, chosen = split
        local = Limit(region, node.n, est=node.est)
        return exchange(local, "limit", node, chosen)
    if isinstance(node, HashDistinct):
        split = _partition_subtree(node.child, partitions)
        if split is None:
            return None
        region, chosen = split
        local = HashDistinct(region, est=node.est)
        return exchange(local, "distinct", node, chosen)
    split = _partition_subtree(node, partitions, require_ops=True)
    if split is not None:
        region, chosen = split
        return exchange(region, "concat", None, chosen)
    return None


def _driver_scans(
    node: PhysNode, depth: int = 0
) -> Iterator[Tuple[Scan, int]]:
    """Candidate driver scans along partition-transparent edges.

    Selection/projection/rename are linear; joins distribute over a
    partitioning of their *left* (probe) input.  Everything else is a
    barrier.
    """
    if isinstance(node, Scan):
        yield node, depth
    elif isinstance(node, (FusedSelectProject, Rename)):
        yield from _driver_scans(node.child, depth + 1)
    elif isinstance(node, (HashJoin, NLJoin)):
        yield from _driver_scans(node.left, depth + 1)


def _partition_subtree(
    node: PhysNode, partitions: int, require_ops: bool = False
) -> Optional[Tuple[PhysNode, int]]:
    """Replace the best driver scan with a :class:`ParallelScan`.

    Picks the largest estimated reachable scan; ``require_ops`` rejects
    a bare-scan region (splitting a scan only to concatenate it back
    buys nothing).  The morsel count adapts to the driver's catalog
    cardinality (:func:`repro.algebra.stats.adaptive_morsel_count`):
    small drivers get fewer, larger morsels instead of ``partitions``
    slivers.  Returns ``(region, chosen_partitions)``, or ``None`` when
    nothing is partitionable.
    """
    from ..algebra.stats import adaptive_morsel_count

    candidates = list(_driver_scans(node))
    if not candidates:
        return None
    best, depth = max(candidates, key=lambda c: (c[0].est, -c[1]))
    if require_ops and depth == 0:
        return None
    chosen = adaptive_morsel_count(best.est, partitions)

    def split(n: PhysNode) -> PhysNode:
        if n is best:
            return ParallelScan(
                best.table,
                chosen,
                best.chunk_size,
                best.skip,
                est=best.est,
                sources=best.sources,
            )
        return n.map_children(split)

    return split(node), chosen


def _attach_chunk_skips(root: PhysNode) -> None:
    """Derive plan-time chunk-skip predicates for scans under selections.

    For every selection sitting directly above a base-table scan, the
    conjuncts comparing a column against a literal constant or a
    parameter become a :class:`repro.db.chunks.ChunkSkipPredicate` on
    the scan, evaluated against per-chunk zone maps at execution time
    (parameter atoms once a binding has filled them).
    """
    from ..db.chunks import derive_skip

    for node in root.walk():
        if (
            isinstance(node, FusedSelectProject)
            and node.condition is not None
            and isinstance(node.child, Scan)
        ):
            node.child.skip = derive_skip(node.condition)


# ======================================================================
# explain
# ======================================================================
def _describe(node: PhysNode) -> str:
    if isinstance(node, Scan):
        if node.skip is not None:
            return f"Scan {node.table} [skip: {node.skip}]"
        return f"Scan {node.table}"
    if isinstance(node, ParallelScan):
        base = f"ParallelScan {node.table} [{node.partitions} morsels]"
        if node.skip is not None:
            base += f" [skip: {node.skip}]"
        return base
    if isinstance(node, FusedSelectProject):
        parts = []
        if node.condition is not None:
            parts.append(f"σ[{node.condition!r}]")
        if node.columns is not None:
            cols = ", ".join(
                f"{e!r}→{n}" if repr(e) != n else n for e, n in node.columns
            )
            parts.append(f"π[{cols}]")
        return f"FusedSelectProject {' '.join(parts)}"
    if isinstance(node, Rename):
        return f"Rename ρ[{node.mapping}]"
    if isinstance(node, HashJoin):
        keys = ", ".join(f"{a}={b}" for a, b in node.eq_pairs)
        residual = "" if node.pure_equi else " + residual filter"
        return f"HashJoin ⋈[{keys}]{residual}"
    if isinstance(node, NLJoin):
        if node.condition is None:
            return "NLJoin × (cross product)"
        return f"NLJoin ⋈[{node.condition!r}] (nested loop)"
    if isinstance(node, CompressedJoin):
        a, b = node.pair
        return f"CompressedJoin ⋈[{a}={b}] Cpr[CT={node.buckets}]"
    if isinstance(node, HashAggregate):
        aggs = ", ".join(
            f"{a.kind}({a.expr!r})→{a.name}" for a in node.aggregates
        )
        mode = " (partial)" if node.partial else ""
        if node.buckets is not None:
            mode += f" Cpr={node.buckets}"
        return f"HashAggregate γ[{','.join(node.group_by)}; {aggs}]{mode}"
    if isinstance(node, AUPartialAggregate):
        aggs = ", ".join(
            f"{a.kind}({a.expr!r})→{a.name}" for a in node.aggregates
        )
        return (
            f"AUPartialAggregate γ[{','.join(node.group_by)}; {aggs}]"
            " (SG-combine partial)"
        )
    if isinstance(node, HashDistinct):
        return "HashDistinct δ"
    if isinstance(node, HashExcept):
        return "HashExcept −"
    if isinstance(node, TopK):
        order = "desc" if node.descending else "asc"
        return f"TopK [{', '.join(node.keys)} {order}; n={node.n}]"
    if isinstance(node, Limit):
        return f"Limit [{node.n}]"
    if isinstance(node, Concat):
        return "Concat ∪"
    if isinstance(node, Exchange):
        return f"Exchange merge={node.merge} [{node.partitions} partitions]"
    return type(node).__name__


def explain_physical(
    pplan: PhysNode,
    actuals: Optional[Dict[int, int]] = None,
    times: Optional[Dict[int, List[float]]] = None,
    attrs: Optional[Dict[int, Dict[str, object]]] = None,
) -> str:
    """Render a physical plan with chosen algorithms and row estimates.

    ``actuals`` is the ``{id(node): rows}`` mapping the executors fill;
    physical node ids are recorded alongside the logical-source ids, so
    the same dict feeds both this and the logical
    :func:`repro.algebra.optimizer.explain`.

    ``times`` switches on the EXPLAIN ANALYZE rendering: it is the
    ``{id(node): [inclusive seconds, evaluations]}`` mapping a telemetry
    trace accumulates (:attr:`repro.telemetry.QueryTrace.node_times`).
    Each node line then also shows its symmetric estimation-error factor
    (:func:`repro.telemetry.estimation_error` of estimated vs actual
    rows) and inclusive wall time, with a loop count when the node ran
    more than once (one evaluation per morsel under an ``Exchange``).

    ``attrs`` is the ``{id(node): {attr: value}}`` mapping of operator-
    span attributes a trace collects
    (:attr:`repro.telemetry.QueryTrace.node_attrs`): scans that skipped
    chunks via zone maps show ``skipped S/T chunks by literal skip``
    (``bound`` when a parameter binding filled the predicate), and
    ``store=built`` when they built the table's chunk store instead of
    reading the one its writes maintain; vectorized operators
    that filter show ``kernel=compiled`` or ``kernel=interpreted
    (reason)`` — a compiled det filter also how many of its comparisons
    ran as native ``<=``/``==`` (``native_compares=n``), a compiled AU
    filter or join residual how many of the rows it evaluated took the
    point lane (``point_rows=k/n``), and a streamed
    det select-project how many base columns it gathered
    (``gathered_columns=k/n``), a vectorized ``HashJoin`` which
    probe rule ran (``probe=map`` over a unique-key table, ``loop``
    otherwise) and how many probe-side rows it gathered
    (``gathered_left=0`` when the probe side passed through) — a
    vectorized ``CompressedJoin`` its SG pairs, boxes per side, box
    pairs emitted / probed and input rows merged as duplicates, a
    vectorized AU ``HashAggregate`` its groups, duplicates, rows with an
    uncertain group key, (row, aggregate) contributions folded by column,
    foreign states folded / merged and
    ``inputs=compiled`` or ``inputs=interpreted (reason)``, a vectorized
    det ``HashAggregate`` its groups and how many of its (group,
    aggregate) column folds ran in C (``column_folds=k/n``), a
    vectorized ``HashDistinct`` its groups, a vectorized AU
    ``HashExcept`` how many (left, right) row pairs it tested and how
    many of them were certainly equal (``overlap_probes=…,
    certain_equal=…``), a vectorized AU ``TopK`` whether it bounded
    positions or returned its input (``topk=bounded`` /
    ``topk=identity (uncertain order key)``), and a vectorized det
    ``TopK`` / ``Limit`` or bounded AU ``TopK`` how many of its input rows
    were kept as candidates before the sort (``candidates=k/n``).
    """
    if times is not None:
        from ..telemetry import estimation_error
    lines: List[str] = []

    def walk(node: PhysNode, depth: int) -> None:
        line = f"{'  ' * depth}{_describe(node)}  (~{node.est:.0f} rows"
        actual = actuals.get(id(node)) if actuals is not None else None
        if actual is not None:
            line += f", actual {actual:g}"
            if times is not None:
                line += f", err {estimation_error(node.est, actual):.2f}x"
        if times is not None:
            entry = times.get(id(node))
            if entry is not None:
                seconds, loops = entry
                line += f", {seconds * 1e3:.3f}ms"
                if loops > 1:
                    line += f" in {loops:.0f} loops"
        if attrs is not None:
            a = attrs.get(id(node))
            if a:
                skipped = a.get("chunks_skipped")
                if skipped:
                    line += (
                        f", skipped {skipped}/{a.get('chunks_total', '?')} chunks"
                    )
                    if "skip" in a:
                        line += f" by {a['skip']} skip"
                if "store" in a:
                    line += f", store={a['store']}"
                if "groups" in a:
                    line += f", groups={a['groups']}"
                if "state_merges" in a:
                    line += (
                        f", dedup_rows={a['dedup_rows']}"
                        f", uncertain_key_rows={a['uncertain_key_rows']}"
                        f", column_rows={a['column_rows']}"
                        f", foreign_states={a['foreign_states']}"
                        f", state_merges={a['state_merges']}"
                    )
                if "column_folds" in a:
                    line += f", column_folds={a['column_folds']}"
                if "topk" in a:
                    line += f", topk={a['topk']}"
                    if "topk_reason" in a:
                        line += f" ({a['topk_reason']})"
                for how in ("kernel", "inputs"):
                    if how in a:
                        line += f", {how}={a[how]}"
                        if "kernel_reason" in a:
                            line += f" ({a['kernel_reason']})"
                for count in (
                    "native_compares", "point_rows", "gathered_columns", "probe",
                    "gathered_left", "uncertain_probe_rows", "interval_tested",
                    "overlap_probes", "certain_equal", "candidates",
                ):
                    if count in a:
                        line += f", {count}={a[count]}"
                if "sg_pairs" in a:
                    line += (
                        f", sg_pairs={a['sg_pairs']}"
                        f", boxes={a['poss_boxes_left']}x{a['poss_boxes_right']}"
                        f", box_pairs={a['box_pairs_matched']}"
                        f"/{a['box_pairs_tested']}"
                        f", dedup_rows={a['dedup_rows']}"
                    )
        line += ")"
        lines.append(line)
        for child in node.children():
            walk(child, depth + 1)

    walk(pplan, 0)
    return "\n".join(lines)


# ======================================================================
# delta lowering (incremental view maintenance, repro.ivm)
# ======================================================================
@dataclass
class DeltaPhysical:
    """The physical maintenance plan for one subscribed view.

    ``segment_pplans`` lower each maintained linear segment — the
    *same* physical plan serves both the segment's full
    (re)materialization and its per-write delta evaluation, because
    every scan resolves its base table through the database mapping and
    the delta runtime substitutes the written table's per-write delta
    there; a ``linear`` view's one segment is the whole view.  ``tail_pplan`` (``None`` unless the classification
    is ``"refresh"``) is the non-linear tail lowered over the segments'
    synthetic tables: the refresh boundary chosen at plan time — when
    it is one ``HashAggregate`` over a segment (:func:`gamma_segment`),
    the view keeps its γ state and re-runs it only when that goes
    stale.  All plans are lowered serial (``parallelism=1``) — a
    per-write delta is a handful of rows, far below any morsel
    threshold.
    """

    delta: "object"  # repro.algebra.optimizer.DeltaPlan
    config: PhysicalConfig
    segment_pplans: Tuple[PhysNode, ...]
    tail_pplan: Optional[PhysNode]


def lower_delta(
    delta: Any,
    stats: Optional[Statistics],
    config: PhysicalConfig,
    *,
    verify: Optional[bool] = None,
) -> DeltaPhysical:
    """Lower a :func:`repro.algebra.optimizer.derive_delta` strategy.

    Chooses every physical detail of the maintenance pipeline at plan
    time, like :func:`lower` does for one-shot plans; the delta runtime
    (:mod:`repro.ivm`) only interprets the result.
    """
    config = replace(config, parallelism=1)
    segment_pplans = tuple(
        lower(seg.plan, stats, config, verify=verify)
        for seg in delta.segments
    )
    tail_pplan = None
    if delta.tail is not None:
        # the tail reads maintained segments back as synthetic tables:
        # extend the catalog with their schemas and estimated sizes so
        # lowering (join algorithm choice, fallback boundaries) and
        # physical verification see them like any base table
        tail_stats = stats
        if delta.segments:
            cards = dict(stats.cardinalities) if stats else {}
            schemas = dict(stats.schemas) if stats else {}
            for seg in delta.segments:
                schema = schema_of(seg.plan, stats)
                if schema is not None:
                    schemas[seg.name] = schema
                cards[seg.name] = int(estimate(seg.plan, stats))
            tail_stats = Statistics(
                cards,
                schemas,
                dict(stats.columns) if stats else {},
                epoch=stats.epoch if stats else 0,
            )
        tail_pplan = lower(delta.tail, tail_stats, config, verify=verify)
    return DeltaPhysical(delta, config, segment_pplans, tail_pplan)


def gamma_segment(dplan: DeltaPhysical) -> Optional[int]:
    """The segment a refresh view's tail aggregates, when the tail is
    one :class:`HashAggregate` directly over that segment's
    :class:`Scan` (with or without HAVING and a bucket budget): such a
    view keeps the aggregate's γ state beside the segment and folds
    segment deltas into it (:class:`repro.ivm.MaterializedView`;
    :class:`repro.exec.vectorized.DetGammaState` on the det engine,
    :class:`repro.exec.au_aggregate.GammaState` on the AU engine).
    ``None`` otherwise."""
    tail = dplan.tail_pplan
    if not isinstance(tail, HashAggregate):
        return None
    scan = tail.child
    if tail.partial or not isinstance(scan, Scan) or scan.skip is not None:
        return None
    names = [seg.name for seg in dplan.delta.segments]
    return names.index(scan.table) if scan.table in names else None


def explain_delta(dplan: DeltaPhysical) -> str:
    """Render a delta plan: maintained segments vs the refresh boundary.

    The golden snapshots in ``tests/test_ivm.py`` lock where the
    boundary lands for the non-linear operators.
    """
    delta = dplan.delta
    lines: List[str] = [f"DeltaPlan[kind={delta.kind}]"]

    def block(title: str, pplan: PhysNode) -> None:
        lines.append(f"  {title}")
        for line in explain_physical(pplan).splitlines():
            lines.append(f"    {line}")

    if delta.kind == "linear":
        block("Δ-maintain view:", dplan.segment_pplans[0])
    else:
        for seg, pplan in zip(delta.segments, dplan.segment_pplans):
            block(f"Δ-maintain segment {seg.name}:", pplan)
        if gamma_segment(dplan) is None:
            title = "refresh-boundary (re-executed per epoch):"
        else:
            title = "refresh-boundary (γ state maintained; re-run when stale):"
        block(title, dplan.tail_pplan)
    for seg in delta.segments:
        if seg.multi_ref:
            label = seg.name or "view"
            lines.append(
                f"  refresh-on-write {label}: "
                f"{', '.join(seg.multi_ref)} (self-joined)"
            )
    return "\n".join(lines)

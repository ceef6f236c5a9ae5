"""Rule-based logical plan optimizer shared by both engines.

The paper's middleware rewrites *one* logical query for the deterministic
backend and for the bound-preserving AU encoding; because this repo's two
interpreters (:func:`repro.db.engine.evaluate_det` and
:func:`repro.algebra.evaluator.evaluate_audb`) share the
:mod:`repro.algebra.ast` plan language, a single logical optimizer speeds
up both at once.  Every rewrite below is semantics-preserving for *both*
semantics — bag (``N``) and ``N^AU`` — which the property tests in
``tests/test_optimizer.py`` verify on randomized plans and databases.

Rules, applied in order by :func:`optimize`:

1. **Selection splitting + pushdown** — conjunctive conditions are split
   and each conjunct is pushed through Projection (by substituting the
   projected expressions), Rename (by inverting the mapping), Union
   (positionally, into both branches), OrderBy, and into the side(s) of a
   Join / CrossProduct that cover its variables.  A conjunct also pushes
   through ``Aggregate`` when it references only group-by columns whose
   catalog statistics certify *every* value certain (uncertain fraction
   0): grouping on fully certain columns partitions by exact value, so
   filtering groups after aggregation equals filtering their input rows
   before it, in both semantics.  ``Distinct``, ``Difference``,
   aggregates over uncertain (or statistics-less) group-by columns, and
   ``Limit`` remain barriers: the AU semantics SG-combines (merges
   ranges) before filtering, so commuting a selection past them is
   unsound, and limiting is order-sensitive.
2. **Join promotion** — conjuncts spanning both sides of a CrossProduct
   become the condition of a Join (both engines define ``R ⋈_θ S`` as
   ``σ_θ(R × S)``, so this is definitional), which unlocks the engines'
   hash-join fast paths.
3. **Cost-based join reordering** — maximal Join/CrossProduct trees are
   flattened into (leaves, conjuncts).  When :class:`Statistics` carries a
   per-column catalog (:mod:`repro.algebra.stats`), a dynamic-programming
   enumerator searches *bushy* join trees, costing each subset of leaves
   by selectivity-derived cardinality estimates (``join_order="dp"``, the
   default).  Without column statistics — or with ``join_order="greedy"``
   — leaves are re-ordered greedily by estimated cardinality, joining
   along equi-edges first.  A final projection restores the original
   column order.
4. **OrderBy+Limit fusion** — ``Limit(OrderBy(R))`` becomes a
   :class:`~repro.algebra.ast.TopK` node so the deterministic engine can
   return the *correct* top-k rows.
5. **Projection pruning** — columns no ancestor references are dropped by
   inserting narrowing projections below joins and above base tables.

Use :func:`explain` to render a plan (optimized or not) with per-node
cardinality estimates (and, given an ``actuals`` mapping collected by an
engine, estimated-vs-actual rows per node).  Tables the catalog knows
nothing about are flagged with an explicit warning line instead of being
silently priced at :data:`DEFAULT_CARD`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.expressions import And, Eq, Expression, Var
from ..analysis import verification_enabled
from ..core.compression import recommended_buckets
from ..core.operators import _extract_equi_pairs
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
from .stats import (
    DEFAULT_SELECTIVITY,
    ColumnStats,
    equi_join_selectivity,
    harvest_column_stats,
    predicate_selectivity,
)

__all__ = [
    "Statistics",
    "optimize",
    "explain",
    "schema_of",
    "estimate",
    "compression_hints",
    "derive_delta",
    "DeltaPlan",
    "DeltaSegment",
    "JOIN_ORDERS",
    "DEFAULT_JOIN_ORDER",
]


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Statistics:
    """Per-relation cardinalities, schemas, and column statistics.

    Harvested from either a :class:`~repro.db.storage.DetDatabase` or an
    :class:`~repro.core.relation.AUDatabase` — both expose ``.relations``
    mapping names to relations with a ``.schema``.  ``columns`` maps
    table name to ``{attribute: ColumnStats}`` (see
    :mod:`repro.algebra.stats`); it may be empty, in which case only the
    cardinality-based heuristics apply and join reordering falls back to
    the greedy strategy.
    """

    cardinalities: Mapping[str, int] = field(default_factory=dict)
    schemas: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)
    columns: Mapping[str, Mapping[str, ColumnStats]] = field(default_factory=dict)
    #: catalog epoch of the database at harvest time (0 for databases
    #: without write versioning) — the session layer compares it against
    #: the live database epoch to decide plan-cache staleness
    epoch: int = 0

    @classmethod
    def from_database(cls, db, column_stats: bool = True) -> "Statistics":
        cards: Dict[str, int] = {}
        schemas: Dict[str, Tuple[str, ...]] = {}
        for name, rel in getattr(db, "relations", {}).items():
            schemas[name] = tuple(rel.schema)
            total = getattr(rel, "total_rows", None)
            cards[name] = total() if callable(total) else len(rel)
        columns = harvest_column_stats(db) if column_stats else {}
        return cls(cards, schemas, columns, epoch=getattr(db, "epoch", 0))

    def fingerprint(self) -> tuple:
        return (
            tuple(sorted(self.cardinalities.items())),
            tuple(sorted((k, tuple(v)) for k, v in self.schemas.items())),
            tuple(
                sorted(
                    (t, tuple(sorted((c, cs.fingerprint()) for c, cs in cols.items())))
                    for t, cols in self.columns.items()
                )
            ),
        )


DEFAULT_CARD = 1000.0

#: Join-enumeration strategies: ``"dp"`` (cost-based bushy trees, needs
#: column statistics) with ``"greedy"`` as the built-in fallback.
JOIN_ORDERS = ("dp", "greedy")
DEFAULT_JOIN_ORDER = "dp"

#: DP join enumeration is O(3^n) in the number of leaves; past this many
#: leaves the greedy heuristic takes over.
_DP_MAX_LEAVES = 10


# ----------------------------------------------------------------------
# rewrite recording (semiring-safety lint support)
# ----------------------------------------------------------------------
@dataclass
class _RewriteCtx:
    """Per-:func:`optimize` call state the recursive passes consult.

    ``semantics`` is the annotation semantics the optimized plan must
    stay valid for (``"both"`` / ``"bag"`` / ``"au"``): rewrites that
    are *bag-only* (declared ``au_safe=False`` in
    :data:`repro.analysis.lint.REWRITE_RULES`) fire only under
    ``"bag"``.  ``trace`` collects the names of every rule that fired,
    in first-fired order, for the semiring-safety lint.
    """

    semantics: str = "both"
    trace: List[str] = field(default_factory=list)
    #: ``id(plan) -> (plan, schema)`` of every subtree whose schema a
    #: pass asked for (plans are immutable, and holding the node keeps
    #: its id from being reused)
    schemas: Dict[int, Tuple[Plan, Optional[Tuple[str, ...]]]] = field(
        default_factory=dict
    )


#: the context of the currently-running :func:`optimize` call; the
#: passes are deeply recursive, so this rides module state (set/reset
#: by the driver) instead of threading a parameter through every call
_ctx: Optional[_RewriteCtx] = None


def _record(rule: str) -> None:
    """Note that rewrite ``rule`` fired (once per optimize call)."""
    if _ctx is not None and rule not in _ctx.trace:
        _ctx.trace.append(rule)


def _bag_only_allowed() -> bool:
    """May a rewrite that is *not* AU-safe fire right now?"""
    return _ctx is not None and _ctx.semantics == "bag"


# ----------------------------------------------------------------------
# expression helpers
# ----------------------------------------------------------------------
def _split(condition: Expression) -> List[Expression]:
    """Flatten a conjunction into its conjuncts."""
    if isinstance(condition, And):
        return _split(condition.left) + _split(condition.right)
    return [condition]


def _and_all(conjuncts: Sequence[Expression]) -> Expression:
    out = conjuncts[0]
    for c in conjuncts[1:]:
        out = And(out, c)
    return out


def _substitute(
    expr: Expression, mapping: Mapping[str, Expression]
) -> Expression:
    """``expr[x := mapping[x]]``.

    Substitution commutes with both ``eval`` and ``eval_range`` (both are
    defined structurally over the valuation), which is what makes
    pushdown through Projection/Rename semantics-preserving.  Only
    variables are touched: parameters are leaf placeholders, so
    parameterized conjuncts push down like constant ones.
    """
    return expr.map_leaves(
        lambda e: mapping.get(e.name, e) if isinstance(e, Var) else e
    )


# ----------------------------------------------------------------------
# schema / cardinality inference
# ----------------------------------------------------------------------
def schema_of(
    plan: Plan,
    stats: Optional[Statistics],
    memo: Optional[Dict[int, Tuple[Plan, Optional[Tuple[str, ...]]]]] = None,
) -> Optional[Tuple[str, ...]]:
    """Output attribute names of ``plan`` (``None`` when unknown).

    ``memo`` (``id(node) -> (node, schema)``) records the schema of
    every subtree the walk visits and answers repeated questions
    without walking again."""
    if memo is None:
        return _schema_of(plan, stats, None)
    hit = memo.get(id(plan))
    if hit is not None and hit[0] is plan:
        return hit[1]
    schema = _schema_of(plan, stats, memo)
    memo[id(plan)] = (plan, schema)
    return schema


def _schema(plan: Plan, stats: Optional[Statistics]) -> Optional[Tuple[str, ...]]:
    """:func:`schema_of`, each subtree walked once per optimize call."""
    return schema_of(plan, stats, _ctx.schemas if _ctx is not None else None)


def _schema_of(plan: Plan, stats, memo) -> Optional[Tuple[str, ...]]:
    if isinstance(plan, TableRef):
        return stats.schemas.get(plan.name) if stats else None
    if isinstance(plan, Projection):
        return tuple(name for _, name in plan.columns)
    if isinstance(plan, Aggregate):
        return tuple(plan.group_by) + tuple(a.name for a in plan.aggregates)
    if isinstance(plan, Rename):
        child = schema_of(plan.child, stats, memo)
        if child is None:
            return None
        mapping = plan.mapping_dict()
        return tuple(mapping.get(a, a) for a in child)
    if isinstance(plan, (Join, CrossProduct)):
        left = schema_of(plan.left, stats, memo)
        right = schema_of(plan.right, stats, memo)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(plan, (Union, Difference)):
        return schema_of(plan.left, stats, memo)
    if isinstance(plan, (Selection, Distinct, OrderBy, Limit, TopK)):
        return schema_of(plan.child, stats, memo)
    return None


def estimate(
    plan: Plan,
    stats: Optional[Statistics],
    warnings: Optional[List[str]] = None,
    memo: Optional[Dict[int, Tuple[Plan, Tuple[float, Any]]]] = None,
) -> float:
    """Cardinality estimate for ``plan``.

    With a column catalog in ``stats`` this uses selectivity estimation
    (:mod:`repro.algebra.stats`); otherwise it falls back to the PR 1
    magic-constant heuristics.  Tables the catalog does not know are
    priced at :data:`DEFAULT_CARD` and reported through ``warnings`` (a
    caller-supplied list) instead of failing silently — :func:`explain`
    surfaces them as warning lines.  ``memo`` (``id(node) -> (node,
    (rows, columns))``) records every subtree's estimate, as
    :func:`schema_of`'s does, so a caller that asks about each node of
    one plan walks it once.
    """
    card, _columns = _estimate(plan, stats, warnings, memo)
    return card


def _warn_unknown_table(name: str, warnings: Optional[List[str]]) -> None:
    if warnings is None:
        return
    message = (
        f"no statistics for table '{name}' — assuming {DEFAULT_CARD:.0f} rows"
    )
    if message not in warnings:
        warnings.append(message)


def _estimate(
    plan: Plan,
    stats: Optional[Statistics],
    warnings: Optional[List[str]],
    memo: Optional[Dict[int, Tuple[Plan, Tuple[float, Any]]]] = None,
) -> Tuple[float, Optional[Dict[str, ColumnStats]]]:
    """Estimate ``plan``'s cardinality and propagate column statistics.

    Returns ``(rows, columns)`` where ``columns`` maps output attribute
    names to :class:`ColumnStats` (``None`` when the catalog cannot see
    through this subtree).  With a ``memo`` (see :func:`estimate`) the
    ``columns`` dict may be shared with other nodes' answers: callers
    read it and never mutate it.
    """
    if memo is None:
        return _estimate_node(plan, stats, warnings, None)
    hit = memo.get(id(plan))
    if hit is not None and hit[0] is plan:
        return hit[1]
    result = _estimate_node(plan, stats, warnings, memo)
    memo[id(plan)] = (plan, result)
    return result


def _estimate_node(
    plan: Plan, stats: Optional[Statistics], warnings: Optional[List[str]], memo
) -> Tuple[float, Optional[Dict[str, ColumnStats]]]:
    if isinstance(plan, TableRef):
        if stats is None:
            return DEFAULT_CARD, None
        if plan.name not in stats.cardinalities:
            _warn_unknown_table(plan.name, warnings)
            return DEFAULT_CARD, None
        card = float(stats.cardinalities[plan.name])
        columns = stats.columns.get(plan.name)
        return card, dict(columns) if columns is not None else None
    if isinstance(plan, Selection):
        card, columns = _estimate(plan.child, stats, warnings, memo)
        if columns is not None:
            sel = predicate_selectivity(plan.condition, columns)
            columns = {k: v.scaled(sel) for k, v in columns.items()}
        else:
            sel = DEFAULT_SELECTIVITY
        return max(1.0, card * sel), columns
    if isinstance(plan, Projection):
        card, columns = _estimate(plan.child, stats, warnings, memo)
        if columns is None:
            return card, None
        out: Dict[str, ColumnStats] = {}
        for expr, name in plan.columns:
            if isinstance(expr, Var) and expr.name in columns:
                out[name] = columns[expr.name]
        return card, out
    if isinstance(plan, Rename):
        card, columns = _estimate(plan.child, stats, warnings, memo)
        if columns is None:
            return card, None
        mapping = plan.mapping_dict()
        return card, {mapping.get(k, k): v for k, v in columns.items()}
    if isinstance(plan, Join):
        left_card, left_cols = _estimate(plan.left, stats, warnings, memo)
        right_card, right_cols = _estimate(plan.right, stats, warnings, memo)
        if left_cols is None or right_cols is None:
            # legacy heuristic: one side acts as a key
            card = left_card * right_card / max(min(left_card, right_card), 1.0)
            return max(1.0, card), None
        combined = {**left_cols, **right_cols}
        card = left_card * right_card
        for conjunct in _split(plan.condition):
            card *= _conjunct_selectivity(conjunct, left_cols, right_cols, combined)
        card = max(1.0, card)
        return card, {k: v.capped(card) for k, v in combined.items()}
    if isinstance(plan, CrossProduct):
        left_card, left_cols = _estimate(plan.left, stats, warnings, memo)
        right_card, right_cols = _estimate(plan.right, stats, warnings, memo)
        columns = (
            {**left_cols, **right_cols}
            if left_cols is not None and right_cols is not None
            else None
        )
        return left_card * right_card, columns
    if isinstance(plan, Union):
        left_card, _ = _estimate(plan.left, stats, warnings, memo)
        right_card, _ = _estimate(plan.right, stats, warnings, memo)
        # column alignment across branches is positional; don't guess
        return left_card + right_card, None
    if isinstance(plan, Difference):
        card, columns = _estimate(plan.left, stats, warnings, memo)
        _estimate(plan.right, stats, warnings, memo)  # still surface warnings
        return card, columns
    if isinstance(plan, Distinct):
        card, columns = _estimate(plan.child, stats, warnings, memo)
        if columns is not None and columns:
            product = 1.0
            for col in columns.values():
                product *= max(1, col.distinct)
                if product >= card:
                    break
            card = max(1.0, min(card, product))
        return card, columns
    if isinstance(plan, OrderBy):
        return _estimate(plan.child, stats, warnings, memo)
    if isinstance(plan, Aggregate):
        card, columns = _estimate(plan.child, stats, warnings, memo)
        if not plan.group_by:
            return 1.0, None
        if columns is not None and all(k in columns for k in plan.group_by):
            groups = 1.0
            for key in plan.group_by:
                groups *= max(1, columns[key].distinct)
                if groups >= card:
                    break
            out_card = max(1.0, min(card, groups))
            out_cols = {k: columns[k].capped(out_card) for k in plan.group_by}
            return out_card, out_cols
        return max(1.0, card / 4.0), None
    if isinstance(plan, (Limit, TopK)):
        card, columns = _estimate(plan.child, stats, warnings, memo)
        card = min(float(plan.n), card)
        if columns is not None:
            columns = {k: v.capped(card) for k, v in columns.items()}
        return card, columns
    return DEFAULT_CARD, None


def _conjunct_selectivity(
    conjunct: Expression,
    left_cols: Mapping[str, ColumnStats],
    right_cols: Mapping[str, ColumnStats],
    combined: Mapping[str, ColumnStats],
) -> float:
    """Selectivity of one join conjunct; equi-conjuncts spanning both
    sides use the distinct-count formula."""
    if _is_equi(conjunct):
        a, b = conjunct.left.name, conjunct.right.name
        if a in left_cols and b in right_cols:
            return equi_join_selectivity(left_cols[a], right_cols[b])
        if a in right_cols and b in left_cols:
            return equi_join_selectivity(right_cols[a], left_cols[b])
    return predicate_selectivity(conjunct, combined)


# ----------------------------------------------------------------------
# rule 1+2: selection splitting, pushdown, join promotion
# ----------------------------------------------------------------------
def _wrap(plan: Plan, conjuncts: Sequence[Expression]) -> Plan:
    if not conjuncts:
        return plan
    return Selection(plan, _and_all(list(conjuncts)))


def _pushdown(plan: Plan, pending: List[Expression], stats) -> Plan:
    """Equivalent of ``σ_{∧pending}(plan)`` with conjuncts pushed deep."""
    if isinstance(plan, Selection):
        _record("selection-pushdown")
        return _pushdown(plan.child, _split(plan.condition) + pending, stats)

    if isinstance(plan, Projection):
        mapping = {name: expr for expr, name in plan.columns}
        down: List[Expression] = []
        kept: List[Expression] = []
        for c in pending:
            if all(v in mapping for v in c.variables()):
                down.append(_substitute(c, mapping))
            else:
                kept.append(c)
        child = _pushdown(plan.child, down, stats)
        return _wrap(Projection(child, plan.columns), kept)

    if isinstance(plan, Rename):
        inverse = {new: Var(old) for old, new in plan.mapping}
        down = [_substitute(c, inverse) for c in pending]
        child = _pushdown(plan.child, down, stats)
        return Rename(child, plan.mapping_dict())

    if isinstance(plan, Union):
        left_schema = _schema(plan.left, stats)
        right_schema = _schema(plan.right, stats)
        if (
            left_schema is not None
            and right_schema is not None
            and len(left_schema) == len(right_schema)
            and len(set(left_schema)) == len(left_schema)
            and len(set(right_schema)) == len(right_schema)
        ):
            # union output names follow the left branch; translate into the
            # right branch positionally
            left_set = set(left_schema)
            positional = {l: Var(r) for l, r in zip(left_schema, right_schema)}
            down_left, down_right, kept = [], [], []
            for c in pending:
                if c.variables() <= left_set:
                    down_left.append(c)
                    down_right.append(_substitute(c, positional))
                else:
                    kept.append(c)
            left = _pushdown(plan.left, down_left, stats)
            right = _pushdown(plan.right, down_right, stats)
            return _wrap(Union(left, right), kept)
        left = _pushdown(plan.left, [], stats)
        right = _pushdown(plan.right, [], stats)
        return _wrap(Union(left, right), pending)

    if isinstance(plan, (Join, CrossProduct)):
        conjuncts = list(pending)
        if isinstance(plan, Join):
            conjuncts = _split(plan.condition) + conjuncts
        left_schema = _schema(plan.left, stats)
        right_schema = _schema(plan.right, stats)
        if (
            left_schema is not None
            and right_schema is not None
            and not set(left_schema) & set(right_schema)
        ):
            left_set, right_set = set(left_schema), set(right_schema)
            down_left, down_right, here = [], [], []
            for c in conjuncts:
                variables = c.variables()
                if variables <= left_set:
                    down_left.append(c)
                elif variables <= right_set:
                    down_right.append(c)
                else:
                    here.append(c)
            left = _pushdown(plan.left, down_left, stats)
            right = _pushdown(plan.right, down_right, stats)
            if here:
                if isinstance(plan, CrossProduct):
                    _record("join-promotion")
                return Join(left, right, _and_all(here))
            return CrossProduct(left, right)
        left = _pushdown(plan.left, [], stats)
        right = _pushdown(plan.right, [], stats)
        if isinstance(plan, Join):
            return _wrap(Join(left, right, plan.condition), pending)
        return _wrap(CrossProduct(left, right), pending)

    if isinstance(plan, OrderBy):
        child = _pushdown(plan.child, pending, stats)
        return OrderBy(child, plan.keys, plan.descending)

    # barriers under AU semantics: filtering before SG-combining
    # (Distinct/Difference) or before grouping (Aggregate) changes AU
    # range merging; Limit/TopK are order-sensitive; TableRef is a leaf.
    # For a plan destined only for the bag engines, Distinct and the
    # left input of Difference are transparent to selections —
    # σ_p(δ(R)) ≡ δ(σ_p(R)) for multiplicities, and
    # σ_p(R − S) ≡ σ_p(R) − S since max(0, R(t) − S(t)) is 0 either way
    # when p rejects t — so those conjuncts keep descending.  Both
    # rewrites are declared bag-only in the semiring-safety registry.
    if isinstance(plan, Distinct):
        if pending and _bag_only_allowed():
            _record("distinct-pushdown")
            return Distinct(_pushdown(plan.child, pending, stats))
        return _wrap(Distinct(_pushdown(plan.child, [], stats)), pending)
    if isinstance(plan, Difference):
        if pending and _bag_only_allowed():
            _record("difference-pushdown")
            left = _pushdown(plan.left, pending, stats)
            right = _pushdown(plan.right, [], stats)
            return Difference(left, right)
        left = _pushdown(plan.left, [], stats)
        right = _pushdown(plan.right, [], stats)
        return _wrap(Difference(left, right), pending)
    if isinstance(plan, Aggregate):
        down, kept = _split_aggregate_pushdown(plan, pending, stats)
        child = _pushdown(plan.child, down, stats)
        return _wrap(
            Aggregate(child, plan.group_by, plan.aggregates, plan.having), kept
        )
    if isinstance(plan, Limit):
        return _wrap(Limit(_pushdown(plan.child, [], stats), plan.n), pending)
    if isinstance(plan, TopK):
        child = _pushdown(plan.child, [], stats)
        return _wrap(TopK(child, plan.keys, plan.descending, plan.n), pending)
    return _wrap(plan, pending)


def _split_aggregate_pushdown(
    plan: Aggregate, pending: List[Expression], stats
) -> Tuple[List[Expression], List[Expression]]:
    """Partition conjuncts above an Aggregate into (pushable, kept).

    A conjunct commutes with grouping exactly when it filters whole
    groups and group membership cannot straddle it: it must reference
    only group-by columns (which pass through aggregation unchanged),
    reference at least one (a variable-free false predicate above a
    global aggregate must *not* suppress the empty-input result row),
    and — per the column catalog — every referenced column must be
    entirely certain.  Certain group-by values partition rows by exact
    equality in both semantics: no AU range overlap can merge two
    groups that the predicate separates, so σ∘γ ≡ γ∘σ (machine-checked
    by the Hypothesis exactness tests in ``tests/test_optimizer.py``).
    Anything else stays above the barrier.
    """
    if not pending:
        return [], []
    if not plan.group_by or stats is None:
        return [], list(pending)
    _card, columns = _estimate(plan.child, stats, None)
    if not columns:
        return [], list(pending)
    group_set = set(plan.group_by)
    agg_names = {spec.name for spec in plan.aggregates}
    down: List[Expression] = []
    kept: List[Expression] = []
    for conjunct in pending:
        variables = conjunct.variables()
        if (
            variables
            and variables <= group_set
            and not variables & agg_names
            and all(
                v in columns and columns[v].uncertain_fraction == 0.0
                for v in variables
            )
        ):
            down.append(conjunct)
        else:
            kept.append(conjunct)
    if down:
        _record("aggregate-pushdown")
    return down, kept


# ----------------------------------------------------------------------
# rule 3: cost-based (DP) / greedy join reordering
# ----------------------------------------------------------------------
def _flatten_joins(
    plan: Plan, leaves: List[Plan], conjuncts: List[Expression]
) -> None:
    if isinstance(plan, Join):
        conjuncts.extend(_split(plan.condition))
        _flatten_joins(plan.left, leaves, conjuncts)
        _flatten_joins(plan.right, leaves, conjuncts)
    elif isinstance(plan, CrossProduct):
        _flatten_joins(plan.left, leaves, conjuncts)
        _flatten_joins(plan.right, leaves, conjuncts)
    else:
        leaves.append(plan)


def _is_equi(c: Expression) -> bool:
    return isinstance(c, Eq) and isinstance(c.left, Var) and isinstance(c.right, Var)


def _reorder_joins(plan: Plan, stats, join_order: str) -> Plan:
    if isinstance(plan, (Join, CrossProduct)):
        leaves: List[Plan] = []
        conjuncts: List[Expression] = []
        _flatten_joins(plan, leaves, conjuncts)
        schemas = [_schema(leaf, stats) for leaf in leaves]
        all_attrs: List[str] = [a for s in schemas if s is not None for a in s]
        if (
            len(leaves) >= 3
            and all(s is not None for s in schemas)
            and len(set(all_attrs)) == len(all_attrs)
        ):
            # attribute names are globally unique across the leaves, so
            # re-attaching a conjunct in a wider scope cannot re-bind it
            # to a different column
            new_leaves = [
                _reorder_joins(leaf, stats, join_order) for leaf in leaves
            ]
            reordered = None
            if join_order == "dp" and stats is not None:
                reordered = _dp_join_tree(new_leaves, schemas, conjuncts, stats)
                if reordered is not None:
                    _record("join-reorder-dp")
            if reordered is None:
                reordered = _greedy_join_tree(new_leaves, schemas, conjuncts, stats)
                if reordered is not None:
                    _record("join-reorder-greedy")
            if reordered is not None:
                return reordered
        # duplicate / unknown attribute names, few leaves, or a free
        # conjunct variable: keep the original join structure untouched
    return plan.map_children(
        lambda child: _reorder_joins(child, stats, join_order)
    )


# ----------------------------------------------------------------------
# DP bushy join enumeration
# ----------------------------------------------------------------------
@dataclass
class _DPEntry:
    plan: Plan
    cost: float  # C_out: sum of estimated intermediate cardinalities
    card: float
    order: Tuple[int, ...]  # in-order leaf sequence (determines the schema)


def _dp_join_tree(
    leaves: List[Plan],
    schemas: List[Tuple[str, ...]],
    conjuncts: List[Expression],
    stats,
) -> Optional[Plan]:
    """Selinger-style dynamic program over *bushy* join trees.

    Enumerates every partition of every connected (or, when forced,
    disconnected) subset of the join leaves, costing candidates by the
    sum of estimated intermediate-result cardinalities derived from the
    per-column catalog.  Returns ``None`` — meaning "caller falls back to
    greedy" — when column statistics are missing for some leaf, a
    conjunct references an unknown attribute, or the leaf count exceeds
    :data:`_DP_MAX_LEAVES`.
    """
    n = len(leaves)
    if n > _DP_MAX_LEAVES:
        return None

    leaf_cards: List[float] = []
    leaf_cols: List[Dict[str, ColumnStats]] = []
    for leaf in leaves:
        card, cols = _estimate(leaf, stats, None)
        if cols is None:
            return None  # no column statistics below this leaf
        leaf_cards.append(max(card, 1.0))
        leaf_cols.append(cols)

    attr_to_leaf = {a: i for i, s in enumerate(schemas) for a in s}
    conjunct_masks: List[int] = []
    for c in conjuncts:
        mask = 0
        for v in c.variables():
            if v not in attr_to_leaf:
                return None  # free variable; caller keeps the order
            mask |= 1 << attr_to_leaf[v]
        # variable-free conjuncts behave as if they touched the first leaf
        # so each one attaches exactly once
        conjunct_masks.append(mask or 1)

    all_cols: Dict[str, ColumnStats] = {}
    for cols in leaf_cols:
        all_cols.update(cols)
    sels: List[float] = []
    for c, mask in zip(conjuncts, conjunct_masks):
        if _is_equi(c) and mask.bit_count() == 2:
            sels.append(
                equi_join_selectivity(
                    all_cols.get(c.left.name), all_cols.get(c.right.name)
                )
            )
        else:
            sels.append(predicate_selectivity(c, all_cols))

    full = (1 << n) - 1
    # estimated output cardinality per leaf subset: product of leaf
    # cardinalities times the selectivities of every covered conjunct
    card = [1.0] * (full + 1)
    for mask in range(1, full + 1):
        c = 1.0
        for i in range(n):
            if mask >> i & 1:
                c *= leaf_cards[i]
        for j, cm in enumerate(conjunct_masks):
            if cm & ~mask == 0:
                c *= sels[j]
        card[mask] = max(c, 1.0)

    best: Dict[int, _DPEntry] = {}
    for i in range(n):
        mask = 1 << i
        own = [j for j, cm in enumerate(conjunct_masks) if cm == mask]
        best[mask] = _DPEntry(
            plan=_wrap(leaves[i], [conjuncts[j] for j in own]),
            cost=0.0,
            card=card[mask],
            order=(i,),
        )

    for mask in range(1, full + 1):
        if mask.bit_count() < 2:
            continue
        lowbit = mask & -mask
        chosen: Optional[_DPEntry] = None
        chosen_split: Optional[Tuple[_DPEntry, _DPEntry]] = None
        sub = (mask - 1) & mask
        while sub:
            if sub & lowbit:  # canonical orientation: each split once
                other = mask ^ sub
                a, b = best[sub], best[other]
                cost = a.cost + b.cost + card[mask]
                if chosen is None or (cost, a.order + b.order) < (
                    chosen.cost,
                    chosen.order,
                ):
                    chosen = _DPEntry(None, cost, card[mask], a.order + b.order)
                    chosen_split = (a, b)
            sub = (sub - 1) & mask
        a, b = chosen_split
        # stream the (estimated) bigger side, hash the smaller: both
        # engines build their lookup structure over the right input
        if a.card < b.card:
            a, b = b, a
            chosen.order = a.order + b.order
        new = [
            j
            for j, cm in enumerate(conjunct_masks)
            if cm & ~mask == 0
            and any(cm >> i & 1 for i in a.order)
            and any(cm >> i & 1 for i in b.order)
        ]
        if new:
            chosen.plan = Join(a.plan, b.plan, _and_all([conjuncts[j] for j in new]))
        else:
            chosen.plan = CrossProduct(a.plan, b.plan)
        best[mask] = chosen

    top = best[full]
    tree = top.plan
    if top.order != tuple(range(n)):
        # restore the original column order (pure column projection: exact
        # in both semantics)
        original = [a for s in schemas for a in s]
        tree = Projection(tree, [(Var(a), a) for a in original])
    return tree


def _greedy_join_tree(
    leaves: List[Plan],
    schemas: List[Tuple[str, ...]],
    conjuncts: List[Expression],
    stats,
) -> Optional[Plan]:
    n = len(leaves)
    attr_to_leaf = {a: i for i, s in enumerate(schemas) for a in s}
    conjunct_leaves: List[Set[int]] = []
    for c in conjuncts:
        touched = set()
        for v in c.variables():
            if v not in attr_to_leaf:
                return None  # free variable; bail out, caller keeps order
            touched.add(attr_to_leaf[v])
        conjunct_leaves.append(touched)

    cards = [estimate(leaf, stats) for leaf in leaves]
    remaining = set(range(n))
    start = min(remaining, key=lambda i: (cards[i], i))
    order = [start]
    current = {start}
    remaining.discard(start)
    while remaining:
        def connected(i: int) -> bool:
            return any(
                _is_equi(conjuncts[j]) and i in conjunct_leaves[j]
                and conjunct_leaves[j] <= current | {i}
                for j in range(len(conjuncts))
            )

        pool = [i for i in remaining if connected(i)] or sorted(remaining)
        nxt = min(pool, key=lambda i: (cards[i], i))
        order.append(nxt)
        current.add(nxt)
        remaining.discard(nxt)

    tree = _attach_conjuncts(order, leaves, schemas, conjuncts)
    if order != list(range(n)):
        # restore the original column order (pure column projection: exact
        # in both semantics — annotations of identical tuples merge the
        # same way on either side of the join)
        original = [a for s in schemas for a in s]
        tree = Projection(tree, [(Var(a), a) for a in original])
    return tree


def _attach_conjuncts(
    order: List[int],
    leaves: List[Plan],
    schemas: List[Tuple[str, ...]],
    conjuncts: List[Expression],
) -> Plan:
    """Left-deep join tree over ``order``; each conjunct attaches at the
    first join where all its variables are in scope."""
    attr_to_leaf = {a: i for i, s in enumerate(schemas) for a in s}
    conjunct_leaves = [
        {attr_to_leaf[v] for v in c.variables() if v in attr_to_leaf}
        for c in conjuncts
    ]
    placed = [False] * len(conjuncts)
    in_tree = {order[0]}
    initial = []
    for j, c in enumerate(conjuncts):
        if conjunct_leaves[j] <= in_tree:
            placed[j] = True
            initial.append(c)
    tree = _wrap(leaves[order[0]], initial)
    for i in order[1:]:
        in_tree.add(i)
        attach = [
            j
            for j in range(len(conjuncts))
            if not placed[j] and conjunct_leaves[j] <= in_tree
        ]
        for j in attach:
            placed[j] = True
        if attach:
            tree = Join(tree, leaves[i], _and_all([conjuncts[j] for j in attach]))
        else:
            tree = CrossProduct(tree, leaves[i])
    leftover = [c for j, c in enumerate(conjuncts) if not placed[j]]
    return _wrap(tree, leftover)


# ----------------------------------------------------------------------
# rule 4: ORDER BY + LIMIT fusion
# ----------------------------------------------------------------------
def _fuse_topk(plan: Plan) -> Plan:
    if isinstance(plan, Limit) and isinstance(plan.child, OrderBy):
        inner = plan.child
        _record("topk-fusion")
        return TopK(_fuse_topk(inner.child), inner.keys, inner.descending, plan.n)
    return plan.map_children(_fuse_topk)


# ----------------------------------------------------------------------
# rule 5: projection pruning
# ----------------------------------------------------------------------
#: a join input is narrowed only when the cells the projection drops
#: (estimated rows × dropped columns) reach this many: it is one more
#: plan node to lower, bind and run on every execution (≈ 10 µs), and a
#: dropped cell saves one gather of tens of ns
NARROW_MIN_CELLS = 256


def _prune(plan: Plan, needed: Optional[Set[str]], stats) -> Plan:
    """Drop columns no ancestor references.

    ``needed`` is the set of output attributes ancestors use (``None`` =
    all).  The returned plan's schema is always a superset of ``needed``
    (narrowing inserts pure-column projections, which merge annotations of
    identical tuples — exact in both semantics under the nodes we prune
    through).
    """
    if isinstance(plan, Projection):
        columns = plan.columns
        if needed is not None:
            kept = [(e, n) for e, n in columns if n in needed]
            if kept and len(kept) != len(columns):
                _record("projection-pruning")
                columns = kept
        required: Set[str] = set()
        for expr, _name in columns:
            required |= expr.variables()
        return Projection(_prune(plan.child, required, stats), columns)
    if isinstance(plan, Selection):
        child_needed = None if needed is None else needed | plan.condition.variables()
        return Selection(_prune(plan.child, child_needed, stats), plan.condition)
    if isinstance(plan, Rename):
        child_schema = _schema(plan.child, stats)
        mapping = plan.mapping_dict()
        if needed is None or child_schema is None:
            child_needed = None
        else:
            child_needed = {a for a in child_schema if mapping.get(a, a) in needed}
        child = _prune(plan.child, child_needed, stats)
        # the mapping must only name columns the pruned child still
        # produces — a narrowed child may have dropped a renamed column
        pruned_schema = _schema(child, stats)
        if pruned_schema is not None:
            mapping = {o: n for o, n in mapping.items() if o in pruned_schema}
        return Rename(child, mapping)
    if isinstance(plan, (Join, CrossProduct)):
        condition_vars = (
            plan.condition.variables() if isinstance(plan, Join) else frozenset()
        )
        total = None if needed is None else needed | condition_vars
        # under AU semantics a narrowing also decides which tuples merge
        # before a Cpr compression, so the bounds depend on it: it is
        # placed whatever the input size there
        min_cells = NARROW_MIN_CELLS if _bag_only_allowed() else 0
        left = _narrow(plan.left, total, stats, min_cells)
        right = _narrow(plan.right, total, stats, min_cells)
        if isinstance(plan, Join):
            return Join(left, right, plan.condition)
        return CrossProduct(left, right)
    if isinstance(plan, Aggregate):
        child_needed: Set[str] = set(plan.group_by)
        for spec in plan.aggregates:
            if spec.expr is not None:
                child_needed |= spec.expr.variables()
        return Aggregate(
            _narrow(plan.child, child_needed, stats),
            plan.group_by,
            plan.aggregates,
            plan.having,
        )
    if isinstance(plan, OrderBy):
        child_needed = None if needed is None else needed | set(plan.keys)
        return OrderBy(_prune(plan.child, child_needed, stats), plan.keys, plan.descending)
    # barriers: positional set operations, duplicate elimination, and
    # full-tuple-ordered limits must see every column of their input
    if isinstance(plan, Union):
        return Union(_prune(plan.left, None, stats), _prune(plan.right, None, stats))
    if isinstance(plan, Difference):
        return Difference(
            _prune(plan.left, None, stats), _prune(plan.right, None, stats)
        )
    if isinstance(plan, Distinct):
        return Distinct(_prune(plan.child, None, stats))
    if isinstance(plan, Limit):
        return Limit(_prune(plan.child, None, stats), plan.n)
    if isinstance(plan, TopK):
        return TopK(_prune(plan.child, None, stats), plan.keys, plan.descending, plan.n)
    return plan


def _narrow(
    plan: Plan, needed: Optional[Set[str]], stats, min_cells: float = 0
) -> Plan:
    """Prune ``plan`` and, when its schema still has unused columns —
    at least ``min_cells`` estimated cells of them — wrap it in a
    narrowing projection."""
    pruned = _prune(plan, needed, stats)
    if needed is None:
        return pruned
    schema = _schema(pruned, stats)
    if schema is None or len(set(schema)) != len(schema):
        return pruned
    kept = [a for a in schema if a in needed]
    if not kept or len(kept) == len(schema):
        return pruned
    if estimate(pruned, stats) * (len(schema) - len(kept)) < min_cells:
        return pruned
    _record("projection-pruning")
    return Projection(pruned, [(Var(a), a) for a in kept])


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
_CACHE: Dict[tuple, Tuple[Plan, Plan, Tuple[str, ...]]] = {}
_CACHE_LIMIT = 512


def _verify_pass(
    before: Plan, after: Plan, stats: Optional[Statistics], pass_name: str
) -> None:
    """Debug assertion run after one rewrite pass: the rewritten plan
    must still verify, and its output schema (when knowable on both
    sides) must be unchanged."""
    from ..analysis import PlanCompatibilityError, verify_logical

    verify_logical(after, stats)
    old = schema_of(before, stats)
    new = schema_of(after, stats)
    if old is not None and new is not None and old != new:
        raise PlanCompatibilityError(
            f"optimizer pass {pass_name!r} changed the output schema "
            f"from {old} to {new}"
        )


def optimize(
    plan: Plan,
    stats: Optional[Statistics] = None,
    join_order: str = DEFAULT_JOIN_ORDER,
    *,
    semantics: str = "both",
    verify: Optional[bool] = None,
    trace: Optional[List[str]] = None,
) -> Plan:
    """Rewrite ``plan`` into an equivalent, usually cheaper plan.

    Every rewrite is declared in the semiring-safety registry
    (:data:`repro.analysis.lint.REWRITE_RULES`); ``semantics`` says what
    the optimized plan must stay valid for — ``"both"`` (the safe
    default for direct callers) restricts the optimizer to rewrites
    exact under bag (``N``) *and* ``N^AU`` annotation semantics, while
    ``"bag"`` additionally unlocks the bag-only rewrites (selection
    pushdown through ``Distinct`` and into the left input of
    ``Difference``), which the AU engines' SG-combining makes unsound.
    ``stats`` supplies table schemas, cardinalities, and the per-column
    catalog; without it, only rewrites that need no schema knowledge
    (selection splitting, join promotion, OrderBy+Limit fusion) apply.
    ``join_order`` selects the join enumeration strategy: ``"dp"``
    (cost-based bushy trees when column statistics are available, greedy
    otherwise) or ``"greedy"`` (always the PR 1 heuristic).

    ``verify`` turns on the per-pass debug assertion (``None`` defers to
    :func:`repro.analysis.verification_enabled`): after *each* rewrite
    pass the plan is re-verified (:func:`repro.analysis.verify_logical`)
    and its output schema compared, and the recorded rewrite trace is
    checked against the safety registry.  ``trace`` (a caller-supplied
    list) receives the names of the rules that fired — the session layer
    re-checks it against the semantics the plan actually executes under.
    """
    global _ctx
    if join_order not in JOIN_ORDERS:
        raise ValueError(
            f"unknown join_order {join_order!r}; expected one of {JOIN_ORDERS}"
        )
    from ..analysis import check_semiring_safety
    from ..analysis.lint import SEMANTICS

    if semantics not in SEMANTICS:
        raise ValueError(
            f"unknown semantics {semantics!r}; expected one of {SEMANTICS}"
        )
    if verify is None:
        verify = verification_enabled()
    key = (
        id(plan),
        join_order,
        semantics,
        stats.fingerprint() if stats is not None else None,
    )
    hit = _CACHE.get(key)
    if hit is not None and hit[0] is plan:
        if trace is not None:
            trace.extend(hit[2])
        if verify:
            check_semiring_safety(hit[2], semantics)
        return hit[1]
    ctx = _RewriteCtx(semantics)
    _ctx = ctx
    try:
        optimized = _pushdown(plan, [], stats)
        if verify:
            _verify_pass(plan, optimized, stats, "pushdown")
        reordered = _reorder_joins(optimized, stats, join_order)
        if verify:
            _verify_pass(optimized, reordered, stats, "join-reorder")
        fused = _fuse_topk(reordered)
        if verify:
            _verify_pass(reordered, fused, stats, "topk-fusion")
        pruned = _prune(fused, None, stats)
        if verify:
            _verify_pass(fused, pruned, stats, "projection-pruning")
        optimized = pruned
    finally:
        _ctx = None
    if verify:
        check_semiring_safety(ctx.trace, semantics)
    if trace is not None:
        trace.extend(ctx.trace)
    if len(_CACHE) >= _CACHE_LIMIT:
        _CACHE.clear()
    _CACHE[key] = (plan, optimized, tuple(ctx.trace))
    return optimized


# ----------------------------------------------------------------------
# compression-budget placement hints
# ----------------------------------------------------------------------
def compression_hints(
    plan: Plan, stats: Optional[Statistics], budget: Optional[int]
) -> Dict[int, Optional[int]]:
    """Optimizer-aware placement of the join compression budget.

    Maps ``id(join_node)`` to the bucket count the AU evaluator should
    use for that join — ``None`` meaning "skip compression": when both
    estimated inputs already fit within the budget, ``Cpr`` cannot shrink
    anything, so the naive join is at least as fast *and* strictly
    tighter (no split/box loosening).  See
    :func:`repro.core.compression.recommended_buckets` for the policy.
    """
    hints: Dict[int, Optional[int]] = {}
    if budget is None:
        return hints
    for node in plan.walk():
        if isinstance(node, Join):
            left = estimate(node.left, stats)
            right = estimate(node.right, stats)
            hints[id(node)] = recommended_buckets(left, right, budget)
    return hints


# ----------------------------------------------------------------------
# explain
# ----------------------------------------------------------------------
def _describe(plan: Plan) -> str:
    if isinstance(plan, TableRef):
        return f"Table {plan.name}"
    if isinstance(plan, Selection):
        return f"Selection σ[{plan.condition!r}]"
    if isinstance(plan, Projection):
        cols = ", ".join(f"{e!r}→{n}" if repr(e) != n else n for e, n in plan.columns)
        return f"Projection π[{cols}]"
    if isinstance(plan, Join):
        return f"Join ⋈[{plan.condition!r}]"
    if isinstance(plan, CrossProduct):
        return "CrossProduct ×"
    if isinstance(plan, Union):
        return "Union ∪"
    if isinstance(plan, Difference):
        return "Difference −"
    if isinstance(plan, Distinct):
        return "Distinct δ"
    if isinstance(plan, Aggregate):
        aggs = ", ".join(f"{a.kind}({a.expr!r})→{a.name}" for a in plan.aggregates)
        return f"Aggregate γ[{','.join(plan.group_by)}; {aggs}]"
    if isinstance(plan, Rename):
        return f"Rename ρ[{plan.mapping_dict()}]"
    if isinstance(plan, OrderBy):
        order = "desc" if plan.descending else "asc"
        return f"OrderBy [{', '.join(plan.keys)} {order}]"
    if isinstance(plan, Limit):
        return f"Limit [{plan.n}]"
    if isinstance(plan, TopK):
        order = "desc" if plan.descending else "asc"
        return f"TopK [{', '.join(plan.keys)} {order}; n={plan.n}]"
    return type(plan).__name__


def explain(
    plan: Plan,
    stats: Optional[Statistics] = None,
    actuals: Optional[Mapping[int, int]] = None,
) -> str:
    """Render ``plan`` as an indented tree with cardinality estimates.

    ``actuals`` is an optional ``{id(node): rows}`` mapping as collected
    by ``evaluate_det(..., actuals=...)`` / ``evaluate_audb(...,
    actuals=...)``; matching nodes get an ``actual N`` column next to the
    estimate.  Tables missing from the catalog are reported as trailing
    ``!!`` warning lines instead of being silently priced at the default
    cardinality.
    """
    lines: List[str] = []
    warnings: List[str] = []

    def walk(node: Plan, depth: int) -> None:
        est = estimate(node, stats, warnings)
        line = f"{'  ' * depth}{_describe(node)}  (~{est:.0f} rows"
        if actuals is not None and id(node) in actuals:
            line += f", actual {actuals[id(node)]:g}"
        line += ")"
        lines.append(line)
        for child in node.children():
            walk(child, depth + 1)

    walk(plan, 0)
    for warning in warnings:
        lines.append(f"!! {warning}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# delta-plan derivation (incremental view maintenance, repro.ivm)
# ----------------------------------------------------------------------
#: operators that are *linear* in every base relation: both annotation
#: semirings (bag and K^AU) distribute over union, so for these
#: Q(R + ΔR) = Q(R) + Q[R := ΔR] holds exactly (per component for AU
#: triples) as long as no product (join/cross) multiplies a relation
#: with itself.  OrderBy is bag-presentation-only, hence bag-linear.
_LINEAR_NODES = (
    TableRef,
    Selection,
    Projection,
    Rename,
    Join,
    CrossProduct,
    Union,
)
_BAG_LINEAR_NODES = _LINEAR_NODES + (OrderBy,)

#: synthetic table-name prefix for materialized linear segments
DELTA_SEGMENT_PREFIX = "__ivm_seg"


@dataclass(frozen=True)
class DeltaSegment:
    """One incrementally-maintained linear subtree of a view plan.

    ``name`` is the synthetic table the non-linear tail reads it back
    under (empty for the root segment of a fully linear view).
    ``multi_ref`` lists base tables some join/cross inside the segment
    multiplies with themselves — writes to those cannot be expressed as
    a single-sided delta, so they refresh the whole segment instead.
    """

    name: str
    plan: Plan
    tables: Tuple[str, ...]
    multi_ref: Tuple[str, ...]


@dataclass(frozen=True)
class DeltaPlan:
    """The maintenance strategy derived from an optimized view plan.

    ``kind`` is the plan-time classification:

    * ``"linear"`` — the whole plan is linear: maintain the result bag
      directly by merging ``Q[R := Δ]`` per write;
    * ``"refresh"`` — a non-linear fragment remains: maintain the
      maximal linear ``segments`` incrementally and re-run ``tail``
      (the refresh boundary, reading segments as synthetic tables)
      epoch-gated at read time.  A root ``Aggregate`` over a linear
      input is a tail over one segment, its input: the view keeps the
      γ state beside that segment and re-runs the tail only when the
      state goes stale (:mod:`repro.ivm`).
    """

    view: Plan
    kind: str
    segments: Tuple[DeltaSegment, ...]
    tail: Optional[Plan]

    def tables(self) -> Tuple[str, ...]:
        """Every base table whose writes this view must observe."""
        names = []
        for seg in self.segments:
            for t in seg.tables:
                if t not in names:
                    names.append(t)
        if self.tail is not None:
            for t in self.tail.table_names():
                if not t.startswith(DELTA_SEGMENT_PREFIX) and t not in names:
                    names.append(t)
        return tuple(names)


def _self_products(plan: Plan) -> Set[str]:
    """Tables some join/cross product multiplies with themselves."""
    conflicts: Set[str] = set()
    for node in plan.walk():
        if isinstance(node, (Join, CrossProduct)):
            conflicts |= set(node.left.table_names()) & set(
                node.right.table_names()
            )
    return conflicts


def _segment(name: str, plan: Plan) -> DeltaSegment:
    return DeltaSegment(
        name,
        plan,
        tuple(dict.fromkeys(plan.table_names())),
        tuple(sorted(_self_products(plan))),
    )


def derive_delta(
    plan: Plan,
    stats: Optional[Statistics] = None,
    *,
    semantics: str = "bag",
    trace: Optional[List[str]] = None,
    join_buckets: Optional[int] = None,
) -> DeltaPlan:
    """Derive the per-write maintenance strategy for ``plan``.

    ``plan`` should be the *optimized*, parameter-free view plan;
    ``semantics`` is ``"bag"`` (deterministic engine) or ``"au"``.  The
    derivation itself is an (exactness-preserving) plan rewrite and is
    recorded in ``trace`` as ``"delta-derivation"`` for the
    semiring-safety lint, like any optimizer rule.  ``join_buckets`` is
    the AU lowering's ``Cpr`` join budget: under it an AU equi-join
    lowers to a compressed join, whose buckets depend on the whole
    input, so it is not linear and runs in the tail.

    The result is ``linear`` (the whole plan is one segment) or
    ``refresh`` (segments plus a tail); a root γ over a linear input is
    a ``refresh`` plan whose one segment is that input, on both engines.
    """
    if trace is not None and "delta-derivation" not in trace:
        trace.append("delta-derivation")
    nodes = _BAG_LINEAR_NODES if semantics == "bag" else _LINEAR_NODES
    compressed = semantics == "au" and join_buckets is not None

    def compressed_join(node: Plan) -> bool:
        if not isinstance(node, Join):
            return False
        left, right = schema_of(node.left, stats), schema_of(node.right, stats)
        return (
            left is not None
            and right is not None
            and bool(_extract_equi_pairs(node.condition, left, right))
        )

    def linear(node: Plan) -> bool:
        return all(
            isinstance(n, nodes) and not (compressed and compressed_join(n))
            for n in node.walk()
        )

    if linear(plan):
        return DeltaPlan(plan, "linear", (_segment("", plan),), None)

    # non-linear fragment: carve out maximal linear subtrees as
    # incrementally-maintained materializations; the remaining tail —
    # the refresh boundary — re-executes over them at read time
    segments: List[DeltaSegment] = []
    # a root γ's input is a segment even when it is a bare table: the
    # view keeps the γ state beside it
    gamma_input = plan.child if isinstance(plan, Aggregate) else None

    def carve(node: Plan) -> Plan:
        if linear(node):
            if isinstance(node, TableRef) and node is not gamma_input:
                return node  # the tail reads base tables directly
            schema = schema_of(node, stats)
            if schema is not None and len(set(schema)) == len(schema):
                name = f"{DELTA_SEGMENT_PREFIX}{len(segments)}"
                segments.append(_segment(name, node))
                return TableRef(name)
            # unmaterializable schema (unknown / duplicate attribute
            # names): leave the subtree inside the tail
            return node
        return node.map_children(carve)

    tail = carve(plan)
    return DeltaPlan(plan, "refresh", tuple(segments), tail)

"""Plan well-formedness verification for the logical and physical IRs.

:func:`verify_logical` runs typed schema inference
(:func:`repro.analysis.schema.infer_logical`) over a logical plan and
additionally checks that every :class:`~repro.algebra.ast.TableRef`
resolves against a non-empty catalog.  :func:`verify_bound` checks the
plan's :class:`~repro.core.expressions.Parameter` keys are complete
against a binding at execute time, and that a bound plan carries no
unfilled chunk-skip template — on the hot path only at the template's
:func:`binding_sites`, the nodes binding copies.
:func:`verify_physical` walks a
lowered :class:`~repro.exec.physical.PhysNode` tree and checks the
physical-only invariants: engine-legal operator sets (an AU plan has no
``Limit`` — a bare AU ``LIMIT`` is the identity; an AU
``HashAggregate`` carries its Section 10.5 budget and is never
partial), :class:`~repro.exec.physical.Exchange` / partial-aggregate
placement, no non-linear operator fed by a region's morsels, exactly one
:class:`~repro.exec.physical.ParallelScan` per parallel region,
resolved ``Cpr`` bucket budgets, and per-node schema consistency
(:func:`infer_physical`: join keys resolve on the correct side, and
every other check is the logical rule of the node's operator shape,
shared with :func:`~repro.analysis.schema.infer_logical`).

Everything here is read-only and catalog-permissive: a subtree whose
schema cannot be known (table missing from statistics) disables the
downstream name checks rather than failing them.
"""

from __future__ import annotations

from functools import cache
from typing import (
    Any,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..algebra import ast
from ..algebra.ast import collect_parameters as collect_plan_parameters
from ..core.expressions import Expression
from .errors import (
    PlanCompatibilityError,
    PlanReferenceError,
)
from .schema import (
    Schema,
    aggregate_shape,
    infer_logical,
    join_shape,
    order_shape,
    project_shape,
    rename_shape,
    select_shape,
    set_op_shape,
    table_schema,
)

__all__ = [
    "verify_logical",
    "verify_bound",
    "binding_sites",
    "binding_spine",
    "verify_physical",
    "verify_delta",
    "collect_plan_parameters",
    "infer_physical",
]


# ----------------------------------------------------------------------
# logical plans
# ----------------------------------------------------------------------
def _check_tables(plan: ast.Plan, catalog: Any) -> None:
    schemas = getattr(catalog, "schemas", None)
    if not schemas:
        # empty or absent catalog: nothing is provably missing — leave
        # unknown-table reporting to the storage layer at run time
        return
    for node in plan.walk():
        if isinstance(node, ast.TableRef) and node.name not in schemas:
            raise PlanReferenceError(
                f"table {node.name!r} not found in catalog; "
                f"known tables: {sorted(schemas)}"
            )


def verify_logical(
    plan: ast.Plan,
    catalog: Any = None,
    *,
    expect_parameters: bool = True,
) -> Optional[Schema]:
    """Verify a logical plan; returns its inferred :class:`Schema`.

    Checks: every ``TableRef`` resolves (against a non-empty
    ``catalog``), every column reference resolves, set operations are
    union-compatible, ``Aggregate`` group-by/output columns are
    consistent, and expressions are not provably ill-typed.  With
    ``expect_parameters=False`` the plan must also be parameter-free
    (a fully-bound plan handed to an executor).  Raises a
    :class:`~repro.analysis.errors.PlanVerificationError` subclass on
    the first violation; returns ``None`` when the schema is unknowable
    (permissive).
    """
    _check_tables(plan, catalog)
    schema = infer_logical(plan, catalog)
    if not expect_parameters:
        keys = collect_plan_parameters(plan)
        if keys:
            raise PlanReferenceError(
                f"plan still contains unbound parameter(s) "
                f"{sorted(keys, key=str)} at a point where all bindings "
                "must be resolved"
            )
    return schema


#: ``(slot, index)`` steps from a plan's root to one of its nodes
SitePath = Tuple[Tuple[str, Optional[int]], ...]


def _paths(
    node: ast.Node, path: SitePath = ()
) -> Iterator[Tuple[SitePath, ast.Node]]:
    yield path, node
    for slot, index, plan in node.plans():
        yield from _paths(plan, path + ((slot, index),))


def _follow(plan: Any, path: SitePath) -> Any:
    for slot, index in path:
        plan = getattr(plan, slot)
        if index is not None:
            plan = plan[index]
    return plan


def _mentions(node: ast.Node) -> Tuple[List[Any], bool]:
    """The parameter keys of ``node``'s own expressions, and whether its
    chunk-skip predicate still holds template atoms."""
    keys: List[Any] = []

    def note(value: Any) -> Any:
        if isinstance(value, Expression):
            keys.extend(value.parameters())
        return value

    node.map_slots(note)
    skip = getattr(node, "skip", None)
    return keys, skip is not None and bool(skip.slots())


def binding_sites(template: ast.Node) -> Tuple[SitePath, ...]:
    """The paths from ``template``'s root to every node that mentions a
    parameter or carries a chunk-skip template — the only nodes binding
    copies and fills; every other node of a bound plan is the cached
    template's own (never mutated) object.  Compute once per lowering
    and hand to :func:`verify_bound`."""
    return tuple(
        path for path, node in _paths(template) if any(_mentions(node))
    )


def binding_spine(template: ast.Node) -> FrozenSet[int]:
    """The ids of what binding has to visit — the nodes that mention a
    parameter or carry a chunk-skip template, their ancestors, and the
    expressions that mention a parameter: the ``within`` of
    :meth:`~repro.algebra.ast.Node.rewrite`.  Everything else binds to
    itself.  Compute once per lowering."""
    spine: Set[int] = set()

    def note(value: Any) -> Any:
        if isinstance(value, Expression) and value.parameters():
            spine.add(id(value))
        return value

    def visit(node: ast.Node) -> bool:
        below = [visit(plan) for _slot, _index, plan in node.plans()]
        keys, templated = _mentions(node)
        if keys:
            node.map_slots(note)
        if any(below) or keys or templated:
            spine.add(id(node))
            return True
        return False

    visit(template)
    return frozenset(spine)


def verify_bound(
    plan: ast.Node,
    bindings: Optional[Mapping[Any, Any]],
    sites: Optional[Sequence[SitePath]] = None,
) -> None:
    """Check every parameter key of ``plan`` has a value in ``bindings``;
    a plan that mentions no parameter any more (a bound physical plan)
    must also carry no unfilled chunk-skip template atom.  Checks every
    node, off-spine plans (``Exchange.final``) included — or, given the
    :func:`binding_sites` of the template ``plan`` was bound from, just
    those nodes: it runs on every execution of a bound plan when
    verification is on, and a walk of the whole plan costs more than
    executing a point lookup."""
    if sites is None:
        sites = binding_sites(plan)
    keys: List[Any] = []
    unfilled: List[Any] = []
    for path in sites:
        node = _follow(plan, path)
        own, templated = _mentions(node)
        keys += own
        if templated:
            unfilled.append(node)
    have = set(bindings) if bindings else set()
    missing = {k for k in keys if k not in have}
    if missing:
        raise PlanReferenceError(
            f"unbound parameter(s) {sorted(missing, key=str)}; "
            f"bound keys: {sorted(have, key=str)}"
        )
    if unfilled and not keys:
        node = unfilled[0]
        raise PlanReferenceError(
            f"bound plan still carries an unfilled chunk-skip atom "
            f"on {node.table!r}: [skip: {node.skip}]; binding must fill "
            "every template on a copy of the scan"
        )


# ----------------------------------------------------------------------
# delta plans (incremental view maintenance, repro.ivm)
# ----------------------------------------------------------------------
def verify_delta(
    delta: Any, dplan: Any = None, catalog: Any = None
) -> Optional[Schema]:
    """Verify a derived delta plan; returns the view's inferred schema.

    ``delta`` is a :class:`repro.algebra.optimizer.DeltaPlan` (and
    ``dplan``, when given, its lowered
    :class:`repro.exec.physical.DeltaPhysical`, whose component plans
    were already physically verified during lowering).  Checks the
    maintenance-specific invariants on top of per-plan verification:

    * the view and every maintained segment are parameter-free and
      logically well-formed against ``catalog``;
    * every *named* segment (one the tail reads back as a synthetic
      table) has a known, duplicate-free schema — it must be
      materializable as a base relation;
    * **the schema of the delta ≡ the schema of the view**: for a
      ``linear`` view the root segment's schema, and for a ``refresh``
      view the tail's schema (inferred over the catalog extended with
      the segment schemas) must match the view plan's own output
      schema by name — otherwise folding maintained state
      into the view result would silently misalign columns.
    """
    view_schema = verify_logical(delta.view, catalog, expect_parameters=False)
    view_names = tuple(view_schema.names) if view_schema is not None else None

    def check_names(got: Optional[Sequence[str]], what: str) -> None:
        if view_names is None or got is None:
            return
        if tuple(got) != view_names:
            raise PlanCompatibilityError(
                f"delta {what} schema {tuple(got)} does not match the "
                f"view schema {view_names}: maintained state would "
                "misalign columns"
            )

    seg_schemas: dict[str, Schema] = {}
    for seg in delta.segments:
        schema = verify_logical(seg.plan, catalog, expect_parameters=False)
        if seg.name:
            if schema is None:
                raise PlanCompatibilityError(
                    f"maintained segment {seg.name!r} has no inferable "
                    "schema; it cannot be materialized as a base table"
                )
            if len({c.name for c in schema}) != len(schema):
                raise PlanCompatibilityError(
                    f"maintained segment {seg.name!r} has duplicate "
                    f"attribute names {schema.names}"
                )
            seg_schemas[seg.name] = schema

    if delta.kind == "linear":
        root = verify_logical(
            delta.segments[0].plan, catalog, expect_parameters=False
        )
        check_names(root.names if root is not None else None, "segment")
    else:
        tail_schema = verify_logical(
            delta.tail,
            _SegmentCatalog(catalog, seg_schemas),
            expect_parameters=False,
        )
        check_names(
            tail_schema.names if tail_schema is not None else None, "tail"
        )
    return view_schema


class _SegmentCatalog:
    """A catalog view that adds the maintained segments' schemas, so the
    non-linear tail's synthetic ``__ivm_seg*`` tables verify like base
    tables."""

    def __init__(self, base: Any, segments: Mapping[str, Schema]) -> None:
        self.schemas = dict(getattr(base, "schemas", None) or {})
        self.columns = dict(getattr(base, "columns", None) or {})
        self.cardinalities = dict(getattr(base, "cardinalities", None) or {})
        for name, schema in segments.items():
            self.schemas[name] = tuple(schema.names)
            self.cardinalities.setdefault(name, 0)


# ----------------------------------------------------------------------
# physical plans
# ----------------------------------------------------------------------
def _phys() -> Any:
    # lazy: repro.exec.physical imports the optimizer, which imports
    # this package — resolving at call time breaks the cycle
    from ..exec import physical

    return physical


#: physical operators the AU engines may not contain: a bare LIMIT over
#: uncertain data lowers to the identity, the only sound choice
_AU_FORBIDDEN = ("Limit",)
#: operators whose result is not a union of their results over a
#: partitioning of the input: never fed by a region's morsels (a Cpr
#: join's buckets depend on its whole input)
_NON_LINEAR = (
    "HashAggregate",
    "HashDistinct",
    "HashExcept",
    "TopK",
    "Limit",
    "CompressedJoin",
)
#: operators only the AU lowering may produce, and why
_DET_FORBIDDEN = {
    "CompressedJoin": "compression (Cpr) only applies to AU annotations",
    "AUPartialAggregate": (
        "SG-combine partial states only exist in the AU lowering"
    ),
}

_MERGE_KINDS = ("concat", "aggregate", "topk", "limit", "distinct", "au_aggregate", "au_topk")
#: merge kinds whose partial/merge protocol is engine-specific; "concat"
#: is the shared linear-region merge and legal for both engines
_DET_MERGE_KINDS = ("aggregate", "topk", "limit", "distinct")
_AU_MERGE_KINDS = ("au_aggregate", "au_topk")

#: comparison kinds a chunk-skip constraint may carry — the ops
#: :func:`repro.db.chunks.derive_skip` knows zone-map rules for
_SKIP_OPS = ("le", "lt", "ge", "gt", "eq", "ne", "isnull", "notnull")

#: distinguishes "config has no chunk_size attribute" (older configs,
#: ad-hoc test doubles — skip the alignment check) from an explicit None
_UNSET = object()


def _node_name(node: Any) -> str:
    return type(node).__name__


def infer_physical(pplan: Any, catalog: Any = None) -> Optional[Schema]:
    """Bottom-up :class:`Schema` of a physical plan (``None`` = unknown).

    Each physical node dispatches to the shape rule of
    :mod:`repro.analysis.schema` that :func:`infer_logical` uses for
    the same operator, so both IRs raise the same diagnostics:
    ``FusedSelectProject`` is select then project, the three joins are
    join (plus their own equi-key side check), ``HashAggregate`` /
    ``AUPartialAggregate`` are aggregate (a partial one has no HAVING),
    ``HashExcept`` / ``Concat`` are set operations and ``TopK`` is
    order keys.
    """
    phys = _phys()

    def visit(node: Any) -> Optional[Schema]:
        if isinstance(node, (phys.Scan, phys.ParallelScan)):
            return table_schema(node.table, catalog)
        if isinstance(node, phys.FusedSelectProject):
            child = visit(node.child)
            if node.condition is not None:
                select_shape(child, node.condition, "FusedSelectProject filter")
            if node.columns is None:
                return child
            return project_shape(child, node.columns, "FusedSelectProject")
        if isinstance(node, phys.Rename):
            return rename_shape(visit(node.child), node.mapping)
        if isinstance(node, (phys.HashJoin, phys.NLJoin, phys.CompressedJoin)):
            left, right = visit(node.left), visit(node.right)
            name = _node_name(node)
            if isinstance(node, phys.HashJoin):
                pairs = node.eq_pairs
            elif isinstance(node, phys.CompressedJoin):
                pairs = (node.pair,)
            else:
                pairs = ()
            for a, b in pairs:
                for key, side, schema in ((a, "left", left), (b, "right", right)):
                    if schema is not None and key not in schema:
                        raise PlanReferenceError(
                            f"{name} equi key {key!r} not in {side} input "
                            f"columns {sorted(schema.names)}"
                        )
            return join_shape(left, right, node.condition, name)
        if isinstance(node, (phys.HashAggregate, phys.AUPartialAggregate)):
            # a partial aggregate's HAVING runs at the merge
            having: Optional[Expression] = None
            if isinstance(node, phys.HashAggregate) and not node.partial:
                having = node.having
            return aggregate_shape(
                visit(node.child),
                node.group_by,
                node.aggregates,
                having,
                _node_name(node),
            )
        if isinstance(node, (phys.HashExcept, phys.Concat)):
            op = "difference" if isinstance(node, phys.HashExcept) else "union"
            return set_op_shape(op, visit(node.left), visit(node.right))
        if isinstance(node, phys.TopK):
            return order_shape(visit(node.child), node.keys, "TopK")
        if isinstance(node, (phys.HashDistinct, phys.Limit)):
            return visit(node.child)
        if isinstance(node, phys.Exchange):
            if node.merge in _AU_MERGE_KINDS and node.final is not None:
                # the AU merge finalizes the original serial operator's
                # output shape (its child carries partial state)
                return visit(node.final)
            return visit(node.child)
        return None

    return visit(pplan)


def verify_physical(
    pplan: Any,
    catalog: Any = None,
    config: Any = None,
) -> Optional[Schema]:
    """Verify a lowered physical plan; returns its inferred schema.

    ``config`` is the :class:`~repro.exec.physical.PhysicalConfig` the
    plan was lowered with (``None`` = check only engine-independent
    invariants).  Checks, beyond :func:`infer_physical`'s per-node
    schema consistency:

    * engine-legal operators — an AU plan may not contain ``Limit``
      (a bare AU ``LIMIT`` is the identity); a deterministic plan may
      not contain ``CompressedJoin`` or ``AUPartialAggregate``;
    * ``HashAggregate`` — in an AU plan ``buckets`` is ``None`` or a
      positive bucket count and the node is never ``partial``; in a
      deterministic plan ``buckets`` is ``None``;
    * ``Exchange`` placement — a known, engine-matching merge kind
      (the SG-combine kinds ``au_aggregate`` / ``au_topk`` only in AU
      plans, the det partial-state kinds only in det plans),
      merge-specific child and ``final`` operator shapes, partial
      ``HashAggregate`` only directly under
      ``Exchange(merge="aggregate")`` with its ``having`` deferred to
      the final operator, ``AUPartialAggregate`` only directly under
      ``Exchange(merge="au_aggregate")`` (whose ``final`` is the serial
      ``HashAggregate``), and **no non-linear operator**
      (``HashAggregate``, ``HashDistinct``, ``HashExcept``, ``TopK``,
      ``Limit``, ``CompressedJoin``) **fed by a region's morsels** — the
      non-linear fragment is not partition-distributive and must stay
      serial;
    * parallel regions — exactly one ``ParallelScan`` per ``Exchange``
      region with matching ``partitions``; no ``ParallelScan`` outside a
      region; no nested ``Exchange``;
    * ``Cpr`` budgets — every ``CompressedJoin`` carries a resolved
      positive bucket count;
    * chunked-storage invariants — scan ``chunk_size`` values are legal,
      a ``ParallelScan``'s ``chunk_size`` matches the config it was
      lowered with (so Exchange morsels align with the table's chunk
      boundaries), and chunk-skip predicates use only the supported
      comparison kinds over zone-mapped (real) columns of the scanned
      table, with every template atom reading a parameter the
      statement declares.
    """
    phys = _phys()
    engine = getattr(config, "engine", None)
    # the statement's parameter keys, collected once a template needs them
    declared = cache(lambda: set(collect_plan_parameters(pplan)))

    au_forbidden = tuple(getattr(phys, n) for n in _AU_FORBIDDEN)
    non_linear = tuple(getattr(phys, n) for n in _NON_LINEAR)

    def visit(node: Any, in_region: bool) -> None:
        name = _node_name(node)
        if engine == "au" and isinstance(node, au_forbidden):
            raise PlanCompatibilityError(
                f"{name} is not a legal AU operator: a bare LIMIT over "
                "uncertain data lowers to the identity"
            )
        if engine == "det" and name in _DET_FORBIDDEN:
            raise PlanCompatibilityError(
                f"{name} in a deterministic plan: {_DET_FORBIDDEN[name]}"
            )
        if (
            in_region
            and isinstance(node, non_linear)
            and any(isinstance(n, phys.ParallelScan) for n in node.walk())
        ):
            # a non-linear operator on a partition-invariant branch is
            # evaluated once, serially, in the parent — legal; one fed by
            # the region's morsels would see partial inputs
            raise PlanCompatibilityError(
                f"{name} inside an Exchange region on the partitioned "
                "spine: the non-linear fragment is not "
                "partition-distributive and must stay serial"
            )
        if isinstance(node, phys.CompressedJoin):
            if not isinstance(node.buckets, int) or node.buckets < 1:
                raise PlanCompatibilityError(
                    f"CompressedJoin has unresolved Cpr budget "
                    f"{node.buckets!r}; lowering must fix a positive "
                    "bucket count"
                )
        if isinstance(node, phys.HashAggregate):
            _check_aggregate(node)
            if node.partial:
                # reachable only via Exchange's special-cased recursion
                raise PlanCompatibilityError(
                    "partial HashAggregate without a merging Exchange: "
                    "partial aggregation states are only legal directly "
                    'under Exchange(merge="aggregate")'
                )
        if isinstance(node, phys.AUPartialAggregate):
            # reachable only via Exchange's special-cased recursion below
            raise PlanCompatibilityError(
                "AUPartialAggregate without a merging Exchange: "
                "SG-combine partial states are only legal directly "
                'under Exchange(merge="au_aggregate")'
            )
        if isinstance(node, (phys.Scan, phys.ParallelScan)):
            _check_scan_storage(node)
        if isinstance(node, phys.ParallelScan):
            if not in_region:
                raise PlanCompatibilityError(
                    "ParallelScan outside an Exchange region: morsel "
                    "scans need a merge point"
                )
            return
        if isinstance(node, phys.Exchange):
            _check_exchange(node, in_region)
            return
        for child in node.children():
            visit(child, in_region)

    def _check_aggregate(node: Any) -> None:
        if engine == "det" and node.buckets is not None:
            raise PlanCompatibilityError(
                f"HashAggregate with a Cpr budget ({node.buckets!r}) in a "
                "deterministic plan: compression only applies to AU "
                "annotations"
            )
        if engine == "au" and node.partial:
            raise PlanCompatibilityError(
                "partial HashAggregate in an AU plan: per-morsel AU "
                "aggregation state is an AUPartialAggregate"
            )
        if node.buckets is not None and (
            not isinstance(node.buckets, int) or node.buckets < 1
        ):
            raise PlanCompatibilityError(
                f"HashAggregate has unresolved Cpr budget {node.buckets!r}; "
                "lowering must fix a positive bucket count or None"
            )

    def _check_scan_storage(node: Any) -> None:
        # lazy for the same cycle reason as _phys(): repro.db.chunks
        # triggers repro.exec, which imports the optimizer, which
        # imports this package
        from ..db.chunks import ChunkSkipPredicate, resolve_chunk_size

        name = _node_name(node)
        try:
            resolve_chunk_size(node.chunk_size)
        except ValueError as exc:
            raise PlanCompatibilityError(
                f"{name} on {node.table!r}: {exc}"
            ) from None
        cfg_size = getattr(config, "chunk_size", _UNSET)
        if (
            cfg_size is not _UNSET
            and isinstance(node, phys.ParallelScan)
            and node.chunk_size != cfg_size
        ):
            raise PlanCompatibilityError(
                f"ParallelScan on {node.table!r} carries chunk_size "
                f"{node.chunk_size!r} but the plan was lowered with "
                f"config.chunk_size {cfg_size!r}: Exchange morsels would "
                "not align with the table's chunk boundaries"
            )
        skip = getattr(node, "skip", None)
        if skip is None:
            return
        if not isinstance(skip, ChunkSkipPredicate):
            raise PlanCompatibilityError(
                f"{name} on {node.table!r} carries a non-predicate skip "
                f"object {type(skip).__name__}"
            )
        schema = table_schema(node.table, catalog)
        for c in skip.constraints:
            if c.slot is not None and c.slot not in declared():
                raise PlanReferenceError(
                    f"chunk-skip template {c.text!r} on {node.table!r} "
                    f"reads parameter {c.slot!r}, which the statement "
                    f"does not declare; declared: "
                    f"{sorted(declared(), key=str)}"
                )
            if c.op not in _SKIP_OPS:
                raise PlanCompatibilityError(
                    f"chunk-skip constraint {c.text!r} on {node.table!r} "
                    f"uses unknown comparison {c.op!r}; zone maps support "
                    f"{list(_SKIP_OPS)}"
                )
            if schema is not None and c.column not in schema:
                raise PlanReferenceError(
                    f"chunk-skip constraint references {c.column!r}, "
                    f"which is not a zone-mapped column of "
                    f"{node.table!r}; available columns: "
                    f"{sorted(schema.names)}"
                )

    def _check_exchange(node: Any, in_region: bool) -> None:
        if in_region:
            raise PlanCompatibilityError(
                "nested Exchange: parallel regions do not nest"
            )
        if node.merge not in _MERGE_KINDS:
            raise PlanCompatibilityError(
                f"unknown Exchange merge kind {node.merge!r}; "
                f"expected one of {list(_MERGE_KINDS)}"
            )
        if engine == "au" and node.merge in _DET_MERGE_KINDS:
            raise PlanCompatibilityError(
                f'Exchange(merge="{node.merge}") in an AU plan: AU '
                "regions merge through the SG-combine-aware kinds "
                f"{list(_AU_MERGE_KINDS)} (or concat)"
            )
        if engine == "det" and node.merge in _AU_MERGE_KINDS:
            raise PlanCompatibilityError(
                f'Exchange(merge="{node.merge}") in a deterministic '
                "plan: SG-combine merges only exist in the AU lowering"
            )
        if not isinstance(node.partitions, int) or node.partitions < 2:
            raise PlanCompatibilityError(
                f"Exchange with {node.partitions!r} partitions: a "
                "parallel region needs at least 2"
            )
        parallelism = getattr(config, "parallelism", None)
        if parallelism is not None and node.partitions > parallelism:
            # adaptive morsel sizing may choose *fewer* partitions than
            # config.parallelism (small driver tables), never more
            raise PlanCompatibilityError(
                f"Exchange partitions {node.partitions} exceed "
                f"config.parallelism {parallelism}"
            )
        child, final = node.child, node.final
        if node.merge == "concat":
            if final is not None:
                raise PlanCompatibilityError(
                    'Exchange(merge="concat") must not carry a final '
                    f"operator, has {_node_name(final)}"
                )
        elif node.merge in _AU_MERGE_KINDS:
            if node.merge == "au_aggregate":
                serial = "HashAggregate"
                ok = isinstance(final, phys.HashAggregate)
            else:
                serial = "TopK"
                ok = isinstance(final, phys.TopK)
            if not ok:
                raise PlanCompatibilityError(
                    f'Exchange(merge="{node.merge}") requires the original '
                    f"serial {serial} as its final operator, has "
                    f"{_node_name(final) if final is not None else None!r}"
                )
            if node.merge == "au_aggregate":
                _check_aggregate(final)
                if not isinstance(child, phys.AUPartialAggregate):
                    raise PlanCompatibilityError(
                        'Exchange(merge="au_aggregate") requires an '
                        "AUPartialAggregate child computing per-partition "
                        f"SG-combine state, has {_node_name(child)}"
                    )
        else:
            shapes = {
                "aggregate": phys.HashAggregate,
                "topk": phys.TopK,
                "limit": phys.Limit,
                "distinct": phys.HashDistinct,
            }
            shape = shapes[node.merge]
            if not isinstance(child, shape):
                raise PlanCompatibilityError(
                    f'Exchange(merge="{node.merge}") requires a '
                    f"{shape.__name__} child computing per-partition "
                    f"state, has {_node_name(child)}"
                )
            if final is None or not isinstance(final, shape):
                raise PlanCompatibilityError(
                    f'Exchange(merge="{node.merge}") requires a '
                    f"{shape.__name__} final operator, has "
                    f"{_node_name(final) if final is not None else None!r}"
                )
            if node.merge == "aggregate":
                _check_aggregate(child)
                _check_aggregate(final)
                if not child.partial:
                    raise PlanCompatibilityError(
                        'Exchange(merge="aggregate") child must be a '
                        "partial HashAggregate"
                    )
                if child.having is not None:
                    raise PlanCompatibilityError(
                        "partial HashAggregate must defer HAVING to the "
                        "Exchange's final operator"
                    )
                if final.partial:
                    raise PlanCompatibilityError(
                        'Exchange(merge="aggregate") final operator must '
                        "be the non-partial HashAggregate"
                    )
        # walk the region body; `final` is the original serial operator
        # over the pre-parallel subtree (the region minus its
        # ParallelScan), so it is checked shallowly above and never
        # recursed into
        region_root = child
        if node.merge == "aggregate" and isinstance(child, phys.HashAggregate):
            # the partial aggregate itself is legal here; descend past it
            region_root = child.child
        elif node.merge == "au_aggregate" and isinstance(
            child, phys.AUPartialAggregate
        ):
            region_root = child.child
        elif node.merge in ("topk", "limit", "distinct"):
            region_root = child.child
        scans = [
            n
            for n in region_root.walk()
            if isinstance(n, phys.ParallelScan)
        ]
        if len(scans) != 1:
            raise PlanCompatibilityError(
                f"Exchange region must contain exactly one ParallelScan, "
                f"found {len(scans)}"
            )
        if scans[0].partitions != node.partitions:
            raise PlanCompatibilityError(
                f"ParallelScan partitions {scans[0].partitions} do not "
                f"match Exchange partitions {node.partitions}"
            )
        visit(region_root, True)

    visit(pplan, False)
    if engine is not None and engine not in ("det", "au"):
        raise PlanCompatibilityError(f"unknown engine {engine!r}")
    return infer_physical(pplan, catalog)

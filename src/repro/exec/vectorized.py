"""Vectorized interpreters for physical plans, for both engines.

This module is the columnar *runtime* of the execution stack: it
interprets the physical plans produced by
:func:`repro.exec.physical.lower` over :mod:`repro.exec.batch` columns.
Since PR 4 it makes **no physical decisions of its own** — the join
algorithm (``HashJoin`` vs ``NLJoin`` vs ``CompressedJoin``), the AU
tuple-operator fallback boundaries (``TupleFallback`` nodes), and the
parallel region shape (``ParallelScan``/``Exchange``) all arrive
pre-chosen in the plan; the per-node ``isinstance``-fallback dispatch of
PR 3 is gone.

Operator implementations:

* **scans** read the base relation's chunk store
  (:mod:`repro.db.chunks`), whole or one chunk at a time;
* **selection/projection** run fused compiled loops
  (:mod:`repro.exec.compile`) — a ``FusedSelectProject`` filters and
  gathers survivors in one pass;
* **hash equi-joins** bucket raw key values exactly like the tuple
  engine's dict (identity-or-equality lookup), so both join algorithms
  agree with the tuple engine bit-for-bit; a table whose build keys are
  unique is probed by one ``map(dict.get)``, and when every probe row
  hits (a key–FK join) the probe columns pass through ungathered;
  the AU ``HashJoin`` is the
  certain-key hash + interval nested-loop split, the AU
  ``CompressedJoin`` the columnar Section 10.4 join of
  :mod:`repro.exec.compressed_join`;
* **hash aggregation** groups once — one hash pass from each group key
  to its rows, in first-appearance order — then folds each aggregate's
  input column per group with one call of its det ``fold`` in the
  aggregate registry (:data:`repro.core.aggregation.AGGREGATES`;
  functions without one fold through their ``step``); SUM/AVG/COUNT
  fold int and finite-float columns in C
  (:func:`repro.core.sums.add_products`) into exact sums, so
  floating-point results are bit-identical across backends, plan
  shapes, and parallelism (``partial`` mode emits the mergeable states
  for the morsel-parallel :class:`~repro.exec.physical.Exchange`);
* **AU aggregation** is the columnar Section 9 / 10.5 operator of
  :mod:`repro.exec.au_aggregate` over the registry's AU states — serial,
  or as its member fold per morsel under an ``au_aggregate`` Exchange;
* **top-k / limit / difference** (and the AU ``distinct``) materialize
  and reuse the engines' exact operators — now as explicit plan nodes
  rather than hidden delegation.

Results are *identical* to the tuple interpreters — the differential
fuzzer cross-checks both backends, both engines, legacy-vs-physical
lowering, and parallelism 1 vs 4.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import repeat
from operator import itemgetter, mul
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

from .. import telemetry as _tm
from ..core import operators as ops
from ..db import chunks as _chunks
from ..core.aggregation import AGGREGATES
from ..core.sums import folds_in_c
from ..core.expressions import Expression, RowView, Var
from ..core.relation import AUDatabase, AURelation
from ..db.storage import DetDatabase, DetRelation
from . import physical as phys
from .au_aggregate import aggregate_batch, fold_partial_groups
from .batch import AUColumnBatch, BatchRowView, ColumnBatch
from .compile import (
    CompileError,
    compile_filter,
    compile_projector,
    compile_range_filter,
    compile_range_pair_filter,
)
from .compressed_join import compressed_join

__all__ = [
    "execute_det",
    "execute_audb",
    "PartialAggregate",
    "AUPartialGroups",
    "DeltaFoldError",
    "JoinTable",
    "build_join_table",
    "probe_join_table",
    "build_au_join_table",
    "fold_delta_groups",
    "finalize_delta_groups",
]


#: Grace-style partition-hash joins executed (both sides split by key
#: hash because the build side exceeded PARTITION_HASH_BUILD_ROWS)
_PARTITIONED_JOINS = _tm.get_registry().counter(
    "repro_exec_partition_hash_joins_total",
    "Deterministic hash joins executed in Grace partition-hash mode.",
)


def _index_of(schema: Sequence[str]) -> Dict[str, int]:
    return {name: j for j, name in enumerate(schema)}


def _picker(rows: Optional[Sequence[int]]) -> Callable[[Sequence], Sequence]:
    """Gather ``rows`` of a column: one C-level ``itemgetter`` (a tuple)
    for two or more rows — ``itemgetter()`` raises without rows and
    returns a bare value with one, so fewer rows take a list; ``None``
    (every row) returns the column itself."""
    if rows is None:
        return _whole
    if len(rows) > 1:
        return itemgetter(*rows)
    return lambda col: [col[i] for i in rows]


def _whole(col: Sequence) -> Sequence:
    return col


def _gather(columns: Sequence, rows: Sequence[int]) -> List:
    pick = _picker(rows)
    return [pick(col) for col in columns]


def _folded_in_c(fn, values: Sequence, weights: Sequence[int]) -> bool:
    """Whether ``fn``'s det ``fold`` of one group ran in C: a registry
    ``fold`` over no exact sum, or one whose exact sum
    :func:`~repro.core.sums.add_products` takes without its per-value
    loop — never the default ``step`` loop."""
    if fn.det.fold is None:
        return False
    return fn.det_sum is None or folds_in_c(values, weights)


def _compiled(compiler: Callable, condition: Expression, *schemas):
    """``compiler(condition, *schemas)``, or ``None`` when the condition
    has to be interpreted; the open operator span records which, and the
    :class:`CompileError` reason."""
    try:
        kernel = compiler(condition, *schemas)
    except CompileError as exc:
        if _tm._ACTIVE is not None:
            _tm.annotate(kernel="interpreted", kernel_reason=str(exc))
        return None
    if _tm._ACTIVE is not None:
        _tm.annotate(kernel="compiled")
    return kernel


def _annotate_natives(kernel) -> None:
    """Record on the open operator span how many comparisons a compiled
    det kernel ran as native ``<=``/``==`` (see
    :class:`~repro.exec.compile.DetKernel`)."""
    if kernel is not None and kernel.native_compares is not None:
        _tm.annotate(native_compares=kernel.native_compares)


class PartialAggregate:
    """Mergeable per-morsel aggregation state (parallel plans only).

    ``groups`` maps group-key tuples to one registry
    (:data:`~repro.core.aggregation.AGGREGATES`) det state per
    aggregate; :mod:`repro.exec.parallel` merges the maps exactly and
    finalizes them through the :class:`~repro.exec.physical.Exchange`'s
    final operator.
    """

    __slots__ = ("groups",)

    def __init__(self, groups: Dict[Tuple, List[Any]]) -> None:
        self.groups = groups


class AUPartialGroups:
    """Mergeable per-morsel AU aggregation state (parallel plans only).

    ``groups`` maps SG group-key tuples to
    ``[box, ann_sums, agg_states]`` in the layout of
    :data:`repro.exec.au_aggregate.Groups`;
    :mod:`repro.exec.parallel` merges them in partition order with
    :func:`~repro.exec.au_aggregate.merge_partial_groups` and finalizes
    through :func:`~repro.exec.au_aggregate.finalize_groups`.
    """

    __slots__ = ("groups",)

    def __init__(self, groups: Dict[Tuple, List[Any]]) -> None:
        self.groups = groups


# ======================================================================
# deterministic executor
# ======================================================================
def execute_det(
    pplan: phys.PhysNode,
    db: DetDatabase,
    actuals: Optional[Dict[int, int]] = None,
    pool=None,
) -> DetRelation:
    """Interpret the physical plan ``pplan`` over ``db`` vectorized.

    Semantically identical to the tuple interpreter on the same plan.
    ``actuals`` collects per-node output cardinalities, keyed by both
    the physical node id and its logical source ids (for the two
    ``explain`` renderings).  ``pool`` is an optional persistent
    :class:`repro.exec.parallel.WorkerPool` for Exchange regions.
    """
    return _DetExec(db, actuals, pool=pool).run(pplan)


def _bag_rows(batch: Any) -> Optional[int]:
    """Bag cardinality of an operator result; partial aggregate state
    has none."""
    return sum(batch.mult) if isinstance(batch, ColumnBatch) else None


class _DetExec:
    def __init__(
        self, db, actuals=None, bindings=None, join_tables=None, pool=None
    ) -> None:
        self.db = db
        self.actuals = actuals
        #: persistent worker pool (Connection-owned) for Exchange regions
        self.pool = pool
        #: pre-computed results by node id: partition-invariant subtrees
        #: of a parallel region, and the per-worker morsel of its
        #: ParallelScan (see repro.exec.parallel)
        self.bindings: Dict[int, ColumnBatch] = bindings or {}
        #: pre-built hash tables by HashJoin node id: a parallel region
        #: builds each partition-invariant build side once in the parent
        #: instead of once per morsel
        self.join_tables: Dict[int, JoinTable] = join_tables or {}

    def run(self, pplan: phys.PhysNode) -> DetRelation:
        return self.eval(pplan).to_relation()

    def eval(self, pnode: phys.PhysNode):
        bound = self.bindings.get(id(pnode))
        if bound is not None:
            return bound
        return _tm.run_op(pnode, self._node, (), self.actuals, _bag_rows)

    # -- plan dispatch -------------------------------------------------
    def _node(self, p: phys.PhysNode):
        if isinstance(p, (phys.Scan, phys.ParallelScan)):
            # outside an Exchange binding (serial collapse) a
            # ParallelScan's morsel is the whole table
            return self._scan(p)
        if isinstance(p, phys.FusedSelectProject):
            child = p.child
            if (
                p.condition is not None
                and isinstance(child, (phys.Scan, phys.ParallelScan))
                and id(child) not in self.bindings
            ):
                return self._stream_select_project(p, child)
            return self._select_project(self.eval(p.child), p.condition, p.columns)
        if isinstance(p, phys.HashJoin):
            return self._hash_join(p)
        if isinstance(p, phys.NLJoin):
            joined = self._cross(self.eval(p.left), self.eval(p.right))
            if p.condition is not None:
                joined = self._select_project(joined, p.condition, None)
            return joined
        if isinstance(p, phys.Concat):
            left, right = self.eval(p.left), self.eval(p.right)
            if len(left.schema) != len(right.schema):
                raise ValueError("union requires union-compatible schemas")
            return ColumnBatch(
                left.schema,
                [list(lc) + list(rc) for lc, rc in zip(left.columns, right.columns)],
                list(left.mult) + list(right.mult),
            )
        if isinstance(p, phys.HashDistinct):
            return _dedup_batch(self.eval(p.child))
        if isinstance(p, phys.HashAggregate):
            result = self._aggregate(
                self.eval(p.child), p.group_by, p.aggregates, p.partial
            )
            if not p.partial and p.having is not None:
                result = self._select_project(result, p.having, None)
            return result
        if isinstance(p, phys.Rename):
            batch = self.eval(p.child)
            return ColumnBatch(
                [p.mapping.get(a, a) for a in batch.schema],
                batch.columns,
                batch.mult,
            )
        if isinstance(p, phys.TopK):
            from ..db.engine import _topk

            return ColumnBatch.from_relation(
                _topk(self.eval(p.child).to_relation(), p.keys, p.descending, p.n)
            )
        if isinstance(p, phys.Limit):
            from ..db.engine import _limit

            return ColumnBatch.from_relation(
                _limit(self.eval(p.child).to_relation(), p.n)
            )
        if isinstance(p, phys.TupleFallback):
            if _tm._ACTIVE is not None:
                _tm.annotate(fallback=p.kind, reason=phys.FALLBACK_REASONS.get(p.kind))
            if p.kind == "difference":
                from ..db.engine import _difference

                return ColumnBatch.from_relation(
                    _difference(
                        self.eval(p.inputs[0]).to_relation(),
                        self.eval(p.inputs[1]).to_relation(),
                    )
                )
            raise TypeError(f"unsupported det fallback {p.kind!r}")
        if isinstance(p, phys.Exchange):
            from .parallel import execute_exchange

            return execute_exchange(self, p)
        raise TypeError(f"unsupported physical node {type(p).__name__}")

    # -- operators -----------------------------------------------------
    def _scan(self, p) -> ColumnBatch:
        store = _chunks.det_store(self.db[p.table], p.chunk_size)
        batch, total, skipped = store.scan(p.skip)
        if _tm._ACTIVE is not None:
            _tm.annotate(**_chunks.skip_attrs(p.skip, total, skipped))
        return batch

    def _stream_select_project(
        self, p: phys.FusedSelectProject, scan
    ) -> ColumnBatch:
        """Filter a base table one chunk at a time.

        Bit-identical to filtering the whole-table concatenation
        (chunks in order, survivors gathered in order, the same
        compiled filter), but the working set is one chunk plus the
        survivors — with a selective predicate the full base batch
        never exists, which is what lets scans obey a materialization
        budget the whole table would bust.  Only the columns the fused
        projection references are gathered.
        """
        store = _chunks.det_store(self.db[scan.table], scan.chunk_size)
        tr = _tm._ACTIVE
        span = tr.begin_op(scan) if tr is not None else None
        batches, total, skipped = store.iter_batches(scan.skip)
        scanned = sum(sum(b.mult) for b in batches)
        if span is not None:
            tr.annotate(**_chunks.skip_attrs(scan.skip, total, skipped))
            tr.end_op(span, scanned)
        if self.actuals is not None:
            self.actuals[id(scan)] = scanned
            for src in scan.sources:
                self.actuals[id(src)] = scanned
        condition = p.condition
        schema = store.schema
        gathered = range(len(schema))
        if p.columns is not None:
            names = set().union(*(expr.variables() for expr, _ in p.columns))
            gathered = [j for j, name in enumerate(schema) if name in names]
        flt = _compiled(compile_filter, condition, schema)
        kept_cols: List[List[Any]] = [[] for _ in gathered]
        kept_mult: List[int] = []
        for b in batches:
            n = len(b)
            if flt is not None:
                keep = flt(b.columns, n)
            else:
                view = b.row_view()
                keep = []
                for i in range(n):
                    view.i = i
                    if bool(condition.eval(view)):
                        keep.append(i)
            if len(keep) == n:
                for kc, j in zip(kept_cols, gathered):
                    kc.extend(b.columns[j])
                kept_mult.extend(b.mult)
            else:
                pick = _picker(keep)
                for kc, j in zip(kept_cols, gathered):
                    kc.extend(pick(b.columns[j]))
                kept_mult.extend(pick(b.mult))
        if tr is not None:
            _annotate_natives(flt)
            _tm.annotate(gathered_columns=f"{len(gathered)}/{len(schema)}")
        batch = ColumnBatch([schema[j] for j in gathered], kept_cols, kept_mult)
        if p.columns is None:
            return batch
        return self._select_project(batch, None, p.columns)

    def _select_project(
        self,
        batch: ColumnBatch,
        condition: Optional[Expression],
        columns: Optional[Tuple[Tuple[Expression, str], ...]],
    ) -> ColumnBatch:
        n = len(batch)
        keep: Optional[List[int]] = None
        if condition is not None:
            flt = _compiled(compile_filter, condition, batch.schema)
            if flt is not None:
                keep = flt(batch.columns, n)
                if _tm._ACTIVE is not None:
                    _annotate_natives(flt)
            else:
                view = batch.row_view()
                keep = []
                for i in range(n):
                    view.i = i
                    if bool(condition.eval(view)):
                        keep.append(i)
            if len(keep) == n:
                keep = None

        if columns is None:
            if keep is None:
                return batch
            return ColumnBatch(
                batch.schema,
                _gather(batch.columns, keep),
                _picker(keep)(batch.mult),
            )

        # gather survivors once, then project over the narrowed batch
        if keep is None:
            base_cols, mult, rows = batch.columns, batch.mult, n
        else:
            base_cols = _gather(batch.columns, keep)
            mult = _picker(keep)(batch.mult)
            rows = len(keep)
        index = _index_of(batch.schema)
        out_cols: List = []
        for expr, _name in columns:
            if isinstance(expr, Var) and expr.name in index:
                out_cols.append(base_cols[index[expr.name]])
                continue
            try:
                out_cols.append(
                    compile_projector(expr, batch.schema)(base_cols, rows)
                )
            except CompileError:
                view = BatchRowView(index, base_cols)
                col = []
                for i in range(rows):
                    view.i = i
                    col.append(expr.eval(view))
                out_cols.append(col)
        return ColumnBatch([name for _, name in columns], out_cols, mult)

    def _hash_join(self, p: phys.HashJoin) -> ColumnBatch:
        left, right = self.eval(p.left), self.eval(p.right)
        table = self.join_tables.get(id(p))
        if table is None and p.partitioned:
            return self._partitioned_hash_join(p, left, right)
        l_index = _index_of(left.schema)
        l_cols = [left.columns[l_index[a]] for a, _ in p.eq_pairs]

        if table is None:
            table = build_join_table(right, [b for _, b in p.eq_pairs])
        li, ri, probe = probe_join_table(table, _join_keys(l_cols))
        pick = _picker(ri)
        if li is None:
            # key–FK: every probe row met exactly one build row
            l_out = left.columns
            mult = list(map(mul, left.mult, pick(right.mult)))
        else:
            l_out = _gather(left.columns, li)
            lm, rm = left.mult, right.mult
            mult = [lm[i] * rm[j] for i, j in zip(li, ri)]
        if _tm._ACTIVE is not None:
            _tm.annotate(
                build_rows=len(right),
                build_keys=len(table.rows),
                probe_rows=len(left),
                probe=probe,
                gathered_left=0 if li is None else len(li),
            )
        joined = ColumnBatch(
            tuple(left.schema) + tuple(right.schema),
            list(l_out) + [pick(col) for col in right.columns],
            mult,
        )
        if p.pure_equi:
            # for scalar cell values (numbers/strings/bools/None — the
            # modeled domain of domain_key) a dict bucket match implies
            # every Eq conjunct evaluates true, so re-checking is skipped
            return joined
        # residual conjuncts (the tuple engine evaluates the full
        # condition on every hash match)
        return self._select_project(joined, p.condition, None)

    def _partitioned_hash_join(
        self, p: phys.HashJoin, left: ColumnBatch, right: ColumnBatch
    ) -> ColumnBatch:
        """Grace-style partition-hash join (plan-time decision).

        Both sides are bucketed by the hash of their join key, then each
        bucket builds and probes its own table, so the largest resident
        hash table is ~1/partitions of the build side.  Exact for bags:
        equal keys hash equally, so every matching pair meets in exactly
        one bucket; the output *order* is partition-major rather than
        probe-major, which downstream operators cannot observe (results
        merge into bag relations, and SUM/AVG use regrouping-invariant
        exact accumulation).
        """
        parts = p.hash_partitions
        l_index = _index_of(left.schema)
        r_index = _index_of(right.schema)
        l_cols = [left.columns[l_index[a]] for a, _ in p.eq_pairs]
        r_cols = [right.columns[r_index[b]] for _, b in p.eq_pairs]
        _PARTITIONED_JOINS.inc()
        if _tm._ACTIVE is not None:
            _tm.annotate(
                build_rows=len(right),
                probe_rows=len(left),
                hash_partitions=parts,
            )

        l_buckets: List[List[int]] = [[] for _ in range(parts)]
        r_buckets: List[List[int]] = [[] for _ in range(parts)]
        if len(l_cols) == 1:
            lc, rc = l_cols[0], r_cols[0]
            for i in range(len(left)):
                l_buckets[hash(lc[i]) % parts].append(i)
            for j in range(len(right)):
                r_buckets[hash(rc[j]) % parts].append(j)
        else:
            for i in range(len(left)):
                l_buckets[hash(tuple(c[i] for c in l_cols)) % parts].append(i)
            for j in range(len(right)):
                r_buckets[hash(tuple(c[j] for c in r_cols)) % parts].append(j)

        li: List[int] = []
        ri: List[int] = []
        for b in range(parts):
            build_rows = r_buckets[b]
            probe_rows = l_buckets[b]
            if not build_rows or not probe_rows:
                continue
            table: Dict[Any, List[int]] = {}
            if len(r_cols) == 1:
                rc = r_cols[0]
                for j in build_rows:
                    table.setdefault(rc[j], []).append(j)
                lc = l_cols[0]
                for i in probe_rows:
                    for j in table.get(lc[i], ()):
                        li.append(i)
                        ri.append(j)
            else:
                for j in build_rows:
                    table.setdefault(tuple(c[j] for c in r_cols), []).append(j)
                for i in probe_rows:
                    key = tuple(c[i] for c in l_cols)
                    for j in table.get(key, ()):
                        li.append(i)
                        ri.append(j)

        lm, rm = left.mult, right.mult
        joined = ColumnBatch(
            tuple(left.schema) + tuple(right.schema),
            _gather(left.columns, li) + _gather(right.columns, ri),
            [lm[i] * rm[j] for i, j in zip(li, ri)],
        )
        if p.pure_equi:
            return joined
        return self._select_project(joined, p.condition, None)

    def _cross(self, left: ColumnBatch, right: ColumnBatch) -> ColumnBatch:
        nl, nr = len(left), len(right)
        li = [i for i in range(nl) for _ in range(nr)]
        ri = list(range(nr)) * nl
        lm, rm = left.mult, right.mult
        return ColumnBatch(
            tuple(left.schema) + tuple(right.schema),
            _gather(left.columns, li) + _gather(right.columns, ri),
            [lm[i] * rm[j] for i, j in zip(li, ri)],
        )

    def _aggregate(
        self, batch: ColumnBatch, group_by, aggregates, partial: bool
    ):
        """Hash aggregation, column at a time: one hash pass maps each
        group key to its rows in first-appearance order, then each
        aggregate's input column is folded per group by one registry
        (:data:`~repro.core.aggregation.AGGREGATES`) det ``fold`` call.
        A group holding every row folds the columns themselves."""
        n = len(batch)
        index = _index_of(batch.schema)
        mult = batch.mult

        # aggregate input columns (None: the function takes no input)
        fns = [AGGREGATES[spec.kind] for spec in aggregates]
        inputs: List[Optional[Sequence]] = []
        for spec, fn in zip(aggregates, fns):
            if not fn.takes_input:
                inputs.append(None)
            elif isinstance(spec.expr, Var) and spec.expr.name in index:
                inputs.append(batch.columns[index[spec.expr.name]])
            else:
                try:
                    inputs.append(
                        compile_projector(spec.expr, batch.schema)(batch.columns, n)
                    )
                except CompileError:
                    view = batch.row_view()
                    col = []
                    for i in range(n):
                        view.i = i
                        col.append(spec.expr.eval(view))
                    inputs.append(col)

        # pass 1: group key -> row indices (None: every row); a single
        # GROUP BY column keys on its raw values, wrapped afterwards
        if not group_by:
            keys, members = ([()], [None]) if n else ([], [])
        else:
            group_cols = [batch.columns[index[a]] for a in group_by]
            rows_of: Dict[Any, List[int]] = defaultdict(list)
            single = len(group_cols) == 1
            for i, key in enumerate(group_cols[0] if single else zip(*group_cols)):
                rows_of[key].append(i)
            keys = [(key,) for key in rows_of] if single else list(rows_of)
            members = [None] if len(keys) == 1 else list(rows_of.values())

        # pass 2: fold each aggregate's input column per group
        folds = [
            (fn, fn.det.init, fn.det.column_fold(), col)
            for fn, col in zip(fns, inputs)
        ]
        tracing = _tm._ACTIVE is not None
        in_c = 0
        states: List[List[Any]] = []
        for rows in members:
            pick = _picker(rows)
            weights = pick(mult)
            accs = []
            for fn, init, fold, col in folds:
                values = repeat(None) if col is None else pick(col)
                accs.append(fold(init(), values, weights))
                if tracing:
                    in_c += _folded_in_c(fn, values, weights)
            states.append(accs)
        if tracing:
            _tm.annotate(
                groups=len(keys), column_folds=f"{in_c}/{len(keys) * len(fns)}"
            )

        groups = dict(zip(keys, states))
        if partial:
            return PartialAggregate(groups)
        return finalize_groups(groups, group_by, aggregates)


class JoinTable(NamedTuple):
    """A det hash join's build side: ``rows`` maps each key to its
    build row when ``unique``, else to the list of its build rows."""

    rows: Dict[Any, Any]
    unique: bool


def _join_keys(columns: Sequence[Sequence]) -> Iterable:
    """The raw join key of every row: the cell itself for one key
    column, the tuple of cells for several."""
    return columns[0] if len(columns) == 1 else zip(*columns)


def build_join_table(right: ColumnBatch, key_attrs: Sequence[str]) -> JoinTable:
    """Bucket the build side's raw key values, exactly like the tuple
    engine's dict: Python's identity-or-equality lookup means a bucket
    match implies the Eq conjuncts hold under domain_key comparison
    (including the same-NaN-object identity case), so hash and
    nested-loop plans agree with the tuple engine bit-for-bit.

    When no two build rows share a key — the same identity-or-equality
    test, so ``1``/``1.0``/``True`` collide and two distinct NaN
    objects do not — the table maps each key to its one row
    (``unique``), which :func:`probe_join_table` probes in C."""
    r_index = _index_of(right.schema)
    key_cols = [right.columns[r_index[b]] for b in key_attrs]
    n = len(right)
    rows = dict(zip(_join_keys(key_cols), range(n)))
    if len(rows) == n:
        return JoinTable(rows, True)
    buckets: Dict[Any, List[int]] = {}
    for j, key in enumerate(_join_keys(key_cols)):
        buckets.setdefault(key, []).append(j)
    return JoinTable(buckets, False)


def probe_join_table(
    table: JoinTable, keys: Iterable
) -> Tuple[Optional[List[int]], Sequence[int], str]:
    """The matching ``(probe row, build row)`` pairs of the probe keys,
    probe-major and in build order per probe row, as ``(li, ri,
    probe)``.

    A unique table is probed by one ``map(dict.get)``; when every probe
    row hits, ``li`` is ``None`` — the probe side passes through — and
    ``ri`` the build row of each probe row.  Otherwise the pairs are
    collected row by row.  ``probe`` says which rule ran: ``map`` or
    ``loop``."""
    get = table.rows.get
    if table.unique:
        hits = list(map(get, keys))
        if None not in hits:
            return None, hits, "map"
        li = [i for i, j in enumerate(hits) if j is not None]
        return li, [j for j in hits if j is not None], "map"
    li = []
    ri = []
    for i, key in enumerate(keys):
        for j in get(key, ()):
            li.append(i)
            ri.append(j)
    return li, ri, "loop"


def finalize_groups(
    groups: Dict[Tuple, List[Any]], group_by, aggregates
) -> ColumnBatch:
    """Turn (possibly merged) accumulator state into an output batch;
    no group and no GROUP BY is the one-row empty-input result."""
    out_schema = list(group_by) + [spec.name for spec in aggregates]
    algebras = [AGGREGATES[spec.kind].det for spec in aggregates]
    if not groups and not group_by:
        return ColumnBatch(
            out_schema, [[algebra.empty] for algebra in algebras], [1]
        )
    out_cols: List[List[Any]] = [[] for _ in out_schema]
    base = len(group_by)
    for key, accs in groups.items():
        for g, v in enumerate(key):
            out_cols[g].append(v)
        for a, algebra in enumerate(algebras):
            out_cols[base + a].append(algebra.finalize(accs[a]))
    return ColumnBatch(out_schema, out_cols, [1] * len(groups))


class DeltaFoldError(Exception):
    """A delta cannot be folded into maintained state.

    Raised when only a from-scratch recomputation preserves exactness;
    ``reason`` says which guard fired (the label of
    ``repro_ivm_delta_fold_fallbacks_total``):

    * ``extremum_deleted`` — a delete touching a min/max extremum (the
      runner-up is not maintained);
    * ``non_finite_addend`` — a non-finite float SUM/AVG addend (the
      absorbing IEEE slot is not invertible);
    * ``negative_weight`` — weights folding a group or row negative;
    * ``absent_group`` — a delete from a group the state does not hold;
    * ``self_join`` — a write to a table the view joins with itself;
    * ``state_unavailable`` — the aggregate state was never folded.

    The IVM runtime (:mod:`repro.ivm`) reacts with an epoch-gated full
    refresh — never with an approximate answer.
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


def fold_delta_groups(
    state: Dict[Tuple, List[Any]],
    delta: DetRelation,
    group_by: Sequence[str],
    aggregates,
    sign: int,
) -> None:
    """Fold a per-write delta of the γ input into maintained group state.

    ``state`` maps group keys to ``[weight, accs, float_mults]`` where
    ``accs`` holds one registry (``AGGREGATES``) det state per aggregate
    — what :meth:`_DetExec._aggregate` folds, stepped here with signed
    weights — and ``float_mults`` tracks, per exact-sum aggregate, the
    remaining multiplicity of float-typed addends — the bit that decides
    whether ``finish`` returns the exact ``int`` or the correctly
    rounded ``float``, which pure cancellation could not reconstruct:
    when it returns to zero the remaining multiset is integer-only, the
    float part of the accumulator is an exact zero and is dropped, as a
    from-scratch fold would never have created it.  ``sign`` is +1 for
    inserted delta rows and -1 for deleted ones.
    """
    index = _index_of(delta.schema)
    fns = [AGGREGATES[spec.kind] for spec in aggregates]
    g_idx = [index[a] for a in group_by]
    for t, m in delta.tuples():
        w = m * sign
        key = tuple(t[i] for i in g_idx)
        values: List[Any] = []
        for spec, fn in zip(aggregates, fns):
            if not fn.takes_input:
                values.append(None)
            elif isinstance(spec.expr, Var) and spec.expr.name in index:
                values.append(t[index[spec.expr.name]])
            else:
                values.append(spec.expr.eval(RowView(index, t)))
        entry = state.get(key)
        if entry is None:
            if sign < 0:
                raise DeltaFoldError("absent_group", repr(key))
            entry = state[key] = [
                0, [fn.det.init() for fn in fns], [0] * len(fns)
            ]
        entry[0] += w
        if entry[0] < 0:
            raise DeltaFoldError("negative_weight", f"group {key!r}")
        if entry[0] == 0:
            # the group vanished: from scratch it would not exist at all
            del state[key]
            continue
        accs, float_mults = entry[1], entry[2]
        for a, (spec, fn, v) in enumerate(zip(aggregates, fns, values)):
            if sign < 0 and not fn.invertible:
                # the extremum's runner-up is not maintained, so a
                # delete that ties or beats it needs a rescan
                alone = fn.det.step(fn.det.init(), v, m)
                if fn.det.merge(alone, accs[a]) is alone:
                    raise DeltaFoldError(
                        "extremum_deleted", f"{spec.kind} in {key!r}"
                    )
                continue
            float_addend = fn.det_sum is not None and type(v) is float
            if float_addend and not math.isfinite(v):
                raise DeltaFoldError("non_finite_addend", repr(v))
            accs[a] = fn.det.step(accs[a], v, w)
            if float_addend:
                float_mults[a] += w
                if not float_mults[a]:
                    acc = fn.det_sum(accs[a])
                    acc[1], acc[3] = [], 0


def finalize_delta_groups(
    state: Dict[Tuple, List[Any]], group_by, aggregates, having=None
) -> DetRelation:
    """Finalize maintained group state — the shape a from-scratch
    :meth:`_DetExec._aggregate` pass over the remaining rows would hold
    — through :func:`finalize_groups` and the fused HAVING filter."""
    batch = finalize_groups(
        {key: entry[1] for key, entry in state.items()}, group_by, aggregates
    )
    if having is not None:
        batch = _DetExec(None)._select_project(batch, having, None)
    return batch.to_relation()


def _dedup_batch(batch: ColumnBatch) -> ColumnBatch:
    seen = dict.fromkeys(zip(*batch.columns)) if batch.columns else {}
    rows = list(seen)
    return ColumnBatch(
        batch.schema,
        [list(col) for col in zip(*rows)] if rows else [[] for _ in batch.schema],
        [1] * len(rows) if batch.columns else [1] * min(1, len(batch)),
    )


# ======================================================================
# AU executor
# ======================================================================
def execute_audb(
    pplan: phys.PhysNode,
    db: AUDatabase,
    actuals: Optional[Dict[int, int]] = None,
    pool=None,
) -> AURelation:
    """Interpret the physical plan ``pplan`` over the AU-database ``db``.

    Produces exactly the relation of the tuple interpreter on the same
    plan.  ``TupleFallback`` nodes are the only place a batch becomes a
    relation: they materialize their inputs and call the exact
    :mod:`repro.core` implementations — the boundary was chosen by the
    planner, not here; a ``CompressedJoin`` and a ``HashAggregate`` run
    batch to batch (:mod:`repro.exec.compressed_join`,
    :mod:`repro.exec.au_aggregate`).  ``pool`` is an
    optional persistent :class:`repro.exec.parallel.WorkerPool` for
    Exchange regions.
    """
    return _AUExec(db, actuals, pool=pool).run(pplan)


class _PairView:
    """Valuation over a pair of batch rows (join condition evaluation).

    Attribute names resolve like the tuple engines' combined-schema
    ``RowView``: on duplicate names across the two sides the right side
    wins.
    """

    __slots__ = ("_map", "_lcols", "_rcols", "i", "j")

    def __init__(self, left: AUColumnBatch, right: AUColumnBatch) -> None:
        mapping: Dict[str, Tuple[int, int]] = {}
        for k, name in enumerate(left.schema):
            mapping[name] = (0, k)
        for k, name in enumerate(right.schema):
            mapping[name] = (1, k)
        self._map = mapping
        self._lcols = left.columns
        self._rcols = right.columns
        self.i = 0
        self.j = 0

    def __getitem__(self, name: str):
        side, k = self._map[name]
        if side == 0:
            return self._lcols[k][self.i]
        return self._rcols[k][self.j]


def _au_rows(batch: Any) -> Optional[int]:
    return len(batch) if isinstance(batch, AUColumnBatch) else None


def _au_distinct(batch: Any) -> Optional[int]:
    """Distinct AU-tuples — what the tuple engine records per node."""
    if not isinstance(batch, AUColumnBatch):
        return None
    if batch.columns:
        return len(set(zip(*batch.columns)))
    return min(1, len(batch))


class _AUExec:
    def __init__(
        self, db, actuals=None, bindings=None, join_tables=None, pool=None
    ) -> None:
        self.db = db
        self.actuals = actuals
        #: pre-computed results by node id: partition-invariant subtrees
        #: of a parallel region, and the per-worker morsel of its
        #: ParallelScan (see repro.exec.parallel)
        self.bindings: Dict[int, AUColumnBatch] = bindings or {}
        #: pre-built AU hash tables by HashJoin node id — a parallel
        #: region builds each partition-invariant build side once and
        #: shares it between its morsels
        self.join_tables: Dict[int, Tuple] = join_tables or {}
        #: persistent worker pool (Connection-owned) for Exchange regions
        self.pool = pool

    def run(self, pplan: phys.PhysNode):
        return self.eval(pplan).to_relation()

    def eval(self, pnode: phys.PhysNode) -> AUColumnBatch:
        bound = self.bindings.get(id(pnode))
        if bound is not None:
            return bound
        return _tm.run_op(
            pnode, self._node, (), self.actuals, _au_rows, _au_distinct
        )

    def _materialize(self, pnode: phys.PhysNode):
        return self.eval(pnode).to_relation()

    # -- plan dispatch -------------------------------------------------
    def _node(self, p: phys.PhysNode) -> AUColumnBatch:
        if isinstance(p, (phys.Scan, phys.ParallelScan)):
            # outside an Exchange binding (serial collapse) a
            # ParallelScan's morsel is the whole table
            return self._scan(p)
        if isinstance(p, phys.FusedSelectProject):
            if (
                p.condition is not None
                and isinstance(p.child, (phys.Scan, phys.ParallelScan))
                and id(p.child) not in self.bindings
            ):
                return self._stream_select_project(p, p.child)
            batch = self.eval(p.child)
            if p.condition is not None:
                batch = self._selection(batch, p.condition)
            if p.columns is not None:
                batch = self._projection(batch, p.columns)
            return batch
        if isinstance(p, phys.HashJoin):
            return self._hash_join(p)
        if isinstance(p, phys.NLJoin):
            return self._nl_join(p)
        if isinstance(p, phys.CompressedJoin):
            return compressed_join(
                self.eval(p.left),
                self.eval(p.right),
                p.condition,
                p.pair[0],
                p.pair[1],
                p.buckets,
                self._emit_pairs,
            )
        if isinstance(p, phys.Concat):
            left, right = self.eval(p.left), self.eval(p.right)
            if len(left.schema) != len(right.schema):
                raise ValueError("union requires union-compatible schemas")
            return left.concat(right)
        if isinstance(p, phys.Rename):
            batch = self.eval(p.child)
            return AUColumnBatch(
                [p.mapping.get(a, a) for a in batch.schema],
                batch.columns,
                batch.ann_lb,
                batch.ann_sg,
                batch.ann_ub,
            )
        if isinstance(p, phys.HashAggregate):
            result = aggregate_batch(
                self.eval(p.child), p.group_by, p.aggregates, p.buckets
            )
            if p.having is not None:
                result = self._selection(result, p.having)
            return result
        if isinstance(p, phys.TupleFallback):
            return self._fallback(p)
        if isinstance(p, phys.AUPartialAggregate):
            # raises UncertainGroupError on an uncertain group-by value:
            # the Exchange then re-runs its serial final operator
            return AUPartialGroups(
                fold_partial_groups(self.eval(p.child), p.group_by, p.aggregates)
            )
        if isinstance(p, phys.Exchange):
            from .parallel import execute_exchange

            return execute_exchange(self, p)
        raise TypeError(f"unsupported physical node {type(p).__name__}")

    def _fallback(self, p: phys.TupleFallback) -> AUColumnBatch:
        """SG-combining semantics: the planner routed this node to the
        exact tuple operators over materialized inputs."""
        node = p.logical
        if _tm._ACTIVE is not None:
            _tm.annotate(fallback=p.kind, reason=phys.FALLBACK_REASONS.get(p.kind))
        if p.kind == "difference":
            result = ops.difference(
                self._materialize(p.inputs[0]), self._materialize(p.inputs[1])
            )
        elif p.kind == "distinct":
            result = ops.distinct(self._materialize(p.inputs[0]))
        elif p.kind == "topk":
            result = ops.au_topk(
                self._materialize(p.inputs[0]),
                node.keys,
                node.descending,
                node.n,
            )
        else:
            raise TypeError(f"unsupported AU fallback {p.kind!r}")
        return AUColumnBatch.from_relation(result)

    # -- operators -----------------------------------------------------
    def _scan(self, p: phys.Scan) -> AUColumnBatch:
        store = _chunks.au_store(self.db[p.table], p.chunk_size)
        batch, total, skipped = store.scan(p.skip)
        if _tm._ACTIVE is not None:
            _tm.annotate(**_chunks.skip_attrs(p.skip, total, skipped))
        return batch

    def _stream_select_project(
        self, p: phys.FusedSelectProject, scan: phys.Scan
    ) -> AUColumnBatch:
        """Chunk-at-a-time selection over an AU base table (the AU
        mirror of ``_DetExec._stream_select_project``); row-local
        selection commutes with chunk order, so the result is
        bit-identical to filtering the whole-table concatenation."""
        store = _chunks.au_store(self.db[scan.table], scan.chunk_size)
        tr = _tm._ACTIVE
        span = tr.begin_op(scan) if tr is not None else None
        chunks, total, skipped = store.survivors(scan.skip)
        # base-table AU tuples are distinct by construction, so the
        # scan's distinct-tuple actual is just the surviving row count
        scanned = sum(len(ch) for ch in chunks)
        if not store.schema:
            scanned = min(1, scanned)
        if span is not None:
            tr.annotate(**_chunks.skip_attrs(scan.skip, total, skipped))
            tr.end_op(span, scanned)
        if self.actuals is not None:
            self.actuals[id(scan)] = scanned
            for src in scan.sources:
                self.actuals[id(src)] = scanned
        schema = store.schema
        condition = p.condition
        kernel = _compiled(compile_range_filter, condition, schema)
        cols: List[List[Any]] = [[] for _ in schema]
        ann_lb: List[int] = []
        ann_sg: List[int] = []
        ann_ub: List[int] = []
        for ch in chunks:
            if kernel is not None:
                keep, lb, sg, ub = kernel(
                    ch.rv_cols, ch.ann_lb, ch.ann_sg, ch.ann_ub, len(ch)
                )
            else:
                keep, lb, sg, ub = _interpret_selection(
                    ch.batch(schema), condition
                )
            for out, col in zip(cols, ch.rv_cols):
                out.extend([col[i] for i in keep])
            ann_lb.extend(lb)
            ann_sg.extend(sg)
            ann_ub.extend(ub)
        batch = AUColumnBatch(schema, cols, ann_lb, ann_sg, ann_ub)
        if p.columns is not None:
            batch = self._projection(batch, p.columns)
        return batch

    def _selection(self, batch: AUColumnBatch, condition: Expression) -> AUColumnBatch:
        kernel = _compiled(compile_range_filter, condition, batch.schema)
        if kernel is not None:
            keep, ann_lb, ann_sg, ann_ub = kernel(
                batch.columns, batch.ann_lb, batch.ann_sg, batch.ann_ub, len(batch)
            )
        else:
            keep, ann_lb, ann_sg, ann_ub = _interpret_selection(batch, condition)
        return AUColumnBatch(
            batch.schema, _gather(batch.columns, keep), ann_lb, ann_sg, ann_ub
        )

    def _projection(self, batch: AUColumnBatch, columns) -> AUColumnBatch:
        n = len(batch)
        index = _index_of(batch.schema)
        out_cols: List = []
        for expr, _name in columns:
            if isinstance(expr, Var) and expr.name in index:
                out_cols.append(batch.columns[index[expr.name]])
                continue
            view = batch.row_view()
            eval_range = expr.eval_range
            col = []
            for i in range(n):
                view.i = i
                col.append(eval_range(view))
            out_cols.append(col)
        return AUColumnBatch(
            [name for _, name in columns],
            out_cols,
            batch.ann_lb,
            batch.ann_sg,
            batch.ann_ub,
        )

    def _nl_join(self, p: phys.NLJoin) -> AUColumnBatch:
        left, right = self.eval(p.left), self.eval(p.right)
        if p.check_overlap:
            overlap = set(left.schema) & set(right.schema)
            if overlap:
                raise ValueError(
                    f"cross product with overlapping attributes "
                    f"{sorted(overlap)}; rename first"
                )
        nl, nr = len(left), len(right)
        li = [i for i in range(nl) for _ in range(nr)]
        ri = list(range(nr)) * nl
        return self._emit_pairs(left, right, li, ri, p.condition)

    def _hash_join(self, p: phys.HashJoin) -> AUColumnBatch:
        left, right = self.eval(p.left), self.eval(p.right)
        condition = p.condition
        l_index, r_index = _index_of(left.schema), _index_of(right.schema)
        l_key_cols = [left.columns[l_index[a]] for a, _ in p.eq_pairs]
        r_key_cols = [right.columns[r_index[b]] for _, b in p.eq_pairs]
        pure_equi = p.pure_equi

        table = self.join_tables.get(id(p))
        if table is None:
            table = build_au_join_table(right, [b for _, b in p.eq_pairs])
        certain_right, certain_right_rows, uncertain_right = table
        if _tm._ACTIVE is not None:
            _tm.annotate(
                build_rows=len(right),
                build_keys=len(certain_right),
                probe_rows=len(left),
                uncertain_build_rows=len(uncertain_right),
            )

        fast_li: List[int] = []
        fast_ri: List[int] = []
        theta_li: List[int] = []
        theta_ri: List[int] = []
        for i in range(len(left)):
            keyvals = [c[i] for c in l_key_cols]
            if all(v.is_certain for v in keyvals):
                matches = certain_right.get(tuple(v.sg for v in keyvals))
                if matches:
                    if pure_equi:
                        for j in matches:
                            fast_li.append(i)
                            fast_ri.append(j)
                    else:
                        for j in matches:
                            theta_li.append(i)
                            theta_ri.append(j)
            else:
                # uncertain left key: may match any certain right tuple
                for j in certain_right_rows:
                    if ops._key_overlaps(keyvals, [c[j] for c in r_key_cols]):
                        theta_li.append(i)
                        theta_ri.append(j)
            for j in uncertain_right:
                if ops._key_overlaps(keyvals, [c[j] for c in r_key_cols]):
                    theta_li.append(i)
                    theta_ri.append(j)

        fast = self._emit_pairs(left, right, fast_li, fast_ri, None)
        if not theta_li:
            return fast
        checked = self._emit_pairs(left, right, theta_li, theta_ri, condition)
        return fast.concat(checked)

    def _emit_pairs(
        self,
        left: AUColumnBatch,
        right: AUColumnBatch,
        li: List[int],
        ri: List[int],
        condition: Optional[Expression],
    ) -> AUColumnBatch:
        """Combine row pairs, multiplying annotations in ``K^AU``.

        With ``condition`` the pair annotation is additionally multiplied
        by ``M_N(θ)`` and pairs that are certainly non-matching
        (``ub == 0``) are dropped.
        """
        llb, lsg, lub = left.ann_lb, left.ann_sg, left.ann_ub
        rlb, rsg, rub = right.ann_lb, right.ann_sg, right.ann_ub
        schema = tuple(left.schema) + tuple(right.schema)
        if condition is None:
            return AUColumnBatch(
                schema,
                _gather(left.columns, li) + _gather(right.columns, ri),
                [llb[i] * rlb[j] for i, j in zip(li, ri)],
                [lsg[i] * rsg[j] for i, j in zip(li, ri)],
                [lub[i] * rub[j] for i, j in zip(li, ri)],
            )
        kernel = _compiled(
            compile_range_pair_filter, condition, left.schema, right.schema
        )
        if kernel is not None:
            keep_l, keep_r, ann_lb, ann_sg, ann_ub = kernel(
                left.columns, right.columns, li, ri, llb, lsg, lub, rlb, rsg, rub
            )
        else:
            keep_l, keep_r, ann_lb, ann_sg, ann_ub = _interpret_pairs(
                left, right, li, ri, condition
            )
        return AUColumnBatch(
            schema,
            _gather(left.columns, keep_l) + _gather(right.columns, keep_r),
            ann_lb,
            ann_sg,
            ann_ub,
        )


def _interpret_pairs(
    left: AUColumnBatch,
    right: AUColumnBatch,
    li: Iterable[int],
    ri: Iterable[int],
    condition: Expression,
) -> Tuple[List[int], List[int], List[int], List[int], List[int]]:
    """``condition.eval_range`` over row pairs: the interpreted form of
    :func:`~repro.exec.compile.compile_range_pair_filter`, for the
    conditions it rejects — and the semantics its kernels reproduce."""
    llb, lsg, lub = left.ann_lb, left.ann_sg, left.ann_ub
    rlb, rsg, rub = right.ann_lb, right.ann_sg, right.ann_ub
    view = _PairView(left, right)
    eval_range = condition.eval_range
    keep_l: List[int] = []
    keep_r: List[int] = []
    ann_lb: List[int] = []
    ann_sg: List[int] = []
    ann_ub: List[int] = []
    for i, j in zip(li, ri):
        view.i = i
        view.j = j
        theta = eval_range(view)
        if not theta.ub:
            continue
        ub = lub[i] * rub[j]
        if ub == 0:
            continue
        keep_l.append(i)
        keep_r.append(j)
        ann_lb.append(llb[i] * rlb[j] if theta.lb else 0)
        ann_sg.append(lsg[i] * rsg[j] if theta.sg else 0)
        ann_ub.append(ub)
    return keep_l, keep_r, ann_lb, ann_sg, ann_ub


#: the one-row, zero-attribute relation annotated (1, 1, 1): pairing a
#: batch with it changes neither a valuation nor an annotation
_UNIT = AUColumnBatch((), [], (1,), (1,), (1,))


def _interpret_selection(
    batch: AUColumnBatch, condition: Expression
) -> Tuple[List[int], List[int], List[int], List[int]]:
    """Interpreted selection: every row paired with the unit relation."""
    keep, _unit, ann_lb, ann_sg, ann_ub = _interpret_pairs(
        batch, _UNIT, range(len(batch)), repeat(0), condition
    )
    return keep, ann_lb, ann_sg, ann_ub


def build_au_join_table(
    right: AUColumnBatch, key_attrs: Sequence[str]
) -> Tuple[Dict[Tuple, List[int]], List[int], List[int]]:
    """Partition an AU build side for the certain-key hash join.

    Rows whose join-key attributes are all certain bucket by their SG
    value tuple (``certain_right``); the rest (``uncertain_right``)
    interval-match against every probe row.  ``certain_right_rows``
    keeps the certain rows in order for uncertain-probe overlap scans.
    A parallel region builds this once and probes it from every
    morsel instead of rebuilding it per morsel.
    """
    r_index = _index_of(right.schema)
    r_key_cols = [right.columns[r_index[b]] for b in key_attrs]
    certain_right: Dict[Tuple, List[int]] = {}
    certain_right_rows: List[int] = []
    uncertain_right: List[int] = []
    for j in range(len(right)):
        keyvals = [c[j] for c in r_key_cols]
        if all(v.is_certain for v in keyvals):
            certain_right.setdefault(
                tuple(v.sg for v in keyvals), []
            ).append(j)
            certain_right_rows.append(j)
        else:
            uncertain_right.append(j)
    return certain_right, certain_right_rows, uncertain_right

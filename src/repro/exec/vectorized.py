"""Vectorized interpreters for physical plans, for both engines.

This module is the columnar *runtime* of the execution stack: it
interprets the physical plans produced by
:func:`repro.exec.physical.lower` over :mod:`repro.exec.batch` columns.
It makes **no physical decisions of its own** — the join algorithm
(``HashJoin`` vs ``NLJoin`` vs ``CompressedJoin``) and the parallel
region shape (``ParallelScan``/``Exchange``) arrive pre-chosen in the
plan.  Every operator takes batches and returns a batch; a relation
exists only at the result edge (:meth:`_Executor.run`).

A deterministic relation is an AU-relation whose cells are points and
whose annotations are ``(k, k, k)``, so both engines walk a plan the
same way: one executor, :class:`_Executor`, owns the plan walk — the
memo of pre-computed results, kept join tables, actuals, spans, chunk
scans and the dispatch of every shared node kind — and
:class:`_DetExec` / :class:`_AUExec` supply only their batch class,
chunk store, operator kernels and the nodes only they have.

Operator implementations:

* **scans** read the base relation's chunk store
  (:mod:`repro.db.chunks`), whole or one chunk at a time;
* **selection/projection** take one path on both engines: a
  ``FusedSelectProject`` over a scan streams the table's chunks, over
  any other input it takes that one batch; the condition compiles once
  per node (:mod:`repro.exec.compile`), each piece is filtered and
  gathers only the columns the projection references, and the
  survivors concatenate before the projection runs;
* **hash equi-joins** bucket raw key values exactly like the tuple
  engine's dict (identity-or-equality lookup), so both join algorithms
  agree with the tuple engine bit-for-bit; a table whose build keys are
  unique is probed by one ``map(dict.get)``, and when every probe row
  hits (a key–FK join) the probe columns pass through ungathered;
  the AU ``HashJoin`` runs the same join table on the SG key values of
  its certain-key rows and an overlap index on the rows with an
  uncertain key cell (:func:`au_join_pairs`, which both parts of the
  AU ``CompressedJoin`` — the columnar Section 10.4 join of
  :mod:`repro.exec.compressed_join` — call too);
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
* **distinct / difference / top-k / limit** run
  :mod:`repro.db.engine`'s bag operators over a batch's merged rows on
  the det engine, and the ``Ψ``-based operators of
  :mod:`repro.exec.au_setops` on the AU engine.

Results are *identical* to the tuple interpreters — the differential
fuzzer cross-checks both backends, both engines, legacy-vs-physical
lowering, and parallelism 1 vs 4.
"""

from __future__ import annotations

import copy
import math
from collections import defaultdict
from itertools import chain, repeat
from operator import attrgetter, itemgetter, mul
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .. import telemetry as _tm
from ..db import chunks as _chunks
from ..db import engine as _engine
from ..core.aggregation import AGGREGATES
from ..core.sums import folds_in_c
from ..core.expressions import Expression, RowView, Var
from ..core.ranges import RangeValue, order_key, overlap_index
from ..core.relation import AUDatabase, AURelation
from ..db.storage import DetDatabase, DetRelation
from . import physical as phys
from .au_aggregate import _attr_index, aggregate_batch, fold_partial_groups
from .au_setops import distinct_batch, except_batch, topk_batch
from .batch import AUColumnBatch, BatchRowView, ColumnBatch
from .compile import (
    CompileError,
    RangeKernel,
    compile_filter,
    compile_projector,
    compile_range_filter,
    compile_range_pair_filter,
    _typed,
)
from .compressed_join import compressed_join

__all__ = [
    "execute_det",
    "execute_audb",
    "SubplanMemo",
    "PartialAggregate",
    "AUPartialGroups",
    "DetGammaState",
    "JoinTable",
    "build_join_table",
    "probe_join_table",
    "AUJoinPairs",
    "au_join_pairs",
]


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
    ``fold`` that takes no input (``COUNT``), or one whose exact sum
    :func:`~repro.core.sums.add_products` takes without its per-value
    loop — never the default ``step`` loop."""
    if fn.det.fold is None:
        return False
    return not fn.takes_input or folds_in_c(values, weights)


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


def _annotate_kernel(kernel) -> None:
    """Record a compiled kernel's lanes on the open operator span: how
    many comparisons a det kernel ran as native ``<=``/``==``
    (``native_compares=n``, see :class:`~repro.exec.compile.DetKernel`),
    or how many of the rows an AU range kernel evaluated took its point
    lane (``point_rows=k/n``, summed over the operator's kernels; see
    :class:`~repro.exec.compile.RangeKernel`)."""
    if kernel is None or _tm._ACTIVE is None:
        return
    if isinstance(kernel, RangeKernel):
        _tm.annotate_ratio("point_rows", kernel.point_rows, kernel.rows)
    elif kernel.native_compares is not None:
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


class SubplanMemo(NamedTuple):
    """What one database state lets a prepared plan's executions share.

    ``sites`` are the ids of the plan nodes whose output batches go into
    ``batches``; a site that is a hash join's build side also keeps its
    :class:`JoinTable` in ``tables``, keyed by the same id.  The
    executor reads both maps like the pre-bound results of a parallel
    region and fills them on first evaluation; the owner
    (:class:`repro.session.PreparedQuery`) drops them when the database
    changes.  Kept batches are shared by every later execution, which
    is sound because no operator changes an input batch in place.
    """

    sites: FrozenSet[int]
    batches: Dict[int, Any]
    tables: Dict[int, "JoinTable"]


#: no memo: the executor starts with empty maps and keeps nothing
_NO_MEMO = (frozenset(), None, None)


# ======================================================================
# the executor both engines share
# ======================================================================
_SCANS = (phys.Scan, phys.ParallelScan)


class _Executor:
    """One interpretation of a physical plan, batch to batch.

    This base walks the plan the same way on both engines: the memo of
    pre-computed results, join tables kept for a prepared query, the
    per-node actuals and spans, the chunk scans, the one σ/π path and
    the dispatch of every node kind both engines have.  An engine
    (:class:`_DetExec`, :class:`_AUExec`) supplies its batch class and
    chunk-store accessor, its σ/π kernels (``_kernel`` compiles the
    filter ``_select`` runs; ``_project``), the kernels of the shared
    node kinds (``_aggregate``, ``_distinct``, ``_except``, ``_topk``,
    ``_hash_join``, ``_nl_join``), its row counts, and the nodes only it
    has (``_engine_node``).
    """

    #: the engine's batch class and chunk-store accessor
    batch: Any
    store: Callable
    #: a result's rows for its span, and its plan cardinality when that
    #: counts otherwise (``None``: the span's rows)
    _rows: Callable[[Any], Optional[int]]
    _actual_rows: Optional[Callable[[Any], Optional[int]]] = None

    def __init__(
        self,
        db,
        actuals=None,
        bindings=None,
        join_tables=None,
        pool=None,
        keep: AbstractSet[int] = frozenset(),
    ) -> None:
        self.db = db
        self.actuals = actuals
        #: persistent worker pool (Connection-owned) for Exchange regions
        self.pool = pool
        #: pre-computed results by node id: partition-invariant subtrees
        #: of a parallel region, the per-worker morsel of its
        #: ParallelScan (see repro.exec.parallel), and a prepared
        #: query's parameter-free subplans (SubplanMemo)
        self.bindings: Dict[int, Any] = {} if bindings is None else bindings
        #: pre-built join tables by build-child node id: a parallel
        #: region builds each partition-invariant build side once in the
        #: parent instead of once per morsel
        self.join_tables: Dict[int, JoinTable] = (
            {} if join_tables is None else join_tables
        )
        #: node ids whose results (and join tables) this run keeps
        self.keep = keep

    def run(self, pplan: phys.PhysNode):
        return self.eval(pplan).to_relation()

    def eval(self, pnode: phys.PhysNode):
        key = id(pnode)
        bound = self.bindings.get(key)
        if bound is not None:
            return bound
        out = _tm.run_op(
            pnode, self._node, (), self.actuals, self._rows, self._actual_rows
        )
        if key in self.keep:
            self.bindings[key] = out
        return out

    # -- plan dispatch -------------------------------------------------
    def _node(self, p: phys.PhysNode):
        if isinstance(p, _SCANS):
            # outside an Exchange binding (serial collapse) a
            # ParallelScan's morsel is the whole table
            return self._scan(p)
        if isinstance(p, phys.FusedSelectProject):
            child = p.child
            if (
                p.condition is not None
                and isinstance(child, _SCANS)
                and id(child) not in self.bindings
            ):
                # stream the table: its chunks are filtered one by one,
                # so the whole base batch never exists (nor charges the
                # materialization budget)
                pieces = _tm.run_op(
                    child, self._scan, (True,), self.actuals, self._piece_rows
                )
                schema = self.db[child.table].schema
                return self._select_project(
                    schema, pieces, p.condition, p.columns, True
                )
            batch = self.eval(child)
            return self._select_project(
                batch.schema, [batch], p.condition, p.columns
            )
        if isinstance(p, phys.HashJoin):
            return self._hash_join(p)
        if isinstance(p, phys.NLJoin):
            return self._nl_join(p)
        if isinstance(p, phys.Concat):
            left, right = self._compatible(p, "union")
            return self.batch.concat(left.schema, [left, right])
        if isinstance(p, phys.Rename):
            batch = copy.copy(self.eval(p.child))
            batch.schema = tuple(p.mapping.get(a, a) for a in batch.schema)
            return batch
        if isinstance(p, phys.HashAggregate):
            result = self._aggregate(self.eval(p.child), p)
            if not p.partial and p.having is not None:
                result = self._selection(result, p.having)
            return result
        if isinstance(p, phys.HashDistinct):
            return self._distinct(self.eval(p.child))
        if isinstance(p, phys.HashExcept):
            return self._except(*self._compatible(p, "difference"))
        if isinstance(p, phys.TopK):
            return self._topk(self.eval(p.child), p.keys, p.descending, p.n)
        if isinstance(p, phys.Exchange):
            from .parallel import execute_exchange

            return execute_exchange(self, p)
        return self._engine_node(p)

    def _engine_node(self, p: phys.PhysNode):
        raise TypeError(f"unsupported physical node {type(p).__name__}")

    def _compatible(self, p: phys.PhysNode, what: str) -> Tuple[Any, Any]:
        left, right = self.eval(p.left), self.eval(p.right)
        if len(left.schema) != len(right.schema):
            raise ValueError(f"{what} requires union-compatible schemas")
        return left, right

    # -- scans and the σ/π path ----------------------------------------
    def _scan(self, p: phys.Scan, stream: bool = False):
        """The table's surviving chunks as one batch — or, ``stream``,
        as the list of their batches."""
        store = self.store(self.db[p.table], p.chunk_size)
        out, total, skipped = (
            store.iter_batches(p.skip) if stream else store.scan(p.skip)
        )
        if _tm._ACTIVE is not None:
            _tm.annotate(**_chunks.skip_attrs(p.skip, total, skipped))
        return out

    def _piece_rows(self, pieces: Sequence) -> int:
        return sum(map(self._rows, pieces))

    def _select_project(
        self,
        schema: Sequence[str],
        pieces: Sequence,
        condition: Optional[Expression],
        columns: Optional[Tuple[Tuple[Expression, str], ...]],
        streamed: bool = False,
    ):
        """``π_columns(σ_condition(pieces))`` over the batches ``pieces``
        of one input under ``schema`` — a streamed scan's chunks, or one
        batch.

        The condition compiles once; each piece is filtered and keeps
        only the columns the projection references, the survivors
        concatenate in order, and the projection runs over them:
        bit-identical to filtering the whole-table concatenation.  A
        streamed span records ``gathered_columns=k/n``."""
        if condition is None:
            (batch,) = pieces
        else:
            gathered: Sequence[int] = range(len(schema))
            if columns is not None:
                names = set().union(*(expr.variables() for expr, _ in columns))
                gathered = [j for j, name in enumerate(schema) if name in names]
            kernel = self._kernel(condition, schema)
            batch = self.batch.concat(
                [schema[j] for j in gathered],
                [self._select(piece, condition, kernel, gathered) for piece in pieces],
            )
            if _tm._ACTIVE is not None:
                _annotate_kernel(kernel)
                if streamed:
                    _tm.annotate(gathered_columns=f"{len(gathered)}/{len(schema)}")
        return batch if columns is None else self._project(batch, columns)

    def _selection(self, batch, condition: Expression):
        """The rows of ``batch`` that satisfy ``condition``."""
        return self._select_project(batch.schema, [batch], condition, None)


# ======================================================================
# deterministic executor
# ======================================================================
def execute_det(
    pplan: phys.PhysNode,
    db: DetDatabase,
    actuals: Optional[Dict[int, int]] = None,
    pool=None,
    memo: Optional[SubplanMemo] = None,
) -> DetRelation:
    """Interpret the physical plan ``pplan`` over ``db`` vectorized.

    Semantically identical to the tuple interpreter on the same plan.
    ``actuals`` collects per-node output cardinalities, keyed by both
    the physical node id and its logical source ids (for the two
    ``explain`` renderings).  ``pool`` is an optional persistent
    :class:`repro.exec.parallel.WorkerPool` for Exchange regions;
    ``memo`` an optional :class:`SubplanMemo` to read and fill.
    """
    sites, batches, tables = memo or _NO_MEMO
    return _DetExec(db, actuals, batches, tables, pool, sites).run(pplan)


def _bag_rows(batch: Any) -> Optional[int]:
    """Bag cardinality of an operator result; partial aggregate state
    has none."""
    return sum(batch.mult) if isinstance(batch, ColumnBatch) else None


def _on_rows(batch: ColumnBatch, op: Callable, *args: Any) -> ColumnBatch:
    """The :mod:`repro.db.engine` bag operator ``op`` over the batch's
    merged rows."""
    return ColumnBatch.from_rows(batch.schema, op(batch.merged(), *args))


def _except(left: ColumnBatch, right: ColumnBatch) -> ColumnBatch:
    return _on_rows(left, _engine.subtract, right.merged())


def _distinct(batch: ColumnBatch) -> ColumnBatch:
    out = _on_rows(batch, dict.fromkeys, 1)
    if _tm._ACTIVE is not None:
        _tm.annotate(groups=len(out))
    return out


def _topk(
    batch: ColumnBatch, keys: Sequence[str], descending: bool, n: int
) -> ColumnBatch:
    """``ORDER BY keys [DESC] LIMIT n``: :func:`repro.db.engine.take` over
    the merged candidate rows (:func:`_candidates`)."""
    key_idx = [_attr_index(batch.schema, k) for k in keys]
    batch = _candidates(batch, key_idx, descending, n)
    return _on_rows(batch, _engine.take, n, key_idx, descending)


def _limit(batch: ColumnBatch, n: int) -> ColumnBatch:
    """Bare ``LIMIT n``: the top-k with every column as an ascending key."""
    batch = _candidates(batch, range(len(batch.schema)), False, n)
    return _on_rows(batch, _engine.take, n)


def _order_column(col: Sequence) -> Sequence:
    """The column's cells as sort keys that order as
    :func:`~repro.core.ranges.order_key` does: the column itself when it
    is typed (``_pack_typed`` packs only homogeneous, NaN-free numbers)
    or holds only ``int`` or only NaN-free ``float`` cells — then the
    domain order is Python's — else each cell's ``order_key``."""
    if _typed(col):
        return col
    kinds = set(map(type, col))
    if kinds == {int} or (kinds == {float} and not any(map(math.isnan, col))):
        return col
    return list(map(order_key, col))


def _candidates(
    batch: ColumnBatch, key_idx: Sequence[int], descending: bool, n: int
) -> ColumnBatch:
    """The rows of ``batch`` that :func:`repro.db.engine.topk_candidates`
    keeps — every row with a positive multiplicity gives at least one
    copy — in their order; the open operator span records
    ``candidates=k/n``."""
    count = len(batch)
    picked = None
    if key_idx:
        cols = [_order_column(batch.columns[j]) for j in key_idx]
        keys = cols[0] if len(cols) == 1 else list(zip(*cols))
        picked = _engine.topk_candidates(keys, batch.mult, n, descending)
    if _tm._ACTIVE is not None:
        kept = count if picked is None else len(picked)
        _tm.annotate_ratio("candidates", kept, count)
    if picked is None:
        return batch
    pick = _picker(picked)
    return ColumnBatch(batch.schema, [pick(c) for c in batch.columns], pick(batch.mult))


class _DetExec(_Executor):
    batch = ColumnBatch
    store = staticmethod(_chunks.det_store)
    _rows = staticmethod(_bag_rows)
    _distinct = staticmethod(_distinct)
    _except = staticmethod(_except)
    _topk = staticmethod(_topk)

    def _engine_node(self, p: phys.PhysNode):
        if isinstance(p, phys.Limit):
            return _limit(self.eval(p.child), p.n)
        return super()._engine_node(p)

    # -- operators -----------------------------------------------------
    def _kernel(self, condition: Expression, schema: Sequence[str]):
        return _compiled(compile_filter, condition, schema)

    def _select(
        self,
        batch: ColumnBatch,
        condition: Expression,
        kernel: Optional[Callable],
        gathered: Sequence[int],
    ) -> ColumnBatch:
        """The rows of ``batch`` that satisfy ``condition`` (through the
        compiled ``kernel``, else interpreted), columns ``gathered``."""
        n = len(batch)
        if kernel is not None:
            keep = kernel(batch.columns, n)
        else:
            view = batch.row_view()
            keep = []
            for i in range(n):
                view.i = i
                if bool(condition.eval(view)):
                    keep.append(i)
        schema = [batch.schema[j] for j in gathered]
        cols = [batch.columns[j] for j in gathered]
        if len(keep) == n:
            return ColumnBatch(schema, cols, batch.mult)
        pick = _picker(keep)
        return ColumnBatch(schema, [pick(col) for col in cols], pick(batch.mult))

    def _project(
        self, batch: ColumnBatch, columns: Tuple[Tuple[Expression, str], ...]
    ) -> ColumnBatch:
        n = len(batch)
        index = _index_of(batch.schema)
        out_cols: List = []
        for expr, _name in columns:
            if isinstance(expr, Var) and expr.name in index:
                out_cols.append(batch.columns[index[expr.name]])
                continue
            try:
                out_cols.append(
                    compile_projector(expr, batch.schema)(batch.columns, n)
                )
            except CompileError:
                view = BatchRowView(index, batch.columns)
                col = []
                for i in range(n):
                    view.i = i
                    col.append(expr.eval(view))
                out_cols.append(col)
        return ColumnBatch([name for _, name in columns], out_cols, batch.mult)

    def _hash_join(self, p: phys.HashJoin) -> ColumnBatch:
        left, right = self.eval(p.left), self.eval(p.right)
        table = _join_table_of(self, p, right)
        l_index = _index_of(left.schema)
        l_cols = [left.columns[l_index[a]] for a, _ in p.eq_pairs]
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
        return self._selection(joined, p.condition)

    def _nl_join(self, p: phys.NLJoin) -> ColumnBatch:
        left, right = self.eval(p.left), self.eval(p.right)
        nl, nr = len(left), len(right)
        li = [i for i in range(nl) for _ in range(nr)]
        ri = list(range(nr)) * nl
        lm, rm = left.mult, right.mult
        joined = ColumnBatch(
            tuple(left.schema) + tuple(right.schema),
            _gather(left.columns, li) + _gather(right.columns, ri),
            [lm[i] * rm[j] for i, j in zip(li, ri)],
        )
        if p.condition is None:
            return joined
        return self._selection(joined, p.condition)

    def _aggregate(self, batch: ColumnBatch, p: phys.HashAggregate):
        """Hash aggregation, column at a time: one hash pass maps each
        group key to its rows in first-appearance order, then each
        aggregate's input column is folded per group by one registry
        (:data:`~repro.core.aggregation.AGGREGATES`) det ``fold`` call.
        A group holding every row folds the columns themselves."""
        group_by, aggregates = p.group_by, p.aggregates
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
        if p.partial:
            return PartialAggregate(groups)
        return finalize_groups(groups, group_by, aggregates)


class JoinTable(NamedTuple):
    """A hash join's build side: ``rows`` maps each key to its build
    row when ``unique``, else to the list of its build rows, in build
    order.  ``uncertain`` lists the AU build rows with an uncertain key
    cell, in build order; they are not in ``rows``."""

    rows: Dict[Any, Any]
    unique: bool
    uncertain: Sequence[int] = ()


def _join_keys(columns: Sequence[Sequence]) -> Iterable:
    """The raw join key of every row: the cell itself for one key
    column, the tuple of cells for several."""
    return columns[0] if len(columns) == 1 else zip(*columns)


def build_join_table(
    right: ColumnBatch | AUColumnBatch, key_attrs: Sequence[str]
) -> JoinTable:
    """The join table of a det or AU build side.

    A det batch buckets its raw key values; an AU batch buckets the SG
    key values of its rows whose key cells are all certain
    (:func:`_key_split`) and lists the others as ``uncertain``, for the
    interval path."""
    r_index = _index_of(right.schema)
    key_cols = [right.columns[r_index[b]] for b in key_attrs]
    if not isinstance(right, AUColumnBatch):
        return _join_table(key_cols, range(len(right)))
    certain, uncertain, sg_cols = _key_split(key_cols)
    if certain is None:
        certain = range(len(right))
    return _join_table(sg_cols, certain, uncertain)


def _join_table_of(executor, p: phys.HashJoin, right) -> JoinTable:
    """The join table of ``p``'s build side ``right``: pre-built under
    the build child's node id (a parallel region's invariant build side,
    a prepared query's memo), else built — and kept when the executor
    keeps the build child."""
    key = id(p.right)
    table = executor.join_tables.get(key)
    if table is None:
        table = build_join_table(right, [b for _, b in p.eq_pairs])
        if key in executor.keep:
            executor.join_tables[key] = table
    return table


def _join_table(
    key_cols: Sequence[Sequence], ids: Sequence[int], uncertain: Sequence[int] = ()
) -> JoinTable:
    """Bucket the key values of the build rows ``ids``, exactly like the
    tuple engine's dict: Python's identity-or-equality lookup means a
    bucket match implies the Eq conjuncts hold under domain_key
    comparison (including the same-NaN-object identity case), so hash
    and nested-loop plans agree with the tuple engine bit-for-bit.

    When no two build rows share a key — the same identity-or-equality
    test, so ``1``/``1.0``/``True`` collide and two distinct NaN
    objects do not — the table maps each key to its one row
    (``unique``), which :func:`probe_join_table` probes in C."""
    rows = dict(zip(_join_keys(key_cols), ids))
    if len(rows) == len(ids):
        return JoinTable(rows, True, uncertain)
    buckets: Dict[Any, List[int]] = {}
    for j, key in zip(ids, _join_keys(key_cols)):
        buckets.setdefault(key, []).append(j)
    return JoinTable(buckets, False, uncertain)


_IS_CERTAIN = attrgetter("is_certain")
_SG = attrgetter("sg")


def _key_split(
    key_cols: Sequence[Sequence[RangeValue]],
) -> Tuple[Optional[List[int]], List[int], List[List[Any]]]:
    """Split AU rows by join-key certainty, one ``is_certain`` pass per
    key column: ``(certain, uncertain, sg_cols)`` — the rows whose key
    cells are all certain (``None``: every row), the other rows, and
    the certain rows' SG key values column by column."""
    uncertain: set = set()
    for col in key_cols:
        flags = list(map(_IS_CERTAIN, col))
        if False in flags:
            uncertain.update(j for j, ok in enumerate(flags) if not ok)
    if not uncertain:
        return None, [], [list(map(_SG, col)) for col in key_cols]
    certain = [j for j in range(len(key_cols[0])) if j not in uncertain]
    pick = _picker(certain)
    return certain, sorted(uncertain), [list(map(_SG, pick(col))) for col in key_cols]


class AUJoinPairs(NamedTuple):
    """The pairs of an AU equi-join, each list probe-major: ``li`` /
    ``ri`` the join table's certain-key pairs (``li=None``: every probe
    row once, in order), ``interval`` the key-overlapping pairs with an
    uncertain key cell; the ``table`` probed, the probe rule, the probe
    rows with an uncertain key cell and the overlap-index candidates
    the interval path examined."""

    li: Optional[List[int]]
    ri: Sequence[int]
    interval: Tuple[List[int], List[int]]
    table: JoinTable
    probe: str
    uncertain_probe_rows: int
    interval_tested: int

    def merged(self) -> Sequence:
        """``(li, ri)`` of every pair: per probe row its certain-key
        pairs, then its interval pairs — the tuple engine's order."""
        return _probe_major((self.li, self.ri), self.interval)


def au_join_pairs(
    left: AUColumnBatch,
    right: AUColumnBatch,
    eq_pairs: Sequence[Tuple[str, str]],
    table: Optional[JoinTable] = None,
) -> AUJoinPairs:
    """The pairs :func:`repro.core.operators.join` evaluates its
    condition on, for ``left`` probing ``right`` on ``eq_pairs``.

    The probe rows whose key cells are all certain probe the join table
    (``table``, else :func:`build_join_table` of ``right``) with their
    SG key values through :func:`probe_join_table`; the pairs with an
    uncertain key cell come from :func:`_interval_pairs`."""
    l_index, r_index = _index_of(left.schema), _index_of(right.schema)
    l_key_cols = [left.columns[l_index[a]] for a, _ in eq_pairs]
    r_key_cols = [right.columns[r_index[b]] for _, b in eq_pairs]
    if table is None:
        table = build_join_table(right, [b for _, b in eq_pairs])
    certain, uncertain, sg_cols = _key_split(l_key_cols)
    li, ri, probe = probe_join_table(table, _join_keys(sg_cols))
    if certain is not None:
        li = certain if li is None else [certain[i] for i in li]
    interval, tested = _interval_pairs(l_key_cols, r_key_cols, uncertain, table)
    return AUJoinPairs(li, ri, interval, table, probe, len(uncertain), tested)


def _interval_pairs(
    l_key_cols: Sequence[Sequence[RangeValue]],
    r_key_cols: Sequence[Sequence[RangeValue]],
    l_uncertain: Sequence[int],
    table: JoinTable,
) -> Tuple[Tuple[List[int], List[int]], int]:
    """The key-overlapping pairs with an uncertain key cell,
    probe-major, and the overlap-index candidates examined.

    A probe row with an uncertain key probes an index of the build rows'
    first key cells, built in the tuple engine's emission order — the
    certain-key rows grouped by key in first-occurrence order (the join
    table's order), then the uncertain rows in build order — so index
    positions are emission ranks.  The certain probe rows met the
    certain build rows in the join table; their pairs with the
    uncertain build rows come the other way round: the certain probe
    rows' first key cells are indexed once, each uncertain build row
    probes that index in build order, and one stable sort on the probe
    row restores probe-major order (one wide uncertain range would
    widen every window of the shared build index; a certain probe cell
    is a point, which the index keeps in a sorted run of its own).  The
    other key cells are tested on the candidates only."""
    r_uncertain = table.uncertain
    if not l_uncertain and not r_uncertain:
        return ([], []), 0
    r_first, l_first = r_key_cols[0], l_key_cols[0]
    li: List[int] = []
    ri: List[int] = []
    if l_uncertain:
        groups = table.rows.values()
        order = [*(groups if table.unique else chain.from_iterable(groups)), *r_uncertain]
        on_first = overlap_index([r_first[j] for j in order])
        for i in l_uncertain:
            found = on_first(l_first[i])
            li += repeat(i, len(found))
            ri += [order[k] for k in found]
    # the certain probe rows' pairs, build-major
    cli: List[int] = []
    cri: List[int] = []
    if r_uncertain:
        skip = set(l_uncertain)
        certain = [i for i in range(len(l_first)) if i not in skip]
        on_first = overlap_index([l_first[i] for i in certain])
        for j in r_uncertain:
            found = on_first(r_first[j])
            cli += [certain[k] for k in found]
            cri += repeat(j, len(found))
    li, ri = _probe_major((li, ri), (cli, cri))
    tested = len(li)
    rest = list(zip(l_key_cols[1:], r_key_cols[1:]))
    if rest:
        kept = [
            k for k, (i, j) in enumerate(zip(li, ri))
            if all(lc[i].overlaps(rc[j]) for lc, rc in rest)
        ]
        li, ri = [li[k] for k in kept], [ri[k] for k in kept]
    return (li, ri), tested


def _probe_major(first: Sequence[Sequence], second: Sequence[Sequence]) -> Sequence:
    """Two row-pair lists (probe rows first, then build rows and any
    per-pair columns), each listing a probe row's pairs in order, as one
    probe-major list: per probe row the pairs of ``first`` before those
    of ``second`` (one stable sort on the probe row).
    ``first``'s probe rows may be ``None``: every probe row once."""
    if not second[0]:
        return first
    li = range(len(first[1])) if first[0] is None else first[0]
    merged = [list(a) + list(b) for a, b in zip((li, *first[1:]), second)]
    pick = _picker(sorted(range(len(merged[0])), key=merged[0].__getitem__))
    return [pick(col) for col in merged]


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


class DetGammaState:
    """The state of one det aggregate kept beside its changing input.

    The det counterpart of :class:`repro.exec.au_aggregate.GammaState`,
    driven the same way by :mod:`repro.ivm`: :meth:`rebuild` folds the
    whole input, :meth:`apply` folds the change of one input row's
    multiplicity or says why it cannot, and :meth:`result` finalizes —
    what :meth:`_DetExec._aggregate` returns over the changed input, as
    a bag.

    ``groups`` maps each group key to ``[weight, accs]``: ``accs`` holds
    one registry (``AGGREGATES``) det state per aggregate.  A change
    takes the row's old contribution out (stepped into a scratch state,
    then ``unmerge``) and steps its new one in, so an exact sum counts
    one float addend per float row it holds, whatever its multiplicity
    (:mod:`repro.core.sums`).  A group is born with its first row and
    dies with its weight.
    """

    def __init__(
        self,
        schema: Sequence[str],
        group_by: Sequence[str],
        aggregates,
    ) -> None:
        self.group_by = tuple(group_by)
        self.aggregates = tuple(aggregates)
        self._index = _index_of(schema)
        self._group_idx = [self._index[a] for a in group_by]
        self._fns = [AGGREGATES[spec.kind] for spec in aggregates]
        self.groups: Dict[Tuple, List[Any]] = {}
        #: each input row -> itself: the stored cells of a value-equal
        #: row (``0`` where a write says ``0.0``), whose contribution is
        #: the one to take out
        self._rows: Dict[Tuple, Tuple] = {}

    def rebuild(self, rel: DetRelation) -> ColumnBatch:
        """Fold every row of ``rel`` into a new state; returns the γ
        output batch."""
        self.groups = {}
        self._rows = dict(zip(rel.rows, rel.rows))
        group_idx = self._group_idx
        for t, m in rel.rows.items():
            self._fold(tuple(t[j] for j in group_idx), self._values(t), None, m)
        return self.result()

    def result(self) -> ColumnBatch:
        """The γ output batch of the state."""
        return finalize_groups(
            {key: entry[1] for key, entry in self.groups.items()},
            self.group_by,
            self.aggregates,
        )

    def apply(
        self, t: Tuple, old: Optional[int], new: Optional[int]
    ) -> Optional[str]:
        """Fold input row ``t``'s multiplicity change from ``old`` to
        ``new`` (``None``: absent) into the state.  Returns ``None``, or
        why it cannot — the state is then unusable until the next
        :meth:`rebuild`: a delete ties or beats a surviving group's
        ``MIN`` / ``MAX`` (``extremum_deleted``: the runner-up is not
        kept), an input of an aggregate with ``unmerge`` is a non-finite
        float (``non_finite_addend``: the absorbing IEEE slot has no
        inverse), or evaluating or stepping an input raised
        (``fold_error``)."""
        if old is not None:
            t = self._rows[t]
        w = (new or 0) - (old or 0)
        key = tuple(t[j] for j in self._group_idx)
        entry = self.groups.get(key)
        try:
            values = self._values(t)
            if entry is None or entry[0] + w:  # the group survives
                for a, (fn, v) in enumerate(zip(self._fns, values)):
                    algebra = fn.det
                    if algebra.unmerge is not None:
                        if type(v) is float and not math.isfinite(v):
                            return "non_finite_addend"
                    elif w < 0:
                        alone = algebra.step(algebra.init(), v, old)
                        if algebra.merge(alone, entry[1][a]) is alone:
                            return "extremum_deleted"
            self._fold(key, values, old, new)
        except (TypeError, ValueError, ArithmeticError):
            return "fold_error"  # the re-run raises it to the reader
        if old is None:
            self._rows[t] = t
        elif new is None:
            del self._rows[t]
        return None

    def _values(self, t: Tuple) -> List[Any]:
        """The aggregate inputs of row ``t`` (``None``: no input)."""
        index = self._index
        values: List[Any] = []
        for spec, fn in zip(self.aggregates, self._fns):
            if not fn.takes_input:
                values.append(None)
            elif isinstance(spec.expr, Var) and spec.expr.name in index:
                values.append(t[index[spec.expr.name]])
            else:
                values.append(spec.expr.eval(RowView(index, t)))
        return values

    def _fold(
        self, key: Tuple, values: List[Any], old: Optional[int], new: Optional[int]
    ) -> None:
        """Change one row's multiplicity in group ``key`` from ``old`` to
        ``new``: birth, death, and in every aggregate the old
        contribution out and the new one in — an aggregate without
        ``unmerge`` (``MIN`` / ``MAX``) only takes a new row, and
        :meth:`apply` checked that a deleted one leaves it as it is."""
        entry = self.groups.get(key)
        if entry is None:
            entry = self.groups[key] = [0, [fn.det.init() for fn in self._fns]]
        entry[0] += (new or 0) - (old or 0)
        if not entry[0]:
            del self.groups[key]  # from scratch it would not exist
            return
        accs = entry[1]
        for a, (fn, v) in enumerate(zip(self._fns, values)):
            algebra = fn.det
            if old is not None:
                if algebra.unmerge is None:
                    continue
                accs[a] = algebra.unmerge(accs[a], algebra.step(algebra.init(), v, old))
            if new is not None:
                accs[a] = algebra.step(accs[a], v, new)



# ======================================================================
# AU executor
# ======================================================================
def execute_audb(
    pplan: phys.PhysNode,
    db: AUDatabase,
    actuals: Optional[Dict[int, int]] = None,
    pool=None,
    memo: Optional[SubplanMemo] = None,
) -> AURelation:
    """Interpret the physical plan ``pplan`` over the AU-database ``db``.

    Produces exactly the relation of the tuple interpreter on the same
    plan.  Every operator runs batch to batch — a ``CompressedJoin``,
    ``HashAggregate``, ``HashDistinct``, ``HashExcept`` and ``TopK``
    included (:mod:`repro.exec.compressed_join`,
    :mod:`repro.exec.au_aggregate`, :mod:`repro.exec.au_setops`) — and
    the batch becomes a relation only as the result.  ``pool`` is an
    optional persistent :class:`repro.exec.parallel.WorkerPool` for
    Exchange regions; ``memo`` an optional :class:`SubplanMemo`.
    """
    sites, batches, tables = memo or _NO_MEMO
    return _AUExec(db, actuals, batches, tables, pool, sites).run(pplan)


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


class _AUExec(_Executor):
    batch = AUColumnBatch
    store = staticmethod(_chunks.au_store)
    _rows = staticmethod(_au_rows)
    _actual_rows = staticmethod(_au_distinct)
    _distinct = staticmethod(distinct_batch)
    _except = staticmethod(except_batch)
    _topk = staticmethod(topk_batch)

    def _engine_node(self, p: phys.PhysNode):
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
        if isinstance(p, phys.AUPartialAggregate):
            # raises UncertainGroupError on an uncertain group-by value:
            # the Exchange then re-runs its serial final operator
            return AUPartialGroups(
                fold_partial_groups(self.eval(p.child), p.group_by, p.aggregates)
            )
        return super()._engine_node(p)

    # -- operators -----------------------------------------------------
    def _kernel(self, condition: Expression, schema: Sequence[str]):
        return _compiled(compile_range_filter, condition, schema)

    def _select(
        self,
        batch: AUColumnBatch,
        condition: Expression,
        kernel: Optional[Callable],
        gathered: Sequence[int],
    ) -> AUColumnBatch:
        """The rows of ``batch`` where ``condition`` possibly holds, with
        their annotations times ``M_N(condition)`` (through the compiled
        ``kernel``, else interpreted), columns ``gathered``."""
        if kernel is not None:
            keep, ann_lb, ann_sg, ann_ub = kernel(
                batch.columns, batch.ann_lb, batch.ann_sg, batch.ann_ub, len(batch)
            )
        else:
            keep, ann_lb, ann_sg, ann_ub = _interpret_selection(batch, condition)
        cols = [batch.columns[j] for j in gathered]
        if len(keep) < len(batch):
            cols = _gather(cols, keep)
        return AUColumnBatch(
            [batch.schema[j] for j in gathered], cols, ann_lb, ann_sg, ann_ub
        )

    def _project(self, batch: AUColumnBatch, columns) -> AUColumnBatch:
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

    def _aggregate(
        self, batch: AUColumnBatch, p: phys.HashAggregate
    ) -> AUColumnBatch:
        return aggregate_batch(batch, p.group_by, p.aggregates, p.buckets)

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
        """The pairs of :func:`au_join_pairs`; under a pure
        equi-condition only the interval pairs evaluate it."""
        left, right = self.eval(p.left), self.eval(p.right)
        pairs = au_join_pairs(
            left, right, p.eq_pairs, _join_table_of(self, p, right)
        )
        interval = pairs.interval
        if _tm._ACTIVE is not None:
            # the probe side passes through: certain keys, one hit each
            through = pairs.li is None and p.pure_equi and not interval[0]
            _tm.annotate(
                build_rows=len(right),
                build_keys=len(pairs.table.rows),
                probe_rows=len(left),
                uncertain_build_rows=len(pairs.table.uncertain),
                uncertain_probe_rows=pairs.uncertain_probe_rows,
                interval_tested=pairs.interval_tested,
                probe=pairs.probe,
                gathered_left=0 if through else len(pairs.ri) + len(interval[0]),
            )
        if not p.pure_equi:
            # hash matches re-check the residual beside the interval pairs
            return self._emit_pairs(left, right, *pairs.merged(), p.condition)
        # a hash match under a pure equi-condition is certainly true
        kept = self._pairs(left, right, pairs.li, pairs.ri, None)
        if interval[0]:
            checked = self._pairs(left, right, *interval, p.condition)
            kept = _probe_major(kept, checked)
        return self._pair_batch(left, right, kept)

    def _emit_pairs(
        self,
        left: AUColumnBatch,
        right: AUColumnBatch,
        li: Optional[List[int]],
        ri: Sequence[int],
        condition: Optional[Expression],
    ) -> AUColumnBatch:
        """Combine row pairs, multiplying annotations in ``K^AU``.

        With ``condition`` the pair annotation is additionally multiplied
        by ``M_N(θ)`` and pairs that are certainly non-matching
        (``ub == 0``) are dropped.  ``li=None`` pairs every left row, in
        order, with its ``ri`` row: without a condition the left
        columns pass through ungathered.
        """
        return self._pair_batch(
            left, right, self._pairs(left, right, li, ri, condition)
        )

    def _pairs(
        self,
        left: AUColumnBatch,
        right: AUColumnBatch,
        li: Optional[List[int]],
        ri: Sequence[int],
        condition: Optional[Expression],
    ) -> Tuple:
        """The kept pairs of :meth:`_emit_pairs` and their annotations,
        ``(li, ri, ann_lb, ann_sg, ann_ub)``, before any gather."""
        llb, lsg, lub = left.ann_lb, left.ann_sg, left.ann_ub
        rlb, rsg, rub = right.ann_lb, right.ann_sg, right.ann_ub
        if condition is None:
            pl, pr = _picker(li), _picker(ri)
            return (
                li,
                ri,
                list(map(mul, pl(llb), pr(rlb))),
                list(map(mul, pl(lsg), pr(rsg))),
                list(map(mul, pl(lub), pr(rub))),
            )
        if li is None:
            li = list(range(len(ri)))
        kernel = _compiled(
            compile_range_pair_filter, condition, left.schema, right.schema
        )
        if kernel is not None:
            pairs = kernel(
                left.columns, right.columns, li, ri, llb, lsg, lub, rlb, rsg, rub
            )
            _annotate_kernel(kernel)
            return pairs
        return _interpret_pairs(left, right, li, ri, condition)

    @staticmethod
    def _pair_batch(
        left: AUColumnBatch, right: AUColumnBatch, pairs: Sequence
    ) -> AUColumnBatch:
        li, ri, ann_lb, ann_sg, ann_ub = pairs
        return AUColumnBatch(
            tuple(left.schema) + tuple(right.schema),
            _gather(left.columns, li) + _gather(right.columns, ri),
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

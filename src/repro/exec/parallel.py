"""Morsel-style partition-parallel execution for the vectorized backends.

A physical plan's :class:`~repro.exec.physical.Exchange` node marks a
*parallel region*: its subtree contains exactly one
:class:`~repro.exec.physical.ParallelScan`, and evaluating the subtree
once per morsel of that scan then merging (per the Exchange's ``merge``
kind) is exact — the planner only builds regions out of operators that
distribute over a bag-union partitioning of the driver table.  Both
engines run through this module: deterministic bags, and AU plans whose
``K^AU`` annotations multiply along the region's linear operators and
add back together at the merge.

Execution of one Exchange:

1. the driver table's chunk store (:mod:`repro.db.chunks`) is split
   into one morsel per partition: contiguous runs of surviving chunks —
   the scan's zone-map skip predicate prunes chunks before any worker
   sees them, and a morsel never splits a chunk;
2. subtrees of the region that do *not* contain the ParallelScan are
   partition-invariant — they are evaluated **once** in the parent and
   injected into the workers as pre-bound results, and hash-join build
   sides on the driver spine are built once (an AU build side's join
   table holds its certain-key rows and lists its uncertain-key ones);
3. each worker interprets the region over its morsel.  Workers come
   from the session's **persistent pool** (:class:`WorkerPool`, owned
   by :class:`repro.session.Connection` — forked once, reused across
   queries, invalidated when ``db.epoch`` advances) when one is
   attached and the driver is large enough to amortize transport
   (:data:`PROCESS_MIN_ROWS`); else — and whenever the pool cannot
   serve the region (:class:`PoolBrokenError`) — the morsels run
   in-process, through the *same* partition-and-merge code path, so
   results are identical either way;
4. the per-partition results merge: batches concatenate (``concat``),
   partial aggregation states combine exactly (``aggregate`` /
   ``au_aggregate`` — SUM/AVG through :mod:`repro.core.sums`, and the
   AU lb/sg/ub semiring partials via the SG-combine-aware folds of
   :mod:`repro.exec.au_aggregate` — so floats are bit-identical at
   every parallelism level), ``topk``/``limit``/``distinct`` regions
   re-apply their batch operator over the concatenation, and
   ``au_topk`` applies the AU top-k batch operator
   (:func:`repro.exec.au_setops.topk_batch`) once over the
   partition-order concatenation (its prefix-sum bounds need the full
   input, so there is no sound per-morsel pruning).

AU partial aggregation is sound only while every row's group-by
attributes are certain; a worker that meets an uncertain group raises
:class:`~repro.core.aggregation.UncertainGroupError` and the Exchange
transparently re-runs its ``final`` operator — the original serial
:class:`~repro.exec.physical.HashAggregate` — so results never change,
only the execution strategy.

Small inputs skip partitioning entirely (:data:`PARALLEL_MIN_ROWS`):
the region then runs as a single partition, which is the documented
non-regression fallback — parallelism never changes results, only
wall-clock time.  Tests pin these thresholds to 0 to force the
partitioned paths on tiny data.
"""

from __future__ import annotations

import os
import pickle
import time
from typing import Any, Dict, List, Optional, Tuple

from .. import telemetry as _tm
from ..core.aggregation import AGGREGATES, UncertainGroupError
from ..db import chunks as _chunks
from . import physical as phys
from .batch import AUColumnBatch, ColumnBatch

__all__ = [
    "PARALLEL_MIN_ROWS",
    "PROCESS_MIN_ROWS",
    "execute_exchange",
    "WorkerPool",
    "PoolBrokenError",
]

#: Below this many driver rows an Exchange collapses to one partition —
#: splitting and merging a small batch costs more than it saves.
PARALLEL_MIN_ROWS = 2048

#: Below this many driver rows the morsels run in-process even when
#: partitioned: shipping a region to pool workers costs milliseconds,
#: which only pays off on batches with real per-morsel work.
PROCESS_MIN_ROWS = 8192

_REGISTRY = _tm.get_registry()
_POOL_FORKS = _REGISTRY.counter(
    "repro_parallel_pool_forks_total",
    "Persistent worker pools forked (one fork event spawns all workers).",
)
_POOL_REUSES = _REGISTRY.counter(
    "repro_parallel_pool_reuses_total",
    "Exchange executions served by an already-live persistent pool.",
)
_POOL_INVALIDATIONS = _REGISTRY.counter(
    "repro_parallel_pool_invalidations_total",
    "Persistent pools torn down because the database epoch advanced.",
)
_POOL_TASKS = _REGISTRY.counter(
    "repro_parallel_tasks_total",
    "Morsel tasks dispatched to persistent pool workers.",
)
_AU_SERIAL_FALLBACKS = _REGISTRY.counter(
    "repro_parallel_au_serial_fallbacks_total",
    "AU parallel aggregates re-run serially (uncertain group-by values).",
)


def _contains(pnode: phys.PhysNode, target: phys.PhysNode) -> bool:
    return any(n is target for n in pnode.walk())


def _bind_invariants(
    pnode: phys.PhysNode,
    scan: phys.ParallelScan,
    parent_exec,
    bindings: Dict[int, Any],
) -> None:
    """Evaluate partition-invariant subtrees once, in the parent.

    Everything not containing the ParallelScan produces the same result
    for every morsel (e.g. the build side of a hash join) — bind it so
    workers skip the recomputation.
    """
    for child in pnode.children():
        if _contains(child, scan):
            _bind_invariants(child, scan, parent_exec, bindings)
        else:
            bindings[id(child)] = parent_exec.eval(child)


def _prebuild_join_tables(
    pnode: phys.PhysNode,
    scan: phys.ParallelScan,
    bindings: Dict[int, Any],
    join_tables: Dict[int, Any],
) -> None:
    """Build hash tables for partition-invariant build sides once.

    A ``HashJoin`` on the driver spine probes a build side that is the
    same for every morsel — without this, each worker would rebuild the
    identical table (:func:`repro.exec.vectorized.build_join_table`, on
    either engine).  Tables are keyed by the build child's node id, the
    key the executors look them up by."""
    from .vectorized import build_join_table

    if isinstance(pnode, phys.HashJoin) and id(pnode.right) in bindings:
        join_tables[id(pnode.right)] = build_join_table(
            bindings[id(pnode.right)], [b for _, b in pnode.eq_pairs]
        )
    for child in pnode.children():
        if _contains(child, scan):
            _prebuild_join_tables(child, scan, bindings, join_tables)


def execute_exchange(parent_exec, node: phys.Exchange):
    """Run the parallel region under ``node`` and merge the partitions;
    the morsels run on ``parent_exec``'s executor class."""
    cls = type(parent_exec)
    scan = next(
        p for p in node.child.walk() if isinstance(p, phys.ParallelScan)
    )
    db = parent_exec.db
    # morsels map 1:1 onto contiguous runs of surviving chunks, so
    # zone-map skipping prunes work *before* it is handed to workers
    store = _chunks.chunk_store(db[scan.table], scan.chunk_size)
    chunk_groups, group_rows, chunks_total, chunks_skipped = (
        store.morsel_chunk_groups(node.partitions, scan.skip)
    )
    driver_rows = sum(group_rows)
    if len(chunk_groups) > 1 and driver_rows < PARALLEL_MIN_ROWS:
        chunk_groups = [[ci for g in chunk_groups for ci in g]]

    bindings: Dict[int, Any] = dict(parent_exec.bindings)
    _bind_invariants(node.child, scan, parent_exec, bindings)

    pool: Optional[WorkerPool] = getattr(parent_exec, "pool", None)
    use_pool = (
        len(chunk_groups) > 1
        and driver_rows >= PROCESS_MIN_ROWS
        and pool is not None
        and pool.ensure(db)
    )
    if _tm._ACTIVE is not None:
        # the Exchange's operator span is the innermost open one here;
        # in-process morsels emit their own nested spans, pool workers
        # trace nothing (spans die with the child's address space) but
        # report per-task wall times back
        _tm.annotate(
            morsels=len(chunk_groups),
            pooled=use_pool,
            driver_rows=driver_rows,
            **_chunks.skip_attrs(scan.skip, chunks_total, chunks_skipped),
        )

    try:
        results = None
        if use_pool:
            try:
                results = _run_pooled(pool, node, scan, cls, bindings, chunk_groups)
            except PoolBrokenError:
                pass  # the in-process path below serves the region
        if results is None:
            results = _run_inline(
                db, node, scan, cls, bindings, store, chunk_groups
            )
        return _merge(cls, node, results)
    except UncertainGroupError:
        # a morsel met uncertain group-by values: partial aggregation is
        # not sound there, so run the original serial operator instead
        _AU_SERIAL_FALLBACKS.inc()
        if _tm._ACTIVE is not None:
            _tm.annotate(au_serial_fallback=True)
        return parent_exec.eval(node.final)


def _run_inline(
    db,
    node: phys.Exchange,
    scan: phys.ParallelScan,
    cls: type,
    bindings: Dict[int, Any],
    store,
    chunk_groups: List[List[int]],
) -> List[Any]:
    """Interpret the region once per morsel in this process.

    Same worker + transport code as the pool, minus the processes:
    results round-trip through encode/decode so both transports are
    byte-for-byte the same computation.
    """
    join_tables: Dict[int, Any] = {}
    _prebuild_join_tables(node.child, scan, bindings, join_tables)
    return [
        _decode(
            _encode(
                cls(
                    db,
                    None,
                    {**bindings, id(scan): store.batch_for_chunks(g)},
                    join_tables,
                ).eval(node.child)
            )
        )
        for g in chunk_groups
    ]


# ----------------------------------------------------------------------
# result / morsel transport
# ----------------------------------------------------------------------
def _encode(result) -> tuple:
    from .vectorized import PartialAggregate

    if isinstance(result, PartialAggregate):
        return ("partial", result.groups)
    if isinstance(result, AUColumnBatch):
        return (
            "au_batch",
            result.schema,
            [list(col) for col in result.columns],
            list(result.ann_lb),
            list(result.ann_sg),
            list(result.ann_ub),
        )
    return (
        "batch",
        result.schema,
        [list(col) for col in result.columns],
        list(result.mult),
    )


def _decode(payload: tuple):
    from .vectorized import PartialAggregate

    if payload[0] == "partial":
        return PartialAggregate(payload[1])
    if payload[0] == "au_batch":
        _tag, schema, columns, lb, sg, ub = payload
        return AUColumnBatch(schema, columns, lb, sg, ub)
    _tag, schema, columns, mult = payload
    return ColumnBatch(schema, columns, mult)


# ----------------------------------------------------------------------
# persistent worker pool (Connection-owned, lives across queries)
# ----------------------------------------------------------------------
class PoolBrokenError(RuntimeError):
    """The persistent pool cannot serve this region (worker death or an
    untransportable plan); the caller falls back to in-process morsels."""


def _run_task(db, task: tuple) -> tuple:
    """Execute one morsel task inside a pool worker."""
    region_bytes, cls, scan_idx, enc_bindings, chunk_indices = task
    region = pickle.loads(region_bytes)
    # node identities do not survive pickling: bindings travel keyed by
    # preorder walk index and re-key against the worker's copy
    nodes = list(region.walk())
    bindings = {id(nodes[i]): _decode(p) for i, p in enc_bindings}
    scan = nodes[scan_idx]
    # the fork-inherited relation state is identical at the same epoch,
    # so chunk boundaries — and therefore the morsel batch — are
    # bit-identical to the parent's
    store = _chunks.chunk_store(db[scan.table], scan.chunk_size)
    bindings[id(scan)] = store.batch_for_chunks(chunk_indices)
    join_tables: Dict[int, Any] = {}
    _prebuild_join_tables(region, scan, bindings, join_tables)
    return _encode(cls(db, None, bindings, join_tables).eval(region))


def _pool_worker_main(conn, db) -> None:
    """Loop of one persistent worker: recv task, execute, send result.

    The fork inherited the parent's active trace; spans recorded here
    could never travel back over the result pipe, so none are recorded —
    instead each reply carries its wall time for the parent to attach to
    the Exchange span.
    """
    _tm._ACTIVE = None
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if task is None:
            break
        started = time.perf_counter()
        try:
            payload = _run_task(db, task)
        except BaseException as exc:  # noqa: BLE001 - relayed to parent
            try:
                conn.send(("err", exc))
            except Exception:
                conn.send(("err", RuntimeError(f"worker failed: {exc!r}")))
            continue
        conn.send(("ok", payload, time.perf_counter() - started))


class WorkerPool:
    """A persistent fork-based worker pool owned by a Connection.

    Workers are forked once and live across queries; each query ships
    its region plan, invariant bindings, and chunk-index morsel specs
    over pipes and receives encoded results back.  The pool is keyed to one database
    *snapshot* — ``(database identity, epoch)`` — because forked workers
    hold a copy-on-write image of the parent's relations: when the epoch
    advances (any write), :meth:`ensure` tears the stale workers down
    and re-forks against current state.  Fork/reuse/invalidation counts
    publish to the metrics registry (``repro_parallel_pool_*``).
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("worker pool needs at least one worker")
        self.size = size
        self._workers: List[Tuple[Any, Any]] = []  # (process, pipe conn)
        self._key: Optional[Tuple[int, int]] = None

    # -- lifecycle -----------------------------------------------------
    @property
    def alive(self) -> bool:
        return bool(self._workers)

    def ensure(self, db) -> bool:
        """Make the workers match ``db`` at its current epoch.

        Returns ``True`` when live workers hold the right snapshot
        (reusing or re-forking as needed), ``False`` when fork is not
        available on this platform.
        """
        if not hasattr(os, "fork"):
            return False
        key = (id(db), getattr(db, "epoch", 0))
        if self._workers and self._key == key:
            _POOL_REUSES.inc()
            return True
        if self._workers:
            _POOL_INVALIDATIONS.inc()
            self.close()
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        workers: List[Tuple[Any, Any]] = []
        for _ in range(self.size):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_pool_worker_main, args=(child_conn, db), daemon=True
            )
            proc.start()
            child_conn.close()
            workers.append((proc, parent_conn))
        self._workers = workers
        self._key = key
        _POOL_FORKS.inc()
        return True

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        workers, self._workers, self._key = self._workers, [], None
        for proc, conn in workers:
            try:
                conn.send(None)
            except (OSError, ValueError):
                pass
        for proc, conn in workers:
            try:
                proc.join(timeout=1.0)
                if proc.is_alive():
                    proc.terminate()
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- dispatch ------------------------------------------------------
    def run(self, tasks: List[tuple]) -> Tuple[List[tuple], List[float]]:
        """Round-robin ``tasks`` over the workers; returns the encoded
        payloads in task order plus per-task worker wall times.

        Worker-side exceptions re-raise here (they travel pickled over
        the pipe — how an :class:`UncertainGroupError` in one morsel
        reaches the Exchange's serial fallback); transport failures
        close the pool and raise :class:`PoolBrokenError` instead.
        """
        if not self._workers:
            raise PoolBrokenError("pool has no live workers")
        assignment: List[List[int]] = [[] for _ in self._workers]
        for k in range(len(tasks)):
            assignment[k % len(self._workers)].append(k)
        payloads: List[Optional[tuple]] = [None] * len(tasks)
        timings: List[float] = [0.0] * len(tasks)
        error: Optional[BaseException] = None
        try:
            for (_proc, conn), idxs in zip(self._workers, assignment):
                for k in idxs:
                    conn.send(tasks[k])
            for (_proc, conn), idxs in zip(self._workers, assignment):
                for k in idxs:
                    reply = conn.recv()
                    if reply[0] == "ok":
                        payloads[k] = reply[1]
                        timings[k] = reply[2]
                    elif error is None:
                        error = reply[1]
        except (EOFError, OSError) as exc:
            self.close()
            raise PoolBrokenError(f"pool worker died: {exc!r}") from exc
        _POOL_TASKS.inc(len(tasks))
        if error is not None:
            raise error
        return payloads, timings


def _run_pooled(
    pool: WorkerPool,
    node: phys.Exchange,
    scan: phys.ParallelScan,
    cls: type,
    bindings: Dict[int, Any],
    chunk_groups: List[List[int]],
) -> List[Any]:
    """Dispatch the region to the persistent pool.

    The region subtree is pickled once per query; morsels travel as
    chunk-index runs (the workers' fork-inherited stores rebuild the
    batches locally).  Invariant bindings are keyed by walk index so
    they re-attach to the workers' unpickled plan copies.
    """
    nodes = list(node.child.walk())
    idx_of = {id(n): i for i, n in enumerate(nodes)}
    try:
        region_bytes = pickle.dumps(node.child)
        enc_bindings = tuple(
            (idx_of[key], _encode(batch))
            for key, batch in bindings.items()
            if key in idx_of
        )
        tasks = [
            (region_bytes, cls, idx_of[id(scan)], enc_bindings, g)
            for g in chunk_groups
        ]
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        # untransportable plan (exotic expression state): the pool stays
        # alive for other queries, this region runs in-process
        raise PoolBrokenError(f"region not picklable: {exc!r}") from exc
    payloads, timings = pool.run(tasks)
    if _tm._ACTIVE is not None:
        _tm.annotate(pool_worker_seconds=[round(t, 6) for t in timings])
    return [_decode(p) for p in payloads]


# ----------------------------------------------------------------------
# merges
# ----------------------------------------------------------------------
def _merge(cls: type, node: phys.Exchange, results: List[Any]):
    """Recombine the morsel results of the region (on ``cls``'s engine).

    Partial aggregation states combine exactly and finalize — det ones
    through the registry's merges, AU ones in partition order through
    :func:`~repro.exec.au_aggregate.merge_partial_groups` (exact
    Shewchuk accumulators make SUM/AVG regrouping-invariant; MIN/MAX/
    AVG-envelope tie rules replay the serial fold because merging
    follows partition order) — and ``HAVING`` filters through the
    engine's σ.  Batches concatenate in partition order; a ``topk`` /
    ``au_topk`` / ``limit`` / ``distinct`` region applies its operator
    once over the concatenation (the AU top-k's prefix-sum bounds need
    the entire input).
    """
    from . import au_aggregate
    from .vectorized import _limit, finalize_groups

    final = node.final
    if node.merge == "aggregate":
        merged: Dict[Tuple, List[Any]] = {}
        merges = [AGGREGATES[spec.kind].det.merge for spec in final.aggregates]
        for partial in results:
            for key, accs in partial.groups.items():
                mine = merged.get(key)
                if mine is None:
                    merged[key] = accs
                    continue
                for a, merge in enumerate(merges):
                    mine[a] = merge(mine[a], accs[a])
        batch = finalize_groups(merged, final.group_by, final.aggregates)
    elif node.merge == "au_aggregate":
        groups: Dict[Tuple, list] = {}
        for part in results:
            au_aggregate.merge_partial_groups(groups, part.groups, final.aggregates)
        batch = au_aggregate.finalize_groups(groups, final.group_by, final.aggregates)
    else:
        batch = cls.batch.concat(results[0].schema, results)
        if node.merge == "concat":
            return batch
        if node.merge in ("topk", "au_topk"):
            return cls._topk(batch, final.keys, final.descending, final.n)
        if node.merge == "limit":
            return _limit(batch, final.n)
        if node.merge == "distinct":
            return cls._distinct(batch)
        raise TypeError(f"unsupported exchange merge {node.merge!r}")
    if final.having is not None:
        batch = cls(None)._selection(batch, final.having)
    return batch

"""Incremental view maintenance: live views over the session layer.

:meth:`repro.session.Connection.subscribe` returns a
:class:`MaterializedView` that stays consistent with the database under
writes without re-executing its query per read.  The machinery is a
*delta plan* derived at subscribe time from the optimized logical plan
(:func:`repro.algebra.optimizer.derive_delta`) and lowered to physical
form once (:func:`repro.exec.physical.lower_delta`):

* the **linear fragment** (σ, π, ρ, ⋈, ×, ∪ — and bag-only ``OrderBy``)
  propagates deltas algebraically: both annotation semirings (bag ``N``
  and the paper's ``K^AU`` triples) distribute over union, so a write
  of ``Δ`` to base table ``R`` changes the view by exactly
  ``Q[R := Δ]`` — the *same* physical plan run by the one vectorized
  executor with every ``Scan`` of ``R`` bound to the write as a
  one-row batch, the scans of a union branch beside one that reads
  ``R`` bound to an empty one, and every other table read in its
  current state (join deltas against the live opposite side);
* the **non-linear fragment** (``Difference``, ``Distinct``, ``TopK``,
  ``Aggregate``) cannot absorb one-sided deltas, so
  :func:`~repro.algebra.optimizer.derive_delta` carves the maximal
  linear subtrees into incrementally-maintained *segments* and re-runs
  only the remaining *tail* — the refresh boundary chosen at plan
  time — **epoch-gated at read time**: writes mark the tail dirty and
  the re-execution is deferred (and batched) until the next read;
* a tail that is one ``HashAggregate`` over one segment — every root
  ``GROUP BY`` over a linear input, on both engines — keeps the
  aggregate's **γ state** beside the segment
  (:class:`~repro.exec.vectorized.DetGammaState`,
  :class:`~repro.exec.au_aggregate.GammaState`): each change of a
  segment row folds into it, so a dirty read only finalizes; a change
  the state cannot fold exactly (a deleted ``MIN`` / ``MAX`` extremum,
  a non-finite ``SUM`` addend, an uncertain AU group key, …) marks it
  stale and the next read re-runs the γ over the kept segment,
  rebuilding the state (``repro_ivm_gamma_state_rebuilds_total``).

Maintenance is *exact*, never approximate: a write no segment can
absorb (a self-joined table's write to a linear view, a delete taking a
segment row negative) raises :class:`DeltaFoldError` internally and
degrades that view to a full refresh at the next read; an apply that
raises anything else (a materialization budget, say) degrades it the
same way before the error reaches the writer.  Out-of-band changes —
a table rebound via ``db[name] = ...``, or writes that bypassed the
subscribed relation objects — are caught by the catalog epoch check on
read and handled the same way.  The write-interleaving lane of the
differential fuzzer (``tests/test_fuzz_differential.py``) holds
maintained results equal to fresh re-execution after every write,
on both engines.

A view runs :func:`~repro.exec.vectorized.execute_det` /
:func:`~repro.exec.vectorized.execute_audb` by engine, whatever the
connection's ``EvalConfig.backend`` says, and hands a plan what it
reads in place of a table through the executor's bindings
(:class:`~repro.exec.vectorized.SubplanMemo`): the write's batch for
the segment plans, each kept segment's chunk-store batch for the tail.
A write builds no chunk store.

Views are not thread-safe; like connections, use one per worker.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Union

from . import analysis
from . import telemetry as _tm
from .algebra.ast import Plan
from .algebra.optimizer import DeltaPlan, derive_delta, optimize
from .db import chunks as _chunks
from .exec import physical as phys
from .exec.au_aggregate import GammaState
from .exec.batch import AUColumnBatch, ColumnBatch
from .exec.vectorized import DetGammaState, SubplanMemo, execute_audb, execute_det
from .sql.parser import parse_sql

__all__ = ["MaterializedView", "DeltaFoldError"]

class DeltaFoldError(Exception):
    """A write cannot be folded into a view's maintained segments.

    Raised when only a from-scratch recomputation preserves exactness;
    ``reason`` says which guard fired (the label of
    ``repro_ivm_delta_fold_fallbacks_total``):

    * ``negative_weight`` — a delete taking a segment row's weight
      negative (or leaving an invalid ``K^AU`` remainder);
    * ``self_join`` — a write to a table a linear view joins with
      itself.

    :class:`MaterializedView` reacts with an epoch-gated full refresh —
    never with an approximate answer.  A γ state that cannot fold a
    change is not an error: it goes stale and the view re-runs the γ
    over its kept segment.
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


# process-wide maintenance counters (repro.telemetry registry), mirrors
# of the per-view writes_applied / full_refreshes / tail_refreshes ints
_REG = _tm.get_registry()
_DELTA_APPLIES = _REG.counter(
    "repro_ivm_delta_applies_total",
    "Per-write deltas applied to materialized views.",
)


def _fold_fallback(exc: DeltaFoldError) -> None:
    """Count one degradation to full refresh, labelled with its reason."""
    _REG.counter(
        "repro_ivm_delta_fold_fallbacks_total",
        "DeltaFoldError degradations to full refresh, by reason.",
        reason=exc.reason,
    ).inc()


_FULL_REFRESHES = _REG.counter(
    "repro_ivm_full_refreshes_total",
    "From-scratch view rematerializations.",
)
_SEGMENT_REFRESHES = _REG.counter(
    "repro_ivm_segment_refreshes_total",
    "Dirty linear-segment rebuilds (refresh-classified views).",
)
_TAIL_REFRESHES = _REG.counter(
    "repro_ivm_tail_refreshes_total",
    "Epoch-gated non-linear tail re-executions.",
)


def _gamma_state_rebuilt(reason: str) -> None:
    """Count one γ-state rebuild (a tail re-run), labelled with why the
    kept state could not serve the read."""
    _REG.counter(
        "repro_ivm_gamma_state_rebuilds_total",
        "Tail re-runs that rebuilt an aggregate view's γ state, by "
        "reason.",
        reason=reason,
    ).inc()


def _private(rel):
    """A new relation holding ``rel``'s rows, in order: a linear view's
    result never aliases its maintained bag."""
    out = type(rel)(rel.schema)
    out.rows = dict(rel.rows)
    return out


class MaterializedView:
    """A live, incrementally-maintained query result.

    Created by :meth:`repro.session.Connection.subscribe`; hold on to
    the object and call :meth:`result` whenever the current view
    contents are needed.  Returned relations are shared snapshots —
    treat them as read-only.  They never alias maintained state: a
    result read before a write keeps its rows after it.

    ``writes_applied`` / ``full_refreshes`` / ``tail_refreshes`` are
    monotone observability counters: how many writes were folded
    incrementally, how many times the view fell back to a from-scratch
    rebuild, and how many times the non-linear tail re-executed.
    """

    def __init__(
        self,
        connection,
        query: Union[str, Plan],
        params=None,
    ) -> None:
        from .session import bind_parameters

        conn = connection
        config = conn.config
        self._conn = conn
        self._engine = conn.engine
        self._exec = execute_det if conn.engine == "det" else execute_audb
        self._closed = False
        self._semantics = "bag" if conn.engine == "det" else "au"

        if isinstance(query, str):
            conn.metrics.parses += 1
            query = parse_sql(query)
        # subscriptions are long-lived: bind parameters once, up front
        plan = bind_parameters(query, params)
        stats = conn.statistics()
        analysis.verify_logical(plan, stats)
        trace: List[str] = []
        if config.optimize:
            plan = optimize(
                plan,
                stats,
                join_order=config.join_order,
                semantics=self._semantics,
                verify=conn.verify_plans,
                trace=trace,
            )
            conn.metrics.optimizations += 1
        self.plan = plan
        self._delta: DeltaPlan = derive_delta(
            plan,
            stats,
            semantics=self._semantics,
            trace=trace,
            join_buckets=config.join_buckets,
        )
        if conn.verify_plans:
            analysis.check_semiring_safety(trace, self._semantics)
        self._dplan: phys.DeltaPhysical = phys.lower_delta(
            self._delta,
            stats,
            phys.PhysicalConfig.from_eval(conn.engine, config),
            verify=conn.verify_plans,
        )
        conn.metrics.lowerings += 1
        if conn.verify_plans:
            analysis.verify_delta(self._delta, self._dplan, stats)
        tail = self._dplan.tail_pplan
        #: every scan of the segment plans and the tail, by table: a
        #: write is bound to each scan of its table (a self-union reads
        #: it twice), a kept segment to each tail scan of its name
        self._scans: Dict[str, List[phys.Scan]] = {}
        for pplan in filter(None, (*self._dplan.segment_pplans, tail)):
            for node in pplan.walk():
                if isinstance(node, phys.Scan):
                    self._scans.setdefault(node.table, []).append(node)
        #: per table, the scans of each union branch in the segment plans
        #: that reads no scan of it beside a branch that does: Q[R := Δ]
        #: reads them empty, or a union's other branch is counted again
        #: at every write to R
        self._silent: Dict[str, List[phys.Scan]] = {}
        for pplan in self._dplan.segment_pplans:
            for node in pplan.walk():
                if not isinstance(node, phys.Concat):
                    continue
                sides = [
                    [n for n in side.walk() if isinstance(n, phys.Scan)]
                    for side in (node.left, node.right)
                ]
                for reads, other in (sides, sides[::-1]):
                    read = {scan.table for scan in reads}
                    for table in read.difference(scan.table for scan in other):
                        self._silent.setdefault(table, []).extend(other)

        n_segs = len(self._delta.segments)
        self._tracked: Dict[str, Any] = {}
        self._expected: Dict[str, int] = {}
        self._sinks: List[Tuple[Any, Any]] = []
        self._needs_full_refresh = False
        #: one private relation per Δ-maintained segment, alive as long
        #: as the view: deltas enter through its add/delete, so a chunk
        #: store the tail's scan built is maintained per write too
        self._segs: List[Any] = [None] * n_segs
        self._seg_dirty: List[bool] = [False] * n_segs
        self._tail_dirty = True
        self._tail_result = None
        #: the segment whose γ state the view keeps (a tail that is one
        #: HashAggregate over it), the state, and why it must be rebuilt
        #: at the next read (``None``: it is current)
        self._gamma_at = phys.gamma_segment(self._dplan)
        self._gamma: Union[DetGammaState, GammaState, None] = None
        self._gamma_stale: Optional[str] = "initial"
        #: the tail's HAVING, run over the kept state's result
        self._having = (
            phys.FusedSelectProject(tail, tail.having, None)
            if self._gamma_at is not None and tail.having is not None
            else None
        )
        # read-side cache: rebuilt only when the catalog epoch moved
        self._result = None
        self._result_epoch: Optional[int] = None
        self.writes_applied = 0
        self.full_refreshes = 0
        self.tail_refreshes = 0
        self._materialize()

    # -- introspection -------------------------------------------------
    @property
    def kind(self) -> str:
        """Plan-time classification: ``linear`` or ``refresh``."""
        return self._delta.kind

    @property
    def closed(self) -> bool:
        return self._closed

    def tables(self) -> Tuple[str, ...]:
        """Base tables whose writes this view observes."""
        return self._delta.tables()

    def explain_delta(self) -> str:
        """Render the maintenance plan: Δ-maintained segments vs the
        refresh boundary (see :func:`repro.exec.physical.explain_delta`)."""
        return phys.explain_delta(self._dplan)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Stop maintenance: detach every write sink and free the
        connection's registry entry.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._detach()
        subs = getattr(self._conn, "_subscriptions", None)
        if subs is not None:
            subs.pop(id(self), None)

    def _attach(self) -> None:
        for name in self._tracked:
            rel = self._tracked[name]
            sink = self._make_sink(name)
            rel.attach_sink(sink)
            self._sinks.append((rel, sink))

    def _detach(self) -> None:
        for rel, sink in self._sinks:
            rel.detach_sink(sink)
        self._sinks = []

    def _make_sink(self, table: str):
        def sink(t, payload, sign):
            self._on_write(table, t, payload, sign)

        return sink

    # -- write path ----------------------------------------------------
    def _on_write(self, table: str, t, payload, sign: int) -> None:
        rel = self._tracked.get(table)
        if rel is not None:
            # the sink fires from the relation's Relation._publish,
            # after it advanced stats_epoch: re-sync the expectation so
            # the read-side drift check recognizes this write as ours
            self._expected[table] = rel.stats_epoch
        if self._needs_full_refresh:
            return
        try:
            self._apply(table, t, payload, sign)
        except DeltaFoldError as exc:
            self._needs_full_refresh = True
            _fold_fallback(exc)
        except BaseException:
            # the write landed but its delta may be half-merged: only a
            # full refresh is exact again
            self._needs_full_refresh = True
            raise
        else:
            self.writes_applied += 1
            _DELTA_APPLIES.inc()

    def _apply(self, table: str, t, payload, sign: int) -> None:
        delta = self._delta
        memo = None
        for i, seg in enumerate(delta.segments):
            if table not in seg.tables:
                continue
            if table in seg.multi_ref:
                # a self-joined table: Q[R := Δ] misses the Δ⋈Δ and
                # Δ⋈(R−Δ) cross terms — refresh the whole segment
                if seg.name == "":
                    raise DeltaFoldError("self_join", repr(table))
                self._seg_dirty[i] = True
                continue
            if self._seg_dirty[i] and seg.name != "":
                continue  # already due for a from-scratch rebuild
            if memo is None:
                memo = self._delta_memo(table, t, payload)
            out = self._exec(
                self._dplan.segment_pplans[i], self._conn.db, memo=memo
            )
            self._merge(i, out, sign)
        if delta.tail is not None:
            self._tail_dirty = True
        self._result = None

    def _delta_memo(self, table: str, t, payload) -> SubplanMemo:
        """The write as one batch, bound to every scan of ``table`` in
        the segment plans, and an empty batch to every scan a union
        branch beside one of them reads."""
        batch_class = ColumnBatch if self._engine == "det" else AUColumnBatch
        db = self._conn.db
        bound = {
            id(scan): batch_class.from_rows(db[scan.table].schema, ())
            for scan in self._silent.get(table, ())
        }
        schema = self._tracked[table].schema
        if self._engine == "det":
            batch = ColumnBatch.from_rows(schema, {t: payload})
        else:
            batch = AUColumnBatch.from_rows(schema, [(t, payload)])
        bound.update(dict.fromkeys(map(id, self._scans[table]), batch))
        return SubplanMemo(frozenset(), bound, {})

    def _merge(self, i: int, out, sign: int) -> None:
        target = self._segs[i]
        write = target.add if sign > 0 else target.delete
        rows = target.rows
        gamma = self._gamma
        if i != self._gamma_at or self._gamma_stale is not None:
            gamma = None
        for t, payload in out.tuples():
            old = rows.get(t) if gamma is not None else None
            try:
                write(t, payload)
            except ValueError:
                # a negative multiplicity or an invalid K^AU remainder
                raise DeltaFoldError("negative_weight", repr(t)) from None
            if gamma is not None:
                reason = gamma.apply(t, old, rows.get(t))
                if reason is not None:
                    self._gamma_stale = reason
                    gamma = None

    # -- read path -----------------------------------------------------
    def result(self):
        """The view's current contents, maintained or refreshed.

        Applies the epoch gate: verifies every tracked base relation is
        still the object subscribed to and at the epoch the last
        observed write left it at (out-of-band drift forces a full
        refresh), then recomputes only what is dirty — usually nothing.
        """
        if self._closed:
            raise RuntimeError(
                "subscription is closed; subscribe() again to resume"
            )
        db = self._conn.db
        for name, rel in self._tracked.items():
            live = db[name]
            if live is not rel or live.stats_epoch != self._expected[name]:
                self._needs_full_refresh = True
                break
        if self._needs_full_refresh:
            self._materialize()
            self.full_refreshes += 1
            _FULL_REFRESHES.inc()
        epoch = getattr(db, "epoch", None)
        if (
            self._result is not None
            and epoch is not None
            and epoch == self._result_epoch
        ):
            return self._result
        out = self._build_result()
        self._result = out
        self._result_epoch = epoch
        return out

    def refresh(self):
        """Force a from-scratch rebuild, then return :meth:`result`."""
        self._needs_full_refresh = True
        return self.result()

    def _build_result(self):
        if self._delta.kind == "linear":
            return _private(self._segs[0])
        # refresh: rebuild dirty segments eagerly, then the gated tail
        for i, dirty in enumerate(self._seg_dirty):
            if dirty:
                self._segs[i] = self._exec(
                    self._dplan.segment_pplans[i], self._conn.db
                )
                self._seg_dirty[i] = False
                self._tail_dirty = True
                _SEGMENT_REFRESHES.inc()
                if i == self._gamma_at:
                    self._gamma_stale = "segment_rebuild"
        if self._gamma_at is not None and self._gamma_stale is None:
            if self._tail_dirty or self._tail_result is None:
                # the kept γ state is current: finalize, no re-run
                self._tail_result = self._gamma_result(self._gamma.result())
                self._tail_dirty = False
            return self._tail_result
        if self._tail_dirty or self._tail_result is None:
            if self._gamma_at is None:
                out = self.run_tail()
            else:
                out = self._gamma_rebuild()
            self._tail_result = out
            self._tail_dirty = False
            self.tail_refreshes += 1
            _TAIL_REFRESHES.inc()
        return self._tail_result

    def run_tail(self):
        """The non-linear tail re-executed over the view's current
        segments: what a ``refresh`` view's read returns, computed from
        scratch without touching maintained state."""
        bound = {
            id(scan): self._seg_batch(i, scan)
            for i, seg in enumerate(self._delta.segments)
            for scan in self._scans.get(seg.name, ())
        }
        memo = SubplanMemo(frozenset(), bound, {})
        return self._exec(self._dplan.tail_pplan, self._conn.db, memo=memo)

    def _seg_batch(self, i: int, scan: phys.Scan):
        """Segment ``i`` as the tail's ``scan`` reads it: its chunk
        store's batch (built on the first read, then maintained by the
        segment's writes)."""
        return _chunks.chunk_store(self._segs[i], scan.chunk_size).scan()[0]

    def _gamma_rebuild(self):
        """Re-run the tail's aggregate over its segment and keep its γ
        state: the tail re-run of a view whose state went stale."""
        tail = self._dplan.tail_pplan
        seg = self._segs[self._gamma_at]
        det = self._engine == "det"
        if self._gamma is None:
            self._gamma = (
                DetGammaState(seg.schema, tail.group_by, tail.aggregates)
                if det
                else GammaState(
                    seg.schema, tail.group_by, tail.aggregates, tail.buckets
                )
            )
        if det:
            source = seg  # the det state folds the segment's rows
        else:
            source = self._seg_batch(self._gamma_at, tail.child)
        out = _tm.run_op(
            tail, lambda _node: self._gamma.rebuild(source), (), None, len
        )
        _gamma_state_rebuilt(self._gamma_stale)
        self._gamma_stale = None
        return self._gamma_result(out)

    def _gamma_result(self, batch):
        """The view result of the γ output ``batch``: the result edge and
        the tail's HAVING."""
        having = self._having
        if having is None:
            return batch.to_relation()
        memo = SubplanMemo(frozenset(), {id(having.child): batch}, {})
        return self._exec(having, self._conn.db, memo=memo)

    def _materialize(self) -> None:
        """From-scratch (re)build: re-resolve base relations, recompute
        all maintained state, re-attach write sinks."""
        self._detach()
        db = self._conn.db
        self._tracked = {}
        self._expected = {}
        for name in self._delta.tables():
            rel = db[name]
            self._tracked[name] = rel
            self._expected[name] = rel.stats_epoch
        self._segs = [self._exec(pplan, db) for pplan in self._dplan.segment_pplans]
        self._seg_dirty = [False] * len(self._segs)
        self._tail_dirty = True
        self._tail_result = None
        self._gamma_stale = "initial"
        self._needs_full_refresh = False
        self._result = None
        self._result_epoch = None
        self._attach()

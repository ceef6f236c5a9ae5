"""Incremental view maintenance: delta-fold properties, fallback
boundaries, and the write-epoch bookkeeping it leans on.

Hypothesis properties:

* folding a random interleaving of input row changes into a kept det
  γ state (:class:`repro.exec.vectorized.DetGammaState`) finalizes
  **bit-identically** to the tuple engine's from-scratch aggregation of
  the surviving bag — inverting exact float sums, group births/deaths,
  and the re-run after a deleted min/max extremum included;
* an AU union view maintained per write (``K^AU`` partials merged
  componentwise) equals fresh re-execution bit-for-bit under random
  valid add/delete interleavings;
* every read of an AU ``GROUP BY`` view that keeps its γ state equals
  its tail re-run over the current segment — rows in order, cell and
  annotation ``repr`` — under insert / delete / value-equal-merge
  streams with uncertain keys, ranges and ``0`` / ``0.0`` / ``-0.0`` /
  ``True`` values, on both backends, with and without a bucket budget;
* empty-delta writes are complete no-ops (no epoch advance, no
  maintenance work, cached result object preserved);
* ``unsubscribe`` stops maintenance and frees the registry entry.

Plus golden ``explain_delta`` snapshots locking where the refresh
boundary lands for the non-linear operators (``Difference`` /
``Distinct`` / ``TopK`` / a det or AU γ), one pinned case per reason a
kept γ state goes stale on either engine, bit-identity of those views
under writes, the delete-aware statistics regression (delete-heavy
streams must advance the catalog epoch fast enough to re-trigger
lowering), the incremental columnar append, and the session layer's
read-only-epoch result memo.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra.ast import (
    Difference,
    Distinct,
    Limit,
    OrderBy,
    Projection,
    Selection,
    TableRef,
    Union,
)
from repro.algebra.evaluator import EvalConfig, evaluate_audb
from repro.algebra.optimizer import derive_delta
from repro.core.aggregation import (
    agg_avg,
    agg_count,
    agg_max,
    agg_min,
    agg_sum,
)
from repro.core.expressions import Const, Gt, Leq, Var
from repro.core.ranges import between
from repro.core.relation import AUDatabase, AURelation
from repro.db.engine import _aggregate, evaluate_det
from repro.db.storage import DetDatabase, DetRelation
from repro.exec.vectorized import DetGammaState
from repro.session import Connection
from repro.telemetry import get_registry

SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

AGGREGATES = [
    agg_sum("v", "s"),
    agg_count("n"),
    agg_avg("v", "av"),
    agg_min("v", "mn"),
    agg_max("v", "mx"),
]


def _bits(rel) -> list:
    """A bit-exact, order-insensitive rendering of a relation's bag
    (``repr`` distinguishes 1 from 1.0 and -0.0 from 0.0)."""
    return sorted(repr(item) for item in rel.tuples())


# ----------------------------------------------------------------------
# kept det γ state ≡ from-scratch (bag aggregates)
# ----------------------------------------------------------------------
# Per-example the value column is all-int, all-float, or ints mixed with
# non-integral floats: equal-valued mixed-type keys (0 vs 0.0) merge in
# the storage dict keeping the first-written tuple, so the change stream
# and the stored bag can disagree about the value's type — a documented
# storage caveat (docs/ivm.md), not a fold property.  The mixed column
# has no row value-equal across types, and a group whose last float row
# leaves must finish as an exact ``int`` again.  ``x + 0.0``
# canonicalizes -0.0.
_INT_VALUES = st.integers(min_value=-50, max_value=50)
_FLOAT_VALUES = st.floats(
    min_value=-50, max_value=50, allow_nan=False, allow_infinity=False
).map(lambda x: x + 0.0)
_MIXED_VALUES = st.one_of(
    _INT_VALUES, _FLOAT_VALUES.filter(lambda x: not x.is_integer())
)


@SETTINGS
@given(data=st.data())
def test_det_gamma_state_matches_from_scratch(data):
    group_by = data.draw(st.sampled_from([["g"], []]))
    values = data.draw(st.sampled_from([_INT_VALUES, _FLOAT_VALUES, _MIXED_VALUES]))
    # without MIN / MAX no deleted extremum re-runs the γ, so every
    # change folds
    aggregates = data.draw(st.sampled_from([AGGREGATES, AGGREGATES[:3]]))
    bag = DetRelation(("g", "v"))
    state = DetGammaState(bag.schema, group_by, aggregates)
    state.rebuild(bag)

    n_ops = data.draw(st.integers(min_value=1, max_value=12))
    for _ in range(n_ops):
        if bag.rows and data.draw(st.booleans()):
            t = data.draw(st.sampled_from(sorted(bag.rows, key=repr)))
            m = data.draw(st.integers(min_value=1, max_value=bag.rows[t]))
            write = bag.delete
        else:
            t = (
                data.draw(st.integers(min_value=0, max_value=2)),
                data.draw(values),
            )
            m = data.draw(st.integers(min_value=1, max_value=3))
            write = bag.add
        old = bag.rows.get(t)
        write(t, m)
        if state.apply(t, old, bag.rows.get(t)) is not None:
            # the runtime's reaction: re-run the γ over the kept input
            state.rebuild(bag)

    maintained = state.result().to_relation()
    reference = _aggregate(bag, group_by, aggregates)
    assert maintained.schema == reference.schema
    assert _bits(maintained) == _bits(reference)


def test_det_gamma_state_sum_is_an_int_again_when_its_last_float_leaves():
    bag = DetRelation(("g", "v"))
    state = DetGammaState(bag.schema, ["g"], AGGREGATES[:3])
    state.rebuild(bag)
    writes = [("add", (0, 3)), ("add", (0, 1.5)), ("add", (0, 1.5))]
    writes += [("delete", (0, 1.5)), ("delete", (0, 1.5))]
    for op, t in writes:
        old = bag.rows.get(t)
        getattr(bag, op)(t)
        assert state.apply(t, old, bag.rows.get(t)) is None
    reference = _aggregate(bag, ["g"], AGGREGATES[:3])
    assert _bits(state.result().to_relation()) == _bits(reference)
    assert _bits(reference) == ["((0, 3, 1, 3.0), 1)"]


# ----------------------------------------------------------------------
# K^AU partial merge ≡ from-scratch (AU linear views)
# ----------------------------------------------------------------------
def _au_annotations(draw):
    lb = draw(st.integers(min_value=0, max_value=1))
    sg = lb + draw(st.integers(min_value=0, max_value=1))
    return (lb, sg, sg + draw(st.integers(min_value=0, max_value=1)))


@SETTINGS
@given(data=st.data())
def test_au_union_view_maintained_equals_fresh(data):
    rel = AURelation(("a", "b"))
    db = AUDatabase({"r": rel})
    plan = Union(
        Selection(TableRef("r"), Gt(Var("b"), Const(1))),
        Selection(TableRef("r"), Leq(Var("a"), Const(2))),
    )
    conn = Connection(db, verify=True)
    view = conn.subscribe(plan)
    assert view.kind == "linear"
    for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
        existing = sorted(rel.tuples(), key=repr)
        if existing and data.draw(st.booleans()):
            t, (lb, sg, ub) = data.draw(st.sampled_from(existing))
            dub = data.draw(st.integers(min_value=1, max_value=ub))
            dsg = data.draw(st.integers(min_value=0, max_value=min(sg, dub)))
            dlb = data.draw(st.integers(min_value=0, max_value=min(lb, dsg)))
            if not (lb - dlb <= sg - dsg <= ub - dub):
                dlb, dsg, dub = lb, sg, ub  # full removal is always valid
            rel.delete(t, (dlb, dsg, dub))
        else:
            t = (
                data.draw(st.integers(min_value=0, max_value=3)),
                data.draw(st.integers(min_value=0, max_value=3)),
            )
            ann = _au_annotations(data.draw)
            if ann[2] == 0:
                ann = (ann[0], ann[1], 1)
            rel.add(t, ann)
        got = view.result()
        want = evaluate_audb(plan, db, conn.config)
        assert got.schema == want.schema
        assert _bits(got) == _bits(want)
    assert view.full_refreshes == 0  # the linear fragment never refreshes


# ----------------------------------------------------------------------
# empty deltas, unsubscribe, registry
# ----------------------------------------------------------------------
def _small_det_db() -> DetDatabase:
    db = DetDatabase()
    db["r"] = DetRelation(
        ("a", "b"), {(0, 1): 1, (1, 2): 2, (2, 5): 1, (3, 7): 3}
    )
    db["s"] = DetRelation(("c", "d"), {(1, 10): 1, (2, 20): 1})
    return db


def test_empty_delta_writes_are_noops():
    db = _small_det_db()
    conn = Connection(db, verify=True)
    view = conn.subscribe(Selection(TableRef("r"), Gt(Var("b"), Const(1))))
    before = view.result()
    epoch = db.epoch
    db["r"].add((9, 9), 0)  # zero-multiplicity insert
    db["r"].delete((1, 2), 0)  # zero-multiplicity delete
    assert db.epoch == epoch  # no write happened as far as epochs go
    assert view.writes_applied == 0
    assert view.result() is before  # cached object survives untouched

    au = AUDatabase({"r": AURelation(("a",), {})})
    au["r"].add((1,), (1, 1, 1))
    au_conn = Connection(au, verify=True)
    au_view = au_conn.subscribe(TableRef("r"))
    au_before = au_view.result()
    au_epoch = au.epoch
    au["r"].delete((1,), (0, 0, 0))  # the K^AU zero
    assert au.epoch == au_epoch
    assert au_view.writes_applied == 0
    assert au_view.result() is au_before


def test_unsubscribe_stops_maintenance_and_frees_registry():
    db = _small_det_db()
    conn = Connection(db, verify=True)
    view = conn.subscribe(TableRef("r"))
    assert conn.subscriptions == (view,)
    assert conn.metrics.subscriptions == 1
    sinks_attached = len(db["r"]._delta_sinks)
    assert sinks_attached == 1
    conn.unsubscribe(view)
    assert view.closed
    assert conn.subscriptions == ()
    assert db["r"]._delta_sinks == ()  # write sinks detached
    db["r"].add((8, 8))
    assert view.writes_applied == 0
    with pytest.raises(RuntimeError):
        view.result()
    conn.unsubscribe(view)  # idempotent


# ----------------------------------------------------------------------
# non-linear fallback: refresh boundary goldens + bit-identity
# ----------------------------------------------------------------------
_NONLINEAR_PLANS = {
    "difference": Difference(
        Selection(TableRef("r"), Gt(Var("b"), Const(1))),
        Selection(TableRef("r"), Leq(Var("a"), Const(1))),
    ),
    "distinct": Distinct(Projection(TableRef("r"), ((Var("a"), "a"),))),
    "topk": Limit(OrderBy(TableRef("r"), ("b",), True), 2),
}


@pytest.mark.parametrize("name", sorted(_NONLINEAR_PLANS))
def test_nonlinear_views_bit_identical_under_writes(name):
    for backend in ("tuple", "vectorized"):
        db = _small_det_db()
        conn = Connection(db, verify=True, config=EvalConfig(backend=backend))
        plan = _NONLINEAR_PLANS[name]
        view = conn.subscribe(plan)
        assert view.kind == "refresh"
        writes = [
            ("add", (1, 9), 2),
            ("delete", (1, 2), 1),
            ("add", (4, 2), 1),
            ("delete", (3, 7), 3),
        ]
        for op, t, m in writes:
            getattr(db["r"], op)(t, m)
            got = view.result()
            want = evaluate_det(plan, db, backend=backend)
            assert got.schema == want.schema
            assert _bits(got) == _bits(want), (name, backend, op, t)
        assert view.writes_applied > 0  # segments really were maintained


GOLDEN_DELTA_PLANS = {
    "difference": """\
DeltaPlan[kind=refresh]
  Δ-maintain segment __ivm_seg0:
    FusedSelectProject σ[(b > 1)]  (~7 rows)
      Scan r [skip: b>1]  (~7 rows)
  Δ-maintain segment __ivm_seg1:
    FusedSelectProject σ[(a <= 1)]  (~2 rows)
      Scan r [skip: a<=1]  (~7 rows)
  refresh-boundary (re-executed per epoch):
    HashExcept −  (~7 rows)
      Scan __ivm_seg0  (~7 rows)
      Scan __ivm_seg1  (~1 rows)""",
    "distinct": """\
DeltaPlan[kind=refresh]
  Δ-maintain segment __ivm_seg0:
    FusedSelectProject π[a]  (~7 rows)
      Scan r  (~7 rows)
  refresh-boundary (re-executed per epoch):
    HashDistinct δ  (~7 rows)
      Scan __ivm_seg0  (~7 rows)""",
    "topk": """\
DeltaPlan[kind=refresh]
  refresh-boundary (re-executed per epoch):
    TopK [b desc; n=2]  (~2 rows)
      Scan r  (~7 rows)""",
}


@pytest.mark.parametrize("name", sorted(_NONLINEAR_PLANS))
def test_explain_delta_refresh_boundary_goldens(name):
    db = _small_det_db()
    conn = Connection(db, verify=True)
    view = conn.subscribe(_NONLINEAR_PLANS[name])
    assert view.explain_delta() == GOLDEN_DELTA_PLANS[name]


# ----------------------------------------------------------------------
# maintained segments are private: snapshots and aliasing
# ----------------------------------------------------------------------
def _uncertain_v_db() -> AUDatabase:
    """Six certain rows and one whose ``v`` is a range: an AU top-k over
    ``v`` keeps every row (uncertain order key)."""
    r = AURelation(("k", "v"))
    for k in range(6):
        r.add((k, between(k - 2, k, k + 2) if k == 3 else k * 10), (1, 1, 1))
    return AUDatabase({"r": r})


def _snapshot(rel) -> list:
    return [(repr(t), ann) for t, ann in rel.tuples()]


_TOPK_VIEWS = {
    # a projection segment under the tail, and the tail reading r itself
    "segment": "SELECT k, v FROM r ORDER BY v DESC LIMIT 2",
    "base": "SELECT * FROM r ORDER BY v DESC LIMIT 2",
}


@pytest.mark.parametrize("backend", ["tuple", "vectorized"])
@pytest.mark.parametrize("shape", sorted(_TOPK_VIEWS))
def test_refresh_view_results_are_snapshots(backend, shape):
    db = _uncertain_v_db()
    conn = Connection(db, verify=True, config=EvalConfig(backend=backend))
    sql = _TOPK_VIEWS[shape]
    view = conn.subscribe(sql)
    assert view.kind == "refresh"
    reads = []
    writes = [
        ("add", (7, 70), (1, 1, 1)),
        ("delete", (0, 0), (1, 1, 1)),
        ("add", (3, between(1, 3, 5)), (0, 1, 1)),
        ("delete", (5, 50), (1, 1, 1)),
    ]
    for op, t, ann in writes:
        result = view.result()
        reads.append((result, _snapshot(result)))
        getattr(db["r"], op)(t, ann)
        for earlier, snap in reads:
            assert _snapshot(earlier) == snap, (backend, shape, op, t)
        fresh = Connection(db, config=EvalConfig(backend=backend)).execute(sql)
        assert _snapshot(view.result()) == _snapshot(fresh)
    assert view.writes_applied == len(writes) and view.full_refreshes == 0


def test_bare_scan_segment_never_aliases_its_base_table():
    # OrderBy is linear and lowers to nothing: the segment is `Scan r`,
    # which the tuple interpreter answers with the base table itself
    db = _small_det_db()
    conn = Connection(db, verify=True, config=EvalConfig(backend="tuple"))
    plan = Distinct(OrderBy(TableRef("r"), ("a",)))
    view = conn.subscribe(plan)
    assert "Δ-maintain segment __ivm_seg0:\n    Scan r " in view.explain_delta()
    want = dict(db["r"].rows)
    for op, t, m in [("add", (1, 9), 2), ("delete", (1, 2), 1), ("add", (4, 2), 1)]:
        getattr(db["r"], op)(t, m)
        want[t] = want.get(t, 0) + (m if op == "add" else -m)
        want = {k: v for k, v in want.items() if v}
        assert db["r"].rows == want  # changed by its own writes only
        got = view.result()
        assert _bits(got) == _bits(evaluate_det(plan, db, backend="tuple"))
    assert view.writes_applied == 3 and view.full_refreshes == 0


_STORE_BUILDS = get_registry().counter("repro_storage_chunk_store_builds_total")


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT status, COUNT(*) AS n, SUM(price) AS total FROM o GROUP BY status",
        "SELECT k, price FROM o ORDER BY price DESC LIMIT 3",
    ],
)
def test_dirty_au_view_reads_build_no_chunk_store(sql):
    o = AURelation(("k", "status", "price"))
    for k in range(60):
        status = between("F", "O", "P") if k == 7 else "FOP"[k % 3]
        price = between(k - 5.0, float(k), k + 5.0) if k == 11 else float(k)
        o.add((k, status, price), (1, 1, 1))
    db = AUDatabase({"o": o})
    conn = Connection(db, verify=True)
    view = conn.subscribe(sql)
    assert view.kind == "refresh"
    view.result()  # the first read may build the segment's store
    for k in range(60, 66):
        db["o"].add((k, "OFP"[k % 3], k * 1.5), (1, 1, 1))
        db["o"].delete((k - 60, "FOP"[(k - 60) % 3], float(k - 60)), (1, 1, 1))
        builds = _STORE_BUILDS.value
        got = view.result()
        assert _STORE_BUILDS.value == builds  # the writes maintained it
        assert _snapshot(got) == _snapshot(Connection(db).execute(sql))
    assert view.tail_refreshes == 7 and view.full_refreshes == 0


def test_derive_delta_classification_and_trace():
    trace: list = []
    delta = derive_delta(
        Selection(TableRef("r"), Gt(Var("b"), Const(1))), trace=trace
    )
    assert delta.kind == "linear" and trace == ["delta-derivation"]
    # a self-joined table cannot absorb one-sided deltas
    from repro.algebra.ast import Join

    self_join = Join(TableRef("r"), TableRef("r"), Gt(Var("a"), Const(0)))
    delta = derive_delta(self_join)
    assert delta.kind == "linear"
    assert delta.segments[0].multi_ref == ("r",)


# ----------------------------------------------------------------------
# delete-aware statistics: epochs, accumulator, re-lowering
# ----------------------------------------------------------------------
def test_delete_epoch_counts_double():
    rel = DetRelation(("a",), {(1,): 2})
    e = rel.stats_epoch
    rel.add((2,))
    assert rel.stats_epoch == e + 1
    rel.delete((2,))
    assert rel.stats_epoch == e + 3  # a delete advances the epoch by 2


def test_delete_heavy_stream_triggers_relowering():
    """Regression: with deletes netted against inserts (or ignored), a
    delete-heavy stream looked idle to the staleness heuristic and the
    prepared plan was never re-lowered against shrunken statistics."""
    db = DetDatabase()
    db["r"] = DetRelation(("a", "b"), {(i, i % 3): 1 for i in range(8)})
    conn = Connection(db, staleness=6)
    prepared = conn.prepare(Selection(TableRef("r"), Gt(Var("a"), Const(2))))
    for i in range(3):
        db["r"].add((10 + i, 0))
    prepared.execute()
    assert conn.metrics.relowerings == 0  # 3 inserts: drift 3 <= 6
    for i in range(3):
        db["r"].delete((10 + i, 0))
    prepared.execute()
    # 3 deletes count double: drift 3 + 6 > 6 forces the re-lowering
    assert conn.metrics.relowerings == 1


def test_stats_accumulator_folds_deletes_out_of_its_counted_maps():
    from repro.algebra.stats import harvest_column_stats

    db = DetDatabase()
    db["r"] = DetRelation(("a",), {(v,): 2 for v in (1, 2, 3, 4)})
    harvest_column_stats(db)  # attaches + builds the accumulator
    acc = db["r"]._stats_acc
    assert acc.total == 8 and acc.sgs[0] == {1: 2, 2: 2, 3: 2, 4: 2}
    db["r"].delete((2,), 1)
    assert acc.total == 7 and acc.sgs[0][2] == 1
    db["r"].delete((2,), 1)
    assert acc.total == 6 and 2 not in acc.sgs[0]  # weight 0: key gone
    db["r"].delete((4,), 2)  # the max: folded out like any other value
    stats = harvest_column_stats(db)["r"]["a"]
    assert db["r"]._stats_acc is acc
    assert (stats.count, stats.distinct) == (4, 2)
    assert (stats.min_value, stats.max_value) == (1, 3)


def test_harvest_after_deletes_matches_fresh_scan():
    from repro.algebra.stats import harvest_column_stats

    db = DetDatabase()
    db["r"] = DetRelation(("a",), {(float(i),): 1 for i in range(40)})
    harvest_column_stats(db)
    db["r"].delete((39.0,))  # the max: folded out, no rescan
    db["r"].delete((7.0,))
    after = harvest_column_stats(db)
    fresh_db = DetDatabase()
    fresh_db["r"] = DetRelation(
        ("a",), {(float(i),): 1 for i in range(39) if i != 7}
    )
    fresh = harvest_column_stats(fresh_db)
    got, want = after["r"]["a"], fresh["r"]["a"]
    assert (got.min_value, got.max_value, got.count) == (
        want.min_value,
        want.max_value,
        want.count,
    )


# ----------------------------------------------------------------------
# session layer: read-only-epoch result memo
# ----------------------------------------------------------------------
def test_prepared_result_memo_on_read_only_epochs():
    db = _small_det_db()
    conn = Connection(db)
    prepared = conn.prepare(
        Selection(TableRef("r"), Gt(Var("b"), Const(0)))
    )
    r1 = prepared.execute()
    r2 = prepared.execute()
    assert r2 is r1  # no write in between: memoized object
    assert conn.metrics.result_cache_hits == 1
    assert conn.metrics.executions == 2
    db["r"].add((7, 7))
    r3 = prepared.execute()
    assert r3 is not r1  # epoch moved: fresh execution
    assert dict(r3.tuples())[(7, 7)] == 1
    assert conn.metrics.result_cache_hits == 1


def test_prepared_result_memo_is_per_binding():
    from repro.core.expressions import Parameter

    db = _small_det_db()
    conn = Connection(db)
    prepared = conn.prepare(
        Selection(TableRef("r"), Leq(Var("b"), Parameter(0)))
    )
    a1 = prepared.execute([2])
    b1 = prepared.execute([5])
    assert dict(a1.tuples()) != dict(b1.tuples())
    assert prepared.execute([2]) is a1
    assert prepared.execute([5]) is b1
    # the value's type is part of the key: 2 and 2.0 memoize separately
    assert prepared.execute([2.0]) is not a1
    assert conn.metrics.result_cache_hits == 2


# ----------------------------------------------------------------------
# AU GROUP BY views keep their γ state
# ----------------------------------------------------------------------
# A tail that is one AU HashAggregate over one segment keeps the fold's
# state: a certain-key segment delta folds into it, any other delta makes
# the next read re-run the tail.  Either way a read equals the tail
# re-run over the view's current segment to the bit — rows, order, cell
# and annotation repr.  Against a fresh execution the segment's storage
# caveat applies (it keeps the first-written of value-equal rows, see
# docs/ivm.md) and bucket boxes follow the segment's row order, so that
# comparison is by value and without a bucket budget.
_GAMMA_VIEWS = [
    "SELECT g, COUNT(*) AS n, SUM(v) AS s FROM r GROUP BY g",
    "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM r GROUP BY g HAVING n >= 2",
    "SELECT g, h, SUM(v) AS s, AVG(v) AS av, MIN(v) AS mn, MAX(v) AS mx "
    "FROM r GROUP BY g, h",
    "SELECT h, SUM(v * 2) AS s, MAX(v) AS mx FROM r GROUP BY h HAVING s > 0",
    "SELECT COUNT(*) AS n, SUM(v) AS s FROM r WHERE v >= 0",
]
_GAMMA_VALUES = st.sampled_from(
    [0, 0.0, -0.0, True, 1, 2.5, -1.5, between(-1, 0.5, 2), between(0, 0, 3.0)]
)
_GAMMA_KEYS = st.one_of(
    st.sampled_from([0, 1, 2, 0.0, True]),
    st.sampled_from([between(0, 1, 2), between(0, 0, 1)]),
)
_GAMMA_ANNS = st.sampled_from([(1, 1, 1), (0, 1, 1), (0, 0, 1), (1, 1, 2), (2, 2, 2)])


def _gamma_row(draw):
    return (
        draw(st.integers(min_value=0, max_value=3)),
        draw(_GAMMA_KEYS),
        draw(st.sampled_from("ab")),
        draw(_GAMMA_VALUES),
    )


def _gamma_write(draw, rel) -> None:
    """An insert, or a full or partial delete of a stored row."""
    rows = list(rel.tuples())
    if rows and draw(st.booleans()):
        t, (lb, sg, ub) = draw(st.sampled_from(rows))
        dub = draw(st.integers(min_value=1, max_value=ub))
        dsg = draw(st.integers(min_value=0, max_value=min(sg, dub)))
        dlb = draw(st.integers(min_value=0, max_value=min(lb, dsg)))
        if not (lb - dlb <= sg - dsg <= ub - dub):
            dlb, dsg, dub = lb, sg, ub
        rel.delete(t, (dlb, dsg, dub))
    else:
        rel.add(_gamma_row(draw), draw(_GAMMA_ANNS))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_au_gamma_view_equals_tail_rerun(data):
    draw = data.draw
    sql = draw(st.sampled_from(_GAMMA_VIEWS))
    buckets = draw(st.sampled_from([None, 2]))
    config = EvalConfig(
        backend=draw(st.sampled_from(["tuple", "vectorized"])),
        aggregation_buckets=buckets,
        chunk_size=draw(st.sampled_from([1, 3, 64])),
    )
    r = AURelation(("k", "g", "h", "v"))
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        r.add(_gamma_row(draw), draw(_GAMMA_ANNS))
    db = AUDatabase({"r": r})
    view = Connection(db, verify=True, config=config).subscribe(sql)
    assert view.explain_delta().count("γ state maintained") == 1
    fresh = Connection(db, config=config)
    view.result()
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        _gamma_write(draw, r)
        got = view.result()
        assert got.schema == view.run_tail().schema
        assert _snapshot(got) == _snapshot(view.run_tail())
        if buckets is None:
            assert dict(got.tuples()) == dict(fresh.execute(sql).tuples())
    assert view.full_refreshes == 0


_GAMMA_SQL = "SELECT status, COUNT(*) AS n, SUM(price) AS total FROM o GROUP BY status"
_GAMMA_REBUILDS = "repro_ivm_gamma_state_rebuilds_total"
_AU_AGGREGATES = [
    get_registry().counter("repro_exec_au_aggregate_total", inputs=inputs)
    for inputs in ("compiled", "interpreted")
]


def _orders_db(n: int = 12) -> AUDatabase:
    """Three certain-key groups F / O / P, the O group's box widened by
    one uncertain-key row (k = 4)."""
    o = AURelation(("k", "status", "price"))
    for k in range(n):
        status = between("F", "O", "P") if k == 4 else "FOP"[k % 3]
        o.add((k, status, float(k) + 0.5), (1, 1, 1))
    return AUDatabase({"o": o})


def _det_orders_db() -> DetDatabase:
    """:func:`_orders_db` on the det engine, every status certain."""
    rows = [(k, "FOP"[k % 3], float(k) + 0.5) for k in range(12)]
    return DetDatabase({"o": DetRelation(("k", "status", "price"), rows)})


def _rebuilds(reason: str) -> float:
    return get_registry().counter(_GAMMA_REBUILDS, reason=reason).value


@pytest.mark.parametrize("backend", ["tuple", "vectorized"])
def test_certain_key_write_folds_without_running_an_aggregate(backend):
    db = _orders_db()
    view = Connection(db, config=EvalConfig(backend=backend)).subscribe(_GAMMA_SQL)
    view.result()
    refreshes = view.tail_refreshes
    writes = [
        ("add", (20, "F", 7.25), (1, 1, 1)),  # a member, foreign to O's box
        ("add", (21, "O", 3), (0, 1, 1)),  # a member of the uncertain box
        ("add", (20, "F", 7.25), (1, 1, 1)),  # a value-equal merge
        ("delete", (20, "F", 7.25), (2, 2, 2)),
        ("delete", (7, "O", 7.5), (1, 1, 1)),
    ]
    for op, t, ann in writes:
        runs = [c.value for c in _AU_AGGREGATES]
        getattr(db["o"], op)(t, ann)
        got = view.result()
        assert [c.value for c in _AU_AGGREGATES] == runs
        assert view.tail_refreshes == refreshes
        assert _snapshot(got) == _snapshot(view.run_tail())
    assert view.writes_applied == len(writes)


_STALE_CASES = {
    # reason: (view, write) — each after a read of the view
    "uncertain_group_key": (_GAMMA_SQL, ("add", (30, between("F", "F", "O"), 1.0))),
    "new_group": (_GAMMA_SQL, ("add", (30, "Q", 1.0))),
    "group_emptied": (
        "SELECT status, SUM(price) AS total FROM o WHERE k <> 2 GROUP BY status",
        ("delete", (9, "F", 9.5)),
    ),
    "first_member_deleted": (_GAMMA_SQL, ("delete", (1, "O", 1.5))),
    "order_sensitive_delta": (
        "SELECT status, MAX(price) AS top FROM o GROUP BY status",
        ("delete", (7, "O", 7.5)),
    ),
    "non_finite_addend": (_GAMMA_SQL, ("add", (30, "P", float("inf")))),
}


@pytest.mark.parametrize("reason", sorted(_STALE_CASES))
def test_gamma_state_stale_reasons(reason):
    sql, (op, t) = _STALE_CASES[reason]
    db = _orders_db()
    if reason == "group_emptied":  # F keeps one member, k = 9
        for k in (0, 3, 6):
            db["o"].delete((k, "F", float(k) + 0.5), (1, 1, 1))
    view = Connection(db, verify=True).subscribe(sql)
    view.result()
    refreshes = view.tail_refreshes
    before = _rebuilds(reason)
    getattr(db["o"], op)(t, (1, 1, 1))
    got = view.result()
    assert _rebuilds(reason) == before + 1
    assert view.tail_refreshes == refreshes + 1
    assert _snapshot(got) == _snapshot(view.run_tail())
    # rebuilt: the next certain-key write folds again
    db["o"].add((40, "P", 2.0), (1, 1, 1))
    assert _snapshot(view.result()) == _snapshot(view.run_tail())
    assert view.tail_refreshes == refreshes + 1


def test_gamma_state_initial_build_and_explain_golden():
    db = _orders_db()
    before = _rebuilds("initial")
    view = Connection(db, verify=True).subscribe(_GAMMA_SQL)
    assert _rebuilds("initial") == before  # built on the first read
    view.result()
    view.refresh()
    assert _rebuilds("initial") == before + 2
    assert view.explain_delta() == """\
DeltaPlan[kind=refresh]
  Δ-maintain segment __ivm_seg0:
    FusedSelectProject π[status, price]  (~12 rows)
      Scan o  (~12 rows)
  refresh-boundary (γ state maintained; re-run when stale):
    HashAggregate γ[status; count(None)→n, sum(price)→total]  (~3 rows)
      Scan __ivm_seg0  (~12 rows)"""


def test_gamma_state_rebuilt_after_segment_rebuild():
    from repro.algebra.ast import Aggregate, Join, Rename
    from repro.core.expressions import Eq

    r = AURelation(("a", "g", "v"))
    for k in range(6):
        r.add((k, k % 2, float(k)), (1, 1, 1))
    db = AUDatabase({"r": r})
    plan = Aggregate(
        Join(
            TableRef("r"),
            Rename(TableRef("r"), (("a", "a2"), ("g", "g2"), ("v", "v2"))),
            Eq(Var("a"), Var("a2")),
        ),
        ("g",),
        (agg_sum("v2", "s"),),
    )
    view = Connection(db, verify=True).subscribe(plan)
    assert "refresh-on-write __ivm_seg0: r (self-joined)" in view.explain_delta()
    view.result()
    before = _rebuilds("segment_rebuild")
    db["r"].add((7, 1, 2.5), (1, 1, 1))
    assert _snapshot(view.result()) == _snapshot(view.run_tail())
    assert _rebuilds("segment_rebuild") == before + 1


@pytest.mark.parametrize("engine", ["det", "au"])
def test_gamma_state_fold_error_is_raised_by_the_read(engine):
    db, ann = _orders_db(), (1, 1, 1)
    if engine == "det":
        db, ann = _det_orders_db(), 1
    view = Connection(db, verify=True).subscribe(_GAMMA_SQL)
    view.result()
    before = _rebuilds("fold_error")
    db["o"].add((30, "F", None), ann)  # the write itself succeeds
    with pytest.raises(TypeError):
        view.result()  # the re-run raises, as a fresh execution does
    db["o"].delete((30, "F", None), ann)
    assert _snapshot(view.result()) == _snapshot(view.run_tail())
    assert _rebuilds("fold_error") == before + 1


# ----------------------------------------------------------------------
# det GROUP BY views keep their γ state too
# ----------------------------------------------------------------------
# The same shape on the det engine: a root γ over a linear input keeps
# the input as a segment and the γ state beside it.  A change the state
# cannot fold makes the next read re-run the γ over the kept segment —
# the base tables are not re-joined and the segment is not rebuilt.
_DET_GAMMA_SQL = (
    "SELECT d, SUM(b) AS total, COUNT(*) AS n, MIN(b) AS low "
    "FROM r, s WHERE a = c GROUP BY d"
)
_SEGMENT_REFRESHES = get_registry().counter("repro_ivm_segment_refreshes_total")


def _det_join_db() -> DetDatabase:
    """r(a, b) ⋈ s(c, d): groups d = 0 (a = 0, 2) and d = 1 (a = 1, 3)."""
    return DetDatabase(
        {
            "r": DetRelation(("a", "b"), {(i % 4, float(i)): 1 for i in range(12)}),
            "s": DetRelation(("c", "d"), {(j, j % 2): 1 for j in range(4)}),
        }
    )


_DET_STALE_CASES = {
    "extremum_deleted": ("delete", (0, 0.0)),  # the d = 0 group's MIN
    "non_finite_addend": ("add", (1, float("inf"))),
}


@pytest.mark.parametrize("backend", ["tuple", "vectorized"])
@pytest.mark.parametrize("reason", sorted(_DET_STALE_CASES))
def test_det_gamma_state_stale_reasons(reason, backend):
    db = _det_join_db()
    conn = Connection(db, verify=True, config=EvalConfig(backend=backend))
    view = conn.subscribe(_DET_GAMMA_SQL)
    assert "γ state maintained" in view.explain_delta()
    assert _bits(view.result()) == _bits(conn.execute(_DET_GAMMA_SQL))
    before, segments = _rebuilds(reason), _SEGMENT_REFRESHES.value
    refreshes = view.tail_refreshes
    op, t = _DET_STALE_CASES[reason]
    getattr(db["r"], op)(t)
    assert _bits(view.result()) == _bits(conn.execute(_DET_GAMMA_SQL))
    assert _rebuilds(reason) == before + 1
    assert view.tail_refreshes == refreshes + 1
    # rebuilt: the next write folds again
    db["r"].add((2, 5.5))
    assert _bits(view.result()) == _bits(conn.execute(_DET_GAMMA_SQL))
    assert view.tail_refreshes == refreshes + 1
    assert view.full_refreshes == 0
    assert _SEGMENT_REFRESHES.value == segments


def test_det_gamma_min_max_over_nan_equal_the_tail_rerun():
    # det MIN / MAX rank NaN above every number (core.ranges.order_key):
    # the view answers what a re-run of its γ answers, before and after
    # the NaN row — its group's MAX — is deleted
    nan = float("nan")
    db = DetDatabase(
        {"t": DetRelation(("g", "b"), [(0, nan), (0, 1.0), (0, 3.0), (1, 2.0)])}
    )
    sql = "SELECT g, MIN(b) AS lo, MAX(b) AS hi FROM t GROUP BY g"
    view = Connection(db, verify=True).subscribe(sql)
    assert "γ state maintained" in view.explain_delta()
    assert _bits(view.result()) == _bits(view.run_tail()) == [
        "((0, 1.0, nan), 1)", "((1, 2.0, 2.0), 1)"
    ]
    db["t"].delete((0, nan))
    assert _bits(view.result()) == _bits(view.run_tail()) == [
        "((0, 1.0, 3.0), 1)", "((1, 2.0, 2.0), 1)"
    ]


def test_det_gamma_view_explain_golden():
    view = Connection(_det_join_db(), verify=True).subscribe(_DET_GAMMA_SQL)
    assert view.explain_delta() == """\
DeltaPlan[kind=refresh]
  Δ-maintain segment __ivm_seg0:
    FusedSelectProject π[b, d]  (~12 rows)
      HashJoin ⋈[a=c]  (~12 rows)
        Scan r  (~12 rows)
        Scan s  (~4 rows)
  refresh-boundary (γ state maintained; re-run when stale):
    HashAggregate γ[d; sum(b)→total, count(None)→n, min(b)→low]  (~3 rows)
      Scan __ivm_seg0  (~12 rows)"""


@pytest.mark.parametrize("engine", ["det", "au"])
def test_gamma_over_a_base_table_is_maintained(engine):
    # every column feeds the γ, so its input is the bare table itself
    sql = "SELECT status, SUM(k) AS ks, SUM(price) AS total FROM o GROUP BY status"
    db = _det_orders_db() if engine == "det" else _orders_db()
    view = Connection(db, verify=True).subscribe(sql)
    assert "Δ-maintain segment __ivm_seg0:\n    Scan o " in view.explain_delta()
    assert "γ state maintained" in view.explain_delta()
    view.result()
    refreshes = view.tail_refreshes
    ann = 1 if engine == "det" else (1, 1, 1)
    for op, t in [("add", (20, "F", 7.25)), ("delete", (7, "O", 7.5))]:
        getattr(db["o"], op)(t, ann)
        got = view.result()
        assert _bits(got) == _bits(Connection(db).execute(sql))
        assert view.tail_refreshes == refreshes
    assert view.writes_applied == 2 and view.full_refreshes == 0

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
  ``True`` values, under either backend setting, with and without a
  bucket budget;
* empty-delta writes are complete no-ops (no epoch advance, no
  maintenance work, cached result object preserved);
* ``unsubscribe`` stops maintenance and frees the registry entry.

Plus what a view's plans read, on both engines: a write reaches every
scan of its table (a self-union's two), a self-joined table's write is
recomputed and never folded, the tail reads each kept segment through
its own scan, and a view answers the same under either ``backend``
setting.  Plus golden ``explain_delta`` snapshots locking where the refresh
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
    Join,
    Limit,
    OrderBy,
    Projection,
    Rename,
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
from repro.core.expressions import Const, Eq, Gt, Leq, Var
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


#: a self-union: linear, and a write to r reaches both of its scans
_SELF_UNION = Union(
    Selection(TableRef("r"), Gt(Var("b"), Const(1))),
    Selection(TableRef("r"), Leq(Var("a"), Const(2))),
)


@SETTINGS
@given(data=st.data())
def test_au_union_view_maintained_equals_fresh(data):
    rel = AURelation(("a", "b"))
    db = AUDatabase({"r": rel})
    plan = _SELF_UNION
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
    # a view runs the vectorized executor whatever the backend setting:
    # one view, checked against fresh execution on both backends
    db = _small_det_db()
    plan = _NONLINEAR_PLANS[name]
    view = Connection(db, verify=True).subscribe(plan)
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
        for backend in ("tuple", "vectorized"):
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


@pytest.mark.parametrize("shape", sorted(_TOPK_VIEWS))
def test_refresh_view_results_are_snapshots(shape):
    db = _uncertain_v_db()
    conn = Connection(db, verify=True)
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
            assert _snapshot(earlier) == snap, (shape, op, t)
        for backend in ("tuple", "vectorized"):
            fresh = Connection(db, config=EvalConfig(backend=backend)).execute(sql)
            assert _snapshot(view.result()) == _snapshot(fresh), backend
    assert view.writes_applied == len(writes) and view.full_refreshes == 0


def test_bare_scan_segment_never_aliases_its_base_table():
    # OrderBy is linear and lowers to nothing: the segment is `Scan r`,
    # whose maintained copy must not be the base table itself
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


@pytest.mark.parametrize("engine", ["det", "au"])
def test_writes_build_no_chunk_store(engine):
    # the write reaches each view's segment plan as a bound one-row
    # batch: no relation, so no store built for it
    r = [(i % 5, i) for i in range(30)]
    s = [(c, c * 10) for c in range(5)]
    if engine == "det":
        db = DetDatabase(
            {"r": DetRelation(("a", "b"), dict.fromkeys(r, 1)),
             "s": DetRelation(("c", "d"), dict.fromkeys(s, 1))}
        )
        one = 1
    else:
        db = AUDatabase(
            {"r": AURelation(("a", "b"), [(t, (1, 1, 1)) for t in r]),
             "s": AURelation(("c", "d"), [(t, (1, 1, 1)) for t in s])}
        )
        one = (1, 1, 1)
    conn = Connection(db, verify=True)
    queries = [
        "SELECT a, b, d FROM r, s WHERE a = c",
        "SELECT d, SUM(b) AS total, COUNT(*) AS n FROM r, s WHERE a = c GROUP BY d",
        _SELF_UNION,
    ]
    views = [conn.subscribe(q) for q in queries]
    assert [v.kind for v in views] == ["linear", "refresh", "linear"]
    for view in views:
        view.result()  # the first read may build the segments' stores
    writes = [("add", "r", (1, 100)), ("add", "s", (2, 7)), ("delete", "r", (3, 8))]
    writes += [("delete", "s", (2, 7)), ("add", "r", (9, 1))]
    for op, table, t in writes:
        builds = _STORE_BUILDS.value
        getattr(db[table], op)(t, one)
        assert _STORE_BUILDS.value == builds, (op, table, t)
        for query, view in zip(queries, views):
            fresh = Connection(db).execute(query)
            assert _bits(view.result()) == _bits(fresh), (query, op, t)
    assert all(v.writes_applied == 5 and v.full_refreshes == 0 for v in views[:2])
    assert views[2].writes_applied == 3  # writes to s do not reach it


def test_failed_delta_apply_refreshes_the_view():
    # a join delta whose scan of r is over budget raises out of the
    # write's sink after the base write landed: the view it interrupted
    # and a second view whose sink never ran must both answer like a
    # fresh execution
    from repro.exec.batch import MaterializationBudgetError, materialization_budget

    r = AURelation(("a", "b"), [((i % 4, i), (1, 1, 1)) for i in range(52)])
    s = AURelation(("c", "d"), [((c, c * 10), (1, 1, 1)) for c in range(4)])
    db = AUDatabase({"r": r, "s": s})
    config = EvalConfig()
    conn = Connection(db, config=config)
    queries = ["SELECT a, b, d FROM r, s WHERE a = c", "SELECT c, d FROM s WHERE d >= 0"]
    views = [conn.subscribe(q) for q in queries]
    for view in views:
        view.result()
    # a write to r drops r's cached scan: Δs ⋈ r re-reads all of r
    r.add((2, 60), (1, 1, 1))
    with materialization_budget(10), pytest.raises(MaterializationBudgetError):
        s.add((1, 99), (1, 1, 1))
    assert (1, 99) in {tuple(v.sg for v in t) for t in s.rows}  # it landed
    for query, view in zip(queries, views):
        fresh = Connection(db, config=config).execute(query)
        assert _snapshot(view.result()) == _snapshot(fresh), query
        assert view.full_refreshes == 1
    applied = [view.writes_applied for view in views]
    s.add((2, 5), (1, 1, 1))  # maintenance resumes after the refresh
    assert [view.writes_applied for view in views] == [n + 1 for n in applied]
    fresh = Connection(db, config=config).execute(queries[1])
    assert _snapshot(views[1].result()) == _snapshot(fresh)


# ----------------------------------------------------------------------
# what a view's plans read: Δ bound to every scan, segments to the tail
# ----------------------------------------------------------------------
def _engine_db(engine: str, tables: dict):
    """``tables`` (name -> (schema, rows)) as a det database (each row
    once) or an AU one (each row certain), with the engine's unit
    annotation."""
    if engine == "det":
        rels = {n: DetRelation(s, dict.fromkeys(rows, 1)) for n, (s, rows) in tables.items()}
        return DetDatabase(rels), 1
    rels = {n: AURelation(s, [(t, (1, 1, 1)) for t in rows]) for n, (s, rows) in tables.items()}
    return AUDatabase(rels), (1, 1, 1)


def _weight(rel, t):
    """The payload of row ``t`` (an AU row by its selected guesses), or
    ``None`` when ``rel`` does not hold it."""
    for row, payload in rel.tuples():
        if tuple(getattr(v, "sg", v) for v in row) == t:
            return payload
    return None


def _same(engine: str, got, want) -> bool:
    if engine == "det":
        return _bits(got) == _bits(want)
    return sorted(_snapshot(got)) == sorted(_snapshot(want))


@pytest.mark.parametrize("op", ["add", "delete"])
@pytest.mark.parametrize("engine", ["det", "au"])
def test_self_union_write_reaches_both_scans(engine, op):
    # (2, 5) passes both selections: a write of it changes the view by
    # two copies, one through each scan of r
    db, one = _engine_db(engine, {"r": (("a", "b"), [(i % 4, i) for i in range(8)])})
    t = (2, 5) if op == "delete" else (1, 9)
    if op == "delete":
        db["r"].add(t, one)
    conn = Connection(db, verify=True)
    view = conn.subscribe(_SELF_UNION)
    assert view.kind == "linear"
    before = view.result()
    getattr(db["r"], op)(t, one)
    got = view.result()
    assert _same(engine, got, Connection(db).execute(_SELF_UNION))
    copies = 2 if engine == "det" else (2, 2, 2)
    if op == "add":
        assert (_weight(before, t), _weight(got, t)) == (None, copies)
    else:
        assert (_weight(before, t), _weight(got, t)) == (copies, None)
    assert view.writes_applied == 1 and view.full_refreshes == 0


#: unions over two different tables: Q[s := Δ] must read the branch
#: over r as empty, or every write to s counts all of r again
_TWO_TABLE_UNIONS = {
    "sql": "SELECT a, b FROM r UNION SELECT c, d FROM s",
    "under_join": Join(
        Union(TableRef("r"), Rename(TableRef("s"), {"c": "a", "d": "b"})),
        TableRef("u"),
        Eq(Var("a"), Var("e")),
    ),
}


@pytest.mark.parametrize("shape", sorted(_TWO_TABLE_UNIONS))
@pytest.mark.parametrize("engine", ["det", "au"])
def test_two_table_union_write_counts_once(engine, shape):
    plan = _TWO_TABLE_UNIONS[shape]
    db, one = _engine_db(
        engine,
        {"r": (("a", "b"), [(i, i) for i in range(20)]),
         "s": (("c", "d"), [(1, 1)]),
         "u": (("e", "f"), [(e, -e) for e in range(0, 10, 3)])},
    )
    view = Connection(db, verify=True).subscribe(plan)
    assert view.kind == "linear"
    view.result()
    db["s"].add((5, 5), one)
    got = view.result()
    assert _same(engine, got, Connection(db).execute(plan))
    if shape == "sql":  # r's rows once, s's (1, 1) and Δ (5, 5) beside them
        two = 2 if engine == "det" else (2, 2, 2)
        weights = [_weight(got, (i, i)) for i in (0, 1, 5)]
        assert weights == [one, two, two]
    writes = [("add", "r", (3, 30)), ("delete", "s", (1, 1)), ("add", "u", (5, 0))]
    writes += [("add", "s", (6, 6)), ("delete", "r", (0, 0))]
    for op, table, t in writes:
        getattr(db[table], op)(t, one)
        assert _same(engine, view.result(), Connection(db).execute(plan)), (op, table, t)
    tracked = {"r", "s"} if shape == "sql" else {"r", "s", "u"}
    assert view.writes_applied == 1 + sum(w[1] in tracked for w in writes)
    assert view.full_refreshes == 0


#: r joined with a renamed copy of itself (SQL table aliases do not
#: qualify attribute names)
_R_SELF_JOIN = Join(
    TableRef("r"), Rename(TableRef("r"), {"a": "c", "b": "d"}), Eq(Var("b"), Var("c"))
)
_SELF_JOINS = {
    # linear: the whole view is the segment, so the write refreshes it
    "linear": _R_SELF_JOIN,
    # refresh: only the self-joined segment is rebuilt, by the next read
    "refresh": Distinct(Projection(_R_SELF_JOIN, ((Var("a"), "a"), (Var("d"), "d")))),
}


@pytest.mark.parametrize("kind", sorted(_SELF_JOINS))
@pytest.mark.parametrize("engine", ["det", "au"])
def test_self_joined_table_write_is_never_folded(engine, kind):
    # Q[R := Δ] misses the Δ⋈R cross terms of a self-join: the write
    # must not be bound to the scans and folded, only recomputed
    plan = _SELF_JOINS[kind]
    db, one = _engine_db(engine, {"r": (("a", "b"), [(i % 3, i) for i in range(6)])})
    conn = Connection(db, verify=True)
    view = conn.subscribe(plan)
    assert view.kind == kind
    assert "(self-joined)" in view.explain_delta()
    view.result()
    fallbacks = get_registry().counter(
        "repro_ivm_delta_fold_fallbacks_total", reason="self_join"
    )
    before = (fallbacks.value, _SEGMENT_REFRESHES.value)
    for op, t in [("add", (1, 2)), ("add", (2, 0)), ("delete", (0, 3))]:
        getattr(db["r"], op)(t, one)
        assert _same(engine, view.result(), Connection(db).execute(plan)), (op, t)
    if kind == "linear":
        assert view.full_refreshes == 3 and view.writes_applied == 0
        assert (fallbacks.value, _SEGMENT_REFRESHES.value) == (before[0] + 3, before[1])
    else:
        assert view.full_refreshes == 0 and view.tail_refreshes == 4
        assert (fallbacks.value, _SEGMENT_REFRESHES.value) == (before[0], before[1] + 3)


@pytest.mark.parametrize("engine", ["det", "au"])
def test_tail_reads_each_segment_through_its_own_scan(engine):
    # two segments over two tables: the tail's two scans are bound to
    # two different maintained batches, each changed by its own table
    db, one = _engine_db(
        engine,
        {"r": (("a", "b"), [(i % 5, i) for i in range(10)]),
         "s": (("c", "d"), [(c, c) for c in range(0, 5, 2)])},
    )
    plan = Difference(
        Projection(TableRef("r"), ((Var("a"), "a"),)),
        Projection(TableRef("s"), ((Var("c"), "a"),)),
    )
    conn = Connection(db, verify=True)
    view = conn.subscribe(plan)
    assert view.kind == "refresh"
    assert view.explain_delta().count("Δ-maintain segment") == 2
    writes = [("add", "s", (1, 1)), ("add", "r", (7, 0)), ("delete", "s", (0, 0))]
    writes += [("delete", "r", (3, 3)), ("add", "r", (1, 99))]
    for op, table, t in writes:
        getattr(db[table], op)(t, one)
        got = view.result()
        assert _same(engine, got, Connection(db).execute(plan)), (op, table, t)
        assert _same(engine, got, view.run_tail())
    assert view.writes_applied == 5 and view.full_refreshes == 0


@pytest.mark.parametrize("engine", ["det", "au"])
def test_view_maintenance_ignores_the_backend_setting(engine):
    # a view runs the vectorized executor whatever EvalConfig.backend
    # says: one view on a tuple-backend connection equals fresh
    # execution on both backends after every write
    db, one = _engine_db(
        engine,
        {"r": (("a", "b"), [(i % 4, i) for i in range(12)]),
         "s": (("c", "d"), [(c, c * 10) for c in range(4)])},
    )
    queries = [
        "SELECT a, b, d FROM r, s WHERE a = c",
        "SELECT d, COUNT(*) AS n, SUM(b) AS total FROM r, s WHERE a = c GROUP BY d",
        "SELECT DISTINCT a FROM r WHERE b > 2",
    ]
    conn = Connection(db, verify=True, config=EvalConfig(backend="tuple"))
    views = [conn.subscribe(q) for q in queries]
    writes = [("add", "r", (1, 50)), ("add", "s", (9, 90)), ("delete", "r", (2, 6))]
    writes += [("add", "s", (1, 11)), ("delete", "s", (0, 0))]
    for op, table, t in writes:
        getattr(db[table], op)(t, one)
        for query, view in zip(queries, views):
            got = view.result()
            for backend in ("tuple", "vectorized"):
                fresh = Connection(db, config=EvalConfig(backend=backend))
                assert _same(engine, got, fresh.execute(query)), (query, backend, op, t)
    for view in views:
        assert view.writes_applied > 0 and view.full_refreshes == 0


def test_compressed_au_join_view_runs_in_the_tail():
    # a Cpr join's buckets depend on its whole input: under join_buckets
    # an AU equi-join is not linear, so the view re-runs it in the tail
    db, one = _engine_db(
        "au",
        {"r": (("a", "b"), [(i % 4, i) for i in range(12)]),
         "s": (("c", "d"), [(c, c * 10) for c in range(4)])},
    )
    db["r"].add((between(0, 1, 3), 50), (0, 1, 1))
    sql = "SELECT a, b, d FROM r, s WHERE a = c"
    config = EvalConfig(join_buckets=4)
    view = Connection(db, verify=True, config=config).subscribe(sql)
    assert view.kind == "refresh" and "CompressedJoin" in view.explain_delta()
    writes = [("add", "s", (1, 11)), ("add", "r", (2, 70)), ("delete", "r", (0, 0))]
    writes += [("delete", "s", (0, 0)), ("add", "r", (3, 3))]
    for op, table, t in writes:
        getattr(db[table], op)(t, one)
        fresh = Connection(db, config=config).execute(sql)
        assert _same("au", view.result(), fresh), (op, table, t)
    assert view.full_refreshes == 0


def test_derive_delta_classification_and_trace():
    trace: list = []
    delta = derive_delta(
        Selection(TableRef("r"), Gt(Var("b"), Const(1))), trace=trace
    )
    assert delta.kind == "linear" and trace == ["delta-derivation"]
    # a self-joined table cannot absorb one-sided deltas
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


def test_certain_key_write_folds_without_running_an_aggregate():
    db = _orders_db()
    view = Connection(db).subscribe(_GAMMA_SQL)
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


@pytest.mark.parametrize("reason", sorted(_DET_STALE_CASES))
def test_det_gamma_state_stale_reasons(reason):
    db = _det_join_db()
    view = Connection(db, verify=True).subscribe(_DET_GAMMA_SQL)

    def fresh_on_both_backends() -> bool:
        got = _bits(view.result())
        return all(
            got == _bits(Connection(db, config=EvalConfig(backend=b)).execute(_DET_GAMMA_SQL))
            for b in ("tuple", "vectorized")
        )

    assert "γ state maintained" in view.explain_delta()
    assert fresh_on_both_backends()
    before, segments = _rebuilds(reason), _SEGMENT_REFRESHES.value
    refreshes = view.tail_refreshes
    op, t = _DET_STALE_CASES[reason]
    getattr(db["r"], op)(t)
    assert fresh_on_both_backends()
    assert _rebuilds(reason) == before + 1
    assert view.tail_refreshes == refreshes + 1
    # rebuilt: the next write folds again
    db["r"].add((2, 5.5))
    assert fresh_on_both_backends()
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

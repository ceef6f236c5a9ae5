"""Paged chunked columnar storage: chunks, zone maps, skip predicates.

Unit-level coverage for :mod:`repro.db.chunks` — chunk store builds and
round-trips, skip-predicate derivation, the per-operator zone-map skip
rules, incremental maintenance through the relations' write paths, and
the delete-boundary staleness protocol (a delete touching a zone
boundary must *invalidate* the zone, never silently keep the too-wide
bound as authoritative) — plus the end-to-end surfaces: chunk-skip
telemetry in ``explain_analyze``, metrics counters, morsel/chunk
alignment, and the materialization budget that chunked streaming stays
under.
"""

import math

import pytest

from repro.core.expressions import (
    And,
    Const,
    Eq,
    Geq,
    Gt,
    IsNull,
    Leq,
    Lt,
    Neq,
    Not,
    Or,
    Parameter,
    Var,
)
from repro.core.ranges import RangeValue
from repro.core.relation import AURelation
from repro.db import chunks as chunks_mod
from repro.db.chunks import (
    DEFAULT_CHUNK_SIZE,
    AUChunkStore,
    DetChunkStore,
    au_store,
    derive_skip,
    det_store,
    resolve_chunk_size,
)
from repro.db.storage import DetDatabase, DetRelation
from repro.exec.batch import (
    MATERIALIZATION_BUDGET,
    ColumnBatch,
    MaterializationBudgetError,
    materialization_budget,
)


def _det_rel(n=10, chunk=None):
    r = DetRelation(["a", "b"])
    for i in range(n):
        r.add((i, i * 10), 1)
    return r


def _au_rel(n=10):
    r = AURelation(["a", "b"])
    for i in range(n):
        r.add(
            [RangeValue(i, i, i + 1), RangeValue(i * 10, i * 10, i * 10)],
            (1, 1, 1),
        )
    return r


# ----------------------------------------------------------------------
# chunk size resolution
# ----------------------------------------------------------------------
def test_resolve_chunk_size():
    assert resolve_chunk_size(None) == DEFAULT_CHUNK_SIZE
    assert resolve_chunk_size(7) == 7
    for bad in (0, -1):
        with pytest.raises(ValueError, match="chunk_size must be positive"):
            resolve_chunk_size(bad)


def test_chunk_size_zero_rejected_at_every_entry_point():
    """There is no chunk-free columnar image to fall back to: 0 is an
    error everywhere, never a silent remap to the default."""
    from repro.algebra.evaluator import EvalConfig, evaluate_audb
    from repro.db.engine import evaluate_det
    from repro.algebra.ast import TableRef
    from repro.core.relation import AUDatabase
    from repro.exec import physical as phys
    from repro.exec.vectorized import execute_audb, execute_det
    from repro.session import Connection

    db = DetDatabase({"t": _det_rel()})
    au_db = AUDatabase({"t": _au_rel()})
    zero = EvalConfig(backend="vectorized", chunk_size=0)
    with pytest.raises(ValueError, match="chunk_size"):
        Connection(db, config=zero)
    with pytest.raises(ValueError, match="chunk_size"):
        Connection(db).prepare("SELECT a FROM t", config=zero)
    for backend in ("tuple", "vectorized"):
        with pytest.raises(ValueError, match="chunk_size"):
            evaluate_det(TableRef("t"), db, backend=backend, chunk_size=0)
        with pytest.raises(ValueError, match="chunk_size"):
            evaluate_audb(
                TableRef("t"), au_db, EvalConfig(backend=backend, chunk_size=0)
            )
    for store_of, rel in ((det_store, db["t"]), (au_store, au_db["t"])):
        with pytest.raises(ValueError, match="chunk_size"):
            store_of(rel, 0)
        with pytest.raises(ValueError, match="chunk_size"):
            rel.memory_footprint(0)
    scan = phys.Scan("t", chunk_size=0)
    with pytest.raises(ValueError, match="chunk_size"):
        execute_det(scan, db)
    with pytest.raises(ValueError, match="chunk_size"):
        execute_audb(scan, au_db)


def test_store_accessors_cache_on_relation():
    r = _det_rel()
    s = det_store(r, 3)
    assert det_store(r, 3) is s  # cached at the same size
    assert det_store(r, 4) is not s  # different size rebuilds
    au = _au_rel()
    t = au_store(au, 3)
    assert au_store(au, 3) is t


# ----------------------------------------------------------------------
# skip-predicate derivation
# ----------------------------------------------------------------------
def test_derive_skip_conjuncts_and_flip():
    cond = And(Gt(Var("a"), Const(7)), Leq(Const(100), Var("b")))
    skip = derive_skip(cond)
    assert skip is not None and len(skip) == 2
    assert str(skip) == "a>7 AND b>=100"
    assert skip.columns() == ("a", "b")


def test_derive_skip_ignores_non_atoms():
    # Or is not a conjunct; Var-Var atoms and Parameter comparisons are
    # not zone-testable; NaN constants break the domain order
    assert derive_skip(Or(Gt(Var("a"), Const(1)), Lt(Var("a"), Const(0)))) is None
    assert derive_skip(Eq(Var("a"), Var("b"))) is None
    assert derive_skip(Leq(Var("a"), Parameter(0))) is None
    assert derive_skip(Gt(Var("a"), Const(float("nan")))) is None
    assert derive_skip(None) is None
    # ... but a qualifying conjunct next to an unusable one still counts
    skip = derive_skip(And(Eq(Var("a"), Var("b")), Geq(Var("a"), Const(3))))
    assert skip is not None and str(skip) == "a>=3"


@pytest.mark.parametrize(
    "cond,expect_kept",
    [
        (Leq(Var("a"), Const(2)), 1),  # first chunk only
        (Lt(Var("a"), Const(3)), 1),
        (Geq(Var("a"), Const(9)), 1),  # last chunk only
        (Gt(Var("a"), Const(8)), 1),
        (Eq(Var("a"), Const(4)), 1),  # middle chunk
        (Neq(Var("a"), Const(99)), 4),  # nothing provably empty
    ],
)
def test_zone_skip_rules(cond, expect_kept):
    store = DetChunkStore.build(_det_rel(10), 3)  # chunks [0-2][3-5][6-8][9]
    kept, total, skipped = store.survivors(derive_skip(cond))
    assert total == 4
    assert len(kept) == expect_kept
    assert skipped == 4 - expect_kept


def test_ne_skips_constant_chunk():
    r = DetRelation(["a", "b"])
    for i in range(6):
        r.add((5, i), 1)  # column a is constant 5
    store = DetChunkStore.build(r, 3)
    _, total, skipped = store.survivors(derive_skip(Neq(Var("a"), Const(5))))
    assert (total, skipped) == (2, 2)


def test_skip_unknown_column_and_nan_are_permissive():
    r = DetRelation(["a", "b"])
    r.add((float("nan"), 1), 1)
    r.add((2.0, 2), 1)
    store = DetChunkStore.build(r, 2)
    # NaN disables column a's zone entry: never skipped on a
    kept, total, skipped = store.survivors(derive_skip(Gt(Var("a"), Const(99))))
    assert (len(kept), skipped) == (1, 0)
    # a constraint on a column the store does not know is ignored
    kept, _, skipped = store.survivors(derive_skip(Gt(Var("zz"), Const(99))))
    assert (len(kept), skipped) == (1, 0)


def test_derive_skip_null_atoms():
    skip = derive_skip(And(IsNull(Var("a")), Not(IsNull(Var("b")))))
    assert skip is not None and len(skip) == 2
    assert str(skip) == "a IS NULL AND b IS NOT NULL"
    assert [c.op for c in skip.constraints] == ["isnull", "notnull"]


def test_null_skip_rules_det():
    r = DetRelation(["a", "b"])
    for i in range(3):
        r.add((i + 1, i), 1)  # chunk 0: provably no nulls in a
    for i in range(3):
        r.add((None, 10 + i), 1)  # chunk 1: a is all-null
    r.add((7, 20), 1)  # chunk 2: mixed — never skippable
    r.add((None, 21), 1)
    store = DetChunkStore.build(r, 3)
    # IS NULL proves the null-free chunk empty (zero null count and a
    # min key strictly above None's bottom-of-domain key)
    _, total, skipped = store.survivors(derive_skip(IsNull(Var("a"))))
    assert (total, skipped) == (3, 1)
    # IS NOT NULL proves the all-null chunk empty
    _, total, skipped = store.survivors(derive_skip(Not(IsNull(Var("a")))))
    assert (total, skipped) == (3, 1)


def test_null_skip_rules_au():
    r = AURelation(["a", "b"])
    for i in range(3):  # chunk 0: certainly non-null
        r.add([RangeValue(i + 1, i + 1, i + 1), i], (1, 1, 1))
    for i in range(3):  # chunk 1: certainly null (lb = sg = ub = None)
        r.add([RangeValue(None, None, None), 10 + i], (1, 1, 1))
    for i in range(3):  # chunk 2: possibly null (lb None, guess 5)
        r.add([RangeValue(None, 5, 9), 20 + i], (1, 1, 1))
    store = AUChunkStore.build(r, 3)
    # IS NULL skips only the certainly-non-null chunk: the possibly-null
    # rows pull the chunk's min key down to None, so it must be read
    _, total, skipped = store.survivors(derive_skip(IsNull(Var("a"))))
    assert (total, skipped) == (3, 1)
    # IS NOT NULL skips only the certainly-null chunk: the possibly-null
    # chunk is non-null in some world (its guesses are not null)
    _, total, skipped = store.survivors(derive_skip(Not(IsNull(Var("a")))))
    assert (total, skipped) == (3, 1)


def test_scan_roundtrip_matches_whole_relation_image():
    r = _det_rel(10)
    flat = ColumnBatch.from_relation(r)
    for size in (1, 3, 64):
        store = DetChunkStore.build(r, size)
        batch, total, skipped = store.scan(None)
        assert skipped == 0
        assert [tuple(col) for col in map(list, batch.columns)] == [
            tuple(col) for col in map(list, flat.columns)
        ]
        assert list(batch.mult) == list(flat.mult)


# ----------------------------------------------------------------------
# incremental maintenance through the relation write paths
# ----------------------------------------------------------------------
def test_relation_add_maintains_cached_store():
    r = _det_rel(10)
    store = det_store(r, 3)
    r.add((42, 420), 2)  # new row appends and widens the zone
    assert r._chunk_cache is store
    batch, _, _ = store.scan(None)
    assert list(batch.mult) == [1] * 10 + [2]
    kept, _, skipped = store.survivors(derive_skip(Geq(Var("a"), Const(42))))
    assert len(kept) == 1 and skipped >= 1  # new bound is visible
    r.add((42, 420), 1)  # merge: multiplicity update in place
    batch, _, _ = store.scan(None)
    assert list(batch.mult)[-1] == 3


def test_interior_delete_keeps_zone_fresh():
    r = _det_rel(10)
    store = det_store(r, 10)
    rebuilds = chunks_mod._ZONE_REBUILDS.value
    r.delete((4, 40), 1)  # interior row of [0..9]: no boundary touched
    ch = store.chunks[0]
    assert not ch.zone.stale
    assert store.zone(ch).rows == 9
    assert chunks_mod._ZONE_REBUILDS.value == rebuilds
    # partial delete (multiplicity decrement) never goes stale either
    r2 = DetRelation(["a"])
    r2.add((0,), 3)
    s2 = det_store(r2, 4)
    r2.delete((0,), 1)
    assert not s2.chunks[0].zone.stale
    b, _, _ = s2.scan(None)
    assert list(b.mult) == [2]


def test_delete_boundary_invalidates_zone_not_widens():
    """Satellite regression: a delete that removes a zone-boundary row
    must mark the zone stale (mirroring StatsAccumulator.rescan_needed)
    and the next use must rebuild it *exactly* — keeping the old max as
    authoritative would leave chunks unskippable forever; silently
    narrowing without a rescan could wrongly skip chunks."""
    r = _det_rel(10)
    store = det_store(r, 10)
    ch = store.chunks[0]
    old_max = ch.zone.max_keys[0]
    r.delete((9, 90), 1)  # (9, 90) is the max of both columns
    assert r._chunk_cache is store  # store survived the delete
    assert ch.zone.stale  # invalidated, not silently narrowed
    assert ch.zone.max_keys[0] == old_max  # untouched until rebuild
    rebuilds = chunks_mod._ZONE_REBUILDS.value
    # next zone use rebuilds exactly: max is now 8, so a>8 skips
    kept, total, skipped = store.survivors(derive_skip(Gt(Var("a"), Const(8))))
    assert chunks_mod._ZONE_REBUILDS.value == rebuilds + 1
    assert (len(kept), total, skipped) == (0, 1, 1)
    assert not ch.zone.stale
    assert ch.zone.rows == 9
    # and the rebuilt zone is not over-narrow: a>=8 must keep the chunk
    kept, _, skipped = store.survivors(derive_skip(Geq(Var("a"), Const(8))))
    assert (len(kept), skipped) == (1, 0)


def test_au_delete_boundary_invalidates_zone():
    r = _au_rel(6)
    store = au_store(r, 6)
    ch = store.chunks[0]
    assert not ch.zone.stale
    # remove the row holding the upper bound of column a ([5, 6])
    r.delete([RangeValue(5, 5, 6), RangeValue(50, 50, 50)], (1, 1, 1))
    assert r._chunk_cache is store
    assert ch.zone.stale
    kept, total, skipped = store.survivors(derive_skip(Gt(Var("a"), Const(5))))
    assert (len(kept), total, skipped) == (0, 1, 1)  # new max ub is 5
    assert store.zone(ch).rows == 5


def test_au_store_roundtrip_and_certain_fraction():
    r = AURelation(["a"])
    r.add([RangeValue(0, 1, 2)], (1, 1, 1))  # uncertain value
    r.add([RangeValue(3, 3, 3)], (1, 1, 1))  # certain value
    store = au_store(r, 4)
    zone = store.zone(store.chunks[0])
    assert zone.rows == 2 and zone.certain == 1
    assert zone.certain_fraction() == pytest.approx(0.5)
    batch, _, skipped = store.scan(None)
    assert skipped == 0
    got = {
        ((batch.columns[0][i],), (batch.ann_lb[i], batch.ann_sg[i], batch.ann_ub[i]))
        for i in range(len(batch))
    }
    assert got == set(r.tuples())
    # AU skipping brackets [lb, ub]: a<=2 may hold for the first row
    # only, a>=3 for both (ub of row 1 is 2 < 3?  no - row 2 has lb 3)
    kept, _, skipped = store.survivors(derive_skip(Gt(Var("a"), Const(3))))
    assert (len(kept), skipped) == (0, 1)  # max ub is 3: a>3 impossible
    kept, _, skipped = store.survivors(derive_skip(Lt(Var("a"), Const(0))))
    assert (len(kept), skipped) == (0, 1)  # min lb is 0: a<0 impossible


def test_au_nan_range_disables_zone_entry():
    r = AURelation(["a"])
    # mixed-type triple smuggles NaN past RangeValue validation (the
    # domain order short-circuits on type rank before comparing values)
    r.add([RangeValue(float("nan"), "x", "y")], (1, 1, 1))
    r.add([RangeValue(1, 1, 1)], (1, 1, 1))
    store = au_store(r, 4)
    zone = store.zone(store.chunks[0])
    assert not zone.enabled[0]
    kept, _, skipped = store.survivors(derive_skip(Gt(Var("a"), Const(10**9))))
    assert (len(kept), skipped) == (1, 0)  # disabled entry never skips


# ----------------------------------------------------------------------
# morsel/chunk alignment
# ----------------------------------------------------------------------
def test_morsels_align_with_chunks():
    store = DetChunkStore.build(_det_rel(10), 3)  # 4 chunks: 3+3+3+1
    groups, group_rows, total, skipped = store.morsel_chunk_groups(4, None)
    assert (total, skipped) == (4, 0)
    assert groups == [[0], [1], [2], [3]]
    morsels = [store.batch_for_chunks(g) for g in groups]
    assert group_rows == [len(m) for m in morsels]
    # never splits a chunk: every morsel is a contiguous run of chunks
    assert [len(m) for m in morsels] == [3, 3, 3, 1]
    assert sum(len(m) for m in morsels) == 10
    # rows appear in build order across the morsel sequence
    rows = [m.columns[0][i] for m in morsels for i in range(len(m))]
    assert rows == list(range(10))
    # skipping prunes chunks before grouping
    groups, group_rows, total, skipped = store.morsel_chunk_groups(
        4, derive_skip(Gt(Var("a"), Const(5)))
    )
    assert skipped == 2
    assert sum(group_rows) == 4
    # fewer partitions than chunks: contiguous runs, balanced by rows
    groups, group_rows, _, _ = store.morsel_chunk_groups(2, None)
    assert groups == [[0, 1], [2, 3]] and group_rows == [6, 4]
    assert store.morsel_chunk_groups(1, None)[0] == [[0, 1, 2, 3]]


# ----------------------------------------------------------------------
# materialization budget
# ----------------------------------------------------------------------
def test_materialization_budget_restores_global():
    assert MATERIALIZATION_BUDGET is None
    with materialization_budget(5):
        from repro.exec import batch as batch_mod

        assert batch_mod.MATERIALIZATION_BUDGET == 5
    from repro.exec import batch as batch_mod

    assert batch_mod.MATERIALIZATION_BUDGET is None


def test_streaming_select_stays_under_budget():
    """The chunked streaming scan path never materializes the base table
    whole, so a selective query completes under a budget an unfiltered
    full-table scan (one concatenated batch) cannot."""
    from repro.db.engine import evaluate_det
    from repro.algebra.ast import Selection, TableRef

    r = DetRelation(["a", "b"])
    for i in range(400):
        r.add((i, i % 7), 1)
    db = DetDatabase({"t": r})
    plan = Selection(TableRef("t"), Gt(Var("a"), Const(390)))
    want = evaluate_det(plan, db)
    with materialization_budget(100):
        # an unfiltered scan must concat all 400 rows: over budget
        with pytest.raises(MaterializationBudgetError):
            evaluate_det(TableRef("t"), db, backend="vectorized", chunk_size=50)
        # chunked streaming reads 50-row pages and skips most of them
        got = evaluate_det(plan, db, backend="vectorized", chunk_size=50)
    assert got.rows == want.rows


# ----------------------------------------------------------------------
# end-to-end telemetry
# ----------------------------------------------------------------------
def test_explain_analyze_shows_chunk_skips():
    from repro.session import Connection
    from repro.algebra.evaluator import EvalConfig

    r = DetRelation(["a", "b"])
    for i in range(100):
        r.add((i, i * 2), 1)
    db = DetDatabase({"t": r})
    conn = Connection(
        db, config=EvalConfig(backend="vectorized", chunk_size=10)
    )
    scanned = chunks_mod._CHUNKS_SCANNED.value
    skipped = chunks_mod._CHUNKS_SKIPPED.value
    text = conn.explain_analyze("SELECT a FROM t WHERE a >= 95")
    assert "skipped 9/10 chunks" in text
    assert chunks_mod._CHUNKS_SCANNED.value == scanned + 1
    assert chunks_mod._CHUNKS_SKIPPED.value == skipped + 9
    # and the plan rendering names the derived skip predicate
    assert "[skip: a>=95]" in text


def test_parallel_exchange_morsels_follow_chunks():
    from repro import telemetry as _tm
    from repro.exec import parallel as exec_parallel
    from repro.session import Connection
    from repro.algebra.evaluator import EvalConfig

    r = DetRelation(["a", "b"])
    for i in range(100):
        r.add((i, i % 5), 1)
    db = DetDatabase({"t": r})
    conn = Connection(
        db,
        config=EvalConfig(backend="vectorized", parallelism=4, chunk_size=10),
        trace=True,
    )
    old = exec_parallel.PARALLEL_MIN_ROWS
    exec_parallel.PARALLEL_MIN_ROWS = 0
    try:
        got = conn.execute("SELECT a, sum(b) AS s FROM t WHERE a >= 60 GROUP BY a")
    finally:
        exec_parallel.PARALLEL_MIN_ROWS = old
    assert len(got) == 40
    spans = [s for s in conn.last_trace.spans() if "chunks_skipped" in s.attrs]
    assert spans, "Exchange span should carry chunk-skip attributes"
    attrs = spans[0].attrs
    assert attrs["chunks_total"] == 10 and attrs["chunks_skipped"] == 6
    assert attrs["driver_rows"] == 40  # post-skip morsel rows

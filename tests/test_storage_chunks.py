"""Paged chunked columnar storage: chunks, zone maps, skip predicates.

Unit-level coverage for :mod:`repro.db.chunks` — chunk store builds and
round-trips, skip-predicate derivation (literal atoms and parameter
templates filled by a binding), the per-operator zone-map skip rules,
incremental maintenance through the relations' write paths, and a
property over random add/delete interleavings on both stores: every
zone brackets its live rows (a delete leaves min/max wide, never
narrow), the counts are exact, an emptied chunk resets its zone, and a
skipped scan answers what an unskipped one does — plus the end-to-end
surfaces: chunk-skip telemetry in ``explain_analyze``, metrics counters,
morsel/chunk alignment, and the materialization budget that chunked
streaming stays under.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

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
from repro.core.ranges import RangeValue, domain_key
from repro.core.relation import AURelation
from repro.db import chunks as chunks_mod
from repro.db.chunks import (
    DEFAULT_CHUNK_SIZE,
    chunk_store,
    derive_skip,
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
    for rel in (db["t"], au_db["t"]):
        with pytest.raises(ValueError, match="chunk_size"):
            chunk_store(rel, 0)
        with pytest.raises(ValueError, match="chunk_size"):
            rel.memory_footprint(0)
    scan = phys.Scan("t", chunk_size=0)
    with pytest.raises(ValueError, match="chunk_size"):
        execute_det(scan, db)
    with pytest.raises(ValueError, match="chunk_size"):
        execute_audb(scan, au_db)


def test_store_accessors_cache_on_relation():
    r = _det_rel()
    s = chunk_store(r, 3)
    assert chunk_store(r, 3) is s  # cached at the same size
    assert chunk_store(r, 4) is not s  # different size rebuilds
    au = _au_rel()
    t = chunk_store(au, 3)
    assert chunk_store(au, 3) is t


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
    # Or is not a conjunct; Var-Var atoms are not zone-testable; NaN
    # constants break the domain order; a range constant is compared
    # through its bounds, not its key
    assert derive_skip(Or(Gt(Var("a"), Const(1)), Lt(Var("a"), Const(0)))) is None
    assert derive_skip(Eq(Var("a"), Var("b"))) is None
    assert derive_skip(Gt(Var("a"), Const(float("nan")))) is None
    assert derive_skip(Gt(Var("a"), Const(RangeValue(1, 2, 3)))) is None
    assert derive_skip(None) is None
    # ... but a qualifying conjunct next to an unusable one still counts
    skip = derive_skip(And(Eq(Var("a"), Var("b")), Geq(Var("a"), Const(3))))
    assert skip is not None and str(skip) == "a>=3"
    assert skip.origin == "literal" and skip.slots() == ()


def test_parameter_atoms_are_templates_filled_by_binding():
    cond = And(
        And(Geq(Var("a"), Parameter(0)), Lt(Parameter(1), Var("b"))),
        Leq(Var("a"), Const(8)),
    )
    template = derive_skip(cond)
    assert str(template) == "a>=?0 AND b>?1 AND a<=8"
    assert template.origin == "template" and template.slots() == (0, 1)
    store = chunk_store(_det_rel(10), 3)  # [0-2][3-5][6-8][9]
    # an unfilled template skips only through its literal atoms
    _, total, skipped = store.survivors(template)
    assert (total, skipped) == (4, 1)
    bound = template.bind({0: Const(6), 1: Const(10)})
    literal = derive_skip(
        And(And(Geq(Var("a"), Const(6)), Lt(Const(10), Var("b"))), Leq(Var("a"), Const(8)))
    )
    assert str(bound) == str(literal) == "a>=6 AND b>10 AND a<=8"
    assert bound.origin == "bound" and bound.slots() == ()
    assert store.survivors(bound)[1:] == store.survivors(literal)[1:] == (4, 3)
    # NaN, range and non-constant bindings drop their atom, as literals do
    dropped = template.bind({0: Const(float("nan")), 1: Var("a")})
    assert str(dropped) == "a<=8"
    only = derive_skip(Gt(Var("a"), Parameter("lo")))
    assert only.bind({"lo": Const(RangeValue(1, 2, 3))}) is None
    assert str(only.bind({"lo": Const(None)})) == "a>None"


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
    store = chunk_store(_det_rel(10), 3)  # chunks [0-2][3-5][6-8][9]
    kept, total, skipped = store.survivors(derive_skip(cond))
    assert total == 4
    assert len(kept) == expect_kept
    assert skipped == 4 - expect_kept


def test_ne_skips_constant_chunk():
    r = DetRelation(["a", "b"])
    for i in range(6):
        r.add((5, i), 1)  # column a is constant 5
    store = chunk_store(r, 3)
    _, total, skipped = store.survivors(derive_skip(Neq(Var("a"), Const(5))))
    assert (total, skipped) == (2, 2)


def test_skip_unknown_column_and_nan_are_permissive():
    r = DetRelation(["a", "b"])
    r.add((float("nan"), 1), 1)
    r.add((2.0, 2), 1)
    store = chunk_store(r, 2)
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
    store = chunk_store(r, 3)
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
    store = chunk_store(r, 3)
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
        store = chunk_store(r, size)
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
    store = chunk_store(r, 3)
    r.add((42, 420), 2)  # new row appends and widens the zone
    assert r._chunk_cache is store
    batch, _, _ = store.scan(None)
    assert list(batch.mult) == [1] * 10 + [2]
    kept, _, skipped = store.survivors(derive_skip(Geq(Var("a"), Const(42))))
    assert len(kept) == 1 and skipped >= 1  # new bound is visible
    r.add((42, 420), 1)  # merge: multiplicity update in place
    batch, _, _ = store.scan(None)
    assert list(batch.mult)[-1] == 3


def test_delete_keeps_counts_exact_and_bounds_wide():
    r = _det_rel(10)
    store = chunk_store(r, 10)
    ch = store.chunks[0]
    old_max = ch.zone.max_keys[0]
    r.delete((9, 90), 1)  # (9, 90) is the max of both columns
    assert r._chunk_cache is store  # store survived the delete
    assert ch.zone.rows == 9
    # the zone keeps the old max: wider than the rows, never narrower,
    # so a>8 reads the chunk (no false skip) and no rebuild ever runs
    assert ch.zone.max_keys[0] == old_max
    kept, _, skipped = store.survivors(derive_skip(Gt(Var("a"), Const(9))))
    assert (len(kept), skipped) == (0, 1)
    kept, _, skipped = store.survivors(derive_skip(Gt(Var("a"), Const(8))))
    assert (len(kept), skipped) == (1, 0)
    # partial delete (multiplicity decrement) leaves the zone alone
    r2 = DetRelation(["a"])
    r2.add((0,), 3)
    s2 = chunk_store(r2, 4)
    r2.delete((0,), 1)
    assert s2.chunks[0].zone.rows == 1
    b, _, _ = s2.scan(None)
    assert list(b.mult) == [2]


def test_emptied_chunk_resets_its_zone():
    r = _au_rel(4)
    store = chunk_store(r, 2)  # [0-1][2-3]
    for t, k in list(r.tuples())[:2]:
        r.delete(t, k)
    first = store.chunks[0]
    assert len(first) == 0
    assert first.zone.rows == 0 and first.zone.min_keys == [None, None]
    assert store.survivors(None)[1:] == (1, 0)  # empty chunks never count


# ----------------------------------------------------------------------
# zone maintenance: a property over random add/delete interleavings
# ----------------------------------------------------------------------
#: cells of both stores: NULL, bools, mixed int/float, ±inf, -0.0, NaN,
#: strings and a 64-bit edge value
CELLS = [None, True, False, 0, 1, -3, 2.5, -0.0, math.inf, -math.inf,
         math.nan, "a", "b", 2**63 - 1]
#: predicate constants (AU: no NaN — Const(NaN).eval_range raises)
CONSTS = [c for c in CELLS if c == c]
SKIP_CONDITIONS = st.one_of(
    st.builds(
        lambda kind, col, c: kind(Var(col), Const(c)),
        st.sampled_from([Eq, Neq, Leq, Lt, Geq, Gt]),
        st.sampled_from(["a", "b"]),
        st.sampled_from(CONSTS),
    ),
    st.sampled_from([IsNull(Var("a")), Not(IsNull(Var("b")))]),
)


@st.composite
def au_cells(draw):
    """A valid range over CELLS: a point, or three cells in domain order
    (NaN only survives validation between values of other ranks)."""
    if draw(st.booleans()):
        value = draw(st.sampled_from(CONSTS))
        return RangeValue(value, value, value)
    triple = sorted(draw(st.tuples(*[st.sampled_from(CELLS)] * 3)), key=domain_key)
    try:
        return RangeValue(*triple)
    except ValueError:  # NaN next to a number: no valid range
        return RangeValue(None, 0, "a")


def _check_zones(store, au):
    for ch in store.chunks:
        zone = ch.zone
        rows = list(zip(*ch.batch.columns)) if len(ch) else []
        assert zone.rows == len(ch) == len(rows)
        if not rows:  # emptied (or never filled): a fresh zone
            assert zone.min_keys == zone.max_keys == [None, None]
            assert zone.nulls == [0, 0]
            assert zone.enabled == [True, True]
            continue
        for j in range(2):
            cells = [row[j] for row in rows]
            guesses = [c.sg for c in cells] if au else cells
            assert zone.nulls[j] == sum(v is None for v in guesses)
            bounds = [(c.lb, c.ub) for c in cells] if au else [(v, v) for v in cells]
            if any(lb != lb or ub != ub for lb, ub in bounds):
                assert not zone.enabled[j]  # NaN disables the entry
            if not zone.enabled[j]:
                continue
            for lb, ub in bounds:  # wide is fine, narrow never
                assert zone.min_keys[j] <= domain_key(lb)
                assert domain_key(ub) <= zone.max_keys[j]


def _check_rows(store, rel, au):
    """The store holds the relation's rows in order, cells and payload,
    and its locator points each live row at its chunk position."""
    batch = store.scan()[0]
    payloads = batch.annotations() if au else list(batch.mult)
    assert list(zip(zip(*batch.columns), payloads)) == list(rel.tuples())
    assert len(store._row_loc) == len(rel)
    for t in rel.rows:
        ci, ri = store._row_loc[t]
        assert tuple(col[ri] for col in store.chunks[ci].batch.columns) == t


def _scan_rows(store, au, skip, condition):
    """Rows of the chunks a scan reads under ``skip`` that satisfy
    ``condition`` (AU: in some world)."""
    out = []
    for ch in store.survivors(skip)[0]:
        for row in zip(*ch.batch.columns):
            valuation = dict(zip(("a", "b"), row))
            if au:
                if condition.eval_range(valuation).ub:
                    out.append(row)
            elif condition.eval(valuation):
                out.append(row)
    return out


@pytest.mark.parametrize("au", [False, True], ids=["det", "au"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_zones_stay_sound_under_add_delete_interleavings(au, data):
    cells = au_cells() if au else st.sampled_from(CELLS)
    rows = st.tuples(cells, cells)
    rel = AURelation(["a", "b"]) if au else DetRelation(["a", "b"])
    for row in data.draw(st.lists(rows, max_size=8)):
        rel.add(row, (1, 1, 1) if au else 1)
    chunk_size = data.draw(st.sampled_from([1, 2, 3, 5]))
    store = chunk_store(rel, chunk_size)
    for _ in range(data.draw(st.integers(0, 12))):
        live = list(rel.tuples()) if au else list(rel.rows.items())
        if live and data.draw(st.booleans()):
            t, k = data.draw(st.sampled_from(live))
            rel.delete(t, k if au else data.draw(st.integers(1, k)))
        else:
            rel.add(data.draw(rows), (1, 1, 1) if au else data.draw(st.integers(1, 2)))
        assert rel._chunk_cache is store  # maintained, never dropped
        _check_zones(store, au)
        _check_rows(store, rel, au)
    for condition in data.draw(st.lists(SKIP_CONDITIONS, min_size=1, max_size=3)):
        skip = derive_skip(condition)
        assert _scan_rows(store, au, skip, condition) == _scan_rows(
            store, au, None, condition
        )


def test_au_store_roundtrip_and_bounds():
    r = AURelation(["a"])
    r.add([RangeValue(0, 1, 2)], (1, 1, 1))  # uncertain value
    r.add([RangeValue(3, 3, 3)], (1, 1, 1))  # certain value
    store = chunk_store(r, 4)
    assert store.chunks[0].zone.rows == 2
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
    # the constructor refuses NaN in any position; a forged cell checks
    # that the zone map still disables the column if one gets in
    cell = object.__new__(RangeValue)
    for bound, value in zip(("lb", "sg", "ub"), (float("nan"), "x", "y")):
        object.__setattr__(cell, bound, value)
    r.add([cell], (1, 1, 1))
    r.add([RangeValue(1, 1, 1)], (1, 1, 1))
    store = chunk_store(r, 4)
    zone = store.chunks[0].zone
    assert not zone.enabled[0]
    kept, _, skipped = store.survivors(derive_skip(Gt(Var("a"), Const(10**9))))
    assert (len(kept), skipped) == (1, 0)  # disabled entry never skips


# ----------------------------------------------------------------------
# morsel/chunk alignment
# ----------------------------------------------------------------------
def test_morsels_align_with_chunks():
    store = chunk_store(_det_rel(10), 3)  # 4 chunks: 3+3+3+1
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
    want = evaluate_det(plan, db, backend="tuple")
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
    sql = "SELECT a FROM t WHERE a >= 95"
    text = Connection(db, config=conn.config).prepare(sql).explain_analyze()
    assert "skipped 9/10 chunks by literal skip" in text
    assert chunks_mod._CHUNKS_SCANNED.value == scanned + 1
    assert chunks_mod._CHUNKS_SKIPPED.value == skipped + 9
    # and the plan rendering names the derived skip predicate
    assert "[skip: a>=95]" in text
    # the same text through Connection.explain_analyze runs as its
    # template: the skip is the filled template, and skips the same
    text = conn.explain_analyze(sql)
    assert "skipped 9/10 chunks by bound skip" in text
    assert "[skip: a>=?0]" in text
    assert chunks_mod._CHUNKS_SKIPPED.value == skipped + 18


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


# ----------------------------------------------------------------------
# the streamed σ/π path ≡ the legacy oracle
# ----------------------------------------------------------------------
class _OpaqueGeq(Geq):
    """``Geq`` under another type: :mod:`repro.exec.compile` dispatches
    on exact node types, so this condition takes the interpreted lane."""


#: what each condition covers over ``a`` = 0..9, ``b`` = 10·a: the
#: interpreted lane, chunks whose every row survives, chunks read with
#: no survivor, and every chunk skipped by its zone map
_STREAMED = {
    "interpreted": _OpaqueGeq(Var("a"), Const(4)),
    "all_survive": Geq(Var("a"), Const(0)),
    "none_survive": Eq(Var("b"), Const(15)),
    "all_skipped": Gt(Var("a"), Const(99)),
}


@pytest.mark.parametrize("engine", ["det", "au"])
@pytest.mark.parametrize("case", sorted(_STREAMED))
@pytest.mark.parametrize("chunk_size", [1, 3, None])
def test_streamed_select_project_equals_the_legacy_oracle(engine, case, chunk_size):
    from repro.algebra.ast import Projection, Selection, TableRef
    from repro.algebra.evaluator import EvalConfig, evaluate_audb
    from repro.core.expressions import Add
    from repro.core.relation import AUDatabase
    from repro.db.engine import evaluate_det
    from repro.session import Connection

    condition = _STREAMED[case]
    selection = Selection(TableRef("t"), condition)
    plans = [selection, Projection(selection, [(Add(Var("b"), Const(1)), "b1")])]
    if engine == "det":
        db = DetDatabase({"t": _det_rel()})
        for plan in plans:
            want = evaluate_det(plan, db, physical=False)
            got = evaluate_det(plan, db, backend="vectorized", chunk_size=chunk_size)
            assert list(got.rows.items()) == list(want.rows.items())
    else:
        db = AUDatabase({"t": _au_rel()})
        for plan in plans:
            want = evaluate_audb(plan, db, EvalConfig(physical=False))
            got = evaluate_audb(
                plan, db, EvalConfig(backend="vectorized", chunk_size=chunk_size)
            )
            assert list(got.tuples()) == list(want.tuples())
    # the streamed span says which lane ran and what it gathered: the
    # det σ fuses the π above it, the AU one keeps every column
    conn = Connection(
        db, engine=engine, config=EvalConfig(backend="vectorized", chunk_size=chunk_size)
    )
    (line,) = [
        ln for ln in conn.explain_analyze(plans[1]).splitlines() if " σ[" in ln
    ]
    gathered = "1/2" if engine == "det" else "2/2"
    lane = "interpreted" if case == "interpreted" else "compiled"
    assert f"kernel={lane}" in line and f"gathered_columns={gathered}" in line


def test_au_streamed_select_project_explain_analyze_golden():
    import re

    from repro.algebra.evaluator import EvalConfig
    from repro.core.relation import AUDatabase
    from repro.session import Connection

    # a = [i/i/i+1]: the first chunk (a <= 3) is skipped, row 3 possibly
    # passes, and no row is all points, so none takes the point lane
    conn = Connection(
        AUDatabase({"t": _au_rel()}),
        engine="au",
        config=EvalConfig(backend="vectorized", chunk_size=3),
    )
    text = conn.prepare("SELECT b FROM t WHERE a >= 4").explain_analyze()
    assert re.sub(r"\d+\.\d{3}ms", "Tms", text).splitlines()[2] == (
        "  FusedSelectProject σ[(a >= 4)]  (~10 rows, actual 7, err 1.38x, Tms,"
        " kernel=compiled, point_rows=0/7, gathered_columns=2/2)"
    )

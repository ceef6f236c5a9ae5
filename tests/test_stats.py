"""Column-statistics catalog and selectivity-estimation properties.

Hypothesis properties:

* every selectivity estimate lies in ``[0, 1]``, whatever the condition
  shape or the (possibly empty / inconsistent) catalog;
* the equi-join size estimate ``|R|·|S| / max(d_R, d_S)`` is *exact* on
  key–foreign-key data with uniform distinct counts;

plus unit tests for harvesting from both storage layers, the
scaled/capped derivations, and the compression-budget placement policy.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.algebra.ast import Join, Selection, TableRef
from repro.algebra.optimizer import Statistics, compression_hints, estimate
from repro.algebra.stats import (
    DEFAULT_SELECTIVITY,
    ColumnStats,
    Histogram,
    equi_join_selectivity,
    harvest_column_stats,
    predicate_selectivity,
)
from repro.core.compression import recommended_buckets
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
    Var,
)
from repro.core.ranges import RangeValue, between
from repro.core.relation import AUDatabase, AURelation
from repro.db.storage import DetDatabase, DetRelation

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

COLUMNS = ("a", "b", "c")


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def histograms(draw):
    lo = draw(st.integers(-50, 50))
    hi = lo + draw(st.integers(1, 100))
    n_buckets = draw(st.integers(1, 8))
    counts = tuple(draw(st.integers(0, 20)) for _ in range(n_buckets))
    return Histogram(float(lo), float(hi), counts)


@st.composite
def column_stats(draw):
    count = draw(st.integers(0, 500))
    distinct = draw(st.integers(0, max(count, 1)))
    lo = draw(st.integers(-50, 50))
    hi = lo + draw(st.integers(0, 100))
    return ColumnStats(
        count=count,
        distinct=distinct,
        min_value=lo,
        max_value=hi,
        null_fraction=draw(st.floats(0, 1)),
        uncertain_fraction=draw(st.floats(0, 1)),
        avg_width=draw(st.floats(0, 10)),
        histogram=draw(st.one_of(st.none(), histograms())),
    )


@st.composite
def catalogs(draw):
    # some columns deliberately missing from the catalog
    return {
        name: draw(column_stats())
        for name in COLUMNS
        if draw(st.booleans())
    }


@st.composite
def conditions(draw, depth=3):
    def atom():
        lhs = Var(draw(st.sampled_from(COLUMNS)))
        rhs = draw(
            st.one_of(
                st.integers(-100, 100).map(Const),
                st.sampled_from(COLUMNS).map(Var),
            )
        )
        op = draw(st.sampled_from([Eq, Neq, Leq, Lt, Geq, Gt]))
        return op(lhs, rhs)

    if depth <= 0 or draw(st.booleans()):
        return draw(
            st.one_of(
                st.just(atom()),
                st.sampled_from(COLUMNS).map(lambda c: IsNull(Var(c))),
                st.booleans().map(Const),
            )
        )
    combiner = draw(st.sampled_from(["and", "or", "not"]))
    left = draw(conditions(depth=depth - 1))
    if combiner == "not":
        return Not(left)
    right = draw(conditions(depth=depth - 1))
    return And(left, right) if combiner == "and" else Or(left, right)


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
@SETTINGS
@given(cond=conditions(), catalog=catalogs())
def test_selectivity_always_in_unit_interval(cond, catalog):
    s = predicate_selectivity(cond, catalog)
    assert 0.0 <= s <= 1.0, f"{cond!r} -> {s}"
    assert math.isfinite(s)


@SETTINGS
@given(left=st.one_of(st.none(), column_stats()), right=st.one_of(st.none(), column_stats()))
def test_equi_join_selectivity_in_unit_interval(left, right):
    s = equi_join_selectivity(left, right)
    assert 0.0 < s <= 1.0


@SETTINGS
@given(
    n_keys=st.integers(1, 40),
    fanout=st.integers(1, 8),
    seed=st.integers(0, 10_000),
)
def test_equi_join_estimate_exact_on_key_fk_data(n_keys, fanout, seed):
    """PK–FK join with uniform distinct counts: the estimate is the true
    join size, ``|S|`` — every foreign key matches exactly one key."""
    rng = random.Random(seed)
    pk = DetRelation(["k", "p"], [(i, i * 10) for i in range(n_keys)])
    fk_rows = [
        (rng.randrange(n_keys) if rng.random() < 0.5 else i % n_keys, i)
        for i in range(n_keys * fanout)
    ]
    # make the distinct counts uniform: ensure every key value appears
    fk_rows[:n_keys] = [(i, -i) for i in range(n_keys)]
    fk = DetRelation(["f", "q"], fk_rows)
    db = DetDatabase({"pk": pk, "fk": fk})
    stats = Statistics.from_database(db)

    plan = Join(TableRef("pk"), TableRef("fk"), Eq(Var("k"), Var("f")))
    est = estimate(plan, stats)
    from repro.db.engine import evaluate_det

    actual = evaluate_det(plan, db, optimize=False).total_rows()
    assert actual == fk.total_rows()
    assert est == pytest.approx(actual)


@SETTINGS
@given(catalog=catalogs(), cond=conditions())
def test_selection_estimate_never_exceeds_input(catalog, cond):
    stats = Statistics(
        {"t": 100},
        {"t": COLUMNS},
        {"t": catalog},
    )
    base = TableRef("t")
    assert estimate(Selection(base, cond), stats) <= estimate(base, stats)


@SETTINGS
@given(hist=histograms(), points=st.lists(st.integers(-200, 200), min_size=2, max_size=6))
def test_histogram_fraction_below_monotone_in_unit_interval(hist, points):
    """Cumulative fractions stay in [0, 1] and are monotone in the cut."""
    fracs = [hist.fraction_below(float(c)) for c in sorted(points)]
    assert all(0.0 <= f <= 1.0 for f in fracs)
    assert all(a <= b + 1e-12 for a, b in zip(fracs, fracs[1:]))
    assert hist.fraction_below(hist.lo - 1) == 0.0
    assert hist.fraction_below(hist.hi + 1) == 1.0


class TestHistogram:
    def test_harvested_for_numeric_columns_only(self):
        rel = DetRelation(["x", "s"], [(i, f"v{i}") for i in range(32)])
        cols = harvest_column_stats(DetDatabase({"t": rel}))["t"]
        assert cols["x"].histogram is not None
        assert cols["x"].histogram.total == 32
        assert cols["s"].histogram is None  # strings: min/max only

    def test_degenerate_single_point_column_has_no_histogram(self):
        rel = DetRelation(["x"], [(7,) for _ in range(5)])
        cols = harvest_column_stats(DetDatabase({"t": rel}))["t"]
        assert cols["x"].histogram is None  # hi == lo

    def test_span_beyond_the_double_range_has_no_histogram(self):
        """Regression: ``hi - lo`` overflowed to ``inf``, the bucket
        scale became 0 and ``int(nan)`` crashed statistics harvest — and
        with it every ``prepare``/``execute`` over such a table."""
        from repro.session import Connection

        assert Histogram.build([(-1e308, 1), (1.5e308, 1), (3.0, 1)]) is None
        det = DetRelation(["x"], [(-1e308,), (1.5e308,), (3.0,)])
        au = AURelation(["x"])
        for (x,) in det.rows:
            au.add([x], (1, 1, 1))
        sql = "SELECT x FROM t WHERE x > 0"
        for db in (DetDatabase({"t": det}), AUDatabase({"t": au})):
            with Connection(db) as conn:
                assert conn.statistics().columns["t"]["x"].histogram is None
                assert len(list(conn.execute(sql).tuples())) == 2

    def test_a_nan_value_retires_the_histogram(self):
        """Regression: a NaN after the first value reached the bucket
        arithmetic and ``int(nan)`` crashed statistics harvest."""
        rel = DetRelation(["x"], [(0,), (1,), (float("nan"),), (5,)])
        cols = harvest_column_stats(DetDatabase({"t": rel}))["t"]
        assert cols["x"].histogram is None

    def test_skew_beats_min_max_interpolation(self):
        """90% of the mass at the low end: the histogram prices
        ``x <= 10`` near 0.9 where min/max interpolation says ~0.1."""
        rows = [(i % 10,) for i in range(90)] + [(100 + i,) for i in range(10)]
        rel = DetRelation(["x"], rows)
        cols = harvest_column_stats(DetDatabase({"t": rel}))["t"]
        with_hist = predicate_selectivity(Leq(Var("x"), Const(10)), cols)
        flat = {"x": ColumnStats(
            count=100, distinct=20, min_value=0, max_value=109
        )}
        without = predicate_selectivity(Leq(Var("x"), Const(10)), flat)
        true_fraction = 0.9
        # intra-bucket interpolation keeps some error, but the histogram
        # sees the skew (min/max interpolation estimates ~0.1)
        assert abs(with_hist - true_fraction) < 0.2
        assert abs(without - true_fraction) > 0.5  # uniformity is way off
        assert abs(with_hist - true_fraction) < abs(without - true_fraction) / 3

    def test_au_histogram_uses_sg_values(self):
        rel = AURelation(["v"])
        for i in range(20):
            rel.add([between(i - 1, i, i + 1)], (1, 1, 1))
        cols = harvest_column_stats(AUDatabase({"t": rel}))["t"]
        assert cols["v"].histogram is not None
        assert cols["v"].histogram.lo == 0 and cols["v"].histogram.hi == 19

    def test_fingerprint_sees_histogram_changes(self):
        base = ColumnStats(count=10, distinct=5, min_value=0, max_value=9)
        with_hist = ColumnStats(
            count=10, distinct=5, min_value=0, max_value=9,
            histogram=Histogram(0.0, 9.0, (5, 5)),
        )
        assert base.fingerprint() != with_hist.fingerprint()


# ----------------------------------------------------------------------
# harvesting
# ----------------------------------------------------------------------
class TestHarvest:
    def test_det_relation(self):
        rel = DetRelation(
            ["x", "y"], [(1, "a"), (2, "b"), (2, "b"), (None, "c")]
        )
        rel.add((2, "b"), 2)  # multiplicities weigh the fractions
        cols = harvest_column_stats(DetDatabase({"t": rel}))["t"]
        x = cols["x"]
        assert x.count == rel.total_rows() == 6
        assert x.distinct == 2
        assert x.min_value == 1 and x.max_value == 2
        assert x.null_fraction == pytest.approx(1 / 6)
        assert x.uncertain_fraction == 0.0
        assert cols["y"].distinct == 3

    def test_au_relation_summarizes_bounds(self):
        rel = AURelation(["v"])
        rel.add([between(0, 5, 9)], (1, 1, 1))
        rel.add([RangeValue(2, 2, 2)], (0, 1, 2))
        rel.add([between(-3, 1, 4)], (1, 1, 1))
        cols = harvest_column_stats(AUDatabase({"t": rel}))["t"]
        v = cols["v"]
        assert v.count == 3  # tuple count, matching Statistics cardinality
        assert v.distinct == 3  # distinct SG values 5, 2, 1
        assert v.min_value == -3  # smallest lower bound
        assert v.max_value == 9  # largest upper bound
        assert v.uncertain_fraction == pytest.approx(2 / 3)
        assert v.avg_width == pytest.approx((9 + 0 + 7) / 3)

    def test_statistics_carries_catalog_and_fingerprint_changes(self):
        rel = DetRelation(["x"], [(1,), (2,)])
        db = DetDatabase({"t": rel})
        s1 = Statistics.from_database(db)
        assert s1.columns["t"]["x"].distinct == 2
        rel.add((3,))
        s2 = Statistics.from_database(db)
        assert s1.fingerprint() != s2.fingerprint()
        bare = Statistics.from_database(db, column_stats=False)
        assert bare.columns == {}


class TestDerivations:
    def test_scaled_shrinks_but_keeps_a_survivor(self):
        col = ColumnStats(count=100, distinct=40, min_value=0, max_value=9)
        half = col.scaled(0.5)
        assert half.count == 50 and half.distinct == 20
        tiny = col.scaled(1e-9)
        assert tiny.distinct == 1  # never 0 while rows remain
        none = col.scaled(0.0)
        assert none.count == 0 and none.distinct == 0

    def test_capped(self):
        col = ColumnStats(count=100, distinct=40)
        assert col.capped(10).distinct == 10
        assert col.capped(1000).distinct == 40


# ----------------------------------------------------------------------
# compression-budget placement
# ----------------------------------------------------------------------
class TestCompressionHints:
    def test_recommended_buckets_policy(self):
        assert recommended_buckets(10, 10, None) is None
        # both inputs fit in the budget: compression is a no-op, skip it
        assert recommended_buckets(10, 20, 32) is None
        # a large input gets the full budget
        assert recommended_buckets(10, 2000, 32) == 32

    def test_adaptive_compression_runs_tight_joins_on_small_inputs(self):
        """With inputs far below the budget the hint skips the split/Cpr
        rewrite, so the adaptive run is bit-identical to the naive
        (tightest) join — while the forced-compression run is looser."""
        from repro.algebra.evaluator import EvalConfig, evaluate_audb

        left = AURelation(["a", "x"])
        right = AURelation(["b", "y"])
        for i in range(4):
            left.add([between(i, i, i + 2), i], (1, 1, 1))
            right.add([between(i, i + 1, i + 3), 10 * i], (0, 1, 2))
        db = AUDatabase({"l": left, "r": right})
        plan = Join(TableRef("l"), TableRef("r"), Eq(Var("a"), Var("b")))

        naive = evaluate_audb(plan, db, EvalConfig())
        adaptive = evaluate_audb(
            plan, db, EvalConfig(join_buckets=64, adaptive_compression=True)
        )
        forced = evaluate_audb(plan, db, EvalConfig(join_buckets=2))
        assert dict(adaptive.tuples()) == dict(naive.tuples())
        assert dict(forced.tuples()) != dict(naive.tuples())

    def test_hints_map_join_nodes(self):
        small = DetRelation(["a"], [(i,) for i in range(4)])
        big = DetRelation(["b"], [(i,) for i in range(500)])
        db = DetDatabase({"small": small, "big": big})
        stats = Statistics.from_database(db)
        join = Join(TableRef("small"), TableRef("big"), Eq(Var("a"), Var("b")))
        hints = compression_hints(join, stats, 32)
        assert hints == {id(join): 32}
        tiny = Join(TableRef("small"), TableRef("small"), Eq(Var("a"), Var("a")))
        assert compression_hints(tiny, stats, 32) == {id(tiny): None}
        assert compression_hints(join, stats, None) == {}


# ----------------------------------------------------------------------
# incremental maintenance (the session layer's epoch-friendly harvest)
# ----------------------------------------------------------------------
NAN = float("nan")

#: point cells: numbers, the equal trio 1 / 1.0 / True (and 0 / 0.0 /
#: False), strings and NULL
point_cells = st.one_of(
    st.integers(-30, 30),
    st.floats(-30, 30, allow_nan=False, allow_infinity=False),
    st.sampled_from([1, 1.0, True, 0, 0.0, False]),
    st.sampled_from(["a", "b", "c"]),
    st.none(),
)


@st.composite
def au_cells(draw):
    kind = draw(st.integers(0, 3))
    if kind == 0:  # a numeric range; int or float bounds, maybe a NULL lb
        lo = draw(
            st.one_of(
                st.integers(-10, 10),
                st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            )
        )
        mid = lo + draw(st.integers(0, 3))
        hi = mid + draw(st.integers(0, 3))
        return RangeValue(None if draw(st.booleans()) else lo, mid, hi)
    if kind == 1:  # a string range
        cells = st.lists(st.sampled_from("abc"), min_size=3, max_size=3)
        lo, mid, hi = sorted(draw(cells))
        return RangeValue(lo, mid, hi)
    return draw(point_cells)


def _deletes():
    """``("delete", pick, part, form)``: delete the live row ``pick``
    (mod the live count) — all of it (``part`` 0) or a part — passing
    its 1 / 1.0 / True cells in ``form``, not necessarily the stored
    one."""
    return st.tuples(
        st.just("delete"),
        st.integers(0, 99),
        st.integers(0, 2),
        st.integers(0, 2),
    )


@st.composite
def det_write_sequences(draw):
    n_cols = draw(st.integers(1, 3))
    adds = st.tuples(
        st.just("add"),
        st.tuples(*[point_cells] * n_cols),
        st.integers(1, 3),
    )
    return n_cols, draw(st.lists(st.one_of(adds, _deletes()), max_size=25))


@st.composite
def au_write_sequences(draw):
    n_cols = draw(st.integers(1, 2))
    annotations = st.tuples(
        st.integers(0, 1), st.integers(0, 1), st.integers(1, 2)
    ).map(lambda a: (a[0], a[0] + a[1], a[0] + a[1] + a[2]))
    adds = st.tuples(
        st.just("add"), st.tuples(*[au_cells()] * n_cols), annotations
    )
    return n_cols, draw(st.lists(st.one_of(adds, _deletes()), max_size=20))


def _equal_form(v, form):
    """``v``, or an equal cell of another type: a certain range as its
    plain value (AU storage lifts it back), 1 / 1.0 / True (and 0)."""
    if isinstance(v, RangeValue) and v.is_certain:
        v = v.sg
    if v in (0, 1):  # False for strings, None, NaN and ranges
        return (int(v), float(v), bool(v))[form]
    return v


def _rescans():
    from repro import telemetry

    return telemetry.get_registry().counter(
        "repro_stats_rescans_total", reason="no_accumulator"
    ).value


def _assert_maintained(live, writes, db_cls, delete, copy):
    """Apply ``writes`` to ``live``, harvesting after each: the harvest
    after the first is maintained by the writes (no rescan) and equals
    a fresh harvest of the same rows."""
    harvest_column_stats(db_cls({"t": live}))  # the one scan
    for write in writes:
        if write[0] == "add":
            live.add(write[1], write[2])
        elif len(live):
            _, pick, part, form = write
            row, annotation = list(live.tuples())[pick % len(live)]
            delete(tuple(_equal_form(v, form) for v in row), annotation, part)
        before = _rescans()
        maintained = harvest_column_stats(db_cls({"t": live}))["t"]
        assert _rescans() == before
        assert maintained == harvest_column_stats(db_cls({"t": copy(live)}))["t"]


class TestIncrementalStats:
    """Incrementally maintained ColumnStats equal a from-scratch harvest
    after ANY interleaving of inserts and deletes — histograms, bounds
    and distinct counts included — and only a relation's first harvest
    scans it."""

    @SETTINGS
    @given(det_write_sequences())
    @example(
        (1, [("add", (NAN,), 2), ("add", (1.0,), 1), ("delete", 0, 1, 0),
             ("add", (True,), 1), ("add", (4,), 1), ("delete", 0, 0, 0)])
    )
    def test_det_incremental_equals_scratch(self, seq):
        n_cols, writes = seq
        schema = [f"c{i}" for i in range(n_cols)]
        live = DetRelation(schema)

        def delete(row, multiplicity, part):
            live.delete(row, multiplicity if part == 0 else min(part, multiplicity))

        _assert_maintained(
            live, writes, DetDatabase, delete,
            lambda rel: DetRelation(schema, dict(rel.rows)),
        )

    @SETTINGS
    @given(au_write_sequences())
    @example(  # widths 1.0, 2 - 2**-52, 3 - 2**-51, 1.0: their sum
        # depends on the order of its addends
        (1, [("add", (RangeValue(lo, lo, lo + w),), (1, 1, 1))
             for lo, w in [(-7.7, 1), (0.3, 2), (1.1, 3), (-6.7, 1)]]
         + [("delete", 0, 0, 0)])
    )
    def test_au_incremental_equals_scratch(self, seq):
        n_cols, writes = seq
        schema = [f"c{i}" for i in range(n_cols)]
        live = AURelation(schema)

        def delete(row, annotation, part):
            lb, sg, ub = annotation
            if part == 1 and ub > sg:
                annotation = (0, 0, 1)  # one possible-only copy
            elif part == 2 and lb >= 1 and ub > 1:
                annotation = (1, 1, 1)  # one certain copy
            live.delete(row, annotation)

        def copy(rel):
            scratch = AURelation(schema)
            for t, annotation in rel.tuples():
                scratch.add(t, annotation)
            return scratch

        _assert_maintained(live, writes, AUDatabase, delete, copy)

    def test_delete_passes_the_callers_cell(self):
        """Storage keeps the first of the equal cells 1 / 1.0 / True;
        the accumulator folds out the one the delete names."""
        rel = DetRelation(["x"], [(True,), (5,), (7,)])
        db = DetDatabase({"t": rel})
        harvest_column_stats(db)
        rel.delete((1,))
        stats = harvest_column_stats(db)["t"]["x"]
        fresh = harvest_column_stats(
            DetDatabase({"t": DetRelation(["x"], dict(rel.rows))})
        )["t"]["x"]
        assert stats == fresh
        assert (stats.distinct, stats.min_value) == (2, 5)
        assert stats.histogram is not None and stats.histogram.total == 2

    def test_equal_stats_fingerprint_equal(self):
        """The maintained minimum keeps the first of the equal cells
        ``True`` / ``1``; a fresh harvest finds ``1``.  The two catalogs
        are ``==``, so their fingerprints — the optimizer's cache key —
        must be too."""
        rel = DetRelation(["x", "y"], [(True, "a"), (1, "b"), (5, "c")])
        db = DetDatabase({"t": rel})
        harvest_column_stats(db)
        rel.delete((True, "a"))
        fresh_db = DetDatabase({"t": DetRelation(["x", "y"], dict(rel.rows))})
        stats = harvest_column_stats(db)["t"]["x"]
        fresh = harvest_column_stats(fresh_db)["t"]["x"]
        assert stats == fresh
        assert stats.fingerprint() == fresh.fingerprint()
        assert (
            Statistics.from_database(db).fingerprint()
            == Statistics.from_database(fresh_db).fingerprint()
        )
        nan = ColumnStats(count=1, distinct=1, min_value=NAN, max_value=NAN)
        other = ColumnStats(
            count=1, distinct=1, min_value=float("nan"), max_value=float("nan")
        )
        assert nan.fingerprint() == other.fingerprint()

    def test_au_annotation_only_delete_keeps_the_snapshot(self):
        rel = AURelation(["x"])
        rel.add([1], (1, 1, 2))
        rel.add([2], (1, 1, 1))
        db = AUDatabase({"t": rel})
        snapshot = harvest_column_stats(db)["t"]
        rel.delete([1], (0, 0, 1))  # the tuple stays: one per tuple
        assert harvest_column_stats(db)["t"] is snapshot
        rel.delete([1], (1, 1, 1))  # the tuple goes
        after = harvest_column_stats(db)["t"]
        assert after is not snapshot and after["x"].count == 1

    def test_histogram_out_of_range_write_rebuilds(self):
        rel = DetRelation(["x"], [(float(i),) for i in range(32)])
        first = harvest_column_stats(DetDatabase({"t": rel}))["t"]["x"]
        assert first.histogram is not None
        assert first.histogram.hi == 31.0
        rel.add((1000.0,))  # outside the first histogram's range
        second = harvest_column_stats(DetDatabase({"t": rel}))["t"]["x"]
        assert second.histogram.hi == 1000.0
        assert second.histogram.total == 33
        scratch = harvest_column_stats(
            DetDatabase({"t": DetRelation(["x"], dict(rel.rows))})
        )["t"]["x"]
        assert second == scratch

    def test_in_range_write_bumps_bucket_counters_in_place(self):
        """An in-range insert bumps its value's weight in the column's
        counted map; the accumulator is kept (no rescan) and the
        histogram built from the map counts the new copies."""
        rel = DetRelation(["x"], [(float(i),) for i in range(32)])
        harvest_column_stats(DetDatabase({"t": rel}))
        acc = rel._stats_acc
        before = _rescans()
        rel.add((15.5,), 3)
        assert rel._stats_acc is acc and acc.sgs[0][15.5] == 3
        rel.add((15.5,), 1)
        assert acc.sgs[0][15.5] == 4
        stats = harvest_column_stats(DetDatabase({"t": rel}))["t"]["x"]
        assert _rescans() == before
        assert stats.histogram.total == 36
        scratch = harvest_column_stats(
            DetDatabase({"t": DetRelation(["x"], dict(rel.rows))})
        )["t"]["x"]
        assert stats == scratch

    def test_au_delete_of_the_widest_range_moves_the_bounds_back(self):
        """``min_value`` / ``max_value`` come from the counted ``lb`` /
        ``ub`` maps of the uncertain cells: deleting the range that
        held both extremes moves them back to the points'."""
        rel = AURelation(["x"])
        rel.add([RangeValue(-5, 2, 10)], (1, 1, 1))
        rel.add([3], (1, 1, 1))
        rel.add([4], (1, 1, 1))
        db = AUDatabase({"t": rel})
        first = harvest_column_stats(db)["t"]["x"]
        assert (first.min_value, first.max_value) == (-5, 10)
        before = _rescans()
        rel.delete([RangeValue(-5, 2, 10)], (1, 1, 1))
        after = harvest_column_stats(db)["t"]["x"]
        assert _rescans() == before
        assert (after.min_value, after.max_value, after.distinct) == (3, 4, 2)
        assert after.uncertain_fraction == 0.0
        fresh = AURelation(["x"])
        for t, annotation in rel.tuples():
            fresh.add(t, annotation)
        assert after == harvest_column_stats(AUDatabase({"t": fresh}))["t"]["x"]

    def test_epoch_bumps_on_every_write_path(self):
        rel = DetRelation(["x"], [(1,)])
        db = DetDatabase({"t": rel})
        e0 = db.epoch
        rel.add((2,))
        assert db.epoch > e0
        e1 = db.epoch
        db["t"] = DetRelation(["x"], [(9,)])  # rebinding also bumps
        assert db.epoch > e1
        au = AURelation(["x"])
        audb = AUDatabase({"t": au})
        a0 = audb.epoch
        au.add([1], (1, 1, 1))
        assert audb.epoch > a0
        a1 = audb.epoch
        au.add([1], (0, 0, 1))  # annotation merge still counts as a write
        assert audb.epoch > a1
        a2 = audb.epoch
        audb["u"] = AURelation(["y"])
        assert audb.epoch > a2

    # each case keeps the id it had while its writes forced a rescan
    # counted under ``reason``; ``writes1`` forged a schema change, which
    # has no branch left (schemas are fixed at construction)
    @pytest.mark.parametrize(
        "reason, writes",
        [
            pytest.param("no_accumulator", [], id="no_accumulator-writes0"),
            # the max deleted
            pytest.param(
                "extremum_deleted", [("delete", 39.0)],
                id="extremum_deleted-writes2",
            ),
            # an interior delete, then an insert outside the histogram's
            # range
            pytest.param(
                "out_of_range_insert", [("delete", 10.0), ("add", 500.0)],
                id="out_of_range_insert-writes3",
            ),
            # an insert outside the range, then an interior delete
            pytest.param(
                "out_of_range_delete", [("add", 500.0), ("delete", 10.0)],
                id="out_of_range_delete-writes4",
            ),
            # the min deleted, then an insert outside the range
            pytest.param(
                "extremum_deleted", [("delete", 0.0), ("add", 500.0)],
                id="extremum_deleted-writes5",
            ),
        ],
    )
    def test_every_rescan_is_counted_under_its_reason(self, reason, writes):
        """A relation is scanned once, at its first harvest, under
        ``reason="no_accumulator"``; the writes that once forced a
        rescan under ``reason`` are folded in, and the maintained
        snapshot equals a fresh harvest."""
        rel = DetRelation(["x"], [(float(i),) for i in range(40)])
        db = DetDatabase({"t": rel})
        if writes:
            harvest_column_stats(db)
        acc = rel._stats_acc
        for write, x in writes:
            getattr(rel, write)((x,))
        before = _rescans()
        out = harvest_column_stats(db)["t"]["x"]
        assert _rescans() - before == int(reason == "no_accumulator")
        if writes:
            assert rel._stats_acc is acc
        fresh = harvest_column_stats(
            DetDatabase({"t": DetRelation(["x"], dict(rel.rows))})
        )["t"]["x"]
        assert out == fresh
        expected = sorted(x for (x,) in rel.rows)
        assert (out.min_value, out.max_value, out.distinct) == (
            expected[0], expected[-1], len(expected)
        )

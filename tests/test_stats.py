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
from hypothesis import HealthCheck, given, settings, strategies as st

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

        assert Histogram.build([-1e308, 1.5e308, 3.0]) is None
        det = DetRelation(["x"], [(-1e308,), (1.5e308,), (3.0,)])
        au = AURelation(["x"])
        for (x,) in det.rows:
            au.add([x], (1, 1, 1))
        sql = "SELECT x FROM t WHERE x > 0"
        for db in (DetDatabase({"t": det}), AUDatabase({"t": au})):
            with Connection(db) as conn:
                assert conn.statistics().columns["t"]["x"].histogram is None
                assert len(list(conn.execute(sql).tuples())) == 2

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
@st.composite
def det_add_sequences(draw):
    n_cols = draw(st.integers(1, 3))
    rows = draw(
        st.lists(
            st.tuples(
                st.lists(
                    st.one_of(
                        st.integers(-30, 30),
                        st.floats(
                            -30, 30, allow_nan=False, allow_infinity=False
                        ),
                        st.sampled_from(["a", "b", "c"]),
                        st.none(),
                    ),
                    min_size=n_cols,
                    max_size=n_cols,
                ),
                st.integers(1, 3),
            ),
            max_size=25,
        )
    )
    return n_cols, rows


@st.composite
def au_add_sequences(draw):
    n_cols = draw(st.integers(1, 2))

    @st.composite
    def au_value(draw_inner):
        lo = draw_inner(st.integers(-10, 10))
        mid = lo + draw_inner(st.integers(0, 3))
        hi = mid + draw_inner(st.integers(0, 3))
        if draw_inner(st.booleans()):
            return RangeValue(lo, mid, hi)
        return mid

    rows = draw(
        st.lists(
            st.tuples(
                st.lists(au_value(), min_size=n_cols, max_size=n_cols),
                st.tuples(
                    st.integers(0, 1), st.integers(0, 1), st.integers(1, 2)
                ),
            ),
            max_size=20,
        )
    )
    # make the annotations valid (lb <= sg <= ub)
    rows = [
        (vals, (lb, lb + sg, lb + sg + ub)) for vals, (lb, sg, ub) in rows
    ]
    return n_cols, rows


class TestIncrementalStats:
    """Incrementally maintained ColumnStats equal a from-scratch harvest
    after ANY add-sequence.

    The per-column distinct "sketch" is currently an exact set of domain
    keys, so the documented sketch tolerance for ``distinct`` is zero —
    these properties assert full equality (histograms included).  If a
    lossy sketch ever replaces the sets, relax the ``distinct`` check to
    the sketch's error bound and keep the rest exact.
    """

    @SETTINGS
    @given(det_add_sequences(), st.data())
    def test_det_incremental_equals_scratch(self, seq, data):
        n_cols, rows = seq
        schema = [f"c{i}" for i in range(n_cols)]
        live = DetRelation(schema)
        # interleave harvests with the adds so later adds really do
        # maintain a warm accumulator instead of starting cold
        harvest_points = {
            data.draw(st.integers(0, max(len(rows) - 1, 0)), label="warmup")
        }
        for i, (row, mult) in enumerate(rows):
            if i in harvest_points:
                harvest_column_stats(DetDatabase({"t": live}))
            live.add(tuple(row), mult)
        incremental = harvest_column_stats(DetDatabase({"t": live}))["t"]
        scratch_rel = DetRelation(schema, dict(live.rows))
        scratch = harvest_column_stats(DetDatabase({"t": scratch_rel}))["t"]
        assert incremental == scratch

    @SETTINGS
    @given(au_add_sequences(), st.data())
    def test_au_incremental_equals_scratch(self, seq, data):
        n_cols, rows = seq
        schema = [f"c{i}" for i in range(n_cols)]
        live = AURelation(schema)
        harvest_points = {
            data.draw(st.integers(0, max(len(rows) - 1, 0)), label="warmup")
        }
        for i, (row, ann) in enumerate(rows):
            if i in harvest_points:
                harvest_column_stats(AUDatabase({"t": live}))
            live.add(row, ann)
        incremental = harvest_column_stats(AUDatabase({"t": live}))["t"]
        scratch_rel = AURelation(schema)
        for t, ann in live.tuples():
            scratch_rel.add(t, ann)
        scratch = harvest_column_stats(AUDatabase({"t": scratch_rel}))["t"]
        assert incremental == scratch

    def test_histogram_out_of_range_write_rebuilds(self):
        rel = DetRelation(["x"], [(float(i),) for i in range(32)])
        first = harvest_column_stats(DetDatabase({"t": rel}))["t"]["x"]
        assert first.histogram is not None
        assert first.histogram.hi == 31.0
        rel.add((1000.0,))  # outside the built range: dirties, no rescan
        second = harvest_column_stats(DetDatabase({"t": rel}))["t"]["x"]
        assert second.histogram.hi == 1000.0
        assert second.histogram.total == 33
        scratch = harvest_column_stats(
            DetDatabase({"t": DetRelation(["x"], dict(rel.rows))})
        )["t"]["x"]
        assert second == scratch

    def test_in_range_write_bumps_bucket_counters_in_place(self):
        rel = DetRelation(["x"], [(float(i),) for i in range(32)])
        harvest_column_stats(DetDatabase({"t": rel}))
        acc = rel._stats_acc
        assert acc is not None and not acc.hist_dirty[0]
        rel.add((15.5,), 3)
        assert not acc.hist_dirty[0]  # maintained in place, not rebuilt
        stats = harvest_column_stats(DetDatabase({"t": rel}))["t"]["x"]
        scratch = harvest_column_stats(
            DetDatabase({"t": DetRelation(["x"], dict(rel.rows))})
        )["t"]["x"]
        assert stats == scratch

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

    def test_sample_cap_bounds_retention_and_rescans_on_range_growth(
        self, monkeypatch
    ):
        from repro.algebra import stats as stats_mod

        monkeypatch.setattr(stats_mod, "HISTOGRAM_SAMPLE_CAP", 8)
        rel = DetRelation(["x"], [(float(i),) for i in range(20)])
        harvest_column_stats(DetDatabase({"t": rel}))
        acc = rel._stats_acc
        assert acc.samples[0] is None  # dropped past the cap
        rel.add((10.5,))  # in range: bucket counters maintained exactly
        mid = harvest_column_stats(DetDatabase({"t": rel}))["t"]["x"]
        scratch = harvest_column_stats(
            DetDatabase({"t": DetRelation(["x"], dict(rel.rows))})
        )["t"]["x"]
        assert mid == scratch
        assert rel._stats_acc is acc  # no rescan was needed
        rel.add((500.0,))  # out of range, no samples retained
        assert acc.rescan_needed
        out = harvest_column_stats(DetDatabase({"t": rel}))["t"]["x"]
        scratch2 = harvest_column_stats(
            DetDatabase({"t": DetRelation(["x"], dict(rel.rows))})
        )["t"]["x"]
        assert out == scratch2
        assert rel._stats_acc is not acc  # rebuilt by a full rescan

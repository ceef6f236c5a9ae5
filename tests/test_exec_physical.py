"""The physical plan layer: lowering choices, golden explains, parallelism.

Covers what the differential fuzzer's random plans check only
statistically:

* cost-based lowering picks the intended algorithms (hash vs nested
  loop from the catalog, ``Cpr`` with resolved budgets, AU
  ``TupleFallback`` boundaries);
* golden ``explain_physical`` snapshots so plan-shape changes are
  diff-reviewable;
* morsel partitioning and every Exchange merge kind (concat, partial
  aggregate, top-k, limit, distinct) — in-process and through the
  persistent worker pool;
* order-independent exact summation (:mod:`repro.core.sums`) — the
  PR 3 float round-off carve-out is gone.
"""

import math
import multiprocessing
import os

import pytest

from repro.algebra.ast import (
    Aggregate,
    Difference,
    Distinct,
    Join,
    Limit,
    OrderBy,
    Projection,
    Selection,
    TableRef,
)
from repro.algebra.evaluator import EvalConfig, evaluate_audb
from repro.algebra.optimizer import Statistics, optimize
from repro.core.aggregation import agg_avg, agg_count, agg_max, agg_min, agg_sum
from repro.core.expressions import Const, Eq, Gt, Var
from repro.core.ranges import between
from repro.core.relation import AUDatabase, AURelation
from repro.core.sums import add_exact, exact_sum, finish, merge_acc, new_acc
from repro.db.engine import evaluate_det
from repro.db.storage import DetDatabase, DetRelation
from repro.exec import PhysicalConfig, explain_physical, lower
from repro.exec import parallel as exec_parallel
from repro.exec import physical as phys


# ----------------------------------------------------------------------
# lowering choices
# ----------------------------------------------------------------------
class TestLoweringChoices:
    def test_tiny_inputs_pick_the_nested_loop(self):
        small = DetRelation(["a"], [(i,) for i in range(3)])
        big = DetRelation(["b"], [(i,) for i in range(500)])
        db = DetDatabase({"small": small, "big": big})
        stats = Statistics.from_database(db)
        cfg = PhysicalConfig(engine="det", backend="tuple")
        tiny = Join(
            TableRef("small"),
            TableRef("small"),
            Eq(Var("a"), Var("a")),
        )
        assert isinstance(lower(tiny, stats, cfg), phys.NLJoin)
        large = Join(TableRef("small"), TableRef("big"), Eq(Var("a"), Var("b")))
        lowered = lower(large, stats, cfg)
        assert isinstance(lowered, phys.HashJoin)
        assert lowered.eq_pairs == (("a", "b"),)
        assert lowered.pure_equi

    def test_residual_condition_flagged_at_plan_time(self):
        big = DetRelation(["a", "b"], [(i, i) for i in range(50)])
        db = DetDatabase({"r": big, "s": DetRelation(["c"], [(i,) for i in range(50)])})
        stats = Statistics.from_database(db)
        plan = Join(
            TableRef("r"),
            TableRef("s"),
            Eq(Var("a"), Var("c")) & Gt(Var("b"), Const(3)),
        )
        lowered = lower(plan, stats, PhysicalConfig(engine="det"))
        assert isinstance(lowered, phys.HashJoin)
        assert not lowered.pure_equi

    def test_au_fallback_boundaries_and_buckets(self):
        rel = AURelation(["a", "b"])
        for i in range(20):
            rel.add([i, between(i, i + 1, i + 2)], (1, 1, 1))
        db = AUDatabase({"r": rel})
        stats = Statistics.from_database(db)
        cfg = PhysicalConfig(
            engine="au", backend="vectorized", aggregation_buckets=16
        )
        agg = lower(
            Aggregate(TableRef("r"), ["a"], [agg_sum("b", "t")]), stats, cfg
        )
        # the aggregate is a first-class AU operator carrying its
        # Section 10.5 budget; the SG-combining fragment falls back
        assert isinstance(agg, phys.HashAggregate)
        assert agg.buckets == 16 and not agg.partial
        det_agg = lower(
            Aggregate(TableRef("r"), ["a"], [agg_sum("b", "t")]),
            stats,
            PhysicalConfig(engine="det", aggregation_buckets=16),
        )
        assert isinstance(det_agg, phys.HashAggregate) and det_agg.buckets is None
        dis = lower(Distinct(TableRef("r")), stats, cfg)
        assert isinstance(dis, phys.TupleFallback) and dis.kind == "distinct"
        diff = lower(Difference(TableRef("r"), TableRef("r")), stats, cfg)
        assert isinstance(diff, phys.TupleFallback) and diff.kind == "difference"
        topk = lower(
            Limit(OrderBy(TableRef("r"), ["a"], False), 3), stats, cfg
        )
        assert isinstance(topk, phys.TupleFallback) and topk.kind == "topk"
        # bare LIMIT under AU lowers to the identity (sound superset)
        bare = lower(Limit(TableRef("r"), 3), stats, cfg)
        assert isinstance(bare, phys.Scan)

    def test_au_compressed_join_gets_resolved_budget(self):
        r = AURelation(["a"])
        s = AURelation(["c"])
        for i in range(30):
            r.add([i], (1, 1, 1))
            s.add([i], (1, 1, 1))
        db = AUDatabase({"r": r, "s": s})
        stats = Statistics.from_database(db)
        plan = Join(TableRef("r"), TableRef("s"), Eq(Var("a"), Var("c")))
        lowered = lower(
            plan,
            stats,
            PhysicalConfig(engine="au", join_buckets=8),
        )
        assert isinstance(lowered, phys.CompressedJoin)
        assert lowered.buckets == 8 and lowered.pair == ("a", "c")
        # adaptive placement: inputs fit the budget -> naive (hash) join
        adaptive = lower(
            plan,
            stats,
            PhysicalConfig(
                engine="au", join_buckets=64, adaptive_compression=True
            ),
        )
        assert isinstance(adaptive, phys.HashJoin)

    def test_hash_join_disabled_lowers_to_nested_loop(self):
        r = AURelation(["a"])
        s = AURelation(["c"])
        for i in range(30):
            r.add([i], (1, 1, 1))
            s.add([i], (1, 1, 1))
        db = AUDatabase({"r": r, "s": s})
        stats = Statistics.from_database(db)
        plan = Join(TableRef("r"), TableRef("s"), Eq(Var("a"), Var("c")))
        lowered = lower(
            plan, stats, PhysicalConfig(engine="au", hash_join=False)
        )
        assert isinstance(lowered, phys.NLJoin)
        assert not lowered.check_overlap

    def test_unknown_logical_node_rejected(self):
        from repro.algebra.ast import Plan

        class Strange(Plan):
            pass

        with pytest.raises(TypeError):
            lower(Strange(), None, PhysicalConfig())


# ----------------------------------------------------------------------
# golden explain-physical snapshots
# ----------------------------------------------------------------------
@pytest.fixture
def tpch_like_db():
    orders = DetRelation(["o_id", "o_cust"], [(i, i % 7) for i in range(50)])
    lineitem = DetRelation(
        ["l_oid", "l_qty"], [(i % 50, i % 9) for i in range(200)]
    )
    return DetDatabase({"orders": orders, "lineitem": lineitem})


def _join_agg_plan():
    return Aggregate(
        Selection(
            Join(
                TableRef("orders"),
                TableRef("lineitem"),
                Eq(Var("o_id"), Var("l_oid")),
            ),
            Gt(Var("l_qty"), Const(2)),
        ),
        ["o_cust"],
        [agg_sum("l_qty", "qty"), agg_count("n")],
    )


class TestGoldenExplains:
    def test_det_serial_plan(self, tpch_like_db):
        stats = Statistics.from_database(tpch_like_db)
        opt = optimize(_join_agg_plan(), stats)
        rendered = explain_physical(
            lower(opt, stats, PhysicalConfig(engine="det", backend="vectorized"))
        )
        assert rendered == (
            "HashAggregate γ[o_cust; sum(l_qty)→qty, count(None)→n]  (~7 rows)\n"
            "  FusedSelectProject π[o_cust, l_qty]  (~154 rows)\n"
            "    HashJoin ⋈[o_id=l_oid]  (~154 rows)\n"
            "      Scan orders  (~50 rows)\n"
            "      FusedSelectProject σ[(l_qty > 2)]  (~154 rows)\n"
            "        Scan lineitem [skip: l_qty>2]  (~200 rows)"
        )

    def test_det_parallel_plan(self, tpch_like_db):
        stats = Statistics.from_database(tpch_like_db)
        opt = optimize(_join_agg_plan(), stats)
        rendered = explain_physical(
            lower(
                opt,
                stats,
                PhysicalConfig(
                    engine="det", backend="vectorized", parallelism=4
                ),
            )
        )
        # adaptive morsel sizing: the ~50-row driver needs only the
        # minimum 2 partitions at parallelism 4
        assert rendered == (
            "Exchange merge=aggregate [2 partitions]  (~7 rows)\n"
            "  HashAggregate γ[o_cust; sum(l_qty)→qty, count(None)→n]"
            " (partial)  (~7 rows)\n"
            "    FusedSelectProject π[o_cust, l_qty]  (~154 rows)\n"
            "      HashJoin ⋈[o_id=l_oid]  (~154 rows)\n"
            "        ParallelScan orders [2 morsels]  (~50 rows)\n"
            "        FusedSelectProject σ[(l_qty > 2)]  (~154 rows)\n"
            "          Scan lineitem [skip: l_qty>2]  (~200 rows)"
        )

    @staticmethod
    def _compressed_case():
        r = AURelation(["a", "b"])
        for i in range(30):
            r.add([i, between(i, i + 1, i + 2)], (1, 1, 1))
        s = AURelation(["c", "d"])
        for i in range(30):
            s.add([i % 10, i], (1, 1, 1))
        plan = Aggregate(
            Join(TableRef("r"), TableRef("s"), Eq(Var("a"), Var("c"))),
            ["d"],
            [agg_sum("b", "t")],
        )
        return AUDatabase({"r": r, "s": s}), plan

    def test_au_compressed_plan(self):
        audb, plan = self._compressed_case()
        stats = Statistics.from_database(audb)
        opt = optimize(plan, stats)
        rendered = explain_physical(
            lower(
                opt,
                stats,
                PhysicalConfig(
                    engine="au",
                    backend="vectorized",
                    join_buckets=8,
                    aggregation_buckets=16,
                ),
            )
        )
        assert rendered == (
            "HashAggregate γ[d; sum(b)→t] Cpr=16  (~30 rows)\n"
            "  FusedSelectProject π[b, d]  (~30 rows)\n"
            "    CompressedJoin ⋈[a=c] Cpr[CT=8]  (~30 rows)\n"
            "      Scan r  (~30 rows)\n"
            "      Scan s  (~30 rows)"
        )

    @pytest.mark.parametrize("backend", ["tuple", "vectorized"])
    def test_au_compressed_explain_analyze_golden(self, backend):
        # the vectorized CompressedJoin and HashAggregate report what
        # their columnar operators did; the tuple backend runs
        # core.optimized_join / core.aggregation.aggregate
        import re

        from repro.session import Connection

        audb, plan = self._compressed_case()
        conn = Connection(
            audb,
            config=EvalConfig(
                backend=backend, join_buckets=8, aggregation_buckets=16
            ),
        )
        normalized = re.sub(
            r"\d+\.\d{3}ms(?: in \d+ loops)?", "Tms", conn.explain_analyze(plan)
        )
        columnar = (
            ", sg_pairs=30, boxes=8x8, box_pairs=8/8, dedup_rows=0"
            if backend == "vectorized"
            else ""
        )
        folded = (
            ", groups=30, dedup_rows=0, uncertain_key_rows=8"
            ", foreign_states=8, state_merges=177, inputs=compiled"
            if backend == "vectorized"
            else ""
        )
        assert normalized == (
            f"EXPLAIN ANALYZE (au, backend={backend}): 30 rows in Tms\n"
            "HashAggregate γ[d; sum(b)→t] Cpr=16"
            f"  (~30 rows, actual 30, err 1.00x, Tms{folded})\n"
            "  FusedSelectProject π[b, d]"
            "  (~30 rows, actual 38, err 1.26x, Tms)\n"
            "    CompressedJoin ⋈[a=c] Cpr[CT=8]"
            f"  (~30 rows, actual 38, err 1.26x, Tms{columnar})\n"
            "      Scan r  (~30 rows, actual 30, err 1.00x, Tms)\n"
            "      Scan s  (~30 rows, actual 30, err 1.00x, Tms)\n"
            "stages: execute Tms"
        )

    @pytest.mark.parametrize("backend", ["tuple", "vectorized"])
    def test_explain_analyze_golden(self, tpch_like_db, backend):
        # same shape as the serial golden above, but executed through
        # the session layer with per-operator actuals, estimation-error
        # factors, and span times merged in; wall times are the only
        # nondeterminism, normalized to "Tms"
        import re

        from repro.session import Connection

        conn = Connection(
            tpch_like_db, config=EvalConfig(backend=backend)
        )
        sql = (
            "SELECT o_cust, sum(l_qty) AS qty, count(*) AS n "
            "FROM orders JOIN lineitem ON o_id = l_oid "
            "WHERE l_qty > 2 GROUP BY o_cust"
        )

        def normalize(text):
            return re.sub(r"\d+\.\d{3}ms(?: in \d+ loops)?", "Tms", text)

        # Connection.explain_analyze runs the text as its template (the
        # raw text is not cached yet), a prepared text as written
        lifted = normalize(conn.explain_analyze(sql))
        marks = [s for s in conn.last_trace.root.children if s.cat == "mark"]
        normalized = normalize(conn.prepare(sql).explain_analyze())
        # only the vectorized backend has filter kernels to report: the
        # typed l_qty column compares natively, and the streamed filter
        # gathers both lineitem columns (no projection fused above it)
        kernel = (
            ", kernel=compiled, native_compares=1, gathered_columns=2/2"
            if backend == "vectorized"
            else ""
        )
        # ... and the columnar aggregate folds every (group, aggregate)
        # of the int column in C
        folded = ", groups=7, column_folds=14/14" if backend == "vectorized" else ""
        # ... and the join's build side repeats its keys: the bucket
        # loop, every matched orders row gathered
        probe = (
            ", probe=loop, gathered_left=132" if backend == "vectorized" else ""
        )
        assert normalized == (
            f"EXPLAIN ANALYZE (det, backend={backend}): 7 rows in Tms\n"
            "HashAggregate γ[o_cust; sum(l_qty)→qty, count(None)→n]"
            f"  (~7 rows, actual 7, err 1.00x, Tms{folded})\n"
            "  FusedSelectProject π[o_cust, l_qty]"
            "  (~154 rows, actual 132, err 1.17x, Tms)\n"
            "    HashJoin ⋈[o_id=l_oid]"
            f"  (~154 rows, actual 132, err 1.17x, Tms{probe})\n"
            "      Scan orders  (~50 rows, actual 50, err 1.00x, Tms)\n"
            "      FusedSelectProject σ[(l_qty > 2)]"
            f"  (~154 rows, actual 132, err 1.17x, Tms{kernel})\n"
            "        Scan lineitem [skip: l_qty>2]"
            "  (~200 rows, actual 200, err 1.00x, Tms)\n"
            "stages: execute Tms"
        )
        # the template shows the lifted slot (priced at the default
        # selectivity) and the header says how many literals were lifted
        assert lifted == (
            f"EXPLAIN ANALYZE (det, backend={backend}): 7 rows in Tms, "
            "auto-parameterized: 1 literal(s)\n"
            "HashAggregate γ[o_cust; sum(l_qty)→qty, count(None)→n]"
            f"  (~7 rows, actual 7, err 1.00x, Tms{folded})\n"
            "  FusedSelectProject π[o_cust, l_qty]"
            "  (~67 rows, actual 132, err 1.97x, Tms)\n"
            "    HashJoin ⋈[o_id=l_oid]"
            f"  (~67 rows, actual 132, err 1.97x, Tms{probe})\n"
            "      Scan orders  (~50 rows, actual 50, err 1.00x, Tms)\n"
            "      FusedSelectProject σ[(l_qty > ?0)]"
            f"  (~67 rows, actual 132, err 1.97x, Tms{kernel})\n"
            "        Scan lineitem [skip: l_qty>?0]"
            "  (~200 rows, actual 200, err 1.00x, Tms)\n"
            "stages: execute Tms"
        )
        assert [(m.name, m.attrs) for m in marks] == [
            ("auto-param", {"lifted": 1})
        ]

    def test_prepared_skip_template_golden(self):
        # the cached plan renders its skip template with parameter
        # slots; a bound run fills it and skips like its literal twin
        import re

        from repro.session import Connection

        rel = DetRelation(
            ["l_id", "l_qty", "l_price"],
            [(i, i % 50, float(i % 97)) for i in range(2400)],
        )
        conn = Connection(
            DetDatabase({"lineitem": rel}),
            config=EvalConfig(backend="vectorized", chunk_size=100),
        )
        prepared = conn.prepare(
            "SELECT l_id, l_price FROM lineitem WHERE l_id >= ? AND l_id < ?"
        )
        assert prepared.explain_physical() == (
            "FusedSelectProject σ[((l_id >= ?0) AND (l_id < ?1))]"
            " π[l_id, l_price]  (~267 rows)\n"
            "  Scan lineitem [skip: l_id>=?0 AND l_id<?1]  (~2400 rows)"
        )
        normalized = re.sub(
            r"\d+\.\d{3}ms(?: in \d+ loops)?",
            "Tms",
            prepared.explain_analyze([1200, 1224]),
        )
        assert normalized == (
            "EXPLAIN ANALYZE (det, backend=vectorized): 24 rows in Tms\n"
            "FusedSelectProject σ[((l_id >= ?0) AND (l_id < ?1))]"
            " π[l_id, l_price]  (~267 rows, actual 24, err 10.71x, Tms,"
            " kernel=compiled, native_compares=2, gathered_columns=2/3)\n"
            "  Scan lineitem [skip: l_id>=?0 AND l_id<?1]"
            "  (~2400 rows, actual 100, err 23.77x, Tms,"
            " skipped 23/24 chunks by bound skip)\n"
            "stages: execute Tms"
        )

    def test_actuals_annotate_physical_nodes(self, tpch_like_db):
        stats = Statistics.from_database(tpch_like_db)
        opt = optimize(_join_agg_plan(), stats)
        pplan = lower(
            opt, stats, PhysicalConfig(engine="det", backend="vectorized")
        )
        from repro.exec import execute_det

        actuals = {}
        execute_det(pplan, tpch_like_db, actuals=actuals)
        rendered = explain_physical(pplan, actuals=actuals)
        for line in rendered.splitlines():
            assert "actual" in line, rendered
        assert "Scan lineitem [skip: l_qty>2]  (~200 rows, actual 200)" in rendered


# ----------------------------------------------------------------------
# partition-parallel execution
# ----------------------------------------------------------------------
@pytest.fixture
def wide_db():
    rows = [(i, i % 13, (i * 7) % 101) for i in range(500)]
    fact = DetRelation(["f_id", "f_key", "f_val"], rows)
    dim = DetRelation(["d_key", "d_name"], [(i, f"d{i}") for i in range(13)])
    return DetDatabase({"fact": fact, "dim": dim})


@pytest.fixture
def force_partitioning(monkeypatch):
    monkeypatch.setattr(exec_parallel, "PARALLEL_MIN_ROWS", 0)


def _parallel_matches_serial(plan, db, parallelism=4, **kwargs):
    serial = evaluate_det(plan, db, backend="vectorized", **kwargs)
    parallel = evaluate_det(
        plan, db, backend="vectorized", parallelism=parallelism, **kwargs
    )
    assert parallel.schema == serial.schema
    assert parallel.rows == serial.rows
    return parallel


class TestParallelExecution:
    def test_aggregate_region(self, wide_db, force_partitioning):
        plan = Aggregate(
            Selection(
                Join(
                    TableRef("fact"),
                    TableRef("dim"),
                    Eq(Var("f_key"), Var("d_key")),
                ),
                Gt(Var("f_val"), Const(20)),
            ),
            ["d_name"],
            [
                agg_sum("f_val", "total"),
                agg_count("n"),
                agg_min("f_val", "lo"),
                agg_max("f_val", "hi"),
                agg_avg("f_val", "mean"),
            ],
        )
        _parallel_matches_serial(plan, wide_db)

    def test_global_aggregate_and_empty_input(self, wide_db, force_partitioning):
        plan = Aggregate(
            TableRef("fact"), [], [agg_sum("f_val", "t"), agg_count("n")]
        )
        _parallel_matches_serial(plan, wide_db)
        empty = Aggregate(
            Selection(TableRef("fact"), Const(False)),
            [],
            [agg_count("n"), agg_min("f_val", "lo")],
        )
        _parallel_matches_serial(empty, wide_db, optimize=False)

    def test_topk_limit_distinct_concat_regions(self, wide_db, force_partitioning):
        topk = Limit(OrderBy(TableRef("fact"), ["f_val"], True), 7)
        _parallel_matches_serial(topk, wide_db)
        bare_limit = Limit(TableRef("fact"), 9)
        _parallel_matches_serial(bare_limit, wide_db, optimize=False)
        distinct = Distinct(
            Projection(TableRef("fact"), [(Var("f_key"), "f_key")])
        )
        _parallel_matches_serial(distinct, wide_db)
        linear = Selection(TableRef("fact"), Gt(Var("f_val"), Const(50)))
        out = _parallel_matches_serial(linear, wide_db)
        assert out.total_rows() > 0

    @pytest.mark.skipif(
        not hasattr(os, "fork"), reason="persistent pool needs fork()"
    )
    def test_persistent_worker_pool(self, wide_db, monkeypatch):
        """Force the pool transport on small data once — and the
        one-shot shim's ephemeral connection must reap its workers
        itself, not leave them to the pool's GC safety net."""
        monkeypatch.setattr(exec_parallel, "PARALLEL_MIN_ROWS", 0)
        monkeypatch.setattr(exec_parallel, "PROCESS_MIN_ROWS", 0)
        monkeypatch.delattr(exec_parallel.WorkerPool, "__del__")
        plan = Aggregate(
            TableRef("fact"),
            ["f_key"],
            [agg_sum("f_val", "t"), agg_avg("f_val", "m")],
        )
        forks = exec_parallel._POOL_FORKS.value
        tasks = exec_parallel._POOL_TASKS.value
        # chunk_size=64: 500 rows make 8 chunks, so the chunk-aligned
        # morsels really split into 2 partitions
        _parallel_matches_serial(plan, wide_db, parallelism=2, chunk_size=64)
        assert exec_parallel._POOL_FORKS.value == forks + 1
        assert exec_parallel._POOL_TASKS.value == tasks + 2
        assert multiprocessing.active_children() == []

    def test_threshold_collapses_to_single_partition(self, wide_db):
        # default PARALLEL_MIN_ROWS far exceeds 500 rows: the Exchange
        # runs one partition, still through the merge path
        plan = Aggregate(TableRef("fact"), ["f_key"], [agg_count("n")])
        _parallel_matches_serial(plan, wide_db)

    def test_au_parallelism_knob_is_result_invariant(self):
        rel = AURelation(["a"])
        rel.add([between(1, 2, 3)], (1, 1, 1))
        db = AUDatabase({"r": rel})
        ref = evaluate_audb(TableRef("r"), db, EvalConfig(backend="tuple"))
        par = evaluate_audb(TableRef("r"), db, EvalConfig(parallelism=4))
        assert dict(par.tuples()) == dict(ref.tuples())


# ----------------------------------------------------------------------
# exact summation (bit-stable SUM/AVG)
# ----------------------------------------------------------------------
ADVERSARIAL = [1e16, 1.0, -1e16, 0.1, 1e-9, -0.1, 3.5, 1e16, -1e16, 2.5e-10]


class TestExactSums:
    def test_order_and_partition_independent(self):
        values = [(v, 1) for v in ADVERSARIAL] * 13
        reference = exact_sum(values)
        assert reference == math.fsum(v for v, _m in values)
        assert exact_sum(reversed(values)) == reference
        # any partitioning merges to the same bits
        for cut in (1, 3, 7):
            left, right = new_acc(), new_acc()
            for v, m in values[:cut]:
                add_exact(left, v * m)
            for v, m in values[cut:]:
                add_exact(right, v * m)
            merge_acc(left, right)
            assert finish(left) == reference

    def test_int_sums_stay_ints(self):
        assert exact_sum([(2, 3), (4, 1)]) == 10
        assert isinstance(exact_sum([(2, 3)]), int)
        assert exact_sum([]) == 0

    def test_running_sum_overflow_saturates_like_ieee(self):
        """Sums leaving the double range return ±inf (the old left-fold
        ``sum()`` convention), not a ValueError from degenerate partials."""
        assert exact_sum([(1e308, 1), (9e307, 1)]) == math.inf
        assert exact_sum([(-1e308, 1), (-9e307, 1)]) == -math.inf
        a, b = new_acc(), new_acc()
        add_exact(a, 1e308)
        add_exact(b, 9e307)
        merge_acc(a, b)
        assert finish(a) == math.inf
        db = DetDatabase(
            {"r": DetRelation(["a"], [(1e308,), (9e307,)])}
        )
        plan = Aggregate(TableRef("r"), [], [agg_sum("a", "s")])
        for backend in ("tuple", "vectorized"):
            assert evaluate_det(plan, db, backend=backend).rows == {
                (math.inf,): 1
            }

    def test_nonfinite_values_are_order_independent(self):
        inf = float("inf")
        a = exact_sum([(inf, 1), (1.0, 1), (-inf, 1)])
        b = exact_sum([(-inf, 1), (inf, 1), (1.0, 1)])
        assert math.isnan(a) and math.isnan(b)
        assert exact_sum([(inf, 1), (5.0, 1)]) == inf

    def test_float_aggregates_bit_identical_across_backends(self):
        rel = DetRelation(["g", "v"])
        for i, v in enumerate(ADVERSARIAL * 7):
            rel.add((i % 3, v), 1 + i % 2)
        db = DetDatabase({"t": rel})
        plan = Aggregate(
            TableRef("t"), ["g"], [agg_sum("v", "s"), agg_avg("v", "m")]
        )
        ref = evaluate_det(plan, db, physical=False)
        for kwargs in (
            dict(backend="tuple"),
            dict(backend="vectorized"),
            dict(backend="vectorized", parallelism=4),
        ):
            out = evaluate_det(plan, db, **kwargs)
            assert out.rows == ref.rows, kwargs

    def test_float_parallel_bits_with_forced_partitioning(self, monkeypatch):
        monkeypatch.setattr(exec_parallel, "PARALLEL_MIN_ROWS", 0)
        rel = DetRelation(["g", "v"])
        for i, v in enumerate(ADVERSARIAL * 11):
            rel.add((i % 4, v + i), 1)
        db = DetDatabase({"t": rel})
        plan = Aggregate(
            TableRef("t"), ["g"], [agg_sum("v", "s"), agg_avg("v", "m")]
        )
        ref = evaluate_det(plan, db, backend="vectorized")
        for parallelism in (2, 3, 4, 7):
            out = evaluate_det(
                plan, db, backend="vectorized", parallelism=parallelism
            )
            assert out.rows == ref.rows, parallelism

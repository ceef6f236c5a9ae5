"""The static plan verifier: schema inference, golden diagnostics for
deliberately-broken logical and physical plans, the semiring-safety
lint, and the prepare-time / CLI wiring."""

import subprocess
import sys

import pytest

from repro import analysis
from repro.algebra.ast import (
    Aggregate,
    Difference,
    Distinct,
    Projection,
    Rename,
    TableRef,
    TopK,
    Union,
)
from repro.algebra.optimizer import Statistics, optimize
from repro.analysis import (
    PlanCompatibilityError,
    PlanReferenceError,
    PlanTypeError,
    PlanVerificationError,
    SemiringSafetyError,
    check_semiring_safety,
    infer_logical,
    rule_allowed,
    verify_bound,
    verify_logical,
    verify_physical,
)
from repro.core.aggregation import agg_count, agg_sum
from repro.core.expressions import Add, Const, Div, Parameter, Var
from repro.core.ranges import between
from repro.core.relation import AUDatabase, AURelation
from repro.db.storage import DetDatabase, DetRelation
from repro.exec import physical as phys
from repro.session import Connection
from repro.sql.parser import SqlSyntaxError, parse_sql


@pytest.fixture
def det_conn():
    db = DetDatabase(
        {
            "r": DetRelation(["a", "b"], [(1, 2), (3, 4), (3, 4)]),
            "s": DetRelation(["c", "d"], [(1, "x")]),
        }
    )
    return Connection(db)


@pytest.fixture
def stats(det_conn):
    return det_conn.statistics()


# ======================================================================
# typed schema inference
# ======================================================================
class TestSchemaInference:
    def test_base_table_types_and_flags(self, stats):
        schema = infer_logical(TableRef("s"), stats)
        assert schema.names == ("c", "d")
        assert schema.get("c").type == analysis.TYPE_NUMBER
        assert schema.get("d").type == analysis.TYPE_STRING
        assert schema.get("c").certain  # det data is fully certain

    def test_uncertain_column_not_certain(self):
        rel = AURelation(["a"])
        rel.add([between(1, 2, 3)], (1, 1, 1))
        conn = Connection(AUDatabase({"t": rel}))
        schema = infer_logical(TableRef("t"), conn.statistics())
        assert not schema.get("a").certain

    def test_projection_computes_types(self, stats):
        plan = Projection(TableRef("r"), [(Add(Var("a"), Const(1)), "a1")])
        schema = infer_logical(plan, stats)
        assert schema.get("a1").type == analysis.TYPE_NUMBER

    def test_aggregate_output(self, stats):
        plan = Aggregate(
            TableRef("r"), ("a",), (agg_sum("b", "t"), agg_count("n"))
        )
        schema = infer_logical(plan, stats)
        assert schema.names == ("a", "t", "n")
        assert schema.get("n").type == analysis.TYPE_NUMBER
        assert not schema.get("n").nullable
        # aggregate outputs are conservatively uncertain
        assert not schema.get("t").certain

    def test_unknown_table_is_permissive_not_fatal(self):
        # inference over an absent catalog yields None, not an error —
        # table existence is checked separately (verify_logical)
        assert infer_logical(TableRef("anything"), None) is None

    def test_unknown_plan_node_is_opaque(self, stats):
        from repro.algebra.ast import Plan

        class Strange(Plan):
            def children(self):
                return ()

        assert infer_logical(Strange(), stats) is None


# ======================================================================
# golden diagnostics: broken logical plans
# ======================================================================
class TestLogicalDiagnostics:
    def test_unresolved_column(self, stats):
        plan = TableRef("r").where(Var("zzz") > Const(0))
        with pytest.raises(PlanReferenceError) as exc:
            verify_logical(plan, stats)
        message = str(exc.value)
        assert "unbound variable 'zzz'" in message
        assert "Selection" in message  # the node is named
        assert "'a'" in message and "'b'" in message  # and the candidates

    def test_unresolved_column_is_a_key_error(self, stats):
        # existing callers catch KeyError; the diagnostic must satisfy them
        plan = TableRef("r").where(Var("zzz") > Const(0))
        with pytest.raises(KeyError, match="unbound variable"):
            verify_logical(plan, stats)

    def test_unknown_table(self, stats):
        with pytest.raises(PlanReferenceError, match="not found"):
            verify_logical(TableRef("nope"), stats)

    def test_empty_catalog_skips_table_check(self):
        conn = Connection(DetDatabase({}))
        # nothing provably missing: the storage layer reports at run time
        assert verify_logical(TableRef("nope"), conn.statistics()) is None

    def test_union_incompatible(self, stats):
        plan = Union(TableRef("r"), Projection(TableRef("s"), [(Var("c"), "c")]))
        with pytest.raises(PlanCompatibilityError, match="union"):
            verify_logical(plan, stats)
        with pytest.raises(ValueError, match="union"):
            verify_logical(plan, stats)

    def test_difference_incompatible(self, stats):
        plan = Difference(
            TableRef("r"), Projection(TableRef("s"), [(Var("c"), "c")])
        )
        with pytest.raises(PlanCompatibilityError, match="difference"):
            verify_logical(plan, stats)

    def test_rename_unknown_column(self, stats):
        with pytest.raises(PlanReferenceError, match="Rename"):
            verify_logical(Rename(TableRef("r"), {"zzz": "q"}), stats)

    def test_aggregate_unknown_group_key(self, stats):
        plan = Aggregate(TableRef("r"), ("zzz",), (agg_sum("b", "t"),))
        with pytest.raises(PlanReferenceError, match="group-by"):
            verify_logical(plan, stats)

    def test_having_sees_output_schema_only(self, stats):
        good = Aggregate(
            TableRef("r"), ("a",), (agg_sum("b", "t"),), Var("t") > Const(0)
        )
        verify_logical(good, stats)
        bad = Aggregate(
            TableRef("r"), ("a",), (agg_sum("b", "t"),), Var("b") > Const(0)
        )
        with pytest.raises(PlanReferenceError, match="HAVING"):
            verify_logical(bad, stats)

    def test_topk_unknown_key(self, stats):
        with pytest.raises(PlanReferenceError, match="TopK"):
            verify_logical(TopK(TableRef("r"), ("zzz",), False, 3), stats)

    def test_string_arithmetic_is_a_type_error(self, stats):
        plan = Projection(TableRef("s"), [(Add(Var("d"), Var("c")), "x")])
        with pytest.raises(PlanTypeError, match="add"):
            verify_logical(plan, stats)
        with pytest.raises(TypeError):  # builtin-compatible
            verify_logical(plan, stats)

    def test_sum_over_string_is_a_type_error(self, stats):
        plan = Aggregate(TableRef("s"), ("c",), (agg_sum("d", "t"),))
        with pytest.raises(PlanTypeError, match="sum"):
            verify_logical(plan, stats)

    def test_division_is_not_statically_rejected(self, stats):
        # uncertain-zero division is a runtime property; the verifier
        # must not reject Div (tests/test_validation.py relies on the
        # ZeroDivisionError surfacing at execution)
        plan = TableRef("r").select((Div(Const(1), Var("a")), "inv"))
        verify_logical(plan, stats)

    def test_comparisons_never_type_error(self, stats):
        # the universal domain order totalizes comparisons
        plan = TableRef("s").where(Var("d") > Var("c"))
        verify_logical(plan, stats)


# ======================================================================
# parameter completeness
# ======================================================================
class TestParameters:
    def test_parameters_allowed_by_default(self, stats):
        plan = TableRef("r").where(Var("a") > Parameter(0))
        verify_logical(plan, stats)

    def test_expect_parameters_false_rejects(self, stats):
        plan = TableRef("r").where(Var("a") > Parameter(0))
        with pytest.raises(PlanReferenceError, match="unbound parameter"):
            verify_logical(plan, stats, expect_parameters=False)

    def test_verify_bound(self, stats):
        plan = TableRef("r").where(Var("a") > Parameter("lo"))
        verify_bound(plan, {"lo": 3})
        with pytest.raises(PlanReferenceError, match="unbound parameter"):
            verify_bound(plan, {})
        with pytest.raises(PlanReferenceError, match="lo"):
            verify_bound(plan, {"hi": 3})


# ======================================================================
# semiring-safety lint
# ======================================================================
class TestSemiringLint:
    def test_bag_only_rewrite_rejected_for_au(self):
        for rule in ("distinct-pushdown", "difference-pushdown"):
            assert rule_allowed(rule, "bag")
            assert not rule_allowed(rule, "au")
            check_semiring_safety([rule], "bag")
            with pytest.raises(SemiringSafetyError, match=rule):
                check_semiring_safety([rule], "au")
            with pytest.raises(SemiringSafetyError):
                check_semiring_safety([rule], "both")

    def test_au_safe_rules_pass_everywhere(self):
        trace = [
            "selection-pushdown",
            "join-promotion",
            "join-reorder-dp",
            "topk-fusion",
            "projection-pruning",
        ]
        for semantics in ("bag", "au", "both"):
            check_semiring_safety(trace, semantics)

    def test_undeclared_rewrite_rejected(self):
        with pytest.raises(SemiringSafetyError, match="declaration"):
            check_semiring_safety(["totally-new-rewrite"], "bag")

    def test_unknown_semantics_rejected(self):
        with pytest.raises(SemiringSafetyError, match="semantics"):
            check_semiring_safety([], "quantum")

    def test_optimizer_gates_bag_only_rewrites(self, det_conn):
        # det session: selection above Distinct commutes (bag-only)
        plan = Distinct(TableRef("r")).where(Var("a") > Const(2))
        prepared = det_conn.prepare(plan)
        assert "distinct-pushdown" in prepared.rewrite_trace
        assert sorted(prepared.execute().tuples()) == [((3, 4), 1)]

        # the same plan on an AU session must NOT cross the rewrite
        rel = AURelation.from_certain_rows(["a", "b"], [[1, 2], [3, 4], [3, 4]])
        au_conn = Connection(AUDatabase({"r": rel}), verify=True)
        au_prepared = au_conn.prepare(plan)
        assert "distinct-pushdown" not in au_prepared.rewrite_trace
        check_semiring_safety(au_prepared.rewrite_trace, "au")

    def test_difference_pushdown_fires_and_matches_reference(self, det_conn):
        from repro.db.engine import evaluate_det

        plan = Difference(TableRef("r"), Distinct(TableRef("r"))).where(
            Var("a") > Const(0)
        )
        prepared = det_conn.prepare(plan)
        assert "difference-pushdown" in prepared.rewrite_trace
        reference = evaluate_det(plan, det_conn.db, optimize=False)
        assert sorted(prepared.execute().tuples()) == sorted(reference.tuples())

    def test_forged_bag_trace_rejected_at_au_optimize(self, det_conn):
        # the integration path: optimize(semantics="au") never records a
        # bag-only rule, and a forged trace fails the session-level check
        with pytest.raises(SemiringSafetyError):
            check_semiring_safety(["selection-pushdown", "distinct-pushdown"], "au")
        trace = []
        optimize(
            Distinct(TableRef("r")).where(Var("a") > Const(2)),
            det_conn.statistics(),
            semantics="au",
            verify=True,
            trace=trace,
        )
        assert "distinct-pushdown" not in trace


# ======================================================================
# golden diagnostics: broken physical plans
# ======================================================================
class TestPhysicalDiagnostics:
    def _cfg(self, **kwargs):
        return phys.PhysicalConfig(**kwargs)

    def test_partial_aggregate_without_exchange(self, stats):
        agg = phys.HashAggregate(
            phys.Scan("r"), ("a",), (agg_sum("b", "t"),), None, partial=True
        )
        with pytest.raises(
            PlanCompatibilityError, match="partial HashAggregate"
        ):
            verify_physical(
                agg,
                stats,
                self._cfg(engine="det", backend="vectorized", parallelism=4),
            )

    def test_parallel_scan_outside_region(self, stats):
        with pytest.raises(PlanCompatibilityError, match="ParallelScan"):
            verify_physical(
                phys.ParallelScan("r", 4),
                stats,
                self._cfg(engine="det", backend="vectorized", parallelism=4),
            )

    def test_exchange_merge_child_mismatch(self, stats):
        # merge="aggregate" requires a partial HashAggregate child
        bad = phys.Exchange(
            phys.HashDistinct(phys.ParallelScan("r", 4)),
            "aggregate",
            4,
            final=phys.HashDistinct(phys.Scan("r")),
        )
        with pytest.raises(PlanCompatibilityError, match="HashAggregate"):
            verify_physical(
                bad,
                stats,
                self._cfg(engine="det", backend="vectorized", parallelism=4),
            )

    def test_exchange_concat_must_not_carry_final(self, stats):
        bad = phys.Exchange(
            phys.FusedSelectProject(
                phys.ParallelScan("r", 4), Var("a") > Const(0), None
            ),
            "concat",
            4,
            final=phys.Scan("r"),
        )
        with pytest.raises(PlanCompatibilityError, match="concat"):
            verify_physical(
                bad,
                stats,
                self._cfg(engine="det", backend="vectorized", parallelism=4),
            )

    def test_exchange_partition_mismatch(self, stats):
        region = phys.FusedSelectProject(
            phys.ParallelScan("r", 2), Var("a") > Const(0), None
        )
        bad = phys.Exchange(region, "concat", 4)
        with pytest.raises(PlanCompatibilityError, match="partitions"):
            verify_physical(
                bad,
                stats,
                self._cfg(engine="det", backend="vectorized", parallelism=4),
            )

    def test_adaptive_exchange_may_use_fewer_partitions(self, stats):
        # adaptive morsel sizing picks <= parallelism partitions: legal
        region = phys.FusedSelectProject(
            phys.ParallelScan("r", 2), Var("a") > Const(0), None
        )
        verify_physical(
            phys.Exchange(region, "concat", 2),
            stats,
            self._cfg(engine="det", backend="vectorized", parallelism=4),
        )

    @pytest.mark.parametrize("size", [-1, 0])
    def test_non_positive_chunk_size_rejected(self, stats, size):
        with pytest.raises(
            PlanCompatibilityError,
            match=f"Scan on 'r': chunk_size must be positive, got {size}",
        ):
            verify_physical(
                phys.Scan("r", chunk_size=size), stats, self._cfg(engine="det")
            )

    def test_skip_predicate_must_use_zone_mapped_columns(self, stats):
        from repro.db.chunks import derive_skip

        scan = phys.Scan("r", skip=derive_skip(Var("zz") > Const(0)))
        with pytest.raises(PlanReferenceError, match="zone-mapped"):
            verify_physical(scan, stats, self._cfg(engine="det"))

    def test_skip_template_must_read_a_declared_parameter(self, stats):
        from repro.db.chunks import derive_skip

        condition = Var("a") > Parameter(0)
        ok = phys.FusedSelectProject(
            phys.Scan("r", skip=derive_skip(condition)), condition, None
        )
        verify_physical(ok, stats, self._cfg(engine="det"))
        # the scan's template reads ?1, which the statement never declares
        stray = phys.FusedSelectProject(
            phys.Scan("r", skip=derive_skip(Var("a") > Parameter(1))),
            condition,
            None,
        )
        with pytest.raises(PlanReferenceError, match="does not declare"):
            verify_physical(stray, stats, self._cfg(engine="det"))

    def test_bound_plan_must_carry_no_unfilled_skip_atom(self, stats):
        from repro.db.chunks import derive_skip
        from repro.session import bind_parameters

        condition = (Var("a") >= Parameter(0)) & (Var("a") < Parameter(1))
        plan = phys.FusedSelectProject(
            phys.Scan("r", skip=derive_skip(condition)), condition, None
        )
        verify_bound(plan, {0: 1, 1: 5})  # the template plan, fully bound
        bound = bind_parameters(plan, [1, 5])
        assert str(bound.child.skip) == "a>=1 AND a<5"
        assert bound.child.skip.origin == "bound"
        assert str(plan.child.skip) == "a>=?0 AND a<?1"  # never mutated
        verify_bound(bound, {})
        # a bound condition over a scan whose template nobody filled
        stale = phys.FusedSelectProject(plan.child, bound.condition, None)
        with pytest.raises(PlanReferenceError, match="unfilled chunk-skip atom"):
            verify_bound(stale, {})

    def test_parallel_scan_chunk_size_must_match_config(self, stats):
        region = phys.FusedSelectProject(
            phys.ParallelScan("r", 2, chunk_size=16), Var("a") > Const(0), None
        )
        with pytest.raises(PlanCompatibilityError, match="align"):
            verify_physical(
                phys.Exchange(region, "concat", 2),
                stats,
                self._cfg(
                    engine="det",
                    backend="vectorized",
                    parallelism=2,
                    chunk_size=32,
                ),
            )

    def test_unresolved_cpr_budget(self, stats):
        join = phys.CompressedJoin(
            phys.Scan("r"),
            phys.Scan("s"),
            Var("a") == Var("c"),
            ("a", "c"),
            buckets=0,
        )
        with pytest.raises(PlanCompatibilityError, match="Cpr"):
            verify_physical(join, stats, self._cfg(engine="au"))

    def test_compressed_join_rejected_in_det_plan(self, stats):
        join = phys.CompressedJoin(
            phys.Scan("r"),
            phys.Scan("s"),
            Var("a") == Var("c"),
            ("a", "c"),
            buckets=4,
        )
        with pytest.raises(PlanCompatibilityError, match="deterministic"):
            verify_physical(join, stats, self._cfg(engine="det"))

    def test_au_plan_must_close_sg_combining_fragment(self, stats):
        # a HashDistinct in an AU plan means a fallback boundary is open
        with pytest.raises(PlanCompatibilityError, match="TupleFallback"):
            verify_physical(
                phys.HashDistinct(phys.Scan("r")), stats, self._cfg(engine="au")
            )

    def _agg(self, **kw):
        return phys.HashAggregate(
            phys.Scan("r"), ("a",), (agg_sum("b", "t"),), None, **kw
        )

    def test_au_hash_aggregate_carries_a_resolved_budget(self, stats):
        au, det = self._cfg(engine="au"), self._cfg(engine="det")
        for buckets in (None, 1, 64):
            verify_physical(self._agg(buckets=buckets), stats, au)
        for buckets in (0, -3, 2.5, "64"):
            with pytest.raises(PlanCompatibilityError, match="unresolved Cpr"):
                verify_physical(self._agg(buckets=buckets), stats, au)
        with pytest.raises(PlanCompatibilityError, match="AUPartialAggregate"):
            verify_physical(self._agg(partial=True), stats, au)
        verify_physical(self._agg(), stats, det)
        with pytest.raises(PlanCompatibilityError, match="deterministic plan"):
            verify_physical(self._agg(buckets=64), stats, det)

    def test_au_aggregate_exchange_finalizes_the_serial_hash_aggregate(self, stats):
        cfg = self._cfg(engine="au", parallelism=2)
        partial = phys.AUPartialAggregate(
            phys.ParallelScan("r", 2), ("a",), (agg_sum("b", "t"),)
        )
        verify_physical(
            phys.Exchange(partial, "au_aggregate", 2, final=self._agg()), stats, cfg
        )
        fallback = phys.TupleFallback(
            "topk", TopK(TableRef("r"), ["a"], False, 1), (phys.Scan("r"),)
        )
        for final in (fallback, None):
            with pytest.raises(
                PlanCompatibilityError, match="serial HashAggregate"
            ):
                verify_physical(
                    phys.Exchange(partial, "au_aggregate", 2, final=final),
                    stats,
                    cfg,
                )
        with pytest.raises(PlanCompatibilityError, match="unresolved Cpr"):
            verify_physical(
                phys.Exchange(
                    partial, "au_aggregate", 2, final=self._agg(buckets=0)
                ),
                stats,
                cfg,
            )

    def test_tuple_fallback_aggregate_is_an_unknown_kind(self, stats):
        retired = phys.TupleFallback(
            "aggregate",
            Aggregate(TableRef("r"), ["a"], [agg_sum("b", "t")]),
            (phys.Scan("r"),),
        )
        with pytest.raises(
            PlanCompatibilityError, match="unknown TupleFallback kind 'aggregate'"
        ):
            verify_physical(retired, stats, self._cfg(engine="au"))

    def test_tuple_fallback_arity_and_logical_class(self, stats):
        bad_arity = phys.TupleFallback(
            "difference", Difference(TableRef("r"), TableRef("r")), (phys.Scan("r"),)
        )
        with pytest.raises(PlanCompatibilityError, match="input"):
            verify_physical(bad_arity, stats, self._cfg(engine="au"))
        wrong_logical = phys.TupleFallback(
            "distinct", TableRef("r"), (phys.Scan("r"),)
        )
        with pytest.raises(PlanCompatibilityError, match="Distinct"):
            verify_physical(wrong_logical, stats, self._cfg(engine="au"))

    def test_join_key_side_check(self, stats):
        bad = phys.HashJoin(
            phys.Scan("r"),
            phys.Scan("s"),
            Var("a") == Var("c"),
            eq_pairs=(("c", "a"),),  # sides swapped
            pure_equi=True,
        )
        with pytest.raises(PlanReferenceError, match="left input"):
            verify_physical(bad, stats, self._cfg(engine="det"))

    def test_good_plans_verify(self, det_conn, stats):
        # every lowering shape the planner actually produces passes
        plan = parse_sql(
            "SELECT a, sum(b) AS t FROM r WHERE a > 0 GROUP BY a"
        )
        for backend, parallelism in (("tuple", 1), ("vectorized", 4)):
            config = self._cfg(
                engine="det", backend=backend, parallelism=parallelism
            )
            import repro.exec.parallel as exec_parallel

            old = exec_parallel.PARALLEL_MIN_ROWS
            exec_parallel.PARALLEL_MIN_ROWS = 0
            try:
                pplan = phys.lower(optimize(plan, stats), stats, config)
            finally:
                exec_parallel.PARALLEL_MIN_ROWS = old
            schema = verify_physical(pplan, stats, config)
            assert schema is not None and schema.names == ("a", "t")


# ======================================================================
# prepare-time wiring
# ======================================================================
class TestPrepareTimeDiagnostics:
    def test_unknown_column_in_sql(self, det_conn):
        with pytest.raises(PlanReferenceError, match="unbound variable"):
            det_conn.prepare("SELECT zzz FROM r")

    def test_unknown_table_in_sql(self, det_conn):
        with pytest.raises(KeyError, match="not found"):
            det_conn.prepare("SELECT a FROM missing")

    def test_diagnostic_is_one_line_prose(self, det_conn):
        with pytest.raises(PlanReferenceError) as exc:
            det_conn.prepare("SELECT a FROM r WHERE ghost > 1")
        message = str(exc.value)
        assert "\n" not in message
        assert not message.startswith('"')  # KeyError repr-quoting defeated

    def test_verify_knob_tristate(self, det_conn):
        assert det_conn.verify is None
        assert det_conn.verify_plans == analysis.verification_enabled()
        with analysis.verified():
            assert det_conn.verify_plans
        explicit = Connection(det_conn.db, verify=False)
        with analysis.verified():
            assert not explicit.verify_plans

    def test_verified_context_manager_restores(self):
        before = analysis.verification_enabled()
        with analysis.verified():
            assert analysis.verification_enabled()
        assert analysis.verification_enabled() == before

    def test_having_without_group_by_is_syntax_error(self):
        with pytest.raises(SqlSyntaxError, match="HAVING"):
            parse_sql("SELECT a FROM r HAVING a > 1")


# ======================================================================
# verifier over sampled fuzzer plans
# ======================================================================
class TestFuzzerCorpusSample:
    def test_sampled_seeds_verify(self):
        # a fast inline sample; CI runs the full 400-seed corpus through
        # check_case (which forces verification) in a dedicated job
        import os
        import sys

        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from test_fuzz_differential import BASE_SEED, check_case

        for offset in (0, 17, 101):
            check_case(BASE_SEED + offset)


# ======================================================================
# CLI
# ======================================================================
class TestCliVerifyFlag:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=__file__.rsplit("/tests/", 1)[0],
        )

    def test_verify_plans_flag_runs(self):
        out = self._run(
            "--verify-plans", "SELECT locale FROM locales WHERE rate > 2"
        )
        assert out.returncode == 0, out.stderr
        assert "selected-guess world" in out.stdout

    def test_prepare_error_named_column(self):
        out = self._run("SELECT ghost FROM locales")
        assert out.returncode == 0
        assert "error:" in out.stdout
        assert "ghost" in out.stdout


# ======================================================================
# mypy gate (runs only where mypy is installed — the CI job)
# ======================================================================
def test_mypy_strict_on_analysis_modules():
    pytest.importorskip("mypy")
    root = __file__.rsplit("/tests/", 1)[0]
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "mypy.ini"],
        capture_output=True,
        text=True,
        cwd=root,
    )
    assert result.returncode == 0, result.stdout + result.stderr

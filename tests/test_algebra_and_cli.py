"""Tests for the plan AST helpers, evaluator edges, and the demo CLI."""

import pytest

from repro.algebra.ast import (
    Aggregate,
    Join,
    Limit,
    OrderBy,
    Plan,
    Projection,
    Selection,
    TableRef,
    Union,
)
from repro.algebra.evaluator import EvalConfig, evaluate_audb
from repro.core.aggregation import agg_count, agg_sum
from repro.core.expressions import Const, RowView, Var
from repro.core.relation import AUDatabase, AURelation


class TestFluentBuilders:
    def test_chaining(self):
        plan = (
            TableRef("r")
            .where(Var("a") > Const(1))
            .select("a", (Var("a") * Const(2), "double"))
            .distinct()
            .order_by(["a"])
            .limit(10)
        )
        assert isinstance(plan, Limit)
        assert isinstance(plan.child, OrderBy)

    def test_walk_and_table_names(self):
        plan = TableRef("r").join(TableRef("s"), Var("a") == Var("b")).union(
            TableRef("t")
        )
        assert sorted(plan.table_names()) == ["r", "s", "t"]
        assert len(list(plan.walk())) == 5

    def test_grouped_and_aggregate(self):
        g = TableRef("r").grouped(["a"], [agg_sum("b", "s")])
        assert isinstance(g, Aggregate)
        assert g.group_by == ("a",)
        a = TableRef("r").aggregate(agg_count("n"))
        assert a.group_by == ()

    def test_repr_smoke(self):
        plan = TableRef("r").where(Var("a") > Const(1)).minus(TableRef("s"))
        text = repr(plan)
        assert "σ" in text and "−" in text


class TestEvaluatorEdges:
    @pytest.fixture
    def db(self):
        rel = AURelation.from_certain_rows(["a"], [[3], [1], [2]])
        return AUDatabase({"r": rel})

    def test_order_by_is_noop(self, db):
        plan = TableRef("r").order_by(["a"], descending=True)
        out = evaluate_audb(plan, db)
        assert len(out) == 3

    def test_limit_keeps_everything_soundly(self, db):
        plan = TableRef("r").limit(1)
        out = evaluate_audb(plan, db)
        assert len(out) == 3  # LIMIT over uncertain data cannot drop tuples

    def test_unsupported_node(self, db):
        class Strange(Plan):
            pass

        with pytest.raises(TypeError):
            evaluate_audb(Strange(), db)

    def test_config_is_frozen(self):
        cfg = EvalConfig(join_buckets=4)
        with pytest.raises(Exception):
            cfg.join_buckets = 8


class TestRowView:
    def test_lookup(self):
        index = RowView.index_of(["a", "b"])
        view = RowView(index, (10, 20))
        assert view["a"] == 10
        assert view["b"] == 20
        assert "a" in view and "z" not in view
        assert view.get("z", 99) == 99
        assert set(view.keys()) == {"a", "b"}

    def test_missing_key_raises(self):
        view = RowView({"a": 0}, (1,))
        with pytest.raises(KeyError):
            view["zzz"]


class TestCli:
    def test_single_query(self, capsys):
        from repro.__main__ import main

        code = main(["SELECT size, avg(rate) AS rate FROM locales GROUP BY size"])
        assert code == 0
        out = capsys.readouterr().out
        assert "selected-guess world" in out
        assert "AU-DB" in out
        assert "metro" in out

    def test_syntax_error_reported(self, capsys):
        from repro.__main__ import main

        assert main(["SELECT FROM"]) == 0
        assert "syntax error" in capsys.readouterr().out

    def test_unknown_table_reported(self, capsys):
        from repro.__main__ import main

        assert main(["SELECT a FROM missing"]) == 0
        assert "error" in capsys.readouterr().out

    def test_explain_flag_prints_plan(self, capsys):
        from repro.__main__ import main

        code = main(["--explain", "SELECT locale FROM locales WHERE rate > 5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "-- logical plan --" in out
        assert "Table locales" in out
        assert "rows" in out
        # the lowered physical plan is printed too, with actual rows, on
        # the default backend
        assert "-- physical plan (Det, backend=vectorized) --" in out
        assert "Scan locales" in out
        assert "actual" in out

        code = main(
            [
                "--explain",
                "--backend=tuple",
                "SELECT locale FROM locales WHERE rate > 5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "-- physical plan (Det, backend=tuple) --" in out
        assert "Scan locales" in out

    def test_explain_vectorized_parallel(self, capsys):
        from repro.__main__ import main

        code = main(
            [
                "--explain",
                "--backend=vectorized",
                "--parallelism",
                "4",
                "SELECT size, count(*) AS n FROM locales GROUP BY size",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # adaptive morsel sizing: the tiny demo table needs only the
        # minimum 2 partitions at parallelism 4
        assert "Exchange merge=aggregate [2 partitions]" in out
        assert "HashAggregate" in out and "(partial)" in out
        assert "ParallelScan locales [2 morsels]" in out

    def test_no_optimize_flag_matches_optimized_results(self, capsys):
        from repro.__main__ import main

        main(["SELECT locale FROM locales WHERE rate > 5"])
        optimized = capsys.readouterr().out
        main(["--no-optimize", "SELECT locale FROM locales WHERE rate > 5"])
        plain = capsys.readouterr().out
        assert optimized == plain

    def test_join_order_flag_matches_default_results(self, capsys):
        from repro.__main__ import main

        sql = "SELECT locale FROM locales WHERE rate > 5"
        main([sql])
        default = capsys.readouterr().out
        main(["--join-order", "greedy", sql])
        greedy = capsys.readouterr().out
        assert default == greedy

    def test_explain_reports_estimated_vs_actual_rows(self, capsys):
        from repro.__main__ import main

        code = main(["--explain", "SELECT locale FROM locales WHERE rate > 5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "estimated vs actual" in out
        assert "actual" in out
        assert "~" in out

    def test_explain_warns_about_unknown_tables(self, capsys):
        from repro.__main__ import main

        assert main(["--explain", "SELECT a FROM missing"]) == 0
        out = capsys.readouterr().out
        assert "no statistics for table 'missing'" in out
        assert "error" in out  # evaluation still fails afterwards

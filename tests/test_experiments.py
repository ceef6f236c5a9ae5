"""Smoke tests: every experiment harness runs at tiny sizes and produces
sane rows (the full-size runs live in benchmarks/ and EXPERIMENTS.md).

The harnesses run on the default (vectorized) backend; the ``twin``
fixture makes every engine call a figure or baseline makes evaluate the
same plan, database and config on the tuple backend too and asserts the
same relation — same rows, same order, same cell ``repr`` — so the
paper's figures are computed by the engine that is benchmarked and
still equal the tuple-at-a-time reference.  Figs. 14 and 15 call the
:mod:`repro.core` operators directly and run no engine.
"""

import math
from dataclasses import replace

import pytest

from repro.algebra import evaluator
from repro.baselines import mcdb, uadb
from repro.db import engine
from repro.experiments import (
    fig10_pdbench,
    fig11_agg_chain,
    fig12_tpch,
    fig13_micro,
    fig14_join_opt,
    fig15_agg_accuracy,
    fig16_multijoin,
    fig17_realworld,
    groundtruth,
)
from repro.experiments.common import format_table, time_call
from repro.session import Connection

#: every module whose engine calls the figures reach; ``groundtruth``
#: enumerates alternatives itself today, and is listed so that an engine
#: call it grows is twinned too
TWINNED = (
    fig10_pdbench,
    fig11_agg_chain,
    fig12_tpch,
    fig13_micro,
    fig16_multijoin,
    fig17_realworld,
    mcdb,
    uadb,
    groundtruth,
)


def _same(got, want, engine_name):
    assert got.schema == want.schema, engine_name
    assert repr(list(got.tuples())) == repr(list(want.tuples())), engine_name


@pytest.fixture
def twin(monkeypatch):
    """Shim ``evaluate_det`` / ``evaluate_audb`` / ``Connection`` in every
    :data:`TWINNED` module with a version that also runs on the tuple
    backend and compares; yields the per-engine count of twinned calls."""
    calls = {"det": 0, "au": 0}

    def evaluate_det(plan, db, **kwargs):
        got = engine.evaluate_det(plan, db, **kwargs)
        want = engine.evaluate_det(plan, db, **{**kwargs, "backend": "tuple"})
        _same(got, want, "det")
        calls["det"] += 1
        return got

    def evaluate_audb(plan, db, config=evaluator.DEFAULT_CONFIG, **kwargs):
        got = evaluator.evaluate_audb(plan, db, config, **kwargs)
        want = evaluator.evaluate_audb(
            plan, db, replace(config, backend="tuple"), **kwargs
        )
        _same(got, want, "au")
        calls["au"] += 1
        return got

    class TwinConnection(Connection):
        def execute(self, query, *args, **kwargs):
            got = super().execute(query, *args, **kwargs)
            config = replace(self.config, backend="tuple")
            with Connection(self.db, engine=self.engine, config=config) as ref:
                _same(got, ref.execute(query, *args, **kwargs), self.engine)
            calls[self.engine] += 1
            return got

    shims = {
        "evaluate_det": evaluate_det,
        "evaluate_audb": evaluate_audb,
        "Connection": TwinConnection,
    }
    for module in TWINNED:
        for name, shim in shims.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, shim)
    yield calls


class TestCommon:
    def test_time_call(self):
        seconds, result = time_call(lambda: 42, repeat=2)
        assert result == 42
        assert seconds >= 0

    def test_format_table(self):
        text = format_table([{"a": 1, "b": 0.5}, {"a": 2, "b": 1e-6}])
        assert "a" in text and "---" in text

    def test_format_empty(self):
        assert format_table([]) == "(no rows)"


class TestFig10:
    def test_uncertainty_sweep(self, twin):
        rows = fig10_pdbench.run_uncertainty_sweep(
            scale=0.05, uncertainties=(0.05,)
        )
        systems = {r["system"] for r in rows}
        assert systems == set(fig10_pdbench.SYSTEMS)
        det = next(r for r in rows if r["system"] == "Det")
        assert det["ratio_vs_det"] > 0  # timing noise dominates at tiny scale
        assert twin["det"] and twin["au"]

    def test_scale_sweep(self, twin):
        rows = fig10_pdbench.run_scale_sweep(scales=(0.05,), uncertainty=0.05)
        assert all(r["seconds"] >= 0 for r in rows)
        assert twin["det"] and twin["au"]


class TestFig11:
    def test_chain(self, twin):
        rows = fig11_agg_chain.run(n_rows=120, ops_range=(1, 2))
        assert len(rows) == 2
        assert all(r["AU-DB"] > 0 and r["Det"] > 0 for r in rows)
        assert twin["det"] and twin["au"]

    def test_chain_plan_validation(self):
        with pytest.raises(ValueError):
            fig11_agg_chain.make_chain_plan(0)
        with pytest.raises(ValueError):
            fig11_agg_chain.make_chain_plan(99)


class TestFig12:
    def test_single_config(self, twin):
        from repro.tpch.queries import q1

        rows = fig12_tpch.run(
            configs=[("test", 0.05, 0.05)], queries={"Q1": q1()}
        )
        assert len(rows) == 1
        assert rows[0]["AU-DB/Det"] > 0
        assert twin["det"] and twin["au"]


class TestFig13:
    def test_group_by_sweep(self, twin):
        rows = fig13_micro.run_group_by_sweep(
            n_rows=150, n_cols=6, group_counts=(1, 3)
        )
        assert [r["group_by_attrs"] for r in rows] == [1, 3]
        assert twin["det"] and twin["au"]

    def test_agg_function_sweep(self, twin):
        rows = fig13_micro.run_agg_function_sweep(
            n_rows=150, n_cols=6, agg_counts=(1, 3)
        )
        assert len(rows) == 2
        assert twin["det"] and twin["au"]

    def test_attribute_range_sweep(self, twin):
        rows = fig13_micro.run_attribute_range_sweep(
            n_rows=150, range_fractions=(0.5,), cts=(4,)
        )
        assert len(rows) == 1
        assert twin["au"]

    def test_compression_tradeoff_monotone_accuracy(self, twin):
        rows = fig13_micro.run_compression_tradeoff(n_rows=300, cts=(2, 64))
        # more buckets -> no looser mean range
        assert rows[-1]["mean_range"] <= rows[0]["mean_range"] + 1e-9
        assert twin["au"]


class TestFig14:
    def test_run(self):
        rows = fig14_join_opt.run(sizes=(80,), cts=(None, 4))
        variants = {r["variant"] for r in rows}
        assert variants == {"Non-Op", "CT=4"}
        ct4 = next(r for r in rows if r["variant"] == "CT=4")
        assert ct4["result_tuples"] > 0


class TestFig15:
    def test_run(self):
        rows = fig15_agg_accuracy.run(
            n_rows=150, uncertainties=(0.05,), range_fractions=(0.05,)
        )
        assert len(rows) == 1
        assert rows[0]["range_overestimation"] >= 1.0
        assert rows[0]["over_grouping_pct"] >= 0.0


class TestFig16:
    def test_run(self, twin):
        rows = fig16_multijoin.run(
            n_rows=60, join_counts=(1, 2), cts=(4, None), uncertainties=(0.05,)
        )
        assert len(rows) == 4  # 2 compression settings x 2 chain lengths
        assert all(r["result_tuples"] >= 0 for r in rows)
        assert twin["au"]


class TestFig17:
    def test_run_small(self, twin):
        rows = fig17_realworld.run(
            sizes={"netflix": 250, "crimes": 300, "healthcare": 250}
        )
        systems = {r["system"] for r in rows}
        assert systems == {"AU-DB", "Trio", "MCDB", "UA-DB"}
        audb_rows = [r for r in rows if r["system"] == "AU-DB"]
        # AU-DB never misses possible answers and never misses certain ones
        for r in audb_rows:
            assert r["pos_by_id"] == 1.0
            assert r["pos_by_val"] == 1.0
            assert r["cert_recall"] == 1.0
        assert twin["det"] and twin["au"]

    def test_groundtruth_helpers(self):
        from repro.experiments.groundtruth import (
            exact_count_bounds,
            exact_minmax_bounds,
            exact_sum_bounds,
        )
        from repro.incomplete.xdb import XRelation

        xrel = XRelation(["g", "v"])
        xrel.add_certain(("a", 3))
        xrel.add([("a", 1), ("b", 2)])
        sums = exact_sum_bounds(xrel, [0], lambda alt: alt[1])
        assert sums[("a",)] == (3.0, 4.0)
        assert sums[("b",)] == (0.0, 2.0)
        counts = exact_count_bounds(xrel, [0])
        assert counts[("a",)] == (1, 2)
        maxes = exact_minmax_bounds(xrel, [0], lambda alt: alt[1], "max")
        assert maxes[("a",)] == (3, 3)

    def test_spj_ground_truth(self):
        from repro.experiments.groundtruth import (
            spj_certain_tuples,
            spj_possible_tuples,
        )
        from repro.incomplete.xdb import XRelation

        xrel = XRelation(["k", "v"])
        xrel.add_certain(("a", 10))
        xrel.add([("b", 5), ("b", 20)])
        pred = lambda row: row["v"] >= 10
        possible = spj_possible_tuples(xrel, pred, [0, 1])
        certain = spj_certain_tuples(xrel, pred, [0, 1])
        assert possible == {("a", 10), ("b", 20)}
        assert certain == {("a", 10)}

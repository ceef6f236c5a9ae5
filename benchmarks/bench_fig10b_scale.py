"""Figure 10b: PDBench SPJ queries, varying database scale at 2%.

Also hosts the scale point past the vectorized backend's batch
materialization budget: at ``BUDGET_SCALE`` the ``lineitem`` base
relation exceeds ``MATERIALIZATION_CAP`` rows, so producing its
whole-table columnar image (an unfiltered scan of a single-chunk
store, ``chunk_size`` = table rows) is refused while the paged chunked
layout streams a selective query page-by-page and completes
(``test_streaming_completes_where_materialization_cannot``).
"""

import pytest

from repro.algebra.ast import Selection, TableRef
from repro.algebra.evaluator import EvalConfig, evaluate_audb
from repro.core.expressions import Const, Gt, Var
from repro.core.relation import AUDatabase
from repro.db.engine import evaluate_det
from repro.exec.batch import MaterializationBudgetError, materialization_budget
from repro.tpch.pdbench import make_pdbench
from repro.tpch.queries import pdbench_spj_queries

QUERIES = pdbench_spj_queries()
AUDB_CONFIG = EvalConfig(join_buckets=32, aggregation_buckets=32)
SCALES = [0.1, 0.3, 1.0]

#: the scale point past the capped batch-materialization budget: its
#: ``lineitem`` (~12k rows) cannot be materialized whole under the cap
BUDGET_SCALE = 2.0
MATERIALIZATION_CAP = 4096


@pytest.fixture(scope="module", params=SCALES, ids=lambda s: f"scale{s}")
def instance(request):
    return make_pdbench(scale=request.param, uncertainty=0.02)


def test_det(benchmark, instance):
    world = instance.selected_world()
    benchmark(lambda: [evaluate_det(q, world) for q in QUERIES.values()])


def test_audb(benchmark, instance):
    audb = AUDatabase(instance.audb().relations)
    benchmark(
        lambda: [evaluate_audb(q, audb, AUDB_CONFIG) for q in QUERIES.values()]
    )


def test_streaming_completes_where_materialization_cannot(benchmark):
    """At ``BUDGET_SCALE`` a selective ``lineitem`` scan streams
    page-by-page under a materialization budget the whole-table
    columnar image cannot fit, with identical results."""
    world = make_pdbench(scale=BUDGET_SCALE, uncertainty=0.02).selected_world()
    lineitem = world["lineitem"]
    assert len(lineitem.rows) > MATERIALIZATION_CAP
    cut = int(max(row[0] for row in lineitem.rows) * 0.9)
    plan = Selection(TableRef("lineitem"), Gt(Var("l_orderkey"), Const(cut)))
    want = evaluate_det(plan, world, backend="tuple")  # budget-free oracle

    with materialization_budget(MATERIALIZATION_CAP):
        with pytest.raises(MaterializationBudgetError):
            evaluate_det(
                TableRef("lineitem"),
                world,
                backend="vectorized",
                chunk_size=len(lineitem.rows),
            )
        got = evaluate_det(plan, world, backend="vectorized")
        assert got.rows == want.rows

    def streamed():
        with materialization_budget(MATERIALIZATION_CAP):
            return evaluate_det(plan, world, backend="vectorized")

    benchmark(streamed)

"""Morsel-parallel vectorized execution vs serial — det AND AU engines.

A TPC-H-style join + aggregate (the Fig. 12 shape) big enough that the
physical planner's parallel region pays for its workers: the fact table
(``lineitem``) is the probe-side driver, so ``lower(..., parallelism=4)``
produces (det shown; the AU plan swaps the partial aggregate for
``AUPartialAggregate`` and the merge for ``au_aggregate``)::

    Exchange merge=aggregate [4 partitions]
      HashAggregate ... (partial)
        FusedSelectProject ...
          HashJoin ...
            ParallelScan lineitem [4 morsels]
            Scan orders              <- build side, evaluated once

The deterministic lane executes through the ``evaluate_det`` shim: one
ephemeral connection per call, so every call forks its own worker pool
and reaps it on return — the fork cost is inside the timed region.  The
AU lane holds a long-lived :class:`repro.session.Connection` and a
``PreparedQuery``, so repeated executions reuse the session's
**persistent worker pool**: the gate checks the
``repro_parallel_pool_*`` counters to prove the timed runs re-dispatch
to already-forked workers instead of forking per query.

**Gates** (CI): on a machine with >= 4 CPU cores the parallel run must
beat serial by >= 1.5x on *both* engines.  On fewer cores real speedup
is physically unavailable, so the documented fallback gate is
*non-regression*: parallel execution may pay fork/IPC overhead but must
stay within 2x of serial (speedup >= 0.5x).  The detected core count
and which gate applied are recorded in the printed output **and** in
the machine-readable ``BENCH_parallel.json`` artifact — a downgraded
gate is always visible, never silent.

Results must be identical at every parallelism — bit-for-bit, floats
included (exact Shewchuk summation makes every merge order-independent).
The identity section checks parallelism {1, 2, 4} on both AU executors
(tuple interpreter and vectorized runtime) against each other on a
scaled-down instance with the region-size threshold pinned to zero.

Run standalone for the CI gate::

    PYTHONPATH=src python benchmarks/bench_parallel.py

or under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel.py
"""

import os
import random

import pytest

from repro.algebra.ast import Aggregate, Join, Selection, TableRef
from repro.algebra.evaluator import EvalConfig, evaluate_audb
from repro.core.aggregation import agg_avg, agg_count, agg_sum
from repro.core.expressions import Const, Eq, Gt, Leq, Var
from repro.core.ranges import between
from repro.core.relation import AUDatabase, AURelation
from repro.db.engine import evaluate_det
from repro.db.storage import DetDatabase, DetRelation
from repro.session import connect

N_ORDERS = 20_000
FANOUT = 20  # 400k lineitem rows: enough work to amortize the fork
PARALLELISM = 4

#: AU instance: smaller (range arithmetic is heavier per row), ~5% of
#: measure values uncertain, join keys and the group-by column certain
#: so the partial aggregation stays partitionable
N_ORDERS_AU = 2_000
FANOUT_AU = 15
AU_UNCERTAINTY = 0.05
#: scaled-down instance for the cross-parallelism identity check (the
#: tuple AU interpreter participates, so it must stay small)
N_ORDERS_IDENT = 150

#: speedup gate with >= 4 cores; non-regression bound below that
PARALLEL_GATE = 1.5
FALLBACK_GATE = 0.5

_POOL_COUNTERS = (
    "repro_parallel_pool_forks_total",
    "repro_parallel_pool_reuses_total",
    "repro_parallel_pool_invalidations_total",
    "repro_parallel_tasks_total",
)


def det_db(n_orders: int = N_ORDERS, seed: int = 1) -> DetDatabase:
    rng = random.Random(seed)
    orders = DetRelation(
        ["o_id", "o_status"],
        [(i, rng.choice("OFP")) for i in range(n_orders)],
    )
    lineitem = DetRelation(
        ["l_orderkey", "l_qty", "l_price"],
        [
            (rng.randrange(n_orders), rng.randint(1, 50), rng.randint(100, 1000))
            for _ in range(n_orders * FANOUT)
        ],
    )
    return DetDatabase({"lineitem": lineitem, "orders": orders})


def au_db(
    n_orders: int = N_ORDERS_AU, fanout: int = FANOUT_AU, seed: int = 7
) -> AUDatabase:
    rng = random.Random(seed)
    orders = AURelation(["o_id", "o_status"])
    for i in range(n_orders):
        orders.add([i, rng.choice("OFP")], (1, 1, 1))
    lineitem = AURelation(["l_orderkey", "l_qty", "l_price"])
    for _ in range(n_orders * fanout):
        qty = rng.randint(1, 50)
        price = rng.randint(100, 1000)
        if rng.random() < AU_UNCERTAINTY:
            qty = between(max(1, qty - 2), qty, qty + 2)
        if rng.random() < AU_UNCERTAINTY:
            price = between(price - 50, price, price + 50)
        ann = (1, 1, 2) if rng.random() < AU_UNCERTAINTY else (1, 1, 1)
        lineitem.add([rng.randrange(n_orders), qty, price], ann)
    return AUDatabase({"orders": orders, "lineitem": lineitem})


def join_agg_plan():
    """``SELECT o_status, sum(l_price), count(*), avg(l_qty) FROM
    lineitem JOIN orders ON l_orderkey = o_id WHERE l_qty > 10 AND
    l_price <= 900 GROUP BY o_status`` — lineitem written on the left so
    it is the probe-side parallel driver."""
    joined = Join(
        TableRef("lineitem"),
        TableRef("orders"),
        Eq(Var("l_orderkey"), Var("o_id")),
    )
    filtered = Selection(
        joined, Gt(Var("l_qty"), Const(10)) & Leq(Var("l_price"), Const(900))
    )
    return Aggregate(
        filtered,
        ["o_status"],
        [agg_sum("l_price", "rev"), agg_count("n"), agg_avg("l_qty", "avg_qty")],
    )


def au_fingerprint(rel: AURelation):
    """Float-exact value identity: ``repr`` round-trips doubles, so two
    fingerprints match iff every bound/guess/annotation is bit-equal."""
    return sorted(
        (tuple(repr(v) for v in t), tuple(ann)) for t, ann in rel.tuples()
    )


def _pool_counter_values() -> dict:
    from repro import telemetry

    registry = telemetry.get_registry()
    return {name: registry.counter(name).value for name in _POOL_COUNTERS}


@pytest.fixture(scope="module")
def det():
    return det_db()


@pytest.fixture(scope="module")
def audb():
    return au_db()


@pytest.mark.parametrize("parallelism", [1, PARALLELISM])
def test_parallel_join_aggregate(benchmark, det, parallelism):
    plan = join_agg_plan()
    evaluate_det(plan, det, backend="vectorized", parallelism=parallelism)
    benchmark(
        lambda: evaluate_det(
            plan, det, backend="vectorized", parallelism=parallelism
        )
    )


@pytest.mark.parametrize("parallelism", [1, PARALLELISM])
def test_parallel_au_join_aggregate(benchmark, audb, parallelism):
    conn = connect(
        audb,
        engine="au",
        config=EvalConfig(backend="vectorized", parallelism=parallelism),
    )
    prepared = conn.prepare(join_agg_plan())
    prepared.execute(actuals={})
    benchmark(lambda: prepared.execute(actuals={}))
    conn.close()


def _gate_for(cores: int):
    if cores >= PARALLELISM:
        return PARALLEL_GATE, f">= {PARALLEL_GATE:.1f}x speedup ({cores} cores)"
    return FALLBACK_GATE, (
        f"non-regression fallback >= {FALLBACK_GATE:.1f}x ({cores} core(s) "
        f"< {PARALLELISM}: no real speedup available)"
    )


def _det_section(failures, gate, mode):
    from repro.experiments.common import time_call

    db = det_db()
    plan = join_agg_plan()

    def run(parallelism: int):
        return evaluate_det(
            plan, db, backend="vectorized", parallelism=parallelism
        )

    run(1), run(PARALLELISM)  # warm scan caches and compiled predicates
    t_serial, r_serial = time_call(lambda: run(1), repeat=3)
    t_parallel, r_parallel = time_call(lambda: run(PARALLELISM), repeat=3)
    speedup = t_serial / t_parallel if t_parallel > 0 else float("inf")
    if r_parallel.rows != r_serial.rows:
        failures.append("det: parallel result differs from serial")
    if speedup < gate:
        failures.append(
            f"det: speedup {speedup:.2f}x below the gate ({mode})"
        )
    return {
        "serial_s": round(t_serial, 6),
        "parallel_s": round(t_parallel, 6),
        "speedup": round(speedup, 4),
        "groups": len(r_parallel),
    }


def _au_section(failures, gate, mode):
    """AU gate over a persistent session: times the prepared-query path
    (``actuals={}`` bypasses the result memo so the executor really
    runs) and checks the pool counters for amortization — after the
    warm-up fork, the timed repeats must reuse workers, not fork."""
    from repro.experiments.common import time_call

    db = au_db()
    plan = join_agg_plan()
    conn = connect(
        db,
        engine="au",
        config=EvalConfig(backend="vectorized", parallelism=PARALLELISM),
    )
    par = conn.prepare(plan)
    ser = conn.prepare(plan, EvalConfig(backend="vectorized", parallelism=1))
    r_serial = ser.execute(actuals={})
    r_parallel = par.execute(actuals={})  # warm-up: forks the pool once
    before = _pool_counter_values()
    t_serial, r_serial = time_call(lambda: ser.execute(actuals={}), repeat=3)
    t_parallel, r_parallel = time_call(
        lambda: par.execute(actuals={}), repeat=3
    )
    after = _pool_counter_values()
    pool = {k: after[k] - before[k] for k in _POOL_COUNTERS}
    conn.close()

    speedup = t_serial / t_parallel if t_parallel > 0 else float("inf")
    if au_fingerprint(r_parallel) != au_fingerprint(r_serial):
        failures.append("au: parallel result differs from serial")
    if speedup < gate:
        failures.append(f"au: speedup {speedup:.2f}x below the gate ({mode})")
    if hasattr(os, "fork"):
        if pool["repro_parallel_pool_forks_total"] != 0:
            failures.append(
                "au: timed repeats forked the pool "
                f"({pool['repro_parallel_pool_forks_total']} forks after warm-up)"
            )
        if pool["repro_parallel_pool_reuses_total"] < 3:
            failures.append(
                "au: persistent pool not reused across repeated executions "
                f"({pool['repro_parallel_pool_reuses_total']} reuses)"
            )
    return {
        "serial_s": round(t_serial, 6),
        "parallel_s": round(t_parallel, 6),
        "speedup": round(speedup, 4),
        "groups": len(r_parallel),
        "pool_counters_during_timing": pool,
    }


def _identity_section(failures):
    """Bit-identity across parallelism {1, 2, 4} on both AU executors.

    Runs on a scaled-down instance with ``PARALLEL_MIN_ROWS`` pinned to
    0 so the parallel region engages even at this size; the tuple
    interpreter ignores the parallelism knob by construction, which is
    exactly the claim being certified (any setting ≡ serial)."""
    import repro.exec.parallel as par

    db = au_db(N_ORDERS_IDENT, 8, seed=13)
    plan = join_agg_plan()
    saved = par.PARALLEL_MIN_ROWS
    par.PARALLEL_MIN_ROWS = 0
    try:
        prints = {}
        for backend in ("tuple", "vectorized"):
            for parallelism in (1, 2, 4):
                result = evaluate_audb(
                    plan,
                    db,
                    EvalConfig(backend=backend, parallelism=parallelism),
                )
                prints[(backend, parallelism)] = au_fingerprint(result)
    finally:
        par.PARALLEL_MIN_ROWS = saved
    reference = prints[("vectorized", 1)]
    identical = all(fp == reference for fp in prints.values())
    if not identical:
        bad = sorted(k for k, fp in prints.items() if fp != reference)
        failures.append(
            f"au: results not bit-identical across executors/parallelism: {bad}"
        )
    return {
        "executors": ["tuple", "vectorized"],
        "parallelism": [1, 2, 4],
        "rows": len(reference),
        "identical": identical,
    }


def main() -> int:
    from _results import write_result

    cores = os.cpu_count() or 1
    gate, mode = _gate_for(cores)
    failures = []

    det = _det_section(failures, gate, mode)
    au = _au_section(failures, gate, mode)
    identity = _identity_section(failures)

    print(
        f"morsel-parallel join+aggregate, parallelism {PARALLELISM}, "
        f"{cores} core(s) detected, gate: {mode}"
    )
    print(
        f"{'engine':<6} {'serial[s]':>10} {'parallel[s]':>12} "
        f"{'speedup':>9} {'groups':>7}"
    )
    for engine, row in (("det", det), ("au", au)):
        print(
            f"{engine:<6} {row['serial_s']:>10.4f} {row['parallel_s']:>12.4f} "
            f"{row['speedup']:>8.2f}x {row['groups']:>7}"
        )
    pool = au["pool_counters_during_timing"]
    print(
        "au pool during timing: "
        f"{pool['repro_parallel_pool_forks_total']} forks, "
        f"{pool['repro_parallel_pool_reuses_total']} reuses, "
        f"{pool['repro_parallel_tasks_total']} tasks"
    )
    print(
        f"identity {{tuple,vectorized}} x parallelism {{1,2,4}}: "
        f"{'ok' if identity['identical'] else 'MISMATCH'} "
        f"({identity['rows']} rows)"
    )
    for failure in failures:
        print(f"FAIL: {failure}")

    path = write_result(
        "parallel",
        {
            "benchmark": "parallel",
            "cores_detected": cores,
            "parallelism": PARALLELISM,
            "gate": gate,
            "gate_mode": mode,
            "det": det,
            "au": au,
            "identity": identity,
            "failures": failures,
        },
    )
    print(f"results: {path}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

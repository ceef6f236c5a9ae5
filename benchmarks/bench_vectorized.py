"""Vectorized columnar backend vs the tuple-at-a-time interpreter.

A TPC-H-style join + aggregate at a small scale factor — the Fig. 12
query shape (orders ⋈ lineitem, selective filter, group-by with
SUM/COUNT/AVG) that dominates every Fig. 10–17 workload's runtime:

* **Det engine gate (≥3x)**: the vectorized backend (fused compiled
  predicates, hash join with column gathers, single-pass hash
  aggregation) must beat the tuple interpreter by at least 3x on the
  same optimized plan.  Measured ~4x at this scale.
* **AU engine gate (non-regression)**: the AU pipeline does more work
  per row than the det one (three bounds, SG-combining aggregation), so
  the win is smaller; the gate only requires it never to lose.
* **AU filter kernel gate (≥5x)**: a selective range filter over a
  10k-row AU table, the compiled range kernel
  (:func:`repro.exec.compile.compile_range_filter`) against the same
  commit with the kernel refused, i.e. ``eval_range`` interpreted per
  row.  Measured ~25x.
* **Compressed join gate (≥2x)**: orders ⋈ lineitem at ``join_buckets=64``
  on the AU database — the vectorized backend's columnar Section 10.4
  join (:mod:`repro.exec.compressed_join`) against the tuple backend's
  ``core.compression.optimized_join``, identical relations.
* **AU aggregate gate (≥2x on the q1 shape)**: the Section 10.5
  aggregate at ``aggregation_buckets=64`` — the vectorized backend's
  columnar operator (:mod:`repro.exec.au_aggregate`) against the tuple
  backend's ``core.aggregation.aggregate``, identical relations, on a
  q1-shaped input (six groups, 2 % of the rows with an uncertain group
  key, five aggregates) and, reported only, a q3-shaped one (every row a
  possible box ``(0, 0, n)`` with an uncertain key, one group per row)
  and a view-shaped one: ``COUNT`` and ``SUM`` over three groups, 1 % of
  the group keys uncertain over all three, no bucket budget — every row
  contributes to every group (the ``GROUP BY o_orderstatus`` view of the
  e2e ``mixed_rw_views`` workload).  For the view shape the AU ÷ det
  ratio on the same selected-guess data is reported too.
* **AU ÷ det cost ratio (reported, no gate)**: the join + aggregate at
  ``join_buckets=64`` on the AU engine over the same plan on the det
  engine over the selected-guess world, both vectorized, same commit —
  the paper's headline ("bounds at near-deterministic cost") as a number.
  A faster det engine raises it.
* **Det floors (reported, no gate)**: ns per row of the compiled
  two-conjunct det filter kernel over the lineitem columns, and ns per
  probe row of the key–FK hash join ``lineitem ⋈ orders`` (unique build
  keys, every probe row hits: the ``map`` probe with the probe side
  passed through).
* **Key–FK join AU ÷ det (≤30x at 2 % uncertain probe keys; 0 %
  reported)**: the same hash join on the AU engine, no ``Cpr``, over AU
  data whose selected-guess world is the det data, against the det
  floor's join: at 0 % uncertainty (every key certain, so the AU join
  runs the det join table) and with 2 % of the probe keys uncertain
  (those rows take the interval path's overlap index; a probe of every
  certain build row per uncertain probe row costs ≈ 200x).  Reported
  beside them: every probe key certain and one order key widened to span
  every order key, so each probe row also pairs with that build row
  through an index of the certain probe rows' keys.
* **Filter AU ÷ det (reported, no gate)**: ns per row of the streamed
  select over a scan of lineitem on the AU engine against the same
  operator on the det engine, over AU data whose selected-guess world
  is the det data: the two-conjunct filter at 0 % and 2 % uncertain
  ``l_qty`` / ``l_price`` cells (ROADMAP item 3's filter row) and a key
  ``=`` lookup on ``l_orderkey``.  A row whose cells are all points
  takes the AU kernel's point lane: one test of the condition on the SG
  values.
* **RangeValue construction (reported, no gate)**: ns per
  construction of a point ``[3/3/3]`` and of a range ``[1/2/3]``; every
  operator that builds cells (a box, an SG collapse, an arithmetic
  result) pays it per cell.
* **Top-k (reported, no gate)**: ``ORDER BY o_totalprice DESC LIMIT 10``
  over 7 500 orders as a ``TopK`` over a scan, on the det engine (beside
  the engine's plain two-sort ``take`` over the same merged rows, the
  cost before the candidate rule) and on the AU engine over the same
  rows, every cell certain (the certain-key path).  Both run
  :func:`repro.db.engine.topk_candidates` before their sort.

Both backends must return identical results (integer measures, so even
SUM/AVG are bit-exact).

Run standalone for the CI gate::

    PYTHONPATH=src python benchmarks/bench_vectorized.py

or under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_vectorized.py
"""

import random
from contextlib import nullcontext
from unittest import mock

import pytest

from repro.algebra.ast import Aggregate, Join, Selection, TableRef
from repro.algebra.evaluator import EvalConfig, evaluate_audb
from repro.core.aggregation import agg_avg, agg_count, agg_sum
from repro.core.expressions import Const, Eq, Geq, Gt, Leq, Lt, Mul, Sub, Var
from repro.core.ranges import between
from repro.core.relation import AUDatabase, AURelation
from repro.db.engine import evaluate_det
from repro.db.storage import DetDatabase, DetRelation
from repro.exec import physical as phys
from repro.exec import vectorized
from repro.exec.batch import ColumnBatch
from repro.exec.compile import CompileError, compile_filter

N_ORDERS = 2000
FANOUT = 4
N_ORDERS_AU = 400
UNCERTAINTY = 0.05

N_FILTER_ROWS = 10_000

DET_GATE = 3.0
#: AU non-regression gate, with headroom for timer noise
AU_GATE = 0.8
#: compiled vs interpreted AU selection, same commit
AU_FILTER_GATE = 5.0
#: columnar vs tuple-backend Section 10.4 join at CT = 64
COMPRESSED_JOIN_GATE = 2.0
JOIN_BUCKETS = 64
#: columnar vs tuple-backend Section 10.5 aggregate at CT = 64, q1 shape
AU_AGGREGATE_GATE = 2.0
N_AGGREGATE_ROWS = 1500
#: each AU aggregate shape's bucket budget (the view has none)
AGGREGATE_BUCKETS = {"q1": JOIN_BUCKETS, "q3": JOIN_BUCKETS, "view": None}
#: the key–FK join's highest AU ÷ det ratio at 2 % uncertain probe keys
KEY_FK_GATE = 30.0
N_VIEW_ROWS = 900


def det_db(n_orders: int = N_ORDERS, seed: int = 1) -> DetDatabase:
    rng = random.Random(seed)
    orders = DetRelation(
        ["o_id", "o_custkey", "o_status"],
        [(i, rng.randrange(200), rng.choice("OFP")) for i in range(n_orders)],
    )
    lineitem = DetRelation(
        ["l_orderkey", "l_qty", "l_price", "l_disc"],
        [
            (
                rng.randrange(n_orders),
                rng.randint(1, 50),
                rng.randint(100, 1000),
                rng.randint(0, 10),
            )
            for _ in range(n_orders * FANOUT)
        ],
    )
    return DetDatabase({"orders": orders, "lineitem": lineitem})


def au_db(n_orders: int = N_ORDERS_AU, seed: int = 1) -> AUDatabase:
    rng = random.Random(seed)
    orders = AURelation(["o_id", "o_custkey", "o_status"])
    for i in range(n_orders):
        orders.add([i, rng.randrange(200), rng.choice("OFP")], (1, 1, 1))
    lineitem = AURelation(["l_orderkey", "l_qty", "l_price", "l_disc"])
    for _ in range(n_orders * FANOUT):
        qty = rng.randint(1, 50)
        if rng.random() < UNCERTAINTY:
            qty = between(max(1, qty - 2), qty, qty + 2)
        lineitem.add(
            [rng.randrange(n_orders), qty, rng.randint(100, 1000), rng.randint(0, 10)],
            (1, 1, 1),
        )
    return AUDatabase({"orders": orders, "lineitem": lineitem})


def au_filter_db(rows: int = N_FILTER_ROWS, seed: int = 1) -> AUDatabase:
    rng = random.Random(seed)
    facts = AURelation(["k", "qty", "price"])
    for k in range(rows):
        qty = rng.randint(1, 50)
        if rng.random() < UNCERTAINTY:
            qty = between(max(1, qty - 2), qty, qty + 2)
        facts.add([k, qty, rng.randint(100, 1000)], (1, 1, 1))
    return AUDatabase({"facts": facts})


def au_aggregate_db(rows: int = N_AGGREGATE_ROWS, seed: int = 1) -> AUDatabase:
    """``q1``: lineitem-like, six (flag, status) groups, 2 % of the rows
    with an uncertain flag; ``q3``: the possible half of a compressed
    join's output — every row a box ``(0, 0, n)`` around its own key;
    ``view``: orders-like, three status groups, 1 % of the statuses
    uncertain over all three."""
    rng = random.Random(seed)
    q1 = AURelation(["k", "flag", "status", "qty", "price", "disc"])
    for k in range(rows):
        flag = rng.choice("ANR")
        if rng.random() < 0.02:
            flag = between("A", flag, "R")
        q1.add(
            [k, flag, rng.choice("FO"), rng.randint(1, 50),
             rng.uniform(900.0, 100000.0), rng.randint(0, 10) / 100.0],
            (1, 1, 1),
        )
    q3 = AURelation(["okey", "odate", "price", "disc"])
    for k in range(rows // 4):
        low = rng.uniform(900.0, 50000.0)
        q3.add(
            [between(4 * k, 4 * k + 1, 4 * k + 6),
             between(19950101 + k, 19950102 + k, 19950110 + k),
             between(low, low * 1.5, low * 2), between(0.0, 0.05, 0.1)],
            (0, 0, rng.randint(1, 4)),
        )
    view = AURelation(["okey", "status", "price"])
    for k in range(N_VIEW_ROWS):
        status = rng.choice("FOP")
        if k % 100 == 50:
            status = between("F", status, "P")
        view.add([k, status, round(rng.uniform(1000.0, 300000.0), 2)], (1, 1, 1))
    return AUDatabase({"q1": q1, "q3": q3, "view": view})


def _revenue():
    return Mul(Var("price"), Sub(Const(1), Var("disc")))


def au_aggregate_plans():
    return {
        "q1": Aggregate(
            TableRef("q1"),
            ["flag", "status"],
            [agg_sum("qty", "sum_qty"), agg_sum("price", "sum_price"),
             agg_sum(_revenue(), "sum_disc"), agg_avg("qty", "avg_qty"),
             agg_count("n")],
        ),
        "q3": Aggregate(
            TableRef("q3"), ["okey", "odate"], [agg_sum(_revenue(), "revenue")]
        ),
        "view": Aggregate(
            TableRef("view"), ["status"], [agg_count("n"), agg_sum("price", "total")]
        ),
    }


def au_filter_plan() -> phys.PhysNode:
    """``SELECT * FROM facts WHERE k >= 4000 AND k < 4100 AND qty > 10``
    as the physical select-over-scan both runs execute."""
    condition = (
        Geq(Var("k"), Const(4000)) & Lt(Var("k"), Const(4100))
    ) & Gt(Var("qty"), Const(10))
    return phys.FusedSelectProject(phys.Scan("facts"), condition, None)


def interpreted():
    """The same commit with the AU selection kernel refused."""
    return mock.patch.object(
        vectorized,
        "compile_range_filter",
        side_effect=CompileError("refused by the benchmark"),
    )


def join_plan():
    """``orders JOIN lineitem ON o_id = l_orderkey``."""
    return Join(
        TableRef("orders"),
        TableRef("lineitem"),
        Eq(Var("o_id"), Var("l_orderkey")),
    )


def det_filter_condition():
    """``l_qty > 10 AND l_price <= 900``: the two conjuncts of
    :func:`join_agg_plan`'s selection."""
    return Gt(Var("l_qty"), Const(10)) & Leq(Var("l_price"), Const(900))


def key_fk_join_plan() -> phys.PhysNode:
    """``lineitem JOIN orders ON l_orderkey = o_id`` as a physical hash
    join probing lineitem against the unique order keys."""
    return phys.HashJoin(
        phys.Scan("lineitem"),
        phys.Scan("orders"),
        Eq(Var("l_orderkey"), Var("o_id")),
        (("l_orderkey", "o_id"),),
        True,
    )


def det_floors(det: DetDatabase):
    """``(filter ns/row, key–FK join ns/probe row)``, best of 7 each."""
    from repro.experiments.common import time_call

    lineitem = ColumnBatch.from_relation(det["lineitem"])
    kernel = compile_filter(det_filter_condition(), lineitem.schema)
    n = len(lineitem)
    t_filter, _rows = time_call(lambda: kernel(lineitem.columns, n), repeat=7)
    # the operator alone: no materialization of the joined relation
    join = key_fk_join_plan()
    run_join = vectorized._DetExec(det).eval
    run_join(join)  # build the chunk stores
    t_join, _joined = time_call(lambda: run_join(join), repeat=7)
    probe_rows = len(det["lineitem"].rows)
    return t_filter / n * 1e9, t_join / probe_rows * 1e9


#: the shares of lineitem rows whose order key is uncertain in the
#: key–FK join's AU ÷ det rows
KEY_FK_UNCERTAINTY = (0.0, 0.02)
#: the share whose AU ÷ det ratio is gated (:data:`KEY_FK_GATE`)
KEY_FK_GATED_SHARE = 0.02


def au_key_fk_db(
    det: DetDatabase, uncertain: float, seed: int = 1, spanning: bool = False
) -> AUDatabase:
    """``det`` as an AU database whose selected-guess world is ``det``,
    with a share ``uncertain`` of the lineitem order keys widened to
    ``[k-1/k/k+1]`` and, if ``spanning``, the first order key widened to
    span every order key."""
    rng = random.Random(seed)
    keys = [row[0] for row in det["orders"].rows]
    tables = {}
    for name in ("orders", "lineitem"):
        rel = AURelation(det[name].schema)
        for row, m in det[name].rows.items():
            if name == "lineitem" and rng.random() < uncertain:
                row = (between(row[0] - 1, row[0], row[0] + 1),) + row[1:]
            elif name == "orders" and spanning:
                row = (between(min(keys), row[0], max(keys)),) + row[1:]
                spanning = False
            rel.add(row, (m, m, m))
        tables[name] = rel
    return AUDatabase(tables)


#: the key–FK join's AU data beyond the uncertain probe-key shares
KEY_FK_SPANNING = "spanning build key"


def key_fk_join_ratios(det: DetDatabase):
    """``{case: (AU s, det s)}`` of the key–FK join operator, best of 7
    each — per share of uncertain probe keys (``"2%"``) and for one
    build key spanning every build key (:data:`KEY_FK_SPANNING`) — and
    whether every AU result's SG world was the det result."""
    from repro.experiments.common import time_call

    join = key_fk_join_plan()
    run_det = vectorized._DetExec(det).eval
    run_det(join)
    t_det, r_det = time_call(lambda: run_det(join), repeat=7)
    expected = r_det.to_relation().as_bag()
    cases = {f"{share:.0%}": au_key_fk_db(det, share) for share in KEY_FK_UNCERTAINTY}
    cases[KEY_FK_SPANNING] = au_key_fk_db(det, 0.0, spanning=True)
    timings, same = {}, True
    for case, au in cases.items():
        run_au = vectorized._AUExec(au).eval
        run_au(join)
        t_au, r_au = time_call(lambda: run_au(join), repeat=7)
        timings[case] = (t_au, t_det)
        same = same and r_au.to_relation().selected_guess_world() == expected
    return timings, same


#: the shares of uncertain l_qty / l_price cells in the filter AU ÷ det rows
FILTER_UNCERTAINTY = (0.0, 0.02)


def au_filter_world_db(det: DetDatabase, uncertain: float, seed: int = 1) -> AUDatabase:
    """``det``'s lineitem as an AU table whose selected-guess world is
    ``det``'s, each ``l_qty`` / ``l_price`` cell widened to
    ``[v-1/v/v+1]`` with probability ``uncertain``."""
    rng = random.Random(seed)
    rel = AURelation(det["lineitem"].schema)
    for row, m in det["lineitem"].rows.items():
        row = tuple(
            between(v - 1, v, v + 1) if j in (1, 2) and rng.random() < uncertain else v
            for j, v in enumerate(row)
        )
        rel.add(row, (m, m, m))
    return AUDatabase({"lineitem": rel})


def filter_plans():
    """``{name: select over a lineitem scan}`` of the filter AU ÷ det
    rows: :func:`det_filter_condition` and a key ``=`` lookup."""
    return {
        "two-conjunct filter": phys.FusedSelectProject(
            phys.Scan("lineitem"), det_filter_condition(), None
        ),
        "key = lookup": phys.FusedSelectProject(
            phys.Scan("lineitem"), Eq(Var("l_orderkey"), Const(N_ORDERS // 2)), None
        ),
    }


def filter_ratios(det: DetDatabase):
    """``{(plan, share): (AU ns/row, det ns/row)}``, best of 7 each,
    and whether every AU result's SG world was the det result."""
    from repro.experiments.common import time_call

    n = len(det["lineitem"].rows)
    run_det = vectorized._DetExec(det).eval
    out, same = {}, True
    for share in FILTER_UNCERTAINTY:
        au = au_filter_world_db(det, share)
        run_au = vectorized._AUExec(au).eval
        for name, plan in filter_plans().items():
            run_det(plan), run_au(plan)  # build the chunk stores
            t_det, r_det = time_call(lambda: run_det(plan), repeat=7)
            t_au, r_au = time_call(lambda: run_au(plan), repeat=7)
            out[name, f"{share:.0%}"] = (t_au / n * 1e9, t_det / n * 1e9)
            sg_world = r_au.to_relation().selected_guess_world()
            same = same and sg_world == r_det.to_relation().as_bag()
    return out, same


#: the top-k rows: 7 500 orders, the ten most expensive
N_TOPK_ROWS = 7500
TOPK_N = 10


def topk_dbs(rows: int = N_TOPK_ROWS, seed: int = 1):
    """``(det, AU)`` databases of one ``orders(o_orderkey, o_totalprice)``
    table holding the same rows, every AU cell certain."""
    rng = random.Random(seed)
    data = [(k, round(rng.uniform(900.0, 500000.0), 2)) for k in range(rows)]
    schema = ["o_orderkey", "o_totalprice"]
    rel = AURelation(schema)
    for row in data:
        rel.add(row, (1, 1, 1))
    det = DetDatabase({"orders": DetRelation(schema, data)})
    return det, AUDatabase({"orders": rel})


def topk_timings():
    """``{engine: s}`` of ``TopK`` over a scan (best of 7 each), the
    engine's full ``take`` over the det scan's merged rows as
    ``"take"``, and whether all three agree."""
    from repro.db.engine import take
    from repro.experiments.common import time_call

    det, au = topk_dbs()
    plan = phys.TopK(phys.Scan("orders"), ["o_totalprice"], True, TOPK_N)
    run_det, run_au = vectorized._DetExec(det).eval, vectorized._AUExec(au).eval
    scanned = run_det(phys.Scan("orders")).merged()
    run_det(plan), run_au(plan)  # build the chunk stores
    t_det, r_det = time_call(lambda: run_det(plan), repeat=7)
    t_take, r_take = time_call(lambda: take(scanned, TOPK_N, [1], True), repeat=7)
    t_au, r_au = time_call(lambda: run_au(plan), repeat=7)
    same = (
        r_det.merged() == r_take
        and r_au.to_relation().selected_guess_world() == r_det.to_relation().as_bag()
    )
    return {"det": t_det, "take": t_take, "au": t_au}, same


def range_value_construction_ns(number: int = 100_000) -> dict:
    """ns per ``RangeValue`` construction (best of 5 runs of ``number``):
    a point ``[v/v/v]`` of one int, which returns after the identity
    test, and an int range ``[1/2/3]``, which runs both order tests."""
    import timeit

    from repro.core.ranges import RangeValue

    out = {}
    for shape, stmt in (("point", "R(v, v, v)"), ("range", "R(1, 2, v)")):
        timer = timeit.Timer(stmt, globals={"R": RangeValue, "v": 3})
        out[shape] = min(timer.repeat(5, number)) / number * 1e9
    return out


def join_agg_plan():
    """``SELECT o_status, sum(l_price), count(*), avg(l_qty) FROM orders
    JOIN lineitem ON o_id = l_orderkey WHERE l_qty > 10 AND l_price <=
    900 GROUP BY o_status``."""
    filtered = Selection(join_plan(), det_filter_condition())
    return Aggregate(
        filtered,
        ["o_status"],
        [agg_sum("l_price", "rev"), agg_count("n"), agg_avg("l_qty", "avg_qty")],
    )


@pytest.fixture(scope="module")
def det():
    return det_db()


@pytest.fixture(scope="module")
def audb():
    return au_db()


@pytest.mark.parametrize("backend", ["tuple", "vectorized"])
def test_det_join_aggregate(benchmark, det, backend):
    plan = join_agg_plan()
    evaluate_det(plan, det, backend=backend)  # warm caches / compile
    benchmark(lambda: evaluate_det(plan, det, backend=backend))


@pytest.mark.parametrize("kernel", ["compiled", "interpreted"])
def test_audb_selective_filter(benchmark, kernel):
    facts, plan = au_filter_db(), au_filter_plan()
    with interpreted() if kernel == "interpreted" else nullcontext():
        vectorized.execute_audb(plan, facts)
        benchmark(lambda: vectorized.execute_audb(plan, facts))


@pytest.mark.parametrize("backend", ["tuple", "vectorized"])
def test_audb_join_aggregate(benchmark, audb, backend):
    plan = join_agg_plan()
    config = EvalConfig(backend=backend)
    evaluate_audb(plan, audb, config)
    benchmark(lambda: evaluate_audb(plan, audb, config))


@pytest.mark.parametrize("backend", ["tuple", "vectorized"])
def test_audb_compressed_join(benchmark, audb, backend):
    plan = join_plan()
    config = EvalConfig(backend=backend, join_buckets=JOIN_BUCKETS)
    evaluate_audb(plan, audb, config)
    benchmark(lambda: evaluate_audb(plan, audb, config))


@pytest.mark.parametrize("shape", sorted(AGGREGATE_BUCKETS))
@pytest.mark.parametrize("backend", ["tuple", "vectorized"])
def test_audb_compressed_aggregate(benchmark, backend, shape):
    db, plan = au_aggregate_db(), au_aggregate_plans()[shape]
    config = EvalConfig(backend=backend, aggregation_buckets=AGGREGATE_BUCKETS[shape])
    evaluate_audb(plan, db, config)
    benchmark(lambda: evaluate_audb(plan, db, config))


def main() -> int:
    from repro.experiments.common import sgw_database, time_call

    det = det_db()
    audb = au_db()
    plan = join_agg_plan()

    rows = []
    failures = []
    for engine, gate, run in (
        ("det", DET_GATE, lambda backend: evaluate_det(plan, det, backend=backend)),
        (
            "audb",
            AU_GATE,
            lambda backend: evaluate_audb(plan, audb, EvalConfig(backend=backend)),
        ),
    ):
        run("tuple"), run("vectorized")  # warm scan caches and compile
        t_tuple, r_tuple = time_call(lambda: run("tuple"), repeat=3)
        t_vec, r_vec = time_call(lambda: run("vectorized"), repeat=3)
        speedup = t_tuple / t_vec if t_vec > 0 else float("inf")
        rows.append((engine, t_tuple, t_vec, speedup, len(r_vec)))
        if engine == "det":
            same = r_tuple.rows == r_vec.rows
        else:
            same = dict(r_tuple.tuples()) == dict(r_vec.tuples())
        if not same:
            failures.append(f"{engine}: vectorized result differs")
        if speedup < gate:
            failures.append(
                f"{engine}: speedup {speedup:.2f}x below the {gate:.1f}x bar"
            )

    facts, filter_plan = au_filter_db(), au_filter_plan()

    def run_filter():
        return vectorized.execute_audb(filter_plan, facts)

    run_filter()  # build the chunk store, compile the kernel
    t_compiled, r_compiled = time_call(run_filter, repeat=5)
    with interpreted():
        t_interpreted, r_interpreted = time_call(run_filter, repeat=5)
    filter_speedup = t_interpreted / t_compiled
    if list(r_compiled.tuples()) != list(r_interpreted.tuples()):
        failures.append("au_filter: compiled result differs")
    if filter_speedup < AU_FILTER_GATE:
        failures.append(
            f"au_filter: speedup {filter_speedup:.2f}x below the "
            f"{AU_FILTER_GATE:.1f}x bar"
        )

    compressed = {
        backend: EvalConfig(backend=backend, join_buckets=JOIN_BUCKETS)
        for backend in ("tuple", "vectorized")
    }

    def run_join(backend):
        return evaluate_audb(join_plan(), audb, compressed[backend])

    run_join("tuple"), run_join("vectorized")
    t_join_tuple, r_join_tuple = time_call(lambda: run_join("tuple"), repeat=5)
    t_join_vec, r_join_vec = time_call(lambda: run_join("vectorized"), repeat=5)
    join_speedup = t_join_tuple / t_join_vec
    if dict(r_join_tuple.tuples()) != dict(r_join_vec.tuples()):
        failures.append("compressed_join: vectorized result differs")
    if join_speedup < COMPRESSED_JOIN_GATE:
        failures.append(
            f"compressed_join: speedup {join_speedup:.2f}x below the "
            f"{COMPRESSED_JOIN_GATE:.1f}x bar"
        )

    aggregate_db = au_aggregate_db()
    aggregate_rows = {}
    for shape, shaped in au_aggregate_plans().items():
        shaped_config = {
            backend: EvalConfig(
                backend=backend, aggregation_buckets=AGGREGATE_BUCKETS[shape]
            )
            for backend in ("tuple", "vectorized")
        }

        def run_aggregate(backend):
            return evaluate_audb(shaped, aggregate_db, shaped_config[backend])

        run_aggregate("tuple"), run_aggregate("vectorized")
        # best of 7 each, alternating: a machine that changes speed
        # mid-run slows both sides
        t_agg_tuple = t_agg_vec = float("inf")
        for _ in range(7):
            t, r_agg_tuple = time_call(lambda: run_aggregate("tuple"))
            t_agg_tuple = min(t_agg_tuple, t)
            t, r_agg_vec = time_call(lambda: run_aggregate("vectorized"))
            t_agg_vec = min(t_agg_vec, t)
        agg_speedup = t_agg_tuple / t_agg_vec
        aggregate_rows[shape] = (t_agg_tuple, t_agg_vec, agg_speedup, len(r_agg_vec))
        if list(r_agg_tuple.tuples()) != list(r_agg_vec.tuples()):
            failures.append(f"au_aggregate[{shape}]: vectorized result differs")
    # the view shape's AU cost over the det engine's on its SG world
    view_plan, view_sgw = au_aggregate_plans()["view"], sgw_database(aggregate_db)

    def run_view_det():
        return evaluate_det(view_plan, view_sgw, backend="vectorized")

    run_view_det()
    t_view_det = float("inf")
    for _ in range(7):
        t, r_view_det = time_call(run_view_det)
        t_view_det = min(t_view_det, t)
    t_view_au = aggregate_rows["view"][1]
    view_ratio = t_view_au / t_view_det
    r_view_au = evaluate_audb(
        view_plan, aggregate_db, EvalConfig(backend="vectorized")
    )
    if r_view_au.selected_guess_world() != r_view_det.as_bag():
        failures.append("au_aggregate[view]: SG world differs from the det answer")
    if aggregate_rows["q1"][2] < AU_AGGREGATE_GATE:
        failures.append(
            f"au_aggregate[q1]: speedup {aggregate_rows['q1'][2]:.2f}x below "
            f"the {AU_AGGREGATE_GATE:.1f}x bar"
        )

    # the paper's headline: the AU statement over the same statement on
    # the det engine over the selected-guess world
    sgw = sgw_database(audb)

    def run_au():
        return evaluate_audb(plan, audb, compressed["vectorized"])

    def run_sgw():
        return evaluate_det(plan, sgw, backend="vectorized")

    run_au(), run_sgw()
    t_au, r_au = time_call(run_au, repeat=5)
    t_sgw, r_sgw = time_call(run_sgw, repeat=5)
    cost_ratio = t_au / t_sgw
    if r_au.selected_guess_world() != r_sgw.as_bag():
        failures.append("au_det_cost_ratio: SG world differs from the det answer")

    print(
        f"TPC-H-style join+aggregate: {N_ORDERS} orders x{FANOUT} lineitems (det), "
        f"{N_ORDERS_AU} orders (AU, {UNCERTAINTY:.0%} uncertain)"
    )
    print(f"{'engine':<6} {'tuple[s]':>10} {'vectorized[s]':>14} {'speedup':>9} {'groups':>7}")
    for engine, t_tuple, t_vec, speedup, n in rows:
        print(f"{engine:<6} {t_tuple:>10.4f} {t_vec:>14.4f} {speedup:>8.2f}x {n:>7}")
    print(
        f"AU selective filter over {N_FILTER_ROWS} rows: interpreted "
        f"{t_interpreted:.4f}s, compiled {t_compiled:.4f}s, "
        f"{filter_speedup:.2f}x, {len(r_compiled)} rows"
    )
    print(
        f"AU compressed join (CT={JOIN_BUCKETS}): tuple {t_join_tuple:.4f}s, "
        f"vectorized {t_join_vec:.4f}s, {join_speedup:.2f}x, "
        f"{len(r_join_vec)} rows"
    )
    for shape, (t_agg_tuple, t_agg_vec, agg_speedup, n) in aggregate_rows.items():
        print(
            f"AU aggregate (CT={AGGREGATE_BUCKETS[shape]}, {shape} shape): tuple "
            f"{t_agg_tuple:.4f}s, vectorized {t_agg_vec:.4f}s, "
            f"{agg_speedup:.2f}x, {n} groups"
        )
    print(
        f"AU / det cost ratio, view-shaped aggregate: AU {t_view_au:.4f}s / det "
        f"over the SG world {t_view_det:.4f}s = {view_ratio:.1f}x"
    )
    print(
        f"AU / det cost ratio, join+aggregate at CT={JOIN_BUCKETS}: AU "
        f"{t_au:.4f}s / det over the SG world {t_sgw:.4f}s = {cost_ratio:.1f}x"
    )
    filter_ns, join_ns = det_floors(det)
    print(
        f"det floors: filter kernel {filter_ns:.1f} ns/row, key-FK join "
        f"{join_ns:.1f} ns/probe row"
    )
    key_fk, key_fk_same = key_fk_join_ratios(det)
    if not key_fk_same:
        failures.append("au_det_key_fk_join: SG world differs from the det answer")
    for case, (t_au_join, t_det_join) in key_fk.items():
        shape = (
            "one build key spanning every build key"
            if case == KEY_FK_SPANNING
            else f"{case} of the probe keys uncertain"
        )
        print(
            f"AU / det cost ratio, key-FK join (no Cpr, {shape}): AU "
            f"{t_au_join:.4f}s / det {t_det_join:.4f}s = "
            f"{t_au_join / t_det_join:.1f}x"
        )
    filters, filters_same = filter_ratios(det)
    if not filters_same:
        failures.append("au_det_filter: SG world differs from the det answer")
    for (name, share), (au_ns, det_ns) in filters.items():
        print(
            f"AU / det cost ratio, {name} ({share} of l_qty / l_price cells "
            f"uncertain): AU {au_ns:.1f} ns/row / det {det_ns:.1f} ns/row = "
            f"{au_ns / det_ns:.1f}x"
        )
    topk, topk_same = topk_timings()
    if not topk_same:
        failures.append("topk: det, take and the AU SG world differ")
    print(
        f"det top-{TOPK_N} of {N_TOPK_ROWS} rows: {topk['det'] * 1e3:.3f} ms "
        f"(the full two-sort take: {topk['take'] * 1e3:.3f} ms)"
    )
    print(
        f"AU certain-key top-{TOPK_N} of {N_TOPK_ROWS} rows: "
        f"{topk['au'] * 1e3:.3f} ms, AU / det = {topk['au'] / topk['det']:.1f}x"
    )
    t_au_gated, t_det_gated = key_fk[f"{KEY_FK_GATED_SHARE:.0%}"]
    key_fk_ratio = t_au_gated / t_det_gated
    if key_fk_ratio > KEY_FK_GATE:
        failures.append(
            f"au_det_key_fk_join[{KEY_FK_GATED_SHARE:.0%}]: AU / det "
            f"{key_fk_ratio:.1f}x above the {KEY_FK_GATE:.0f}x bar"
        )
    construction = range_value_construction_ns()
    print(
        f"RangeValue construction: point {construction['point']:.0f} ns, "
        f"range {construction['range']:.0f} ns"
    )
    for failure in failures:
        print(f"FAIL: {failure}")

    from _results import write_result

    write_result(
        "vectorized",
        {
            "benchmark": "vectorized",
            "gates": {
                "det": DET_GATE,
                "audb": AU_GATE,
                "au_filter": AU_FILTER_GATE,
                "compressed_join": COMPRESSED_JOIN_GATE,
                "au_aggregate": AU_AGGREGATE_GATE,
                f"au_det_key_fk_join[{KEY_FK_GATED_SHARE:.0%}]": KEY_FK_GATE,
            },
            "results": {
                engine: {
                    "tuple_s": round(t_tuple, 6),
                    "vectorized_s": round(t_vec, 6),
                    "speedup": round(speedup, 4),
                    "groups": n,
                }
                for engine, t_tuple, t_vec, speedup, n in rows
            }
            | {
                "au_filter": {
                    "interpreted_s": round(t_interpreted, 6),
                    "compiled_s": round(t_compiled, 6),
                    "speedup": round(filter_speedup, 4),
                    "rows": len(r_compiled),
                },
                "compressed_join": {
                    "buckets": JOIN_BUCKETS,
                    "tuple_s": round(t_join_tuple, 6),
                    "vectorized_s": round(t_join_vec, 6),
                    "speedup": round(join_speedup, 4),
                    "rows": len(r_join_vec),
                },
                "au_aggregate": {
                    shape: {
                        "buckets": AGGREGATE_BUCKETS[shape],
                        "tuple_s": round(t_agg_tuple, 6),
                        "vectorized_s": round(t_agg_vec, 6),
                        "speedup": round(agg_speedup, 4),
                        "groups": n,
                    }
                    for shape, (t_agg_tuple, t_agg_vec, agg_speedup, n)
                    in aggregate_rows.items()
                },
                "au_det_cost_ratio": {
                    "buckets": JOIN_BUCKETS,
                    "au_s": round(t_au, 6),
                    "det_s": round(t_sgw, 6),
                    "ratio": round(cost_ratio, 4),
                },
                "au_det_cost_ratio_view": {
                    "au_s": round(t_view_au, 6),
                    "det_s": round(t_view_det, 6),
                    "ratio": round(view_ratio, 4),
                },
                "range_value_construction_ns": {
                    shape: round(ns, 1) for shape, ns in construction.items()
                },
                "det_filter": {"ns_per_row": round(filter_ns, 2)},
                "det_key_fk_join": {"ns_per_probe_row": round(join_ns, 2)},
                "au_det_key_fk_join": {
                    case: {
                        "au_s": round(t_au_join, 6),
                        "det_s": round(t_det_join, 6),
                        "ratio": round(t_au_join / t_det_join, 4),
                    }
                    for case, (t_au_join, t_det_join) in key_fk.items()
                },
                "topk": {
                    "rows": N_TOPK_ROWS,
                    "n": TOPK_N,
                    "det_s": round(topk["det"], 6),
                    "take_s": round(topk["take"], 6),
                    "au_certain_key_s": round(topk["au"], 6),
                },
                "au_det_filter": {
                    f"{name} [{share}]": {
                        "au_ns_per_row": round(au_ns, 2),
                        "det_ns_per_row": round(det_ns, 2),
                        "ratio": round(au_ns / det_ns, 4),
                    }
                    for (name, share), (au_ns, det_ns) in filters.items()
                },
            },
            "failures": failures,
        },
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

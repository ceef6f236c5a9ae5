"""Paged chunked storage: zone-map chunk skipping vs a single-chunk store.

A ~120k-row deterministic table clustered on its key column (the
natural layout for append-mostly bases: keys arrive roughly in order,
so per-chunk min/max ranges are narrow and selective predicates prune
almost every page):

* **Skip gate (≥5x)**: a selective range query (last ~1% of the key
  space) through the vectorized backend with chunked storage
  (zone-map skipping + streamed per-chunk filtering) must beat the
  same query over the "no skipping" baseline — the whole table as
  **one chunk** (``chunk_size = N_ROWS``: the only zone spans the full
  key range, so it can prove nothing and every row is filtered) — by
  at least 5x.  Measured ~20x at this size — the skip predicate
  proves ~117 of the 118 pages empty without reading them.
* **Prepared skip gate (≥5x)**: the same query as a *prepared*
  statement (``k >= ?``, lowered once, the cut bound per execution)
  must clear the same bar: the binding fills the scan's skip template,
  so the prepared form prunes the pages its literal twin prunes.
* **Full-scan overhead gate (≤1.1x)**: an unselective aggregate that
  must read every row may pay at most 10% for the paged layout (the
  chunk store concatenates surviving pages once and caches the image,
  so steady-state full scans are the same work).  Measured as the
  median chunked ÷ single-chunk ratio over ``OVERHEAD_PAIRS`` pairs of
  back-to-back runs, alternating which layout runs first, so a drift in
  machine speed lands on both sides of a pair instead of on one
  best-of-3.

Both layouts must return identical results.  The gate runs each layout
on its own copy of the table: a relation keeps one chunk store, so
alternating chunk sizes on a shared relation would time store rebuilds.

* **Statistics after deletes (reported, not gated)**: on a third copy,
  delete the row of the current max key ``STATS_DELETES`` times and
  harvest the column statistics after each delete; the row reports the
  median ms of those harvests beside one cold harvest (a full scan of
  the table).  The writes maintain the statistics, so no harvest after
  a delete rescans the table.  The script fails if the maintained
  statistics differ from a fresh harvest of the same rows.
* **Writes (reported, not gated)**: one ``writes`` row per engine over
  the e2e benchmark's data — the AU PDBench ``lineitem`` of
  ``mixed_rw_views`` and the det ``lineitem`` of ``det_scan``: the
  best of ``BUILD_REPEATS`` chunk-store builds in ms, and the median
  µs of one ``add`` and of one ``delete`` over ``WRITE_ROWS`` fresh
  rows written to the relation while its store is attached (every
  write maintains the store).

Run standalone for the CI gate::

    PYTHONPATH=src python benchmarks/bench_storage.py

or under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_storage.py
"""

import os
import random
import statistics
import sys
import time

import pytest

from repro.algebra.ast import Aggregate, Selection, TableRef
from repro.core.aggregation import agg_count, agg_sum
from repro.core.expressions import Const, Geq, Parameter, Var
from repro.db.engine import evaluate_det
from repro.db.storage import DetDatabase, DetRelation

N_ROWS = 120_000
#: keys are clustered: row i carries key i (append order == key order)
SELECTIVE_CUT = N_ROWS - 1_000

SKIP_GATE = 5.0
OVERHEAD_GATE = 1.1
#: (single-chunk, chunked) timing pairs behind the full-scan ratio
OVERHEAD_PAIRS = 11
#: max-key deletes, each followed by a harvest, behind the stats row
STATS_DELETES = 5
#: store builds (best of) and fresh rows written behind the writes rows
BUILD_REPEATS = 7
WRITE_ROWS = 200


def make_db(n: int = N_ROWS, seed: int = 11) -> DetDatabase:
    rng = random.Random(seed)
    rel = DetRelation(
        ["k", "v", "grp"],
        [(i, rng.randint(0, 1000), i % 17) for i in range(n)],
    )
    return DetDatabase({"t": rel})


def selective_plan():
    """``SELECT * FROM t WHERE k >= cut`` — prunable to the tail pages."""
    return Selection(TableRef("t"), Geq(Var("k"), Const(SELECTIVE_CUT)))


def prepared_plan():
    """``SELECT * FROM t WHERE k >= ?`` — bound to the cut per execution."""
    return Selection(TableRef("t"), Geq(Var("k"), Parameter(0)))


def full_scan_plan():
    """``SELECT grp, sum(v), count(*) FROM t GROUP BY grp`` — every row."""
    return Aggregate(
        TableRef("t"), ["grp"], [agg_sum("v", "s"), agg_count("n")]
    )


@pytest.fixture(scope="module")
def db():
    return make_db()


LAYOUTS = pytest.mark.parametrize(
    "chunk_size", [N_ROWS, None], ids=["single-chunk", "chunked"]
)


@LAYOUTS
def test_selective_scan(benchmark, db, chunk_size):
    plan = selective_plan()
    evaluate_det(plan, db, backend="vectorized", chunk_size=chunk_size)
    benchmark(
        lambda: evaluate_det(
            plan, db, backend="vectorized", chunk_size=chunk_size
        )
    )


@LAYOUTS
def test_prepared_selective_scan(benchmark, db, chunk_size):
    from repro.algebra.evaluator import EvalConfig
    from repro.session import Connection

    conn = Connection(
        db, config=EvalConfig(backend="vectorized", chunk_size=chunk_size)
    )
    prepared = conn.prepare(prepared_plan())
    # actuals={} bypasses the per-binding result memo: every round scans
    benchmark(lambda: prepared.execute([SELECTIVE_CUT], actuals={}))


@LAYOUTS
def test_full_scan_aggregate(benchmark, db, chunk_size):
    plan = full_scan_plan()
    evaluate_det(plan, db, backend="vectorized", chunk_size=chunk_size)
    benchmark(
        lambda: evaluate_det(
            plan, db, backend="vectorized", chunk_size=chunk_size
        )
    )


def stats_after_max_deletes(deletes: int = STATS_DELETES):
    """``(cold_ms, median_ms, exact)``: one cold statistics harvest of a
    fresh table, the median harvest after each of ``deletes`` deletes of
    its max-key row, and whether the maintained statistics equal a fresh
    harvest of the rows left."""
    from repro.algebra.stats import harvest_column_stats

    db = make_db()
    rel = db.relations["t"]
    start = time.perf_counter()
    harvest_column_stats(db)
    cold_ms = (time.perf_counter() - start) * 1e3
    times = []
    for _ in range(deletes):
        rel.delete(max(rel.rows))  # rows lead with the key
        start = time.perf_counter()
        maintained = harvest_column_stats(db)["t"]
        times.append((time.perf_counter() - start) * 1e3)
    fresh = harvest_column_stats(
        DetDatabase({"t": DetRelation(rel.schema, dict(rel.rows))})
    )["t"]
    return cold_ms, statistics.median(times), maintained == fresh


def write_costs(rel, layout, payload):
    """``(build_ms, add_us, delete_us)`` of ``rel``: the best of
    ``BUILD_REPEATS`` chunk-store builds, and the median ``add`` /
    ``delete`` of ``WRITE_ROWS`` fresh rows (its first row with the
    first cell moved past every key) with the store attached."""
    from repro.db.chunks import DEFAULT_CHUNK_SIZE, ChunkStore, chunk_store

    builds = []
    for _ in range(BUILD_REPEATS):
        start = time.perf_counter()
        ChunkStore.build(rel, DEFAULT_CHUNK_SIZE, layout)
        builds.append(time.perf_counter() - start)
    chunk_store(rel, None)
    template = next(iter(rel.rows))
    rows = [(10**9 + i,) + tuple(template[1:]) for i in range(WRITE_ROWS)]
    adds, deletes = [], []
    clock = time.perf_counter
    for row in rows:
        start = clock()
        rel.add(row, payload)
        adds.append(clock() - start)
    for row in rows:
        start = clock()
        rel.delete(row, payload)
        deletes.append(clock() - start)
    return (
        min(builds) * 1e3,
        statistics.median(adds) * 1e6,
        statistics.median(deletes) * 1e6,
    )


def e2e_lineitems():
    """``{engine: lineitem}`` of the e2e benchmark's data: the AU
    PDBench instance of ``mixed_rw_views`` and the det table of
    ``det_scan``."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "e2e"))
    import generators as gen

    return {
        "au": gen.pdbench(gen.SPECS["mixed_rw_views"]).audb()["lineitem"],
        "det": gen.scan_database(gen.SPECS["det_scan"])["lineitem"],
    }


def main() -> int:
    from repro.algebra.optimizer import Statistics, optimize
    from repro.db.chunks import AU, DET
    from repro.exec import execute_det
    from repro.exec import physical as phys
    from repro.experiments.common import time_call
    from repro.session import bind_parameters

    # identical contents (seeded), one relation per layout
    dbs = {N_ROWS: make_db(), None: make_db()}
    failures = []
    stats = Statistics.from_database(dbs[None])

    def lowered(plan, chunk_size):
        return phys.lower(
            optimize(plan, stats),
            stats,
            phys.PhysicalConfig(
                engine="det", backend="vectorized", chunk_size=chunk_size
            ),
        )

    def run(plan, chunk_size):
        # lower once, execute many: the gate measures the storage layer,
        # not the (shared, constant) parse/optimize/lower pipeline
        pplan = lowered(plan, chunk_size)
        db = dbs[chunk_size]
        return lambda: execute_det(pplan, db)

    # selective range query: chunked must win by SKIP_GATE
    sel = selective_plan()
    sel_flat, sel_chunk = run(sel, N_ROWS), run(sel, None)
    sel_flat(), sel_chunk()  # warm both chunk stores
    t_flat, r_flat = time_call(sel_flat, repeat=3)
    t_chunk, r_chunk = time_call(sel_chunk, repeat=3)
    speedup = t_flat / t_chunk if t_chunk > 0 else float("inf")
    if r_flat.rows != r_chunk.rows:
        failures.append("selective: chunked result differs from single-chunk")
    if speedup < SKIP_GATE:
        failures.append(
            f"selective: speedup {speedup:.2f}x below the {SKIP_GATE:.1f}x bar"
        )

    # the prepared form: lowered once, bound per execution (the binding
    # fills the scan's skip template); must clear the same bar
    def run_prepared(chunk_size):
        pplan = lowered(prepared_plan(), chunk_size)
        db = dbs[chunk_size]
        return lambda: execute_det(bind_parameters(pplan, [SELECTIVE_CUT]), db)

    prep_flat, prep_chunk = run_prepared(N_ROWS), run_prepared(None)
    prep_flat(), prep_chunk()
    t_prep_flat, r_prep_flat = time_call(prep_flat, repeat=3)
    t_prep_chunk, r_prep_chunk = time_call(prep_chunk, repeat=3)
    prep_speedup = (
        t_prep_flat / t_prep_chunk if t_prep_chunk > 0 else float("inf")
    )
    if not (r_prep_flat.rows == r_prep_chunk.rows == r_chunk.rows):
        failures.append("prepared: result differs from the literal query")
    if prep_speedup < SKIP_GATE:
        failures.append(
            f"prepared: speedup {prep_speedup:.2f}x below the "
            f"{SKIP_GATE:.1f}x bar"
        )

    # unselective aggregate: chunked may cost at most OVERHEAD_GATE
    full = full_scan_plan()
    full_flat, full_chunk = run(full, N_ROWS), run(full, None)
    r_flat_full, r_chunk_full = full_flat(), full_chunk()
    flat_times, chunk_times = [], []
    for pair in range(OVERHEAD_PAIRS):
        order = [(full_flat, flat_times), (full_chunk, chunk_times)]
        for fn, times in order if pair % 2 == 0 else order[::-1]:
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
    t_flat_full = statistics.median(flat_times)
    t_chunk_full = statistics.median(chunk_times)
    overhead = statistics.median(
        c / f if f > 0 else float("inf") for f, c in zip(flat_times, chunk_times)
    )
    if r_flat_full.rows != r_chunk_full.rows:
        failures.append("full-scan: chunked result differs from single-chunk")
    if overhead > OVERHEAD_GATE:
        failures.append(
            f"full-scan: chunked overhead {overhead:.2f}x above the "
            f"{OVERHEAD_GATE:.1f}x bar"
        )

    cold_ms, harvest_ms, exact = stats_after_max_deletes()
    if not exact:
        failures.append("stats: maintained statistics differ from a fresh harvest")

    writes = {}
    for engine, rel in e2e_lineitems().items():
        layout, payload = (AU, (1, 1, 1)) if engine == "au" else (DET, 1)
        build_ms, add_us, delete_us = write_costs(rel, layout, payload)
        writes[engine] = {
            "rows": len(rel),
            "columns": len(rel.schema),
            "build_ms": round(build_ms, 3),
            "add_us": round(add_us, 2),
            "delete_us": round(delete_us, 2),
        }

    print(
        f"paged chunked storage: {N_ROWS} rows clustered on k, "
        f"selective cut k>={SELECTIVE_CUT}"
    )
    print(f"{'query':<10} {'single-chunk[s]':>15} {'chunked[s]':>11} {'ratio':>8}")
    print(
        f"{'selective':<10} {t_flat:>15.4f} {t_chunk:>11.4f} "
        f"{speedup:>7.2f}x  (gate >= {SKIP_GATE:.1f}x, {len(r_chunk)} rows)"
    )
    print(
        f"{'prepared':<10} {t_prep_flat:>15.4f} {t_prep_chunk:>11.4f} "
        f"{prep_speedup:>7.2f}x  (gate >= {SKIP_GATE:.1f}x, "
        f"{len(r_prep_chunk)} rows)"
    )
    print(
        f"{'full-scan':<10} {t_flat_full:>15.4f} {t_chunk_full:>11.4f} "
        f"{overhead:>7.2f}x  (gate <= {OVERHEAD_GATE:.1f}x on the median "
        f"of {OVERHEAD_PAIRS} alternating pairs, {len(r_chunk_full)} groups)"
    )
    print(
        f"{'stats':<10} harvest after a max-key delete {harvest_ms:.1f} ms "
        f"(median of {STATS_DELETES}; cold full-scan harvest "
        f"{cold_ms:.1f} ms; not gated)"
    )
    for engine, w in writes.items():
        print(
            f"{'writes':<10} {engine:<3} lineitem {w['rows']}x{w['columns']}: "
            f"store build {w['build_ms']:.1f} ms (best of {BUILD_REPEATS}), "
            f"add {w['add_us']:.1f} us, delete {w['delete_us']:.1f} us "
            f"(medians of {WRITE_ROWS}; not gated)"
        )
    for failure in failures:
        print(f"FAIL: {failure}")

    from _results import write_result

    write_result(
        "storage",
        {
            "benchmark": "storage",
            "rows": N_ROWS,
            "gates": {"skip": SKIP_GATE, "overhead": OVERHEAD_GATE},
            "selective": {
                "single_chunk_s": round(t_flat, 6),
                "chunked_s": round(t_chunk, 6),
                "speedup": round(speedup, 4),
            },
            "prepared_selective": {
                "single_chunk_s": round(t_prep_flat, 6),
                "chunked_s": round(t_prep_chunk, 6),
                "speedup": round(prep_speedup, 4),
            },
            "full_scan": {
                "single_chunk_s": round(t_flat_full, 6),
                "chunked_s": round(t_chunk_full, 6),
                "overhead": round(overhead, 4),
                "pairs": OVERHEAD_PAIRS,
            },
            "stats_after_deletes": {
                "cold_harvest_ms": round(cold_ms, 3),
                "harvest_ms": round(harvest_ms, 3),
                "deletes": STATS_DELETES,
                "exact": exact,
            },
            "writes": {
                **writes,
                "build_repeats": BUILD_REPEATS,
                "write_rows": WRITE_ROWS,
            },
            "failures": failures,
        },
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Incremental view maintenance benchmark: subscribe() vs re-execution.

The serving shape IVM exists for: a join + group-by aggregate view over
a large fact table, read after every write of a 100-write stream.  The
maintained path holds one ``Connection.subscribe()`` view — each write
delta-joins a single tuple against the small dimension side, writes
the result into the view's kept join segment and folds it into the
aggregate's γ state (O(|S|) work per write), so the per-read cost is
just finalizing the state (the first read builds it).  The baseline re-executes
the same prepared query after every write and pays the full O(|R|) scan
+ join + aggregation each time.  Results must match write for write.

Every write reaches the view's segment plans as a bound one-row batch,
so it builds no chunk store: the standalone run reports the stores
built per write on the det stream and on both AU views below, and fails
unless each reads 0.

Run standalone for a throughput report (asserts the >=10x acceptance
bar)::

    PYTHONPATH=src python benchmarks/bench_ivm.py

or under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_ivm.py

The standalone run also measures two AU views over an orders-like AU
table with 1 % uncertain keys: a ``GROUP BY status`` aggregate, which
keeps its γ state and folds each certain-key write into it, and a top-k,
which re-runs its non-linear tail on every dirty read.  Per view it
reports the median dirty-read time, the median time of a read forced
from scratch by ``view.refresh()`` on the same stream, and the chunk
stores built and γ states rebuilt per dirty read (0 while the segments'
stores and the aggregate's state are maintained by the writes).  The
``GROUP BY status`` dirty read is gated at <= 0.25x its refresh read.

Then, ungated: the same ``GROUP BY status`` view (``COUNT`` + ``SUM``)
over 7 500 orders, timed on the first certain-key delete after a γ
rebuild (forced by an uncertain-key insert) and on the next one, write
plus read each.
Taking a contribution out of a kept state costs the same whether or not
the state was just rebuilt, so the two should be close.

Last, ungated: a det join + ``MIN`` view over the same ``r ⋈ s``, read
after each of a stream of deletes that each take a group's current
minimum.  The kept γ state cannot fold such a delete (the runner-up is
not kept), so every such read re-runs the γ over the view's kept
segment — not the join.  It reports the median read, the median
re-execution of the same query for scale, and the γ states rebuilt per
read (1.0: one per extremum delete).
"""

import gc
import random
import statistics
import time

import pytest

from repro.core.ranges import between
from repro.core.relation import AUDatabase, AURelation
from repro.db.storage import DetDatabase, DetRelation
from repro.session import Connection
from repro.telemetry import get_registry

N_FACT = 15_000
N_DIM = 64
N_WRITES = 100
GATE = 10.0  # maintained view vs re-execution, whole stream
#: the AU GROUP BY view's dirty read vs its read after view.refresh()
GAMMA_GATE = 0.25
_BUILDS = get_registry().counter("repro_storage_chunk_store_builds_total")

SQL = (
    "SELECT d, SUM(b) AS total, COUNT(*) AS n "
    "FROM r, s WHERE a = c GROUP BY d"
)


def make_db(n_fact: int = N_FACT, n_dim: int = N_DIM) -> DetDatabase:
    """A fact table r(a, b) joining a small dimension s(c, d)."""
    db = DetDatabase({})
    r = DetRelation(("a", "b"))
    for i in range(n_fact):
        r.add((i % n_dim, float(i % 97)), 1 + (i % 3))
    s = DetRelation(("c", "d"))
    for j in range(n_dim):
        s.add((j, j % 8), 1)
    db["r"] = r
    db["s"] = s
    return db


def write_stream(n_writes: int = N_WRITES):
    """A deterministic insert/delete-interleaved stream against ``r``."""
    ops = []
    for i in range(n_writes):
        if i % 3 == 2:
            # every third op removes what the previous op inserted
            ops.append(("delete", ops[-1][1], 1))
        else:
            t = ((i * 7) % N_DIM, float((i * 13) % 97) + 0.5)
            ops.append(("add", t, 1))
    return ops


MIN_SQL = "SELECT d, MIN(b) AS low, COUNT(*) AS n FROM r, s WHERE a = c GROUP BY d"
N_EXTREMUM_DELETES = 24
#: orders under the AU GROUP BY view whose removals after a rebuild are timed
N_REMOVAL_ORDERS = 7_500
N_REMOVAL_ROUNDS = 5


N_ORDERS = 600
AU_VIEWS = {
    "group_by_status": (
        "SELECT status, COUNT(*) AS n, SUM(price) AS total "
        "FROM orders GROUP BY status"
    ),
    "topk": "SELECT okey, price FROM orders ORDER BY price DESC LIMIT 10",
}


def make_au_orders(n_orders: int = N_ORDERS, seed: int = 7) -> AUDatabase:
    """orders(okey, status, price): 1 % of the statuses (the group key)
    and 1 % of the prices (the order key) are ranges."""
    rng = random.Random(seed)
    orders = AURelation(("okey", "status", "price"))
    for k in range(n_orders):
        status = rng.choice("FOP")
        price = round(rng.uniform(1000.0, 300000.0), 2)
        if rng.random() < 0.01:
            status = between("F", status, "P")
        if rng.random() < 0.01:
            price = between(price - 5000.0, price, price + 5000.0)
        orders.add((k, status, price), (1, 1, 1))
    return AUDatabase({"orders": orders})


def _gamma_rebuilds() -> float:
    series = get_registry().dump().get("repro_ivm_gamma_state_rebuilds_total")
    return sum(s["value"] for s in series["series"]) if series else 0.0


def run_au_view(sql: str, n_writes: int = N_WRITES):
    """Write, read the view, then read it again forced from scratch by
    ``view.refresh()``, per op; returns the dirty-read seconds, the
    refresh-read seconds, the chunk stores built by the writes, the
    chunk stores built and the γ states rebuilt during the dirty reads,
    and whether the last read equals a fresh execution."""
    db = make_au_orders()
    conn = Connection(db)
    view = conn.subscribe(sql)
    view.result()
    rng = random.Random(11)
    live = []
    reads = []
    refreshes = []
    write_built = built = rebuilt = 0
    for i in range(n_writes):
        before = _BUILDS.value
        if i % 3 == 2:
            db["orders"].delete(live.pop(), (1, 1, 1))
        else:
            row = (N_ORDERS + i, rng.choice("FOP"), round(rng.uniform(1000.0, 300000.0), 2))
            db["orders"].add(row, (1, 1, 1))
            live.append(row)
        write_built += _BUILDS.value - before
        before = _BUILDS.value, _gamma_rebuilds()
        start = time.perf_counter()
        got = view.result()
        reads.append(time.perf_counter() - start)
        built += _BUILDS.value - before[0]
        rebuilt += _gamma_rebuilds() - before[1]
        start = time.perf_counter()
        view.refresh()
        refreshes.append(time.perf_counter() - start)
    fresh = Connection(db).execute(sql)
    same = [repr(t) for t in got.tuples()] == [repr(t) for t in fresh.tuples()]
    view.close()
    return reads, refreshes, write_built, built, rebuilt, same


def run_removals_after_rebuild(
    n_orders: int = N_REMOVAL_ORDERS, rounds: int = N_REMOVAL_ROUNDS
):
    """Per round: make the ``GROUP BY status`` view rebuild its γ state
    (an order with an uncertain status, then a read: the segment and its
    chunk store stay as they are), then delete the last two certain-key
    orders, write plus read each; returns the first and the second
    removal's seconds per round, the γ states rebuilt by the timed
    writes and reads, and whether the last read equals a fresh
    execution."""
    sql = AU_VIEWS["group_by_status"]
    db = make_au_orders(n_orders)
    orders = db["orders"]
    victims = [t for t, _ann in orders.tuples() if t[1].is_certain]
    victims = victims[::-1][: 2 * rounds]
    conn = Connection(db)
    view = conn.subscribe(sql)
    view.result()
    first, later = [], []
    rebuilt = 0
    for r in range(rounds):
        orders.add((n_orders + r, between("F", "O", "P"), 1.0), (1, 1, 1))
        view.result()
        before = _gamma_rebuilds()
        for times, t in ((first, victims[2 * r]), (later, victims[2 * r + 1])):
            gc.collect()  # neither pays a collection of the rebuild's garbage
            start = time.perf_counter()
            orders.delete(t, (1, 1, 1))
            got = view.result()
            times.append(time.perf_counter() - start)
        rebuilt += _gamma_rebuilds() - before
    fresh = Connection(db).execute(sql)
    same = [repr(t) for t in got.tuples()] == [repr(t) for t in fresh.tuples()]
    view.close()
    return first, later, rebuilt, same


def run_extremum_deletes(n_deletes: int = N_EXTREMUM_DELETES):
    """Per op: delete one copy of the row holding a group's minimum
    ``b``, then read the det join + ``MIN`` view and re-execute the
    query; returns the read seconds, the re-execution seconds, the γ
    states rebuilt during the reads, and whether every read equals its
    re-execution as a bag."""
    db = make_db()
    conn = Connection(db)
    view = conn.subscribe(MIN_SQL)
    view.result()
    prepared = conn.prepare(MIN_SQL)
    reads = []
    fresh_times = []
    rebuilt = 0
    same = True
    for i in range(n_deletes):
        d = i % 8  # s maps c to d = c % 8, and r's a joins c
        t = min((t for t in db["r"].rows if t[0] % 8 == d), key=lambda t: t[1])
        db["r"].delete(t, 1)
        before = _gamma_rebuilds()
        start = time.perf_counter()
        got = view.result()
        reads.append(time.perf_counter() - start)
        rebuilt += _gamma_rebuilds() - before
        start = time.perf_counter()
        want = prepared.execute()
        fresh_times.append(time.perf_counter() - start)
        same = same and sorted(map(repr, got.tuples())) == sorted(
            map(repr, want.tuples())
        )
    view.close()
    return reads, fresh_times, rebuilt, same


def run_maintained(db: DetDatabase, ops, tally=None) -> list:
    """Write, then read the view, per op; ``tally`` (a three-slot list)
    accumulates the seconds spent in the writes (storage + delta apply),
    the seconds of the maintained reads and the chunk stores the writes
    built."""
    conn = Connection(db)
    view = conn.subscribe(SQL)
    out = []
    for op, t, m in ops:
        builds = _BUILDS.value
        t0 = time.perf_counter()
        getattr(db["r"], op)(t, m)
        t1 = time.perf_counter()
        built = _BUILDS.value - builds
        out.append(view.result())
        if tally is not None:
            tally[0] += t1 - t0
            tally[1] += time.perf_counter() - t1
            tally[2] += built
    view.close()
    return out


def run_reexecute(db: DetDatabase, ops) -> list:
    conn = Connection(db)
    prepared = conn.prepare(SQL)
    out = []
    for op, t, m in ops:
        getattr(db["r"], op)(t, m)
        out.append(prepared.execute())
    return out


@pytest.fixture()
def dbs():
    return make_db(), make_db()


def test_maintained_view_stream(benchmark, dbs):
    ops = write_stream()
    benchmark(lambda: run_maintained(dbs[0], ops))


def test_reexecuted_view_stream(benchmark, dbs):
    ops = write_stream()
    benchmark(lambda: run_reexecute(dbs[1], ops))


def main() -> int:
    ops = write_stream()

    # warm-up on throwaway databases (statistics harvest, plan cache)
    run_maintained(make_db(), ops[:4])
    run_reexecute(make_db(), ops[:4])

    db_m = make_db()
    tally = [0.0, 0.0, 0]
    start = time.perf_counter()
    maintained = run_maintained(db_m, ops, tally)
    t_m = time.perf_counter() - start

    db_r = make_db()
    start = time.perf_counter()
    reexecuted = run_reexecute(db_r, ops)
    t_r = time.perf_counter() - start

    failures = []
    for i, (a, b) in enumerate(zip(maintained, reexecuted)):
        if a.schema != b.schema or sorted(
            repr(x) for x in a.tuples()
        ) != sorted(repr(x) for x in b.tuples()):
            failures.append(f"write {i}: maintained view differs from fresh")
            break

    speedup = t_r / t_m if t_m > 0 else float("inf")
    print(
        f"join+aggregate view over r({N_FACT} rows) ⋈ s({N_DIM} rows), "
        f"{N_WRITES}-write stream, read after every write"
    )
    print(f"re-execute per write : {t_r / N_WRITES * 1e3:8.3f} ms/write")
    print(f"maintained view      : {t_m / N_WRITES * 1e3:8.3f} ms/write")
    print(f"  write + delta apply: {tally[0] / N_WRITES * 1e6:8.1f} us/write")
    print(f"  maintained read    : {tally[1] / N_WRITES * 1e6:8.1f} us/read")
    print(f"  chunk-store builds : {tally[2] / N_WRITES:8.2f} /write (gate: 0)")
    print(f"speedup              : {speedup:8.1f}x  (gate: >={GATE:.0f}x)")
    if speedup < GATE:
        failures.append(f"speedup {speedup:.1f}x below the {GATE:.0f}x bar")
    if tally[2]:
        failures.append(f"det stream: {tally[2]} chunk stores built by its writes")

    au_views = {}
    print(f"AU views over orders({N_ORDERS} rows, 1 % uncertain keys), per write:")
    for name, sql in AU_VIEWS.items():
        run_au_view(sql, 4)  # warm-up
        reads, refreshes, write_built, built, rebuilt, same = run_au_view(sql)
        dirty = statistics.median(reads)
        refresh = statistics.median(refreshes)
        au_views[name] = {
            "dirty_read_ms": round(dirty * 1e3, 4),
            "refresh_read_ms": round(refresh * 1e3, 4),
            "dirty_vs_refresh": round(dirty / refresh, 4),
            "store_builds_per_write": round(write_built / len(reads), 4),
            "store_builds_per_read": round(built / len(reads), 4),
            "gamma_rebuilds_per_read": round(rebuilt / len(reads), 4),
        }
        print(
            f"  {name:16s}: dirty read {dirty * 1e3:8.3f} ms, refresh read "
            f"{refresh * 1e3:8.3f} ms ({dirty / refresh:.3f}x), "
            f"{write_built / len(reads):.2f} chunk-store builds/write, "
            f"{built / len(reads):.2f}/read, "
            f"{rebuilt / len(reads):.2f} γ-state rebuilds/read"
        )
        if not same:
            failures.append(f"AU view {name}: maintained result differs from fresh")
        if write_built:
            failures.append(f"AU view {name}: {write_built} chunk stores built by its writes")
    ratio = au_views["group_by_status"]["dirty_vs_refresh"]
    if ratio > GAMMA_GATE:
        failures.append(
            f"AU GROUP BY dirty read {ratio:.3f}x its refresh read "
            f"(gate: <={GAMMA_GATE}x)"
        )

    run_removals_after_rebuild(600, 1)  # warm-up
    first, later, rebuilt, same = run_removals_after_rebuild()
    removals = {
        "orders": N_REMOVAL_ORDERS,
        "rounds": len(first),
        "first_removal_ms": round(statistics.median(first) * 1e3, 4),
        "later_removal_ms": round(statistics.median(later) * 1e3, 4),
        "gamma_rebuilds": rebuilt,
    }
    removals["first_vs_later"] = round(
        removals["first_removal_ms"] / removals["later_removal_ms"], 2
    )
    print(
        f"AU GROUP BY view over orders({N_REMOVAL_ORDERS} rows), write + read: "
        f"first removal after a γ rebuild {removals['first_removal_ms']:8.3f} ms, "
        f"a later one {removals['later_removal_ms']:8.3f} ms "
        f"({removals['first_vs_later']:.1f}x), {rebuilt:.0f} γ-state rebuilds"
    )
    if not same:
        failures.append("AU GROUP BY removals: maintained result differs from fresh")

    run_extremum_deletes(2)  # warm-up
    reads, fresh_times, rebuilt, same = run_extremum_deletes()
    extremum = {
        "deletes": len(reads),
        "read_ms": round(statistics.median(reads) * 1e3, 4),
        "reexecute_ms": round(statistics.median(fresh_times) * 1e3, 4),
        "gamma_rebuilds_per_read": round(rebuilt / len(reads), 4),
    }
    print(
        f"det join+MIN view, read after a MIN-extremum delete: "
        f"{extremum['read_ms']:8.3f} ms (re-execute "
        f"{extremum['reexecute_ms']:.3f} ms), "
        f"{extremum['gamma_rebuilds_per_read']:.2f} γ-state rebuilds/read"
    )
    if not same:
        failures.append("det join+MIN view: maintained result differs from fresh")
    for f in failures:
        print(f"FAIL: {f}")

    from _results import write_result

    write_result(
        "ivm",
        {
            "benchmark": "ivm",
            "fact_rows": N_FACT,
            "dim_rows": N_DIM,
            "writes": N_WRITES,
            "gate": GATE,
            "write_apply_us": round(tally[0] / N_WRITES * 1e6, 2),
            "maintained_read_us": round(tally[1] / N_WRITES * 1e6, 2),
            "store_builds_per_write": round(tally[2] / N_WRITES, 4),
            "maintained_ms_per_write": round(t_m / N_WRITES * 1e3, 4),
            "reexecute_ms_per_write": round(t_r / N_WRITES * 1e3, 4),
            "speedup": round(speedup, 2),
            "gamma_gate": GAMMA_GATE,
            "au_views": au_views,
            "au_removal_after_rebuild": removals,
            "det_min_extremum_delete": extremum,
            "failures": failures,
        },
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

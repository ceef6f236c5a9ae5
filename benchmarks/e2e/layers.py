"""The traced run: harness spans, staged re-drive, counters, layer probes.

Everything here measures a layer from outside it, through a public
function or a counter the program already exports:

* **spans** — one root span per op around the public call; on a seeded
  sample of query ops the same statement is re-driven stage by stage
  (``parse_sql`` → ``verify_logical`` → ``optimize`` →
  ``bind_parameters`` → ``lower`` → executor), one child span each,
  and the program's own ``Connection.last_trace`` contributes its stage
  and operator spans.  A layer's number is its self time: the span
  minus its children.  Spans stay in memory and are written once, as
  Chrome trace-event JSON, when the run ends.
* **counters** — deltas of ``Connection.metrics.snapshot()`` and of the
  process registry around a window that runs no oracle code, divided by
  the window's ops.
* **probes** — after the window, on a cache-less clone of the
  workload's database: statistics harvest, chunk-store build, bare
  ``add``/``delete``, the IVM write and read paths, and the
  ``repro.core`` kernels called directly.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import json
import os
import random
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import analysis, telemetry
from repro.algebra.evaluator import execute_physical_audb
from repro.algebra.optimizer import Statistics, optimize
from repro.core.aggregation import agg_count, agg_sum, aggregate
from repro.core.compression import optimized_join
from repro.core.expressions import Eq, Var
from repro.core.operators import au_topk
from repro.core.relation import AUDatabase, AURelation
from repro.core.sums import exact_sum
from repro.db.chunks import storage_report
from repro.db.engine import execute_physical_det
from repro.db.storage import DetDatabase, DetRelation
from repro.exec import physical as phys
from repro.exec.vectorized import execute_audb, execute_det
from repro.session import Connection, bind_parameters
from repro.sql.parser import parse_sql

import generators as gen
import harness
from workloads import CERTAIN, same_au, same_bits

#: target number of re-driven ops per traced window
REDRIVE_SAMPLES = 48
PROBE_WRITES = 100
PROBE_REPEATS = 5

#: physical operator class -> the ``op.<category>_share`` it counts into
OPERATOR_CATEGORY = {
    "Scan": "scan",
    "ParallelScan": "scan",
    "FusedSelectProject": "select_project",
    "Rename": "select_project",
    "Concat": "select_project",
    "HashJoin": "hash_join",
    "NLJoin": "hash_join",
    "CompressedJoin": "hash_join",
    "HashAggregate": "aggregate",
    "AUPartialAggregate": "aggregate",
    "HashDistinct": "aggregate",
    "TopK": "topk",
    "Limit": "topk",
    "TupleFallback": "tuple_fallback",
    "Exchange": "exchange",
}
CATEGORIES = (
    "scan", "select_project", "hash_join", "aggregate", "topk",
    "tuple_fallback", "exchange",
)
COMPILE_STAGES = ("parse", "analyze", "optimize", "lower")

#: registry counter -> per-layer metric (reported per timed op)
REGISTRY_COUNTERS = {
    "repro_stats_observes_total": "stats.observes",
    "repro_stats_rescans_total": "stats.rescans",
    "repro_storage_chunks_scanned_total": "chunks.scanned",
    "repro_storage_chunks_skipped_total": "chunks.skipped",
    "repro_storage_zone_rebuilds_total": "chunks.zone_rebuilds",
    "repro_ivm_delta_applies_total": "ivm.delta_applies",
    "repro_ivm_delta_fold_fallbacks_total": "ivm.fold_fallbacks",
    "repro_ivm_full_refreshes_total": "ivm.full_refreshes",
    "repro_ivm_segment_refreshes_total": "ivm.segment_refreshes",
    "repro_ivm_tail_refreshes_total": "ivm.tail_refreshes",
}
#: read around the parallel probe, not the window (see parallel_probe)
PARALLEL_COUNTERS = {
    "repro_parallel_pool_forks_total": "parallel.pool_forks",
    "repro_parallel_pool_reuses_total": "parallel.pool_reuses",
    "repro_parallel_pool_invalidations_total": "parallel.pool_invalidations",
    "repro_parallel_tasks_total": "parallel.tasks",
    "repro_parallel_au_serial_fallbacks_total": "parallel.au_serial_fallbacks",
}
SESSION_COUNTERS = {
    "parses": "session.parses",
    "lowerings": "session.lowerings",
    "relowerings": "physical.relowerings",
    "stats_refreshes": "stats.refreshes",
}


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Spans:
    """Harness spans: ``(name, cat, start, end, parent index, op id)``."""

    def __init__(self) -> None:
        self.rows: List[Tuple[str, str, float, float, int, int]] = []

    def add(self, name, cat, start, end, parent, op_id) -> int:
        self.rows.append((name, cat, start, end, parent, op_id))
        return len(self.rows) - 1

    def write_chrome_trace(self, path: str) -> None:
        """Complete (``"X"``) events, µs since the first span; ``args``
        carry the op id and the parent span's index."""
        t0 = min((row[2] for row in self.rows), default=0.0)
        events = [
            {
                "name": name, "cat": cat, "ph": "X", "pid": os.getpid(), "tid": 0,
                "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "args": {"op": op_id, "parent": parent, "span": index},
            }
            for index, (name, cat, start, end, parent, op_id) in enumerate(self.rows)
        ]
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events}, fh)


# ----------------------------------------------------------------------
# counters
# ----------------------------------------------------------------------
def read_counters(workload) -> Counter:
    """Session counters of the workload's own connections plus every
    registry counter, by metric name."""
    out: Counter = Counter()
    for conn in workload.connections():
        for field, value in conn.metrics.snapshot().items():
            out[f"session:{field}"] += value
    for name, entry in telemetry.get_registry().dump().items():
        if entry["type"] == "counter":
            out[name] = sum(series["value"] for series in entry["series"])
    return out


def counter_metrics(before: Counter, after: Counter, n_ops: int, n_views: int) -> Dict[str, float]:
    delta = {key: after[key] - before[key] for key in after}
    out = {
        metric: delta.get(name, 0) / n_ops for name, metric in REGISTRY_COUNTERS.items()
    }
    for field, metric in SESSION_COUNTERS.items():
        out[metric] = delta.get(f"session:{field}", 0) / n_ops
    lookups = delta.get("session:cache_hits", 0) + delta.get("session:cache_misses", 0)
    executions = delta.get("session:executions", 0)
    touched = out["chunks.scanned"] + out["chunks.skipped"]
    refreshes = (
        out["ivm.full_refreshes"] + out["ivm.segment_refreshes"] + out["ivm.tail_refreshes"]
    ) * n_ops
    out.update({
        "session.plan_cache_hit_share": (
            delta.get("session:cache_hits", 0) / lookups if lookups else 0.0
        ),
        "session.result_memo_hit_share": (
            delta.get("session:result_cache_hits", 0) / executions if executions else 0.0
        ),
        "chunks.skip_share": out["chunks.skipped"] / touched if touched else 0.0,
        "ivm.refresh_share": refreshes / n_views if n_views else 0.0,
    })
    return out


# ----------------------------------------------------------------------
# the staged re-drive
# ----------------------------------------------------------------------
def _executor(conn: Connection) -> Callable[[Any, Any], Any]:
    if conn.config.backend == "vectorized":
        return execute_det if conn.engine == "det" else execute_audb
    return execute_physical_det if conn.engine == "det" else execute_physical_audb


class Redrive:
    """Re-drives sampled statements through the layers' public
    functions and keeps what the per-layer metrics need."""

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self.stage_ms: Dict[str, List[float]] = defaultdict(list)
        self.rewrites: List[int] = []
        self.fallback_nodes: List[int] = []
        self.parallel_regions: List[int] = []
        self.public_ms: List[float] = []
        self.mismatches = 0
        self._memo_hits: Dict[int, int] = {}

    def memo_hit(self, conn: Connection) -> bool:
        """Whether the op just run on ``conn`` was answered from the
        result memo (call once after every query op)."""
        hits = conn.metrics.result_cache_hits
        previous = self._memo_hits.get(id(conn), hits)
        self._memo_hits[id(conn)] = hits
        return hits != previous

    def drive(self, op_id, conn: Connection, sql: str, params, public_result, public_s: Optional[float]) -> None:
        """``public_s`` is the public call's time, or ``None`` when the
        memo answered it (no execution to compare against)."""
        config = conn.config
        stats = conn.statistics()
        clock = time.perf_counter
        marks = [clock()]
        plan = parse_sql(sql)
        marks.append(clock())
        analysis.verify_logical(plan, stats)
        marks.append(clock())
        fired: List[str] = []
        optimized = plan
        if config.optimize:
            optimized = optimize(
                plan, stats, join_order=config.join_order,
                semantics="bag" if conn.engine == "det" else "au", trace=fired,
            )
        marks.append(clock())
        bound = bind_parameters(optimized, params or None)
        marks.append(clock())
        pplan = phys.lower(
            bound,
            stats,
            phys.PhysicalConfig(
                engine=conn.engine,
                backend=config.backend,
                parallelism=config.parallelism,
                hash_join=config.hash_join,
                join_buckets=config.join_buckets,
                aggregation_buckets=config.aggregation_buckets,
                adaptive_compression=config.adaptive_compression and config.optimize,
                chunk_size=config.chunk_size,
            ),
        )
        marks.append(clock())
        result = _executor(conn)(pplan, conn.db)
        marks.append(clock())

        root = self.spans.add("redrive", "harness", marks[0], marks[-1], -1, op_id)
        names = ("parse", "verify", "optimize", "bind", "lower", "execute")
        for name, start, end in zip(names, marks, marks[1:]):
            self.spans.add(name, "stage", start, end, root, op_id)
            self.stage_ms[name].append((end - start) * 1e3)
        if public_s is not None:
            self.public_ms.append(public_s * 1e3)
        self.rewrites.append(len(fired))
        nodes = [type(node).__name__ for node in pplan.walk()]
        self.fallback_nodes.append(nodes.count("TupleFallback"))
        self.parallel_regions.append(nodes.count("Exchange"))
        same = same_bits if conn.engine == "det" else same_au
        if not same(result, public_result):
            self.mismatches += 1

    def metrics(self) -> Dict[str, float]:
        def med(values):
            return statistics.median(values) if values else 0.0

        def mean(values):
            return statistics.fmean(values) if values else 0.0

        stage = {name: med(values) for name, values in self.stage_ms.items()}
        return {
            "sql.parse_ms": stage.get("parse", 0.0),
            "analysis.verify_ms": stage.get("verify", 0.0),
            "optimizer.optimize_ms": stage.get("optimize", 0.0),
            "optimizer.rewrites_fired": mean(self.rewrites),
            "session.bind_ms": stage.get("bind", 0.0),
            "physical.lower_ms": stage.get("lower", 0.0),
            "physical.fallback_nodes": mean(self.fallback_nodes),
            "physical.parallel_regions": mean(self.parallel_regions),
            "exec.execute_ms": stage.get("execute", 0.0),
            "session.overhead_ms": med(self.public_ms) - stage.get("execute", 0.0),
            "trace.redriven_ops": len(self.rewrites),
        }


# ----------------------------------------------------------------------
# the program's own trace
# ----------------------------------------------------------------------
class ProgramTraces:
    """Folds ``Connection.last_trace`` of traced query ops into compile
    share, stage coverage, operator self-time shares and rows scanned
    per row out."""

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self.compile_s = 0.0
        self.stage_s = 0.0
        self.op_s = 0.0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.scanned = 0
        self.rows_out = 0

    def fold(self, op_id: int, root: int, trace, op_seconds: float, keep_spans: bool) -> None:
        self.op_s += op_seconds
        for span in trace.root.children:
            if span.cat == "stage":
                self.stage_s += span.duration
                if span.name in COMPILE_STAGES:
                    self.compile_s += span.duration
        if keep_spans:
            self._walk(trace.root, root, op_id, top=True)

    def _walk(self, span, parent: int, op_id: int, top: bool = False) -> None:
        index = parent
        if not top and span.cat != "mark" and span.end is not None:
            index = self.spans.add(span.name, f"repro.{span.cat}", span.start, span.end, parent, op_id)
        if span.cat == "operator":
            children = sum(c.duration for c in span.children if c.cat == "operator")
            category = OPERATOR_CATEGORY.get(span.name, "select_project")
            self.self_s[category] += max(0.0, span.duration - children)
            rows = span.attrs.get("rows_out", 0) or 0
            if category == "scan":
                self.scanned += rows
        elif span.cat == "stage" and span.name == "execute":
            for child in span.children:
                if child.cat == "operator":
                    self.rows_out += child.attrs.get("rows_out", 0) or 0
        for child in span.children:
            self._walk(child, index, op_id)

    def metrics(self) -> Dict[str, float]:
        total = sum(self.self_s.values())
        out = {
            f"op.{c}_share": (self.self_s[c] / total if total else 0.0) for c in CATEGORIES
        }
        out["exec.rows_scanned_per_row_out"] = self.scanned / max(1, self.rows_out)
        out["trace.compile_share"] = self.compile_s / self.op_s if self.op_s else 0.0
        # what the program's stage spans leave uncovered is the session
        # layer's self time (cache lookup, binding, memos)
        out["trace.layer_coverage"] = self.stage_s / self.op_s if self.op_s else 0.0
        return out


def sample_rate(seconds: float, baseline) -> float:
    """Share of query ops to re-drive so a window of ``seconds`` yields
    about :data:`REDRIVE_SAMPLES`, from the untraced window's pace."""
    queries = [r for r in baseline.records if r.kind == "query"]
    if not queries or baseline.op_seconds <= 0:
        return 1.0
    expected = len(queries) * seconds / baseline.op_seconds
    return min(1.0, REDRIVE_SAMPLES / max(1.0, expected))


def overhead_ratio(baseline, traced) -> float:
    """Traced ÷ untraced wall over query ops, statement mix held equal:
    each traced op against its statement's untraced mean (means, so a
    statement answered half the time from the memo compares like with
    like)."""
    walls: Dict[str, List[float]] = defaultdict(list)
    for r in baseline.records:
        if r.kind == "query":
            walls[r.stmt].append(r.wall)
    means = {stmt: statistics.fmean(values) for stmt, values in walls.items()}
    pairs = [
        (r.wall, means[r.stmt])
        for r in traced.records
        if r.kind == "query" and r.stmt in means
    ]
    expected = sum(mean for _wall, mean in pairs)
    return sum(wall for wall, _mean in pairs) / expected if expected else 1.0


# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------
def clone_database(db):
    """A copy with none of the source's caches (statistics, columnar
    image, chunk store, delta sinks)."""
    if isinstance(db, DetDatabase):
        return DetDatabase(
            {n: DetRelation(r.schema, dict(r.rows)) for n, r in db.relations.items()}
        )
    out = AUDatabase({})
    for name, rel in db.relations.items():
        copy = AURelation(rel.schema)
        for row, annotation in rel.tuples():
            copy.add(row, annotation)
        out[name] = copy
    return out


def _median_ms(fn: Callable[[], Any], repeats: int = PROBE_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def _fresh_rows(rel, n: int) -> List[tuple]:
    """``n`` rows not in ``rel``: its first row with the first column
    moved past every existing key."""
    template = next(iter(rel.tuples()))[0]
    return [(10**9 + i,) + tuple(template[1:]) for i in range(n)]


def _timed_writes(rel, rows: List[tuple], payload) -> Tuple[float, float]:
    """Median ms of ``rel.add`` and of ``rel.delete`` over ``rows``."""
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
    return statistics.median(adds) * 1e3, statistics.median(deletes) * 1e3


def storage_probes(db) -> Dict[str, float]:
    """Harvest, chunk build and bare writes on a cache-less clone."""
    clone = clone_database(db)
    start = time.perf_counter()
    Statistics.from_database(clone)
    harvest_ms = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    report = storage_report(clone)
    build_ms = (time.perf_counter() - start) * 1e3
    table = max(clone.relations, key=lambda n: len(clone.relations[n]))
    rel = clone.relations[table]
    payload = 1 if isinstance(clone, DetDatabase) else CERTAIN
    add_ms, delete_ms = _timed_writes(rel, _fresh_rows(rel, PROBE_WRITES), payload)
    return {
        "stats.harvest_ms": harvest_ms,
        "chunks.build_ms": build_ms,
        "chunks.bytes": float(sum(report.values())),
        "storage.add_ms": add_ms,
        "storage.delete_ms": delete_ms,
    }


def ivm_probes(workload, bare_add_ms: float) -> Dict[str, float]:
    """Write-with-views and clean/dirty reads on a clone
    (``mixed_rw_views`` only; the layer is idle elsewhere)."""
    if workload.name != "mixed_rw_views":
        return {
            "ivm.write_apply_ms": 0.0, "ivm.result_clean_ms": 0.0, "ivm.result_dirty_ms": 0.0,
        }
    clone = clone_database(workload.db)
    conn = Connection(clone, config=workload.config)
    try:
        views = [conn.subscribe(sql) for sql in gen.MIXED_VIEWS.values()]
        orders = clone["orders"]
        clean, dirty, writes = [], [], []
        clock = time.perf_counter
        for row in _fresh_rows(orders, PROBE_WRITES // 4):
            start = clock()
            orders.add(row, CERTAIN)
            writes.append(clock() - start)
            for view in views:
                start = clock()
                view.result()
                dirty.append(clock() - start)
                start = clock()
                view.result()
                clean.append(clock() - start)
        return {
            "ivm.write_apply_ms": statistics.median(writes) * 1e3 - bare_add_ms,
            "ivm.result_clean_ms": statistics.median(clean) * 1e3,
            "ivm.result_dirty_ms": statistics.median(dirty) * 1e3,
        }
    finally:
        conn.close()


#: per AU workload: (aggregate: table, group-by, summed column),
#: (join: left, right, left key, right key), (top-k: table, order column)
_PDBENCH_KERNELS = (
    ("lineitem", ["l_returnflag", "l_linestatus"], "l_quantity"),
    ("orders", "lineitem", "o_orderkey", "l_orderkey"),
    ("orders", "o_totalprice"),
)
KERNEL_INPUTS = {
    "au_analytics": _PDBENCH_KERNELS,
    "serving_point": _PDBENCH_KERNELS,
    "mixed_rw_views": _PDBENCH_KERNELS,
    "adhoc_compile": (("t0", ["b0"], "c0"), ("t0", "t1", "b0", "a1"), ("t0", "c0")),
}


def core_probes(workload) -> Dict[str, float]:
    """``repro.core`` kernels called directly on the workload's own AU
    relations (no planner, no executor around them)."""
    inputs = KERNEL_INPUTS.get(workload.name)
    if inputs is None:
        return {
            "core.aggregate_ms": 0.0, "core.optimized_join_ms": 0.0,
            "core.au_topk_ms": 0.0, "core.exact_sum_ms": 0.0,
        }
    db = next(d for d in workload.databases() if isinstance(d, AUDatabase))
    (agg_table, group_by, sum_col), (left, right, lkey, rkey), (top_table, top_col) = inputs
    rel = db[agg_table]
    column = rel.attr_index(sum_col)
    weighted = [(row[column].sg, annotation[1]) for row, annotation in rel.tuples()]
    return {
        "core.aggregate_ms": _median_ms(
            lambda: aggregate(
                rel, group_by, [agg_sum(sum_col, "s"), agg_count("n")], compress_buckets=64
            )
        ),
        "core.optimized_join_ms": _median_ms(
            lambda: optimized_join(
                db[left], db[right], Eq(Var(lkey), Var(rkey)), lkey, rkey, 64
            )
        ),
        "core.au_topk_ms": _median_ms(lambda: au_topk(db[top_table], [top_col], True, 10)),
        "core.exact_sum_ms": _median_ms(lambda: exact_sum(weighted)),
    }


def parallel_probe(workload) -> Dict[str, float]:
    """The parallel layer, exercised beside the workload: a second
    connection at ``probe_parallelism`` runs a few rounds of the
    workload's statements; pool counters are per probe op, and
    ``parallel.speedup_vs_serial`` is the join+aggregate statement's
    median time on the workload's own (serial) connection over its
    median time on the probe connection.

    The gated window itself runs at parallelism 1: with two workers on
    a two-core box the wall clock flips between a one-core and a
    two-core regime for tens of seconds at a time, which no statistic
    taken inside a run can remove."""
    out = {metric: 0.0 for metric in PARALLEL_COUNTERS.values()}
    out["parallel.speedup_vs_serial"] = 1.0
    workers = workload.spec.get("probe_parallelism")
    if not workers:
        return out
    workers = min(workers, os.cpu_count() or 1)
    serial = workload.conn
    conn = Connection(serial.db, config=dataclasses.replace(serial.config, parallelism=workers))
    try:
        before = read_counters(workload)
        times: Dict[str, List[float]] = defaultdict(list)
        ops = list(itertools.islice(workload.ops(), workload.block * PROBE_REPEATS))
        for op in ops:
            start = time.perf_counter()
            conn.execute(op.sql, op.params)
            times[op.stmt].append(time.perf_counter() - start)
        after = read_counters(workload)
        for name, metric in PARALLEL_COUNTERS.items():
            out[metric] = (after[name] - before[name]) / len(ops)
        serial_times = []
        for op in ops:
            if op.stmt == "joinagg":
                start = time.perf_counter()
                serial.execute(op.sql, op.params)
                serial_times.append(time.perf_counter() - start)
        out["parallel.speedup_vs_serial"] = statistics.median(serial_times) / statistics.median(
            times["joinagg"]
        )
    finally:
        conn.close()
    return out


def gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def traced_run(workload, calibrator, seconds, max_ops, seed, trace_path):
    """The ``--trace 1`` run: untraced half, traced half, probes.
    Returns ``(attempted, failed, per-layer metrics)`` and writes the
    Chrome trace to ``trace_path``.  Closes the workload."""
    half = seconds / 2
    half_ops = None if max_ops is None else max(1, max_ops // 2)
    ops = workload.ops()

    before = read_counters(workload)
    collections = gc_collections()
    base = harness.run_window(
        workload, ops, workload.block, half, calibrator, half_ops, check=False
    )
    after = read_counters(workload)
    collections = gc_collections() - collections

    spans = Spans()
    redrive = Redrive(spans)
    traces = ProgramTraces(spans)
    rng = random.Random(f"trace:{seed}")
    rate = sample_rate(half, base)
    op_ids = itertools.count()

    def after_op(op, result, start, end):
        op_id = next(op_ids)
        root = spans.add(f"{op.kind}:{op.stmt}", "op", start, end, -1, op_id)
        target = workload.redrive_target(op)
        if target is None or result is None:
            return
        conn, sql, params = target
        executed = not redrive.memo_hit(conn)
        sampled = rng.random() < rate
        if conn.last_trace is not None:
            traces.fold(op_id, root, conn.last_trace, end - start, sampled)
        if sampled:
            telemetry.set_tracing(False)
            try:
                redrive.drive(
                    op_id, conn, sql, params, result, end - start if executed else None
                )
            finally:
                telemetry.set_tracing(True)

    telemetry.set_tracing(True)
    try:
        traced = harness.run_window(
            workload, ops, workload.block, half, calibrator, half_ops, after_op=after_op
        )
    finally:
        telemetry.set_tracing(False)
    if redrive.mismatches:
        print(f"FAILED CHECK: {redrive.mismatches} re-driven results differ", file=sys.stderr)

    n_ops = len(base.records)
    n_views = sum(1 for r in base.records if r.kind == "view")
    metrics = counter_metrics(before, after, n_ops, n_views)
    metrics.update(redrive.metrics())
    metrics.update(traces.metrics())
    metrics["telemetry.trace_overhead_ratio"] = overhead_ratio(base, traced)
    metrics.update(parallel_probe(workload))
    probes = storage_probes(workload.databases()[-1])
    metrics.update(probes)
    metrics.update(ivm_probes(workload, probes["storage.add_ms"]))
    metrics.update(core_probes(workload))
    workload.close()

    base_metrics = harness.window_metrics(base, 0.0)
    for key in ("write_p50_ms", "write_p95_ms", "view_read_p50_ms", "query_samples",
                "timed_ops", "proc.machine_speed_factor"):
        metrics[key] = base_metrics[key]
    metrics.update({
        "tpch.generate_ms": workload.generate_s * 1e3,
        "incomplete.to_audb_ms": workload.to_audb_s * 1e3,
        "ivm.subscribe_ms": workload.subscribe_s * 1e3 / len(gen.MIXED_VIEWS),
        "proc.cpu_utilisation": sum(r.cpu for r in base.records) / base.op_seconds,
        "gc.collections": collections / n_ops,
    })
    spans.write_chrome_trace(trace_path)
    return (
        n_ops + len(traced.records),
        base.failed + traced.failed + redrive.mismatches,
        metrics,
    )

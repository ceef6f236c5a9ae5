"""``python -m repro`` — a small interactive demo shell.

Loads the COVID running example (or an uncertain TPC-H instance with
``--tpch``) and evaluates SQL typed at the prompt against both the
selected-guess world (``Det``) and the AU-DB, so the effect of uncertainty
tracking is visible side by side.

The shell runs over two long-lived :class:`repro.session.Connection`
objects (one per engine), so re-running a query hits the plan cache and
skips parse/optimize/lower; ``--repl`` forces the interactive loop even
when a query is given on the command line.  Observability hooks:
``--explain-analyze`` prints the physical plan with per-operator actual
rows and times, ``--trace-out FILE`` dumps the last query trace as Chrome
trace-event JSON (load via ``chrome://tracing`` or Perfetto), and in the
REPL ``\\timing`` toggles per-query wall-clock display, ``\\metrics``
prints the process-wide metrics registry plus the session counters, and
``\\storage`` prints each table's chunk-store footprint in bytes (also
published as the ``repro_storage_bytes`` gauge).
"""

from __future__ import annotations

import argparse
import sys
import time

from . import analysis, telemetry
from .algebra.evaluator import EvalConfig
from .core.ranges import between
from .core.relation import AUDatabase, AURelation
from .exec import BACKENDS, DEFAULT_BACKEND
from .experiments.common import session_pair
from .sql.parser import SqlSyntaxError


def _demo_db() -> AUDatabase:
    locales = AURelation(["locale", "rate", "size"])
    locales.add(["Los Angeles", between(3.0, 3.0, 4.0), "metro"], (1, 1, 1))
    locales.add(["Austin", 18.0, between("city", "city", "metro")], (1, 1, 1))
    locales.add(["Houston", 14.0, "metro"], (1, 1, 1))
    locales.add(["Berlin", between(1.0, 3.0, 3.0), between("city", "town", "town")], (1, 1, 1))
    locales.add(["Sacramento", 1.0, between("city", "town", "village")], (1, 1, 1))
    locales.add(["Springfield", between(0.0, 5.0, 100.0), "town"], (1, 1, 1))
    return AUDatabase({"locales": locales})


def _tpch_db(scale: float, uncertainty: float) -> AUDatabase:
    from .tpch.pdbench import make_pdbench

    instance = make_pdbench(scale=scale, uncertainty=uncertainty)
    return AUDatabase(instance.audb().relations)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__
    )
    parser.add_argument("--tpch", action="store_true", help="load uncertain TPC-H")
    parser.add_argument("--scale", type=float, default=0.2)
    parser.add_argument("--uncertainty", type=float, default=0.05)
    parser.add_argument(
        "--no-optimize",
        action="store_true",
        help="evaluate the plan exactly as written (skip the logical optimizer)",
    )
    parser.add_argument(
        "--join-order",
        choices=["dp", "greedy"],
        default="dp",
        help="join enumeration strategy: cost-based bushy DP (default) or "
        "the greedy cardinality heuristic",
    )
    parser.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default=DEFAULT_BACKEND,
        help="physical execution backend: the vectorized columnar runtime "
        "(repro.exec, default) or the tuple-at-a-time interpreter",
    )
    parser.add_argument(
        "--parallelism",
        type=int,
        default=1,
        help="morsel-parallel workers for the vectorized backend "
        "(1 = serial; results are identical at any setting)",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print the (optimized) logical plan and the lowered physical "
        "plan with estimated and, after execution, actual per-node rows",
    )
    parser.add_argument(
        "--explain-analyze",
        action="store_true",
        help="execute with tracing and print the physical plan annotated "
        "with per-operator actual rows, estimation-error factors, and "
        "wall-clock times (both engines)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write the most recent query's trace as Chrome trace-event "
        "JSON to FILE (implies tracing for shell queries)",
    )
    parser.add_argument(
        "--verify-plans",
        action="store_true",
        help="re-verify every plan after each optimizer rewrite and after "
        "lowering (the repro.analysis static checks; also enabled by "
        "REPRO_VERIFY_PLANS=1)",
    )
    parser.add_argument(
        "--repl",
        action="store_true",
        help="enter the interactive loop (also after running SQL given on "
        "the command line); one session per engine, so repeated queries "
        "hit the plan cache",
    )
    parser.add_argument("sql", nargs="*", help="run one query and exit")
    args = parser.parse_args(argv)

    if args.verify_plans:
        analysis.set_verification(True)
    audb = _tpch_db(args.scale, args.uncertainty) if args.tpch else _demo_db()
    do_optimize = not args.no_optimize
    det_conn, au_conn = session_pair(
        audb,
        det_config=EvalConfig(
            optimize=do_optimize,
            join_order=args.join_order,
            backend=args.backend,
            parallelism=args.parallelism,
        ),
        au_config=EvalConfig(
            join_buckets=64,
            aggregation_buckets=64,
            optimize=do_optimize,
            join_order=args.join_order,
            adaptive_compression=True,
            backend=args.backend,
            parallelism=args.parallelism,
        ),
    )
    if args.trace_out:
        # per-connection opt-in: traces every shell query without flipping
        # the process-wide default for library code
        det_conn.trace = True
        au_conn.trace = True
    print(f"tables: {', '.join(sorted(audb.relations))}")
    timing = {"on": False}

    def dump_trace() -> None:
        trace = det_conn.last_trace or au_conn.last_trace
        if args.trace_out and trace is not None:
            trace.write_chrome_trace(args.trace_out)
            print(f"trace written to {args.trace_out}")

    def run(sql: str) -> None:
        try:
            prepared = det_conn.prepare(sql)
        except SqlSyntaxError as exc:
            print(f"syntax error: {exc}")
            return
        except analysis.PlanVerificationError as exc:
            # the plan never compiled; with --explain, still render the
            # raw logical plan (with its unknown-table warnings) so the
            # user sees what was rejected
            if args.explain:
                from .algebra.optimizer import explain
                from .sql.parser import parse_sql

                print("-- logical plan --")
                print(explain(parse_sql(sql), det_conn.statistics()))
            print(f"error: {exc}")
            return
        if prepared.parameters:
            print(
                f"query declares parameters {prepared.parameters!r}; "
                "the shell runs literal SQL only — bind via "
                "Connection.execute(sql, params) from Python"
            )
            return
        if args.explain:
            print("-- logical plan --")
            print(prepared.explain_logical())
        try:
            actuals = {} if args.explain else None
            start = time.perf_counter()
            det_result = prepared.execute(actuals=actuals)
            det_seconds = time.perf_counter() - start
            start = time.perf_counter()
            au_result = au_conn.execute(sql)
            au_seconds = time.perf_counter() - start
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            print(f"error: {exc}")
            return
        if args.explain_analyze:
            print(prepared.explain_analyze())
            print(au_conn.explain_analyze(sql))
        if args.explain:
            print("-- logical plan (estimated vs actual rows, Det) --")
            print(prepared.explain_logical(actuals=actuals))
            print(f"-- physical plan (Det, backend={args.backend}) --")
            print(prepared.explain_physical(actuals=actuals))
        print("-- selected-guess world (Det) --")
        for t, m in sorted(det_result.tuples(), key=lambda i: repr(i[0]))[:20]:
            print(f"  {t} x{m}")
        print("-- AU-DB (with bounds) --")
        print(au_result.pretty(limit=20))
        if timing["on"]:
            print(
                f"time: det {det_seconds * 1000.0:.3f}ms, "
                f"au {au_seconds * 1000.0:.3f}ms"
            )
        dump_trace()

    def print_storage() -> None:
        from .db.chunks import storage_report

        for label, conn in (("det", det_conn), ("au", au_conn)):
            report = storage_report(conn.db)
            total = sum(report.values())
            print(f"-- storage ({label}): {total} bytes --")
            for name, bytes_ in report.items():
                print(f"  {name}: {bytes_} bytes")

    def print_metrics() -> None:
        for label, conn in (("det", det_conn), ("au", au_conn)):
            print(f"{label}: {conn.metrics.snapshot()}")
        registry_text = telemetry.get_registry().prometheus_text()
        if registry_text:
            print("-- metrics registry --")
            print(registry_text, end="")

    if args.sql:
        run(" ".join(args.sql))
        if not args.repl:
            return 0

    print(
        "type SQL (or 'quit'; '\\metrics' shows counters + registry, "
        "'\\storage' shows per-table chunk-store bytes, "
        "'\\timing' toggles per-query times):"
    )
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        if line.lower() in {"quit", "exit", "\\q"}:
            break
        if line.lower() == "\\metrics":
            print_metrics()
            continue
        if line.lower() == "\\storage":
            print_storage()
            continue
        if line.lower() == "\\timing":
            timing["on"] = not timing["on"]
            print(f"timing is {'on' if timing['on'] else 'off'}")
            continue
        run(line)
    print_metrics()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

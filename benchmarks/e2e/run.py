"""The repo's end-to-end benchmark: one command, five workloads.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S | --ops N] [--trace 0|1] [--out FILE] [--trace-out FILE]

Each workload runs in a fresh child process (``PYTHONHASHSEED=0``):
five timed set-ups, the oracle's verification bindings, then a
closed-loop single-client window of ``--seconds`` of op time in which
every result is checked.  ``--trace 0`` (default) reports the
end-to-end metrics; ``--trace 1`` splits the window into an untraced
half (counters, baseline) and a traced half (spans, staged re-drive),
runs the layer probes and reports the per-layer metrics.  Metric names,
units, directions and regression bounds are those of ``BENCHMARK.json``.

The last line of standard output is one JSON object — ``correct``,
``attempted``, ``failed``, ``metrics`` — for a single workload, or a
map of them by workload name.  The exit code is non-zero when any op
failed or returned a wrong result, when the default seed's inputs
drifted from ``fingerprints.json``, or when the program cannot be
imported.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
DEFAULT_TRACE_DIR = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 170


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# the child: one workload, one process
# ----------------------------------------------------------------------
def _check_fingerprint(name: str, seed: int, digest: str) -> Optional[str]:
    import generators as gen

    if seed != gen.DEFAULT_SEED:
        return None
    with open(FINGERPRINTS, encoding="utf-8") as fh:
        recorded = json.load(fh).get(name)
    if recorded != digest:
        return (
            f"{name}: the default seed's database + op stream hash to {digest}, "
            f"fingerprints.json records {recorded}: the workload changed "
            "(an edit to repro.tpch / repro.workloads or to generators.py?)"
        )
    return None


def run_child(args: argparse.Namespace) -> Dict[str, Any]:
    """Run one workload in this process; returns the result document."""
    sys.path.insert(0, SRC)
    import generators as gen
    import harness
    from workloads import WORKLOADS

    name, seed = args.workload, args.seed
    calibrator = harness.Calibrator()
    workload, setup_times = harness.timed_setups(
        lambda: WORKLOADS[name](seed), args.setups, calibrator
    )
    digest = gen.fingerprint(workload.databases(), workload.ops())
    if args.print_fingerprint:
        return {"fingerprint": digest}
    problems = []
    drift = _check_fingerprint(name, seed, digest)
    if drift:
        problems.append(drift)
    workload.arm_oracle()
    problems += workload.verify_bounds()
    quality = harness.bound_quality(workload)
    # GC policy: the collector stays on at its default thresholds, as a
    # caller of the library would run it; one full collection before the
    # window so every run starts from the same heap state
    gc.collect()
    if args.trace:
        import layers

        attempted, failed, metrics = layers.traced_run(
            workload, calibrator, args.seconds, args.ops, seed,
            args.trace_out or os.path.join(DEFAULT_TRACE_DIR, f"trace-{name}.json"),
        )
        metrics["au_range_width_mean"] = quality["au_range_width_mean"]
    else:
        workers_before = harness.children_cpu()
        window = harness.run_window(
            workload, workload.ops(), workload.block, args.seconds, calibrator, args.ops
        )
        workload.close()  # reaps the pool workers, so their CPU is counted
        attempted, failed = len(window.records), window.failed
        metrics = harness.window_metrics(window, harness.children_cpu() - workers_before)
        metrics.update(quality)
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = harness.peak_rss_mb()
    for problem in problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    failed += len(problems)
    metrics["failed_ops_share"] = failed / attempted
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "fingerprint": digest,
        "setup_times_s": setup_times,
    }


# ----------------------------------------------------------------------
# the parent: spawn, collect, print
# ----------------------------------------------------------------------
def spawn(args: argparse.Namespace, workload: str) -> Dict[str, Any]:
    """Run ``workload`` in a fresh interpreter and return its document."""
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    command += ["--setups", str(args.setups)]
    if args.ops is not None:
        command += ["--ops", str(args.ops)]
    if args.trace_out:
        command += ["--trace-out", args.trace_out]
    if args.print_fingerprint:
        command.append("--print-fingerprint")
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, text=True
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload}: child exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def machine_facts() -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
    }


def contract_result(document: Dict[str, Any], metric_specs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The four contract keys, with exactly the metrics of ``metric_specs``."""
    return {
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {
            spec["name"]: {"value": document["metrics"][spec["name"]], "unit": spec["unit"]}
            for spec in metric_specs
        },
    }


def print_table(workload: str, document: Dict[str, Any], metric_specs) -> None:
    print(
        f"== {workload}: {document['attempted']} ops, {document['failed']} failed, "
        f"set-ups {[round(t, 3) for t in document['setup_times_s']]} s"
    )
    for spec in metric_specs:
        value = document["metrics"][spec["name"]]
        print(f"  {spec['name']:<34} {value:>16.6g} {spec['unit']:<10} ({spec['better']} is better)")
    for extra in ("query_samples", "timed_ops", "failed_ops_share", "proc.machine_speed_factor"):
        if extra in document["metrics"] and all(s["name"] != extra for s in metric_specs):
            print(f"  {extra:<34} {document['metrics'][extra]:>16.6g}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=None, help="op-stream seed")
    parser.add_argument("--seconds", type=float, default=None, help="op time to measure")
    parser.add_argument("--ops", type=int, default=None, help="measure N ops instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every result document and the machine facts here")
    parser.add_argument("--trace-out", help="Chrome trace file (default: out/trace-<workload>.json)")
    parser.add_argument("--setups", type=int, default=5, help="timed set-ups per run (median reported)")
    parser.add_argument("--print-fingerprint", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    benchmark = load_benchmark()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program is not at {SRC}", file=sys.stderr)
        return 2
    import generators as gen

    if args.seed is None:
        args.seed = gen.DEFAULT_SEED
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; have {names}", file=sys.stderr)
        return 2

    if args.child:
        print(json.dumps(run_child(args)))
        return 0

    specs = benchmark["per_layer"] if args.trace else benchmark["end_to_end"]
    selected = [args.workload] if args.workload else names
    documents = {name: spawn(args, name) for name in selected}
    if args.print_fingerprint:
        print(json.dumps({n: d["fingerprint"] for n, d in documents.items()}, indent=2))
        return 0
    for name, document in documents.items():
        print_table(name, document, specs)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(
                {"machine": machine_facts(), "seed": args.seed, "trace": args.trace,
                 "seconds": args.seconds, "workloads": documents},
                fh, indent=2,
            )
    results = {name: contract_result(doc, specs) for name, doc in documents.items()}
    print(json.dumps(results[args.workload] if args.workload else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())

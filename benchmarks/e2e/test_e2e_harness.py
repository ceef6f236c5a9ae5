"""Self-tests of the end-to-end benchmark harness (tier-1, a few seconds).

They check the harness, not the program's speed: the percentile rule,
seeded op streams, that the names the harness emits and the names
``BENCHMARK.json`` declares are the same set, ``compare.py`` verdicts
on synthetic runs, and a five-op smoke run of every workload through
its oracle.
"""

import argparse
import itertools
import json
import os
import re

import pytest

import compare
import generators as gen
import harness
import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCHMARK = run.load_benchmark()
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}
#: reported beside the metrics, not metrics themselves
SAMPLE_COUNTS = {"query_samples", "write_samples", "timed_ops", "failed_ops_share",
                 "proc.machine_speed_factor",
                 "write_p50_ms", "write_p95_ms", "view_read_p50_ms", "au_range_width_mean"}


def smoke(workload, trace=0, tmp_path=None):
    args = argparse.Namespace(
        workload=workload, seed=gen.DEFAULT_SEED, seconds=1.0, ops=6 if trace else 5,
        trace=trace, print_fingerprint=False, setups=1,
        trace_out=str(tmp_path / "trace.json") if tmp_path else None,
    )
    return run.run_child(args)


# -- the percentile rule ------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(10, 50), (20, 50), (21, 52), (100, 90), (199, 94), (200, 95), (240, 95), (10_000, 95)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    p = harness.tail_percentile(n)
    assert p == expected
    ordered = list(range(n))
    if p > 50:
        assert n - 1 - ordered.index(harness.percentile(ordered, p)) >= 10
        assert p == 95 or n - 1 - ordered.index(harness.percentile(ordered, p + 1)) < 10


def test_percentile_is_nearest_rank():
    ordered = [float(i) for i in range(1, 101)]
    assert harness.percentile(ordered, 50) == 50.0
    assert harness.percentile(ordered, 95) == 95.0
    assert harness.percentile([7.0], 95) == 7.0


# -- seeded inputs ------------------------------------------------------
STREAMS = {
    "au_analytics": lambda seed: gen.analytics_ops(seed),
    "det_scan": lambda seed: gen.scan_ops(seed),
    "serving_point": lambda seed: gen.point_ops(seed, {"orders": 600, "customer": 60, "part": 80}),
    "adhoc_compile": lambda seed: gen.adhoc_ops(seed),
    "mixed_rw_views": lambda seed: gen.mixed_ops(seed, 300, 30, 40),
}


@pytest.mark.parametrize("workload", sorted(STREAMS))
def test_op_stream_is_a_function_of_the_seed(workload):
    def head(seed):
        return [repr(op) for op in itertools.islice(STREAMS[workload](seed), 200)]

    assert head(1) == head(1)
    assert head(1) != head(2)


def test_adhoc_texts_never_repeat():
    texts = [op.sql for op in itertools.islice(gen.adhoc_ops(3), 3000)]
    assert len(set(texts)) == len(texts)


def test_mixed_stream_holds_its_mix_and_deletes_only_its_own_inserts():
    ops = list(itertools.islice(gen.mixed_ops(5, 300, 30, 40), 800))
    for start in range(0, 800, 8):
        kinds = [op.kind for op in ops[start:start + 8]]
        assert sum(k in ("add", "delete") for k in kinds) == 4
        assert kinds.count("view") == 2 and kinds.count("query") == 2
    live = set()
    for op in ops:
        if op.kind == "add":
            live.add((op.stmt, op.sg_row))
        elif op.kind == "delete":
            live.remove((op.stmt, op.sg_row))


# -- names --------------------------------------------------------------
def test_benchmark_json_names_are_well_formed_and_unique():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(gen.WORKLOADS)
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert "setup_s" in END_TO_END and len(END_TO_END) <= 16 and len(PER_LAYER) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_readme_catalogues_every_metric_and_workload():
    with open(os.path.join(run.HERE, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    for name in sorted(END_TO_END | PER_LAYER | set(gen.WORKLOADS)):
        assert f"`{name}`" in readme, name


# -- smoke runs: every workload, five ops, through the oracle ------------
@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_smoke_run_is_correct_and_emits_the_declared_metrics(workload):
    document = smoke(workload)
    assert document["correct"] and document["failed"] == 0
    assert document["attempted"] == 5
    emitted = set(document["metrics"])
    assert all(NAME.match(n) for n in emitted)
    assert END_TO_END <= emitted
    assert emitted - END_TO_END <= SAMPLE_COUNTS
    contract = run.contract_result(document, BENCHMARK["end_to_end"])
    assert set(contract) == {"correct", "attempted", "failed", "metrics"}
    assert all(v["value"] != 0 for v in contract["metrics"].values())


def test_traced_smoke_run_emits_exactly_the_per_layer_metrics(tmp_path):
    document = smoke("adhoc_compile", trace=1, tmp_path=tmp_path)
    assert document["correct"]
    assert set(document["metrics"]) == PER_LAYER
    with open(tmp_path / "trace.json", encoding="utf-8") as fh:
        events = json.load(fh)["traceEvents"]
    assert events and all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    assert {"op", "harness", "stage"} <= {e["cat"] for e in events}


def test_a_wrong_result_fails_the_run():
    import workloads

    workload = workloads.WORKLOADS["adhoc_compile"](1)
    workload.setup()
    workload.arm_oracle()
    ops = workload.ops()
    first, second = next(ops), next(ops)
    assert workload.check(first, workload.run(first))
    assert not workload.check(first, workload.run(second))
    workload.close()


# -- compare.py ---------------------------------------------------------
def _runs(**metric_values):
    """One synthetic ``--out`` document per value of each metric."""
    n = max(len(v) for v in metric_values.values())
    base = {m["name"]: 1.0 for m in BENCHMARK["end_to_end"]}
    base["failed_ops_share"] = 0.0
    runs = []
    for i in range(n):
        metrics = dict(base)
        for name, series in metric_values.items():
            metrics[name] = series[i % len(series)]
        runs.append({"workloads": {"det_scan": {"metrics": metrics}}})
    return runs


def _verdicts(base, new):
    return {r["metric"]: r["verdict"] for r in compare.compare(base, new, BENCHMARK)}


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    base = _runs(query_p50_ms=steady, throughput_ops_s=steady)
    assert set(_verdicts(base, base).values()) == {"unchanged"}

    slower = _runs(query_p50_ms=[v * 1.5 for v in steady], throughput_ops_s=[v / 1.5 for v in steady])
    verdicts = _verdicts(base, slower)
    assert verdicts["query_p50_ms"] == "regressed"
    assert verdicts["throughput_ops_s"] == "regressed"

    faster = _runs(query_p50_ms=[v / 1.5 for v in steady], throughput_ops_s=[v * 1.5 for v in steady])
    verdicts = _verdicts(base, faster)
    assert verdicts["query_p50_ms"] == "improved"
    assert verdicts["throughput_ops_s"] == "improved"

    noisy = _runs(query_p50_ms=[60.0, 100.0, 140.0, 80.0, 120.0])
    assert _verdicts(base, noisy)["query_p50_ms"] == "unresolved"

    failing = _runs(failed_ops_share=[0.0, 0.01])
    assert _verdicts(base, failing)["failed_ops_share"] == "regressed"


def test_compare_exit_code(tmp_path, capsys):
    steady = [100.0, 101.0, 99.0, 100.5]
    for side, factor in (("a", 1.0), ("b", 2.0)):
        os.mkdir(tmp_path / side)
        for i, run_doc in enumerate(_runs(query_p50_ms=[v * factor for v in steady])):
            with open(tmp_path / side / f"{i}.json", "w", encoding="utf-8") as fh:
                json.dump(run_doc, fh)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "a")]) == 0
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert "regressed" in capsys.readouterr().out

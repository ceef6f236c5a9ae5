"""Compare two sets of benchmark runs, one row per workload × metric.

    python3 benchmarks/e2e/compare.py A B

``A`` (base) and ``B`` (new) are each a file written by ``run.py --out``
or a directory of such files (several runs of one commit, e.g. one per
seed).  For every workload and every end-to-end metric of
``BENCHMARK.json`` the row gives the base median, the new median, their
ratio (new ÷ base), the metric's bound and a verdict:

* ``regressed`` — the new median is worse than the base median by more
  than the bound;
* ``improved`` — better by more than the bound;
* ``unresolved`` — the run-to-run spread of either side (distance
  between its quartiles, as a share of the base median; max − min with
  fewer than four runs) exceeds the bound, so the bound cannot be
  checked;
* ``unchanged`` — otherwise.

``failed_ops_share`` gets a row of its own and regresses on any
increase.  The exit code is non-zero when any row regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_side(path: str) -> List[Dict[str, Any]]:
    """The ``--out`` documents at ``path`` (a file or a directory)."""
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, name) for name in os.listdir(path) if name.endswith(".json")
        )
    else:
        files = [path]
    runs = []
    for name in files:
        with open(name, encoding="utf-8") as fh:
            runs.append(json.load(fh))
    if not runs:
        raise SystemExit(f"no result files at {path}")
    return runs


def values(runs: List[Dict[str, Any]], workload: str, metric: str) -> List[float]:
    return [
        run["workloads"][workload]["metrics"][metric]
        for run in runs
        if workload in run["workloads"]
    ]


def spread(samples: List[float]) -> Optional[float]:
    """Distance between the quartiles (max − min below four samples);
    ``None`` for a single sample."""
    if len(samples) < 2:
        return None
    if len(samples) < 4:
        return max(samples) - min(samples)
    quartiles = statistics.quantiles(samples, n=4)
    return quartiles[2] - quartiles[0]


def verdict(base: List[float], new: List[float], better: str, bound: float) -> Dict[str, Any]:
    base_median, new_median = statistics.median(base), statistics.median(new)
    scale = abs(base_median) or 1.0
    worse_by = (new_median - base_median) / scale
    if better == "higher":
        worse_by = -worse_by
    spreads = [s / scale for s in (spread(base), spread(new)) if s is not None]
    widest = max(spreads) if spreads else None
    if widest is not None and widest > bound:
        label = "unresolved"
    elif worse_by > bound:
        label = "regressed"
    elif worse_by < -bound:
        label = "improved"
    else:
        label = "unchanged"
    return {
        "base": base_median,
        "new": new_median,
        "ratio": new_median / base_median if base_median else None,
        "spread": widest,
        "bound": bound,
        "verdict": label,
    }


def compare(base_runs, new_runs, benchmark) -> List[Dict[str, Any]]:
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for spec in benchmark["end_to_end"]:
            base = values(base_runs, workload, spec["name"])
            new = values(new_runs, workload, spec["name"])
            if not base or not new:
                continue
            row = verdict(base, new, spec["better"], spec["bound"])
            row.update(workload=workload, metric=spec["name"], unit=spec["unit"])
            rows.append(row)
        base = values(base_runs, workload, "failed_ops_share")
        new = values(new_runs, workload, "failed_ops_share")
        if base and new:
            row = verdict(base, new, "lower", 0.0)
            # any increase regresses; spread cannot excuse a failure
            row["verdict"] = "regressed" if max(new) > max(base) else "unchanged"
            row.update(workload=workload, metric="failed_ops_share", unit="share")
            rows.append(row)
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    rows = compare(load_side(argv[0]), load_side(argv[1]), benchmark)
    print(
        f"{'workload':<16}{'metric':<20}{'base':>12}{'new':>12}{'new/base':>10}"
        f"{'spread':>9}{'bound':>7}  verdict"
    )
    for row in rows:
        spread_shown = "-" if row["spread"] is None else f"{row['spread']:.3f}"
        ratio_shown = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        print(
            f"{row['workload']:<16}{row['metric']:<20}{row['base']:>12.5g}{row['new']:>12.5g}"
            f"{ratio_shown:>10}{spread_shown:>9}{row['bound']:>7.2f}  {row['verdict']}"
        )
    regressed = [r for r in rows if r["verdict"] == "regressed"]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    print(f"{len(rows)} rows: {len(regressed)} regressed, {len(unresolved)} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())

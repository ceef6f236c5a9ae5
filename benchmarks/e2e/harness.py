"""Measurement: the closed-loop window, percentiles, end-to-end metrics.

One client, closed loop: the next op is issued when the previous reply
has arrived and (in the untraced run) been checked.  An op's latency is
the wall time of the public call alone; generating the op and checking
its result happen outside that span.  The window ends at the first
block boundary after the op spans sum to ``--seconds``, so a run always
holds whole blocks (one round of every statement, or one 4-write /
2-view / 2-query block), and the mix is the same however fast the
program is.

Robustness against a noisy neighbour, in two steps.  The sandbox this
was built on alternates, for tens of seconds at a time, between a fast
and a ~1.5x slower regime (a shared core), which no statistic taken
inside a ten-second run can remove.  So (1) every time metric is
divided by the **machine-speed factor** of the block it was measured
in: a fixed calibration kernel (:class:`Calibrator` — a columnar
filter + group-by over plain lists, the shape of work the program
does) runs between blocks, and the factor is its time over
:data:`NOMINAL_CALIBRATION_S`; a regime change moves the kernel and the
workload together (log-log slope 1.0, r² 0.98 on ``det_scan``) and
cancels.  Reported times are therefore "milliseconds at nominal machine
speed"; the raw factor is reported beside them.  (2)
``throughput_ops_s`` and ``cpu_s_per_op`` are medians over the blocks of
a run, not totals, so a burst that slows a tenth of the window moves
neither.
"""

from __future__ import annotations

import gc
import itertools
import math
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from generators import Op

_MAX_TRACEBACKS = 3


# ----------------------------------------------------------------------
# machine-speed calibration
# ----------------------------------------------------------------------
#: the kernel's time on the builder's sandbox in its faster regime;
#: times are reported as if the kernel always took this long
NOMINAL_CALIBRATION_S = 0.001


class Calibrator:
    """The calibration kernel and its working set."""

    ROWS = 8_000

    def __init__(self) -> None:
        self.keys = list(range(15 * self.ROWS))
        self.values = [k * 0.37 for k in self.keys]
        self.offset = 0

    def _kernel(self) -> Dict[int, float]:
        lo, hi = self.offset, self.offset + self.ROWS
        keys, values = self.keys[lo:hi], self.values[lo:hi]
        keep = [i for i, k in enumerate(keys) if k % 7 > 2]
        groups: Dict[int, float] = {}
        for i in keep:
            k = keys[i] % 64
            groups[k] = groups.get(k, 0.0) + values[i]
        return groups

    def seconds(self) -> float:
        """Seconds the kernel takes right now: the best of three passes,
        each over the next slice of a working set larger than the
        per-core caches, so it is as cache-cold as the program's scans."""
        best = math.inf
        for _ in range(3):
            self.offset = (self.offset + self.ROWS) % (len(self.keys) - self.ROWS)
            start = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - start)
        return best


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def tail_percentile(n: int, want: int = 95) -> int:
    """The highest whole percentile ``<= want`` that leaves at least ten
    samples beyond it (nearest-rank); 50 when ``n`` supports nothing
    higher."""
    for p in range(want, 50, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return 50


def percentile(ordered: List[float], p: int) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


# ----------------------------------------------------------------------
# the window
# ----------------------------------------------------------------------
class Record(NamedTuple):
    """One timed op."""

    kind: str
    stmt: str
    wall: float  # seconds of the public call
    cpu: float  # process CPU seconds across it
    block: int


class Window:
    """What one measured window saw."""

    def __init__(self) -> None:
        self.records: List[Record] = []
        self.failed = 0
        self.whole_blocks = 0
        #: calibration seconds before block 0, between blocks, after the
        #: last block: ``len == blocks + 1``
        self.calibrations: List[float] = []

    def speeds(self) -> List[float]:
        """Machine-speed factor per block (1.0 = nominal; larger = a
        slower machine): the mean of the calibrations around the block."""
        return [
            (before + after) / 2 / NOMINAL_CALIBRATION_S
            for before, after in zip(self.calibrations, self.calibrations[1:])
        ]

    def normalised(self) -> List[Record]:
        """The records with wall and CPU time at nominal machine speed."""
        speeds = self.speeds()
        return [
            r._replace(wall=r.wall / speeds[r.block], cpu=r.cpu / speeds[r.block])
            for r in self.records
        ]

    @property
    def op_seconds(self) -> float:
        return sum(r.wall for r in self.records)

    def fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= _MAX_TRACEBACKS:
            print(f"FAILED OP: {message}", file=sys.stderr)


def run_window(
    workload,
    ops: Iterator[Op],
    block: int,
    seconds: float,
    calibrator: Calibrator,
    max_ops: Optional[int] = None,
    check: bool = True,
    after_op: Optional[Callable[[Op, Any, float, float], None]] = None,
) -> Window:
    """Run ``ops`` closed-loop until the op spans sum to ``seconds`` (at
    a block boundary) or ``max_ops`` ops ran.

    With ``check=False`` no oracle code runs inside the window: results
    are dropped and writes are replayed into the oracle's mirror after
    it.  ``after_op(op, result, start, end)`` runs outside the op span.
    """
    window = Window()
    records = window.records
    run = workload.run
    clock, cpu_clock = time.perf_counter, time.process_time
    unmirrored: List[Op] = []
    spent = 0.0
    window.calibrations.append(calibrator.seconds())
    for index in itertools.count():
        if max_ops is not None and len(records) >= max_ops:
            break
        if spent >= seconds and max_ops is None:
            break
        for op in itertools.islice(ops, block):
            result, error = None, None
            c0 = cpu_clock()
            t0 = clock()
            try:
                result = run(op)
            except Exception:  # the loop must go on; the op counts as failed
                error = traceback.format_exc()
            t1 = clock()
            c1 = cpu_clock()
            records.append(Record(op.kind, op.stmt, t1 - t0, c1 - c0, index))
            spent += t1 - t0
            if error is not None:
                window.fail(f"{op.kind} {op.stmt} raised:\n{error}")
            elif not check:
                if op.kind in ("add", "delete"):
                    unmirrored.append(op)
            else:
                try:
                    if not workload.check(op, result):
                        window.fail(f"wrong result: {op!r}")
                except Exception:
                    window.fail(f"oracle raised on {op!r}:\n{traceback.format_exc()}")
            if after_op is not None:
                after_op(op, result, t0, t1)
            if max_ops is not None and len(records) >= max_ops:
                break
        else:
            window.whole_blocks = index + 1
        window.calibrations.append(calibrator.seconds())
    for op in unmirrored:
        workload.check(op, None)
    return window


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def timed_setups(factory: Callable[[], Any], repeats: int, calibrator: Calibrator):
    """Set the workload up ``repeats`` times; returns the last instance
    and every set-up time (at nominal machine speed).  Earlier instances are closed and collected
    before the next starts, so each pays for its own garbage only."""
    times, workload = [], None
    for _ in range(repeats):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()
        before = calibrator.seconds()
        start = time.perf_counter()
        workload = factory()
        workload.setup()
        elapsed = time.perf_counter() - start
        speed = (before + calibrator.seconds()) / 2 / NOMINAL_CALIBRATION_S
        times.append(elapsed / speed)
    return workload, times


# ----------------------------------------------------------------------
# bound quality (the paper's accuracy axis)
# ----------------------------------------------------------------------
_WIDTH_CAP = 1e3


def bound_quality(workload) -> Dict[str, float]:
    """``au_certain_share``, ``au_tightness_mean`` and
    ``au_range_width_mean`` over the verification results.

    A numeric cell's relative width is ``(ub - lb) / max(|sg|, 1)``
    (capped, so an open bound cannot turn the mean into ``inf``); its
    tightness is ``1 / (1 + width)``, which is 1 for a certain cell and
    never 0.  Deterministic results are all-certain: 1, 1 and 0."""
    if not workload.au:
        return {"au_certain_share": 1.0, "au_tightness_mean": 1.0, "au_range_width_mean": 0.0}
    lb_total = sg_total = 0
    widths: List[float] = []
    for _sql, _params, result in workload.verification:
        for row, (lb, sg, _ub) in result.tuples():
            lb_total += lb
            sg_total += sg
            for cell in row:
                guess = cell.sg
                if type(guess) not in (int, float):
                    continue
                try:
                    width = (cell.ub - cell.lb) / max(abs(guess), 1)
                except TypeError:  # an infinity sentinel as a bound
                    width = _WIDTH_CAP
                widths.append(min(width, _WIDTH_CAP) if math.isfinite(width) else _WIDTH_CAP)
    return {
        "au_certain_share": lb_total / sg_total if sg_total else 1.0,
        "au_tightness_mean": statistics.fmean(1 / (1 + w) for w in widths) if widths else 1.0,
        "au_range_width_mean": statistics.fmean(widths) if widths else 0.0,
    }


# ----------------------------------------------------------------------
# end-to-end metrics
# ----------------------------------------------------------------------
def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _by_block(records: Iterable[Record], whole_blocks: int) -> List[List[Record]]:
    blocks: List[List[Record]] = [[] for _ in range(whole_blocks)]
    for r in records:
        if r.block < whole_blocks:
            blocks[r.block].append(r)
    return blocks or [list(records)]


def latency_metrics(records: List[Record], kinds: Tuple[str, ...], prefix: str) -> Dict[str, float]:
    """``<prefix>_p50_ms``, ``<prefix>_p95_ms`` (the highest supported
    percentile up to 95, see :func:`tail_percentile`) and
    ``<prefix>_samples``; zeros when no op of ``kinds`` ran."""
    ordered = sorted(r.wall for r in records if r.kind in kinds)
    if not ordered:
        return {f"{prefix}_p50_ms": 0.0, f"{prefix}_p95_ms": 0.0, f"{prefix}_samples": 0}
    return {
        f"{prefix}_p50_ms": percentile(ordered, 50) * 1e3,
        f"{prefix}_p95_ms": percentile(ordered, tail_percentile(len(ordered))) * 1e3,
        f"{prefix}_samples": len(ordered),
    }


def window_metrics(window: Window, worker_cpu: float) -> Dict[str, float]:
    """Throughput, latency and CPU metrics of one window, at nominal
    machine speed.  ``worker_cpu`` is the CPU time of reaped pool
    workers, spread over all ops."""
    records = window.normalised()
    blocks = _by_block(records, window.whole_blocks)
    speed = statistics.median(window.speeds())
    out = {
        "throughput_ops_s": statistics.median(
            len(b) / sum(r.wall for r in b) for b in blocks
        ),
        "cpu_s_per_op": statistics.median(sum(r.cpu for r in b) / len(b) for b in blocks)
        + worker_cpu / speed / len(records),
        "timed_ops": len(records),
        "proc.machine_speed_factor": speed,
    }
    out.update(latency_metrics(records, ("query",), "query"))
    out.update(latency_metrics(records, ("add", "delete"), "write"))
    out["view_read_p50_ms"] = latency_metrics(records, ("view",), "view_read")["view_read_p50_ms"]
    tail = tail_percentile(out["query_samples"])
    if tail < 95:
        print(
            f"note: {out['query_samples']} query samples support p{tail}, not p95; "
            f"query_p95_ms reports p{tail}",
            file=sys.stderr,
        )
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

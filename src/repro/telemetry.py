"""End-to-end query telemetry: traces, metrics, events, slow-query log.

Four cooperating facilities, all default-off or free when unused:

* **Tracing** — a :class:`QueryTrace` is a tree of :class:`Span`\\ s
  covering the pipeline stages (``parse`` → ``analyze`` → ``optimize``
  with one child mark per fired rewrite rule → ``lower`` → ``execute``)
  and, inside ``execute``, one span per physical operator evaluated by
  any of the four physical-IR executors (tuple det, tuple AU,
  vectorized det, vectorized AU — the parallel runtime's morsels show
  up as repeated operator spans under their ``Exchange``).  Operator
  spans carry wall time, output rows, and operator-specific attributes
  (hash-table build sizes, fallback kinds, morsel counts).  A trace
  renders as an indented tree (:meth:`QueryTrace.render`) and exports
  as Chrome trace-event JSON (:meth:`QueryTrace.chrome_trace`) loadable
  in ``chrome://tracing`` / Perfetto.

  Tracing follows the ``REPRO_VERIFY_PLANS`` pattern: a process-wide
  switch (:func:`set_tracing`, env ``REPRO_TRACE=1``) that
  ``Connection(trace=...)`` can override per session.  When no trace is
  active the executors' per-node hook is a single global-load-and-None
  check — the benchmark gate (``bench_session.py --telemetry-overhead``)
  holds the disabled path to ≤5% of a plain connection.

* **Metrics** — a process-wide :class:`MetricsRegistry` of monotone
  :class:`Counter`\\ s, :class:`Gauge`\\ s, and fixed-bucket
  :class:`Histogram`\\ s with Prometheus text exposition
  (:meth:`MetricsRegistry.prometheus_text`) and a JSON-able dump
  (:meth:`MetricsRegistry.dump`).  The session layer's
  ``ConnectionMetrics`` is a per-connection view whose increments flow
  through to the registry; the IVM runtime and the statistics
  accumulators publish their counters here too.

* **Event log** — :class:`EventLog` records a connection's history —
  ``query_begin`` / ``query_end``, per-tuple ``write`` (via the storage
  layer's delta sinks), and ``epoch_advance`` — as :class:`Event`\\ s
  with per-connection monotone sequence numbers: the replayable
  substrate a black-box snapshot-isolation checker needs.

* **Slow-query log** — :func:`configure_slow_log` arms process-wide
  thresholds (seconds, and/or a per-node estimation-error factor);
  executions that trip either get a :class:`SlowQuery` snapshot (plan
  rendering with actuals, trace if one was active) appended to a
  bounded ring read by :func:`slow_queries`.

Nothing here is thread-safe; like connections, use per worker.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "Span",
    "QueryTrace",
    "tracing_enabled",
    "set_tracing",
    "traced",
    "start_trace",
    "current_trace",
    "stage",
    "annotate",
    "annotate_ratio",
    "run_op",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "SlowQuery",
    "configure_slow_log",
    "slow_queries",
    "clear_slow_log",
    "timing_enabled",
    "estimation_error",
    "Event",
    "EventLog",
]


# ======================================================================
# tracing: spans and traces
# ======================================================================
class Span:
    """One timed region: a pipeline stage or one operator evaluation.

    ``cat`` is ``"stage"``, ``"operator"``, or ``"mark"`` (zero-duration
    child, e.g. a fired rewrite rule).  ``node_id`` is ``id(pnode)`` for
    operator spans — the join key EXPLAIN ANALYZE uses to merge span
    times into the plan rendering.  ``attrs`` holds operator payloads:
    ``rows_out``, ``build_rows``, ``build_keys``, ``morsels``,
    ``fallback``, …
    """

    __slots__ = ("name", "cat", "start", "end", "attrs", "children", "node_id")

    def __init__(
        self,
        name: str,
        cat: str = "stage",
        node_id: Optional[int] = None,
    ) -> None:
        self.name = name
        self.cat = cat
        self.node_id = node_id
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        self.attrs: Dict[str, Any] = {}
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        """Wall seconds (0.0 while the span is still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.cat!r}, {self.duration * 1e3:.3f}ms)"


class QueryTrace:
    """A tree of spans for one query lifecycle, built via a span stack.

    Executors and the session layer push/pop through :meth:`begin` /
    :meth:`end` (or the :func:`stage` context manager); the per-operator
    fast path additionally folds inclusive wall time into
    :attr:`node_times` keyed by physical-node id, which
    ``explain_physical`` merges into EXPLAIN ANALYZE output.
    :meth:`problems` machine-checks well-formedness — the fuzzer's
    telemetry lane asserts it returns nothing.
    """

    def __init__(self, name: str = "query") -> None:
        self.root = Span(name, "trace")
        self._stack: List[Span] = [self.root]
        #: ``id(physical node) -> [inclusive seconds, evaluations]``
        self.node_times: Dict[int, List[float]] = {}
        #: ``id(physical node) -> {attr: value}`` — operator-span
        #: attributes (chunk-skip counts, hash-partition fan-out, …)
        #: folded in by :meth:`end_op`; ``explain_physical`` renders
        #: them in EXPLAIN ANALYZE output
        self.node_attrs: Dict[int, Dict[str, Any]] = {}
        self._discipline: List[str] = []

    # -- span lifecycle ------------------------------------------------
    def begin(self, name: str, cat: str = "stage") -> Span:
        span = Span(name, cat)
        self._stack[-1].children.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        else:  # mis-nested end: record, then recover by unwinding
            self._discipline.append(f"span {span.name!r} ended out of order")
            while len(self._stack) > 1:
                top = self._stack.pop()
                if top is span:
                    break

    def mark(self, name: str, cat: str = "mark", **attrs: Any) -> Span:
        """A zero-duration child of the current span (e.g. one fired
        rewrite rule)."""
        span = Span(name, cat)
        span.end = span.start
        span.attrs.update(attrs)
        self._stack[-1].children.append(span)
        return span

    # -- operator fast path (called per physical node) -----------------
    def begin_op(self, pnode: Any) -> Span:
        span = Span(type(pnode).__name__, "operator", node_id=id(pnode))
        self._stack[-1].children.append(span)
        self._stack.append(span)
        return span

    def end_op(self, span: Span, rows: Optional[int] = None) -> None:
        self.end(span)
        if rows is not None:
            span.attrs["rows_out"] = rows
        entry = self.node_times.get(span.node_id)
        if entry is None:
            self.node_times[span.node_id] = [span.duration, 1]
        else:  # same node re-evaluated (e.g. once per morsel)
            entry[0] += span.duration
            entry[1] += 1
        if span.attrs:
            self.node_attrs.setdefault(span.node_id, {}).update(span.attrs)

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the innermost open span."""
        self._stack[-1].attrs.update(attrs)

    def alias_node(self, template_id: int, bound_id: int) -> None:
        """Mirror a bound-copy node's time onto its cached template —
        the span analogue of the session layer's ``actuals`` mirroring."""
        if bound_id in self.node_times:
            self.node_times[template_id] = self.node_times[bound_id]
        if bound_id in self.node_attrs:
            self.node_attrs[template_id] = self.node_attrs[bound_id]

    def finish(self) -> None:
        while len(self._stack) > 1:  # unclosed spans: close, flag below
            self._stack.pop().end = time.perf_counter()
        if self.root.end is None:
            self.root.end = time.perf_counter()
            self._stack.clear()

    # -- introspection -------------------------------------------------
    def spans(self) -> Iterator[Span]:
        return self.root.walk()

    @property
    def duration(self) -> float:
        return self.root.duration

    def problems(self) -> List[str]:
        """Well-formedness violations (empty on a healthy trace):
        unclosed/orphan spans, negative durations, children escaping
        their parent's interval, out-of-order ends."""
        out = list(self._discipline)
        if self.root.end is None:
            out.append("trace not finished")

        def check(span: Span) -> None:
            if span.end is None:
                out.append(f"orphan span {span.name!r} (never ended)")
            elif span.end < span.start:
                out.append(f"negative duration in span {span.name!r}")
            for child in span.children:
                if child.start < span.start - 1e-9:
                    out.append(
                        f"span {child.name!r} starts before parent {span.name!r}"
                    )
                if (
                    child.end is not None
                    and span.end is not None
                    and child.end > span.end + 1e-9
                ):
                    out.append(
                        f"span {child.name!r} ends after parent {span.name!r}"
                    )
                check(child)

        check(self.root)
        return out

    # -- exports -------------------------------------------------------
    def render(self) -> str:
        """The trace as an indented tree with durations and attributes."""
        lines: List[str] = []

        def fmt_attrs(span: Span) -> str:
            if not span.attrs:
                return ""
            body = ", ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
            return f"  [{body}]"

        def walk(span: Span, depth: int) -> None:
            lines.append(
                f"{'  ' * depth}{span.name}  "
                f"{span.duration * 1e3:.3f}ms{fmt_attrs(span)}"
            )
            for child in span.children:
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)

    def chrome_trace(self) -> List[Dict[str, Any]]:
        """Chrome trace-event JSON objects (``chrome://tracing`` /
        Perfetto): complete ``"X"`` events for spans, instant ``"i"``
        events for marks, all on one pid/tid, µs since trace start."""
        t0 = self.root.start
        pid = os.getpid()
        events: List[Dict[str, Any]] = []
        for span in self.spans():
            ev: Dict[str, Any] = {
                "name": span.name,
                "cat": span.cat,
                "ts": (span.start - t0) * 1e6,
                "pid": pid,
                "tid": 0,
            }
            if span.cat == "mark":
                ev["ph"] = "i"
                ev["s"] = "t"
            else:
                ev["ph"] = "X"
                ev["dur"] = span.duration * 1e6
            if span.attrs:
                ev["args"] = dict(span.attrs)
            events.append(ev)
        return events

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": self.chrome_trace()}, fh)


# ----------------------------------------------------------------------
# process-wide tracing switch (the REPRO_VERIFY_PLANS pattern) and the
# active trace the executors' hot path checks
# ----------------------------------------------------------------------
_enabled: bool = os.environ.get("REPRO_TRACE", "").strip().lower() not in (
    "",
    "0",
    "false",
    "no",
    "off",
)

#: The live trace, or ``None``.  Executors read this module attribute
#: directly once per node — the entire disabled-tracing cost.
_ACTIVE: Optional[QueryTrace] = None


def run_op(
    node: Any,
    compute: Callable[..., Any],
    args: Tuple[Any, ...],
    actuals: Optional[Dict[int, int]],
    rows: Callable[[Any], Optional[int]],
    actual_rows: Optional[Callable[[Any], Optional[int]]] = None,
) -> Any:
    """Evaluate one physical operator for any of the four executors.

    Runs ``compute(node, *args)`` — under an operator span with inclusive
    wall time and output rows when a trace is active; disabled, the hook
    is this one global-load-and-``None`` check per node — then records
    the output cardinality in ``actuals`` under ``id(node)`` and each
    logical source.  ``rows(result)`` is the executor's row count
    (``None`` for results that have none: partial aggregate states);
    ``actual_rows`` replaces it for ``actuals`` where an executor's plan
    cardinality is not its span row count.
    """
    tr = _ACTIVE
    if tr is None:
        result = compute(node, *args)
    else:
        span = tr.begin_op(node)
        try:
            result = compute(node, *args)
        except BaseException:
            tr.end_op(span)
            raise
        tr.end_op(span, rows(result))
    if actuals is not None:
        n = (actual_rows or rows)(result)
        if n is not None:
            actuals[id(node)] = n
            for src in node.sources:
                actuals[id(src)] = n
    return result


def tracing_enabled() -> bool:
    """The process-wide default for connections whose ``trace`` is unset."""
    return _enabled


def set_tracing(enabled: bool) -> bool:
    """Set the process-wide tracing default; returns the previous value."""
    global _enabled
    old = _enabled
    _enabled = bool(enabled)
    return old


@contextmanager
def traced(enabled: bool = True) -> Iterator[None]:
    """Temporarily set the process-wide tracing default (tests)."""
    old = set_tracing(enabled)
    try:
        yield
    finally:
        set_tracing(old)


def current_trace() -> Optional[QueryTrace]:
    return _ACTIVE


@contextmanager
def start_trace(name: str = "query") -> Iterator[QueryTrace]:
    """Activate a fresh :class:`QueryTrace` for the duration of the
    block.  Nested activations stack (inner traces shadow outer)."""
    global _ACTIVE
    previous = _ACTIVE
    trace = QueryTrace(name)
    _ACTIVE = trace
    try:
        yield trace
    finally:
        trace.finish()
        _ACTIVE = previous


@contextmanager
def stage(name: str, **attrs: Any) -> Iterator[Optional[Span]]:
    """A pipeline-stage span in the active trace; no-op when inactive."""
    tr = _ACTIVE
    if tr is None:
        yield None
        return
    span = tr.begin(name, "stage")
    span.attrs.update(attrs)
    try:
        yield span
    finally:
        tr.end(span)


def annotate(**attrs: Any) -> None:
    """Attach attributes to the innermost open *operator* span, if any.

    Called from deep inside executor helpers (hash-join builds, the
    parallel runtime) that don't carry a span reference; silently a
    no-op when tracing is off or the current span is not an operator."""
    tr = _ACTIVE
    if tr is not None and tr._stack and tr._stack[-1].cat == "operator":
        tr._stack[-1].attrs.update(attrs)


def annotate_ratio(name: str, part: int, whole: int) -> None:
    """Add ``part`` of ``whole`` to the innermost open operator span's
    ``name=k/n`` attribute (set to ``part/whole`` when absent), so an
    operator that runs one kernel several times reports their sum; a
    no-op where :func:`annotate` is one."""
    tr = _ACTIVE
    if tr is not None and tr._stack and tr._stack[-1].cat == "operator":
        attrs = tr._stack[-1].attrs
        if name in attrs:
            k, n = attrs[name].split("/")
            part, whole = part + int(k), whole + int(n)
        attrs[name] = f"{part}/{whole}"


# ======================================================================
# metrics registry
# ======================================================================
class Counter:
    """A monotone counter."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """A settable instantaneous value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


#: Default histogram buckets: latency-flavoured, seconds.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
)


class Histogram:
    """A fixed-bucket cumulative histogram (Prometheus semantics)."""

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        labels: Tuple[Tuple[str, str], ...],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)  # +Inf last
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1


def _label_key(labels: Mapping[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_text(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in labels) + "}"


class MetricsRegistry:
    """A named collection of counters/gauges/histograms.

    Metrics are get-or-created by ``(name, labels)`` — repeated
    registration returns the same object, a kind clash raises.  One
    process-wide instance (:func:`get_registry`) backs the session
    layer, IVM, and statistics counters; tests wanting isolation
    construct their own and pass it down.
    """

    def __init__(self) -> None:
        # name -> (kind, help, {label key -> metric})
        self._metrics: "Dict[str, Tuple[str, str, Dict[tuple, Any]]]" = {}

    def _get(
        self, kind: str, name: str, help_text: str, labels: Mapping[str, str],
        factory: Callable[..., Any],
    ) -> Any:
        entry = self._metrics.get(name)
        if entry is None:
            entry = (kind, help_text, {})
            self._metrics[name] = entry
        elif entry[0] != kind:
            raise ValueError(
                f"metric {name!r} already registered as {entry[0]}, not {kind}"
            )
        key = _label_key(labels)
        metric = entry[2].get(key)
        if metric is None:
            metric = factory(name, key)
            entry[2][key] = metric
        return metric

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get("counter", name, help, labels, Counter)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get("gauge", name, help, labels, Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get(
            "histogram", name, help, labels,
            lambda n, k: Histogram(n, k, buckets),
        )

    # -- exposition ----------------------------------------------------
    def dump(self) -> Dict[str, Any]:
        """A JSON-able snapshot of every metric."""
        out: Dict[str, Any] = {}
        for name, (kind, _help, children) in sorted(self._metrics.items()):
            series = []
            for key, metric in sorted(children.items()):
                entry: Dict[str, Any] = {"labels": dict(key)}
                if kind == "histogram":
                    entry["sum"] = metric.sum
                    entry["count"] = metric.count
                    entry["buckets"] = {
                        str(b): c
                        for b, c in zip(metric.buckets, metric.counts)
                    }
                    entry["buckets"]["+Inf"] = metric.counts[-1]
                else:
                    entry["value"] = metric.value
                series.append(entry)
            out[name] = {"type": kind, "series": series}
        return out

    def prometheus_text(self) -> str:
        """Prometheus text exposition format (v0.0.4)."""
        lines: List[str] = []
        for name, (kind, help_text, children) in sorted(self._metrics.items()):
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for key, metric in sorted(children.items()):
                if kind == "histogram":
                    cumulative = 0
                    for bound, count in zip(metric.buckets, metric.counts):
                        cumulative += count
                        labels = _label_text(key + (("le", f"{bound:g}"),))
                        lines.append(f"{name}_bucket{labels} {cumulative}")
                    cumulative += metric.counts[-1]
                    labels = _label_text(key + (("le", "+Inf"),))
                    lines.append(f"{name}_bucket{labels} {cumulative}")
                    lines.append(f"{name}_sum{_label_text(key)} {metric.sum:g}")
                    lines.append(f"{name}_count{_label_text(key)} {metric.count}")
                else:
                    value = metric.value
                    text = f"{value:g}" if isinstance(value, float) else str(value)
                    lines.append(f"{name}{_label_text(key)} {text}")
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Drop every metric (tests)."""
        self._metrics.clear()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry."""
    return _REGISTRY


# ======================================================================
# slow-query / misestimation log
# ======================================================================
@dataclass
class SlowQuery:
    """One threshold-tripping execution, snapshotted for post-mortem."""

    sql: Optional[str]
    engine: str
    backend: str
    seconds: float
    rows: Optional[int]
    #: ``"slow"``, ``"misestimate"``, or ``"slow+misestimate"``
    reason: str
    #: worst per-node estimation-error factor (``None`` if no actuals)
    worst_factor: Optional[float]
    #: the physical plan rendered with actuals at snapshot time
    plan: str
    #: the rendered trace, when one was active
    trace: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)


_SLOW_THRESHOLD: Optional[float] = None
_MISEST_THRESHOLD: Optional[float] = None
_SLOW_LOG: "deque[SlowQuery]" = deque(maxlen=64)


def configure_slow_log(
    threshold: Optional[float] = None,
    misestimation: Optional[float] = None,
    capacity: int = 64,
) -> None:
    """Arm (or, with both thresholds ``None``, disarm) the slow-query log.

    ``threshold`` is seconds of execution wall time; ``misestimation``
    is a per-node estimation-error factor (``actual``/``estimate`` or
    its inverse, whichever exceeds 1).  Arming either makes the session
    layer time every execution (and, for misestimation, collect
    actuals) — the documented cost of the feature.
    """
    global _SLOW_THRESHOLD, _MISEST_THRESHOLD, _SLOW_LOG
    _SLOW_THRESHOLD = threshold
    _MISEST_THRESHOLD = misestimation
    if capacity != _SLOW_LOG.maxlen:
        _SLOW_LOG = deque(_SLOW_LOG, maxlen=capacity)


def slow_queries() -> Tuple[SlowQuery, ...]:
    return tuple(_SLOW_LOG)


def clear_slow_log() -> None:
    _SLOW_LOG.clear()


def timing_enabled() -> bool:
    """Whether the session layer should time executions: the slow-query
    log is armed (tracing times implicitly via its spans)."""
    return _SLOW_THRESHOLD is not None or _MISEST_THRESHOLD is not None


def misestimation_armed() -> bool:
    return _MISEST_THRESHOLD is not None


def estimation_error(estimate: float, actual: float) -> float:
    """Symmetric estimation-error factor: 1.0 is a perfect estimate,
    2.0 means off by 2× in either direction.  ``+1`` smoothing keeps
    empty results finite."""
    return max(
        (actual + 1.0) / (estimate + 1.0), (estimate + 1.0) / (actual + 1.0)
    )


def record_query(
    *,
    sql: Optional[str],
    engine: str,
    backend: str,
    seconds: float,
    rows: Optional[int],
    pplan: Any = None,
    actuals: Optional[Dict[int, int]] = None,
    trace: Optional[QueryTrace] = None,
) -> Optional[SlowQuery]:
    """Offer one finished execution to the slow-query log (session layer
    calls this only when :func:`timing_enabled`).  Returns the record
    appended, if the execution tripped a threshold."""
    reasons = []
    worst: Optional[float] = None
    if _SLOW_THRESHOLD is not None and seconds >= _SLOW_THRESHOLD:
        reasons.append("slow")
    if _MISEST_THRESHOLD is not None and pplan is not None and actuals:
        worst = 1.0
        for node in pplan.walk():
            actual = actuals.get(id(node))
            if actual is None or not math.isfinite(node.est):
                continue
            worst = max(worst, estimation_error(node.est, actual))
        if worst >= _MISEST_THRESHOLD:
            reasons.append("misestimate")
    if not reasons:
        return None
    if pplan is not None:
        from .exec.physical import explain_physical

        plan_text = explain_physical(pplan, actuals=actuals)
    else:
        plan_text = "(legacy direct interpretation: no physical plan)"
    record = SlowQuery(
        sql=sql,
        engine=engine,
        backend=backend,
        seconds=seconds,
        rows=rows,
        reason="+".join(reasons),
        worst_factor=worst,
        plan=plan_text,
        trace=trace.render() if trace is not None else None,
    )
    _SLOW_LOG.append(record)
    return record


# ======================================================================
# structured event log
# ======================================================================
class Event(Tuple[int, str, Dict[str, Any]]):
    """``(seq, kind, data)`` — one entry in a connection's history."""

    __slots__ = ()

    def __new__(cls, seq: int, kind: str, data: Dict[str, Any]) -> "Event":
        return tuple.__new__(cls, (seq, kind, data))

    @property
    def seq(self) -> int:
        return self[0]

    @property
    def kind(self) -> str:
        return self[1]

    @property
    def data(self) -> Dict[str, Any]:
        return self[2]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event(seq={self[0]}, kind={self[1]!r}, data={self[2]!r})"


class EventLog:
    """A connection's structured history with monotone sequence numbers.

    Four event kinds (``data`` keys in parentheses):

    * ``query_begin`` — ``sql`` (or ``plan``), ``params``, ``epoch``
    * ``query_end`` — ``rows``, ``epoch``, ``cached`` (result-memo hit),
      and ``seconds`` when the session layer timed the run
    * ``write`` — ``table``, ``row``, ``sign`` (+1 insert / -1 delete),
      ``count`` (multiplicity or annotation), ``epoch``; captured by
      delta sinks attached to every relation of the connection's
      database (the same mechanism IVM maintains views with)
    * ``epoch_advance`` — ``before``/``after``; emitted when the epoch
      moved outside any sinked write (e.g. ``db[name] = rel``
      rebinding), detected lazily at the next event

    Sequence numbers strictly increase per log; the ring keeps the last
    ``capacity`` events (``None`` capacity keeps everything).
    """

    def __init__(self, connection: Any, capacity: Optional[int] = 4096) -> None:
        self.connection = connection
        self._events: "deque[Event]" = deque(maxlen=capacity)
        self._seq = 0
        self._sinks: List[Tuple[Any, Callable]] = []
        self._last_epoch = connection.epoch
        self._attach_sinks()

    # -- write capture -------------------------------------------------
    def _attach_sinks(self) -> None:
        relations = getattr(self.connection.db, "relations", None)
        if relations is None:
            return
        tracked = {id(rel) for rel, _ in self._sinks}
        for name, rel in relations.items():
            if id(rel) in tracked or not hasattr(rel, "attach_sink"):
                continue

            def sink(row: Any, count: Any, sign: int, _name: str = name) -> None:
                self._record(
                    "write",
                    table=_name,
                    row=row,
                    sign=sign,
                    count=count,
                    epoch=self.connection.epoch,
                )

            rel.attach_sink(sink)
            self._sinks.append((rel, sink))

    def close(self) -> None:
        """Detach every write sink (idempotent)."""
        for rel, sink in self._sinks:
            rel.detach_sink(sink)
        self._sinks.clear()

    # -- recording -----------------------------------------------------
    def _record(self, kind: str, **data: Any) -> Event:
        event = Event(self._seq, kind, data)
        self._seq += 1
        self._events.append(event)
        self._last_epoch = data.get("epoch", self._last_epoch)
        return event

    def record(self, kind: str, **data: Any) -> Event:
        """Record one event, first emitting ``epoch_advance`` if the
        connection's epoch moved outside any captured write (and
        re-attaching sinks — a rebinding swapped in new relations)."""
        epoch = self.connection.epoch
        if epoch != self._last_epoch:
            self._record(
                "epoch_advance", before=self._last_epoch, after=epoch
            )
            self._attach_sinks()
        data.setdefault("epoch", epoch)
        return self._record(kind, **data)

    def query_begin(
        self, sql: Optional[str], params: Any = None
    ) -> Event:
        return self.record(
            "query_begin",
            sql=sql if sql is not None else "(logical plan)",
            params=params,
        )

    def query_end(
        self,
        rows: Optional[int],
        cached: bool = False,
        seconds: Optional[float] = None,
    ) -> Event:
        data: Dict[str, Any] = {"rows": rows, "cached": cached}
        if seconds is not None:
            data["seconds"] = seconds
        return self.record("query_end", **data)

    # -- reading -------------------------------------------------------
    def events(self) -> Tuple[Event, ...]:
        return tuple(self._events)

    @property
    def last_seq(self) -> int:
        """The next sequence number to be assigned."""
        return self._seq

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

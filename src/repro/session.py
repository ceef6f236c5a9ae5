"""The query-session layer: connections, prepared statements, plan caching.

Until this module, every query call re-parsed its SQL, re-harvested the
statistics catalog, re-ran the logical optimizer, and re-lowered to a
physical plan — fine for one-shot experiments, fatal for a serving
workload that answers the same parameterized queries over and over.
:class:`Connection` turns the four-stage pipeline (SQL → logical plan →
logical optimizer → physical planner → executor) into a *prepare once,
execute many* lifecycle:

* :meth:`Connection.prepare` compiles SQL (or a logical plan) into a
  :class:`PreparedQuery` holding the optimized logical plan and the
  lowered physical plan, with ``?`` / ``:name`` placeholders kept
  symbolic (:class:`~repro.core.expressions.Parameter`);
* :meth:`PreparedQuery.execute` re-binds parameters by substituting
  constants into the *physical* plan — no re-parse, no re-optimize, no
  re-lower — and dispatches to the backend chosen at prepare time;
* SQL-text queries are memoized in a per-connection LRU **plan cache**
  keyed by ``(SQL text, engine, EvalConfig, catalog-epoch band)``;
  :meth:`Connection.execute` runs a parameterless text that misses it
  as its template with the comparison literals lifted into parameters
  (:func:`repro.sql.lexer.normalize`), so texts differing only in
  those literals share one plan;
* the **catalog epoch** (a monotonically increasing write version
  maintained by the storage layers) drives staleness: a prepared query
  whose epoch has drifted more than ``staleness`` writes past its last
  lowering is transparently *re-lowered* (fresh statistics, fresh
  physical choices — cheap, no parse or optimize), and the epoch *band*
  in the cache key retires whole cache generations every
  ``staleness × 16`` writes so even long-lived optimized logical plans
  eventually re-optimize against current statistics.

All physical choices a re-lowering may revise (hash vs nested-loop
joins, fallback boundaries, parallel regions) are result-invariant, so a
prepared query returns results bit-identical to a fresh evaluation at
any staleness — the differential fuzzer's prepared-statement lane holds
both engines and both backends to that.  The one documented exception:
``EvalConfig.adaptive_compression`` places AU ``Cpr`` budgets from
statistics, so a cached plan may compress differently (still *sound*,
bounds-preserving either way) than a cold run after heavy writes, and a
literal text run through its template differently than the text
prepared as written.

``evaluate_det`` / ``evaluate_audb`` remain as thin shims that route
through an ephemeral connection, so existing call sites keep working
unchanged.

Connections are not thread-safe; use one per worker.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import replace
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence, Union

from .algebra.ast import Node, Plan, collect_parameters
from . import analysis
from .algebra.evaluator import EvalConfig, execute_physical_audb
from .algebra.optimizer import Statistics, compression_hints, optimize
from .core.expressions import (
    Const,
    Expression,
    Parameter,
    UnboundParameterError,
)
from .core.relation import AUDatabase
from .db.chunks import resolve_chunk_size
from .db.storage import DetDatabase
from . import telemetry as _tm
from .exec import BACKENDS
from .exec import batch as _batch
from .exec import physical as phys
from .exec.vectorized import SubplanMemo
from .sql.lexer import normalize
from .sql.parser import parse_sql

__all__ = [
    "Connection",
    "ConnectionMetrics",
    "PreparedQuery",
    "connect",
    "bind_parameters",
    "collect_parameters",
    "DEFAULT_STALENESS",
]

#: Epoch drift (number of writes since the last lowering) beyond which a
#: prepared query re-lowers its physical plan against fresh statistics.
DEFAULT_STALENESS = 64

#: Cache-key epoch bands are this many staleness windows wide: a cached
#: *logical* optimization survives at most ``staleness × _BAND_FACTOR``
#: writes before a fresh prepare replaces it.
_BAND_FACTOR = 16

#: Per-connection plan-cache capacity (LRU eviction).
DEFAULT_CACHE_SIZE = 128

#: Per-prepared-query memo of results (LRU): re-executing a hot binding
#: at an unchanged catalog epoch — a read-only stretch of the workload —
#: returns the memoized relation without touching an executor.
_RESULT_MEMO = 8


# ======================================================================
# parameter binding
# ======================================================================
def _resolve_binding(
    keys: Sequence[Any], params: Union[Sequence[Any], Mapping[Any, Any], None]
) -> Dict[Any, Expression]:
    """Map every parameter key to a ``Const`` from the caller's values.

    ``params`` is a sequence for positional ``?`` placeholders, a
    mapping for ``:name`` (or explicit-index) placeholders, or ``None``
    for parameterless queries.  Missing keys raise
    :class:`UnboundParameterError`; surplus values are rejected too, so
    arity mistakes fail loudly.
    """
    if not keys:
        if params:
            raise UnboundParameterError(
                f"query takes no parameters, got {params!r}"
            )
        return {}
    binding: Dict[Any, Expression] = {}
    missing: List[Any] = []
    if params is None:
        missing = list(keys)
    elif isinstance(params, Mapping):
        for key in keys:
            if key in params:
                binding[key] = _as_const(params[key])
            else:
                missing.append(key)
        surplus = [k for k in params if k not in keys]
        if surplus:
            raise UnboundParameterError(
                f"unknown parameter(s) {surplus!r}; query declares {list(keys)!r}"
            )
    else:
        values = list(params)
        positions = [k for k in keys if isinstance(k, int)]
        named = [k for k in keys if not isinstance(k, int)]
        if named:
            raise UnboundParameterError(
                f"named parameter(s) {named!r} need a mapping, got a sequence"
            )
        if len(values) != len(positions) or any(
            k >= len(values) for k in positions
        ):
            raise UnboundParameterError(
                f"positional parameter(s) at index(es) {positions!r} need "
                f"exactly {len(positions)} value(s), got {len(values)}"
            )
        for key in positions:
            binding[key] = _as_const(values[key])
    if missing:
        raise UnboundParameterError(f"unbound parameter(s): {missing!r}")
    return binding


def _as_const(value: Any) -> Expression:
    return value if isinstance(value, Expression) else Const(value)


def _bind(
    query: Union[Node, Expression],
    binding: Mapping[Any, Expression],
    spine: Optional[FrozenSet[int]] = None,
) -> Any:
    """``query`` — a logical plan, a physical plan or an expression —
    with every :class:`Parameter` replaced by its binding.  ``spine``
    (:func:`repro.analysis.binding_spine` of ``query``) limits the walk
    to the nodes that mention a parameter and their ancestors.

    A physical scan whose chunk-skip predicate holds template atoms
    (``column ⟨op⟩ ?slot``, see :func:`repro.db.chunks.derive_skip`) is
    replaced by a copy carrying the filled predicate, so the bound plan
    skips the chunks of its literal twin and the cached plan is never
    mutated.  Whatever mentions no parameter is returned as-is, not
    copied, so a parameterless query binds to the identical object
    graph — per-node ``actuals`` keyed by ``id(node)`` keep working.
    """

    def leaf(expr: Expression) -> Expression:
        if not isinstance(expr, Parameter):
            return expr
        bound = binding.get(expr.key)
        if bound is None:
            raise UnboundParameterError(f"unbound parameter {expr!r}")
        return bound

    def fill(node: Any) -> Any:
        if isinstance(node, (phys.Scan, phys.ParallelScan)):
            skip = node.skip
            if skip is not None and skip.slots():
                return replace(node, skip=skip.bind(binding))
        return node

    if isinstance(query, Expression):
        return query.map_leaves(leaf)
    return query.rewrite(lambda expr: expr.map_leaves(leaf), fill, spine)


def bind_parameters(
    query: Union[Plan, Expression],
    params: Union[Sequence[Any], Mapping[Any, Any], None],
) -> Union[Plan, Expression]:
    """Substitute parameter values into a logical plan or expression.

    The explicit, non-cached counterpart of
    :meth:`PreparedQuery.execute`: useful to materialize the exact query
    a binding denotes (the differential fuzzer compares prepared
    execution against fresh evaluation of this).
    """
    if isinstance(query, Expression):
        keys = query.parameters()
    else:
        keys = collect_parameters(query)
    binding = _resolve_binding(keys, params)
    return _bind(query, binding) if binding else query


def _binding_key(binding) -> Optional[tuple]:
    """A hashable result-memo key for a parameter binding (``None`` when
    the values are unhashable).  The value's *type* is part of the key:
    1, 1.0, and True compare equal but can give bit-different results."""
    try:
        key = tuple(
            (k, type(v).__name__, v)
            for k, v in sorted(
                (
                    (k, c.value if isinstance(c, Const) else c)
                    for k, c in binding.items()
                ),
                key=lambda kv: repr(kv[0]),
            )
        )
        hash(key)
    except TypeError:
        return None
    return key


def _memo_sites(pplan: phys.PhysNode, spine: FrozenSet[int]) -> FrozenSet[int]:
    """The ids of the nodes of ``pplan`` whose results the subplan memo
    keeps: each maximal subtree that mentions no parameter — off the
    binding ``spine``, its parent on it.  A bare scan only as a hash
    join's build side, for its join table: elsewhere its parent may be
    a streamed σ/π, which reads the table chunk by chunk only while the
    scan is unbound.  Nothing inside an ``Exchange`` region (the region
    binds its own invariant subtrees)."""
    sites = set()
    stack = [pplan] if id(pplan) in spine else []
    while stack:
        node = stack.pop()
        if isinstance(node, phys.Exchange):
            continue
        for child in node.children():
            if id(child) in spine:
                stack.append(child)
            elif not isinstance(child, (phys.Scan, phys.ParallelScan)) or (
                isinstance(node, phys.HashJoin) and child is node.right
            ):
                sites.add(id(child))
    return frozenset(sites)


def _param_repr(params) -> Optional[str]:
    """A bounded textual form of a parameter binding for the event log."""
    if params is None:
        return None
    text = repr(params)
    return text if len(text) <= 200 else text[:197] + "..."


def _result_rows(result) -> Optional[int]:
    """Output cardinality for events/slow-log: total bag rows for a Det
    relation, AU-tuples for an AU relation, ``None`` when unknown."""
    if result is None:
        return None
    total = getattr(result, "total_rows", None)
    if total is not None:
        return total()
    try:
        return len(result)
    except TypeError:
        return None


# ======================================================================
# the session objects
# ======================================================================
#: ConnectionMetrics counter fields and their registry help strings.
_METRIC_FIELDS: "OrderedDict[str, str]" = OrderedDict(
    parses="SQL texts parsed (a plan-cache hit parses nothing).",
    optimizations="Logical optimizer runs.",
    lowerings="Physical lowerings (including re-lowerings).",
    relowerings="Staleness-triggered physical re-plans.",
    cache_hits="Plan-cache hits.",
    cache_misses="Plan-cache misses.",
    auto_parameterized="SQL texts run as their template, comparison literals lifted.",
    executions="Query executions.",
    result_cache_hits="Executions answered from the epoch result memo.",
    subplan_memo_hits="Executions that read parameter-free subplans from the epoch memo.",
    stats_refreshes="Statistics-catalog harvests.",
    statements_prepared="PreparedQuery objects compiled.",
    subscriptions="Connection.subscribe() calls.",
)


class ConnectionMetrics:
    """Lifecycle counters of one connection (all monotone).

    ``cache_hits`` / ``cache_misses`` count SQL plan-cache lookups;
    ``auto_parameterized`` counts SQL texts that missed the cache and
    ran as their literal-free template (:meth:`Connection.execute`);
    ``parses`` / ``optimizations`` / ``lowerings`` count the pipeline
    stages actually run (a cache hit runs none of them);
    ``relowerings`` counts staleness-triggered physical re-plans (a
    subset of ``lowerings``); ``stats_refreshes`` counts catalog
    harvests; ``executions`` counts query executions
    (``result_cache_hits`` of which were answered from the read-only
    epoch result memo without running an executor, and
    ``subplan_memo_hits`` of which read the parameter-free subplans of
    an earlier execution at the same epoch);
    ``subscriptions`` counts :meth:`Connection.subscribe` calls.

    Since the telemetry PR this is a *view* over the process-wide
    :class:`repro.telemetry.MetricsRegistry`: every increment of a
    per-connection counter also increments the matching registry
    counter ``repro_session_<field>_total`` (labelled by engine when
    the connection knows one), so registry exposition aggregates over
    all connections while :meth:`snapshot` stays per-connection.
    Counters reject decrements — they are monotone by contract.
    """

    def __init__(
        self,
        engine: str = "",
        registry: "Optional[_tm.MetricsRegistry]" = None,
    ) -> None:
        reg = registry if registry is not None else _tm.get_registry()
        d = self.__dict__
        d["_values"] = {name: 0 for name in _METRIC_FIELDS}
        labels = {"engine": engine} if engine else {}
        d["_counters"] = {
            name: reg.counter(
                f"repro_session_{name}_total", help_text, **labels
            )
            for name, help_text in _METRIC_FIELDS.items()
        }

    def __getattr__(self, name: str) -> int:
        values = self.__dict__.get("_values")
        if values is not None and name in values:
            return values[name]
        raise AttributeError(name)

    def __setattr__(self, name: str, value: Any) -> None:
        values = self.__dict__.get("_values")
        if values is not None and name in values:
            delta = value - values[name]
            if delta < 0:
                raise ValueError(
                    f"ConnectionMetrics.{name} is monotone; cannot go "
                    f"from {values[name]} to {value}"
                )
            values[name] = value
            if delta:
                self.__dict__["_counters"][name].inc(delta)
        else:
            self.__dict__[name] = value

    def snapshot(self) -> Dict[str, int]:
        return dict(self.__dict__["_values"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(
            f"{k}={v}" for k, v in self.__dict__["_values"].items()
        )
        return f"ConnectionMetrics({body})"


class PreparedQuery:
    """A compiled query: parsed once, optimized once, re-lowered lazily.

    Created by :meth:`Connection.prepare`.  Holds the raw logical plan
    (``plan``), the optimized logical plan (``optimized``), and — unless
    the config selects the legacy direct interpretation — the lowered
    physical plan (``pplan``) together with the catalog epoch it was
    lowered at.  :meth:`execute` binds parameter values into the cached
    physical plan and runs it; when the connection's epoch has drifted
    more than ``staleness`` writes past the last lowering, the physical
    plan is first rebuilt against fresh statistics (re-*lowered*; the
    parse and logical optimization are never repeated for the lifetime
    of the object).
    """

    def __init__(
        self,
        connection: "Connection",
        query: Union[str, Plan],
        config: EvalConfig,
    ) -> None:
        metrics = connection.metrics
        metrics.statements_prepared += 1
        self.connection = connection
        self.config = config
        if isinstance(query, str):
            self.sql: Optional[str] = query
            metrics.parses += 1
            with _tm.stage("parse"):
                self.plan = parse_sql(query)
        else:
            self.sql = None
            self.plan = query
        #: parameter keys the query declares, in first-seen order
        self.parameters = collect_parameters(self.plan)
        #: annotation semantics this query executes under — what the
        #: optimizer's rewrites must preserve
        self.semantics = "bag" if connection.engine == "det" else "au"
        # prepare-time well-formedness check (always on): unknown
        # tables/columns, incompatible set operations, and ill-typed
        # expressions fail here with a one-line diagnostic naming the
        # node and column, instead of deep inside an executor
        stats = connection.statistics()
        with _tm.stage("analyze"):
            analysis.verify_logical(self.plan, stats)
        #: names of the optimizer rewrites that fired (semiring lint)
        self.rewrite_trace: List[str] = []
        if config.optimize:
            with _tm.stage("optimize"):
                self.optimized = optimize(
                    self.plan,
                    stats,
                    join_order=config.join_order,
                    semantics=self.semantics,
                    verify=connection.verify_plans,
                    trace=self.rewrite_trace,
                )
                tr = _tm._ACTIVE
                if tr is not None:
                    # one zero-duration mark per fired rewrite rule,
                    # straight from the optimizer's _record() trace
                    for rule in self.rewrite_trace:
                        tr.mark(rule)
            metrics.optimizations += 1
            if connection.verify_plans:
                analysis.check_semiring_safety(
                    self.rewrite_trace, self.semantics
                )
        else:
            self.optimized = self.plan
        self.pplan: Optional[phys.PhysNode] = None
        self.plan_epoch: Optional[int] = None
        # binding-values -> (catalog epoch, result) (LRU): read-only
        # stretches of a workload answer repeats without executing
        self._results: "OrderedDict[tuple, tuple]" = OrderedDict()
        # physical=False alone selects the legacy interpreter, on either
        # backend: the fuzzer's oracle must not follow the default backend
        if config.physical:
            self._lower()

    def _lower(self, relower: bool = False) -> None:
        with _tm.stage("lower", relower=relower):
            self._lower_inner(relower)

    def _lower_inner(self, relower: bool) -> None:
        conn = self.connection
        stats = conn.statistics()
        config = self.config
        self.pplan = phys.lower(
            self.optimized,
            stats,
            phys.PhysicalConfig.from_eval(conn.engine, config),
            verify=conn.verify_plans,
        )
        self.plan_epoch = stats.epoch
        # where binding can leave a parameter: verify_bound checks only these
        self._sites = (
            analysis.binding_sites(self.pplan) if conn.verify_plans else None
        )
        # ... and the only nodes binding visits
        self._spine = analysis.binding_spine(self.pplan)
        # what each binding can share with the last one at its epoch
        self._memo_sites = _memo_sites(self.pplan, self._spine)
        self._memo: Optional[SubplanMemo] = None
        self._memo_epoch = -1
        conn.metrics.lowerings += 1
        if relower:
            conn.metrics.relowerings += 1

    def execute(
        self,
        params: Union[Sequence[Any], Mapping[Any, Any], None] = None,
        actuals: Optional[Dict[int, int]] = None,
    ):
        """Run the query with ``params`` bound; returns a
        :class:`~repro.db.storage.DetRelation` (det connections) or an
        :class:`~repro.core.relation.AURelation` (AU connections).

        Re-executing a binding at an unchanged catalog epoch (no write
        happened since) returns the memoized relation of the previous
        run — treat results as read-only snapshots.  Any binding at an
        unchanged epoch reuses the parameter-free subplan results of the
        previous execution (:meth:`_subplan_memo`).
        """
        conn = self.connection
        if _tm._ACTIVE is None and conn.tracing:
            with _tm.start_trace("query") as trace:
                conn.last_trace = trace
                return self._run(params, actuals)
        return self._run(params, actuals)

    def _run(self, params, actuals):
        """The execute body: events, timing, and the slow-query offer
        wrap :meth:`_run_inner` (which does the actual work)."""
        conn = self.connection
        conn.metrics.executions += 1
        binding = _resolve_binding(self.parameters, params)
        events = conn.events
        slow_log = _tm.timing_enabled()
        timing = (
            slow_log or events is not None or _tm._ACTIVE is not None
        )
        if (
            actuals is None
            and slow_log
            and _tm.misestimation_armed()
            and self.config.physical
        ):
            actuals = {}  # the misestimation check needs per-node rows
        if events is not None:
            events.query_begin(self.sql, params=_param_repr(params))
        start = time.perf_counter() if timing else 0.0
        result = None
        cached = False
        try:
            result, cached = self._run_inner(binding, actuals)
        finally:
            if timing:
                seconds = time.perf_counter() - start
                rows = _result_rows(result)
                conn._latency.observe(seconds)
                if events is not None:
                    events.query_end(rows, cached=cached, seconds=seconds)
                if slow_log and not cached:
                    _tm.record_query(
                        sql=self.sql,
                        engine=conn.engine,
                        backend=self.config.backend,
                        seconds=seconds,
                        rows=rows,
                        pplan=self.pplan,
                        actuals=actuals,
                        trace=_tm._ACTIVE,
                    )
        return result

    def _run_inner(self, binding, actuals):
        """Dispatch one bound execution; returns ``(result, memo_hit)``."""
        conn = self.connection
        if not self.config.physical:
            with _tm.stage(
                "execute", engine=conn.engine, backend="legacy"
            ):
                return self._execute_legacy(binding, actuals), False
        if (
            conn.staleness >= 0
            and conn.epoch - self.plan_epoch > conn.staleness
        ):
            self._lower(relower=True)
        memo_key = None
        if actuals is None and hasattr(conn.db, "epoch"):
            memo_key = _binding_key(binding)
            if memo_key is not None:
                entry = self._results.get(memo_key)
                if entry is not None and entry[0] == conn.epoch:
                    self._results.move_to_end(memo_key)
                    conn.metrics.result_cache_hits += 1
                    tr = _tm._ACTIVE
                    if tr is not None:
                        tr.mark("result-memo-hit")
                    return entry[1], True
        pplan = self.pplan
        memo = None
        if binding:
            pplan = _bind(pplan, binding, self._spine)
            if conn.verify_plans:
                analysis.verify_bound(pplan, binding, self._sites)
            if actuals is None and self.config.backend == "vectorized":
                memo = self._subplan_memo()
        try:
            with _tm.stage(
                "execute",
                engine=conn.engine,
                backend=self.config.backend,
            ):
                if conn.engine == "det":
                    if self.config.backend == "vectorized":
                        from .exec.vectorized import execute_det

                        result = execute_det(
                            pplan,
                            conn.db,
                            actuals=actuals,
                            pool=conn._worker_pool(self.config),
                            memo=memo,
                        )
                    else:
                        from .db.engine import execute_physical_det

                        result = execute_physical_det(pplan, conn.db, actuals)
                elif self.config.backend == "vectorized":
                    from .exec.vectorized import execute_audb

                    result = execute_audb(
                        pplan,
                        conn.db,
                        actuals,
                        pool=conn._worker_pool(self.config),
                        memo=memo,
                    )
                else:
                    result = execute_physical_audb(pplan, conn.db, actuals)
        finally:
            if pplan is not self.pplan:
                # executors recorded actuals (and the trace its span
                # times) under the bound copy's node ids; mirror them
                # onto the cached template (structures are identical by
                # construction) so explain_physical / explain_analyze
                # on this PreparedQuery still show actual rows and time
                tr = _tm._ACTIVE
                if actuals is not None or tr is not None:
                    for template, bound in zip(
                        self.pplan.walk(), pplan.walk()
                    ):
                        if actuals is not None and id(bound) in actuals:
                            actuals[id(template)] = actuals[id(bound)]
                        if tr is not None:
                            tr.alias_node(id(template), id(bound))
        if memo_key is not None:
            self._results[memo_key] = (conn.epoch, result)
            while len(self._results) > _RESULT_MEMO:
                self._results.popitem(last=False)
        return result, False

    def _subplan_memo(self) -> Optional[SubplanMemo]:
        """The memo of this plan's parameter-free subplans at the
        connection's epoch, for a vectorized execution without
        ``actuals``: the output batch of each :func:`_memo_sites` node
        and the join table built over it as a hash-join build side.
        ``_bind`` leaves those nodes the template's own objects, so
        their ids key the memo for as long as the plan lives; a write or
        a re-lower drops it.  ``None`` — nothing read, nothing kept —
        without sites, on a database without ``epoch`` and under a
        materialization budget (a kept batch would skip the charge of a
        later run)."""
        conn = self.connection
        if (
            not self._memo_sites
            or not hasattr(conn.db, "epoch")
            or _batch.MATERIALIZATION_BUDGET is not None
        ):
            return None
        memo = self._memo
        if memo is None or self._memo_epoch != conn.epoch:
            memo = self._memo = SubplanMemo(self._memo_sites, {}, {})
            self._memo_epoch = conn.epoch
        elif memo.batches:
            conn.metrics.subplan_memo_hits += 1
            tr = _tm._ACTIVE
            if tr is not None:
                tr.mark("subplan-memo-hit", subplans=len(memo.batches))
        return memo

    def _execute_legacy(self, binding, actuals):
        """Legacy direct interpretation of the (bound) logical plan."""
        plan = _bind(self.optimized, binding) if binding else self.optimized
        config = self.config
        conn = self.connection
        if conn.engine == "det":
            from .db.engine import _evaluate as det_evaluate

            return det_evaluate(plan, conn.db, actuals)
        from .algebra.evaluator import _NO_HINTS, _evaluate as au_evaluate

        hints = _NO_HINTS
        if (
            config.optimize
            and config.adaptive_compression
            and config.join_buckets is not None
        ):
            hints = compression_hints(
                plan, conn.statistics(), config.join_buckets
            )
        return au_evaluate(plan, conn.db, config, hints, actuals)

    # -- introspection -------------------------------------------------
    def explain_logical(
        self, actuals: Optional[Dict[int, int]] = None
    ) -> str:
        """Render the optimized logical plan with row estimates."""
        from .algebra.optimizer import explain

        return explain(
            self.optimized, self.connection.statistics(), actuals=actuals
        )

    def explain_physical(
        self, actuals: Optional[Dict[int, int]] = None
    ) -> str:
        """Render the cached physical plan with the chosen algorithms."""
        if self.pplan is None:
            return "(legacy direct interpretation: no physical plan)"
        return phys.explain_physical(self.pplan, actuals=actuals)

    def explain_analyze(
        self,
        params: Union[Sequence[Any], Mapping[Any, Any], None] = None,
        lifted: int = 0,
    ) -> str:
        """Execute the query under a trace and render the physical plan
        with per-node actual rows, estimation-error factor, and
        inclusive wall time (plus a pipeline-stage summary footer).

        Always really executes — the result memo is bypassed — and
        always traces this one run, whatever the connection's or
        process's tracing setting.  The trace is kept on
        ``connection.last_trace`` for deeper inspection
        (:meth:`~repro.telemetry.QueryTrace.render` /
        :meth:`~repro.telemetry.QueryTrace.chrome_trace`).  ``lifted``
        is how many of ``params`` :meth:`Connection.explain_analyze`
        lifted out of a literal SQL text; the header reports it.
        """
        conn = self.connection
        actuals: Dict[int, int] = {}
        with _tm.start_trace("explain analyze") as trace:
            conn.last_trace = trace
            if lifted:
                trace.mark("auto-param", lifted=lifted)
            result = self._run(params, actuals)
        rows = _result_rows(result)
        stages = "  ".join(
            f"{span.name} {span.duration * 1e3:.3f}ms"
            for span in trace.root.children
            if span.cat == "stage"
        )
        header = (
            f"EXPLAIN ANALYZE ({conn.engine}, "
            f"backend={'legacy' if self.pplan is None else self.config.backend}"
            f"): {rows if rows is not None else '?'} rows "
            f"in {trace.duration * 1e3:.3f}ms"
        )
        if lifted:
            header += f", auto-parameterized: {lifted} literal(s)"
        if self.pplan is None:
            body = self.explain_logical(actuals=actuals)
        else:
            body = phys.explain_physical(
                self.pplan,
                actuals=actuals,
                times=trace.node_times,
                attrs=trace.node_attrs,
            )
        footer = f"stages: {stages}" if stages else ""
        return "\n".join(part for part in (header, body, footer) if part)


def _check_config(config: EvalConfig) -> None:
    """Reject configs no backend can run, before any plan is built."""
    if config.backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {config.backend!r}; "
            f"expected one of {BACKENDS}"
        )
    resolve_chunk_size(config.chunk_size)
    # bucket budgets may be None (no compression); bool is not a count
    for name in ("join_buckets", "aggregation_buckets", "parallelism"):
        value = getattr(config, name)
        if value is None and name != "parallelism":
            continue
        if type(value) is not int or value < 1:
            raise ValueError(f"{name} must be a positive int, got {value!r}")


class Connection:
    """A query session owning a database, its statistics, and a plan cache.

    ``engine`` is inferred from the database type
    (:class:`~repro.db.storage.DetDatabase` → ``"det"``,
    :class:`~repro.core.relation.AUDatabase` → ``"au"``) or passed
    explicitly for duck-typed databases.  ``config`` is the default
    :class:`~repro.algebra.evaluator.EvalConfig` for queries on this
    connection (per-call overrides get their own cache entries).

    ``staleness`` bounds how many writes a cached physical plan may
    trail the catalog by before executing re-lowers it; ``0`` re-lowers
    on every drift, ``-1`` never re-lowers (the cache-key epoch band is
    then also frozen).

    ``verify`` controls the static plan verifier
    (:mod:`repro.analysis`) for queries prepared on this connection:
    ``True`` re-verifies the plan after every optimizer pass and after
    lowering, ``False`` disables those debug assertions, and ``None``
    (default) defers to the process-wide switch
    (:func:`repro.analysis.verification_enabled`, env
    ``REPRO_VERIFY_PLANS``).  Prepare-time schema checking — unknown
    tables/columns, union compatibility, ill-typed expressions — is
    always on; it is part of compilation, not a debug assertion.

    ``trace`` controls telemetry tracing the same tri-state way:
    ``True`` wraps every :meth:`execute` in a
    :class:`~repro.telemetry.QueryTrace` (kept on :attr:`last_trace`),
    ``False`` disables it, ``None`` (default) defers to the
    process-wide switch (:func:`repro.telemetry.tracing_enabled`, env
    ``REPRO_TRACE``).  ``events`` opts into the structured
    :class:`~repro.telemetry.EventLog` on :attr:`events` (pass an
    ``int`` for a non-default ring capacity).
    """

    def __init__(
        self,
        db: Union[DetDatabase, AUDatabase],
        engine: Optional[str] = None,
        config: Optional[EvalConfig] = None,
        staleness: int = DEFAULT_STALENESS,
        cache_size: int = DEFAULT_CACHE_SIZE,
        verify: Optional[bool] = None,
        trace: Optional[bool] = None,
        events: Union[bool, int] = False,
    ) -> None:
        if engine is None:
            if isinstance(db, DetDatabase):
                engine = "det"
            elif isinstance(db, AUDatabase):
                engine = "au"
            else:
                raise TypeError(
                    f"cannot infer engine for {type(db).__name__}; pass "
                    "engine='det' or engine='au'"
                )
        if engine not in ("det", "au"):
            raise ValueError(f"unknown engine {engine!r}; expected det or au")
        self.db = db
        self.engine = engine
        self.config = config if config is not None else EvalConfig()
        _check_config(self.config)
        self.staleness = staleness
        self.cache_size = cache_size
        self.verify = verify
        self.trace = trace
        self.metrics = ConnectionMetrics(engine)
        #: the most recent QueryTrace captured on this connection
        self.last_trace: Optional[_tm.QueryTrace] = None
        #: the structured event log, or None when not opted in
        self.events: Optional[_tm.EventLog] = None
        if events:
            capacity = (
                events
                if isinstance(events, int) and not isinstance(events, bool)
                else 4096
            )
            self.events = _tm.EventLog(self, capacity=capacity)
        self._latency = _tm.get_registry().histogram(
            "repro_query_seconds",
            "Timed query execution latency (tracing, events, or the "
            "slow-query log armed).",
            engine=engine,
        )
        self._cache: "OrderedDict[tuple, PreparedQuery]" = OrderedDict()
        self._stats: Optional[Statistics] = None
        # id(view) -> live MaterializedView (see subscribe())
        self._subscriptions: Dict[int, Any] = {}
        # the persistent parallel worker pool (repro.exec.parallel),
        # created lazily by the first parallel vectorized execution and
        # reused across queries until close()
        self._pool: Optional[Any] = None

    def _worker_pool(self, config: EvalConfig) -> Optional[Any]:
        """The session's persistent worker pool for parallel vectorized
        execution — created lazily, sized to ``config.parallelism``,
        ``None`` when parallelism is off or ``fork`` is unavailable.

        The pool itself re-forks on database epoch drift
        (:meth:`repro.exec.parallel.WorkerPool.ensure`); this only
        manages sizing and lifetime."""
        import os

        if config.parallelism <= 1 or not hasattr(os, "fork"):
            return None
        if self._pool is None or self._pool.size != config.parallelism:
            if self._pool is not None:
                self._pool.close()
            from .exec.parallel import WorkerPool

            self._pool = WorkerPool(config.parallelism)
        return self._pool

    def close(self) -> None:
        """Release session resources: shuts the persistent worker pool
        down and drops the plan cache.  The connection remains usable
        (pools and cache entries are recreated on demand)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._cache.clear()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def verify_plans(self) -> bool:
        """Effective verification setting: the connection's ``verify``
        knob, or the process-wide switch when unset."""
        if self.verify is not None:
            return self.verify
        return analysis.verification_enabled()

    @property
    def tracing(self) -> bool:
        """Effective tracing setting: the connection's ``trace`` knob,
        or the process-wide switch when unset."""
        if self.trace is not None:
            return self.trace
        return _tm.tracing_enabled()

    # -- catalog -------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The database's current catalog epoch (0 if unversioned)."""
        return getattr(self.db, "epoch", 0)

    def statistics(self) -> Statistics:
        """The statistics catalog, re-harvested only when the epoch moved
        (and then incrementally — see
        :class:`repro.algebra.stats.StatsAccumulator`).

        Duck-typed databases without an ``epoch`` attribute cannot
        signal writes, so they re-harvest on *every* call (matching the
        pre-session behavior; per-relation caches still amortize the
        scan) — note prepared queries on such databases never see epoch
        drift and therefore never re-lower.
        """
        if (
            self._stats is None
            or not hasattr(self.db, "epoch")
            or self._stats.epoch != self.epoch
        ):
            self._stats = Statistics.from_database(self.db)
            self.metrics.stats_refreshes += 1
        return self._stats

    def _epoch_band(self) -> int:
        if self.staleness < 0:
            return 0
        if self.staleness == 0:
            return self.epoch
        return self.epoch // (self.staleness * _BAND_FACTOR)

    # -- the prepare/execute lifecycle ---------------------------------
    def prepare(
        self,
        query: Union[str, Plan],
        config: Optional[EvalConfig] = None,
    ) -> PreparedQuery:
        """Compile ``query`` (SQL text or a logical plan).

        SQL text is memoized in the plan cache under
        ``(sql, engine, config, epoch band)``; logical plans are
        compiled fresh each time (they have no value identity to key
        on) but still amortize across their own ``execute`` calls.
        """
        if config is None:
            config = self.config  # validated by __init__
        else:
            _check_config(config)
        if not isinstance(query, str):
            return PreparedQuery(self, query, config)
        key = self._cache_key(query, config)
        cached = self._cache.get(key)
        if cached is not None:
            self.metrics.cache_hits += 1
            self._cache.move_to_end(key)
            return cached
        self.metrics.cache_misses += 1
        prepared = PreparedQuery(self, query, config)
        self._cache[key] = prepared
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
        return prepared

    def _cache_key(self, sql: str, config: EvalConfig) -> tuple:
        return (sql, self.engine, config, self._epoch_band())

    def _lift(self, query, params, config):
        """``(query, params, lifted)`` to run one :meth:`execute` /
        :meth:`explain_analyze` call with.

        A SQL text without ``params`` whose raw text misses the plan
        cache runs as its template (:func:`repro.sql.lexer.normalize`):
        the comparison literals become ``?`` placeholders and their
        values the parameters, so texts differing only in literals share
        one cached plan.  ``lifted`` counts the literals (0 when the
        call runs as given); the raw text of a lifted query is never a
        cache key."""
        if not isinstance(query, str) or params is not None:
            return query, params, 0
        if self._cache_key(
            query, self.config if config is None else config
        ) in self._cache:
            return query, params, 0
        template = normalize(query)
        if template is None:
            return query, params, 0
        query, params = template
        self.metrics.auto_parameterized += 1
        tr = _tm._ACTIVE
        if tr is not None:
            tr.mark("auto-param", lifted=len(params))
        return query, params, len(params)

    def execute(
        self,
        query: Union[str, Plan],
        params: Union[Sequence[Any], Mapping[Any, Any], None] = None,
        config: Optional[EvalConfig] = None,
        actuals: Optional[Dict[int, int]] = None,
    ):
        """``prepare(query).execute(params)`` — with SQL text, repeated
        calls hit the plan cache and skip parse/optimize/lower, and a
        text without ``params`` that misses it shares the plan of every
        text differing from it only in comparison literals (see
        :meth:`_lift`).

        With tracing on (``trace=True`` or the process switch) the
        whole call runs under one :class:`~repro.telemetry.QueryTrace`
        — a cold prepare contributes parse/analyze/optimize/lower stage
        spans ahead of the execute span — kept on :attr:`last_trace`.
        """
        if _tm._ACTIVE is None and self.tracing:
            with _tm.start_trace("query") as trace:
                self.last_trace = trace
                return self._execute(query, params, config, actuals)
        return self._execute(query, params, config, actuals)

    def _execute(self, query, params, config, actuals):
        query, params, _ = self._lift(query, params, config)
        return self.prepare(query, config).execute(params, actuals=actuals)

    def explain_analyze(
        self,
        query: Union[str, Plan],
        params: Union[Sequence[Any], Mapping[Any, Any], None] = None,
        config: Optional[EvalConfig] = None,
    ) -> str:
        """EXPLAIN ANALYZE: execute ``query`` under a trace and render
        its physical plan with per-node actual rows, estimation-error
        factor, and inclusive wall time.  See
        :meth:`PreparedQuery.explain_analyze`."""
        query, params, lifted = self._lift(query, params, config)
        return self.prepare(query, config).explain_analyze(params, lifted)

    def clear_cache(self) -> None:
        self._cache.clear()

    # -- incremental view maintenance ----------------------------------
    def subscribe(self, query: Union[str, Plan], params=None):
        """Subscribe to ``query``: returns a live
        :class:`~repro.ivm.MaterializedView` kept consistent with the
        database under writes.

        The view is maintained per write by a *delta plan* derived from
        the optimized logical plan (see :mod:`repro.ivm`): the linear
        fragment propagates deltas algebraically, a root aggregate keeps
        its γ state beside its maintained input, and any non-linear
        residue re-executes epoch-gated at read time.  ``params`` are bound once,
        up front — a subscription denotes one concrete query.

        Call :meth:`MaterializedView.result` to read,
        :meth:`unsubscribe` (or ``view.close()``) to stop maintenance.
        """
        from .ivm import MaterializedView

        view = MaterializedView(self, query, params)
        self._subscriptions[id(view)] = view
        self.metrics.subscriptions += 1
        return view

    def unsubscribe(self, view) -> None:
        """Stop maintaining ``view``: detaches its write sinks and frees
        the registry entry.  Idempotent; equals ``view.close()``."""
        view.close()

    @property
    def subscriptions(self) -> tuple:
        """The connection's live subscriptions, registration order."""
        return tuple(self._subscriptions.values())


def connect(
    db: Union[DetDatabase, AUDatabase], **kwargs: Any
) -> Connection:
    """Open a :class:`Connection` to ``db`` (keyword args pass through)."""
    return Connection(db, **kwargs)

"""repro — AU-DB: Attribute-annotated Uncertain Databases.

A from-scratch reproduction of *"Efficient Uncertainty Tracking for Complex
Queries with Attribute-level Bounds"* (Feng, Huber, Glavic, Kennedy —
SIGMOD 2021).  The package provides:

* the AU-DB data model: range-annotated values, ``K^AU`` tuple annotations,
  AU-relations (:mod:`repro.core`);
* bound-preserving query semantics for full relational algebra plus
  aggregation, with the paper's compression optimizations;
* incomplete-database models (possible worlds, TI-DBs, x-DBs, C-tables)
  and their bound-preserving translations into AU-DBs;
* a deterministic bag-semantics engine, a SQL frontend, a TPC-H/PDBench
  workload generator, and reimplementations of the paper's baselines
  (UA-DB, Libkin, MCDB, MayBMS, Trio, symbolic semimodules);
* the full experiment harness regenerating every figure and table of the
  paper's evaluation (see ``benchmarks/`` and ``EXPERIMENTS.md``).

Quickstart::

    from repro import AURelation, between, certain, parse_sql, evaluate_audb, AUDatabase

    locales = AURelation(["locale", "rate", "size"])
    locales.add(["LA", between(3.0, 3.0, 4.0), "metro"], (1, 1, 1))
    locales.add(["Austin", 18.0, between("city", "city", "metro")], (1, 1, 1))

    plan = parse_sql("SELECT size, avg(rate) AS rate FROM locales GROUP BY size")
    result = evaluate_audb(plan, AUDatabase({"locales": locales}))
    print(result.pretty())
"""

from .algebra.ast import (
    Aggregate,
    CrossProduct,
    Difference,
    Distinct,
    Join,
    Limit,
    OrderBy,
    Plan,
    Projection,
    Rename,
    Selection,
    TableRef,
    TopK,
    Union,
)
from .algebra.evaluator import EvalConfig, evaluate_audb
from .algebra.optimizer import Statistics, compression_hints, explain, optimize
from .algebra.stats import (
    ColumnStats,
    equi_join_selectivity,
    harvest_column_stats,
    predicate_selectivity,
)
from .core.aggregation import (
    AggregateSpec,
    agg_avg,
    agg_count,
    agg_max,
    agg_min,
    agg_sum,
    aggregate,
)
from .core.bounding import bounds_incomplete, bounds_world, find_tuple_matching
from .core.expressions import (
    Const,
    Expression,
    If,
    Not,
    Parameter,
    UnboundParameterError,
    Var,
)
from .core.ranges import RangeValue, between, certain
from .core.relation import AUDatabase, AURelation, decode, encode
from .core import operators
from .core.compression import compress, optimized_join, split_sg, split_up
from .db.engine import evaluate_det
from .db.storage import DetDatabase, DetRelation
from .exec import BACKENDS, AUColumnBatch, ColumnBatch
from .incomplete.ctable import CTable, VTable, codd_table
from .incomplete.tidb import TIDatabase, TIRelation
from .incomplete.worlds import (
    IncompleteDatabase,
    certain_bag,
    possible_bag,
    query_worlds,
)
from .incomplete.xdb import XDatabase, XRelation, XTuple
from .lenses import key_repair_lens, make_uncertain
from .accuracy import (
    audb_certain_keys,
    audb_possible_keys,
    bound_tightness,
    certain_tuple_recall,
    mean_numeric_range,
    over_grouping_percent,
    possible_recall_by_id,
    possible_recall_by_value,
    range_overestimation_factor,
)
from .session import (
    Connection,
    ConnectionMetrics,
    PreparedQuery,
    bind_parameters,
    connect,
)
from .sql.parser import parse_sql
from .telemetry import (
    EventLog,
    MetricsRegistry,
    QueryTrace,
    configure_slow_log,
    get_registry,
    set_tracing,
    slow_queries,
    tracing_enabled,
)

__version__ = "1.0.0"

__all__ = [
    # core model
    "RangeValue", "between", "certain",
    "AURelation", "AUDatabase", "encode", "decode",
    "bounds_world", "bounds_incomplete", "find_tuple_matching",
    # expressions
    "Expression", "Var", "Const", "If", "Not",
    "Parameter", "UnboundParameterError",
    # operators & aggregation
    "operators", "aggregate", "AggregateSpec",
    "agg_sum", "agg_count", "agg_min", "agg_max", "agg_avg",
    "split_sg", "split_up", "compress", "optimized_join",
    # plans & engines
    "Plan", "TableRef", "Selection", "Projection", "Join", "CrossProduct",
    "Union", "Difference", "Distinct", "Aggregate", "Rename",
    "OrderBy", "Limit", "TopK",
    "EvalConfig", "evaluate_audb", "evaluate_det",
    "BACKENDS", "ColumnBatch", "AUColumnBatch",
    "Statistics", "optimize", "explain", "compression_hints",
    "ColumnStats", "harvest_column_stats",
    "predicate_selectivity", "equi_join_selectivity",
    "DetRelation", "DetDatabase",
    # incomplete models
    "IncompleteDatabase", "query_worlds", "certain_bag", "possible_bag",
    "TIRelation", "TIDatabase", "XTuple", "XRelation", "XDatabase",
    "CTable", "VTable", "codd_table",
    # sessions (prepared statements, plan cache)
    "Connection", "ConnectionMetrics", "PreparedQuery",
    "connect", "bind_parameters",
    # telemetry (tracing, metrics registry, event log, slow-query log)
    "QueryTrace", "MetricsRegistry", "EventLog",
    "get_registry", "tracing_enabled", "set_tracing",
    "configure_slow_log", "slow_queries",
    # paper accuracy metrics (repro.accuracy)
    "certain_tuple_recall", "possible_recall_by_id",
    "possible_recall_by_value", "bound_tightness",
    "over_grouping_percent", "range_overestimation_factor",
    "mean_numeric_range", "audb_certain_keys", "audb_possible_keys",
    # lenses & sql
    "key_repair_lens", "make_uncertain", "parse_sql",
]

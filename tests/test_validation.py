"""Failure-injection tests: malformed inputs raise clear errors everywhere."""

import pytest

from repro.algebra.ast import TableRef
from repro.algebra.evaluator import EvalConfig, evaluate_audb
from repro.core.aggregation import AggregateSpec
from repro.core.compression import compress
from repro.core.ranges import RangeValue
from repro.core.relation import AUDatabase, AURelation, decode
from repro.core.expressions import Const, Div, Var
from repro.db.engine import evaluate_det
from repro.db.storage import DetDatabase, DetRelation
from repro.incomplete.xdb import XTuple
from repro.session import Connection
from repro.sql.parser import SqlSyntaxError, parse_sql


class TestModelValidation:
    def test_range_value_rejects_unordered(self):
        with pytest.raises(ValueError, match="lb <= sg <= ub"):
            RangeValue(5, 1, 9)

    def test_annotation_rejects_unordered(self):
        r = AURelation(["a"])
        with pytest.raises(ValueError, match="K\\^AU"):
            r.add([1], (3, 2, 1))

    def test_annotation_rejects_negative(self):
        r = AURelation(["a"])
        with pytest.raises(ValueError):
            r.add([1], (-1, 0, 0))

    def test_decode_rejects_bad_arity(self):
        with pytest.raises(ValueError, match="arity"):
            decode(["a", "b"], [(1, 2, 3)])

    def test_aggregate_spec_validation(self):
        with pytest.raises(ValueError, match="unsupported aggregate"):
            AggregateSpec("median", Var("x"), "m")
        with pytest.raises(ValueError, match="requires an expression"):
            AggregateSpec("sum", None, "s")

    def test_xtuple_validation(self):
        with pytest.raises(ValueError):
            XTuple((), ())
        with pytest.raises(ValueError, match="probabilit"):
            XTuple(((1,), (2,)), (0.8, 0.8))


class TestEngineErrors:
    def test_unknown_table(self):
        with pytest.raises(KeyError, match="not found"):
            evaluate_det(TableRef("nope"), DetDatabase({}))
        with pytest.raises(KeyError, match="not found"):
            evaluate_audb(TableRef("nope"), AUDatabase({}))

    def test_unknown_attribute_in_condition(self):
        db = DetDatabase({"r": DetRelation(["a"], [(1,)])})
        with pytest.raises(KeyError):
            evaluate_det(TableRef("r").where(Var("zzz") > Const(0)), db)

    def test_union_schema_mismatch(self):
        from repro.algebra.ast import Union

        db = AUDatabase(
            {
                "r": AURelation.from_certain_rows(["a"], [[1]]),
                "s": AURelation.from_certain_rows(["a", "b"], [[1, 2]]),
            }
        )
        with pytest.raises(ValueError, match="union"):
            evaluate_audb(Union(TableRef("r"), TableRef("s")), db)

    def test_division_by_uncertain_zero(self):
        from repro.core.ranges import between

        rel = AURelation(["a"])
        rel.add([between(-1, 0, 1)], (1, 1, 1))
        db = AUDatabase({"r": rel})
        plan = TableRef("r").select((Div(Const(1), Var("a")), "inv"))
        with pytest.raises(ZeroDivisionError):
            evaluate_audb(plan, db)

    def test_compress_invalid_attribute(self):
        rel = AURelation.from_certain_rows(["a"], [[1], [2], [3]])
        with pytest.raises(KeyError):
            compress(rel, "nope", 2)


class TestSqlErrors:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT",
            "SELECT a FROM",
            "SELECT a FROM t WHERE",
            "SELECT a FROM t GROUP",
            "SELECT sum( FROM t",
            "SELECT a b c FROM t",
            "FROM t SELECT a",
            "SELECT a FROM t LIMIT x",
        ],
    )
    def test_malformed_sql(self, sql):
        with pytest.raises(SqlSyntaxError):
            parse_sql(sql)

    def test_aggregate_in_where_is_rejected_downstream(self):
        # aggregates are only legal in the select list; in WHERE the parser
        # treats sum(...) as an unknown construct and fails cleanly
        with pytest.raises(SqlSyntaxError):
            parse_sql("SELECT a FROM t WHERE sum(a) > 1 GROUP BY a")


class TestEvalConfigEdges:
    def test_zero_buckets_rejected(self):
        rel = AURelation.from_certain_rows(["a", "b"], [[1, 2]])
        db = AUDatabase({"r": rel, "s": rel})
        with pytest.raises(ValueError):
            compress(rel, "a", 0)

    def test_missing_equi_pair_falls_back(self):
        # optimized join requested but the condition has no equi pair:
        # evaluator silently falls back to the naive theta join
        left = AURelation.from_certain_rows(["a"], [[1], [2]])
        right = AURelation.from_certain_rows(["b"], [[1]])
        db = AUDatabase({"l": left, "r": right})
        plan = TableRef("l").join(TableRef("r"), Var("a") > Var("b"))
        out = evaluate_audb(plan, db, EvalConfig(join_buckets=4))
        assert len(out) == 1


class TestConnectionConfig:
    """A bucket budget or a worker count no executor can honour is a
    ``ValueError`` when the connection (or a per-call config) is made,
    on both engines — not a late error, or a silent serial run."""

    BAD = [
        {"join_buckets": 0},
        {"join_buckets": -1},
        {"join_buckets": 2.5},
        {"join_buckets": True},
        {"aggregation_buckets": 0},
        {"aggregation_buckets": 2.5},
        {"aggregation_buckets": False},
        {"parallelism": 0},
        {"parallelism": -3},
        {"parallelism": None},
        {"parallelism": 2.0},
        {"parallelism": True},
    ]

    @staticmethod
    def _dbs():
        au = AUDatabase({"r": AURelation.from_certain_rows(["a"], [[1], [2]])})
        det = DetDatabase({"r": DetRelation(["a"], [(1,), (2,)])})
        return au, det

    @pytest.mark.parametrize("fields", BAD, ids=repr)
    def test_bad_config_is_rejected(self, fields):
        for db in self._dbs():
            with pytest.raises(ValueError):
                Connection(db, config=EvalConfig(**fields))
            with Connection(db) as conn:
                with pytest.raises(ValueError):
                    conn.execute("SELECT a FROM r", config=EvalConfig(**fields))

    @pytest.mark.parametrize(
        "fields",
        [
            {"join_buckets": None, "aggregation_buckets": None},
            {"join_buckets": 1},
            {"aggregation_buckets": 8, "parallelism": 1},
        ],
        ids=repr,
    )
    def test_good_config_is_accepted(self, fields):
        for db in self._dbs():
            with Connection(db, config=EvalConfig(**fields)) as conn:
                assert len(conn.execute("SELECT a FROM r")) == 2

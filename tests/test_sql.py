"""Unit tests for the SQL frontend (lexer, parser, planner)."""

import pytest

from repro.algebra.ast import (
    Aggregate,
    CrossProduct,
    Difference,
    Distinct,
    Join,
    Limit,
    OrderBy,
    Projection,
    Selection,
    TableRef,
    Union,
)
from repro.core.expressions import Const, Var
from repro.db.engine import evaluate_det
from repro.db.storage import DetDatabase, DetRelation
from repro.sql.lexer import SqlSyntaxError, tokenize
from repro.sql.parser import parse_sql


class TestLexer:
    def test_keywords_case_insensitive(self):
        toks = tokenize("select FROM WhErE")
        assert [t.value for t in toks[:-1]] == ["SELECT", "FROM", "WHERE"]

    def test_string_literals_with_escapes(self):
        toks = tokenize("'don''t'")
        assert toks[0].value == "don't"

    def test_numbers(self):
        toks = tokenize("1 2.5 .75")
        assert [t.value for t in toks[:-1]] == ["1", "2.5", ".75"]

    def test_comments_skipped(self):
        toks = tokenize("SELECT -- comment\n1")
        assert [t.kind for t in toks] == ["keyword", "number", "eof"]

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")

    def test_unknown_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT @")


class TestParserStructure:
    def test_simple_select(self):
        plan = parse_sql("SELECT a, b FROM t")
        assert isinstance(plan, Projection)
        assert isinstance(plan.child, TableRef)

    def test_star(self):
        plan = parse_sql("SELECT * FROM t WHERE a = 1")
        assert isinstance(plan, Selection)

    def test_join_on(self):
        plan = parse_sql("SELECT * FROM r JOIN s ON r.a = s.b")
        assert isinstance(plan, Join)

    def test_comma_cross(self):
        plan = parse_sql("SELECT * FROM r, s WHERE a = b")
        assert isinstance(plan, Selection)
        assert isinstance(plan.child, CrossProduct)

    def test_group_by_with_having(self):
        plan = parse_sql(
            "SELECT g, sum(v) AS s FROM t GROUP BY g HAVING s > 10"
        )
        assert isinstance(plan, Aggregate)
        assert plan.having is not None

    def test_aggregate_without_group(self):
        plan = parse_sql("SELECT count(*) AS n FROM t")
        assert isinstance(plan, Aggregate)
        assert plan.group_by == ()

    def test_distinct(self):
        plan = parse_sql("SELECT DISTINCT a FROM t")
        assert isinstance(plan, Distinct)

    def test_union_except(self):
        plan = parse_sql("SELECT a FROM r UNION SELECT a FROM s")
        assert isinstance(plan, Union)
        plan2 = parse_sql("SELECT a FROM r EXCEPT SELECT a FROM s")
        assert isinstance(plan2, Difference)

    def test_order_limit(self):
        plan = parse_sql("SELECT a FROM t ORDER BY a DESC LIMIT 3")
        assert isinstance(plan, Limit)
        assert isinstance(plan.child, OrderBy)
        assert plan.child.descending

    def test_subquery(self):
        plan = parse_sql("SELECT a FROM (SELECT a FROM t WHERE a > 1) s")
        assert isinstance(plan, Projection)

    def test_non_grouped_column_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("SELECT a, sum(b) AS s FROM t GROUP BY c")

    def test_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("SELECT FROM WHERE")


class TestExpressions:
    def test_precedence(self):
        plan = parse_sql("SELECT a + b * 2 AS x FROM t")
        expr = plan.columns[0][0]
        assert expr.eval({"a": 1, "b": 3}) == 7

    def test_parentheses(self):
        plan = parse_sql("SELECT (a + b) * 2 AS x FROM t")
        assert plan.columns[0][0].eval({"a": 1, "b": 3}) == 8

    def test_unary_minus(self):
        plan = parse_sql("SELECT -a AS x FROM t")
        assert plan.columns[0][0].eval({"a": 4}) == -4

    def test_between_and_in(self):
        plan = parse_sql("SELECT * FROM t WHERE a BETWEEN 1 AND 3 AND b IN (5, 6)")
        cond = plan.condition
        assert cond.eval({"a": 2, "b": 5})
        assert not cond.eval({"a": 4, "b": 5})
        assert not cond.eval({"a": 2, "b": 7})

    def test_case_when(self):
        plan = parse_sql(
            "SELECT CASE WHEN a > 1 THEN 'big' WHEN a = 1 THEN 'one' "
            "ELSE 'small' END AS label FROM t"
        )
        expr = plan.columns[0][0]
        assert expr.eval({"a": 5}) == "big"
        assert expr.eval({"a": 1}) == "one"
        assert expr.eval({"a": 0}) == "small"

    def test_is_null(self):
        plan = parse_sql("SELECT * FROM t WHERE a IS NULL")
        assert plan.condition.eval({"a": None})
        plan2 = parse_sql("SELECT * FROM t WHERE a IS NOT NULL")
        assert plan2.condition.eval({"a": 3})


class TestEndToEnd:
    @pytest.fixture
    def db(self):
        sales = DetRelation(
            ["product", "region", "amount"],
            [
                ("widget", "east", 10),
                ("widget", "west", 20),
                ("gadget", "east", 5),
                ("gadget", "east", 5),
            ],
        )
        return DetDatabase({"sales": sales})

    def test_group_by_query(self, db):
        plan = parse_sql(
            "SELECT product, sum(amount) AS total FROM sales GROUP BY product"
        )
        out = evaluate_det(plan, db)
        assert out.rows == {("widget", 30): 1, ("gadget", 10): 1}

    def test_filter_and_project(self, db):
        plan = parse_sql(
            "SELECT product FROM sales WHERE region = 'east' AND amount > 5"
        )
        out = evaluate_det(plan, db)
        assert out.rows == {("widget",): 1}

    def test_audb_evaluation_from_sql(self, db):
        from repro.algebra.evaluator import evaluate_audb
        from repro.core.relation import AUDatabase, AURelation

        audb = AUDatabase(
            {"sales": AURelation.from_certain_rows(
                ["product", "region", "amount"],
                [t for t, m in db["sales"].tuples() for _ in range(m)],
            )}
        )
        plan = parse_sql(
            "SELECT region, count(*) AS n FROM sales GROUP BY region"
        )
        out = evaluate_audb(plan, audb)
        world = out.selected_guess_world()
        assert world == {("east", 3): 1, ("west", 1): 1}


class TestSelfJoin:
    """Attribute names are global, so a FROM clause naming one table
    twice would read one set of columns for both sides: the front end
    rejects it at prepare, with one typed error on both engines."""

    @pytest.fixture
    def dbs(self):
        from repro.core.relation import AUDatabase, AURelation

        rows = [(i % 2, i) for i in range(6)]
        det = DetDatabase({"r": DetRelation(["a", "b"], rows)})
        au = AUDatabase({"r": AURelation.from_certain_rows(["a", "b"], rows)})
        return det, au

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT x.a, y.b FROM r x, r y WHERE x.a = y.a",
            "SELECT a FROM r CROSS JOIN r",
            "SELECT a FROM r JOIN r ON a = a",
        ],
    )
    def test_one_table_twice_is_rejected_on_both_engines(self, dbs, sql):
        from repro.session import Connection

        for db in dbs:
            with pytest.raises(SqlSyntaxError, match="'r' appears twice") as exc:
                Connection(db).prepare(sql)
            assert "subquery" in str(exc.value)

    def test_renaming_subquery_is_the_way_round(self, dbs):
        from repro.session import Connection

        sql = (
            "SELECT a, b2 FROM r, (SELECT a AS a2, b AS b2 FROM r) y "
            "WHERE a = a2"
        )
        det, au = dbs
        want = Connection(det).execute(sql)
        assert sum(want.rows.values()) == 18  # 2 keys x 3 x 3 rows
        got = Connection(au).execute(sql)
        assert got.selected_guess_world() == want.rows


class TestParameters:
    def test_lexer_tokenizes_placeholders(self):
        toks = tokenize("WHERE a >= ? AND b = :low_2")
        kinds = [(t.kind, t.value) for t in toks if t.kind == "param"]
        assert kinds == [("param", "?"), ("param", "low_2")]

    def test_bare_colon_rejected(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("a : b")

    def test_positional_parameters_number_left_to_right(self):
        from repro.core.expressions import Parameter
        from repro.session import collect_parameters

        plan = parse_sql("SELECT a FROM t WHERE a >= ? AND b <= ?")
        assert collect_parameters(plan) == [0, 1]
        cond = next(
            n.condition for n in plan.walk() if isinstance(n, Selection)
        )
        assert isinstance(cond.left.right, Parameter)
        assert cond.left.right.key == 0 and cond.right.right.key == 1

    def test_named_parameters(self):
        from repro.session import collect_parameters

        plan = parse_sql(
            "SELECT a, sum(v * :scale) AS s FROM t "
            "WHERE v >= :low GROUP BY a HAVING s <= :cap"
        )
        # collection order follows the plan's pre-order walk; the set of
        # declared names is what binding validates against
        assert sorted(collect_parameters(plan)) == ["cap", "low", "scale"]

    def test_unbound_parameter_raises_at_execution(self):
        from repro.core.expressions import UnboundParameterError

        table = DetRelation(["a"], [(1,), (2,)])
        plan = parse_sql("SELECT a FROM t WHERE a = ?")
        with pytest.raises(UnboundParameterError):
            evaluate_det(plan, DetDatabase({"t": table}))

    def test_bind_parameters_round_trip(self):
        from repro.session import bind_parameters

        table = DetRelation(["a", "b"], [(1, 10), (2, 20), (3, 30)])
        db = DetDatabase({"t": table})
        plan = parse_sql("SELECT a FROM t WHERE b >= ? AND b <= ?")
        bound = bind_parameters(plan, [15, 25])
        assert evaluate_det(bound, db).rows == {(2,): 1}
        named = parse_sql("SELECT a FROM t WHERE b = :want")
        assert evaluate_det(
            bind_parameters(named, {"want": 30}), db
        ).rows == {(3,): 1}

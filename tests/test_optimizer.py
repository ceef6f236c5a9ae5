"""The logical optimizer is semantics-preserving for BOTH engines.

Mirrors ``tests/test_property_expressions.py``: Hypothesis generates
random plans (with schema tracking, so joins combine disjoint tables and
conditions only mention visible attributes) over random AU-databases, and
we assert

* the AU engine returns identical annotations (and schema) with the
  optimizer on and off, and
* the Det engine returns identical bags over the selected-guess world,

plus unit tests for the individual rewrite rules, ``Statistics``
harvesting, and ``explain``.
"""

import itertools
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra.ast import (
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
from repro.algebra.evaluator import EvalConfig, evaluate_audb
from repro.algebra.optimizer import (
    NARROW_MIN_CELLS,
    Statistics,
    _prune,
    estimate,
    explain,
    optimize,
    schema_of,
)
from repro.core.aggregation import agg_count, agg_max, agg_min, agg_sum
from repro.core.expressions import And, Const, Eq, Gt, Leq, Not, Or, Var
from repro.core.ranges import RangeValue
from repro.core.relation import AUDatabase, AURelation
from repro.db.engine import evaluate_det
from repro.db.storage import DetDatabase, DetRelation

SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TABLES = {"r": ("a", "b"), "s": ("c", "d"), "u": ("e", "f")}


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
def _draw_condition(draw, schema):
    def atom():
        lhs = Var(draw(st.sampled_from(schema)))
        rhs = draw(
            st.one_of(
                st.integers(-2, 6).map(Const),
                st.sampled_from(schema).map(Var),
            )
        )
        op = draw(st.sampled_from([Eq, Leq, Gt]))
        return op(lhs, rhs)

    cond = atom()
    for _ in range(draw(st.integers(0, 2))):
        combiner = draw(st.sampled_from(["and", "or", "not"]))
        if combiner == "and":
            cond = And(cond, atom())
        elif combiner == "or":
            cond = Or(cond, atom())
        else:
            cond = Not(cond)
    return cond


def _draw_plan(draw, depth):
    """Returns ``(plan, schema, used_tables)``."""
    if depth <= 0:
        name = draw(st.sampled_from(sorted(TABLES)))
        return TableRef(name), list(TABLES[name]), {name}

    choice = draw(st.integers(0, 9))
    plan, schema, used = _draw_plan(draw, depth - 1)

    if choice == 0:  # leaf
        name = draw(st.sampled_from(sorted(TABLES)))
        return TableRef(name), list(TABLES[name]), {name}
    if choice == 1:  # selection
        return Selection(plan, _draw_condition(draw, schema)), schema, used
    if choice == 2:  # projection (subset + one computed column)
        kept = draw(
            st.lists(st.sampled_from(schema), min_size=1, unique=True)
        )
        cols = [(Var(a), a) for a in kept]
        if draw(st.booleans()):
            x = draw(st.sampled_from(schema))
            cols.append((Var(x) + Const(1), f"w{depth}"))
        return Projection(plan, cols), [n for _, n in cols], used
    if choice == 3:  # join with a table not yet used
        free = sorted(set(TABLES) - used)
        if not free:
            return Selection(plan, _draw_condition(draw, schema)), schema, used
        name = draw(st.sampled_from(free))
        other_schema = list(TABLES[name])
        left_key = draw(st.sampled_from(schema))
        right_key = draw(st.sampled_from(other_schema))
        plan = Join(plan, TableRef(name), Eq(Var(left_key), Var(right_key)))
        return plan, schema + other_schema, used | {name}
    if choice == 4:  # cross product with a table not yet used
        free = sorted(set(TABLES) - used)
        if not free:
            return Distinct(plan), schema, used
        name = draw(st.sampled_from(free))
        return (
            CrossProduct(plan, TableRef(name)),
            schema + list(TABLES[name]),
            used | {name},
        )
    if choice == 5:  # union / difference against a filtered copy
        other = Selection(plan, _draw_condition(draw, schema))
        node = Union if draw(st.booleans()) else Difference
        return node(plan, other), schema, used
    if choice == 6:  # distinct
        return Distinct(plan), schema, used
    if choice == 7:  # group-by aggregate
        keys = draw(st.lists(st.sampled_from(schema), min_size=1, unique=True))
        value = draw(st.sampled_from(schema))
        spec = draw(
            st.sampled_from(
                [
                    agg_sum(value, "agg"),
                    agg_min(value, "agg"),
                    agg_max(value, "agg"),
                    agg_count("agg"),
                ]
            )
        )
        return Aggregate(plan, keys, [spec]), keys + ["agg"], used
    if choice == 8:  # ORDER BY ... LIMIT (exercises TopK fusion)
        keys = draw(st.lists(st.sampled_from(schema), min_size=1, unique=True))
        descending = draw(st.booleans())
        n = draw(st.integers(1, 4))
        return (
            Limit(OrderBy(plan, keys, descending), n),
            schema,
            used,
        )
    # rename one column to a fresh name
    old = draw(st.sampled_from(schema))
    new = f"{old}_{depth}"
    return (
        Rename(plan, {old: new}),
        [new if a == old else a for a in schema],
        used,
    )


@st.composite
def plans(draw):
    plan, schema, used = _draw_plan(draw, draw(st.integers(1, 4)))
    return plan


@st.composite
def au_databases(draw):
    relations = {}
    for name, schema in TABLES.items():
        rel = AURelation(schema)
        for _ in range(draw(st.integers(0, 5))):
            values = []
            for _column in schema:
                lo = draw(st.integers(-2, 5))
                mid = lo + draw(st.integers(0, 2))
                hi = mid + draw(st.integers(0, 2))
                values.append(RangeValue(lo, mid, hi))
            lb = draw(st.integers(0, 1))
            sg = lb + draw(st.integers(0, 1))
            ub = sg + draw(st.integers(0, 1))
            if ub > 0:
                rel.add(values, (lb, sg, ub))
        relations[name] = rel
    return AUDatabase(relations)


def _sgw_det_db(audb: AUDatabase) -> DetDatabase:
    det = DetDatabase({})
    for name, rel in audb.relations.items():
        d = DetRelation(rel.schema)
        for row, mult in rel.selected_guess_world().items():
            d.add(row, mult)
        det[name] = d
    return det


# ----------------------------------------------------------------------
# the central property: optimize() is exact for both engines
# ----------------------------------------------------------------------
@SETTINGS
@given(plan=plans(), audb=au_databases())
def test_optimize_preserves_au_annotations(plan, audb):
    naive = evaluate_audb(plan, audb, EvalConfig(optimize=False))
    optimized = evaluate_audb(plan, audb, EvalConfig(optimize=True))
    assert optimized.schema == naive.schema, f"schema changed for {plan!r}"
    assert dict(optimized.tuples()) == dict(naive.tuples()), (
        f"AU annotations changed for {plan!r}"
    )


@SETTINGS
@given(plan=plans(), audb=au_databases())
def test_optimize_preserves_det_bags(plan, audb):
    det = _sgw_det_db(audb)
    naive = evaluate_det(plan, det, optimize=False)
    optimized = evaluate_det(plan, det, optimize=True)
    assert optimized.schema == naive.schema, f"schema changed for {plan!r}"
    assert optimized.rows == naive.rows, f"Det bag changed for {plan!r}"


@SETTINGS
@given(plan=plans(), audb=au_databases())
def test_optimize_without_stats_is_still_exact(plan, audb):
    """Even with no Statistics, the schema-free rules must be exact."""
    rewritten = optimize(plan)
    naive = evaluate_audb(plan, audb, EvalConfig(optimize=False))
    opt = evaluate_audb(rewritten, audb, EvalConfig(optimize=False))
    assert dict(opt.tuples()) == dict(naive.tuples())


@SETTINGS
@given(plan=plans(), audb=au_databases())
def test_optimize_is_idempotent_on_results(plan, audb):
    """Optimizing an already-optimized plan changes nothing observable."""
    stats = Statistics.from_database(audb)
    once = optimize(plan, stats)
    twice = optimize(once, stats)
    a = evaluate_audb(once, audb, EvalConfig(optimize=False))
    b = evaluate_audb(twice, audb, EvalConfig(optimize=False))
    assert dict(a.tuples()) == dict(b.tuples())


@SETTINGS
@given(plan=plans(), audb=au_databases())
def test_projection_pruning_is_a_fixpoint(plan, audb):
    """Pruning a pruned plan changes nothing: every projection already
    keeps only what its ancestors read."""
    stats = Statistics.from_database(audb)
    pruned = optimize(plan, stats)
    assert explain(_prune(pruned, None, stats)) == explain(pruned)


def _shape(plan, stats):
    """The plan tree without its cardinality estimates."""
    return [re.sub(r"  \(~.*\)$", "", line) for line in explain(plan, stats).splitlines()]


def test_q3_narrows_every_reordered_join_input():
    """The join reorderer's schema-restoring π sits under the γ: pruning
    narrows it to what the γ reads and then every join input below."""
    from repro.tpch.datagen import generate_tpch
    from repro.tpch.queries import q3

    db = generate_tpch(scale=0.01, seed=1)
    stats = Statistics.from_database(db)
    trace = []
    optimized = optimize(q3(), stats, trace=trace)
    assert "projection-pruning" in trace
    assert _shape(optimized, stats) == [
        "Aggregate γ[l_orderkey,o_orderdate,o_shippriority; "
        "sum((l_extendedprice * (1 - l_discount)))→revenue]",
        "  Projection π[o_orderdate, o_shippriority, l_orderkey, "
        "l_extendedprice, l_discount]",
        "    Join ⋈[(o_orderkey = l_orderkey)]",
        "      Projection π[l_orderkey, l_extendedprice, l_discount]",
        "        Selection σ[(l_shipdate > 19950315)]",
        "          Table lineitem",
        "      Projection π[o_orderkey, o_orderdate, o_shippriority]",
        "        Join ⋈[(c_custkey = o_custkey)]",
        "          Projection π[o_orderkey, o_custkey, o_orderdate, o_shippriority]",
        "            Selection σ[(o_orderdate < 19950315)]",
        "              Table orders",
        "          Projection π[c_custkey]",
        "            Selection σ[(c_mktsegment = 'BUILDING')]",
        "              Table customer",
    ]
    assert explain(_prune(optimized, None, stats)) == explain(optimized)
    # a bag-only plan narrows a join input only when that drops
    # NARROW_MIN_CELLS estimated cells: lineitem's ~122 rows x 13
    # columns, not the ~20 orders or the one BUILDING customer
    bag = optimize(q3(), stats, semantics="bag")
    assert [
        line.strip() for line in _shape(bag, stats) if "Projection" in line
    ] == [
        "Projection π[o_orderdate, o_shippriority, l_orderkey, "
        "l_extendedprice, l_discount]",
        "Projection π[l_orderkey, l_extendedprice, l_discount]",
    ]
    for plan in (optimized, bag):
        assert image(evaluate_det(plan, db, optimize=False)) == image(
            evaluate_det(q3(), db, optimize=False)
        )


def image(rel):
    return rel.schema, [(repr(t), m) for t, m in rel.tuples()]


# ----------------------------------------------------------------------
# unit tests for the individual rules
# ----------------------------------------------------------------------
# selection pushdown through Aggregate group-by keys (AU-safe gate)
# ----------------------------------------------------------------------
@st.composite
def certain_au_databases(draw):
    """AU-databases whose *values* are all certain (multiplicity bounds
    may still be uncertain) — the catalog reports uncertain fraction 0
    for every column, so the aggregate pushdown rule is allowed to fire."""
    relations = {}
    for name, schema in TABLES.items():
        rel = AURelation(schema)
        for _ in range(draw(st.integers(0, 5))):
            values = [
                RangeValue(v, v, v)
                for v in (
                    draw(st.integers(-2, 5)) for _column in schema
                )
            ]
            lb = draw(st.integers(0, 1))
            sg = lb + draw(st.integers(0, 1))
            ub = sg + draw(st.integers(0, 1))
            if ub > 0:
                rel.add(values, (lb, sg, ub))
        relations[name] = rel
    return AUDatabase(relations)


@st.composite
def selection_over_aggregate_plans(draw):
    """``σ_c(γ_{keys}(subplan))`` with ``c`` over the group-by keys (the
    shape the new pushdown rule targets), sometimes wrapped further."""
    plan, schema, _used = _draw_plan(draw, draw(st.integers(0, 2)))
    keys = draw(st.lists(st.sampled_from(schema), min_size=1, unique=True))
    value = draw(st.sampled_from(schema))
    spec = draw(
        st.sampled_from(
            [agg_sum(value, "agg"), agg_min(value, "agg"), agg_count("agg")]
        )
    )
    agg = Aggregate(plan, keys, [spec])
    # condition over group-by keys only (the pushable case) or mixing in
    # the aggregate output (must stay above the barrier)
    cond_schema = keys if draw(st.booleans()) else keys + ["agg"]
    cond = _draw_condition(draw, cond_schema)
    selected = Selection(agg, cond)
    if draw(st.booleans()):
        selected = Selection(selected, _draw_condition(draw, keys + ["agg"]))
    return selected


class TestAggregatePushdown:
    @SETTINGS
    @given(plan=selection_over_aggregate_plans(), audb=certain_au_databases())
    def test_exact_for_au_on_certain_columns(self, plan, audb):
        naive = evaluate_audb(plan, audb, EvalConfig(optimize=False))
        optimized = evaluate_audb(plan, audb, EvalConfig(optimize=True))
        assert optimized.schema == naive.schema
        assert dict(optimized.tuples()) == dict(naive.tuples())

    @SETTINGS
    @given(plan=selection_over_aggregate_plans(), audb=au_databases())
    def test_exact_for_au_on_uncertain_columns(self, plan, audb):
        """With uncertain values the catalog gate blocks unsafe pushes —
        results must still be identical."""
        naive = evaluate_audb(plan, audb, EvalConfig(optimize=False))
        optimized = evaluate_audb(plan, audb, EvalConfig(optimize=True))
        assert dict(optimized.tuples()) == dict(naive.tuples())

    @SETTINGS
    @given(plan=selection_over_aggregate_plans(), audb=au_databases())
    def test_exact_for_det(self, plan, audb):
        det = _sgw_det_db(audb)
        naive = evaluate_det(plan, det, optimize=False)
        optimized = evaluate_det(plan, det, optimize=True)
        assert optimized.schema == naive.schema
        assert optimized.rows == naive.rows

    def test_pushes_below_aggregate_when_certain(self):
        db = DetDatabase({"r": DetRelation(["a", "b"], [(1, 2), (3, 4)])})
        plan = Selection(
            Aggregate(TableRef("r"), ["a"], [agg_sum("b", "t")]),
            Gt(Var("a"), Const(1)),
        )
        optimized = optimize(plan, Statistics.from_database(db))
        assert isinstance(optimized, Aggregate)
        assert isinstance(optimized.child, Selection)

    def test_blocked_on_uncertain_group_column(self):
        rel = AURelation(["a", "b"])
        rel.add([RangeValue(0, 1, 2), RangeValue(2, 2, 2)], (1, 1, 1))
        audb = AUDatabase({"r": rel})
        plan = Selection(
            Aggregate(TableRef("r"), ["a"], [agg_sum("b", "t")]),
            Gt(Var("a"), Const(1)),
        )
        optimized = optimize(plan, Statistics.from_database(audb))
        assert isinstance(optimized, Selection)  # still above the barrier

    def test_blocked_on_aggregate_output_and_variable_free(self):
        db = DetDatabase({"r": DetRelation(["a", "b"], [(1, 2)])})
        stats = Statistics.from_database(db)
        on_output = Selection(
            Aggregate(TableRef("r"), ["a"], [agg_sum("b", "t")]),
            Gt(Var("t"), Const(1)),
        )
        assert isinstance(optimize(on_output, stats), Selection)
        # a variable-free false filter above a *global* aggregate must not
        # suppress the empty-input result row by being pushed below it
        var_free = Selection(
            Aggregate(TableRef("r"), [], [agg_count("n")]),
            Gt(Const(0), Const(1)),
        )
        out = evaluate_det(var_free, db, optimize=True)
        naive = evaluate_det(var_free, db, optimize=False)
        assert out.rows == naive.rows


@pytest.fixture
def det_db():
    emp = DetRelation(
        ["name", "dept", "salary"],
        [("ann", "eng", 100), ("bob", "eng", 80), ("cat", "ops", 60)],
    )
    dept = DetRelation(["dept2", "city"], [("eng", "nyc"), ("ops", "sfo")])
    big = DetRelation(["k", "v"], [(i, 2 * i) for i in range(40)])
    return DetDatabase({"emp": emp, "dept": dept, "big": big})


class TestRules:
    def test_selection_pushes_into_join_sides(self, det_db):
        stats = Statistics.from_database(det_db)
        plan = Selection(
            Join(TableRef("emp"), TableRef("dept"), Eq(Var("dept"), Var("dept2"))),
            Gt(Var("salary"), Const(70)),
        )
        optimized = optimize(plan, stats)
        # the filter must now sit below the join, directly on emp
        assert isinstance(optimized, Join)
        text = explain(optimized, stats)
        join_line = next(i for i, l in enumerate(text.splitlines()) if "Join" in l)
        sel_line = next(
            i for i, l in enumerate(text.splitlines()) if "salary" in l
        )
        assert sel_line > join_line

    def test_cross_plus_selection_becomes_join(self, det_db):
        stats = Statistics.from_database(det_db)
        plan = Selection(
            CrossProduct(TableRef("emp"), TableRef("dept")),
            Eq(Var("dept"), Var("dept2")),
        )
        optimized = optimize(plan, stats)
        assert isinstance(optimized, Join)

    def test_join_reordering_restores_column_order(self, det_db):
        stats = Statistics.from_database(det_db)
        plan = Selection(
            CrossProduct(
                CrossProduct(TableRef("big"), TableRef("emp")), TableRef("dept")
            ),
            And(Eq(Var("dept"), Var("dept2")), Eq(Var("salary"), Var("v"))),
        )
        out = evaluate_det(plan, det_db, optimize=False)
        for join_order in ("greedy", "dp"):
            optimized = optimize(plan, stats, join_order=join_order)
            out2 = evaluate_det(optimized, det_db, optimize=False)
            assert out.schema == out2.schema, join_order
            assert out.rows == out2.rows, join_order
        # greedy order starts from the smallest table (dept), so a
        # restoring projection must be on top
        assert isinstance(optimize(plan, stats, join_order="greedy"), Projection)

    def test_orderby_limit_fuses_to_topk(self):
        plan = Limit(OrderBy(TableRef("emp"), ["salary"], True), 2)
        optimized = optimize(plan)
        assert isinstance(optimized, TopK)
        assert optimized.keys == ("salary",)
        assert optimized.descending
        assert optimized.n == 2

    def test_projection_pruning_narrows_join_inputs(self, det_db):
        plan = Projection(
            Join(TableRef("emp"), TableRef("dept"), Eq(Var("dept"), Var("dept2"))),
            [(Var("name"), "name")],
        )

        def narrowed(db, semantics):
            stats = Statistics.from_database(db)
            optimized = optimize(plan, stats, semantics=semantics)
            out = evaluate_det(plan, db, optimize=False)
            assert evaluate_det(optimized, db, optimize=False).rows == out.rows
            return [
                n
                for n in optimized.walk()
                if isinstance(n, Projection)
                and [name for _, name in n.columns] == ["dept2"]
            ]

        # the dept side only contributes the join key, so `city` is
        # pruned — in a bag-only plan once it holds NARROW_MIN_CELLS
        # cells: on two rows a projection node costs more than the
        # column it drops
        assert narrowed(det_db, "both")
        assert not narrowed(det_db, "bag")
        big = DetDatabase(dict(det_db.relations))
        big["dept"] = DetRelation(
            ["dept2", "city"], [(f"d{i}", f"c{i}") for i in range(NARROW_MIN_CELLS)]
        )
        assert narrowed(big, "bag")

    def test_pushdown_through_union_is_positional(self):
        r = DetRelation(["a"], [(1,), (2,), (3,)])
        s = DetRelation(["z"], [(2,), (9,)])
        db = DetDatabase({"r": r, "s": s})
        plan = Selection(
            Union(TableRef("r"), TableRef("s")), Gt(Var("a"), Const(1))
        )
        out = evaluate_det(plan, db, optimize=False)
        out2 = evaluate_det(plan, db, optimize=True)
        assert out.rows == out2.rows == {(2,): 2, (3,): 1, (9,): 1}

    def test_no_reorder_with_duplicate_names_across_join_leaves(self):
        """Regression: flatten/reattach must not move a conjunct into a
        scope where a duplicated attribute name re-binds it."""
        a = DetRelation(["a"], [(5,)])
        b = DetRelation(["b"], [(1,)])
        c = DetRelation(["a"], [(1,)])
        db = DetDatabase({"A": a, "B": b, "C": c})
        plan = Join(
            Join(TableRef("A"), TableRef("B"), Eq(Var("a"), Var("b"))),
            TableRef("C"),
            Eq(Var("b"), Const(1)),
        )
        naive = evaluate_det(plan, db, optimize=False)
        optimized = evaluate_det(plan, db, optimize=True)
        assert naive.rows == optimized.rows == {}

    def test_no_pushdown_into_duplicate_named_union_branch(self):
        """Regression: a union branch with duplicate attribute names must
        not receive pushed selections (positional translation would bind
        to the wrong column)."""
        left = DetRelation(["x", "y"], [(1, 10), (2, 20)])
        r = DetRelation(["a"], [(1,), (5,)])
        s = DetRelation(["a"], [(9,)])
        db = DetDatabase({"L": left, "R": r, "S": s})
        plan = Selection(
            Union(TableRef("L"), CrossProduct(TableRef("R"), TableRef("S"))),
            Eq(Var("x"), Const(1)),
        )
        naive = evaluate_det(plan, db, optimize=False)
        optimized = evaluate_det(plan, db, optimize=True)
        assert naive.rows == optimized.rows == {(1, 10): 1, (1, 9): 1}


class TestStatistics:
    def test_from_det_database(self, det_db):
        stats = Statistics.from_database(det_db)
        assert stats.cardinalities["big"] == 40
        assert stats.schemas["emp"] == ("name", "dept", "salary")

    def test_from_au_database(self):
        rel = AURelation.from_certain_rows(["a", "b"], [[1, 2], [3, 4]])
        stats = Statistics.from_database(AUDatabase({"r": rel}))
        assert stats.cardinalities["r"] == 2
        assert stats.schemas["r"] == ("a", "b")

    def test_estimates_monotone_under_selection(self, det_db):
        stats = Statistics.from_database(det_db)
        base = TableRef("big")
        filtered = Selection(base, Gt(Var("k"), Const(0)))
        assert estimate(filtered, stats) <= estimate(base, stats)

    def test_schema_inference(self, det_db):
        stats = Statistics.from_database(det_db)
        plan = Join(TableRef("emp"), TableRef("dept"), Eq(Var("dept"), Var("dept2")))
        assert schema_of(plan, stats) == ("name", "dept", "salary", "dept2", "city")
        assert schema_of(TableRef("missing"), stats) is None


class TestDPJoinOrdering:
    """The cost-based (DP) enumerator: correct, and skew-aware."""

    @pytest.fixture
    def skew_db(self):
        """R–S share a constant join key (a 1-distinct skew column), the
        S–T and T–U edges are selective; greedy (which only sees base
        cardinalities) starts from the small skewed table, DP does not."""
        r = DetRelation(["r_b", "r_x"], [(0, i) for i in range(4)])
        s = DetRelation(["s_b", "s_c"], [(0, i) for i in range(30)])
        t = DetRelation(["t_c", "t_d"], [(i, i) for i in range(30)])
        u = DetRelation(["u_d", "u_e"], [(i, i) for i in range(6)])
        return DetDatabase({"R": r, "S": s, "T": t, "U": u})

    def _skew_plan(self):
        return Selection(
            CrossProduct(
                CrossProduct(CrossProduct(TableRef("R"), TableRef("S")), TableRef("T")),
                TableRef("U"),
            ),
            And(
                And(Eq(Var("r_b"), Var("s_b")), Eq(Var("s_c"), Var("t_c"))),
                Eq(Var("t_d"), Var("u_d")),
            ),
        )

    def test_dp_equals_greedy_results_on_skew(self, skew_db):
        plan = self._skew_plan()
        naive = evaluate_det(plan, skew_db, optimize=False)
        for join_order in ("greedy", "dp"):
            out = evaluate_det(plan, skew_db, optimize=True, join_order=join_order)
            assert out.schema == naive.schema
            assert out.rows == naive.rows

    def test_dp_defers_the_skewed_join(self, skew_db):
        """DP must never materialize the 1-distinct (cartesian-like) R⋈S
        intermediate greedy starts with; the skewed edge is only applied
        once the selective S–T–U edges have shrunk the other side."""
        stats = Statistics.from_database(skew_db)
        plan = self._skew_plan()

        def join_table_sets(node):
            return {
                frozenset(n.table_names())
                for n in node.walk()
                if isinstance(n, (Join, CrossProduct))
            }

        dp = optimize(plan, stats, join_order="dp")
        assert frozenset({"R", "S"}) not in join_table_sets(dp)
        greedy = optimize(plan, stats, join_order="greedy")
        assert frozenset({"R", "S"}) in join_table_sets(greedy)

    def test_dp_falls_back_to_greedy_without_column_stats(self, det_db):
        cards_only = Statistics.from_database(det_db, column_stats=False)
        full = Statistics.from_database(det_db)
        plan = Selection(
            CrossProduct(
                CrossProduct(TableRef("big"), TableRef("emp")), TableRef("dept")
            ),
            And(Eq(Var("dept"), Var("dept2")), Eq(Var("salary"), Var("v"))),
        )
        fallback = optimize(plan, cards_only, join_order="dp")
        greedy = optimize(plan, cards_only, join_order="greedy")
        assert repr(fallback) == repr(greedy)
        out = evaluate_det(plan, det_db, optimize=False)
        for optimized in (fallback, optimize(plan, full, join_order="dp")):
            got = evaluate_det(optimized, det_db, optimize=False)
            assert got.rows == out.rows

    def test_unknown_join_order_rejected(self, det_db):
        with pytest.raises(ValueError, match="join_order"):
            optimize(TableRef("emp"), Statistics.from_database(det_db),
                     join_order="bogus")

    def test_dp_estimates_key_fk_join_exactly(self, det_db):
        """dept2 is a key for dept and dept a matching FK column of emp:
        the estimated join size must be |emp|."""
        stats = Statistics.from_database(det_db)
        plan = Join(TableRef("emp"), TableRef("dept"), Eq(Var("dept"), Var("dept2")))
        assert estimate(plan, stats) == pytest.approx(3.0)


class TestExplain:
    def test_explain_renders_tree_with_estimates(self, det_db):
        stats = Statistics.from_database(det_db)
        plan = Selection(TableRef("big"), Gt(Var("k"), Const(5)))
        text = explain(plan, stats)
        assert "Selection" in text
        assert "Table big" in text
        assert "rows" in text

    def test_explain_without_stats(self):
        text = explain(TableRef("anything"))
        assert "Table anything" in text

    def test_unknown_table_is_warned_not_silently_defaulted(self, det_db):
        stats = Statistics.from_database(det_db)
        text = explain(
            Join(TableRef("emp"), TableRef("ghost"), Eq(Var("dept"), Var("g"))),
            stats,
        )
        assert "no statistics for table 'ghost'" in text
        assert "1000 rows" in text
        # known tables never trigger the warning
        assert "no statistics" not in explain(TableRef("emp"), stats)
        warnings = []
        estimate(TableRef("ghost"), stats, warnings)
        estimate(TableRef("ghost"), stats, warnings)
        assert len(warnings) == 1  # deduplicated

    def test_explain_actual_vs_estimated_for_scan_join_topk(self, det_db):
        """The engines record per-node actual cardinalities which explain
        renders next to the estimates — exercised for scans, joins, and
        the fused TopK."""
        stats = Statistics.from_database(det_db)
        plan = Limit(
            OrderBy(
                Join(
                    TableRef("emp"), TableRef("dept"), Eq(Var("dept"), Var("dept2"))
                ),
                ["salary"],
                True,
            ),
            2,
        )
        optimized = optimize(plan, stats)
        assert isinstance(optimized, TopK)
        actuals = {}
        result = evaluate_det(optimized, det_db, optimize=False, actuals=actuals)
        text = explain(optimized, stats, actuals=actuals)
        lines = text.splitlines()
        topk_line = next(l for l in lines if "TopK" in l)
        join_line = next(l for l in lines if "Join" in l)
        scan_lines = [l for l in lines if "Table" in l]
        assert f"actual {result.total_rows():g}" in topk_line
        assert "actual 3" in join_line  # 3 emp rows each match one dept
        for line in scan_lines:
            assert "actual" in line
        # estimates are present alongside
        assert "~" in topk_line and "~" in join_line

    def test_audb_actuals_are_recorded_too(self):
        rel = AURelation.from_certain_rows(["a"], [[1], [2], [3]])
        db = AUDatabase({"r": rel})
        plan = Selection(TableRef("r"), Gt(Var("a"), Const(1)))
        actuals = {}
        evaluate_audb(plan, db, EvalConfig(optimize=False), actuals=actuals)
        assert actuals[id(plan)] == 2
        assert actuals[id(plan.child)] == 3

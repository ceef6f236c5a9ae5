"""The vectorized det ``HashAggregate`` ≡ ``db.engine._aggregate``.

:meth:`repro.exec.vectorized._DetExec._aggregate` groups once — one
hash pass from each group key to its rows — and then folds each
aggregate's input column per group through the registry's det ``fold``
(:data:`repro.core.aggregation.AGGREGATES`, :func:`repro.core.sums.add_products`).
The tuple interpreter's ``_aggregate`` (one ``_fold`` per group and
function over the group's tuples) is its oracle: the same physical plan
runs on both executors and the results must agree in **rows, row order
and the ``repr`` of every cell** (``1`` vs ``1.0`` vs ``True``, ``0.0``
vs ``-0.0``) — or both raise the same exception type.

The generators cover 0, 1 and many groups; no ``GROUP BY`` over an
empty and a non-empty input; group keys ``1`` / ``1.0`` / ``True`` (one
group under dict equality) and two distinct NaN objects (two groups);
int, bool, float, ``±0.0``, ``±inf``, NaN, ``1e308`` and ``None`` /
string aggregate inputs; multiplicities > 1 from the base relation and
from a join; ``HAVING``; and the ``partial`` fold merged at an
``Exchange`` at parallelism 1 and 4.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.ast import Aggregate, TableRef
from repro.core.aggregation import AGGREGATES, AggregateSpec, agg_count, agg_sum
from repro.core.expressions import Add, Const, Eq, Gt, Leq, Mul, Var
from repro.db.engine import evaluate_det, execute_physical_det
from repro.db.storage import DetDatabase, DetRelation
from repro.exec import parallel as exec_parallel
from repro.exec import physical as phys
from repro.exec.vectorized import execute_det
from repro.session import Connection

KINDS = sorted(AGGREGATES)

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
#: two NaN objects: each is its own group (hash and equality go by
#: identity), so a key column holding both has two NaN groups
_NAN_A, _NAN_B = float("nan"), float("nan")
#: a small key domain, so groups collide and ``1`` meets ``1.0`` and
#: ``True``
KEYS = st.one_of(
    st.integers(0, 3),
    st.sampled_from([1.0, 2.5, True, None, "a", _NAN_A, _NAN_B]),
)
NUMBERS = st.one_of(
    st.integers(-3, 7),
    st.sampled_from([0.5, -2.25, 0.1, 0.0, -0.0, 3.5, 1e308, -1e308, 1.5e308]),
)
SPECIAL = st.sampled_from([math.inf, -math.inf, math.nan, True, 2**63 - 1])
VALUES = st.sampled_from(
    [
        st.integers(-3, 7),  # int columns: the C sum
        st.sampled_from([0.5, -2.25, 0.1, 0.0, -0.0, 1e308, 1.5e308]),
        st.sampled_from([0.5, math.inf, -math.inf]),  # never in C
        NUMBERS,
        st.one_of(NUMBERS, SPECIAL),
        st.one_of(NUMBERS, NUMBERS, st.none(), st.just("s")),
    ]
)


@st.composite
def relations(draw, schema=("g", "h", "v", "w"), max_rows=10):
    """Rows drawn with replacement from a small pool, multiplicities
    1..3 (or all 1): the relation merges equal rows, so weights > 1 are
    common."""
    keys, values = draw(st.sampled_from([st.integers(0, 3), KEYS])), draw(VALUES)
    mults = draw(st.sampled_from([st.just(1), st.integers(1, 3)]))
    row = st.tuples(keys, keys, values, values)
    pool = draw(st.lists(row, min_size=1, max_size=8))
    n = draw(st.sampled_from([0, 1, max_rows // 2, max_rows, max_rows]))
    rel = DetRelation(schema)
    for t in draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)):
        rel.add(t, draw(mults))
    return rel


#: compiled plain attributes and arithmetic; ``None`` / string inputs
#: make them (or the sum over them) raise TypeError on both executors
EXPRESSIONS = st.sampled_from(
    [Var("v"), Var("v"), Var("w"), Mul(Var("v"), Const(2)), Add(Var("v"), Var("w"))]
)


@st.composite
def specs(draw, max_specs=3):
    out = []
    for i in range(draw(st.integers(1, max_specs))):
        kind = draw(st.sampled_from(KINDS))
        expr = draw(EXPRESSIONS) if AGGREGATES[kind].takes_input else None
        out.append(AggregateSpec(kind, expr, f"a{i}"))
    return out


GROUP_BYS = st.sampled_from([[], ["g"], ["g"], ["h"], ["g", "h"], ["h", "g"]])
HAVINGS = st.sampled_from(
    [None, None, Gt(Var("a0"), Const(0)), Leq(Var("a0"), Const(1)),
     Eq(Var("a0"), Var("a0"))]
)


def outcome(fn):
    try:
        return "ok", fn()
    except Exception as exc:  # noqa: BLE001 - parity of *any* failure
        return "raised", type(exc)


def image(rel):
    """Schema, rows in ``tuples()`` order with multiplicities, every cell
    by ``repr`` (a NaN cell prints ``nan`` on both sides)."""
    return rel.schema, [(repr(t), m) for t, m in rel.tuples()]


def assert_same(got, expected):
    assert got[0] == expected[0], (got, expected)
    if got[0] == "raised":
        assert got == expected
        return
    assert image(got[1]) == image(expected[1])


PROPERTY = settings(max_examples=400, deadline=None, derandomize=True)


# ----------------------------------------------------------------------
# the property
# ----------------------------------------------------------------------
class TestEqualsAggregate:
    @PROPERTY
    @given(st.data())
    def test_over_a_scan(self, data):
        rel = data.draw(relations())
        db = DetDatabase({"t": rel})
        pplan = phys.HashAggregate(
            phys.Scan("t"), data.draw(GROUP_BYS), data.draw(specs()),
            data.draw(HAVINGS),
        )
        expected = outcome(lambda: execute_physical_det(pplan, db))
        assert_same(outcome(lambda: execute_det(pplan, db)), expected)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_over_a_join(self, data):
        # every joined row's weight is the product of two multiplicities
        left = data.draw(relations())
        right = DetRelation(["k", "z"])
        for k in range(4):
            right.add((k, data.draw(NUMBERS)), data.draw(st.integers(1, 3)))
            if data.draw(st.booleans()):
                right.add((float(k), data.draw(NUMBERS)), 2)
        db = DetDatabase({"t": left, "u": right})
        join = phys.HashJoin(
            phys.Scan("t"), phys.Scan("u"), Eq(Var("g"), Var("k")), (("g", "k"),),
            True,
        )
        group_by = data.draw(st.sampled_from([[], ["k"], ["z"], ["g", "z"]]))
        pplan = phys.HashAggregate(
            join, group_by, data.draw(specs()), data.draw(HAVINGS)
        )
        expected = outcome(lambda: execute_physical_det(pplan, db))
        assert_same(outcome(lambda: execute_det(pplan, db)), expected)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_partial_folds_merged_at_an_exchange(self, data):
        rel = data.draw(relations(max_rows=14))
        plan = Aggregate(
            TableRef("t"), data.draw(GROUP_BYS), data.draw(specs()),
            data.draw(HAVINGS),
        )
        db = DetDatabase({"t": rel})
        expected = outcome(lambda: evaluate_det(plan, db, physical=False))
        old = exec_parallel.PARALLEL_MIN_ROWS
        exec_parallel.PARALLEL_MIN_ROWS = 0
        try:
            for parallelism in (1, 4):
                got = outcome(
                    lambda: evaluate_det(
                        plan, db, backend="vectorized", parallelism=parallelism,
                        chunk_size=2,
                    )
                )
                assert_same(got, expected)
        finally:
            exec_parallel.PARALLEL_MIN_ROWS = old


# ----------------------------------------------------------------------
# pinned cases
# ----------------------------------------------------------------------
def _run(rows, group_by, aggregates, having=None):
    db = DetDatabase({"t": DetRelation(["g", "v"], rows)})
    pplan = phys.HashAggregate(phys.Scan("t"), group_by, aggregates, having)
    got, expected = execute_det(pplan, db), execute_physical_det(pplan, db)
    assert image(got) == image(expected)
    return got


def test_groups_come_out_in_first_appearance_order():
    rows = {(k, i): 1 for i, k in enumerate(["b", 3, None, "a", 1.0, 0, 2.5, "b"])}
    out = _run(rows, ["g"], [agg_count("n")])
    assert [t[0] for t, _m in out.tuples()] == ["b", 3, None, "a", 1.0, 0, 2.5]


def test_equal_keys_share_a_group_and_nan_objects_do_not():
    rows = {(1, 10): 1, (1.0, 20): 1, (True, 30): 2, (_NAN_A, 1): 1,
            (_NAN_B, 2): 1, (_NAN_A, 3): 1}
    out = _run(rows, ["g"], [agg_sum("v", "s"), agg_count("n")])
    assert [(repr(t[0]), t[1], t[2]) for t, _m in out.tuples()] == [
        ("1", 90, 4), ("nan", 4, 2), ("nan", 2, 1)
    ]


def test_non_finite_floats_leave_the_c_path():
    # opposite infinities in one unit-weight float group: the absorbing
    # slot makes them NaN (a term list would make fsum raise)
    rows = {(1, math.inf): 1, (1, 0.5): 1, (1, -math.inf): 1, (2, 0.25): 1}
    out = _run(rows, ["g"], [agg_sum("v", "s"), AggregateSpec("avg", Var("v"), "a")])
    assert repr(list(out.tuples())) == "[((1, nan, nan), 1), ((2, 0.25, 0.25), 1)]"


def test_empty_input_without_group_by_is_one_row():
    out = _run({}, [], [agg_sum("v", "s"), agg_count("n")])
    assert list(out.tuples()) == [((0, 0), 1)]
    assert list(_run({}, ["g"], [agg_count("n")]).tuples()) == []


@pytest.mark.parametrize("nan_first", [True, False])
def test_min_max_rank_nan_above_every_number_in_any_row_order(nan_first):
    # MIN / MAX rank by core.ranges.order_key, as ORDER BY does: NaN
    # above every number, so neither the insert order nor chunking nor
    # parallel morsels change the answer
    rows = [(0, math.nan), (1, 1.0), (2, 3.0)]
    if not nan_first:
        rows[0], rows[1] = rows[1], rows[0]
    db = DetDatabase({"t": DetRelation(["a", "b"], rows)})
    plan = Aggregate(
        TableRef("t"),
        [],
        [AggregateSpec("min", Var("b"), "lo"), AggregateSpec("max", Var("b"), "hi")],
    )
    old = exec_parallel.PARALLEL_MIN_ROWS
    exec_parallel.PARALLEL_MIN_ROWS = 0
    try:
        for physical in (False, True):
            for chunk_size in (1, None):
                for parallelism in (1, 4):
                    got = evaluate_det(
                        plan, db, backend="vectorized", physical=physical,
                        chunk_size=chunk_size, parallelism=parallelism,
                    )
                    assert repr(list(got.tuples())) == "[((1.0, nan), 1)]", (
                        physical, chunk_size, parallelism
                    )
    finally:
        exec_parallel.PARALLEL_MIN_ROWS = old


def _span(conn, sql):
    conn.execute(sql)
    (span,) = [
        s for s in conn.last_trace.spans()
        if s.cat == "operator" and s.name == "HashAggregate"
    ]
    return span.attrs


def test_span_and_explain_analyze_count_the_c_folds():
    rel = DetRelation(["g", "i", "f"])
    for k in range(6):
        rel.add((k % 3, k, k + 0.5), 2 if k == 5 else 1)
    conn = Connection(DetDatabase({"t": rel}), trace=True)
    sql = (
        "SELECT g, SUM(i) AS a, COUNT(*) AS b, MIN(i) AS c, AVG(f) AS d "
        "FROM t GROUP BY g"
    )
    # groups {0, 3}, {1, 4}, {2, 5}: ints fold in C under any weight and
    # COUNT always, MIN never (the step loop), and the floats of the
    # group holding the weight-2 row take add_products' per-value loop
    attrs = _span(conn, sql)
    assert attrs["groups"] == 3
    assert attrs["column_folds"] == f"{3 + 3 + 0 + 2}/{3 * 4}"
    assert ", groups=3, column_folds=8/12)" in (
        conn.explain_analyze(sql).splitlines()[1]
    )
    # no GROUP BY over no row: no group to fold, the empty row is emitted
    attrs = _span(conn, "SELECT COUNT(*) AS n FROM t WHERE i > 100")
    assert attrs["groups"] == 0 and attrs["column_folds"] == "0/0"
    attrs = _span(conn, "SELECT SUM(f) AS s FROM t WHERE i < 5")
    assert attrs["groups"] == 1 and attrs["column_folds"] == "1/1"

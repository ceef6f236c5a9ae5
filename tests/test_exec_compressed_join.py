"""The columnar Section 10.4 join ≡ ``core.compression.optimized_join``.

:func:`repro.exec.compressed_join.compressed_join` runs split / ``Cpr``
/ SG hash join / box overlap probe on column batches; the tuple backend's
``optimized_join`` over the materialized inputs is its oracle.  ``Cpr``
is order-sensitive, so the operator is held to the reference **including
the order of ``tuples()``** and the three bound objects of every cell
(``1`` vs ``1.0``), not just to relation equality.

The generators cover duplicate rows inside a batch, rows with ``sg == 0``
/ ``lb == 0`` / ``ub == 0``, uncertain, ``None``, bool and mixed ``1`` vs
``1.0`` key cells, cells certain by value but not by identity
(``[1/1.0/1]``), ``buckets`` around the distinct row count, multi-pair
equi-conditions, residual conjuncts (compiled, interpreted and raising
ones), empty sides, and a two-level chain that feeds one join's unmerged
output batch into the next.  NaN cannot be stored in a ``RangeValue``
(pinned below); it enters through a residual constant, which raises.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.ast import Join, TableRef
from repro.algebra.evaluator import EvalConfig
from repro.core.compression import optimized_join
from repro.core.expressions import (
    Add,
    And,
    Const,
    Div,
    Eq,
    If,
    Leq,
    Lt,
    MakeUncertain,
    Var,
)
from repro.core.ranges import NEG_INF, POS_INF, RangeValue, certain, domain_key
from repro.core.relation import AUDatabase, AURelation
from repro.exec import physical as phys
from repro.exec.batch import (
    AUColumnBatch,
    MaterializationBudgetError,
    materialization_budget,
)
from repro.exec.compressed_join import compressed_join
from repro.exec.vectorized import _AUExec, execute_audb
from repro.session import Connection

LEFT = ("a", "b", "c")
RIGHT = ("x", "y")
THIRD = ("p", "q")

EMIT = _AUExec(None)._emit_pairs


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
#: a small domain, so keys collide, rows repeat and ``1`` meets ``1.0``
SCALARS = st.one_of(
    st.integers(0, 3),
    st.sampled_from([0.0, 1.0, 2.5]),
    st.booleans(),
    st.none(),
    st.sampled_from(["a"]),
)
NUMBERS = st.one_of(st.integers(0, 3), st.sampled_from([1.0, 2.5]))


@st.composite
def cells(draw):
    scalars = draw(st.sampled_from([NUMBERS, NUMBERS, SCALARS]))
    shape = draw(st.sampled_from(["point", "point", "point", "by_value", "range", "wide"]))
    if shape == "point":
        return certain(draw(scalars))
    if shape == "by_value":
        # certain by value but not by identity: lb == sg == ub, three types
        return RangeValue(1, 1.0, True)
    if shape == "wide":
        return RangeValue(NEG_INF, draw(scalars), POS_INF)
    return RangeValue(*sorted(draw(st.tuples(*[scalars] * 3)), key=domain_key))


@st.composite
def annotations(draw):
    ub = draw(st.integers(0, 3))
    sg = draw(st.integers(0, ub))
    return draw(st.integers(0, sg)), sg, ub


@st.composite
def batches(draw, schema, max_rows=7):
    """Rows drawn *with replacement* from a small pool: duplicates with
    different annotations are the common case, not the exception."""
    pool = draw(st.lists(st.tuples(*[cells()] * len(schema)), max_size=4))
    picks = draw(st.lists(st.sampled_from(pool), max_size=max_rows)) if pool else []
    ann = [draw(annotations()) for _ in picks]
    return AUColumnBatch(
        schema,
        [[row[k] for row in picks] for k in range(len(schema))],
        [k[0] for k in ann],
        [k[1] for k in ann],
        [k[2] for k in ann],
    )


def conditions(left, right):
    """An equi-conjunction over ``left`` × ``right`` attributes (one or
    two pairs, either operand order), optionally with a residual."""
    (a, b), (x, y) = left[:2], right[:2]
    first = st.sampled_from([Eq(Var(a), Var(x)), Eq(Var(x), Var(a))])
    equi = st.one_of(first, first.map(lambda e: And(e, Eq(Var(b), Var(y)))))
    residual = st.sampled_from(
        [
            Lt(Var(b), Var(y)),
            Leq(Var(y), Const(2)),
            Leq(Add(Var(b), Const(1)), Var(y)),  # TypeError on None / str
            Lt(Div(Const(1), Var(y)), Const(1)),  # ZeroDivisionError
            Eq(Var(b), Const(math.nan)),  # ValueError on every pair
            # the two constructs the kernel emitter leaves interpreted
            Lt(If(Lt(Var(b), Var(y)), Var(b), Var(y)), Const(2)),
            Leq(MakeUncertain(Const(0), Var(b), Const(3)), Var(y)),
        ]
    )
    return st.one_of(
        equi,
        st.builds(And, equi, residual),
        st.builds(And, residual, equi),
    )


def bucket_counts(*sizes):
    around = {1, 2}
    for n in sizes:
        around.update((n - 1, n, n + 1))
    return st.sampled_from(sorted(k for k in around if k > 0))


def distinct_rows(batch):
    return len(batch.to_relation())


def outcome(fn):
    try:
        return "ok", fn()
    except Exception as exc:  # noqa: BLE001 - parity of *any* failure
        return "raised", type(exc)


def image(rel):
    """Schema, rows in ``tuples()`` order, and every cell's three bound
    objects by ``repr`` (so ``1``, ``1.0`` and ``True`` stay apart)."""
    return (
        rel.schema,
        [
            ([(repr(c.lb), repr(c.sg), repr(c.ub)) for c in t], k)
            for t, k in rel.tuples()
        ],
    )


def assert_same(got, expected):
    assert got[0] == expected[0]
    if got[0] == "raised":
        assert got == expected
        return
    assert list(got[1].tuples()) == list(expected[1].tuples())
    assert image(got[1]) == image(expected[1])


PROPERTY = settings(max_examples=400, deadline=None, derandomize=True)


# ----------------------------------------------------------------------
# the property
# ----------------------------------------------------------------------
class TestEqualsOptimizedJoin:
    @PROPERTY
    @given(st.data())
    def test_one_join(self, data):
        left = data.draw(batches(LEFT))
        right = data.draw(batches(RIGHT))
        condition = data.draw(conditions(LEFT, RIGHT))
        left_on = data.draw(st.sampled_from(LEFT))
        right_on = data.draw(st.sampled_from(RIGHT))
        buckets = data.draw(
            bucket_counts(distinct_rows(left), distinct_rows(right))
        )
        expected = outcome(
            lambda: optimized_join(
                left.to_relation(), right.to_relation(),
                condition, left_on, right_on, buckets,
            )
        )
        got = outcome(
            lambda: compressed_join(
                left, right, condition, left_on, right_on, buckets, EMIT
            ).to_relation()
        )
        assert_same(got, expected)

    @PROPERTY
    @given(st.data())
    def test_shared_attribute_name(self, data):
        # "b" on both sides: the right side's wins in the condition
        schema = ("x", "b")
        left = data.draw(batches(LEFT))
        right = data.draw(batches(schema))
        condition = data.draw(conditions(("a", "c"), schema))
        buckets = data.draw(
            bucket_counts(distinct_rows(left), distinct_rows(right))
        )
        expected = outcome(
            lambda: optimized_join(
                left.to_relation(), right.to_relation(), condition, "a", "x", buckets
            )
        )
        got = outcome(
            lambda: compressed_join(
                left, right, condition, "a", "x", buckets, EMIT
            ).to_relation()
        )
        assert_same(got, expected)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_two_level_chain(self, data):
        # the first join's output batch — unmerged, SG rows then possible
        # rows — is the second join's input
        left = data.draw(batches(LEFT, max_rows=5))
        right = data.draw(batches(RIGHT, max_rows=5))
        third = data.draw(batches(THIRD, max_rows=5))
        inner = data.draw(conditions(LEFT, RIGHT))
        outer = data.draw(
            st.one_of(conditions(("x", "y"), THIRD), conditions(("a", "c"), THIRD))
        )
        inner_buckets = data.draw(
            bucket_counts(distinct_rows(left), distinct_rows(right))
        )
        outer_buckets = data.draw(st.sampled_from([1, 2, 3, 5, 64]))

        def reference():
            first = optimized_join(
                left.to_relation(), right.to_relation(),
                inner, "a", "x", inner_buckets,
            )
            return optimized_join(
                first, third.to_relation(), outer, "x", "p", outer_buckets
            )

        def columnar():
            first = compressed_join(left, right, inner, "a", "x", inner_buckets, EMIT)
            return compressed_join(
                first, third, outer, "x", "p", outer_buckets, EMIT
            ).to_relation()

        assert_same(outcome(columnar), outcome(reference))


# ----------------------------------------------------------------------
# pinned cases
# ----------------------------------------------------------------------
def batch_of(schema, rows):
    """``rows``: ``(values, annotation)``; plain values become certain."""
    cols = [
        [v if isinstance(v, RangeValue) else certain(v) for v in col]
        for col in zip(*(values for values, _ in rows))
    ] or [[] for _ in schema]
    return AUColumnBatch(
        schema,
        cols,
        [k[0] for _, k in rows],
        [k[1] for _, k in rows],
        [k[2] for _, k in rows],
    )


def test_nan_cannot_be_a_cell():
    # why no generator above draws NaN key cells
    with pytest.raises(ValueError):
        certain(math.nan)


def test_row_position_is_first_occurrence_even_when_possible_only():
    # (1,) first occurs with sg == 0, later with sg > 0: the relation's
    # row sits at position 0, ahead of (2,), in the SG part as well
    left = batch_of(("a",), [((1,), (0, 0, 1)), ((2,), (1, 1, 1)), ((1,), (1, 1, 1))])
    right = batch_of(("x",), [((2,), (1, 1, 1)), ((1,), (1, 1, 1))])
    condition = Eq(Var("a"), Var("x"))
    got = compressed_join(left, right, condition, "a", "x", 64, EMIT).to_relation()
    expected = optimized_join(
        left.to_relation(), right.to_relation(), condition, "a", "x", 64
    )
    assert image(got) == image(expected)
    assert [t[0].sg for t, _ in got.tuples()] == [1, 2]


def test_identity_certain_cells_are_reused():
    cell = certain(5)
    uncertain = RangeValue(1, 5, 9)
    left = batch_of(("a", "b"), [((cell, uncertain), (1, 1, 1))])
    right = batch_of(("x",), [((5,), (1, 1, 1))])
    out = compressed_join(left, right, Eq(Var("a"), Var("x")), "a", "x", 64, EMIT)
    # SG row first: "a" is the input's object, "b" a collapsed [5/5/5],
    # and the row lower bound is gone because "b" was uncertain
    assert out.columns[0][0] is cell
    assert out.columns[1][0] == certain(5) and out.columns[1][0] is not uncertain
    assert (out.ann_lb[0], out.ann_sg[0], out.ann_ub[0]) == (0, 1, 1)
    # possible row second, untouched
    assert out.columns[1][1] is uncertain
    assert (out.ann_lb[1], out.ann_sg[1], out.ann_ub[1]) == (0, 0, 1)


def test_output_is_charged_to_the_materialization_budget():
    left = batch_of(("a",), [((i,), (1, 1, 1)) for i in range(6)])
    right = batch_of(("x",), [((i,), (1, 1, 1)) for i in range(6)])
    condition = Eq(Var("a"), Var("x"))
    with materialization_budget(12):
        assert len(compressed_join(left, right, condition, "a", "x", 64, EMIT)) == 12
    with materialization_budget(11), pytest.raises(MaterializationBudgetError):
        compressed_join(left, right, condition, "a", "x", 64, EMIT)


# ----------------------------------------------------------------------
# in the executor
# ----------------------------------------------------------------------
def _chain_db():
    def table(schema, n, step):
        rel = AURelation(schema)
        for i in range(n):
            key = i // step
            value = RangeValue(i - 1, i, i + 1) if i % 5 == 0 else certain(i)
            rel.add((key, value), (1, 1, 1) if i % 7 else (0, 1, 2))
        return rel

    return AUDatabase(
        {
            "r": table(("a", "b"), 40, 1),
            "s": table(("c", "d"), 60, 2),
            "t": table(("e", "f"), 30, 3),
        }
    )


def _chain_plan():
    inner = Join(TableRef("r"), TableRef("s"), Eq(Var("a"), Var("c")))
    return Join(inner, TableRef("t"), Eq(Var("c"), Var("e")))


CHAIN_CONFIG = EvalConfig(backend="vectorized", join_buckets=4)


def test_nested_joins_hand_batches_to_each_other(monkeypatch):
    db = _chain_db()
    conn = Connection(db, config=CHAIN_CONFIG)
    prepared = conn.prepare(_chain_plan())
    joins = [n for n in prepared.pplan.walk() if isinstance(n, phys.CompressedJoin)]
    assert len(joins) == 2
    expected = Connection(
        db, config=EvalConfig(backend="tuple", join_buckets=4)
    ).execute(_chain_plan())

    calls = []
    to_relation = AUColumnBatch.to_relation
    monkeypatch.setattr(
        AUColumnBatch,
        "to_relation",
        lambda self: calls.append(self) or to_relation(self),
    )
    monkeypatch.setattr(
        AUColumnBatch,
        "from_relation",
        classmethod(lambda cls, rel: pytest.fail("a join materialized a relation")),
    )
    got = execute_audb(prepared.pplan, db)
    # one materialization: the executor's final result
    assert len(calls) == 1
    assert image(got) == image(expected)


def test_span_attributes_and_explain_analyze():
    db = _chain_db()
    conn = Connection(db, config=CHAIN_CONFIG, trace=True)
    conn.execute(_chain_plan())
    spans = [
        s for s in conn.last_trace.spans()
        if s.cat == "operator" and s.name == "CompressedJoin"
    ]
    assert len(spans) == 2
    for span in spans:
        attrs = span.attrs
        assert attrs["buckets"] == 4
        assert attrs["poss_boxes_left"] <= 4 and attrs["poss_boxes_right"] <= 4
        assert attrs["sg_pairs"] > 0
        assert 0 < attrs["box_pairs_matched"] <= attrs["box_pairs_tested"] <= 16
        assert attrs["dedup_rows"] >= 0
        assert "kernel" not in attrs  # pure equi-join: nothing to compile
    text = conn.explain_analyze(_chain_plan())
    line = next(l for l in text.splitlines() if "CompressedJoin" in l)
    assert "sg_pairs=" in line and "boxes=" in line and "box_pairs=" in line


def test_residual_kernel_is_reported():
    db = _chain_db()
    conn = Connection(db, config=CHAIN_CONFIG, trace=True)
    plan = Join(
        TableRef("r"), TableRef("s"), And(Eq(Var("a"), Var("c")), Lt(Var("b"), Var("d")))
    )
    conn.execute(plan)
    (span,) = [s for s in conn.last_trace.spans() if s.name == "CompressedJoin"]
    assert span.attrs["kernel"] == "compiled"
    assert "kernel=compiled" in conn.explain_analyze(plan)

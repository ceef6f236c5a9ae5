"""The columnar Section 9 / 10.5 aggregate ≡ ``core.aggregation.aggregate``.

:func:`repro.exec.au_aggregate.aggregate_batch` groups, boxes, buckets
and folds on column batches; the tuple backend's ``aggregate`` over the
materialized input is its oracle.  A ``Cpr`` or a top-k can sit above an
aggregate, so the operator is held to the reference **including the
order of ``tuples()``**, the annotations and the three bound objects of
every cell by ``repr`` (``1`` vs ``1.0`` vs ``True``) — and to the
reference's exception type when it raises.

The generators cover duplicate rows inside a batch; rows with
``sg == 0`` / ``lb == 0`` / ``ub == 0``; group cells that are uncertain,
``None``, strings, mixed ``1`` / ``1.0`` / ``True`` and certain by value
but not by identity (``[1/1.0/True]``); all five functions (``MIN`` /
``MAX`` / ``AVG`` ties between ``1`` and ``1.0`` that sit in a member
and in a bucket); negative, zero, ``±inf`` and ``0·(±inf)`` ``SUM``
inputs on both clamp sides and ``1e308`` streams that overflow
transiently; bucket budgets around the distinct row count; no ``GROUP
BY``; empty input; ``HAVING``; input expressions that raise on some
rows (``TypeError``, ``ZeroDivisionError``, ``ValueError``), compiled
and interpreted; and the output of one operator fed to the next.  A
second property lowers the member threshold so that every point
contribution of ``SUM`` / ``COUNT`` folds by column — members and
foreign contributors, both signs, in boxes spanned by an uncertain key —
and holds that path to ``aggregate`` the same way.  NaN
cannot be stored in a ``RangeValue`` (pinned in
``test_exec_compressed_join.py``), so no generator draws NaN cells.
"""

import math
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import telemetry
from repro.algebra.ast import Aggregate, Join, TableRef
from repro.algebra.evaluator import EvalConfig, execute_physical_audb
from repro.core.aggregation import (
    AGGREGATES,
    AggregateSpec,
    UncertainGroupError,
    agg_count,
    agg_max,
    agg_min,
    agg_sum,
    aggregate,
)
from repro.core.expressions import (
    Add,
    Const,
    Div,
    Eq,
    Gt,
    If,
    Leq,
    Lt,
    Mul,
    Neg,
    Sub,
    Var,
)
from repro.core.ranges import NEG_INF, POS_INF, RangeValue, certain, domain_key
from repro.core.relation import AUDatabase, AURelation
from repro.exec import au_aggregate
from repro.exec import physical as phys
from repro.exec.au_aggregate import (
    aggregate_batch,
    finalize_groups,
    fold_partial_groups,
    merge_partial_groups,
)
from repro.exec.batch import (
    AUColumnBatch,
    MaterializationBudgetError,
    materialization_budget,
)
from repro.exec.vectorized import execute_audb
from repro.session import Connection

SCHEMA = ("g", "h", "v", "w")
KINDS = sorted(AGGREGATES)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
#: a small key domain, so groups collide, rows repeat and ``1`` meets
#: ``1.0`` and ``True`` in one group
KEYS = st.one_of(
    st.integers(0, 3),
    st.sampled_from([1.0, 2.5]),
    st.booleans(),
    st.none(),
    st.sampled_from(["a"]),
)
NUMERIC_KEYS = st.one_of(st.integers(0, 3), st.sampled_from([1.0, 2.5]))
#: aggregate inputs: ties (1 / 1.0 / True), both signs, zero, infinities
#: and values whose sums leave the double range on the way
VALUES = st.sampled_from(
    [0, 1, 1.0, True, -1, 2, 3.5, -2.25, 0.0, -0.0, 0.1, 7,
     1e308, -1e308, 1.5e308, math.inf, -math.inf]
)
#: ... and the ones arithmetic or a SUM rejects
ANY_VALUES = st.one_of(VALUES, VALUES, VALUES, st.none(), st.sampled_from(["s"]))


def ranges_over(scalars):
    @st.composite
    def build(draw):
        shape = draw(
            st.sampled_from(["point", "point", "point", "by_value", "range", "wide"])
        )
        if shape == "point":
            return certain(draw(scalars))
        if shape == "by_value":
            # certain by value but not by identity, three types
            return RangeValue(1, 1.0, True)
        if shape == "wide":
            return RangeValue(NEG_INF, draw(scalars), POS_INF)
        return RangeValue(*sorted(draw(st.tuples(*[scalars] * 3)), key=domain_key))

    return build()


@st.composite
def annotations(draw):
    ub = draw(st.integers(0, 3))
    sg = draw(st.integers(0, ub))
    return draw(st.integers(0, sg)), sg, ub


@st.composite
def batches(draw, max_rows=8):
    """Rows drawn *with replacement* from a small pool: duplicates with
    different annotations are the common case, not the exception."""
    keys = draw(st.sampled_from([NUMERIC_KEYS, NUMERIC_KEYS, KEYS]))
    values = draw(st.sampled_from([VALUES, VALUES, ANY_VALUES]))
    row = st.tuples(
        ranges_over(keys), ranges_over(keys), ranges_over(values), ranges_over(values)
    )
    pool = draw(st.lists(row, max_size=5))
    picks = draw(st.lists(st.sampled_from(pool), max_size=max_rows)) if pool else []
    ann = [draw(annotations()) for _ in picks]
    return AUColumnBatch(
        SCHEMA,
        [[r[k] for r in picks] for k in range(len(SCHEMA))],
        [k[0] for k in ann],
        [k[1] for k in ann],
        [k[2] for k in ann],
    )


#: compiled (plain attribute, point arithmetic, a constant), raising
#: (division by a range holding zero, arithmetic on None / str) and
#: interpreted (``If`` is not compiled) input expressions
EXPRESSIONS = st.sampled_from(
    [
        Var("v"),
        Var("w"),
        Mul(Var("v"), Sub(Const(1), Var("w"))),
        Add(Var("v"), Var("w")),
        Neg(Var("v")),
        Sub(Var("v"), Const(1.5)),
        Mul(Var("v"), Const(2)),
        Const(3),
        Div(Var("v"), Var("w")),
        Lt(Var("v"), Var("w")),
        If(Lt(Var("v"), Var("w")), Var("v"), Var("w")),
        Mul(Var("v"), Const(RangeValue(0, 1, 2))),
        Var("missing"),
    ]
)


@st.composite
def specs(draw, max_specs=3):
    out = []
    for i in range(draw(st.integers(1, max_specs))):
        kind = draw(st.sampled_from(KINDS))
        expr = draw(EXPRESSIONS) if AGGREGATES[kind].takes_input else None
        out.append(AggregateSpec(kind, expr, f"a{i}"))
    return out


GROUP_BYS = st.sampled_from([[], ["g"], ["g"], ["g", "h"], ["h", "g"], ["h"]])


def bucket_counts(n):
    around = {1, 2, n - 1, n, n + 1, 64}
    return st.sampled_from([None] + sorted(k for k in around if k > 0))


def distinct_rows(batch):
    return len(batch.to_relation())


def outcome(fn):
    try:
        return "ok", fn()
    except Exception as exc:  # noqa: BLE001 - parity of *any* failure
        return "raised", type(exc)


def image(rel):
    """Schema, rows in ``tuples()`` order with their annotations, and
    every cell's three bound objects by ``repr``."""
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
    assert repr(list(got[1].tuples())) == repr(list(expected[1].tuples()))


PROPERTY = settings(max_examples=500, deadline=None, derandomize=True)


# ----------------------------------------------------------------------
# the property
# ----------------------------------------------------------------------
class TestEqualsAggregate:
    @PROPERTY
    @given(st.data())
    def test_one_aggregate(self, data):
        batch = data.draw(batches())
        group_by = data.draw(GROUP_BYS)
        aggregates = data.draw(specs())
        buckets = data.draw(bucket_counts(distinct_rows(batch)))
        expected = outcome(
            lambda: aggregate(
                batch.to_relation(), group_by, aggregates, compress_buckets=buckets
            )
        )
        got = outcome(
            lambda: aggregate_batch(batch, group_by, aggregates, buckets).to_relation()
        )
        assert_same(got, expected)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_unknown_group_attribute(self, data):
        batch = data.draw(batches(max_rows=3))
        aggregates = data.draw(specs(max_specs=1))
        expected = outcome(lambda: aggregate(batch.to_relation(), ["nope"], aggregates))
        got = outcome(lambda: aggregate_batch(batch, ["nope"], aggregates))
        assert got == expected == ("raised", KeyError)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_two_level_chain(self, data):
        # the first aggregate's output batch — group boxes, aggregate
        # ranges, δ-annotations — is the second one's input
        batch = data.draw(batches(max_rows=6))
        inner_by = data.draw(st.sampled_from([["g"], ["g", "h"], ["h"]]))
        kind = data.draw(st.sampled_from(KINDS))
        expr = Var("v") if AGGREGATES[kind].takes_input else None
        inner = [AggregateSpec(kind, expr, "v"), agg_count("w")]
        outer_by = data.draw(st.sampled_from([[], [inner_by[0]], ["v"], ["w"]]))
        outer = data.draw(specs(max_specs=2))
        inner_buckets = data.draw(bucket_counts(distinct_rows(batch)))
        outer_buckets = data.draw(st.sampled_from([None, 1, 2, 64]))

        def reference():
            first = aggregate(
                batch.to_relation(), inner_by, inner, compress_buckets=inner_buckets
            )
            if "h" not in first.schema:  # keep the outer expressions' names
                return None
            return aggregate(first, outer_by, outer, compress_buckets=outer_buckets)

        def columnar():
            first = aggregate_batch(batch, inner_by, inner, inner_buckets)
            if "h" not in first.schema:
                return None
            return aggregate_batch(first, outer_by, outer, outer_buckets).to_relation()

        got, expected = outcome(columnar), outcome(reference)
        if expected == ("ok", None):
            assert got == expected
        else:
            assert_same(got, expected)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_in_the_executors_with_having(self, data):
        # the same physical HashAggregate on both backends, HAVING fused
        batch = data.draw(batches())
        group_by = data.draw(GROUP_BYS)
        aggregates = data.draw(specs(max_specs=2))
        having = data.draw(
            st.sampled_from(
                [
                    None,
                    Gt(Var("a0"), Const(0)),
                    Leq(Var("a0"), Const(1)),
                    Eq(Var("a0"), Var("a0")),
                    Lt(Div(Const(1), Var("a0")), Const(1)),
                ]
            )
        )
        buckets = data.draw(bucket_counts(distinct_rows(batch)))
        db = AUDatabase({"t": batch.to_relation()})
        pplan = phys.HashAggregate(
            phys.Scan("t"), group_by, aggregates, having, buckets=buckets
        )
        expected = outcome(lambda: execute_physical_audb(pplan, db))
        got = outcome(lambda: execute_audb(pplan, db))
        assert_same(got, expected)


# ----------------------------------------------------------------------
# point contributions folded by column
# ----------------------------------------------------------------------
#: three groups, and one key uncertain over all of them: its group's box
#: spans the others, whose rows become its foreign contributors
COLUMN_KEYS = st.sampled_from(
    [certain(0), certain(1), certain(2)] * 3 + [RangeValue(0, 1, 2)]
)
#: points of both signs, signed zeros, infinities, a transient overflow,
#: 1 / 1.0 / True — and the cells that must not fold: certain by value
#: but not by identity, and a range
COLUMN_VALUES = st.one_of(
    st.sampled_from(
        [0, 1, 1.0, True, -1, -2.5, 3.5, 0.0, -0.0, math.inf, -math.inf,
         1e308, -1e308, 1.5e308]
    ).map(certain),
    st.sampled_from([RangeValue(1, 1.0, True), RangeValue(-1, 0.5, 2)]),
)
#: point annotations of weight 1-3, and possibly absent or uncertain ones
COLUMN_ANNOTATIONS = st.one_of(
    st.integers(1, 3).map(lambda k: (k, k, k)),
    st.integers(1, 3).map(lambda k: (k, k, k)),
    st.sampled_from([(0, 1, 1), (1, 1, 2), (0, 0, 2)]),
)
COLUMN_ROWS = st.lists(
    st.tuples(st.tuples(COLUMN_KEYS, COLUMN_VALUES), COLUMN_ANNOTATIONS),
    max_size=12,
)
COLUMN_SPECS = [
    agg_sum("v", "s"),
    agg_count("n"),
    agg_sum(Neg(Var("v")), "neg"),
    agg_min("v", "lo"),
]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=COLUMN_ROWS, buckets=st.sampled_from([None, 1, 64]))
# a negative member of an uncertain box enters lo and sg, not hi
@example(rows=[((1, -2.5), (1, 1, 1)), ((RangeValue(0, 1, 2), 3.5), (1, 1, 1))],
         buckets=None)
# [1/1.0/True] is certain by value, not a point: it takes the step
@example(rows=[((0, RangeValue(1, 1.0, True)), (1, 1, 1))], buckets=None)
# a negative foreign point contributor enters the box's lo
@example(rows=[((RangeValue(0, 1, 2), 1.0), (1, 1, 1)), ((0, -2.5), (2, 2, 2))],
         buckets=None)
def test_point_columns_fold_like_aggregate(rows, buckets):
    # every group folds its point rows by column (the member threshold
    # lowered to one row), the rest steps: aggregate's rows, order,
    # annotations and cell reprs
    batch = batch_of(("g", "v"), rows)
    expected = outcome(
        lambda: aggregate(
            batch.to_relation(), ["g"], COLUMN_SPECS, compress_buckets=buckets
        )
    )
    with mock.patch.object(au_aggregate, "_COLUMN_MIN_ROWS", 1):
        got = outcome(
            lambda: aggregate_batch(batch, ["g"], COLUMN_SPECS, buckets).to_relation()
        )
    assert_same(got, expected)


# ----------------------------------------------------------------------
# the column-wise boxer ≡ the per-run left fold it replaced
# ----------------------------------------------------------------------
def fold_box(cells, sg):
    """The reference: one run's box from ``domain_key`` lists of its
    cells, the first minimum lower / first maximum upper bound."""
    lows = [domain_key(c.lb) for c in cells]
    highs = [low if c.ub is c.lb else domain_key(c.ub) for low, c in zip(lows, cells)]
    return RangeValue(
        cells[lows.index(min(lows))].lb, sg, cells[highs.index(max(highs))].ub
    )


def fold_bucket_boxes(batch, rows, sort_on, read_idx, buckets):
    """The reference Section 10.5 boxer: a stable sort on the SG
    ``domain_key``, fixed-size runs, one :func:`fold_box` per run."""
    sort_col = batch.columns[sort_on]
    order = sorted(rows, key=lambda r: domain_key(sort_col[r].sg))
    size = max(1, -(-len(order) // buckets))
    runs = [order[start : start + size] for start in range(0, len(order), size)]
    columns = [
        [
            fold_box([col[r] for r in run], col[run[0]].sg)
            if size > 1 and j in read_idx
            else col[run[0]]
            for run in runs
        ]
        for j, col in enumerate(batch.columns)
    ]
    return columns, [sum(batch.ann_ub[r] for r in run) for run in runs]


def bits(cells):
    """Each cell's three bounds by ``repr``: a certain cell's own ``repr``
    hides ``0.0`` vs ``-0.0`` and ``1`` vs ``1.0`` in its bounds."""
    return [(repr(c.lb), repr(c.sg), repr(c.ub)) for c in cells]


#: numbers with ``-0.0`` / ``0.0`` and ``1`` / ``1.0`` ties and
#: infinities, then strings: a column of only one of them compares raw
BOX_NUMBERS = st.sampled_from([0, 1, -1, 2, 0.0, -0.0, 1.0, 2.5, math.inf, -math.inf])
BOX_STRINGS = st.sampled_from(["", "a", "ab", "b"])


def plain_cells(scalars):
    """Points and ordered triples of ``scalars``: no sentinel, no bool."""
    triples = st.tuples(scalars, scalars, scalars)
    return st.one_of(
        scalars.map(certain),
        triples.map(lambda t: RangeValue(*sorted(t, key=domain_key))),
    )


#: a column's cells: all numbers or all strings (the raw-value lane), or
#: numbers, strings, bools, ``None``, sentinels and ``[1/1.0/True]``
#: mixed (the ``domain_key`` lane)
BOX_COLUMNS = st.one_of(
    st.lists(plain_cells(BOX_NUMBERS), min_size=1, max_size=12),
    st.lists(plain_cells(BOX_STRINGS), min_size=1, max_size=12),
    st.lists(
        ranges_over(st.one_of(BOX_NUMBERS, BOX_STRINGS, st.booleans(), st.none())),
        min_size=1,
        max_size=12,
    ),
)


@st.composite
def columns_and_runs(draw):
    """A column and disjoint runs of its rows in any order and length:
    the group-box and ``Ψ`` shape (a run need not be ascending, and not
    every row need be in one)."""
    col = draw(BOX_COLUMNS)
    rows = draw(st.permutations(range(len(col))))
    rows = rows[: draw(st.integers(1, len(rows)))]
    runs = []
    while rows:
        size = draw(st.integers(1, len(rows)))
        runs.append(rows[:size])
        rows = rows[size:]
    return col, runs


@settings(max_examples=300, deadline=None)
@given(case=columns_and_runs())
def test_box_runs_is_the_left_fold(case):
    col, runs = case
    want = [fold_box([col[r] for r in run], col[run[0]].sg) for run in runs]
    assert bits(au_aggregate.box_runs(col, runs)) == bits(want)


@settings(max_examples=200, deadline=None)
@given(
    columns=st.lists(BOX_COLUMNS, min_size=1, max_size=3),
    data=st.data(),
)
def test_bucket_boxes_are_the_left_fold(columns, data):
    # contiguous runs of the rows stably sorted on one column's SG value
    n = min(map(len, columns))
    batch = AUColumnBatch(
        [f"c{j}" for j in range(len(columns))],
        [col[:n] for col in columns],
        [0] * n,
        [1] * n,
        data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)),
    )
    rows = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    sort_on = data.draw(st.integers(0, len(columns) - 1))
    read_idx = data.draw(st.sets(st.integers(0, len(columns) - 1)))
    buckets = data.draw(st.integers(1, n + 1))
    got = au_aggregate._bucket_boxes(batch, rows, sort_on, read_idx, buckets)
    want = fold_bucket_boxes(batch, rows, sort_on, read_idx, buckets)
    assert [bits(col) for col in got[0]] == [bits(col) for col in want[0]]
    assert got[1] == want[1]


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


def same_as_reference(batch, group_by, aggregates, buckets=None):
    got = aggregate_batch(batch, group_by, aggregates, buckets).to_relation()
    expected = aggregate(
        batch.to_relation(), group_by, aggregates, compress_buckets=buckets
    )
    assert image(got) == image(expected)
    return got


@pytest.mark.parametrize("buckets", [None, 1, 64])
def test_extremum_ties_split_between_a_member_and_a_foreign_contributor(buckets):
    # group 1 holds the int, the uncertain-key row the equal float (and
    # vice versa): MIN keeps the earliest attaining object, MAX the
    # latest, in the reference's contributor order — members before
    # buckets when compressed, ascending rows otherwise
    for first, second in ((1, 1.0), (1.0, 1), (True, 1.0)):
        batch = batch_of(
            ("g", "v"),
            [
                ((RangeValue(0, 2, 3), second), (1, 1, 1)),
                ((1, first), (1, 1, 1)),
                ((RangeValue(1, 1, 2), second), (0, 1, 1)),
            ],
        )
        aggregates = [agg_min("v", "lo"), agg_max("v", "hi"), agg_sum("v", "s")]
        out = same_as_reference(batch, ["g"], aggregates, buckets)
        assert len(out) == 2


def test_possibly_absent_rows_with_infinite_bounds_add_nothing():
    # 0 · (±inf) = 0 on both clamp sides, serial and as a foreign state
    batch = batch_of(
        ("g", "v"),
        [
            ((1, RangeValue(1.0, 2.0, math.inf)), (0, 1, 1)),
            ((1, RangeValue(-math.inf, -1.0, 0.5)), (0, 0, 2)),
            ((RangeValue(0, 1, 2), RangeValue(-math.inf, 0.0, math.inf)), (0, 1, 1)),
            ((2, 4.0), (1, 1, 1)),
        ],
    )
    for buckets in (None, 1, 64):
        same_as_reference(batch, ["g"], [agg_sum("v", "s")], buckets)


def test_transient_overflow_is_not_saturation():
    rows = [((1, v), (1, 1, 1)) for v in (1e308, 1.5e308, -1e308)]
    out = same_as_reference(batch_of(("g", "v"), rows), ["g"], [agg_sum("v", "s")])
    ((t, _ann),) = out.tuples()
    assert (t[1].lb, t[1].sg, t[1].ub) == (1.5e308,) * 3


def test_singleton_and_certain_groups_reuse_their_cells():
    certain_key, uncertain_key = certain(7), RangeValue(1, 2, 3)
    batch = batch_of(
        ("g", "v"),
        [
            ((certain_key, 1), (1, 1, 1)),
            ((uncertain_key, 2), (1, 1, 1)),
            ((certain(7.0), 3), (1, 1, 1)),
        ],
    )
    out = aggregate_batch(batch, ["g"], [agg_count("n")])
    assert out.columns[0][0] is certain_key  # two certain members: the first
    assert out.columns[0][1] is uncertain_key  # a singleton: its own cell
    same_as_reference(batch, ["g"], [agg_count("n")])


def test_output_is_charged_to_the_materialization_budget():
    batch = batch_of(("g", "v"), [((i, 1.0), (1, 1, 1)) for i in range(6)])
    with materialization_budget(6):
        assert len(aggregate_batch(batch, ["g"], [agg_sum("v", "s")])) == 6
    with materialization_budget(5), pytest.raises(MaterializationBudgetError):
        aggregate_batch(batch, ["g"], [agg_sum("v", "s")])


def test_bucket_budget_must_be_positive():
    # the verifier rejects such a plan; the operator does not divide by it
    batch = batch_of(("g", "v"), [((1, 1.0), (1, 1, 1))])
    for buckets in (0, -1):
        with pytest.raises(ValueError, match="positive"):
            aggregate_batch(batch, ["g"], [agg_sum("v", "s")], buckets)


def test_the_partial_fold_is_the_member_fold_and_refuses_uncertain_keys():
    certain_rows = [((i % 3, float(i)), (1, 1, 2)) for i in range(9)]
    batch = batch_of(("g", "v"), certain_rows)
    specs_ = [agg_sum("v", "s"), agg_min("v", "lo")]
    groups = fold_partial_groups(batch, ["g"], specs_)
    assert list(groups) == [(0,), (1,), (2,)]
    box, sums, states = groups[(1,)]
    assert box == [certain(1)] and sums == [3, 3, 6] and len(states) == 2
    uncertain = batch_of(
        ("g", "v"), certain_rows + [((RangeValue(0, 1, 2), 1.0), (1, 1, 1))]
    )
    with pytest.raises(UncertainGroupError, match="attribute 'g'"):
        fold_partial_groups(uncertain, ["g"], specs_)
    # ... which the serial operator handles
    same_as_reference(uncertain, ["g"], specs_)


def test_the_partial_fold_folds_wide_groups_by_column():
    # per morsel, groups of ≥ 64 point members fold by column (the rows
    # annotated (1, 1, 2) still step); merged in partition order, the
    # serial result to the bit
    rows = [
        ((i % 3, float(i) - 300.5), (1, 1, 2) if i % 7 == 0 else (2, 2, 2))
        for i in range(600)
    ]
    specs_ = [agg_sum("v", "s"), agg_count("n")]
    merged: dict = {}
    for part in (rows[:300], rows[300:]):
        partial = fold_partial_groups(batch_of(("g", "v"), part), ["g"], specs_)
        merge_partial_groups(merged, partial, specs_)
    got = finalize_groups(merged, ["g"], specs_).to_relation()
    expected = aggregate(batch_of(("g", "v"), rows).to_relation(), ["g"], specs_)
    assert image(got) == image(expected)


# ----------------------------------------------------------------------
# in the executor
# ----------------------------------------------------------------------
def _db():
    def table(schema, n, step):
        rel = AURelation(schema)
        for i in range(n):
            key = i // step
            if i % 9 == 0:
                key = RangeValue(key, key, key + 1)
            value = certain(float(i))
            if i % 5 == 0:
                value = RangeValue(i - 1.0, float(i), i + 1.0)
            rel.add((key, value), (1, 1, 1) if i % 7 else (0, 1, 2))
        return rel

    return AUDatabase({"r": table(("a", "b"), 40, 4), "s": table(("c", "d"), 60, 6)})


def _plan():
    joined = Join(TableRef("r"), TableRef("s"), Eq(Var("a"), Var("c")))
    return Aggregate(
        joined,
        ["a"],
        [agg_sum(Mul(Var("b"), Sub(Const(1), Var("d"))), "t"), agg_count("n")],
    )


CONFIG = EvalConfig(backend="vectorized", join_buckets=4, aggregation_buckets=4)


def test_the_aggregate_takes_the_joins_batch(monkeypatch):
    db = _db()
    prepared = Connection(db, config=CONFIG).prepare(_plan())
    names = [type(n).__name__ for n in prepared.pplan.walk()]
    assert names.count("HashAggregate") == 1
    expected = Connection(
        db, config=EvalConfig(backend="tuple", join_buckets=4, aggregation_buckets=4)
    ).execute(_plan())

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
        classmethod(lambda cls, rel: pytest.fail("an aggregate built a relation")),
    )
    got = execute_audb(prepared.pplan, db)
    assert len(calls) == 1  # the executor's final result
    assert image(got) == image(expected)


def _executions():
    counter = telemetry.get_registry().counter
    return {
        inputs: counter("repro_exec_au_aggregate_total", "", inputs=inputs).value
        for inputs in ("compiled", "interpreted")
    }


def test_span_attributes_counter_and_explain_analyze():
    conn = Connection(_db(), config=CONFIG, trace=True)
    before = _executions()
    conn.execute(_plan())
    after = _executions()
    assert after["compiled"] == before["compiled"] + 1
    assert after["interpreted"] == before["interpreted"]
    (span,) = [
        s for s in conn.last_trace.spans()
        if s.cat == "operator" and s.name == "HashAggregate"
    ]
    attrs = span.attrs
    assert attrs["inputs"] == "compiled" and "kernel_reason" not in attrs
    assert attrs["groups"] == len(conn.execute(_plan()))
    assert attrs["dedup_rows"] >= 0
    # counted per (contributor, aggregate): no group has the members to
    # fold by column, and each of the two aggregates folds at most 4
    # bucket boxes once and merges them
    assert attrs["column_rows"] == 0
    assert 0 < attrs["foreign_states"] <= 2 * 4 and attrs["uncertain_key_rows"] > 4
    assert attrs["state_merges"] >= attrs["foreign_states"]
    line = conn.explain_analyze(_plan()).splitlines()[1]
    assert line.startswith("HashAggregate γ[a; ") and " Cpr=4 " in line
    for key in ("groups", "dedup_rows", "uncertain_key_rows", "column_rows",
                "foreign_states", "state_merges"):
        assert f", {key}={attrs[key]}" in line
    assert line.rstrip(")").endswith("inputs=compiled")


def _view_db(per_group=70):
    """Three groups of point rows, one of them with an uncertain key
    spanning all three: every group box spans the others (the shape of
    a ``GROUP BY`` over a status column with a few uncertain cells)."""
    rel = AURelation(("g", "v"))
    for i in range(3 * per_group):
        key = RangeValue("F", "O", "P") if i == 5 else "FOP"[i % 3]
        rel.add((key, float(i) - 50.0), (1, 1, 1))
    return AUDatabase({"t": rel})


@pytest.mark.parametrize("buckets", [None, 4])
def test_point_contributions_fold_by_column(buckets):
    # members and foreign point contributors fold by column: no foreign
    # state, no merge without a budget; bucket boxes still fold once
    plan = Aggregate(TableRef("t"), ["g"], [agg_count("n"), agg_sum("v", "s")])
    config = EvalConfig(backend="vectorized", aggregation_buckets=buckets)
    conn = Connection(_view_db(), config=config, trace=True)
    got = conn.execute(plan)
    (span,) = [s for s in conn.last_trace.spans() if s.name == "HashAggregate"]
    attrs = span.attrs
    assert attrs["uncertain_key_rows"] == 1 and attrs["column_rows"] == 2 * 210
    if buckets is None:
        assert attrs["foreign_states"] == attrs["state_merges"] == 0
    else:  # one bucket box per aggregate, never a point, in all 3 groups
        assert attrs["foreign_states"] == 2 and attrs["state_merges"] == 2 * 3
    assert f", column_rows={attrs['column_rows']}, " in conn.explain_analyze(plan)
    tuple_backend = EvalConfig(backend="tuple", aggregation_buckets=buckets)
    expected = Connection(_view_db(), config=tuple_backend).execute(plan)
    assert image(got) == image(expected)


def test_interpreted_inputs_say_why():
    capped = If(Lt(Var("b"), Const(9)), Var("b"), Const(0))
    plan = Aggregate(TableRef("r"), ["a"], [agg_sum(capped, "t")])
    conn = Connection(_db(), config=CONFIG, trace=True)
    before = _executions()
    conn.execute(plan)
    assert _executions()["interpreted"] == before["interpreted"] + 1
    (span,) = [s for s in conn.last_trace.spans() if s.name == "HashAggregate"]
    assert span.attrs["inputs"] == "interpreted"
    assert "If" in span.attrs["kernel_reason"]
    assert "inputs=interpreted (cannot compile If" in conn.explain_analyze(plan)


def test_set_operators_say_what_they_decided():
    # each SG-combining operator's decision is visible in its operator
    # span and in explain_analyze
    db = _db()
    db["k"] = AURelation.from_certain_rows(("x", "y"), [(i % 4, i) for i in range(9)])
    conn = Connection(db, config=EvalConfig(backend="vectorized"), trace=True)

    def decided(sql, name):
        text = conn.explain_analyze(sql)
        (span,) = [
            s for s in conn.last_trace.spans()
            if s.cat == "operator" and s.name == name
        ]
        (line,) = [ln for ln in text.splitlines() if ln.lstrip().startswith(name)]
        return span.attrs, line

    attrs, line = decided("SELECT DISTINCT a FROM r", "HashDistinct")
    assert attrs["groups"] == len(conn.execute("SELECT DISTINCT a FROM r")) > 0
    assert f", groups={attrs['groups']}" in line
    attrs, line = decided("SELECT a FROM r EXCEPT SELECT c FROM s", "HashExcept")
    assert attrs["overlap_probes"] >= attrs["certain_equal"] > 0
    assert (
        f", overlap_probes={attrs['overlap_probes']}"
        f", certain_equal={attrs['certain_equal']}"
    ) in line
    attrs, line = decided("SELECT a, b FROM r ORDER BY a LIMIT 3", "TopK")
    assert (attrs["topk"], attrs["topk_reason"]) == ("identity", "uncertain order key")
    assert ", topk=identity (uncertain order key)" in line
    attrs, line = decided("SELECT x, y FROM k ORDER BY x DESC LIMIT 3", "TopK")
    assert attrs["topk"] == "bounded" and "topk_reason" not in attrs
    # x = 3 and x = 2 (twice each) hold the top-3: 4 of the 9 rows can place
    assert line.rstrip(")").endswith(", topk=bounded, candidates=4/9")

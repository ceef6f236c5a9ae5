"""Exact sums are order-free *including transient overflow*.

``core.sums`` used to saturate into its absorbing slot as soon as the
*running* float sum left the double range, so the result depended on
where in the stream the huge addends sat: ``[1e308, 1e308, -1e308]``
summed to ``inf`` and ``[1e308, -1e308, 1e308]`` to ``1e308``.  Three
consequences are pinned here beside the property — an unsound AU ``SUM``
lower bound, serial ≠ parallel, and a delta-maintained det view that
disagreed with a fresh execution.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.ast import Aggregate, TableRef
from repro.algebra.evaluator import EvalConfig, evaluate_audb
from repro.core.aggregation import (
    agg_avg,
    agg_sum,
    aggregate,
    finalize_partial_groups,
    fold_partial_groups,
    merge_partial_groups,
)
from repro.core.bounding import bounds_world
from repro.core.relation import AUDatabase, AURelation
from repro.core.sums import add_product, exact_sum, finish, merge_acc, new_acc
from repro.db.storage import DetDatabase, DetRelation
from repro.exec import parallel as exec_parallel
from repro.session import Connection

_HUGE = st.floats(min_value=1e300, max_value=1.7e308)
_ADDENDS = st.lists(
    st.tuples(
        st.one_of(
            _HUGE,
            _HUGE.map(lambda x: -x),
            st.floats(min_value=-1e3, max_value=1e3),
            st.integers(min_value=-5, max_value=5),
        ),
        st.integers(min_value=1, max_value=4),
    ),
    min_size=1,
    max_size=7,
)


def _truth(addends):
    """The weighted sum by exact rational arithmetic, rounded once —
    ints as ints, anything else as the (saturating) nearest double."""
    if all(type(v) is int for v, _m in addends):
        return sum(v * m for v, m in addends)
    total = sum(Fraction(v) * m for v, m in addends)
    try:
        return float(total)
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def test_the_two_orders_of_the_issue():
    assert exact_sum([(1e308, 1), (1e308, 1), (-1e308, 1)]) == 1e308
    assert exact_sum([(1e308, 1), (-1e308, 1), (1e308, 1)]) == 1e308
    # a term out of range on its own is exact too, not an absorbing inf
    assert exact_sum([(1e308, 4), (-1e308, 3)]) == 1e308
    assert repr(exact_sum([(1e308, 4), (-1e308, 4)])) == "0.0"
    # ... and a true sum out of range still saturates, with its sign
    assert exact_sum([(1e308, 1), (9e307, 1), (-1.0, 1)]) == math.inf
    assert exact_sum([(-1e308, 2), (5, 1)]) == -math.inf


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(data=st.data(), addends=_ADDENDS)
def test_sum_is_a_function_of_the_weighted_multiset(data, addends):
    expected = exact_sum(addends)
    if not any(type(v) is int for v, _m in addends) or all(
        type(v) is int for v, _m in addends
    ):
        # (mixed streams add the int total as one double — still
        # order-free, checked below, but not the single rounding)
        assert repr(expected) == repr(_truth(addends))
    shuffled = data.draw(st.permutations(addends))
    assert repr(exact_sum(shuffled)) == repr(expected)
    # any partition, merged
    cut = data.draw(st.integers(min_value=0, max_value=len(shuffled)))
    left, right = new_acc(), new_acc()
    for value, mult in shuffled[:cut]:
        add_product(left, value, mult)
    for value, mult in shuffled[cut:]:
        add_product(right, value, mult)
    merge_acc(left, right)
    assert repr(finish(left)) == repr(expected)
    # any regrouping of a row's multiplicity
    regrouped = new_acc()
    for value, mult in shuffled:
        first = data.draw(st.integers(min_value=0, max_value=mult))
        for part in (first, mult - first):
            if part:
                add_product(regrouped, value, part)
    assert repr(finish(regrouped)) == repr(expected)


# ----------------------------------------------------------------------
# AU SUM over the certain values [1e308, 1.5e308, -1e308]
# ----------------------------------------------------------------------
_VALUES = [1e308, 1.5e308, -1e308]  # the only world sums to 1.5e308


def _au_case():
    rel = AURelation(["g", "v"])
    for v in _VALUES:
        rel.add([1, v], (1, 1, 1))
    return rel


def test_au_sum_of_certain_values_is_the_certain_sum():
    rel = _au_case()
    specs = [agg_sum("v", "s")]
    serial = aggregate(rel, ["g"], specs)
    ((t, _ann),) = list(serial.tuples())
    assert (t[1].lb, t[1].sg, t[1].ub) == (1.5e308, 1.5e308, 1.5e308)
    assert bounds_world(serial, {(1, 1.5e308): 1})
    rows = list(rel.tuples())
    for cut in range(len(rows) + 1):
        merged: dict = {}
        for part in (rows[:cut], rows[cut:]):
            partial: dict = {}
            fold_partial_groups(partial, rel.schema, part, ["g"], specs)
            merge_partial_groups(merged, partial, specs)
        out = finalize_partial_groups(merged, ["g"], specs)
        assert repr(list(out.tuples())) == repr(list(serial.tuples()))


def test_au_sum_serial_and_parallel_agree(monkeypatch):
    monkeypatch.setattr(exec_parallel, "PARALLEL_MIN_ROWS", 0)
    monkeypatch.setattr(exec_parallel, "PROCESS_MIN_ROWS", 0)
    plan = Aggregate(TableRef("t"), ["g"], [agg_sum("v", "s")])
    db = AUDatabase({"t": _au_case()})
    serial = evaluate_audb(plan, db, EvalConfig(optimize=False))
    assert bounds_world(serial, {(1, 1.5e308): 1})
    for parallelism in (1, 4):
        other = evaluate_audb(
            plan,
            db,
            EvalConfig(
                optimize=False,
                backend="vectorized",
                parallelism=parallelism,
                chunk_size=1,
            ),
        )
        assert repr(sorted(other.tuples(), key=repr)) == repr(
            sorted(serial.tuples(), key=repr)
        )


# ----------------------------------------------------------------------
# IVM: a det SUM/AVG view maintained by delta ≡ a fresh execution
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["tuple", "vectorized"])
def test_maintained_view_of_huge_values_is_the_fresh_result(backend):
    rel = DetRelation(["k", "v"], [(1, -1e308), (2, -1e308), (3, 1e308)])
    db = DetDatabase({"t": rel})
    plan = Aggregate(TableRef("t"), [], [agg_sum("v", "s"), agg_avg("v", "a")])
    with Connection(db, config=EvalConfig(backend=backend)) as conn:
        view = conn.subscribe(plan)
        writes = [
            ("add", (4, 1.5e308)),
            ("delete", (1, -1e308)),
            ("add", (5, 1.7e308)),
            ("add", (6, -1.7e308)),
            ("delete", (3, 1e308)),
            ("add", (7, 1e308)),
            ("delete", (4, 1.5e308)),
        ]
        fresh = conn.execute(plan)
        assert dict(fresh.rows) == {(-1e308, -1e308 / 3): 1}
        assert repr(sorted(view.result().tuples())) == repr(sorted(fresh.tuples()))
        for op, row in writes:
            getattr(rel, op)(row)
            fresh = conn.execute(plan)
            assert repr(sorted(view.result().tuples())) == repr(
                sorted(fresh.tuples())
            ), (op, row)
        assert view.full_refreshes == 0  # every write folded as a delta

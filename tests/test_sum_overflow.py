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
import random
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
)
from repro.core.bounding import bounds_world
from repro.core import sums
from repro.core.relation import AUDatabase, AURelation
from repro.core.sums import add_product, exact_sum, finish, merge_acc, new_acc
from repro.db.storage import DetDatabase, DetRelation
from repro.exec import parallel as exec_parallel
from repro.exec.au_aggregate import (
    finalize_groups,
    fold_partial_groups,
    merge_partial_groups,
)
from repro.exec.batch import AUColumnBatch
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


def test_a_weight_past_the_double_range_scales_a_small_value_exactly():
    # 2**1030 is no double, but 2e-301 * 2**1030 is one with a fraction:
    # only a term that itself leaves the range is an integer to spill
    value, weight = 2.0342221021883263e-301, 2**1030
    truth = float(Fraction(value) * weight)
    assert repr(truth) == "2340420549.0490513"
    assert repr(exact_sum([(value, weight)])) == repr(truth)
    assert repr(exact_sum([(value, -weight), (1.0, 1)])) == repr(1.0 - truth)
    assert exact_sum([(1.5, weight)]) == math.inf  # the spill: out of range


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
# the lazy representation: term lists, compacted past a fixed length
# ----------------------------------------------------------------------
_LIMIT = sums._COMPACT_AT
_TERMS = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.sampled_from([1e16, -1e16, 1.0, 0.1, 2.0**-1074, 0.0, -0.0]),
)
#: stream lengths on both sides of one and of several compactions
_LENGTHS = st.sampled_from(
    [1, _LIMIT - 1, _LIMIT, _LIMIT + 1, _LIMIT + 2, 2 * _LIMIT + 1, 3 * _LIMIT]
)


def _float_truth(values):
    total = sum(map(Fraction, values))
    try:
        return float(total)
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def _fold(values, cuts=()):
    """``values`` folded into one accumulator per part, merged in order."""
    bounds = [0, *sorted(cuts), len(values)]
    acc = new_acc()
    for lo, hi in zip(bounds, bounds[1:]):
        part = new_acc()
        for v in values[lo:hi]:
            add_product(part, v, 1)
        merge_acc(acc, part)
    return acc


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(data=st.data(), n=_LENGTHS, huge=st.booleans())
def test_finish_is_the_rational_sum_across_the_compaction_boundary(data, n, huge):
    values = data.draw(st.lists(_TERMS, min_size=n, max_size=n))
    if huge:  # ... and a transient overflow inside the stream
        values[:0] = [1.7e308, 1.7e308, -1.7e308]
    expected = _float_truth(values)
    one = _fold(values)
    assert len(one[1]) <= _LIMIT  # compacted whenever it passed the limit
    assert repr(finish(one)) == repr(expected)
    assert repr(finish(one)) == repr(expected)  # finish only reads
    shuffled = data.draw(st.permutations(values))
    assert repr(finish(_fold(shuffled))) == repr(expected)
    cuts = data.draw(st.lists(st.integers(0, len(values)), max_size=4))
    assert repr(finish(_fold(shuffled, cuts))) == repr(expected)


@pytest.mark.parametrize("length", [_LIMIT - 1, _LIMIT, _LIMIT + 1])
def test_compaction_happens_past_the_limit_and_keeps_the_sum(length):
    values = [0.1 * (i + 1) for i in range(length)]
    acc = _fold(values)
    assert (len(acc[1]) == length) == (length <= _LIMIT)
    assert sum(map(Fraction, acc[1])) == sum(map(Fraction, values))  # exact
    assert repr(finish(acc)) == repr(_float_truth(values))
    assert repr(finish(acc)) == repr(math.fsum(values))


def test_a_zero_sum_stays_a_float_through_compaction():
    acc = _fold([1.5, -1.5] * (_LIMIT // 2) + [-0.0])  # compacts on the last
    assert repr(acc[1]) == "[0.0]" and repr(finish(acc)) == "0.0"
    assert repr(exact_sum([(0, 1), (-0.0, 1)])) == "0.0"


def test_compaction_that_overflows_takes_the_spill_path(monkeypatch):
    # fsum raises on the partial sum 1.7e308 + 1.7e308: the terms are
    # re-added through the Python loop, the larger operand spills
    values = [1.7e308, 1.7e308, -1.7e308, -1.7e308] + [0.25] * (_LIMIT - 3)
    with pytest.raises(OverflowError):
        math.fsum(values)
    spilled = []
    spilling = sums._add_spilling
    monkeypatch.setattr(
        sums, "_add_spilling", lambda acc, x: spilled.append(x) or spilling(acc, x)
    )
    acc = _fold(values)
    assert spilled == values  # every term, once, in order
    assert acc[3] != 0 and len(acc[1]) < _LIMIT
    expected = _float_truth(values)
    assert repr(finish(acc)) == repr(expected) == repr(0.25 * (_LIMIT - 3))
    # the same stream below the limit never compacts, and agrees
    monkeypatch.setattr(sums, "_COMPACT_AT", 10 * _LIMIT)
    lazy = _fold(values)
    assert lazy[3] == 0 and len(lazy[1]) == len(values)
    assert repr(finish(lazy)) == repr(expected)
    # ... as does a true sum that rounds out of range
    assert finish(_fold([1.7e308] * (_LIMIT + 1))) == math.inf


# ----------------------------------------------------------------------
# add_products: the batched add_product, one column at a time
# ----------------------------------------------------------------------
#: columns that take each of add_products' paths: int/bool (C sum),
#: finite floats (one extend), and everything the per-value loop keeps
_COLUMN_VALUES = st.sampled_from(
    [
        st.one_of(st.integers(-5, 5), st.booleans(), st.just(2**63 - 1)),
        st.one_of(_TERMS, _HUGE, _HUGE.map(lambda x: -x)),
        st.one_of(
            _TERMS,
            st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308]),
        ),
        st.one_of(st.integers(-5, 5), _TERMS, st.sampled_from([1e308, -1e308])),
        st.one_of(st.integers(-5, 5), _TERMS, st.none(), st.just("s")),
    ]
)
#: unit weights, larger ones, signed ones, and ones whose power-of-two
#: terms leave the double range (add_product's spill path)
_COLUMN_WEIGHTS = st.sampled_from(
    [
        st.just(1),
        st.integers(1, 5),
        st.integers(-3, 3),
        st.sampled_from([1, 2**1030, -(2**1030)]),
    ]
)


def _loop(acc, values, weights):
    for value, weight in zip(values, weights):
        add_product(acc, value, weight)
    return acc


def _outcome(fn):
    try:
        return "ok", repr(fn())
    except (TypeError, ValueError, OverflowError) as exc:
        return "raised", type(exc)


def _prefilled(prefix):
    acc = new_acc()
    for value in prefix:
        add_product(acc, value, 1)
    return acc


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    data=st.data(),
    n=st.sampled_from([0, 1, 2, _LIMIT - 1, _LIMIT, _LIMIT + 1]),
    prefix=st.lists(st.floats(-1e3, 1e3), max_size=_LIMIT),
)
def test_add_products_is_the_add_product_loop(data, n, prefix):
    values = data.draw(st.lists(data.draw(_COLUMN_VALUES), min_size=n, max_size=n))
    weights = data.draw(
        st.lists(data.draw(_COLUMN_WEIGHTS), min_size=n, max_size=n)
    )

    def batched(column=values, column_weights=weights):
        acc = _prefilled(prefix)
        sums.add_products(acc, column, column_weights)
        return acc

    loop = _outcome(lambda: finish(_loop(_prefilled(prefix), values, weights)))
    assert _outcome(lambda: finish(batched())) == loop
    # ... and from tuples, as a gather hands a group's column over
    assert _outcome(lambda: finish(batched(tuple(values), tuple(weights)))) == loop
    if loop[0] == "raised":
        return
    # (an int total beside float terms is added as one double: no truth)
    all_ints = not prefix and all(type(v) is int for v in values)
    if all_ints or all(type(v) is float and math.isfinite(v) for v in values):
        weighted = [(p, 1) for p in prefix] + list(zip(values, weights))
        assert loop[1] == repr(_truth(weighted))
    # the batched accumulator merges like the looped one, both ways
    other = _fold(prefix[::-1])
    merged, looped = batched(), _loop(_prefilled(prefix), values, weights)
    merge_acc(merged, other)
    merge_acc(looped, other)
    assert repr(finish(merged)) == repr(finish(looped))
    into = _fold(prefix[::-1])
    merge_acc(into, batched())
    assert repr(finish(into)) == repr(finish(looped))


@pytest.mark.parametrize("n", [_LIMIT - 1, _LIMIT, _LIMIT + 1, 20_000])
def test_add_products_across_the_compaction_boundary(n):
    rng = random.Random(n)
    floats = [rng.uniform(-1e6, 1e6) * 10.0 ** rng.randint(-20, 20) for _ in range(n)]
    ints = [rng.randint(-(2**70), 2**70) for _ in range(n)]
    for values, weights in (
        (floats, [1] * n),
        (floats, [rng.randint(1, 4) for _ in range(n)]),
        (ints, [1] * n),
        (ints, [rng.randint(-4, 4) for _ in range(n)]),
    ):
        batched = new_acc()
        sums.add_products(batched, values, weights)
        assert len(batched[1]) <= _LIMIT
        looped = _loop(new_acc(), values, weights)
        truth = _truth(list(zip(values, weights)))
        assert repr(finish(batched)) == repr(finish(looped)) == repr(truth)
        # merged into an accumulator holding the huge transient overflow
        for acc in (batched, looped):
            merge_acc(acc, _fold([1.7e308, 1.7e308, -1.7e308]))
        assert repr(finish(batched)) == repr(finish(looped))


def test_add_products_takes_the_c_path_only_where_it_is_exact():
    assert sums.folds_in_c([1, True, 2**63 - 1], [3, -1, 1])
    assert sums.folds_in_c([0.5, -0.0, 1e308], [1, 1, 1])
    assert sums.folds_in_c([], [])
    assert not sums.folds_in_c([0.5, 1.0], [1, 2])  # non-unit float weight
    assert not sums.folds_in_c([0.5, math.inf], [1, 1])
    assert not sums.folds_in_c([0.5, math.nan], [1, 1])
    assert not sums.folds_in_c([1, 0.5], [1, 1])  # mixed
    assert not sums.folds_in_c([1, None], [1, 1])
    for column in ([1, None], ["s", "t"], [None]):
        with pytest.raises(TypeError):
            sums.add_products(new_acc(), column, [1] * len(column))
    # the unit-weight float path is one extend, not a loop
    acc = new_acc()
    sums.add_products(acc, (0.25, -0.0, 3.0), (1, 1, 1))
    assert repr(acc[1]) == "[0.25, -0.0, 3.0]"


def test_merge_acc_never_aliases_its_source():
    source = _fold([0.5, 0.25, 1e16])
    snapshot = [source[0], list(source[1]), *source[2:]]
    for target in (new_acc(), _fold([1.0] * _LIMIT)):
        merge_acc(target, source)
        assert target[1] is not source[1]
        for _ in range(2 * _LIMIT):  # grow and compact the target
            add_product(target, 3.0, 1)
        assert source == snapshot
    merged_twice = new_acc()
    merge_acc(merged_twice, source)
    merge_acc(merged_twice, source)
    assert finish(merged_twice) == 2 * finish(source)


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
            partial = fold_partial_groups(
                AUColumnBatch.from_rows(rel.schema, part), ["g"], specs
            )
            merge_partial_groups(merged, partial, specs)
        out = finalize_groups(merged, ["g"], specs).to_relation()
        assert repr(list(out.tuples())) == repr(list(serial.tuples()))


def test_au_sum_serial_and_parallel_agree(monkeypatch):
    monkeypatch.setattr(exec_parallel, "PARALLEL_MIN_ROWS", 0)
    monkeypatch.setattr(exec_parallel, "PROCESS_MIN_ROWS", 0)
    plan = Aggregate(TableRef("t"), ["g"], [agg_sum("v", "s")])
    db = AUDatabase({"t": _au_case()})
    serial = evaluate_audb(plan, db, EvalConfig(optimize=False, backend="tuple"))
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


# ----------------------------------------------------------------------
# the float-addend count: what lets a maintained sum become an int again
# ----------------------------------------------------------------------
def test_the_float_addend_count_survives_compaction_spill_and_weight_zero():
    acc = new_acc()
    add_product(acc, 2.5, 0)  # a float at weight 0 is an addend too
    assert acc[4] == 1 and repr(finish(acc)) == "0.0"
    add_product(acc, 1.5, 6)  # several power-of-two terms, one addend
    assert acc[4] == 2
    for _ in range(_LIMIT):  # compacts the terms, not the count
        add_product(acc, 0.1, 1)
    assert len(acc[1]) < _LIMIT and acc[4] == _LIMIT + 2
    spill = _fold([1.7e308, 1.7e308, -1.7e308, -1.7e308] + [0.25] * (_LIMIT - 3))
    assert spill[3] != 0 and spill[4] == _LIMIT + 1  # the overflow path
    merge_acc(acc, spill)
    assert acc[4] == 2 * _LIMIT + 3
    sums.add_products(acc, [0.5, -0.0], [1, 1])  # one extend, two addends
    sums.add_products(acc, [1, True], [1, 5])  # ints: none
    assert acc[4] == 2 * _LIMIT + 5
    sums.add_product_each([acc, spill], 0.75, 1)
    assert acc[4] == 2 * _LIMIT + 6 and spill[4] == _LIMIT + 2


def test_unmerge_drops_the_float_part_with_the_last_float_addend():
    ints = new_acc()
    add_product(ints, 7, 3)
    floats = _fold([1.7e308, 1.7e308, -1.7e308, -1.7e308] + [0.25] * _LIMIT)
    add_product(floats, 0.1, 0)
    merge_acc(ints, floats)
    assert type(finish(ints)) is float and ints[3] != 0
    sums.unmerge_acc(ints, floats)
    assert ints == [21, [], 0.0, 0, 0] and repr(finish(ints)) == "21"
    # a float part that keeps an addend stays, with its exact sum
    acc = _fold([0.5, 0.25])
    half = _fold([0.5])
    sums.unmerge_acc(acc, half)
    assert acc[4] == 1 and repr(finish(acc)) == "0.25"
    sums.unmerge_acc(acc, _fold([0.25]))
    assert repr(finish(acc)) == "0"

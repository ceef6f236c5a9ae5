"""Meta-test over the aggregate registry (``core.aggregation.AGGREGATES``).

Every aggregate function is defined once — per engine a mergeable state
``(init, step, merge, finalize, empty)``, an optional column ``fold``
(det: ≡ the ``step`` loop; AU: ≡ the ``step`` of point contributions,
per slot set of ``point_slots``), an optional ``unmerge`` (the exact
inverse of ``merge``), plus one ``result_type`` — and
every fold in the system (serial, partial, parallel merge, delta,
typing) runs those functions.  The functions are *enumerated* here, not
listed, so a sixth function is held to the whole-group references
without anyone remembering to extend a test: ``db.engine._fold`` (the
list-based det oracle) and possible-world enumeration for AU.  A source
guard keeps a per-kind switch from growing back beside the registry.
"""

import ast
import itertools
import math
import pathlib

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro
from repro.algebra.ast import Aggregate, TableRef
from repro.algebra.evaluator import EvalConfig
from repro.analysis import PlanTypeError, infer_logical
from repro.core.aggregation import (
    AGGREGATES,
    AggregateSpec,
    _AggregateFunction,
    _Algebra,
    aggregate,
    point_slots,
)
from repro.core.expressions import Var
from repro.core.ranges import RangeValue, certain, domain_key, domain_le
from repro.core.relation import AUDatabase, AURelation
from repro.db.engine import _empty_value, _fold, evaluate_det
from repro.db.storage import DetDatabase, DetRelation
from repro.exec.au_aggregate import (
    finalize_groups,
    fold_partial_groups,
    merge_partial_groups,
)
from repro.exec.batch import AUColumnBatch
from repro.exec.vectorized import DetGammaState
from repro.session import Connection
from repro.sql.parser import AGG_FUNCTIONS, parse_sql

KINDS = sorted(AGGREGATES)
SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _spec(kind: str) -> AggregateSpec:
    expr = Var("v") if AGGREGATES[kind].takes_input else None
    return AggregateSpec(kind, expr, "out")


def _bits(value) -> str:
    """``repr`` tells 1 from 1.0 and -0.0 from 0.0, and equates NaNs."""
    return repr(value)


# ----------------------------------------------------------------------
# completeness: both engines, every member, every consumer
# ----------------------------------------------------------------------
def _check_complete(kind: str, fn) -> None:
    assert isinstance(fn, _AggregateFunction), kind
    for engine in ("det", "au"):
        algebra = getattr(fn, engine)
        assert isinstance(algebra, _Algebra), f"{kind}: no {engine} algebra"
        for member in ("init", "step", "merge", "finalize"):
            assert callable(getattr(algebra, member)), (kind, engine, member)
    assert callable(fn.result_type), kind
    assert fn.au.empty == certain(fn.det.empty), kind


@pytest.mark.parametrize("kind", KINDS)
def test_entry_has_both_engines(kind):
    _check_complete(kind, AGGREGATES[kind])


def test_a_sixth_function_without_both_engines_fails(monkeypatch):
    total = AGGREGATES["sum"]
    monkeypatch.setitem(
        AGGREGATES,
        "product",
        _AggregateFunction(det=total.det, au=None, result_type=total.result_type),
    )
    with pytest.raises(AssertionError, match="product: no au algebra"):
        for kind, fn in AGGREGATES.items():
            _check_complete(kind, fn)


def test_parser_and_spec_validation_read_the_registry(monkeypatch):
    assert AGG_FUNCTIONS == {kind.upper() for kind in AGGREGATES}
    for kind in KINDS:
        plan = parse_sql(f"SELECT {kind}(v) AS out FROM t")
        assert [
            node.aggregates[0].kind
            for node in plan.walk()
            if isinstance(node, Aggregate)
        ] == [kind]
    with pytest.raises(ValueError, match="unsupported aggregate kind"):
        AggregateSpec("median", Var("v"), "m")
    for kind, fn in AGGREGATES.items():
        if fn.takes_input:
            with pytest.raises(ValueError, match="requires an expression"):
                AggregateSpec(kind, None, "x")
        else:
            AggregateSpec(kind, None, "x")
    monkeypatch.setitem(AGGREGATES, "median", AGGREGATES["avg"])
    assert AggregateSpec("median", Var("v"), "m").kind == "median"


# ----------------------------------------------------------------------
# det: finalize(fold(rows)) ≡ the whole-group oracle, merge, inverse
# ----------------------------------------------------------------------
_HUGE = st.floats(min_value=1e307, max_value=1.7e308)
_DET_VALUES = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.floats(allow_nan=False, allow_infinity=False),
    _HUGE,
    _HUGE.map(lambda x: -x),
)
_DET_ROWS = st.lists(
    st.tuples(_DET_VALUES, st.integers(min_value=1, max_value=3)),
    min_size=1,
    max_size=8,
)


def _det_fold(fn, rows):
    state = fn.det.init()
    for value, weight in rows:
        state = fn.det.step(state, value if fn.takes_input else None, weight)
    return state


def _partition(rows, cuts):
    edges = [0] + sorted(set(cuts)) + [len(rows)]
    parts = [rows[a:b] for a, b in zip(edges, edges[1:])]
    return [part for part in parts if part]


@pytest.mark.parametrize("kind", KINDS)
@SETTINGS
@given(rows=_DET_ROWS)
def test_det_fold_is_the_whole_group_reference(kind, rows):
    fn = AGGREGATES[kind]
    reference = _fold(_spec(kind), ("v",), [((v,), m) for v, m in rows])
    assert _bits(fn.det.finalize(_det_fold(fn, rows))) == _bits(reference)


@pytest.mark.parametrize("kind", KINDS)
@SETTINGS
@given(rows=_DET_ROWS, cuts=st.lists(st.integers(0, 8), max_size=3))
def test_det_merge_of_an_in_order_partition_is_the_fold(kind, rows, cuts):
    fn = AGGREGATES[kind]
    merged = None
    for part in _partition(rows, cuts):
        state = _det_fold(fn, part)
        merged = state if merged is None else fn.det.merge(merged, state)
    assert _bits(fn.det.finalize(merged)) == _bits(
        fn.det.finalize(_det_fold(fn, rows))
    )


@pytest.mark.parametrize("kind", KINDS)
@SETTINGS
@given(
    rows=_DET_ROWS,
    value=st.one_of(st.integers(-50, 50), st.floats(-1e6, 1e6)),
    weight=st.integers(min_value=1, max_value=3),
)
def test_det_negative_weight_undoes_the_step(kind, rows, value, weight):
    fn = AGGREGATES[kind]
    expected = fn.det.finalize(_det_fold(fn, rows))
    if fn.det.unmerge is not None:
        # the algebra alone: the same value (stepping ``-weight`` adds
        # a second float addend, so an int sum that saw a float is still
        # a float — ``unmerge`` restores the type, below)
        state = fn.det.step(_det_fold(fn, rows), value, weight)
        assert fn.det.finalize(fn.det.step(state, value, -weight)) == expected
    # the kept γ state: to the bit, or a named stale reason asks for a
    # re-run over the input
    spec = _spec(kind)
    base = DetRelation(("v",))
    for v, m in rows:
        base.rows[(v,)] = base.rows.get((v,), 0) + m
    maintained = DetGammaState(("v",), [], [spec])
    maintained.rebuild(base)
    old = base.rows.get((value,))
    for before, after in ((old, (old or 0) + weight), ((old or 0) + weight, old)):
        reason = maintained.apply((value,), before, after)
        if reason is not None:
            assert reason in ("extremum_deleted", "non_finite_addend")
            assert fn.det.unmerge is None or fn.takes_input
            return
    fresh = DetGammaState(("v",), [], [spec])
    assert _bits(sorted(maintained.result().to_relation().tuples())) == _bits(
        sorted(fresh.rebuild(base).to_relation().tuples())
    )


#: addends an ``unmerge`` must take back out to the bit: ints and bools,
#: signed zeros, finite floats of every magnitude (huge ones spill)
_UNMERGE_VALUES = st.one_of(
    st.sampled_from([0, 0.0, -0.0, 1, True, -3, 0.1, 2.5, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_UNMERGE_KINDS = [kind for kind in KINDS if AGGREGATES[kind].det.unmerge is not None]


@pytest.mark.parametrize("kind", _UNMERGE_KINDS)
@SETTINGS
@given(
    rows=st.lists(st.tuples(_UNMERGE_VALUES, st.integers(1, 3)), min_size=1, max_size=5),
    part=st.lists(st.tuples(_UNMERGE_VALUES, st.integers(0, 3)), max_size=5),
)
# an int-only state after a float part leaves; a weight-0 float; zeros
@example(rows=[(1, 2)], part=[(0.5, 1), (3, 1)])
@example(rows=[(3, 1)], part=[(2.5, 0)])
@example(rows=[(0, 1), (-0.0, 1)], part=[(0.0, 2), (-0.0, 1)])
def test_det_unmerge_takes_a_merged_part_back_out(kind, rows, part):
    fn = AGGREGATES[kind]
    state = fn.det.merge(_det_fold(fn, rows), _det_fold(fn, part))
    state = fn.det.unmerge(state, _det_fold(fn, part))
    assert _bits(fn.det.finalize(state)) == _bits(
        fn.det.finalize(_det_fold(fn, rows))
    )


#: det column folds: every path of ``core.sums.add_products`` and what
#: only the per-value loop handles (mixes, non-finite floats, None, str)
_FOLD_COLUMNS = st.sampled_from(
    [
        st.one_of(st.integers(-50, 50), st.booleans(), st.just(2**63 - 1)),
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([0.0, -0.0, 1e308, -1e308, 1.5e308]),
        ),
        st.one_of(
            st.floats(-1e3, 1e3),
            st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308]),
        ),
        st.sampled_from([1.5, math.inf, -math.inf]),
        st.one_of(st.integers(-5, 5), st.floats(-1e3, 1e3), st.booleans()),
        st.one_of(st.integers(-5, 5), st.floats(-1e3, 1e3), st.none(), st.just("s")),
    ]
)
#: unit, larger and negative weights, and ones past add_product's spill
#: threshold (a power-of-two term that leaves the double range)
_FOLD_WEIGHTS = st.sampled_from(
    [
        st.just(1),
        st.integers(2, 4),
        st.integers(-3, -1),
        st.integers(-3, 4),
        st.sampled_from([1, 2**1030]),
    ]
)


def _finalized(fn, fold):
    try:
        out = fn.det.finalize(fold())
    except (TypeError, ZeroDivisionError, ValueError, OverflowError) as exc:
        return "raised", type(exc)
    return "ok", _bits(out), type(out)


@pytest.mark.parametrize("kind", KINDS)
@SETTINGS
@given(
    data=st.data(),
    n=st.sampled_from([0, 1, 2, 3, 8, 63, 64, 65]),
)
def test_det_column_fold_is_the_step_loop(kind, data, n):
    fn = AGGREGATES[kind]
    values = data.draw(st.lists(data.draw(_FOLD_COLUMNS), min_size=n, max_size=n))
    weights = data.draw(st.lists(data.draw(_FOLD_WEIGHTS), min_size=n, max_size=n))
    column = values if fn.takes_input else itertools.repeat(None)
    stepped = _finalized(fn, lambda: _det_fold(fn, list(zip(values, weights))))
    fold = fn.det.column_fold()
    assert _finalized(fn, lambda: fold(fn.det.init(), column, weights)) == stepped
    if fn.takes_input:  # a gathered group arrives as tuples
        assert _finalized(
            fn, lambda: fold(fn.det.init(), tuple(values), tuple(weights))
        ) == stepped


def test_a_sixth_function_without_fold_folds_through_its_step(monkeypatch):
    total = AGGREGATES["sum"]
    steps = []

    def step(state, value, weight):
        steps.append((value, weight))
        return state + value * weight

    det = _Algebra(
        init=lambda: 0, step=step, merge=lambda a, b: a + b,
        finalize=lambda state: state, empty=0,
    )
    assert det.fold is None
    monkeypatch.setitem(
        AGGREGATES,
        "weighted",
        _AggregateFunction(det=det, au=total.au, result_type=total.result_type),
    )
    spec = AggregateSpec("weighted", Var("v"), "out")
    rows = {(1, 2): 3, (2, 5): 1, (1, 7): 2, (3, 1): 1}
    db = DetDatabase({"t": DetRelation(["g", "v"], rows)})
    plan = Aggregate(TableRef("t"), ["g"], [spec])
    out = evaluate_det(plan, db, backend="vectorized")
    assert list(out.tuples()) == [((1, 20), 1), ((2, 5), 1), ((3, 1), 1)]
    assert sorted(steps) == sorted((v, m) for (_g, v), m in rows.items())


@pytest.mark.parametrize("kind", KINDS)
def test_empty_is_the_engines_empty_input_row(kind):
    fn, spec = AGGREGATES[kind], _spec(kind)
    assert _bits(fn.det.empty) == _bits(_empty_value(spec))
    plan = Aggregate(TableRef("t"), [], [spec])
    db = DetDatabase({"t": DetRelation(["v"])})
    for backend in ("tuple", "vectorized"):
        out = evaluate_det(plan, db, backend=backend)
        assert _bits(dict(out.rows)) == _bits({(fn.det.empty,): 1})
    empty = DetGammaState(["v"], [], [spec]).rebuild(DetRelation(["v"]))
    assert _bits(sorted(empty.to_relation().tuples())) == _bits(
        [((fn.det.empty,), 1)]
    )
    for out in (
        aggregate(AURelation(["v"]), [], [spec]),
        finalize_groups({}, [], [spec]).to_relation(),
    ):
        assert _bits(list(out.tuples())) == _bits([((fn.au.empty,), (1, 1, 1))])


@pytest.mark.parametrize("kind", KINDS)
def test_result_type_is_what_inference_reports(kind):
    fn, spec = AGGREGATES[kind], _spec(kind)
    db = DetDatabase(
        {
            "n": DetRelation(["v"], [(1,), (2,)]),
            "s": DetRelation(["v"], [("x",)]),
            "o": DetRelation(["v"], [(1,), (None,)]),
        }
    )
    with Connection(db) as conn:
        stats = conn.statistics()
    for table in ("n", "s", "o"):
        inner = infer_logical(TableRef(table), stats).get("v")
        plan = Aggregate(TableRef(table), [], [spec])
        try:
            expected = fn.result_type(inner if fn.takes_input else None)
        except TypeError:
            with pytest.raises(PlanTypeError, match=f"aggregate {kind}"):
                infer_logical(plan, stats)
            continue
        column = infer_logical(plan, stats).get("out")
        assert (column.type, column.nullable) == expected
        assert not column.certain


# ----------------------------------------------------------------------
# AU: finalize(fold(rows)) bounds every world, merge ≡ fold ≡ operator
# ----------------------------------------------------------------------
@st.composite
def _au_row(draw):
    lb = draw(st.integers(min_value=-3, max_value=3))
    sg = draw(st.integers(min_value=lb, max_value=min(lb + 2, 3)))
    ub = draw(st.integers(min_value=sg, max_value=min(lb + 2, 3)))
    k_ub = draw(st.integers(min_value=1, max_value=2))
    k_sg = draw(st.integers(min_value=0, max_value=k_ub))
    k_lb = draw(st.integers(min_value=0, max_value=k_sg))
    return RangeValue(lb, sg, ub), (k_lb, k_sg, k_ub)


_AU_ROWS = st.lists(_au_row(), min_size=1, max_size=3)

#: the paper's Figure 7 ``inhab`` column: SUM is [6/7/14]
_FIGURE_7 = [
    (certain(1), (1, 1, 2)),
    (RangeValue(1, 2, 2), (1, 1, 1)),
    (certain(2), (2, 2, 3)),
    (RangeValue(2, 3, 4), (0, 0, 1)),
]


def _au_fold(fn, rows):
    """The registry's AU fold as the operator runs it without GROUP BY:
    every row is in the one SG group, and certainly so iff it certainly
    exists."""
    state = fn.au.init()
    one = certain(1)
    for m, ann in rows:
        fn.au.step(state, ann, m if fn.takes_input else one, ann[0] > 0, True)
    return state


def _worlds(rows):
    """Every world in which all copies of a row share one value."""
    per_row = [
        [
            (v, k)
            for k in range(ann[0], ann[2] + 1)
            for v in range(m.lb, m.ub + 1)
        ]
        for m, ann in rows
    ]
    for choice in itertools.product(*per_row):
        yield [((v,), k) for v, k in choice if k > 0]


def _check_bounds_every_world(kind, rows):
    fn, spec = AGGREGATES[kind], _spec(kind)
    out = fn.au.finalize(_au_fold(fn, rows))
    for world in _worlds(rows):
        if world:  # SQL's NULL/0 over an empty world is `empty`'s job
            truth = _fold(spec, ("v",), world)
            assert out.bounds_value(truth), (kind, rows, world, out, truth)
    selected = [((m.sg,), ann[1]) for m, ann in rows if ann[1] > 0]
    if selected:
        assert out.sg == _fold(spec, ("v",), selected)


@pytest.mark.parametrize("kind", KINDS)
@SETTINGS
@given(rows=_AU_ROWS)
def test_au_fold_bounds_every_world(kind, rows):
    _check_bounds_every_world(kind, rows)


@pytest.mark.parametrize("kind", KINDS)
def test_au_fold_on_the_papers_figure_7(kind):
    _check_bounds_every_world(kind, _FIGURE_7)
    if kind == "sum":  # the paper's own number for this column
        out = AGGREGATES[kind].au.finalize(_au_fold(AGGREGATES[kind], _FIGURE_7))
        assert (out.lb, out.sg, out.ub) == (6, 7, 14)


_AU_FLOAT_ROWS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),
        st.tuples(
            st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)
        ).map(sorted),
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(1, 2)).map(
            sorted
        ),
    ),
    min_size=1,
    max_size=6,
    unique_by=lambda row: (row[0], tuple(row[1])),
)


@pytest.mark.parametrize("kind", KINDS)
@SETTINGS
@given(rows=_AU_FLOAT_ROWS, cuts=st.lists(st.integers(0, 6), max_size=3))
def test_au_merge_of_an_in_order_partition_is_the_operator(kind, rows, cuts):
    fn, specs = AGGREGATES[kind], (_spec(kind),)
    rel = AURelation(["g", "v"])
    for g, bounds, ann in rows:
        rel.add([certain(g), RangeValue(*bounds)], tuple(ann))
    serial = aggregate(rel, ["g"], list(specs))
    stored = list(rel.tuples())
    merged: dict = {}
    for part in _partition(stored, cuts):
        partial = fold_partial_groups(
            AUColumnBatch.from_rows(rel.schema, part), ["g"], specs
        )
        merge_partial_groups(merged, partial, specs)
    merged_rel = finalize_groups(merged, ["g"], specs).to_relation()
    assert _bits(list(merged_rel.tuples())) == _bits(list(serial.tuples()))
    # the same through the registry alone, one group at a time
    for g in {t[0].sg for t, _ann in stored}:
        group = [(t[1], ann) for t, ann in stored if t[0].sg == g]
        state = None
        for part in _partition(group, cuts):
            nxt = _au_fold(fn, part)
            state = nxt if state is None else fn.au.merge(state, nxt)
        assert _bits(fn.au.finalize(state)) == _bits(
            fn.au.finalize(_au_fold(fn, group))
        )


#: float ranges, annotations with and without SG copies
_AU_AVG_ROWS = st.lists(
    st.tuples(
        st.tuples(
            st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)
        ).map(sorted),
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 3)).map(
            sorted
        ),
    ),
    min_size=1,
    max_size=6,
)


@SETTINGS
@given(rows=_AU_AVG_ROWS)
# the mean of three 0.1 rounds above every member
@example(rows=[((0.1, 0.1, 0.1), (1, 1, 1))] * 3)
@example(rows=[((0.1, 0.1, 0.1), (3, 3, 3))])
def test_au_avg_sg_is_the_det_avg_of_the_sg_world(rows):
    fn, spec = AGGREGATES["avg"], _spec("avg")
    rows = [(RangeValue(*bounds), tuple(ann)) for bounds, ann in rows]
    out = fn.au.finalize(_au_fold(fn, rows))
    assert domain_le(out.lb, out.sg) and domain_le(out.sg, out.ub)
    selected = [((m.sg,), ann[1]) for m, ann in rows if ann[1] > 0]
    if selected:
        assert _bits(out.sg) == _bits(_fold(spec, ("v",), selected))


@pytest.mark.parametrize("backend", ["tuple", "vectorized"])
def test_au_avg_of_three_tenths_is_the_det_avg(backend):
    sql = "SELECT AVG(v) AS av FROM t"
    au = AURelation(("k", "v"))
    det = DetRelation(("k", "v"))
    for k in range(3):
        au.add((certain(k), certain(0.1)), (1, 1, 1))
        det.add((k, 0.1))
    config = EvalConfig(backend=backend)
    want = Connection(DetDatabase({"t": det}), config=config).execute(sql)
    got = Connection(AUDatabase({"t": au}), config=config).execute(sql)
    assert _bits(want.rows) == "{(0.10000000000000002,): 1}"
    ((cell,), _ann), = got.tuples()
    assert _bits(cell.sg) == "0.10000000000000002"
    assert got.selected_guess_world() == want.as_bag()
    assert cell.lb == 0.1 and cell.ub == 0.10000000000000002


@st.composite
def _au_unmerge_row(draw):
    """A contribution with any Definition 26 flags: a point or a range
    input, annotation components 0 included (weight-0 products)."""
    if draw(st.booleans()):
        m = certain(draw(_UNMERGE_VALUES))
    else:
        lb, sg, ub = sorted(
            draw(st.tuples(_UNMERGE_VALUES, _UNMERGE_VALUES, _UNMERGE_VALUES)),
            key=domain_key,
        )
        m = RangeValue(lb, sg, ub)
    ann = tuple(sorted(draw(st.tuples(*[st.integers(0, 2)] * 3))))
    return m, ann, draw(_AU_FLAGS)


def _au_unmerge_fold(fn, rows):
    state = fn.au.init()
    for m, ann, (certainly_in_group, in_sg_group) in rows:
        fn.au.step(state, ann, m, certainly_in_group, in_sg_group)
    return state


@pytest.mark.parametrize(
    "kind", [kind for kind in KINDS if AGGREGATES[kind].au.unmerge is not None]
)
@SETTINGS
@given(
    rows=st.lists(_au_unmerge_row(), max_size=4),
    part=st.lists(_au_unmerge_row(), max_size=4),
)
@example(
    rows=[(certain(1), (1, 1, 1), (True, True))],
    part=[(certain(0.5), (0, 0, 1), (False, True))],
)
def test_au_unmerge_takes_a_merged_part_back_out(kind, rows, part):
    fn = AGGREGATES[kind]
    if not fn.takes_input:
        rows = [(certain(1), ann, flags) for _m, ann, flags in rows]
        part = [(certain(1), ann, flags) for _m, ann, flags in part]
    state = fn.au.merge(_au_unmerge_fold(fn, rows), _au_unmerge_fold(fn, part))
    state = fn.au.unmerge(state, _au_unmerge_fold(fn, part))
    out, want = fn.au.finalize(state), fn.au.finalize(_au_unmerge_fold(fn, rows))
    assert _bits((out.lb, out.sg, out.ub)) == _bits((want.lb, want.sg, want.ub))


#: AU column folds: point inputs of the types a SUM meets — ints and
#: bools, finite floats with signed zeros and sums that overflow on the
#: way, infinities, 1 / 1.0 / True mixed — and a column it rejects
_AU_FOLD_COLUMNS = st.sampled_from(
    [
        st.sampled_from([0, 1, -1, 2, -7, True, False]),
        st.sampled_from([0.0, -0.0, 1.5, -2.25, 0.1, 1e308, -1e308, 1.5e308]),
        st.sampled_from(
            [1, 1.0, True, -1, -1.0, 0, 0.0, -0.0, math.inf, -math.inf, 1e308]
        ),
        st.one_of(st.integers(-5, 5), st.floats(-1e3, 1e3), st.none(), st.just("s")),
    ]
)
#: columns of ``(value, weight)``, long enough to compact the term list
_AU_FOLD_ROWS = st.tuples(
    _AU_FOLD_COLUMNS, st.sampled_from([1, 2, 3, 8, 63, 64, 65])
).flatmap(
    lambda column: st.lists(
        st.tuples(column[0], st.integers(1, 3)),
        min_size=column[1],
        max_size=column[1],
    )
)
#: every ``(certainly_in_group, in_sg_group)`` a step can carry
_AU_FLAGS = st.sampled_from(
    [(True, True), (False, True), (True, False), (False, False)]
)


def _au_finalized(fn, fold):
    try:
        out = fn.au.finalize(fold())
    except (TypeError, ValueError, OverflowError) as exc:
        return "raised", type(exc)
    return "ok", _bits((out.lb, out.sg, out.ub))


@pytest.mark.parametrize(
    "kind", [kind for kind in KINDS if AGGREGATES[kind].au.fold is not None]
)
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(rows=_AU_FOLD_ROWS, flags=_AU_FLAGS, before=st.lists(_au_row(), max_size=2))
# a column certainly in the group enters all three slots
@example(rows=[(-2.5, 1), (3.5, 2)], flags=(True, True), before=[])
def test_au_column_fold_is_the_step_loop(kind, rows, flags, before):
    # point contributions (k, k, k) x [v/v/v]: the step of each row ≡
    # one fold per slot set point_slots gives them, into a state that
    # already holds other rows — every slot set a value's sign reaches
    fn = AGGREGATES[kind]
    certainly_in_group, in_sg_group = flags

    def stepped():
        state = _au_fold(fn, before)
        for value, k in rows:
            cell = certain(value)
            fn.au.step(state, (k, k, k), cell, certainly_in_group, in_sg_group)
        return state

    def folded():
        state = _au_fold(fn, before)
        columns: dict = {}
        for value, k in rows:
            slots = point_slots(value, certainly_in_group, in_sg_group)
            column = columns.setdefault(slots.indices(3), ([], []))
            column[0].append(value)
            column[1].append(k)
        for key, (values, weights) in columns.items():
            fn.au.fold(state, values, weights, slice(*key))
        return state

    assert _au_finalized(fn, folded) == _au_finalized(fn, stepped)


# ----------------------------------------------------------------------
# source guard: no per-kind switch beside the registry
# ----------------------------------------------------------------------
_SRC = pathlib.Path(repro.__file__).parent
_GUARDED = sorted(
    path
    for sub in ("core", "exec", "db", "analysis")
    for path in (_SRC / sub).rglob("*.py")
) + [_SRC / "ivm.py"]
#: the whole-group, list-based oracle every det lane compares against
_REFERENCE = {("engine.py", "_fold"), ("engine.py", "_empty_value")}


def _is_kind(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "kind") or (
        isinstance(node, ast.Attribute) and node.attr == "kind"
    )


def _names_an_aggregate(node) -> bool:
    if isinstance(node, ast.Constant):
        return node.value in AGGREGATES if isinstance(node.value, str) else False
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_an_aggregate(e) for e in node.elts)
    return False


def _kind_switches(source: str, filename: str):
    """``(function, line)`` of every comparison of a ``kind`` / ``.kind``
    with an aggregate-name literal (or a literal collection of them)."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Compare) and (filename, function) not in _REFERENCE:
            operands = [node.left] + list(node.comparators)
            if any(_is_kind(o) for o in operands) and any(
                _names_an_aggregate(o) for o in operands
            ):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_no_module_switches_on_an_aggregate_kind():
    offenders = {
        str(path.relative_to(_SRC)): hits
        for path in _GUARDED
        if (hits := _kind_switches(path.read_text(encoding="utf-8"), path.name))
    }
    assert offenders == {}


@pytest.mark.parametrize(
    "pasted",
    [
        "def finalize_groups(kinds):\n    for kind in kinds:\n"
        "        if kind == 'count':\n            pass\n",
        "def _aggregate_output(spec):\n"
        "    if spec.kind in ('sum', 'avg'):\n        pass\n",
        "def _merge(kind):\n    return 1 if 'min' == kind else 2\n",
        "def check(self):\n    if self.kind not in {'sum', 'count'}:\n        pass\n",
        "def _fold(spec):\n    return spec.kind == 'max'\n",
    ],
)
def test_the_guard_sees_a_switch_pasted_back(pasted):
    assert _kind_switches(pasted, "vectorized.py")
    # ... and spares only the named reference functions of db/engine.py
    assert bool(_kind_switches(pasted, "engine.py")) == ("_fold" not in pasted)


def test_the_guard_ignores_other_kinds():
    assert not _kind_switches("x = p.kind == 'aggregate'\n", "ivm.py")
    assert not _kind_switches("x = tok.kind == 'ident'\n", "vectorized.py")

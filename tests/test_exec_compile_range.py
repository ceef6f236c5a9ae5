"""Compiled range predicates ≡ the interpreted ``eval_range`` loop.

:mod:`repro.exec.compile` generates one fused loop per AU selection /
join residual; the interpreter (``Expression.eval_range`` per row, the
fallback the executors keep for conditions the emitter rejects) is its
oracle.  The properties here hold the kernels to it **to the bit** —
survivor order, the three scaled annotation arrays, and which exception
is raised on which row — for the three ways a kernel is fed: the
``RangeValue`` cells of an intermediate batch, those of a base table's
chunks, and row pairs of a join.

* a Hypothesis property over random conditions × AU batches holding
  NULLs, ±inf floats, the open-bound sentinels, bools, strings, mixed
  int/float, point and wide ranges and zero annotations (NaN cannot be
  stored in a ``RangeValue``; it enters through constants and
  ``inf - inf`` arithmetic);
* a meta-test *enumerating* every ``Expression`` subclass: each one
  either compiles — and then agrees with the interpreter — or raises
  :class:`CompileError`; none silently takes a base class's semantics;
* the point lane — rows whose referenced cells are all points test the
  condition once, on the SG values — is pinned by examples held to the
  interpreter (``1`` / ``1.0`` / ``True``, ``None`` and ``str`` points,
  a ``RangeValue`` constant, conditions with no lane, mixed batches, the
  pair feed), by a property holding it to the same kernel without the
  lane (NaN points included, which no ``RangeValue`` can hold), and by
  its source: a ``<`` costs one ``_le`` call;
* kernels are cached by statement shape: one prepared AU statement run
  under 50 bindings compiles exactly once;
* a filtered ``ParallelScan`` region answers the same at parallelism 1
  and 4;
* the operator span says ``kernel=compiled`` or ``kernel=interpreted``
  with the reason, and ``explain_analyze`` shows it.
"""

import dataclasses
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import telemetry
from repro.algebra.ast import Aggregate, Selection, TableRef
from repro.algebra.evaluator import EvalConfig, evaluate_audb
from repro.algebra.optimizer import optimize
from repro.core import operators as ops
from repro.core.aggregation import agg_count, agg_sum
from repro.core.expressions import (
    Add,
    And,
    Const,
    Div,
    Eq,
    Expression,
    Geq,
    Gt,
    If,
    IsNull,
    Leq,
    Lt,
    MakeUncertain,
    Mul,
    Neg,
    Neq,
    Not,
    Or,
    Sub,
    Var,
)
from repro.core.ranges import NEG_INF, POS_INF, RangeValue, certain, domain_key
from repro.core.relation import AUDatabase, AURelation
from repro.db.storage import DetDatabase, DetRelation
from repro.exec import compile as exec_compile
from repro.exec import physical as phys
from repro.exec.batch import AUColumnBatch
from repro.exec.compile import (
    CompileError,
    compile_range_filter,
    compile_range_pair_filter,
)
from repro.exec.vectorized import (
    _AUExec,
    _interpret_pairs,
    _interpret_selection,
    execute_audb,
)
from repro.session import Connection

SCHEMA = ("a", "b", "c")

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
SCALARS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([0.0, -1.5, 2.5, 1e308, math.inf, -math.inf]),
    st.booleans(),
    st.sampled_from(["", "a", "b"]),
    st.none(),
    st.sampled_from([NEG_INF, POS_INF]),
)
#: what queries mostly compare: keeps a good share of examples clear of
#: ``None + 1`` so the non-raising paths are exercised too
NUMBERS = st.one_of(st.integers(-3, 3), st.sampled_from([0.0, 0.5, -2.5]))


@st.composite
def range_values(draw, scalars=SCALARS):
    shape = draw(st.sampled_from(["point", "point", "range", "wide"]))
    if shape == "point":
        return certain(draw(scalars))
    if shape == "wide":
        return RangeValue(NEG_INF, draw(scalars), POS_INF)
    return RangeValue(*sorted(draw(st.tuples(*[scalars] * 3)), key=domain_key))


@st.composite
def annotations(draw):
    ub = draw(st.integers(0, 3))
    sg = draw(st.integers(0, ub))
    return draw(st.integers(0, sg)), sg, ub


@st.composite
def batches(draw, schema=SCHEMA, max_rows=6):
    n = draw(st.integers(0, max_rows))
    cells = st.one_of(range_values(NUMBERS), range_values())
    columns = [[draw(cells) for _ in range(n)] for _ in schema]
    ann = [draw(annotations()) for _ in range(n)]
    return AUColumnBatch(
        schema,
        columns,
        [k[0] for k in ann],
        [k[1] for k in ann],
        [k[2] for k in ann],
    )


def _conditions(names, exotic):
    """Well-typed conditions a kernel runs; ``exotic`` adds what reaches
    the emitter's refusals and the interpreter's validation errors."""
    leaves = [
        st.sampled_from([Var(name) for name in names]),
        st.builds(Const, NUMBERS),
        st.builds(Const, range_values(NUMBERS)),
    ]
    if exotic:
        leaves += [
            st.builds(Const, SCALARS),
            st.sampled_from([Const(math.nan), Const(None)]),
        ]

    def binary(kinds, left, right):
        return st.builds(
            lambda kind, x, y: kind(x, y), st.sampled_from(kinds), left, right
        )

    def value_nodes(kids):
        nodes = [binary([Add, Sub, Mul, Div], kids, kids), st.builds(Neg, kids)]
        if exotic:
            nodes += [
                binary([Leq, Eq], kids, kids),  # a truth triple as a number
                # the two constructs the emitter leaves to the interpreter
                st.builds(If, binary([Lt], kids, kids), kids, kids),
                st.builds(MakeUncertain, kids, kids, kids),
            ]
        return st.one_of(nodes)

    values = st.recursive(st.one_of(leaves), value_nodes, max_leaves=5)
    atoms = st.one_of(
        binary([Eq, Neq, Leq, Lt, Geq, Gt], values, values),
        st.builds(IsNull, values),
    )

    def truth_nodes(kids):
        nodes = [binary([And, Or], kids, kids), st.builds(Not, kids)]
        if exotic:
            nodes += [
                binary([Eq, Lt], kids, kids),  # comparing truth triples
                binary([And, Or], values, kids),  # a non-boolean operand
            ]
        return st.one_of(nodes)

    return st.recursive(atoms, truth_nodes, max_leaves=4)


def conditions(names=SCHEMA):
    return st.booleans().flatmap(lambda exotic: _conditions(names, exotic))


def outcome(fn, *args):
    """The call's result, or which exception it raised — both sides of
    an equivalence must agree on either."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - parity of *any* failure
        return ("raised", type(exc), str(exc))


def same_cells(got, expected):
    """Column lists equal *and* holding the very same cell objects."""
    return len(got) == len(expected) and all(
        len(g) == len(e) and all(x is y for x, y in zip(g, e))
        for g, e in zip(got, expected)
    )


def ann(batch):
    return batch.ann_lb, batch.ann_sg, batch.ann_ub


PROPERTY = settings(max_examples=150, deadline=None)


def example_batch(*rows, schema=SCHEMA):
    """One row per tuple of cells; row ``k`` annotated ``(k % 2, 1, 2)``
    so both the lower-bound scaling and the zero-lower rule show."""
    return AUColumnBatch(
        schema,
        [list(col) for col in zip(*rows)],
        [k % 2 for k in range(len(rows))],
        [1] * len(rows),
        [2] * len(rows),
    )


a, b, c = Var("a"), Var("b"), Var("c")
#: the lane's examples: 1 / 1.0 / True points compare equal under the
#: domain order; None sorts below everything; a RangeValue constant
#: closes the lane (a point one keeps it open); IS NULL and arithmetic
#: have no lane; a batch mixing point and range rows takes both paths
NUMERIC_POINTS = example_batch(
    (certain(1), certain(1.0), certain(True)),
    (certain(True), certain(1), certain(0.0)),
    (certain(0), certain(False), certain(1.0)),
)
NONE_AND_STR_POINTS = example_batch(
    (certain(None), certain("a"), certain("")),
    (certain("b"), certain(None), certain("b")),
    (certain(""), certain(""), certain(None)),
)
MIXED = example_batch(
    (certain(1), RangeValue(NEG_INF, 1, POS_INF), certain(2)),
    (certain(2), certain(2), certain(2)),
    (RangeValue(-5, 0, 5), certain(0), certain(1)),
    (certain(0), certain(1), certain(1)),
)
LANE_EXAMPLES = [
    (NUMERIC_POINTS, And(Eq(a, b), Leq(c, Const(1.0)))),
    (NUMERIC_POINTS, Or(Neq(a, Const(True)), Lt(c, b))),
    (NUMERIC_POINTS, Not(Gt(a, Const(1.0)))),
    (NONE_AND_STR_POINTS, Or(Lt(a, b), Eq(c, Const("")))),
    (NONE_AND_STR_POINTS, And(Geq(a, Const(None)), Neq(b, c))),
    (NUMERIC_POINTS, Eq(a, Const(RangeValue(0, 1, 2)))),
    (NUMERIC_POINTS, Lt(a, Const(certain(2)))),
    (NONE_AND_STR_POINTS, Or(IsNull(a), Eq(b, c))),
    (MIXED, Gt(Add(a, Const(1)), c)),
    (MIXED, And(Geq(a, Const(0)), Neq(b, c))),
    (MIXED, Or(Eq(a, b), Not(Leq(c, a)))),
]


def with_examples(cases):
    def decorate(test):
        for batch, condition in reversed(cases):
            test = example(batch=batch, condition=condition)(test)
        return test

    return decorate


# ----------------------------------------------------------------------
# compiled ≡ interpreted
# ----------------------------------------------------------------------
class TestCompiledEqualsInterpreted:
    @PROPERTY
    @given(batches(), conditions())
    @with_examples(LANE_EXAMPLES)
    def test_row_kernels(self, batch, condition):
        expected = outcome(_interpret_selection, batch, condition)
        try:
            kernel = compile_range_filter(condition, SCHEMA)
        except CompileError:
            return
        got = outcome(kernel, batch.columns, *ann(batch), len(batch))
        assert got == expected

    @PROPERTY
    @given(batches(), conditions())
    def test_selection_operator(self, batch, condition):
        # whichever way _selection goes — kernel or fallback — the batch
        # it returns is the interpreter's
        expected = outcome(_interpret_selection, batch, condition)
        got = outcome(_AUExec(None)._selection, batch, condition)
        assert got[0] == expected[0]
        if got[0] == "raised":
            assert got == expected
            return
        result, (keep, lb, sg, ub) = got[1], expected[1]
        assert result.schema == batch.schema
        assert same_cells(
            result.columns, [[col[i] for i in keep] for col in batch.columns]
        )
        assert (list(result.ann_lb), list(result.ann_sg), list(result.ann_ub)) == (
            lb, sg, ub,
        )
        assert all(type(k) is int for k in lb + sg + ub)

    @PROPERTY
    @given(
        batches(("a", "b")),
        batches(("b", "c")),
        conditions(),
        st.data(),
    )
    def test_pair_kernels(self, left, right, condition, data):
        # "b" is on both sides: the right side's must win
        pairs = [(i, j) for i in range(len(left)) for j in range(len(right))]
        chosen = data.draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else []
        li, ri = [i for i, _ in chosen], [j for _, j in chosen]
        expected = outcome(_interpret_pairs, left, right, li, ri, condition)
        try:
            kernel = compile_range_pair_filter(condition, left.schema, right.schema)
        except CompileError:
            kernel = None
        if kernel is not None:
            got = outcome(
                kernel, left.columns, right.columns, li, ri, *ann(left), *ann(right)
            )
            assert got == expected
        joined = outcome(_AUExec(None)._emit_pairs, left, right, li, ri, condition)
        assert joined[0] == expected[0]
        if joined[0] == "raised":
            assert joined == expected
            return
        keep_l, keep_r, lb, sg, ub = expected[1]
        result = joined[1]
        assert same_cells(
            result.columns,
            [[col[i] for i in keep_l] for col in left.columns]
            + [[col[j] for j in keep_r] for col in right.columns],
        )
        assert (result.ann_lb, result.ann_sg, result.ann_ub) == (lb, sg, ub)

    @settings(max_examples=60, deadline=None)
    @given(batches(max_rows=9), conditions(), st.integers(1, 4))
    def test_chunk_fed_scan(self, batch, condition, chunk_size):
        # end to end through the chunk store: the kernel reads the
        # stored cells, chunk by chunk
        rel = AURelation(SCHEMA)
        for row, k in zip(zip(*batch.columns), zip(*ann(batch))):
            rel.add(row, k)
        plan = phys.FusedSelectProject(
            phys.Scan("t", chunk_size), condition, None
        )
        got = outcome(execute_audb, plan, AUDatabase({"t": rel}))
        expected = outcome(ops.selection, rel, condition)
        assert got[0] == expected[0]
        if got[0] == "raised":
            assert got == expected
        else:
            assert dict(got[1].tuples()) == dict(expected[1].tuples())


class TestKernelsAreUsed:
    """The properties above would pass vacuously if nothing compiled."""

    CONDITIONS = [
        Eq(Var("a"), Const(1)),
        And(Geq(Var("a"), Const(0)), Lt(Var("b"), Var("c"))),
        Or(Not(Leq(Var("a"), Const(2.5))), IsNull(Var("c"))),
        Gt(Mul(Add(Var("a"), Var("b")), Const(2)), Neg(Div(Var("c"), Const(4)))),
        Neq(Sub(Var("a"), Const(certain(1))), Const(RangeValue(0, 1, 2))),
        Eq(Leq(Var("a"), Var("b")), Const(True)),
        Var("a"),
    ]

    @pytest.mark.parametrize("condition", CONDITIONS, ids=repr)
    def test_supported_shapes_compile(self, condition):
        compile_range_filter(condition, SCHEMA)
        compile_range_pair_filter(condition, ("a",), ("b", "c"))

    @pytest.mark.parametrize(
        "condition, reason",
        [
            (Eq(Var("ghost"), Const(1)), "unbound variable 'ghost'"),
            (And(Var("a"), Eq(Var("b"), Const(1))), "And over non-boolean Var"),
            (Not(Const(True)), "Not over non-boolean Const"),
            (Eq(Var("a"), Const(math.nan)), "constant nan is not a valid range"),
            (
                Eq(If(IsNull(Var("a")), Var("b"), Var("c")), Const(1)),
                "cannot compile If under range semantics",
            ),
        ],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_rejections_name_their_reason(self, condition, reason):
        with pytest.raises(CompileError, match=reason):
            compile_range_filter(condition, SCHEMA)

    def test_all_three_truth_bounds_and_the_zero_annotation_rule(self):
        batch = AUColumnBatch(
            ("a",),
            [[certain(1), RangeValue(0, 2, 3), RangeValue(0, 1, 5), certain(7),
              certain(1)]],
            [2, 1, 1, 1, 0],
            [2, 2, 1, 1, 0],
            [3, 2, 2, 1, 0],
        )
        kernel = compile_range_filter(Eq(Var("a"), Const(1)), ("a",))
        # certainly 1 | possibly (SG 2) | possibly (SG 1) | never | ub 0
        assert kernel(batch.columns, *ann(batch), 5) == (
            [0, 1, 2], [2, 0, 0], [2, 0, 1], [3, 2, 2],
        )


# ----------------------------------------------------------------------
# the point lane
# ----------------------------------------------------------------------
def forged_point(value):
    """A point cell ``RangeValue`` refuses to hold (``nan <= nan`` is
    false), forged: the one input where the two sources of ``=`` on the
    lane differ."""
    cell = object.__new__(RangeValue)
    for bound in ("lb", "sg", "ub"):
        object.__setattr__(cell, bound, value)
    return cell


#: two distinct NaN points: one compared with itself, and with the other
NAN_POINTS = [forged_point(math.nan), forged_point(float("nan"))]


def without_lane():
    """The same commit with no point lane: every row runs the triple."""
    return mock.patch.object(exec_compile, "_point_form", lambda e, emitter: None)


@st.composite
def nan_batches(draw):
    """Batches over SCHEMA whose cells may be NaN points."""
    batch = draw(batches())
    columns = [
        [draw(st.one_of(st.just(cell), st.sampled_from(NAN_POINTS))) for cell in col]
        for col in batch.columns
    ]
    return AUColumnBatch(SCHEMA, columns, *ann(batch))


class TestPointLane:
    @pytest.mark.parametrize(
        "batch, condition, point_rows",
        [
            (NUMERIC_POINTS, And(Eq(a, b), Leq(c, Const(1.0))), 3),
            (NONE_AND_STR_POINTS, Or(Lt(a, b), Eq(c, Const(""))), 3),
            (NUMERIC_POINTS, Eq(a, Const(RangeValue(0, 1, 2))), 0),
            (NUMERIC_POINTS, Lt(a, Const(certain(2))), 3),
            (NONE_AND_STR_POINTS, Or(IsNull(a), Eq(b, c)), 0),
            (MIXED, Gt(Add(a, Const(1)), c), 0),
            (MIXED, And(Geq(a, Const(0)), Neq(b, c)), 2),
            (MIXED, Lt(b, c), 3),
        ],
        ids=lambda v: repr(v) if isinstance(v, Expression) else "",
    )
    def test_which_rows_take_the_lane(self, batch, condition, point_rows):
        # a row takes it when every cell it reads is a point and every
        # constant is; IS NULL and arithmetic have no lane
        kernel = compile_range_filter(condition, SCHEMA)
        got = kernel(batch.columns, *ann(batch), len(batch))
        assert got == _interpret_selection(batch, condition)
        assert (kernel.point_rows, kernel.rows) == (point_rows, len(batch))
        kernel(batch.columns, *ann(batch), len(batch))  # counts add up
        assert (kernel.point_rows, kernel.rows) == (2 * point_rows, 2 * len(batch))

    @PROPERTY
    @given(nan_batches(), conditions())
    @example(
        batch=AUColumnBatch(SCHEMA, [NAN_POINTS[:1]] * 3, [1], [1], [1]),
        condition=Eq(a, a),
    )
    @example(
        batch=AUColumnBatch(SCHEMA, [NAN_POINTS[:1]] * 3, [1], [1], [1]),
        condition=Neq(a, a),
    )
    @example(
        batch=AUColumnBatch(SCHEMA, [NAN_POINTS[:1]] * 3, [1], [1], [1]),
        condition=Or(Eq(a, b), Lt(c, Const(1))),
    )
    def test_lane_is_the_triple_to_the_bit(self, batch, condition):
        # NaN compared with itself is the one case where the SG key
        # equality (lower and SG truth of a = a) and the two-sided _le
        # (its upper truth) differ: eval_range then builds the invalid
        # truth triple [True/True/False] and raises, while the triple
        # kernel drops the row on its upper truth.  No RangeValue holds
        # a NaN point, so that is moot for real cells; what the lane
        # owes is the triple's answer, and it gives it on every row
        try:
            kernel = compile_range_filter(condition, SCHEMA)
        except CompileError:
            return
        lane = outcome(kernel, batch.columns, *ann(batch), len(batch))
        with without_lane():
            triple = compile_range_filter(condition, SCHEMA)
        assert outcome(triple, batch.columns, *ann(batch), len(batch)) == lane
        if lane[0] == "ok" and len(batch):
            assert triple.point_rows == 0

    def test_a_less_than_costs_one_le_call(self, monkeypatch):
        monkeypatch.setattr(exec_compile, "_KERNELS", {})
        for condition in (Lt(a, Const(1)), Lt(a, b), Eq(a, Const(1))):
            compile_range_filter(condition, SCHEMA)
        lanes = [_lane(source) for source in exec_compile._KERNELS]
        # one _le decides all three truths of a < b; a = b needs the
        # two-sided _le (upper) and, on kept rows, the key equality
        assert [(lane.count("_le("), lane.count("_dk(")) for lane in lanes] == [
            (1, 0), (1, 0), (2, 2),
        ]
        assert [lane.count(".lb") for lane in lanes] == [1, 2, 1]  # the guard

    def test_pair_feed(self):
        left = example_batch(
            (certain(1), certain(2)),
            (RangeValue(0, 1, 2), certain(2)),
            (certain(2), certain(True)),
            schema=("a", "b"),
        )
        right = example_batch(
            (certain(1.0), certain(1)),
            (certain(2), RangeValue(1, 2, 3)),
            schema=("b", "c"),
        )
        li, ri = [0, 0, 1, 1, 2, 2], [0, 1, 0, 1, 0, 1]
        for condition in (And(Eq(a, c), Lt(b, Const(2))), Or(Neq(a, b), Geq(c, a))):
            kernel = compile_range_pair_filter(condition, left.schema, right.schema)
            got = kernel(left.columns, right.columns, li, ri, *ann(left), *ann(right))
            assert got == _interpret_pairs(left, right, li, ri, condition)
            # pairs whose row cells are all points: (0, 0) and (2, 0)
            assert (kernel.point_rows, kernel.rows) == (2, 6)


def _lane(source):
    """The point-lane block of a range kernel's source."""
    lines = source.splitlines()
    start = next(k for k, line in enumerate(lines) if "if _points" in line)
    indent = len(lines[start]) - len(lines[start].lstrip())
    block = [lines[start]]
    for line in lines[start + 1 :]:
        if len(line) - len(line.lstrip()) <= indent:
            break
        block.append(line)
    return "\n".join(block)


# ----------------------------------------------------------------------
# every Expression subclass compiles or refuses
# ----------------------------------------------------------------------
def _concrete(base):
    out = []
    for cls in base.__subclasses__():
        out.extend(_concrete(cls) or [cls])
    return out


def _samples(cls):
    """Instances of ``cls`` over value operands and over truth-triple
    operands (the connectives only compile over the latter)."""
    for operand in (Var, lambda name: Leq(Var(name), Const(1))):
        if not dataclasses.is_dataclass(cls):  # the binary operators
            yield cls(operand("a"), operand("b"))
            continue
        args = []
        for f, name in zip(dataclasses.fields(cls), SCHEMA):
            if f.type == "Expression":
                args.append(operand(name))
            elif f.type == "str":
                args.append(name)
            elif f.type == "Any":
                args.append(1)
            else:
                pytest.fail(f"{cls.__name__}.{f.name}: {f.type} — extend _samples")
        yield cls(*args)


COMPILED = {
    Var, Const, And, Or, Not, Eq, Neq, Leq, Lt, Geq, Gt,
    Add, Sub, Mul, Div, Neg, IsNull,
}  # fmt: skip

META_BATCH = AUColumnBatch(
    SCHEMA,
    [
        [certain(1), RangeValue(0, 1, 2), certain(None), certain(2.5)],
        [certain(2), RangeValue(-1, 0, 4), certain(1), RangeValue(NEG_INF, 0, POS_INF)],
        [certain(0.5), certain(3), RangeValue(1, 1, 2), certain(True)],
    ],
    [1, 0, 1, 2],
    [1, 1, 1, 2],
    [1, 2, 1, 3],
)


@pytest.mark.parametrize("cls", _concrete(Expression), ids=lambda c: c.__name__)
def test_every_expression_class_compiles_or_refuses(cls):
    compiled = False
    for condition in _samples(cls):
        expected = outcome(_interpret_selection, META_BATCH, condition)
        try:
            kernel = compile_range_filter(condition, SCHEMA)
        except CompileError:
            kernel = None
        if kernel is not None:
            compiled = True
            got = outcome(kernel, META_BATCH.columns, *ann(META_BATCH), len(META_BATCH))
            assert got == expected, condition
        # either way the operator answers like the interpreter
        got = outcome(_AUExec(None)._selection, META_BATCH, condition)
        if expected[0] == "ok":
            result = got[1]
            assert (
                list(result.ann_lb), list(result.ann_sg), list(result.ann_ub)
            ) == expected[1][1:], condition
        else:
            assert got == expected, condition
    # a class added later must be put on one side of this line
    assert compiled == (cls in COMPILED), (
        f"{cls.__name__}: teach repro.exec.compile._RangeEmitter its range "
        "semantics (and add it to COMPILED) or leave it interpreted"
    )


def test_subclass_semantics_are_never_compiled_as_the_base_class():
    class Fuzzy(Leq):
        def eval_range(self, valuation):
            return RangeValue(False, True, True)

    condition = Fuzzy(Var("a"), Const(0))
    with pytest.raises(CompileError, match="cannot compile Fuzzy"):
        compile_range_filter(condition, SCHEMA)
    keep, lb, sg, ub = _interpret_selection(META_BATCH, condition)
    result = _AUExec(None)._selection(META_BATCH, condition)
    assert (list(result.ann_lb), list(result.ann_sg), list(result.ann_ub)) == (
        lb, sg, ub,
    )
    assert lb == [0, 0, 0, 0] and sg == [1, 1, 1, 2]


# ----------------------------------------------------------------------
# the structural kernel cache
# ----------------------------------------------------------------------
def _kernel_counters(engine):
    registry = telemetry.get_registry()
    return tuple(
        registry.counter(name, engine=engine).value
        for name in (
            "repro_exec_kernel_compiles_total",
            "repro_exec_kernel_cache_hits_total",
        )
    )


def _au_table(rows=300):
    rel = AURelation(["k", "g", "v"])
    for i in range(rows):
        value = RangeValue(i - 1, i, i + 2) if i % 7 == 0 else i
        rel.add([i, i % 5, value], (1, 1, 1) if i % 3 else (0, 1, 2))
    return rel


@pytest.mark.parametrize("engine", ["au", "det"])
def test_one_prepared_statement_compiles_one_kernel(engine, monkeypatch):
    monkeypatch.setattr(exec_compile, "_KERNELS", {})
    rel = _au_table()
    db = AUDatabase({"t": rel})
    if engine == "det":
        world = [tuple(v.sg for v in t) for t, _ in rel.tuples()]
        db = DetDatabase({"t": DetRelation(rel.schema, world)})
    conn = Connection(db, engine=engine, config=EvalConfig(backend="vectorized"))
    prepared = conn.prepare("SELECT k, v FROM t WHERE v >= ? AND g = ?")
    compiles, hits = _kernel_counters(engine)
    results = [prepared.execute([key, key % 5]) for key in range(50)]
    assert len({len(r) for r in results}) > 1  # the bindings differ
    after_compiles, after_hits = _kernel_counters(engine)
    assert after_compiles - compiles == 1
    assert after_hits - hits == 49
    assert len(exec_compile._KERNELS) == 1
    conn.close()


# ----------------------------------------------------------------------
# parallel regions and telemetry
# ----------------------------------------------------------------------
def _fingerprint(rel):
    return sorted((repr(t), k) for t, k in rel.tuples())


def test_filtered_parallel_scan_matches_serial():
    rel = AURelation(["g", "v"])
    for i in range(9000):
        value = RangeValue(i % 97 - 1.0, float(i % 97), i % 97 + 3.0) if i % 11 == 0 else float(i % 97)
        rel.add([i % 5, value], (1, 1, 1) if i % 4 else (0, 1, 1))
    db = AUDatabase({"t": rel})
    plan = Aggregate(
        Selection(TableRef("t"), And(Geq(Var("v"), Const(40.0)), Neq(Var("g"), Const(3)))),
        ["g"],
        [agg_sum("v", "s"), agg_count("n")],
    )
    stats = Connection(db, engine="au").statistics()
    config = phys.PhysicalConfig(engine="au", backend="vectorized", parallelism=4)
    text = phys.explain_physical(
        phys.lower(optimize(plan, stats, semantics="au"), stats, config)
    )
    assert "ParallelScan" in text and "FusedSelectProject σ" in text
    serial = evaluate_audb(plan, db, EvalConfig(backend="vectorized"))
    parallel = evaluate_audb(plan, db, EvalConfig(backend="vectorized", parallelism=4))
    oracle = evaluate_audb(plan, db, EvalConfig(backend="tuple"))
    assert _fingerprint(parallel) == _fingerprint(serial) == _fingerprint(oracle)


def test_span_and_explain_analyze_report_the_kernel():
    db = AUDatabase({"t": _au_table(40)})
    conn = Connection(
        db, engine="au", config=EvalConfig(backend="vectorized"), trace=True
    )
    conn.execute("SELECT k FROM t WHERE v >= 10")
    attrs = [s.attrs for s in conn.last_trace.spans() if "kernel" in s.attrs]
    assert attrs and attrs[0]["kernel"] == "compiled"
    # the 6 rows whose v is a range (k % 7 == 0) ran the full triple
    assert attrs[0]["point_rows"] == "34/40"
    text = conn.explain_analyze("SELECT k FROM t WHERE v >= 10")
    assert "kernel=compiled, point_rows=34/40" in text
    # a join residual counts row pairs: 40 × 5, those with a range v not
    db["u"] = AURelation(["w"])
    for w in range(5):
        db["u"].add([w], (1, 1, 1))
    text = conn.explain_analyze("SELECT k FROM t, u WHERE v < w")
    assert "point_rows=170/200" in text, text

    lazy = Selection(
        TableRef("t"), Geq(If(IsNull(Var("g")), Var("k"), Var("v")), Const(10))
    )
    text = conn.explain_analyze(lazy)
    assert (
        "kernel=interpreted (cannot compile If under range semantics)" in text
    )
    conn.close()

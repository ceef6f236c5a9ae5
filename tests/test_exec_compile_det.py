"""Compiled deterministic kernels ≡ the interpreted ``eval`` loop.

:mod:`repro.exec.compile` turns a det filter / projector into one fused
loop; a comparison whose operands are typed-array columns of the batch
at hand or ``int``/``float``/``bool`` constants is emitted as the native
``<=``/``==``/``!=`` instead of ``domain_le``/``domain_key`` (the kernel
variant is picked per call from the columns' representation).  The
properties here hold every variant to ``bool(condition.eval(row))`` /
``expr.eval(row)``:

* all six comparisons in both orientations, nested under ``And`` /
  ``Or`` / ``Not``, over the same values packed as typed arrays and
  kept as plain lists, against constants and list cells ``NaN``,
  ``±inf``, ``-0.0``, ``0``, ``True``, ``False``, ``None``, ``'a'``,
  ``2**63-1`` and ``2**53+1`` next to its (rounded) float;
* ``x < NaN`` and ``x > NaN`` are ``True`` on a typed column, as under
  ``domain_le`` — a native ``x < NaN`` would say ``False``;
* a list column keeps the domain-order calls, and one kernel picks a
  different variant per batch representation;
* ``And`` / ``Or`` / ``Not`` / ``If`` over operands that are no
  ``bool`` (strings, ``0``, ``None``, NaN cells) return what the
  interpreter returns, type included — through the kernels and through
  the vectorized executor against the legacy interpreter (rows, row
  order, cell ``repr``);
* a kernel that reads no column still yields one result per row.
"""

import math
from array import array

from hypothesis import given, settings, strategies as st

from repro.algebra.ast import Projection, Selection, TableRef
from repro.core.expressions import (
    Add,
    And,
    Const,
    Eq,
    Geq,
    Gt,
    If,
    IsNull,
    Leq,
    Lt,
    Neq,
    Not,
    Or,
    Var,
)
from repro.db.engine import evaluate_det
from repro.db.storage import DetDatabase, DetRelation
from repro.exec.compile import compile_filter, compile_projector

SCHEMA = ("i", "f", "m")

BIG = 2**53 + 1
#: what a typed int column (array('q')) may hold
INTS = [0, 1, -2, 2**63 - 1, -(2**63), BIG]
#: what a typed float column (array('d')) may hold: no NaN
FLOATS = [-0.0, 0.0, 2.5, math.inf, -math.inf, float(BIG), 1.0]
#: constants and mixed-column cells
VALUES = [
    math.nan,
    math.inf,
    -math.inf,
    -0.0,
    0,
    True,
    False,
    None,
    "a",
    2**63 - 1,
    BIG,
    float(BIG),
    1,
    2.5,
]
COMPARISONS = [Eq, Neq, Leq, Lt, Geq, Gt]


@st.composite
def tables(draw, max_rows=6):
    n = draw(st.integers(0, max_rows))
    ints = [draw(st.sampled_from(INTS)) for _ in range(n)]
    floats = [draw(st.sampled_from(FLOATS)) for _ in range(n)]
    mixed = [draw(st.sampled_from(VALUES)) for _ in range(n)]
    return ints, floats, mixed


def conditions():
    operands = st.one_of(
        st.sampled_from([Var(name) for name in SCHEMA]),
        st.sampled_from(VALUES).map(Const),
    )
    atoms = st.builds(
        lambda kind, a, b: kind(a, b), st.sampled_from(COMPARISONS), operands, operands
    )

    def nodes(kids):
        return st.one_of(
            st.builds(And, kids, kids),
            st.builds(Or, kids, kids),
            st.builds(Not, kids),
        )

    return st.recursive(atoms, nodes, max_leaves=4)


def layouts(ints, floats, mixed):
    """The same rows with the numeric columns packed and unpacked."""
    return {
        "typed": [array("q", ints), array("d", floats), list(mixed)],
        "lists": [list(ints), list(floats), list(mixed)],
    }


def rows(ints, floats, mixed):
    return [dict(zip(SCHEMA, row)) for row in zip(ints, floats, mixed)]


PROPERTY = settings(max_examples=200, deadline=None)


class TestCompiledEqualsInterpreted:
    @PROPERTY
    @given(tables(), conditions())
    def test_filter(self, table, condition):
        expected = [i for i, row in enumerate(rows(*table)) if bool(condition.eval(row))]
        kernel = compile_filter(condition, SCHEMA)
        for name, columns in layouts(*table).items():
            assert kernel(columns, len(table[0])) == expected, name

    @PROPERTY
    @given(tables(), conditions())
    def test_projector(self, table, expr):
        expected = [(type(v), v) for v in map(expr.eval, rows(*table))]
        kernel = compile_projector(expr, SCHEMA)
        for name, columns in layouts(*table).items():
            got = kernel(columns, len(table[0]))
            assert [(type(v), v) for v in got] == expected, name


# ----------------------------------------------------------------------
# pinned edge cases
# ----------------------------------------------------------------------
TYPED = [array("q", [1, BIG]), array("d", [-0.0, math.inf]), [None, "a"]]


def test_nan_orientation_is_the_interpreters():
    nan = Const(math.nan)
    for column in ("i", "f"):
        x = Var(column)
        for condition, survivors in (
            (Lt(x, nan), [0, 1]),  # not (NaN <= x)
            (Gt(x, nan), [0, 1]),  # not (x <= NaN)
            (Lt(nan, x), [0, 1]),
            (Gt(nan, x), [0, 1]),
            (Leq(x, nan), []),
            (Geq(x, nan), []),
            (Eq(x, nan), []),
            (Neq(x, nan), [0, 1]),
        ):
            kernel = compile_filter(condition, SCHEMA)
            assert kernel(TYPED, 2) == survivors, condition
            assert kernel.native_compares == 1, condition


def test_int_against_its_rounded_float_is_exact():
    # 2**53 + 1 is no float: the packed int must not round on compare
    kernel = compile_filter(Eq(Var("i"), Const(float(BIG))), SCHEMA)
    assert kernel(TYPED, 2) == []
    assert kernel.native_compares == 1
    kernel = compile_filter(Gt(Var("i"), Const(float(BIG))), SCHEMA)
    assert kernel(TYPED, 2) == [1]


def test_bools_rank_with_the_numbers():
    kernel = compile_filter(Eq(Var("i"), Const(True)), SCHEMA)
    assert kernel(TYPED, 2) == [0]
    assert kernel.native_compares == 1
    kernel = compile_filter(Leq(Var("f"), Const(False)), SCHEMA)
    assert kernel(TYPED, 2) == [0]  # -0.0 <= 0


def test_variant_follows_the_batch_representation():
    condition = And(Geq(Var("i"), Const(1)), Neq(Var("m"), Const("a")))
    kernel = compile_filter(condition, SCHEMA)
    # the list column keeps _dk; the typed one compares natively
    assert kernel(TYPED, 2) == [0]
    assert kernel.native_compares == 1
    # the same rows with every column a list: no native comparison
    assert kernel([list(c) for c in TYPED], 2) == [0]
    assert kernel.native_compares == 0


def test_constant_against_constant_stays_in_the_domain_order():
    # two references to one NaN object are equal under domain_key
    nan = Const(math.nan)
    kernel = compile_filter(Eq(nan, nan), SCHEMA)
    assert kernel(TYPED, 2) == [0, 1] == [
        i for i in range(2) if Eq(nan, nan).eval({})
    ]
    assert kernel.native_compares == 0


# ----------------------------------------------------------------------
# connectives and conditionals over non-bool operands
# ----------------------------------------------------------------------
#: cells whose truth value is not their own: strings, 0, None, NaN
TRUTHY = ["a", "", 0, 2, None, math.nan, 0.0, True, False]


def truth_expressions():
    """``And``/``Or``/``Not``/``If`` over bare attributes, constants,
    comparisons and ``IsNull`` — an operand that is no ``bool`` must be
    made one, a comparison needs no wrapping."""
    leaves = st.one_of(
        st.sampled_from([Var(name) for name in SCHEMA]),
        st.sampled_from(TRUTHY).map(Const),
        st.builds(
            Eq,
            st.sampled_from([Var("m"), Var("i")]),
            st.sampled_from(TRUTHY).map(Const),
        ),
        st.builds(IsNull, st.sampled_from([Var("m"), Const(None), Const(0)])),
    )

    def nodes(kids):
        return st.one_of(
            st.builds(And, kids, kids),
            st.builds(Or, kids, kids),
            st.builds(Not, kids),
            st.builds(If, kids, kids, kids),
        )

    return st.recursive(leaves, nodes, max_leaves=5)


@st.composite
def truthy_tables(draw, max_rows=6):
    ints, floats, _mixed = draw(tables(max_rows))
    mixed = [draw(st.sampled_from(TRUTHY)) for _ in ints]
    return ints, floats, mixed


def _cells(values):
    """Values by type and ``repr``: ``True`` vs ``1``, ``0`` vs ``0.0``."""
    return [(type(v), repr(v)) for v in values]


class TestNonBoolOperands:
    @PROPERTY
    @given(truthy_tables(), truth_expressions())
    def test_filter(self, table, condition):
        expected = [i for i, row in enumerate(rows(*table)) if bool(condition.eval(row))]
        kernel = compile_filter(condition, SCHEMA)
        for name, columns in layouts(*table).items():
            assert kernel(columns, len(table[0])) == expected, name

    @PROPERTY
    @given(truthy_tables(), truth_expressions())
    def test_projector(self, table, expr):
        expected = _cells(map(expr.eval, rows(*table)))
        kernel = compile_projector(expr, SCHEMA)
        for name, columns in layouts(*table).items():
            assert _cells(kernel(columns, len(table[0]))) == expected, name

    @settings(max_examples=100, deadline=None)
    @given(truthy_tables(), truth_expressions(), truth_expressions())
    def test_engine_equals_the_legacy_interpreter(self, table, condition, expr):
        # the vectorized executor over the same plan: rows, row order
        # and every cell's repr, or the same exception type
        rel = DetRelation(SCHEMA)
        for k, row in enumerate(zip(*table)):
            rel.add(row, 1 + k % 2)
        db = DetDatabase({"t": rel})
        plan = Projection(
            Selection(TableRef("t"), condition),
            [(expr, "e"), (Var("m"), "m"), (Var("i"), "i")],
        )
        assert _outcome(lambda: evaluate_det(plan, db)) == _outcome(
            lambda: evaluate_det(plan, db, physical=False)
        )


def _outcome(run):
    try:
        rel = run()
    except Exception as exc:  # noqa: BLE001 - parity of any failure
        return "raised", type(exc)
    return rel.schema, [(repr(t), m) for t, m in rel.tuples()]


# ----------------------------------------------------------------------
# kernels that read no column
# ----------------------------------------------------------------------
def test_zero_column_kernels_iterate_the_rows():
    # a zip(range(n)) feed would yield 1-tuples: every row truthy
    nan = Const(math.nan)
    for condition, survivors in (
        (Eq(nan, nan), [0, 1]),
        (Neq(nan, nan), []),
        (Const(0), []),
        (Const("a"), [0, 1]),
        (And(Const(1), IsNull(Const(None))), [0, 1]),
        (Or(Const(None), Const(0.0)), []),
    ):
        kernel = compile_filter(condition, SCHEMA)
        assert kernel(TYPED, 2) == survivors, condition
        assert kernel([], 2) == survivors, condition
    projector = compile_projector(Or(Const(0), Const("a")), SCHEMA)
    assert projector([], 3) == [True, True, True]
    assert compile_projector(Const(2.5), SCHEMA)([], 2) == [2.5, 2.5]


def test_projectors_over_typed_and_list_columns():
    expr = If(Gt(Var("i"), Var("f")), Var("i"), Var("f"))
    kernel = compile_projector(expr, SCHEMA)
    assert _cells(kernel(TYPED, 2)) == _cells([1, math.inf])
    assert _cells(kernel([list(c) for c in TYPED], 2)) == _cells([1, math.inf])
    single = compile_projector(Add(Var("i"), Const(1)), SCHEMA)
    assert list(single(TYPED, 2)) == [2, BIG + 1]
    assert compile_projector(And(Var("m"), Var("m")), SCHEMA)(TYPED, 2) == [False, True]

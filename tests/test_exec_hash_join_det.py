"""The vectorized det ``HashJoin`` ≡ the legacy interpreter's join.

:func:`repro.exec.vectorized.build_join_table` buckets the build side's
raw keys under Python's identity-or-equality dict lookup; when no two
build rows share a key the table maps each key to its one row and
:func:`~repro.exec.vectorized.probe_join_table` probes it with one
``map(dict.get)``.  If every probe row then hits, the probe side passes
through ungathered, each build column is gathered by one
``itemgetter`` and the multiplicities are one ``map(mul)``; otherwise
the pairs are collected row by row.  Every shape must agree with the
legacy logical interpreter (``physical=False``) in **rows, row order
and the ``repr`` of every cell**.

The generators cover unique and duplicate build keys, probe misses, one
NaN key object on both sides (equal by identity; a second NaN object
is another key), the keys ``1`` / ``1.0`` / ``True`` (one key under
dict equality), multiplicities > 1 on both sides, two-column keys, a
residual conjunct, and the same join inside a parallel region at
parallelism 2 whose build table is prebuilt once for both morsels.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.algebra.ast import Join, TableRef
from repro.core.expressions import And, Eq, Gt, Var
from repro.db.engine import evaluate_det
from repro.db.storage import DetDatabase, DetRelation
from repro.exec import parallel as exec_parallel
from repro.exec import physical as phys
from repro.exec import vectorized
from repro.exec.batch import ColumnBatch
from repro.exec.vectorized import (
    build_join_table,
    execute_det,
    probe_join_table,
)
from repro.session import Connection

#: the one NaN key object both sides may hold, and a second one
_NAN, _OTHER_NAN = float("nan"), float("nan")
#: build keys no two of which are equal or identical
DISTINCT_KEYS = [0, 1, 2, 3, None, "s", _NAN]
#: probe keys: the build keys, ``1.0``/``True`` (equal to ``1``), a
#: second NaN object and misses
PROBE_KEYS = DISTINCT_KEYS + [1.0, True, _OTHER_NAN, 7, "t"]
PAYLOAD = st.sampled_from([0, -1, 2.5, -0.0, "p", None, True])


@st.composite
def probe_side(draw, max_rows=10):
    rel = DetRelation(["a", "b", "x"])
    keys = st.sampled_from(PROBE_KEYS)
    for _ in range(draw(st.integers(0, max_rows))):
        rel.add(
            (draw(keys), draw(st.sampled_from([0, 1])), draw(PAYLOAD)),
            draw(st.integers(1, 3)),
        )
    return rel


@st.composite
def build_side(draw):
    """Unique keys (a subset of :data:`DISTINCT_KEYS`) or any keys, so
    ``1``/``1.0``/``True`` and repeated keys share a bucket."""
    rel = DetRelation(["k", "l", "z"])
    if draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(DISTINCT_KEYS), unique_by=id))
    else:
        keys = draw(st.lists(st.sampled_from(PROBE_KEYS), max_size=8))
    for z, key in enumerate(keys):
        rel.add((key, draw(st.sampled_from([0, 1])), z), draw(st.integers(1, 3)))
    return rel


#: (logical condition, equi pairs, pure equi)
CONDITIONS = [
    (Eq(Var("a"), Var("k")), (("a", "k"),), True),
    (And(Eq(Var("a"), Var("k")), Eq(Var("b"), Var("l"))),
     (("a", "k"), ("b", "l")), True),
    (And(Eq(Var("a"), Var("k")), Gt(Var("z"), Var("b"))), (("a", "k"),), False),
]


def image(rel):
    """Schema, rows in ``tuples()`` order with multiplicities, every cell
    by ``repr``."""
    return rel.schema, [(repr(t), m) for t, m in rel.tuples()]


def legacy(db, condition):
    plan = Join(TableRef("t"), TableRef("u"), condition)
    return evaluate_det(plan, db, optimize=False, physical=False)


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


class TestEqualsLegacy:
    @PROPERTY
    @given(probe_side(), build_side(), st.sampled_from(CONDITIONS))
    def test_serial(self, left, right, shape):
        condition, pairs, pure = shape
        db = DetDatabase({"t": left, "u": right})
        pplan = phys.HashJoin(phys.Scan("t"), phys.Scan("u"), condition, pairs, pure)
        assert image(execute_det(pplan, db)) == image(legacy(db, condition))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(probe_side(max_rows=12), build_side(), st.sampled_from(CONDITIONS))
    def test_prebuilt_at_parallelism_2(self, left, right, shape):
        condition, pairs, pure = shape
        db = DetDatabase({"t": left, "u": right})
        join = phys.HashJoin(
            phys.ParallelScan("t", 2, chunk_size=2), phys.Scan("u"), condition,
            pairs, pure,
        )
        pplan = phys.Exchange(join, "concat", 2)
        builds = mock.patch.object(
            vectorized, "build_join_table", wraps=vectorized.build_join_table
        )
        old = exec_parallel.PARALLEL_MIN_ROWS
        exec_parallel.PARALLEL_MIN_ROWS = 0
        try:
            with builds as spy:
                got = execute_det(pplan, db)
        finally:
            exec_parallel.PARALLEL_MIN_ROWS = old
        assert image(got) == image(legacy(db, condition))
        # one table for every morsel, probed by the serial rule
        assert spy.call_count == 1


# ----------------------------------------------------------------------
# pinned cases
# ----------------------------------------------------------------------
def _batch(schema, *columns):
    return ColumnBatch(schema, [list(c) for c in columns], [1] * len(columns[0]))


def test_unique_keys_probe_by_map_and_pass_the_probe_side_through():
    table = build_join_table(_batch(["k"], [3, _NAN, "s"]), ["k"])
    assert table.unique
    li, ri, probe = probe_join_table(table, ["s", 3, _NAN, 3])
    assert (li, ri, probe) == (None, [2, 0, 1, 0], "map")


def test_a_miss_gathers_the_hits_only():
    table = build_join_table(_batch(["k"], [3, _NAN]), ["k"])
    li, ri, probe = probe_join_table(table, [3, _OTHER_NAN, 4, _NAN])
    assert (li, ri, probe) == ([0, 3], [0, 1], "map")


def test_equal_keys_share_a_bucket():
    # 1, 1.0 and True are one dict key: the table is not unique
    table = build_join_table(_batch(["k"], [1, 1.0, True, 2]), ["k"])
    assert not table.unique
    li, ri, probe = probe_join_table(table, [True, 2, 5])
    assert (li, ri, probe) == ([0, 0, 0, 1], [0, 1, 2, 3], "loop")


def test_two_key_columns():
    table = build_join_table(_batch(["k", "l"], [1, 1, 2], [0, 1, 0]), ["k", "l"])
    assert table.unique
    li, ri, _probe = probe_join_table(table, zip([2, 1.0], [0, 1]))
    assert (li, ri) == (None, [2, 1])


def _join_span(orders, items):
    conn = Connection(DetDatabase({"orders": orders, "items": items}), trace=True)
    sql = "SELECT l_q, o_c FROM items JOIN orders ON l_o = o_id"
    conn.execute(sql)
    (span,) = [
        s for s in conn.last_trace.spans()
        if s.cat == "operator" and s.name == "HashJoin"
    ]
    return span.attrs, conn.explain_analyze(sql)


def _orders():
    return DetRelation(["o_id", "o_c"], {(i, i % 3): 1 for i in range(20)})


def _items():
    return DetRelation(["l_o", "l_q"], {(i % 20, i): 1 + i % 2 for i in range(60)})


def test_span_and_explain_analyze_say_which_probe_ran():
    attrs, text = _join_span(_orders(), _items())
    assert (attrs["probe"], attrs["gathered_left"]) == ("map", 0)
    assert "probe=map, gathered_left=0" in text
    # a probe row without a partner: the hits are gathered
    items = _items()
    items.add((99, 0), 1)
    attrs, text = _join_span(_orders(), items)
    assert (attrs["probe"], attrs["gathered_left"]) == ("map", 60)
    assert "probe=map, gathered_left=60" in text
    # a duplicate build key: the bucket loop, 3 more pairs
    orders = _orders()
    orders.add((0, 7), 1)
    attrs, text = _join_span(orders, _items())
    assert (attrs["probe"], attrs["gathered_left"]) == ("loop", 63)
    assert "probe=loop, gathered_left=63" in text

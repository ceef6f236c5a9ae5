"""The vectorized AU ``HashJoin`` ≡ the legacy interpreter's join.

The AU hash join splits each side by join-key certainty, one
``is_certain`` pass per key column.  The build rows whose key cells are
all certain go into the det join table on their SG key values
(:func:`repro.exec.vectorized.build_join_table`), and the certain probe
rows probe it (:func:`~repro.exec.vectorized.probe_join_table`): one
``map(dict.get)`` when the build keys are unique, the bucket loop
otherwise.  Only rows with an uncertain key cell take the interval
path: an overlap index over the build rows in the tuple engine's
emission order.  One function pairs them all
(:func:`~repro.exec.vectorized.au_join_pairs`).  Per
probe row its certain-key matches come first, then its interval
matches: the probe row with an uncertain key against the certain build
rows, grouped by key, then against the uncertain build rows.  Every
shape must agree with the legacy logical interpreter
(``physical=False``) in **rows, row order, the ``repr`` of every cell
and every annotation**.

The generators cover certain and uncertain keys on both sides, unique
and duplicate build keys, probe misses, the keys ``1`` / ``1.0`` /
``True`` (one key under dict equality) and a certain cell whose bounds
are distinct objects (``[1/True/1.0]``), a range spanning every numeric
key (it lifts the index's running maximum upper bound over the whole
window) and a string range (numbers and strings in one domain order),
two-column keys, a residual
conjunct, the same join inside a parallel region at parallelism 2 whose
build table is prebuilt once for both morsels, and the Section 10.4
``CompressedJoin`` (whose SG part and box join run the same pairing)
at 1, 2 and 64 buckets.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.algebra.ast import Join, TableRef
from repro.algebra.evaluator import EvalConfig, evaluate_audb
from repro.core.expressions import And, Eq, Gt, Var
from repro.core.ranges import RangeValue, between, certain
from repro.core.relation import AUDatabase, AURelation
from repro.exec import parallel as exec_parallel
from repro.exec import physical as phys
from repro.exec import vectorized
from repro.exec.vectorized import execute_audb
from repro.session import Connection

#: certain key cells no two of which are equal or identical
DISTINCT_KEYS = [certain(0), certain(1), certain(2), certain(3), certain("s")]
#: certain probe keys: the build keys, ``1.0`` / ``True`` / a cell whose
#: bounds are distinct objects (all equal to ``1``) and misses
CERTAIN_KEYS = DISTINCT_KEYS + [
    certain(1.0), certain(True), RangeValue(1, True, 1.0), certain(7), certain("t"),
]
#: uncertain key cells overlapping some of the certain keys
UNCERTAIN_KEYS = [
    between(0, 1, 2), between(1, 2, 3), between(2, 3, 3), between(5, 6, 9),
    between(0, 2, 9), between("r", "s", "t"),
]
ANY_KEY = st.sampled_from(CERTAIN_KEYS + UNCERTAIN_KEYS)
PAYLOAD = st.sampled_from([certain(0), certain(-1), certain(2.5), between(0, 1, 4)])
SECOND_KEY = st.sampled_from([certain(0), certain(1), between(0, 0, 1)])


@st.composite
def annotation(draw):
    lb = draw(st.integers(0, 2))
    sg = lb + draw(st.integers(0, 1))
    return lb, sg, max(1, sg + draw(st.integers(0, 1)))


@st.composite
def probe_side(draw, max_rows=8):
    rel = AURelation(["a", "b", "x"])
    for _ in range(draw(st.integers(0, max_rows))):
        rel.add((draw(ANY_KEY), draw(SECOND_KEY), draw(PAYLOAD)), draw(annotation()))
    return rel


@st.composite
def build_side(draw):
    """Unique certain keys (a subset of :data:`DISTINCT_KEYS`, so the
    table is probed by ``map``), or any keys, so ``1``/``1.0``/``True``
    and repeated keys share a bucket and uncertain keys take the
    interval path."""
    rel = AURelation(["k", "l", "z"])
    if draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(DISTINCT_KEYS), unique_by=id))
    else:
        keys = draw(st.lists(ANY_KEY, max_size=7))
    for z, key in enumerate(keys):
        rel.add((key, draw(SECOND_KEY), certain(z)), draw(annotation()))
    return rel


#: (logical condition, equi pairs, pure equi)
CONDITIONS = [
    (Eq(Var("a"), Var("k")), (("a", "k"),), True),
    (And(Eq(Var("a"), Var("k")), Eq(Var("b"), Var("l"))),
     (("a", "k"), ("b", "l")), True),
    (And(Eq(Var("a"), Var("k")), Gt(Var("z"), Var("b"))), (("a", "k"),), False),
]


def image(rel):
    """Schema, rows in ``tuples()`` order with annotations, every cell
    by ``repr``."""
    return rel.schema, [(repr(t), ann) for t, ann in rel.tuples()]


def legacy(db, condition, join_buckets=None):
    plan = Join(TableRef("t"), TableRef("u"), condition)
    config = EvalConfig(optimize=False, physical=False, join_buckets=join_buckets)
    return evaluate_audb(plan, db, config)


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


class TestEqualsLegacy:
    @PROPERTY
    @given(probe_side(), build_side(), st.sampled_from(CONDITIONS))
    def test_serial(self, left, right, shape):
        condition, pairs, pure = shape
        db = AUDatabase({"t": left, "u": right})
        pplan = phys.HashJoin(phys.Scan("t"), phys.Scan("u"), condition, pairs, pure)
        assert image(execute_audb(pplan, db)) == image(legacy(db, condition))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(probe_side(max_rows=10), build_side(), st.sampled_from(CONDITIONS))
    def test_prebuilt_at_parallelism_2(self, left, right, shape):
        condition, pairs, pure = shape
        db = AUDatabase({"t": left, "u": right})
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
                got = execute_audb(pplan, db)
        finally:
            exec_parallel.PARALLEL_MIN_ROWS = old
        assert image(got) == image(legacy(db, condition))
        # one table for every morsel, probed by the serial rule
        assert spy.call_count == 1

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        probe_side(),
        build_side(),
        st.sampled_from(CONDITIONS),
        st.sampled_from([1, 2, 64]),
    )
    def test_compressed_join_sg_part(self, left, right, shape, buckets):
        condition, _pairs, _pure = shape
        db = AUDatabase({"t": left, "u": right})
        plan = Join(TableRef("t"), TableRef("u"), condition)
        config = EvalConfig(backend="vectorized", optimize=False, join_buckets=buckets)
        assert image(evaluate_audb(plan, db, config)) == image(
            legacy(db, condition, buckets)
        )


# ----------------------------------------------------------------------
# pinned cases
# ----------------------------------------------------------------------
def _join_span(orders, items):
    conn = Connection(AUDatabase({"orders": orders, "items": items}), trace=True)
    sql = "SELECT l_q, o_c FROM items JOIN orders ON l_o = o_id"
    conn.execute(sql)
    (span,) = [
        s for s in conn.last_trace.spans()
        if s.cat == "operator" and s.name == "HashJoin"
    ]
    return span.attrs, conn.explain_analyze(sql)


def _orders():
    rel = AURelation(["o_id", "o_c"])
    for i in range(20):
        rel.add((certain(i), certain(i % 3)), (1, 1, 1))
    return rel


def _items():
    rel = AURelation(["l_o", "l_q"])
    for i in range(60):
        rel.add((certain(i % 20), certain(i)), (1, 1 + i % 2, 2))
    return rel


def _counts(attrs):
    return tuple(
        attrs[name] for name in (
            "probe", "gathered_left", "uncertain_build_rows", "uncertain_probe_rows",
        )
    )


def test_span_and_explain_analyze_say_which_probe_ran():
    attrs, text = _join_span(_orders(), _items())
    assert _counts(attrs) == ("map", 0, 0, 0)
    assert "probe=map, gathered_left=0" in text
    # a probe row without a partner: the hits are gathered
    items = _items()
    items.add((certain(99), certain(0)), (1, 1, 1))
    attrs, text = _join_span(_orders(), items)
    assert _counts(attrs) == ("map", 60, 0, 0)
    assert "probe=map, gathered_left=60" in text
    # a duplicate build key: the bucket loop, 3 more pairs
    orders = _orders()
    orders.add((certain(0), certain(7)), (1, 1, 1))
    attrs, text = _join_span(orders, _items())
    assert _counts(attrs) == ("loop", 63, 0, 0)
    assert "probe=loop, gathered_left=63" in text


def test_uncertain_keys_take_the_interval_path():
    # one probe key overlapping orders 0..2, one build key overlapping
    # the probe keys 3 and 4 (6 items)
    items = _items()
    items.add((between(0, 1, 2), certain(-1)), (1, 1, 1))
    orders = _orders()
    orders.add((between(3, 4, 4), certain(9)), (0, 1, 1))
    attrs, text = _join_span(orders, items)
    assert _counts(attrs) == ("map", 60 + 3 + 6, 1, 1)
    assert attrs["build_keys"] == 20
    # the certain probe rows are tested against the uncertain build row
    # only: no certain build row they missed in the table is a candidate
    assert attrs["interval_tested"] == 3 + 6
    assert "uncertain_probe_rows=1, interval_tested=9" in text


def test_uncertain_probe_key_tests_only_its_overlap_candidates():
    # [5/6/7] against 1 000 unique certain build keys: the overlap index
    # hands the interval path the three keys it overlaps, not all 1 000
    probe = AURelation(["a", "b", "x"])
    probe.add((between(5, 6, 7), certain(0), certain(-1)), (0, 1, 1))
    for i in range(40):
        probe.add((certain(i * 25), certain(0), certain(i)), (1, 1, 1))
    build = AURelation(["k", "l", "z"])
    for k in range(1000):
        build.add((certain(k), certain(0), certain(k % 7)), (1, 1, 1))
    db = AUDatabase({"t": probe, "u": build})
    condition = Eq(Var("a"), Var("k"))
    plan = Join(TableRef("t"), TableRef("u"), condition)
    conn = Connection(db, config=EvalConfig(optimize=False), trace=True)
    got = conn.execute(plan)
    assert image(got) == image(legacy(db, condition))
    assert [repr(t[3]) for t, _ann in got.tuples()][:3] == [
        repr(certain(k)) for k in (5, 6, 7)
    ]
    (span,) = [
        s for s in conn.last_trace.spans()
        if s.cat == "operator" and s.name == "HashJoin"
    ]
    assert span.attrs["uncertain_probe_rows"] == 1
    assert span.attrs["interval_tested"] == 3
    assert "uncertain_probe_rows=1, interval_tested=3" in conn.explain_analyze(plan)


def test_uncertain_probe_key_meets_build_keys_grouped_by_key():
    # build keys 1, 2, 1.0: the tuple engine meets the certain build
    # rows bucket by bucket (rows 0 and 2, then row 1), not in build order
    probe = AURelation(["a", "b", "x"])
    probe.add((between(0, 1, 2), certain(0), certain(0)), (1, 1, 1))
    build = AURelation(["k", "l", "z"])
    for z, key in enumerate([certain(1), certain(2), certain(1.0)]):
        build.add((key, certain(0), certain(z)), (1, 1, 1))
    db = AUDatabase({"t": probe, "u": build})
    condition, pairs, pure = CONDITIONS[0]
    pplan = phys.HashJoin(phys.Scan("t"), phys.Scan("u"), condition, pairs, pure)
    got = execute_audb(pplan, db)
    assert image(got) == image(legacy(db, condition))
    assert [t[5].sg for t, _ann in got.tuples()] == [0, 2, 1]

"""Distinct, difference, top-k and limit on column batches.

Every engine lowers ``DISTINCT`` / ``EXCEPT`` / ``ORDER BY … LIMIT`` to
one typed physical node (``HashDistinct`` / ``HashExcept`` / ``TopK``,
det bare ``LIMIT`` to ``Limit``); the vectorized executors run it batch
to batch.  Each must return exactly
``from_relation(reference(to_relation(batch)))`` — rows, order,
annotations and every cell's ``repr`` — for its ``repro.core.operators``
or ``repro.db.engine`` reference.  The det executors share the engine's
bag operators on ``{row: multiplicity}`` dicts; the AU batch operators
of ``repro.exec.au_setops`` are a second implementation.

* pinned cases, each on the vectorized, tuple and legacy paths: the
  places a columnar port most easily diverges (merging identical rows
  before an identity top-k, ``≃`` without ``≡`` in EXCEPT, an unclamped
  range-annotated DISTINCT, det duplicates split across chunks, ``n=0``);
* one derandomized property per AU batch operator against its reference
  on random unmerged batches (value-equal ``1``/``1.0`` cells, zero
  annotations, an exotic NaN lower bound);
* the top-k candidate rule: det ``TopK`` / ``Limit`` against the
  engine's ``take`` over the merged rows and the AU ``topk_batch``
  against ``au_topk`` on inputs where it cuts, ties at the ``n``-th key,
  the NaN order key, and that no det top-k merges more rows than it
  kept;
* no relation is built between scan and result.
"""

from array import array
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.ast import (
    Difference,
    Distinct,
    Limit,
    OrderBy,
    Projection,
    TableRef,
    TopK,
)
from repro.algebra.evaluator import EvalConfig
from repro.core import operators as ops
from repro.core.expressions import Var
from repro.core.ranges import RangeValue, between, certain
from repro.core.relation import AUDatabase, AURelation
from repro.db import engine
from repro.db.storage import DetDatabase, DetRelation
from repro.exec import vectorized
from repro.exec.au_setops import distinct_batch, except_batch, topk_batch
from repro.exec.batch import AUColumnBatch, ColumnBatch, _pack_typed
from repro.session import Connection


def nan_cell(nan, sg, ub):
    """``[nan/sg/ub]``, forged: the constructor refuses NaN in any
    position, but the operators' overlap index and top-k order still
    have to place such a cell consistently if one gets in."""
    cell = object.__new__(RangeValue)
    for bound, value in zip(("lb", "sg", "ub"), (nan, sg, ub)):
        object.__setattr__(cell, bound, value)
    return cell

PATHS = {
    "vectorized": EvalConfig(backend="vectorized", chunk_size=1),
    "tuple": EvalConfig(backend="tuple"),
    "legacy": EvalConfig(physical=False),
}
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


def au_image(rel):
    return (
        rel.schema,
        [([repr(c) for c in t], ann) for t, ann in rel.tuples()],
    )


def det_image(rel):
    return rel.schema, [([repr(v) for v in t], m) for t, m in rel.tuples()]


def on_every_path(db, plan):
    """The plan's image on every path; asserts they agree."""
    image = au_image if isinstance(db, AUDatabase) else det_image
    got = {
        name: image(Connection(db, config=config).execute(plan))
        for name, config in PATHS.items()
    }
    assert got["vectorized"] == got["legacy"] == got["tuple"]
    return got["legacy"]


# ----------------------------------------------------------------------
# pinned cases
# ----------------------------------------------------------------------
def _project(table, *names):
    return Projection(TableRef(table), [(Var(n), n) for n in names])


def test_identity_topk_merges_identical_tuples():
    # π_b leaves two identical AU tuples; the order key is uncertain, so
    # top-k is the identity — of the merged relation
    rel = AURelation(["a", "b"])
    rel.add([1, between(0, 1, 2)], (1, 1, 1))
    rel.add([2, between(0, 1, 2)], (0, 1, 2))
    rel.add([3, 5], (1, 1, 1))
    plan = TopK(_project("r", "b"), ["b"], True, 1)
    schema, rows = on_every_path(AUDatabase({"r": rel}), plan)
    assert rows == [(["[0/1/2]"], (1, 2, 3)), (["5"], (1, 1, 1))]


def test_except_may_equal_drops_lb_but_not_ub():
    left = AURelation(["a"])
    left.add([3], (2, 2, 2))
    left.add([7], (1, 1, 1))
    right = AURelation(["a"])
    right.add([between(2, 2, 4)], (1, 1, 1))  # overlaps 3, never ≡ it
    right.add([7], (1, 1, 1))  # certainly equal to 7
    db = AUDatabase({"l": left, "r": right})
    _schema, rows = on_every_path(db, Difference(TableRef("l"), TableRef("r")))
    assert rows == [(["3"], (1, 2, 2))]


def test_except_with_nan_bounds():
    # ``overlaps`` compares a NaN lower bound as the reference does; an
    # index sorted on domain_key could not place it and would miss that
    # [0/1/2] may equal the last right row
    nan = float("nan")
    left = AURelation(["a"])
    left.add([between(0, 1, 2)], (3, 3, 3))
    right = AURelation(["a"])
    for cell in (1, between(None, 1, 2), nan_cell(nan, "c", "d"), 3,
                 nan_cell(nan, "b", "b"), between(0, 1, 2)):
        right.add([cell], (1, 1, 1))
    db = AUDatabase({"l": left, "r": right})
    _schema, rows = on_every_path(db, Difference(TableRef("l"), TableRef("r")))
    # three right rows may equal [0/1/2] and share its SG value; none is
    # certainly equal to it
    assert rows == [(["[0/1/2]"], (0, 0, 3))]


def test_distinct_keeps_the_upper_bound_of_range_annotated_duplicates():
    rel = AURelation(["a", "b"])
    rel.add([1, between(0, 1, 2)], (1, 1, 2))
    rel.add([2, between(1, 1, 3)], (1, 1, 1))
    rel.add([3, 4], (1, 2, 3))
    rel.add([4, 4], (1, 1, 1))
    _schema, rows = on_every_path(AUDatabase({"r": rel}), Distinct(_project("r", "b")))
    # Ψ merges the two ranges (SG 1) into [0/1/3] with ub 3 — a range may
    # stand for three distinct values — and the certain 4 clamps to 1
    assert rows == [(["[0/1/3]"], (0, 1, 3)), (["4"], (1, 1, 1))]


@pytest.fixture
def det_db():
    # single-row chunks (chunk_size=1 on the vectorized path) split every
    # duplicate across chunks; π_a leaves each value several times
    r = DetRelation(["a", "b"])
    for a, b, m in [(2, 1, 2), (1, 1, 1), (2, 2, 1), (3, 1, 3), (1, 2, 1), (1.0, 3, 1)]:
        r.add((a, b), m)
    s = DetRelation(["a", "b"])
    for a, b, m in [(2, 0, 1), (1, 0, 2), (4, 0, 1)]:
        s.add((a, b), m)
    return DetDatabase({"r": r, "s": s})


def test_det_except_over_split_duplicates(det_db):
    plan = Difference(_project("r", "a"), _project("s", "a"))
    _schema, rows = on_every_path(det_db, plan)
    # a=2 ×3 − 1, a=1 ×3 (1.0 is the value 1) − 2, a=3 ×3 − 0
    assert rows == [(["2"], 2), (["1"], 1), (["3"], 3)]


@pytest.mark.parametrize("n", [0, 1, 4, 20])
def test_det_topk_and_limit_over_split_duplicates(det_db, n):
    for plan in (
        Limit(OrderBy(_project("r", "a"), ["a"], True), n),
        TopK(_project("r", "a"), ["a"], False, n),
        Limit(_project("r", "a"), n),
    ):
        _schema, rows = on_every_path(det_db, plan)
        assert sum(m for _t, m in rows) == min(n, 9)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_au_topk_with_n(n):
    rel = AURelation(["a", "b"])
    for i in range(6):
        rel.add([i % 3, between(i, i, i + 1)], (1, 1, 1) if i % 2 else (0, 1, 2))
    rows = on_every_path(AUDatabase({"r": rel}), TopK(TableRef("r"), ["a"], True, n))[1]
    assert (rows == []) == (n == 0)


def test_no_relation_between_scan_and_result(monkeypatch):
    rel = AURelation(["a", "b"])
    for i in range(8):
        rel.add([i % 3, between(i, i, i + 2)], (1, 1, 1))
    au = AUDatabase({"r": rel, "s": rel})
    det = DetDatabase({"r": DetRelation(["a", "b"], [(i % 3, i) for i in range(8)])})
    plans = [
        (au, Distinct(_project("r", "a"))),
        (au, Difference(TableRef("r"), TableRef("s"))),
        (au, TopK(TableRef("r"), ["a"], False, 2)),
        (det, Difference(TableRef("r"), TableRef("r"))),
        (det, TopK(TableRef("r"), ["a"], True, 2)),
        (det, Limit(TableRef("r"), 2)),
    ]
    conns = [(Connection(db), plan) for db, plan in plans]
    for cls in (AUColumnBatch, ColumnBatch):
        monkeypatch.setattr(
            cls,
            "from_relation",
            classmethod(lambda cls, rel: pytest.fail("built a batch from a relation")),
        )
    calls = []
    for cls in (AUColumnBatch, ColumnBatch):
        edge = cls.to_relation
        monkeypatch.setattr(
            cls, "to_relation", lambda self, edge=edge: calls.append(1) or edge(self)
        )
    for conn, plan in conns:
        calls.clear()
        conn.execute(plan)
        assert len(calls) == 1  # the result edge


# ----------------------------------------------------------------------
# properties: batch operator == reference over to_relation / from_relation
# ----------------------------------------------------------------------
_NAN = float("nan")
_POINTS = [0, 1, 1.0, 2, 3]
#: cells a relation can hold: no NaN bound (distinct and difference
#: bound merged rows into new ranges, which refuse one)
_CELLS = st.one_of(
    st.sampled_from(_POINTS).map(certain),
    st.tuples(
        st.sampled_from(_POINTS), st.sampled_from(_POINTS), st.sampled_from(_POINTS)
    ).map(lambda v: RangeValue(*sorted(v))),
    st.just(RangeValue(0, "a", "b")),
)
_ANNS = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)).map(
    lambda t: tuple(sorted(t))
)


def _au_batches(arity):
    rows = st.lists(st.tuples(st.tuples(*[_CELLS] * arity), _ANNS), max_size=12)
    return rows.map(lambda rows: AUColumnBatch.from_rows(("a", "b")[:arity], rows))


def batch_image(batch):
    rows = zip(*batch.columns) if batch.columns else [()] * len(batch)
    return (
        batch.schema,
        [
            ([repr(c) for c in t], ann)
            for t, ann in zip(rows, zip(batch.ann_lb, batch.ann_sg, batch.ann_ub))
        ],
    )


def _same(got, reference_rel):
    assert batch_image(got) == batch_image(AUColumnBatch.from_relation(reference_rel))


@PROPERTY
@given(_au_batches(2))
def test_distinct_batch_is_the_reference(batch):
    _same(distinct_batch(batch), ops.distinct(batch.to_relation()))


@PROPERTY
@given(_au_batches(2), _au_batches(2))
def test_except_batch_is_the_reference(left, right):
    _same(
        except_batch(left, right),
        ops.difference(left.to_relation(), right.to_relation()),
    )


#: top-k prunes only over certain order keys: ``a`` is always certain
_TOPK_BATCHES = st.lists(
    st.tuples(st.tuples(st.sampled_from(_POINTS).map(certain), _CELLS), _ANNS),
    max_size=12,
).map(lambda rows: AUColumnBatch.from_rows(("a", "b"), rows))


@PROPERTY
@given(
    _TOPK_BATCHES,
    st.sampled_from([["a"], ["b"], ["b", "a"]]),
    st.booleans(),
    st.integers(0, 6),
)
def test_topk_batch_is_the_reference(batch, keys, descending, n):
    _same(
        topk_batch(batch, keys, descending, n),
        ops.au_topk(batch.to_relation(), keys, descending, n),
    )


# ----------------------------------------------------------------------
# the top-k candidate rule
# ----------------------------------------------------------------------
_NAN2 = float("nan")  # a second NaN object: not the same row as _NAN
#: each column draws from one pool; the int and float pools pack typed
_DET_POOLS = [
    [0, 1, 1.0, True, False, 2, 2.5, None, "a", "b", _NAN, _NAN2],
    [0, 1, 2, 3],
    [0.5, 1.0, 2.0],
]


@st.composite
def _det_batches(draw):
    """An unmerged two-column batch: multiplicities 1–3, some rows
    repeated later in the batch, each column typed where it can be or a
    tuple, as a gather leaves it."""
    pools = [draw(st.sampled_from(_DET_POOLS)) for _ in range(2)]
    row = st.tuples(*(st.sampled_from(pool) for pool in pools))
    rows = draw(st.lists(st.tuples(row, st.integers(1, 3)), max_size=12))
    if rows:
        again = st.integers(0, len(rows) - 1)
        rows += [rows[i] for i in draw(st.lists(again, max_size=4))]
    pack = draw(st.sampled_from([_pack_typed, tuple]))
    columns = [pack([t[j] for t, _m in rows]) for j in range(2)]
    return ColumnBatch(("a", "b"), columns, array("q", [m for _t, m in rows]))


def _ns(rows):
    """``n`` ∈ {0, 1, rows − 1, rows, rows + 5}."""
    return st.sampled_from(sorted({0, 1, max(0, rows - 1), rows, rows + 5}))


def det_batch_image(batch):
    rows = zip(*batch.columns) if batch.columns else [()] * len(batch)
    return [([repr(v) for v in t], m) for t, m in zip(rows, batch.mult)]


@PROPERTY
@given(st.data(), _det_batches(), st.sampled_from([[0], [1], [1, 0]]), st.booleans())
def test_det_topk_and_limit_are_take(data, batch, key_idx, descending):
    n = data.draw(_ns(len(batch)))
    keys = [batch.schema[j] for j in key_idx]
    for got, want in (
        (vectorized._topk(batch, keys, descending, n),
         engine.take(batch.merged(), n, key_idx, descending)),
        (vectorized._limit(batch, n), engine.take(batch.merged(), n)),
    ):
        want = ColumnBatch.from_rows(batch.schema, want)
        assert det_batch_image(got) == det_batch_image(want)


#: certain order-key cells: ``1`` / ``1.0`` / ``True`` tie, ``None`` and
#: strings rank below / above the numbers
_KEY_POINTS = [0, 1, 1.0, True, 2, 2.5, None, "a"]
#: non-key cells; the NaN lower bounds tie with ``[0/a/b]`` on their SG
#: and upper bound, so only a consistent NaN order places them
_CONTENT = [certain(1), between(0, 1, 2), nan_cell(_NAN, "a", "b"),
            RangeValue(0, "a", "b"), nan_cell(_NAN2, "a", "b")]


@st.composite
def _au_topk_batches(draw):
    cells = st.tuples(
        st.sampled_from(_KEY_POINTS).map(certain),
        st.sampled_from(_KEY_POINTS).map(certain),
        st.sampled_from(_CONTENT),
    )
    rows = draw(st.lists(st.tuples(cells, _ANNS), max_size=12))
    return AUColumnBatch.from_rows(("a", "b", "c"), rows)


@PROPERTY
@given(
    st.data(),
    _au_topk_batches(),
    st.sampled_from([["a"], ["b"], ["a", "b"], ["b", "a"]]),
    st.booleans(),
)
def test_topk_batch_cuts_as_the_reference(data, batch, keys, descending):
    n = data.draw(_ns(len(batch)))
    _same(
        topk_batch(batch, keys, descending, n),
        ops.au_topk(batch.to_relation(), keys, descending, n),
    )


def test_topk_batch_ignores_the_key_of_a_row_that_is_not_there():
    # a ub = 0 row is not in the relation: its uncertain key does not
    # make the top-k the identity
    rows = [((certain(2),), (1, 1, 1)), ((certain(1),), (1, 1, 1)),
            ((between(0, 1, 5),), (0, 0, 0))]
    batch = AUColumnBatch.from_rows(("a",), rows)
    got = topk_batch(batch, ["a"], True, 1)
    assert batch_image(got)[1] == [(["2"], (1, 1, 1))]
    _same(got, ops.au_topk(batch.to_relation(), ["a"], True, 1))


def test_au_topk_orders_nan_bounds_consistently():
    # three rows tie on the key and on their SG; only the NaN lower bound
    # tells two of them apart from [0/a/b]
    rows = [
        ([certain(1), nan_cell(_NAN, "a", "b")], (1, 1, 1)),
        ([certain(1), RangeValue(0, "a", "b")], (1, 1, 1)),
        ([certain(1), nan_cell(_NAN2, "a", "b")], (1, 1, 1)),
        ([certain(0), certain(5)], (1, 1, 1)),
    ]
    images = set()
    for order in permutations(rows):
        rel = AURelation(["k", "v"])
        for t, ann in order:
            rel.add(t, ann)
        image = au_image(ops.au_topk(rel, ["k"], False, 2))
        _same(topk_batch(AUColumnBatch.from_relation(rel), ["k"], False, 2),
              ops.au_topk(rel, ["k"], False, 2))
        images.add(repr(image))
    assert len(images) == 1  # the same rows and bounds whatever the input order


@pytest.fixture
def nan_db():
    nan = float("nan")
    return DetDatabase({"t": DetRelation(["a", "b"], [(0, 5.0), (0, nan), (0, 1.0)])})


@pytest.mark.parametrize(
    "sql, expected",
    [
        # NaN ranks above every number: the two smallest are 1.0 and 5.0
        ("SELECT a, b FROM t ORDER BY b LIMIT 2", ["1.0", "5.0"]),
        ("SELECT a, b FROM t ORDER BY b DESC LIMIT 2", ["nan", "5.0"]),
        ("SELECT a, b FROM t LIMIT 2", ["1.0", "5.0"]),
    ],
)
def test_nan_order_key(nan_db, sql, expected):
    _schema, rows = on_every_path(nan_db, sql)
    assert [t[1] for t, _m in rows] == expected


def test_det_topk_merges_only_its_candidates(monkeypatch):
    det = DetDatabase({"r": DetRelation(["a", "b"], [(i % 17, i) for i in range(300)])})
    kept, merged = [], []
    rule, merge = engine.topk_candidates, ColumnBatch.merged

    def candidates(*args):
        picked = rule(*args)
        kept.append(picked)
        return picked

    monkeypatch.setattr(engine, "topk_candidates", candidates)
    monkeypatch.setattr(
        ColumnBatch, "merged", lambda self: merged.append(len(self)) or merge(self)
    )
    conn = Connection(det, config=EvalConfig(backend="vectorized"))
    for plan in (TopK(TableRef("r"), ["a"], True, 3), Limit(TableRef("r"), 3)):
        kept.clear(), merged.clear()
        conn.execute(plan)
        # a = 16 comes 17 times, all of them candidates of the top-3; the
        # three smallest rows are distinct
        assert [len(p) for p in kept] == [17 if isinstance(plan, TopK) else 3]
        assert merged and max(merged) <= len(kept[0])


def test_explain_analyze_shows_the_candidates():
    det = DetDatabase({"r": DetRelation(["a", "b"], [(i % 17, i) for i in range(300)])})
    conn = Connection(det, config=EvalConfig(backend="vectorized"), trace=True)
    # a = 16 and a = 15 come 17 times each
    assert "candidates=34/300" in conn.explain_analyze(
        "SELECT a, b FROM r ORDER BY a DESC LIMIT 20"
    )
    rel = AURelation(["a", "b"])
    for i in range(40):
        rel.add([i % 8, between(i, i, i + 1)], (1, 1, 1) if i % 2 else (0, 1, 1))
    conn = Connection(AUDatabase({"r": rel}), config=EvalConfig(backend="vectorized"))
    # the rows with lb > 0 hold a = 1, 3, 5, 7 five times each
    text = conn.explain_analyze("SELECT a, b FROM r ORDER BY a DESC LIMIT 6")
    assert "topk=bounded, candidates=15/40" in text, text

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
* no relation is built between scan and result.
"""

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
from repro.db.storage import DetDatabase, DetRelation
from repro.exec.au_setops import distinct_batch, except_batch, topk_batch
from repro.exec.batch import AUColumnBatch, ColumnBatch
from repro.session import Connection

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
    for cell in (1, between(None, 1, 2), between(nan, "c", "d"), 3,
                 between(nan, "b", "b"), between(0, 1, 2)):
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
_CELLS = st.one_of(
    st.sampled_from(_POINTS).map(certain),
    st.tuples(
        st.sampled_from(_POINTS), st.sampled_from(_POINTS), st.sampled_from(_POINTS)
    ).map(lambda v: RangeValue(*sorted(v))),
    st.just(RangeValue(_NAN, "a", "b")),
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

"""Columnar batches: the data representation of the vectorized backend.

A batch is a columnar ("decomposed storage") image of a relation:
parallel per-attribute arrays plus a multiplicity column, so operators
touch only the columns they need and run tight set-at-a-time loops
instead of interpreting one tuple dictionary at a time.

* :class:`ColumnBatch` — deterministic bags.  One Python array per
  attribute and an integer multiplicity column.  Base-table columns whose
  values are homogeneously ``int`` or ``float`` are packed into
  :mod:`array`-module typed arrays (contiguous machine values); mixed
  columns fall back to plain lists.
* :class:`AUColumnBatch` — AU-relations.  One array of range triples
  (``RangeValue`` objects, i.e. lower/SG/upper per attribute) per column,
  plus the ``K^AU`` annotation as three parallel multiplicity arrays
  ``ann_lb``/``ann_sg``/``ann_ub``.

Batches are *unmerged*: value-equivalent rows may appear several times
and are only merged (annotations summed) when the batch is materialized
back into a relation.  This is exact for the linear operators (selection,
projection, rename, join, cross product, union) because the annotation
semirings distribute over addition; every non-linear operator
(difference, distinct, aggregation, top-k) first merges value-equal rows
in the batch itself (:meth:`ColumnBatch.merged`,
:meth:`AUColumnBatch.merge_duplicates`), exactly as materializing would.

Base tables reach the executors as batches of their chunk store
(:mod:`repro.db.chunks`, the one columnar image kept per relation and
maintained by its write path); ``to_relation`` is the result edge.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from itertools import repeat
from operator import le
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.relation import AURelation
from ..core.semirings import AUAnnotation
from ..db.storage import DetRelation

__all__ = [
    "ColumnBatch",
    "AUColumnBatch",
    "BatchRowView",
    "MaterializationBudgetError",
    "materialization_budget",
]


class MaterializationBudgetError(MemoryError):
    """A single batch materialization exceeded the configured row budget."""


#: When not ``None``, the maximum number of rows any *single* batch
#: materialization (relation → full batch image) may produce.  Streaming
#: chunk scans stay under the budget by construction — they touch one
#: chunk at a time — so the budget models a bounded working set and lets
#: benchmarks demonstrate that streaming completes where whole-relation
#: materialization cannot.
MATERIALIZATION_BUDGET: Optional[int] = None


@contextmanager
def materialization_budget(rows: Optional[int]) -> Iterator[None]:
    """Cap single-batch materializations at ``rows`` within the block."""
    global MATERIALIZATION_BUDGET
    prev = MATERIALIZATION_BUDGET
    MATERIALIZATION_BUDGET = rows
    try:
        yield
    finally:
        MATERIALIZATION_BUDGET = prev


def charge_materialization(rows: int) -> None:
    """Raise when a single materialization of ``rows`` rows is over budget."""
    budget = MATERIALIZATION_BUDGET
    if budget is not None and rows > budget:
        raise MaterializationBudgetError(
            f"materializing {rows} rows in one batch exceeds the "
            f"{budget}-row materialization budget; use a chunked "
            f"streaming scan (EvalConfig.chunk_size) instead"
        )


def _pack_typed(values: list):
    """Pack a homogeneous numeric column into an ``array``-module array.

    Returns the original list when the column mixes types, holds bools,
    overflows the 64-bit signed range, or contains NaN — a typed array
    re-boxes a fresh float per access, and NaN equality semantics in the
    engines go through Python's identity-or-equality shortcut, so NaN
    columns must keep their original objects.
    """
    if not values:
        return values
    kind = type(values[0])
    if kind is int:
        for v in values:
            if type(v) is not int:
                return values
        try:
            return array("q", values)
        except OverflowError:
            return values
    if kind is float:
        for v in values:
            if type(v) is not float or v != v:
                return values
        return array("d", values)
    return values


def _concat_cols(parts: Sequence) -> Any:
    """One column of the cells of ``parts`` in order: a typed array when
    every part is one of the same type code, else a list."""
    first = parts[0]
    if type(first) is array and all(
        type(p) is array and p.typecode == first.typecode for p in parts
    ):
        out = array(first.typecode)
        for p in parts:
            out.extend(p)
        return out
    merged: list = []
    for p in parts:
        merged.extend(p)
    return merged


class BatchRowView:
    """A lazy ``{attribute: value}`` valuation over one batch row.

    The columnar counterpart of :class:`repro.core.expressions.RowView`:
    expression evaluation only ever looks attributes up, so the slow-path
    (non-compiled) evaluators reuse ``eval``/``eval_range`` unchanged by
    pointing one mutable row cursor ``i`` at the batch.
    """

    __slots__ = ("_index", "_columns", "i")

    def __init__(self, index: Dict[str, int], columns: Sequence) -> None:
        self._index = index
        self._columns = columns
        self.i = 0

    def __getitem__(self, name: str) -> Any:
        return self._columns[self._index[name]][self.i]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def get(self, name: str, default: Any = None) -> Any:
        j = self._index.get(name)
        return default if j is None else self._columns[j][self.i]

    def keys(self):
        return self._index.keys()


class ColumnBatch:
    """A deterministic bag in columnar form.

    ``columns[j][i]`` is the value of attribute ``schema[j]`` in row
    ``i``; ``mult[i]`` is the row's multiplicity.  Rows need not be
    distinct (see module docstring).
    """

    __slots__ = ("schema", "columns", "mult")

    def __init__(self, schema: Sequence[str], columns: List, mult) -> None:
        self.schema: Tuple[str, ...] = tuple(schema)
        self.columns = columns
        self.mult = mult

    def __len__(self) -> int:
        return len(self.mult)

    def total_rows(self) -> int:
        """Bag cardinality (sum of multiplicities)."""
        return sum(self.mult)

    @classmethod
    def from_rows(
        cls, schema: Sequence[str], rows: Dict[Tuple, int]
    ) -> "ColumnBatch":
        """A ``{row: multiplicity}`` bag as a batch, in its order."""
        charge_materialization(len(rows))
        if rows:
            columns = [_pack_typed(list(col)) for col in zip(*rows)]
            mult = array("q", rows.values())
        else:
            columns = [[] for _ in schema]
            mult = array("q")
        return cls(schema, columns, mult)

    @classmethod
    def concat(
        cls, schema: Sequence[str], batches: Sequence["ColumnBatch"]
    ) -> "ColumnBatch":
        """The rows of ``batches`` in order, under ``schema``: a single
        batch is returned as it is, no batch gives an empty one."""
        if len(batches) == 1:
            return batches[0]
        if not batches:
            return cls(schema, [[] for _ in schema], array("q"))
        return cls(
            schema,
            [_concat_cols(parts) for parts in zip(*(b.columns for b in batches))],
            _concat_cols([b.mult for b in batches]),
        )

    @classmethod
    def from_relation(cls, rel: DetRelation) -> "ColumnBatch":
        return cls.from_rows(rel.schema, rel.rows)

    def merged(self) -> Dict[Tuple, int]:
        """The rows of :meth:`to_relation`: each distinct row with its
        summed multiplicity, in first-occurrence order."""
        rows: Dict[Tuple, int] = {}
        if self.columns:
            for t, m in zip(zip(*self.columns), self.mult):
                rows[t] = rows.get(t, 0) + m
        else:  # zero-attribute relation: all rows are the empty tuple
            total = sum(self.mult)
            if total:
                rows[()] = total
        return rows

    def to_relation(self) -> DetRelation:
        """Materialize back into a (merged) :class:`DetRelation`."""
        out = DetRelation(self.schema)
        out.rows = self.merged()
        return out

    def row_view(self) -> BatchRowView:
        return BatchRowView(
            {name: j for j, name in enumerate(self.schema)}, self.columns
        )


def _value_key(cell: Any) -> Any:
    """A hashable that is equal between two cells exactly when the cells
    are (``RangeValue`` equality compares the bound triples): the value
    of a cell whose bounds are all equal — so ``[1/1.0/True]`` meets
    ``[1/1/1]`` — and the triple otherwise."""
    lb, sg, ub = cell.lb, cell.sg, cell.ub
    if lb == sg and sg == ub:
        return sg
    return (lb, sg, ub)


class AUColumnBatch:
    """An ``N^AU``-relation in columnar form.

    ``columns[j][i]`` is the :class:`~repro.core.ranges.RangeValue`
    (lower/SG/upper triple) of attribute ``schema[j]`` in row ``i``;
    ``ann_lb``/``ann_sg``/``ann_ub`` are the three components of the
    row's ``K^AU`` annotation.  Rows need not be distinct.
    """

    __slots__ = ("schema", "columns", "ann_lb", "ann_sg", "ann_ub")

    def __init__(
        self, schema: Sequence[str], columns: List, ann_lb, ann_sg, ann_ub
    ) -> None:
        self.schema: Tuple[str, ...] = tuple(schema)
        self.columns = columns
        self.ann_lb = ann_lb
        self.ann_sg = ann_sg
        self.ann_ub = ann_ub

    def __len__(self) -> int:
        return len(self.ann_ub)

    @classmethod
    def from_rows(cls, schema: Sequence[str], rows) -> "AUColumnBatch":
        """``(AU-tuple, annotation)`` rows as a batch: in order, unmerged."""
        rows = list(rows)
        if rows:
            columns = [list(col) for col in zip(*(t for t, _ann in rows))]
            ann_lb = array("q", (ann[0] for _t, ann in rows))
            ann_sg = array("q", (ann[1] for _t, ann in rows))
            ann_ub = array("q", (ann[2] for _t, ann in rows))
        else:
            columns = [[] for _ in schema]
            ann_lb, ann_sg, ann_ub = array("q"), array("q"), array("q")
        return cls(schema, columns, ann_lb, ann_sg, ann_ub)

    @classmethod
    def concat(
        cls, schema: Sequence[str], batches: Sequence["AUColumnBatch"]
    ) -> "AUColumnBatch":
        """The rows of ``batches`` in order, under ``schema``: a single
        batch is returned as it is, no batch gives an empty one."""
        if len(batches) == 1:
            return batches[0]
        if not batches:
            empty = [[] for _ in schema]
            return cls(schema, empty, array("q"), array("q"), array("q"))
        anns = zip(*((b.ann_lb, b.ann_sg, b.ann_ub) for b in batches))
        return cls(
            schema,
            [_concat_cols(parts) for parts in zip(*(b.columns for b in batches))],
            *map(_concat_cols, anns),
        )

    @classmethod
    def from_relation(cls, rel: AURelation) -> "AUColumnBatch":
        charge_materialization(len(rel))
        return cls.from_rows(rel.schema, rel.tuples())

    def to_relation(self) -> AURelation:
        """Materialize back into a (merged) :class:`AURelation`.

        The rows, order and annotations of one ``AURelation.add`` per
        row — value-equal rows summed at their first occurrence, zero
        annotations dropped, the same ``ValueError`` for an invalid
        annotation or a wrong arity — built in one pass: the cells are
        range values already, and each row is hashed once."""
        lb, sg, ub = self.ann_lb, self.ann_sg, self.ann_ub
        out = AURelation(self.schema)
        if not len(ub):
            return out
        if min(lb) < 0 or not (all(map(le, lb, sg)) and all(map(le, sg, ub))):
            bad = next(a for a in zip(lb, sg, ub) if not 0 <= a[0] <= a[1] <= a[2])
            raise ValueError(
                f"invalid K^AU annotation {bad!r}: need 0 <= lb <= sg <= ub"
            )
        if len(self.columns) != len(self.schema) and any(ub):
            raise ValueError(
                f"tuple arity {len(self.columns)} does not match schema {self.schema}"
            )
        tuples = list(zip(*self.columns)) if self.columns else [()] * len(ub)
        anns = list(zip(lb, sg, ub))
        if min(ub):
            rows = dict(zip(tuples, anns))
            if len(rows) == len(anns):  # no two rows value-equal
                out._rows = rows
                return out
        rows = {}
        setdefault = rows.setdefault
        for t, ann in zip(tuples, anns):
            if not ann[2]:
                continue
            cur = setdefault(t, ann)
            if cur is not ann:
                rows[t] = (cur[0] + ann[0], cur[1] + ann[1], cur[2] + ann[2])
        out._rows = rows
        return out

    def merge_duplicates(self) -> Tuple["AUColumnBatch", int]:
        """The rows of :meth:`to_relation`: value-equal rows merged with
        summed annotations at their first occurrence, ``ub == 0`` rows
        gone.  Returns this batch itself when there is nothing to merge,
        and the number of rows removed."""
        first: Dict[Tuple, int] = {}
        keep: List[int] = []
        lb: List[int] = []
        sg: List[int] = []
        ub: List[int] = []
        # rows compare as tuples of their cells' value keys: what
        # RangeValue equality compares, without hashing a cell at a time
        keys = [
            [c.sg if c.lb is c.sg is c.ub else _value_key(c) for c in col]
            for col in self.columns
        ]
        tuples = zip(*keys) if keys else repeat(())
        rows = zip(tuples, self.ann_lb, self.ann_sg, self.ann_ub)
        for i, (t, a_lb, a_sg, a_ub) in enumerate(rows):
            if not a_ub:
                continue
            k = first.setdefault(t, len(keep))
            if k == len(keep):
                keep.append(i)
                lb.append(a_lb)
                sg.append(a_sg)
                ub.append(a_ub)
            else:
                lb[k] += a_lb
                sg[k] += a_sg
                ub[k] += a_ub
        removed = len(self) - len(keep)
        if not removed:
            return self, 0
        columns = [[col[i] for i in keep] for col in self.columns]
        return AUColumnBatch(self.schema, columns, lb, sg, ub), removed

    def annotations(self) -> List[AUAnnotation]:
        return list(zip(self.ann_lb, self.ann_sg, self.ann_ub))

    def row_view(self) -> BatchRowView:
        return BatchRowView(
            {name: j for j, name in enumerate(self.schema)}, self.columns
        )

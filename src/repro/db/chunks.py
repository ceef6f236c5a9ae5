"""Paged chunked columnar storage with zone-map chunk skipping.

This module is the only columnar image of a base table: scans, streamed
selections and Exchange morsels all read fixed-size **column chunks**:

One :class:`ChunkStore` serves both engines: a relation's rows split
into :class:`Chunk` pages, each one batch of the engine's batch class —
a :class:`~repro.exec.batch.ColumnBatch` (typed-packed columns and a
multiplicity column) for a :class:`~repro.db.storage.DetRelation`, an
:class:`~repro.exec.batch.AUColumnBatch` (one column of
:class:`~repro.core.ranges.RangeValue` cells per attribute and the
three ``K^AU`` annotation columns) for an
:class:`~repro.core.relation.AURelation`.  The engine enters only as
data, its :class:`Layout`: the batch class, its annotation columns and
the bounds a cell widens its zone by.

Every chunk carries an incrementally-maintained :class:`ChunkZone`
("zone map"): per-column min/max keys in the universal domain order
(min over lower bounds, max over upper bounds) and a null count.  The
zones are updated in place by the relations' write path
(``add``/``delete`` call :meth:`~ChunkStore.on_add` /
:meth:`~ChunkStore.on_delete`), mirroring how
:class:`~repro.algebra.stats.StatsAccumulator` maintains catalog
statistics per write:

* appends and annotation/multiplicity merges *widen* the zone exactly;
* a delete decrements the row and null counts exactly and
  leaves min/max alone: the zone stays a sound *over-approximation*
  (every skip rule of :func:`_zone_allows` holds for a wider range),
  so the write path never rescans and the read path never rebuilds;
  a chunk that deletes empty resets its zone.

``lower()`` derives a plan-time :class:`ChunkSkipPredicate` from the
conjunctive atoms of a selection directly above a scan
(:func:`derive_skip`); :meth:`survivors` evaluates it against the zone
maps so provably-empty chunks are never touched.  All comparison
operators in :mod:`repro.core.expressions` evaluate through
:func:`~repro.core.ranges.domain_key`, so zone bounds in key space make
the skip decisions exact for both engines — a chunk is skipped only
when *no* deterministic row (det) or *no possible world's* row (AU,
via the upper-bound truth of the range predicate) can satisfy the
predicate.  Float NaN breaks the total order, so any chunk column that
contains NaN simply disables its zone entry (the chunk is then never
skipped on that column).  An atom comparing a column with a
``Parameter`` becomes a *template* constraint ``(column, op, slot)``
that skips nothing until the session layer's binding transform fills
it on a copy of the scan (:meth:`ChunkSkipPredicate.bind`), so a
cached plan stays binding-independent while each bound plan skips the
chunks of its literal twin.

Skip/scan activity publishes to the process-wide metrics registry
(``repro_storage_chunks_scanned_total`` /
``repro_storage_chunks_skipped_total``) and the executors attach the
same counts as operator-span attributes, so the effect is visible in
``explain_analyze`` end-to-end.
"""

from __future__ import annotations

import math
import sys
from array import array
from itertools import count, repeat
from operator import attrgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .. import telemetry as _tm
from ..core.expressions import (
    And,
    Const,
    Eq,
    Expression,
    Geq,
    Gt,
    IsNull,
    Leq,
    Lt,
    Neq,
    Not,
    Parameter,
    Var,
)
from ..core.ranges import RangeValue, domain_key
from ..core.relation import AURelation
from ..exec.batch import (
    AUColumnBatch,
    ColumnBatch,
    _pack_typed,
    charge_materialization,
)

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "ChunkZone",
    "ChunkSkipPredicate",
    "SkipConstraint",
    "derive_skip",
    "skip_attrs",
    "Layout",
    "DET",
    "AU",
    "Chunk",
    "ChunkStore",
    "chunk_store",
    "resolve_chunk_size",
    "storage_report",
]

#: Rows per chunk when ``EvalConfig.chunk_size`` is left unset (``None``).
DEFAULT_CHUNK_SIZE = 1024

_CHUNKS_SCANNED = _tm.get_registry().counter(
    "repro_storage_chunks_scanned_total",
    "Storage chunks actually read by scans (post zone-map skipping).",
)
_CHUNKS_SKIPPED = _tm.get_registry().counter(
    "repro_storage_chunks_skipped_total",
    "Storage chunks proven empty by zone maps and never read.",
)
_STORE_BUILDS = _tm.get_registry().counter(
    "repro_storage_chunk_store_builds_total",
    "Chunk stores built from a relation's rows (not maintained by writes).",
)


def resolve_chunk_size(chunk_size: Optional[int]) -> int:
    """Normalize a configured chunk size (``None`` → the default)."""
    if chunk_size is None:
        return DEFAULT_CHUNK_SIZE
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    return chunk_size


def _is_nan(v: Any) -> bool:
    return type(v) is float and v != v


#: types whose :func:`domain_key` is ``(rank, value)``, so two values of
#: one rank compare natively exactly as their keys do
_NATIVE_RANK = {int: 1, float: 1, str: 2}


def _extent_rank(col) -> Optional[int]:
    """The :func:`domain_key` rank every value of ``col`` shares when
    C-level ``min``/``max`` order them as the domain order does — 1 for
    typed arrays and lists of NaN-free ``int``/``float``, 2 for lists of
    ``str`` — else ``None`` (``None`` cells, bools, NaN, mixed ranks)."""
    if type(col) is array:
        return 1  # _pack_typed packs only ints and NaN-free floats
    if not col or type(col[0]) not in _NATIVE_RANK:
        return None
    kinds = set(map(type, col))
    ranks = {_NATIVE_RANK.get(kind) for kind in kinds}
    if len(ranks) != 1 or None in ranks:
        return None
    if float in kinds and any(v != v for v in col):
        return None
    return ranks.pop()


# ---------------------------------------------------------------------------
# skip predicates
# ---------------------------------------------------------------------------

#: comparison atoms a skip predicate may use (see ``_zone_allows``)
SKIP_OPS = ("le", "lt", "ge", "gt", "eq", "ne", "isnull", "notnull")

_OP_TEXT = {"le": "<=", "lt": "<", "ge": ">=", "gt": ">", "eq": "=", "ne": "!="}
_FLIP = {"le": "ge", "lt": "gt", "ge": "le", "gt": "lt", "eq": "eq", "ne": "ne"}
_ATOM_OPS = {Leq: "le", Lt: "lt", Geq: "ge", Gt: "gt", Eq: "eq", Neq: "ne"}


class SkipConstraint:
    """One conjunct ``column ⟨op⟩ constant`` of a chunk-skip predicate,
    or — with ``slot`` set and ``key`` ``None`` — the template
    ``column ⟨op⟩ ?slot`` that a parameter binding fills."""

    __slots__ = ("column", "op", "key", "text", "slot")

    def __init__(
        self,
        column: str,
        op: str,
        key: Optional[tuple],
        text: str,
        slot: Any = None,
    ) -> None:
        self.column = column
        self.op = op
        self.key = key  # domain_key of the constant; None for a template
        self.text = text
        self.slot = slot  # the Parameter key of a template atom

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SkipConstraint({self.text})"


def _literal(column: str, op: str, value: Any) -> Optional[SkipConstraint]:
    """``column ⟨op⟩ value`` as a zone-testable atom, or ``None`` for a
    value no zone can decide: NaN breaks the domain order, and the AU
    engine compares a ``RangeValue`` constant through its bounds, not
    through its own key."""
    if _is_nan(value) or isinstance(value, RangeValue):
        return None
    return SkipConstraint(
        column, op, domain_key(value), f"{column}{_OP_TEXT[op]}{value!r}"
    )


class ChunkSkipPredicate:
    """A conjunction of :class:`SkipConstraint` atoms attached to a scan.

    A chunk is skipped when *any* constraint proves it empty against the
    chunk's zone map — sound because the atoms are conjuncts of the
    selection sitting directly above the scan.  ``origin`` says where
    the atoms came from: ``"literal"`` (constants of the plan),
    ``"template"`` (some atoms still wait for a binding — they skip
    nothing) or ``"bound"`` (templates filled by :meth:`bind`).
    """

    __slots__ = ("constraints", "origin")

    def __init__(
        self, constraints: Sequence[SkipConstraint], origin: str = "literal"
    ) -> None:
        self.constraints = tuple(constraints)
        self.origin = origin

    def columns(self) -> Tuple[str, ...]:
        return tuple(c.column for c in self.constraints)

    def slots(self) -> Tuple[Any, ...]:
        """Parameter keys of the template atoms still unfilled."""
        return tuple(c.slot for c in self.constraints if c.slot is not None)

    def bind(
        self, binding: Mapping[Any, Expression]
    ) -> Optional["ChunkSkipPredicate"]:
        """This predicate with every template atom filled from
        ``binding`` (parameter key → bound ``Const``).  An atom whose
        value no zone can decide — NaN, a range constant, a binding that
        is no constant — is dropped, as :func:`derive_skip` drops the
        literal one; ``None`` when no atom is left."""
        out: List[SkipConstraint] = []
        for c in self.constraints:
            if c.slot is None:
                out.append(c)
                continue
            value = binding.get(c.slot)
            if isinstance(value, Const):
                filled = _literal(c.column, c.op, value.value)
                if filled is not None:
                    out.append(filled)
        return ChunkSkipPredicate(out, "bound") if out else None

    def __len__(self) -> int:
        return len(self.constraints)

    def __str__(self) -> str:
        return " AND ".join(c.text for c in self.constraints)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChunkSkipPredicate({self})"


def skip_attrs(
    skip: Optional[ChunkSkipPredicate], total: int, skipped: int
) -> Dict[str, Any]:
    """Operator-span attributes of one zone-map pass: chunk counts and,
    under a predicate, whether it was ``literal`` or ``bound``."""
    attrs: Dict[str, Any] = {"chunks_total": total, "chunks_skipped": skipped}
    if skip is not None:
        attrs["skip"] = skip.origin
    return attrs


def _conjuncts(condition: Expression) -> Iterable[Expression]:
    stack = [condition]
    while stack:
        e = stack.pop()
        if isinstance(e, And):
            stack.append(e.right)
            stack.append(e.left)
        else:
            yield e


def derive_skip(condition: Optional[Expression]) -> Optional[ChunkSkipPredicate]:
    """Extract zone-map-testable atoms from a selection condition.

    Walks the conjunctive ``And`` spine and keeps every
    ``Var ⟨cmp⟩ Const`` / ``Const ⟨cmp⟩ Var`` atom whose constant is
    not NaN, and every ``Var ⟨cmp⟩ Parameter`` / ``Parameter ⟨cmp⟩
    Var`` atom as a template (``column, op, slot``) that skips nothing
    until :meth:`ChunkSkipPredicate.bind` fills it — so a cached plan's
    predicate stays valid across re-binds.  Returns ``None`` when no
    atom qualifies.
    """
    if condition is None:
        return None
    constraints: List[SkipConstraint] = []
    for atom in _conjuncts(condition):
        # null tests against the zones' null counts (`nulls[j]` plus the
        # min/max keys, which bracket None at the bottom of the domain
        # order — see the ``isnull``/``notnull`` rules in _zone_allows)
        if isinstance(atom, IsNull) and isinstance(atom.operand, Var):
            col = atom.operand.name
            constraints.append(
                SkipConstraint(col, "isnull", domain_key(None), f"{col} IS NULL")
            )
            continue
        if (
            isinstance(atom, Not)
            and isinstance(atom.operand, IsNull)
            and isinstance(atom.operand.operand, Var)
        ):
            col = atom.operand.operand.name
            constraints.append(
                SkipConstraint(
                    col, "notnull", domain_key(None), f"{col} IS NOT NULL"
                )
            )
            continue
        op = _ATOM_OPS.get(type(atom))
        if op is None:
            continue
        left, right = atom.left, atom.right
        if isinstance(left, Var):
            col, other = left.name, right
        elif isinstance(right, Var):
            col, other, op = right.name, left, _FLIP[op]
        else:
            continue
        if isinstance(other, Const):
            con = _literal(col, op, other.value)
            if con is not None:
                constraints.append(con)
        elif isinstance(other, Parameter):
            text = f"{col}{_OP_TEXT[op]}{other!r}"
            constraints.append(SkipConstraint(col, op, None, text, other.key))
    if not constraints:
        return None
    templated = any(c.slot is not None for c in constraints)
    return ChunkSkipPredicate(constraints, "template" if templated else "literal")


# ---------------------------------------------------------------------------
# zone maps
# ---------------------------------------------------------------------------


class ChunkZone:
    """Per-chunk, per-column min/max/null statistics.

    ``min_keys[j]``/``max_keys[j]`` are :func:`domain_key` values — the
    minimum over the column's lower bounds and the maximum over its
    upper bounds (for deterministic chunks lb = ub = the value).
    ``enabled[j]`` is cleared when the column contains NaN (the domain
    order is undefined there) — a disabled entry never skips.  The
    counts are exact; after deletes the min/max keys may be wider than
    the live rows (never narrower), which every skip rule tolerates.
    """

    __slots__ = (
        "rows",
        "min_keys",
        "max_keys",
        "nulls",
        "enabled",
    )

    def __init__(self, n_cols: int) -> None:
        self.rows = 0
        self.min_keys: List[Optional[tuple]] = [None] * n_cols
        self.max_keys: List[Optional[tuple]] = [None] * n_cols
        self.nulls = [0] * n_cols
        self.enabled = [True] * n_cols

    # -- incremental maintenance -------------------------------------
    def widen(self, j: int, lb: Any, ub: Any) -> None:
        """Fold one value (det) or bound pair (AU) of column ``j`` in."""
        if not self.enabled[j]:
            return
        lo, hi = self.min_keys[j], self.max_keys[j]
        if lb is ub and lo is not None:
            # the write path's common case: a point of the rank both
            # bounds already have — compare natively, build no key
            rank = _NATIVE_RANK.get(type(lb))
            if rank == lo[0] == hi[0]:
                if lb < lo[1]:
                    self.min_keys[j] = (rank, lb)
                elif lb > hi[1]:
                    self.max_keys[j] = (rank, lb)
                elif lb != lb:  # NaN
                    self.enabled[j] = False
                return
        if _is_nan(lb) or _is_nan(ub):
            self.enabled[j] = False
            return
        klb = domain_key(lb)
        kub = klb if ub is lb else domain_key(ub)
        if lo is None or klb < lo:
            self.min_keys[j] = klb
        if hi is None or kub > hi:
            self.max_keys[j] = kub


def _zone_allows(zone: ChunkZone, index: Dict[str, int], skip: ChunkSkipPredicate) -> bool:
    """May the chunk contain a satisfying row?  False ⇒ skip the chunk.

    The rules are exact in key space (both engines compare through
    ``domain_key``; for AU the predicate's upper-bound truth over
    ``[lb, ub]`` intervals is what keeps a row, and the zone brackets
    every interval in the chunk), and stay sound for a zone wider than
    its rows — each tests the bracket, never an exact extremum:

    ``le``: empty iff min > c — ``lt``: min >= c — ``ge``: max < c —
    ``gt``: max <= c — ``eq``: c outside [min, max] — ``ne``: every
    value provably equals c (min = max = c).  Unfilled template atoms
    skip nothing.
    """
    for con in skip.constraints:
        key = con.key
        if key is None:
            continue
        j = index.get(con.column)
        if j is None or not zone.enabled[j]:
            continue
        lo, hi = zone.min_keys[j], zone.max_keys[j]
        if lo is None or hi is None:
            continue
        op = con.op
        if op == "le":
            if lo > key:
                return False
        elif op == "lt":
            if lo >= key:
                return False
        elif op == "ge":
            if hi < key:
                return False
        elif op == "gt":
            if hi <= key:
                return False
        elif op == "eq":
            if key < lo or key > hi:
                return False
        elif op == "ne":
            if lo == hi == key:
                return False
        elif op == "isnull":
            # no possibly-null row: the zone counts no null guesses and
            # every lower bound sorts strictly above None (an AU row
            # that *could* be null has lb None, which would pull the
            # min key down to domain_key(None))
            if zone.nulls[j] == 0 and lo > key:
                return False
        elif op == "notnull":
            # every row is certainly null: all guesses are null and
            # every upper bound sorts at or below None (⇒ lb = ub =
            # None for every row, so IS NOT NULL holds in no world)
            if zone.nulls[j] == zone.rows and hi <= key:
                return False
    return True


# ---------------------------------------------------------------------------
# column helpers
# ---------------------------------------------------------------------------


def _append_demote(col, v):
    """Append ``v`` to a (possibly typed) column, demoting to list on
    representation mismatch; returns the (possibly new) column."""
    if type(col) is array:
        if col.typecode == "q":
            if type(v) is int and -(2**63) <= v < 2**63:
                col.append(v)
                return col
        elif type(v) is float and v == v:
            col.append(v)
            return col
        col = list(col)
    col.append(v)
    return col


def _int_column(values: Iterable[int]) -> Any:
    """An annotation column: a typed ``q`` array, or a list when a value
    does not fit one."""
    try:
        return array("q", values)
    except (OverflowError, TypeError):
        return list(values)


def _set_demote(col, i, v):
    """Assign ``col[i] = v`` with the same demotion rule as append."""
    if type(col) is array:
        try:
            col[i] = v
            return col
        except (TypeError, OverflowError):
            col = list(col)
    col[i] = v
    return col


def _col_bytes(col) -> int:
    """Shallow byte accounting for one column.

    Typed ``array`` columns report their exact buffer size (``getsizeof``
    includes the machine-value payload); demoted object columns report
    the pointer vector plus each element's own object header — element
    *contents* (e.g. a ``RangeValue``'s bound objects) are not chased, so
    shared/interned values are charged once per reference, which is the
    honest accounting for a columnar page of Python objects.
    """
    if type(col) is array:
        return sys.getsizeof(col)
    return sys.getsizeof(col) + sum(sys.getsizeof(v) for v in col)


# ---------------------------------------------------------------------------
# the chunk store
# ---------------------------------------------------------------------------


class Layout(NamedTuple):
    """How one engine's rows become chunks — the only thing the store
    knows about the engine.

    ``batch_cls`` is the engine's batch class, built as
    ``batch_cls(schema, columns, *annotation_columns)``; ``ann`` names
    its annotation columns and ``ann_columns`` splits a run of rows'
    stored payloads (``rows[t]``) into those columns' values; ``cell``
    gives a cell's ``(lb, sg, ub)``: the zone folds ``lb`` / ``ub`` in
    and counts the cell as NULL when ``sg`` is ``None``.
    """

    batch_cls: Any
    ann: Tuple[str, ...]
    ann_columns: Callable[[Sequence[Any]], Iterable[Sequence[int]]]
    cell: Callable[[Any], Tuple[Any, Any, Any]]


#: a ``DetRelation``: one multiplicity column; a value is its own bounds
DET = Layout(ColumnBatch, ("mult",), lambda ms: (ms,), lambda v: (v, v, v))
#: an ``AURelation``: the three ``K^AU`` columns; ``RangeValue`` cells
AU = Layout(
    AUColumnBatch,
    ("ann_lb", "ann_sg", "ann_ub"),
    lambda anns: zip(*anns),
    attrgetter("lb", "sg", "ub"),
)


def _relocate(row_loc: Dict, columns: Sequence, ci: int, start: int) -> None:
    """Point the row locator at rows ``start..`` of chunk ``ci`` (after
    a delete shifted them down by one)."""
    tail = zip(*[col[start:] for col in columns])
    row_loc.update(zip(tail, zip(repeat(ci), count(start))))


class Chunk:
    """One page of a relation: a batch of the engine's batch class and
    the zone map of its rows."""

    __slots__ = ("batch", "zone")

    def __init__(self, batch: Any, zone: ChunkZone) -> None:
        self.batch = batch
        self.zone = zone

    def __len__(self) -> int:
        return len(self.batch)


def _column_zone(zone: ChunkZone, j: int, col: Sequence, cell: Callable) -> None:
    """Fold a freshly packed column ``j`` into ``zone``: C-level
    ``min``/``max`` over a column of native values whose domain order
    they follow (:func:`_extent_rank`; such a value is its own bounds),
    the per-value :meth:`ChunkZone.widen` walk for the rest."""
    rank = _extent_rank(col)
    if rank is not None:
        zone.min_keys[j] = (rank, min(col))
        zone.max_keys[j] = (rank, max(col))
        return
    widen = zone.widen
    nulls = 0
    for v in col:
        lb, sg, ub = cell(v)
        widen(j, lb, ub)
        if sg is None:
            nulls += 1
    zone.nulls[j] = nulls


class ChunkStore:
    """A relation as fixed-size column chunks with zone maps, kept in
    step with the relation by its write path (:meth:`on_add` /
    :meth:`on_delete`); ``layout`` says how the engine's rows map to
    chunks."""

    __slots__ = (
        "schema",
        "chunk_size",
        "layout",
        "chunks",
        "_index",
        "_row_loc",
        "_scan_cache",
    )

    def __init__(self, schema: Sequence[str], chunk_size: int, layout: Layout) -> None:
        if chunk_size <= 0:
            raise ValueError("chunk stores need a positive chunk_size")
        self.schema: Tuple[str, ...] = tuple(schema)
        self.chunk_size = chunk_size
        self.layout = layout
        self.chunks: List[Chunk] = []
        self._index = {name: j for j, name in enumerate(self.schema)}
        self._row_loc: Dict[Tuple[Any, ...], Tuple[int, int]] = {}
        self._scan_cache = None

    @classmethod
    def build(cls, rel, chunk_size: int, layout: Layout) -> "ChunkStore":
        """The chunks of ``rel.rows`` in row order, packed column by
        column (:func:`~repro.exec.batch._pack_typed`)."""
        store = cls(rel.schema, chunk_size, layout)
        rows = list(rel.rows)
        payloads = list(rel.rows.values())
        n_cols = len(store.schema)
        for start in range(0, len(rows), chunk_size):
            block = rows[start : start + chunk_size]
            columns = [_pack_typed([t[j] for t in block]) for j in range(n_cols)]
            anns = [
                _int_column(col)
                for col in layout.ann_columns(payloads[start : start + chunk_size])
            ]
            zone = ChunkZone(n_cols)
            zone.rows = len(block)
            for j, col in enumerate(columns):
                _column_zone(zone, j, col, layout.cell)
            ci = len(store.chunks)
            store.chunks.append(
                Chunk(layout.batch_cls(store.schema, columns, *anns), zone)
            )
            store._row_loc.update(zip(block, zip(repeat(ci), count())))
        return store

    # -- write path ---------------------------------------------------
    def on_add(self, t: Tuple[Any, ...], stored: Any, is_new: bool) -> bool:
        """Fold one ``add`` of row ``t`` in; ``stored`` is the row's
        payload after it (``rows[t]``).  Returns ``False`` when the
        store could not stay consistent (the caller drops it)."""
        self._scan_cache = None
        if not is_new:
            loc = self._row_loc.get(t)
            if loc is None:
                return False
            self._set_ann(*loc, stored)
            return True
        if self.chunks and len(self.chunks[-1]) < self.chunk_size:
            ci = len(self.chunks) - 1
            ch = self.chunks[ci]
        else:
            ci = len(self.chunks)
            ch = Chunk(
                self.layout.batch_cls(
                    self.schema,
                    [[] for _ in self.schema],
                    *[array("q") for _ in self.layout.ann],
                ),
                ChunkZone(len(self.schema)),
            )
            self.chunks.append(ch)
        batch = ch.batch
        cols = batch.columns
        zone = ch.zone
        widen = zone.widen
        cell = self.layout.cell
        for j, v in enumerate(t):
            cols[j] = _append_demote(cols[j], v)
            lb, sg, ub = cell(v)
            widen(j, lb, ub)
            if sg is None:
                zone.nulls[j] += 1
        zone.rows += 1
        for name, (v,) in zip(self.layout.ann, self.layout.ann_columns((stored,))):
            setattr(batch, name, _append_demote(getattr(batch, name), v))
        self._row_loc[t] = (ci, len(batch) - 1)
        return True

    def on_delete(self, t: Tuple[Any, ...], stored: Any) -> bool:
        """Fold one ``delete`` of row ``t`` in; ``stored`` is the row's
        payload after it, ``None`` when the row is gone."""
        self._scan_cache = None
        loc = self._row_loc.get(t)
        if loc is None:
            return False
        ci, ri = loc
        if stored is not None:
            self._set_ann(ci, ri, stored)
            return True
        # exact counts, min/max left wide (see ChunkZone)
        ch = self.chunks[ci]
        zone = ch.zone
        cell = self.layout.cell
        for j, v in enumerate(t):
            if cell(v)[1] is None:
                zone.nulls[j] -= 1
        zone.rows -= 1
        batch = ch.batch
        for col in batch.columns:
            del col[ri]
        for name in self.layout.ann:
            del getattr(batch, name)[ri]
        del self._row_loc[t]
        if not len(ch):
            ch.zone = ChunkZone(len(self.schema))
        _relocate(self._row_loc, batch.columns, ci, ri)
        return True

    def _set_ann(self, ci: int, ri: int, stored: Any) -> None:
        """Overwrite row ``ri`` of chunk ``ci``'s annotation columns."""
        batch = self.chunks[ci].batch
        for name, (v,) in zip(self.layout.ann, self.layout.ann_columns((stored,))):
            setattr(batch, name, _set_demote(getattr(batch, name), ri, v))

    # -- read path ----------------------------------------------------
    def chunk_count(self) -> int:
        """Non-empty chunks (deletes may hollow a chunk out entirely)."""
        return sum(1 for ch in self.chunks if len(ch))

    def survivor_indices(
        self, skip: Optional[ChunkSkipPredicate]
    ) -> Tuple[List[int], int, int]:
        """Indices of chunks a scan must read:
        ``(kept_indices, total_nonempty, skipped)``."""
        kept: List[int] = []
        total = 0
        skipped = 0
        for ci, ch in enumerate(self.chunks):
            if not len(ch):
                continue
            total += 1
            if skip is not None and not _zone_allows(ch.zone, self._index, skip):
                skipped += 1
                continue
            kept.append(ci)
        _CHUNKS_SCANNED.inc(total - skipped)
        _CHUNKS_SKIPPED.inc(skipped)
        return kept, total, skipped

    def survivors(
        self, skip: Optional[ChunkSkipPredicate]
    ) -> Tuple[List[Chunk], int, int]:
        """Chunks a scan must read: ``(kept, total_nonempty, skipped)``."""
        kept, total, skipped = self.survivor_indices(skip)
        return [self.chunks[ci] for ci in kept], total, skipped

    def scan(self, skip: Optional[ChunkSkipPredicate] = None):
        """One batch of every surviving chunk: ``(batch, total, skipped)``.

        The concatenation is the one whole-table materialization left,
        so it charges the materialization budget; the unfiltered image
        is cached until the next write."""
        if skip is None and self._scan_cache is not None:
            batch, total = self._scan_cache
            return batch, total, 0
        batches, total, skipped = self.iter_batches(skip)
        charge_materialization(sum(map(len, batches)))
        batch = self.layout.batch_cls.concat(self.schema, batches)
        if skip is None:
            self._scan_cache = (batch, total)
        return batch, total, skipped

    def batch_for_chunks(self, indices: Sequence[int]):
        """Materialize the batch of an explicit chunk-index run.

        This is the worker half of chunk-spec morsel transport: a
        persistent pool ships only ``(table, chunk_size, indices)`` per
        morsel and the worker rebuilds the batch from its own
        (fork-inherited, same-epoch) store — chunk boundaries are
        deterministic for identical relation state, so the batch is
        bit-identical to the parent's."""
        batches = [self.chunks[ci].batch for ci in indices]
        return self.layout.batch_cls.concat(self.schema, batches)

    def iter_batches(
        self, skip: Optional[ChunkSkipPredicate] = None
    ) -> Tuple[List[Any], int, int]:
        """The batches of the chunks a scan must read, in order — the
        streamed form of :meth:`scan`: ``(batches, total, skipped)``."""
        kept, total, skipped = self.survivors(skip)
        return [ch.batch for ch in kept], total, skipped

    def morsel_chunk_groups(
        self, partitions: int, skip: Optional[ChunkSkipPredicate] = None
    ) -> Tuple[List[List[int]], List[int], int, int]:
        """Chunk-aligned morsels as index runs.

        Returns ``(index_groups, rows_per_group, total, skipped)``:
        contiguous runs of surviving chunk indices balanced to
        ≈ rows/partitions each, never splitting a chunk."""
        kept, total, skipped = self.survivor_indices(skip)
        sizes = [len(self.chunks[ci]) for ci in kept]
        groups = _group_runs(kept, sizes, partitions)
        it = iter(sizes)
        rows = [sum(next(it) for _ in g) for g in groups]
        return groups, rows, total, skipped

    def memory_footprint(self) -> int:
        """Resident bytes of the store's chunk payloads (see
        :func:`_col_bytes` for the accounting rules)."""
        total = 0
        for ch in self.chunks:
            batch = ch.batch
            total += sum(map(_col_bytes, batch.columns))
            total += sum(_col_bytes(getattr(batch, name)) for name in self.layout.ann)
        return total


def _group_runs(
    items: List[Any], sizes: List[int], partitions: int
) -> List[List[Any]]:
    """Split ``items`` into ≤ ``partitions`` contiguous runs balanced by
    ``sizes`` (rows per item); the morsel-alignment primitive."""
    rows = sum(sizes)
    if not items or partitions <= 1:
        return [list(items)]
    target = math.ceil(rows / partitions)
    groups: List[List[Any]] = []
    cur: List[Any] = []
    cur_rows = 0
    for it, sz in zip(items, sizes):
        cur.append(it)
        cur_rows += sz
        if cur_rows >= target and len(groups) < partitions - 1:
            groups.append(cur)
            cur = []
            cur_rows = 0
    if cur:
        groups.append(cur)
    return groups


def chunk_store(rel, chunk_size: Optional[int]) -> ChunkStore:
    """The relation's chunk store at ``chunk_size``, cached on its
    ``_chunk_cache`` slot (built on first use)."""
    size = resolve_chunk_size(chunk_size)
    cached = getattr(rel, "_chunk_cache", None)
    if cached is not None and cached.chunk_size == size:
        return cached
    store = ChunkStore.build(rel, size, AU if isinstance(rel, AURelation) else DET)
    _STORE_BUILDS.inc()
    _tm.annotate(store="built")
    try:
        rel._chunk_cache = store
    except AttributeError:
        pass  # duck-typed relation: usable for this scan, not cached
    return store


def storage_report(db, chunk_size: Optional[int] = None) -> Dict[str, int]:
    """Per-table chunk-store footprint in bytes for a Det or AU database.

    Calls each relation's ``memory_footprint`` (building the chunk store
    at ``chunk_size`` if the relation has none cached) and publishes the
    result to the ``repro_storage_bytes`` gauge, one series per table —
    the backing for the REPL's ``\\storage`` command.
    """
    report: Dict[str, int] = {}
    for name in sorted(db.relations):
        bytes_ = db.relations[name].memory_footprint(chunk_size)
        report[name] = bytes_
        _tm.get_registry().gauge(
            "repro_storage_bytes",
            "Resident bytes of a relation's chunked columnar store.",
            table=name,
        ).set(bytes_)
    return report

"""Paged chunked columnar storage with zone-map chunk skipping.

This module is the only columnar image of a base table: scans, streamed
selections and Exchange morsels all read fixed-size **column chunks**:

* :class:`DetChunkStore` — a :class:`~repro.db.storage.DetRelation`
  split into :class:`DetChunk` pages, each a small
  :class:`~repro.exec.batch.ColumnBatch` (typed-packed per chunk).
* :class:`AUChunkStore` — an :class:`~repro.core.relation.AURelation`
  split into :class:`AUChunk` pages: one column of
  :class:`~repro.core.ranges.RangeValue` cells per attribute (the
  compiled kernels read the three bounds through the cells), alongside
  the three ``K^AU`` annotation arrays.

Every chunk carries an incrementally-maintained :class:`ChunkZone`
("zone map"): per-column min/max keys in the universal domain order
(min over lower bounds, max over upper bounds), a null count, and a
certain-row count.  The zones are updated in place by the relations'
write paths (``DetRelation.add``/``delete`` and ``AURelation.add``/
``delete`` call :meth:`on_add`/:meth:`on_delete`), mirroring how
:class:`~repro.algebra.stats.StatsAccumulator` maintains catalog
statistics per write:

* appends and annotation/multiplicity merges *widen* the zone exactly;
* a delete decrements the row, null and certain counts exactly and
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
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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
from ..core.semirings import AUAnnotation
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
    "DetChunkStore",
    "AUChunkStore",
    "det_store",
    "au_store",
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
    """Per-chunk, per-column min/max/null/certain statistics.

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
        "certain",
        "enabled",
    )

    def __init__(self, n_cols: int) -> None:
        self.rows = 0
        self.min_keys: List[Optional[tuple]] = [None] * n_cols
        self.max_keys: List[Optional[tuple]] = [None] * n_cols
        self.nulls = [0] * n_cols
        self.certain = 0
        self.enabled = [True] * n_cols

    def certain_fraction(self) -> float:
        return 1.0 if not self.rows else self.certain / self.rows

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
# deterministic store
# ---------------------------------------------------------------------------


def _relocate(row_loc: Dict, columns: Sequence, ci: int, start: int) -> None:
    """Point the row locator at rows ``start..`` of chunk ``ci`` (after
    a delete shifted them down by one)."""
    tail = zip(*[col[start:] for col in columns])
    row_loc.update(zip(tail, zip(repeat(ci), count(start))))


class DetChunk:
    __slots__ = ("batch", "zone")

    def __init__(self, batch: ColumnBatch, zone: ChunkZone) -> None:
        self.batch = batch
        self.zone = zone

    def __len__(self) -> int:
        return len(self.batch)


class _BaseStore:
    """Shared plumbing: chunk registry, row locator, skip evaluation."""

    __slots__ = ("schema", "chunk_size", "chunks", "_index", "_row_loc", "_scan_cache")

    #: the batch class of the store's chunks
    batch_cls: Any = None

    def __init__(self, schema: Sequence[str], chunk_size: int) -> None:
        if chunk_size <= 0:
            raise ValueError("chunk stores need a positive chunk_size")
        self.schema: Tuple[str, ...] = tuple(schema)
        self.chunk_size = chunk_size
        self.chunks: List[Any] = []
        self._index = {name: j for j, name in enumerate(self.schema)}
        self._row_loc: Dict[Tuple[Any, ...], Tuple[int, int]] = {}
        self._scan_cache = None

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
    ) -> Tuple[List[Any], int, int]:
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
        batch = self.batch_cls.concat(self.schema, batches)
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
        chunks = [self._chunk_batch(self.chunks[ci]) for ci in indices]
        return self.batch_cls.concat(self.schema, chunks)

    def iter_batches(
        self, skip: Optional[ChunkSkipPredicate] = None
    ) -> Tuple[List[Any], int, int]:
        """The batches of the chunks a scan must read, in order — the
        streamed form of :meth:`scan`: ``(batches, total, skipped)``."""
        kept, total, skipped = self.survivors(skip)
        return [self._chunk_batch(ch) for ch in kept], total, skipped

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
        return sum(self._chunk_bytes(ch) for ch in self.chunks)

    def _chunk_bytes(self, ch) -> int:
        raise NotImplementedError

    def _chunk_batch(self, ch) -> Any:
        raise NotImplementedError

    def _reindex_tail(self, ci: int, start: int) -> None:
        raise NotImplementedError


class DetChunkStore(_BaseStore):
    """A ``DetRelation`` as fixed-size columnar chunks with zone maps."""

    __slots__ = ()
    batch_cls = ColumnBatch

    @classmethod
    def build(cls, rel, chunk_size: int) -> "DetChunkStore":
        store = cls(rel.schema, chunk_size)
        items = list(rel.rows.items())
        n_cols = len(store.schema)
        for start in range(0, len(items), chunk_size):
            block = items[start : start + chunk_size]
            if n_cols:
                columns = [
                    _pack_typed([t[j] for t, _m in block]) for j in range(n_cols)
                ]
            else:
                columns = []
            mult = array("q")
            try:
                for _t, m in block:
                    mult.append(m)
            except OverflowError:
                mult = [m for _t, m in block]
            chunk = DetChunk(ColumnBatch(store.schema, columns, mult), ChunkZone(n_cols))
            store._build_zone(chunk)
            ci = len(store.chunks)
            store.chunks.append(chunk)
            for ri, (t, _m) in enumerate(block):
                store._row_loc[t] = (ci, ri)
        return store

    # -- write path ---------------------------------------------------
    def on_add(self, t: Tuple[Any, ...], total_mult: int, is_new: bool) -> bool:
        """Fold one ``DetRelation.add`` into the store.  ``total_mult``
        is the row's resulting multiplicity.  Returns ``False`` when the
        store could not stay consistent (caller must drop it)."""
        self._scan_cache = None
        if not is_new:
            loc = self._row_loc.get(t)
            if loc is None:
                return False
            ci, ri = loc
            ch = self.chunks[ci]
            ch.batch.mult = _set_demote(ch.batch.mult, ri, total_mult)
            return True
        if self.chunks and len(self.chunks[-1]) < self.chunk_size:
            ci = len(self.chunks) - 1
            ch = self.chunks[ci]
        else:
            ci = len(self.chunks)
            ch = DetChunk(
                ColumnBatch(self.schema, [[] for _ in self.schema], array("q")),
                ChunkZone(len(self.schema)),
            )
            self.chunks.append(ch)
        cols = ch.batch.columns
        for j, v in enumerate(t):
            cols[j] = _append_demote(cols[j], v)
        ch.batch.mult = _append_demote(ch.batch.mult, total_mult)
        zone = ch.zone
        widen = zone.widen
        for j, v in enumerate(t):
            widen(j, v, v)
            if v is None:
                zone.nulls[j] += 1
        zone.rows += 1
        zone.certain += 1
        self._row_loc[t] = (ci, len(ch.batch) - 1)
        return True

    def on_delete(self, t: Tuple[Any, ...], remaining: int) -> bool:
        """Fold one ``DetRelation.delete`` in; ``remaining`` is the
        row's multiplicity after the delete (0 ⇒ the row is gone)."""
        self._scan_cache = None
        loc = self._row_loc.get(t)
        if loc is None:
            return False
        ci, ri = loc
        ch = self.chunks[ci]
        if remaining != 0:
            ch.batch.mult = _set_demote(ch.batch.mult, ri, remaining)
            return True
        # exact counts, min/max left wide (see ChunkZone)
        zone = ch.zone
        for j, v in enumerate(t):
            if v is None:
                zone.nulls[j] -= 1
        zone.rows -= 1
        zone.certain -= 1
        for col in ch.batch.columns:
            del col[ri]
        del ch.batch.mult[ri]
        del self._row_loc[t]
        if not len(ch):
            ch.zone = ChunkZone(len(self.schema))
        self._reindex_tail(ci, ri)
        return True

    def _reindex_tail(self, ci: int, start: int) -> None:
        _relocate(self._row_loc, self.chunks[ci].batch.columns, ci, start)

    def _build_zone(self, ch: DetChunk) -> None:
        """The exact zone of a freshly packed chunk, column by column:
        C-level ``min``/``max`` where they order the values as the
        domain order does (:func:`_extent_rank`), the per-value
        :meth:`ChunkZone.widen` walk for the rest."""
        n = len(ch.batch)
        zone = ChunkZone(len(self.schema))
        zone.rows = zone.certain = n
        for j, col in enumerate(ch.batch.columns):
            rank = _extent_rank(col)
            if rank is not None:
                zone.min_keys[j] = (rank, min(col))
                zone.max_keys[j] = (rank, max(col))
                continue
            for v in col:
                zone.widen(j, v, v)
                if v is None:
                    zone.nulls[j] += 1
        ch.zone = zone

    def _chunk_bytes(self, ch: DetChunk) -> int:
        batch = ch.batch
        return sum(_col_bytes(col) for col in batch.columns) + _col_bytes(
            batch.mult
        )

    def _chunk_batch(self, ch: DetChunk) -> ColumnBatch:
        return ch.batch


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


# ---------------------------------------------------------------------------
# AU store
# ---------------------------------------------------------------------------


class AUChunk:
    """One page of an AU-relation.

    ``rv_cols[j]`` keeps the original :class:`RangeValue` objects (the
    cells handed to the executors — object identity matters for
    NaN-free equality short-cuts elsewhere); the kernels read the three
    bounds through the cells, and the zone map is maintained from them
    on the write path, so no per-bound copy is kept.  The three
    ``ann_*`` arrays are the ``K^AU`` annotation components.
    """

    __slots__ = ("rv_cols", "ann_lb", "ann_sg", "ann_ub", "zone", "_batch")

    def __init__(self, n_cols: int) -> None:
        self.rv_cols: List[Any] = [[] for _ in range(n_cols)]
        self.ann_lb: Any = array("q")
        self.ann_sg: Any = array("q")
        self.ann_ub: Any = array("q")
        self.zone = ChunkZone(n_cols)
        self._batch: Optional[AUColumnBatch] = None

    def __len__(self) -> int:
        return len(self.ann_ub)

    def batch(self, schema: Tuple[str, ...]) -> AUColumnBatch:
        cached = self._batch
        if cached is None:
            cached = AUColumnBatch(
                schema, self.rv_cols, self.ann_lb, self.ann_sg, self.ann_ub
            )
            self._batch = cached
        return cached


class AUChunkStore(_BaseStore):
    """An ``AURelation`` as chunks of range-value columns with zone maps."""

    __slots__ = ()
    batch_cls = AUColumnBatch

    @classmethod
    def build(cls, rel, chunk_size: int) -> "AUChunkStore":
        store = cls(rel.schema, chunk_size)
        for t, ann in rel.tuples():
            store._append(t, ann)
        return store

    def _append(self, t: Tuple[RangeValue, ...], ann: AUAnnotation) -> None:
        if self.chunks and len(self.chunks[-1]) < self.chunk_size:
            ci = len(self.chunks) - 1
            ch = self.chunks[ci]
        else:
            ci = len(self.chunks)
            ch = AUChunk(len(self.schema))
            self.chunks.append(ch)
        ch._batch = None
        for j, rv in enumerate(t):
            ch.rv_cols[j].append(rv)
        ch.ann_lb = _append_demote(ch.ann_lb, ann[0])
        ch.ann_sg = _append_demote(ch.ann_sg, ann[1])
        ch.ann_ub = _append_demote(ch.ann_ub, ann[2])
        zone = ch.zone
        widen = zone.widen
        certain = True
        for j, rv in enumerate(t):
            widen(j, rv.lb, rv.ub)
            if rv.sg is None:
                zone.nulls[j] += 1
            if certain and not rv.is_certain:
                certain = False
        zone.rows += 1
        zone.certain += certain
        self._row_loc[t] = (ci, len(ch) - 1)

    # -- write path ---------------------------------------------------
    def on_add(self, t: Tuple[RangeValue, ...], total_ann: AUAnnotation, is_new: bool) -> bool:
        self._scan_cache = None
        if not is_new:
            loc = self._row_loc.get(t)
            if loc is None:
                return False
            ci, ri = loc
            ch = self.chunks[ci]
            ch.ann_lb = _set_demote(ch.ann_lb, ri, total_ann[0])
            ch.ann_sg = _set_demote(ch.ann_sg, ri, total_ann[1])
            ch.ann_ub = _set_demote(ch.ann_ub, ri, total_ann[2])
            ch._batch = None
            return True
        self._append(t, total_ann)
        return True

    def on_delete(
        self, t: Tuple[RangeValue, ...], remaining: Optional[AUAnnotation]
    ) -> bool:
        """``remaining`` is the post-delete annotation, ``None``/all-zero
        when the tuple is removed outright."""
        self._scan_cache = None
        loc = self._row_loc.get(t)
        if loc is None:
            return False
        ci, ri = loc
        ch = self.chunks[ci]
        ch._batch = None
        if remaining is not None and any(remaining):
            ch.ann_lb = _set_demote(ch.ann_lb, ri, remaining[0])
            ch.ann_sg = _set_demote(ch.ann_sg, ri, remaining[1])
            ch.ann_ub = _set_demote(ch.ann_ub, ri, remaining[2])
            return True
        # exact counts, min/max left wide (see ChunkZone)
        zone = ch.zone
        for j, rv in enumerate(t):
            if rv.sg is None:
                zone.nulls[j] -= 1
        zone.rows -= 1
        if all(rv.is_certain for rv in t):
            zone.certain -= 1
        for col in ch.rv_cols:
            del col[ri]
        del ch.ann_lb[ri]
        del ch.ann_sg[ri]
        del ch.ann_ub[ri]
        del self._row_loc[t]
        if not len(ch):
            ch.zone = ChunkZone(len(self.schema))
        self._reindex_tail(ci, ri)
        return True

    def _reindex_tail(self, ci: int, start: int) -> None:
        _relocate(self._row_loc, self.chunks[ci].rv_cols, ci, start)

    def _chunk_bytes(self, ch: AUChunk) -> int:
        total = sum(_col_bytes(col) for col in ch.rv_cols)
        total += _col_bytes(ch.ann_lb)
        total += _col_bytes(ch.ann_sg)
        total += _col_bytes(ch.ann_ub)
        return total

    def _chunk_batch(self, ch: AUChunk) -> AUColumnBatch:
        return ch.batch(self.schema)


# ---------------------------------------------------------------------------
# store accessors (cached on the relation's ``_chunk_cache`` slot)
# ---------------------------------------------------------------------------


def _store(cls, rel, chunk_size: Optional[int]):
    size = resolve_chunk_size(chunk_size)
    cached = getattr(rel, "_chunk_cache", None)
    if isinstance(cached, cls) and cached.chunk_size == size:
        return cached
    store = cls.build(rel, size)
    _STORE_BUILDS.inc()
    _tm.annotate(store="built")
    try:
        rel._chunk_cache = store
    except AttributeError:
        pass  # duck-typed relation: usable for this scan, not cached
    return store


def det_store(rel, chunk_size: Optional[int]) -> DetChunkStore:
    """The relation's chunk store at ``chunk_size`` (built on first use)."""
    return _store(DetChunkStore, rel, chunk_size)


def au_store(rel, chunk_size: Optional[int]) -> AUChunkStore:
    """The AU relation's chunk store at ``chunk_size`` (built on first use)."""
    return _store(AUChunkStore, rel, chunk_size)


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

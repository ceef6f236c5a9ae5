"""AU-relations, AU-databases, and the relational encoding of Section 10.1.

An :class:`AURelation` is a function from range-annotated tuples to
``K^AU`` annotations (Definition 12), realized as a dictionary from
:data:`~repro.core.tuples.AUTuple` to ``(lb, sg, ub)`` multiplicity
triples.  Tuples annotated ``(0,0,0)`` are absent.

The *selected-guess world* (SGW) encoded by an AU-relation is extracted by
grouping tuples on their SG attribute values and summing SG multiplicities
(Definition 13).

``encode`` / ``decode`` implement the flat relational encoding ``Enc`` /
``Dec`` used by the paper's middleware (Definition 29): each AU-tuple
becomes one wide deterministic row carrying ``A_sg, A_lb, A_ub`` per
attribute plus ``row_lb, row_sg, row_ub``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from .ranges import RangeValue, certain
from .semirings import AUAnnotation, au_add, au_is_valid
from .tuples import AUTuple, make_tuple, sg_tuple

__all__ = ["AURelation", "AUDatabase", "encode", "decode"]


class AURelation:
    """A bag-semantics ``N^AU``-relation.

    Parameters
    ----------
    schema:
        Attribute names, in order.
    rows:
        Optional mapping or iterable of ``(tuple, annotation)`` pairs.
        Tuples may contain plain values (lifted to certain ranges) or
        :class:`RangeValue` instances.
    """

    __slots__ = (
        "schema",
        "_rows",
        "stats_epoch",
        "_column_stats_cache",
        "_chunk_cache",
        "_stats_acc",
        "_delta_sinks",
    )

    def __init__(
        self,
        schema: Sequence[str],
        rows: Mapping[AUTuple, AUAnnotation]
        | Iterable[Tuple[Iterable[Any], AUAnnotation]]
        | None = None,
    ) -> None:
        self.schema: Tuple[str, ...] = tuple(schema)
        self._rows: Dict[AUTuple, AUAnnotation] = {}
        #: monotonically increasing write counter — every add() bumps it;
        #: databases sum it into their catalog epoch (repro.session)
        self.stats_epoch = 0
        # memoized per-column statistics (repro.algebra.stats), kept
        # current *incrementally* (_stats_acc) — operators treat
        # relations as immutable, so add() is the only mutation path
        self._column_stats_cache = None
        # chunked columnar store (repro.db.chunks.AUChunkStore) with
        # per-chunk zone maps; maintained in place by add()/delete()
        self._chunk_cache = None
        self._stats_acc = None
        # per-write delta observers (repro.ivm): callables
        # ``sink(tuple, annotation, sign)`` fired after the write is
        # applied, with sign +1 for add() and -1 for delete()
        self._delta_sinks = ()
        if rows is None:
            return
        items = rows.items() if isinstance(rows, Mapping) else rows
        for values, annotation in items:
            self.add(values, annotation)

    # ------------------------------------------------------------------
    # construction / mutation (builders only; operators treat as immutable)
    # ------------------------------------------------------------------
    def add(self, values: Iterable[Any], annotation: AUAnnotation) -> None:
        """Add ``annotation`` to the tuple built from ``values``.

        Value-equivalent tuples are merged by summing annotations, which
        keeps the relation a function (Definition 12).
        """
        annotation = tuple(annotation)  # type: ignore[assignment]
        if not au_is_valid(annotation):
            raise ValueError(
                f"invalid K^AU annotation {annotation!r}: need 0 <= lb <= sg <= ub"
            )
        if annotation == (0, 0, 0):
            return
        t = make_tuple(values)
        if len(t) != len(self.schema):
            raise ValueError(
                f"tuple arity {len(t)} does not match schema {self.schema}"
            )
        existing = self._rows.get(t)
        self._rows[t] = au_add(existing, annotation) if existing else annotation
        self.stats_epoch += 1
        store = self._chunk_cache
        if store is not None and not store.on_add(
            t, self._rows[t], existing is None
        ):
            self._chunk_cache = None
        if existing is None:
            # column statistics weight AU rows one-per-tuple, so only a
            # *new* tuple changes them; an annotation merge leaves the
            # value distribution (and hence the finalized snapshot) valid
            self._column_stats_cache = None
            if self._stats_acc is not None:
                self._stats_acc.observe(t, annotation)
        for sink in self._delta_sinks:
            sink(t, annotation, 1)

    def delete(self, values: Iterable[Any], annotation: AUAnnotation) -> None:
        """Subtract ``annotation`` from the tuple built from ``values``.

        Both the subtracted annotation and the remaining annotation must
        be valid ``K^AU`` triples (``0 <= lb <= sg <= ub``); a remainder
        of ``(0, 0, 0)`` removes the tuple.  Like the deterministic
        side, deletes advance the write epoch by 2 so delete-heavy
        streams re-trigger plan staleness at least as fast as inserts.
        """
        annotation = tuple(annotation)  # type: ignore[assignment]
        if not au_is_valid(annotation):
            raise ValueError(
                f"invalid K^AU annotation {annotation!r}: need 0 <= lb <= sg <= ub"
            )
        if annotation == (0, 0, 0):
            return
        t = make_tuple(values)
        existing = self._rows.get(t)
        if existing is None:
            raise ValueError(f"cannot delete absent tuple {t!r}")
        remaining = tuple(e - d for e, d in zip(existing, annotation))
        if min(remaining) < 0 or not au_is_valid(remaining):
            raise ValueError(
                f"cannot delete {annotation!r} from {existing!r}: "
                f"remainder {remaining!r} is not a valid K^AU annotation"
            )
        if remaining == (0, 0, 0):
            del self._rows[t]
        else:
            self._rows[t] = remaining  # type: ignore[assignment]
        self.stats_epoch += 2
        self._column_stats_cache = None
        store = self._chunk_cache
        if store is not None and not store.on_delete(
            t, None if remaining == (0, 0, 0) else remaining
        ):
            self._chunk_cache = None
        if remaining == (0, 0, 0) and self._stats_acc is not None:
            self._stats_acc.observe_delete(t, 1)
        for sink in self._delta_sinks:
            sink(t, annotation, -1)

    @classmethod
    def from_certain_rows(
        cls, schema: Sequence[str], rows: Iterable[Iterable[Any]]
    ) -> "AURelation":
        """Lift a deterministic bag of rows into a fully certain AU-relation."""
        rel = cls(schema)
        for row in rows:
            rel.add(row, (1, 1, 1))
        return rel

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def annotation(self, t: AUTuple) -> AUAnnotation:
        """``R(t)`` — the annotation of ``t`` (``(0,0,0)`` if absent)."""
        return self._rows.get(t, (0, 0, 0))

    def tuples(self) -> Iterator[Tuple[AUTuple, AUAnnotation]]:
        """Iterate over ``(tuple, annotation)`` pairs with non-zero annotation."""
        return iter(self._rows.items())

    def __iter__(self) -> Iterator[AUTuple]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, t: AUTuple) -> bool:
        return t in self._rows

    def attr_index(self, name: str) -> int:
        try:
            return self.schema.index(name)
        except ValueError:
            raise KeyError(
                f"attribute {name!r} not in schema {self.schema}"
            ) from None

    def row_as_dict(self, t: AUTuple) -> Dict[str, RangeValue]:
        """Valuation mapping attribute names to range values (for expressions)."""
        return dict(zip(self.schema, t))

    # ------------------------------------------------------------------
    # SGW extraction (Definition 13)
    # ------------------------------------------------------------------
    def selected_guess_world(self) -> Dict[Tuple[Any, ...], int]:
        """The deterministic bag ``R^sg`` encoded by this AU-relation."""
        world: Dict[Tuple[Any, ...], int] = {}
        for t, (_, sg, _) in self._rows.items():
            if sg == 0:
                continue
            key = sg_tuple(t)
            world[key] = world.get(key, 0) + sg
        return world

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def total_annotations(self) -> AUAnnotation:
        """Sum of all tuple annotations (bag cardinality bounds)."""
        total = (0, 0, 0)
        for ann in self._rows.values():
            total = au_add(total, ann)
        return total

    def memory_footprint(self, chunk_size: int | None = None) -> int:
        """Resident bytes of this relation's chunked columnar store.

        Builds (and caches) the :class:`~repro.db.chunks.AUChunkStore`
        at ``chunk_size`` if none is cached yet, then sums the chunk
        payloads: the ``RangeValue`` columns and the three ``K^AU``
        annotation arrays.
        """
        from ..db.chunks import au_store

        return au_store(self, chunk_size).memory_footprint()

    def __repr__(self) -> str:
        header = ", ".join(self.schema)
        lines = [f"AURelation({header}) [{len(self._rows)} tuples]"]
        for t, ann in sorted(
            self._rows.items(), key=lambda item: repr(item[0])
        )[:20]:
            vals = ", ".join(repr(v) for v in t)
            lines.append(f"  ({vals}) -> {ann}")
        if len(self._rows) > 20:
            lines.append(f"  ... {len(self._rows) - 20} more")
        return "\n".join(lines)

    def pretty(self, limit: int = 50) -> str:
        """Human-readable table rendering (used by examples)."""
        cols = [list(self.schema) + ["N^AU"]]
        for t, ann in list(self._rows.items())[:limit]:
            cols.append([repr(v) for v in t] + [repr(ann)])
        widths = [max(len(row[i]) for row in cols) for i in range(len(cols[0]))]
        lines = []
        for r, row in enumerate(cols):
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
            if r == 0:
                lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
        return "\n".join(lines)


class AUDatabase:
    """A named collection of AU-relations."""

    __slots__ = ("relations", "_epoch_base")

    def __init__(self, relations: Mapping[str, AURelation] | None = None) -> None:
        self.relations: Dict[str, AURelation] = dict(relations or {})
        self._epoch_base = 0

    @property
    def epoch(self) -> int:
        """Catalog epoch — see :attr:`repro.db.storage.DetDatabase.epoch`.

        Strictly increases on every ``AURelation.add`` and every
        ``db[name] = rel`` rebinding; the session layer keys plan-cache
        staleness on it.
        """
        return self._epoch_base + sum(
            rel.stats_epoch for rel in self.relations.values()
        )

    def __getitem__(self, name: str) -> AURelation:
        try:
            return self.relations[name]
        except KeyError:
            raise KeyError(
                f"relation {name!r} not found; have {sorted(self.relations)}"
            ) from None

    def __setitem__(self, name: str, rel: AURelation) -> None:
        previous = self.relations.get(name)
        # keep the epoch monotone even when the incoming relation's own
        # write counter is behind the one it replaces
        self._epoch_base += 1 + (
            previous.stats_epoch if previous is not None else 0
        )
        self.relations[name] = rel

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def selected_guess_world(self) -> Dict[str, Dict[Tuple[Any, ...], int]]:
        return {
            name: rel.selected_guess_world()
            for name, rel in self.relations.items()
        }


# ----------------------------------------------------------------------
# Relational encoding (Section 10.1)
# ----------------------------------------------------------------------
def encode(rel: AURelation) -> Tuple[Tuple[str, ...], List[Tuple[Any, ...]]]:
    """``Enc(R)``: flatten to wide deterministic rows.

    Schema layout per Definition 29 / Example 12:
    ``(A1_sg..An_sg, A1_lb..An_lb, A1_ub..An_ub, row_lb, row_sg, row_ub)``.
    """
    schema = (
        tuple(f"{a}_sg" for a in rel.schema)
        + tuple(f"{a}_lb" for a in rel.schema)
        + tuple(f"{a}_ub" for a in rel.schema)
        + ("row_lb", "row_sg", "row_ub")
    )
    rows = []
    for t, (lb, sg, ub) in rel.tuples():
        rows.append(
            tuple(v.sg for v in t)
            + tuple(v.lb for v in t)
            + tuple(v.ub for v in t)
            + (lb, sg, ub)
        )
    return schema, rows


def decode(
    schema: Sequence[str], rows: Iterable[Tuple[Any, ...]]
) -> AURelation:
    """``Dec``: inverse of :func:`encode`.

    ``schema`` is the *logical* AU schema (attribute names without the
    ``_sg/_lb/_ub`` suffixes); rows are wide tuples laid out as produced by
    :func:`encode`.  Value-equivalent rows are merged by summing their row
    annotations, matching ``Dec`` of Definition 29.
    """
    n = len(schema)
    rel = AURelation(schema)
    for row in rows:
        if len(row) != 3 * n + 3:
            raise ValueError(
                f"encoded row has arity {len(row)}, expected {3 * n + 3}"
            )
        sgs = row[0:n]
        lbs = row[n : 2 * n]
        ubs = row[2 * n : 3 * n]
        ann = (row[3 * n], row[3 * n + 1], row[3 * n + 2])
        values = [RangeValue(lb, sg, ub) for lb, sg, ub in zip(lbs, sgs, ubs)]
        rel.add(values, ann)
    return rel

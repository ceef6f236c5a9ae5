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

from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

from ..db.storage import Catalog, Relation
from .ranges import RangeValue, certain
from .semirings import AUAnnotation, au_add, au_is_valid
from .tuples import AUTuple, make_tuple, sg_tuple

__all__ = ["AURelation", "AUDatabase", "encode", "decode"]


class AURelation(Relation):
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

    __slots__ = ()

    rows: Dict[AUTuple, AUAnnotation]

    def __init__(
        self,
        schema: Sequence[str],
        rows: Mapping[AUTuple, AUAnnotation]
        | Iterable[Tuple[Iterable[Any], AUAnnotation]]
        | None = None,
    ) -> None:
        super().__init__(schema)
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
        existing = self.rows.get(t)
        self.rows[t] = au_add(existing, annotation) if existing else annotation
        if existing is None:
            # column statistics weight AU rows one-per-tuple, so only a
            # *new* tuple changes them; an annotation merge leaves the
            # value distribution (and hence the finalized snapshot) valid
            self._column_stats_cache = None
            if self._stats_acc is not None:
                self._stats_acc.observe(t, annotation)
        self._publish(t, annotation, 1, existing is None)

    def delete(self, values: Iterable[Any], annotation: AUAnnotation) -> None:
        """Subtract ``annotation`` from the tuple built from ``values``.

        Both the subtracted annotation and the remaining annotation must
        be valid ``K^AU`` triples (``0 <= lb <= sg <= ub``); a remainder
        of ``(0, 0, 0)`` removes the tuple.  Like the deterministic
        side, deletes advance the write epoch by 2
        (see :meth:`~repro.db.storage.Relation._publish`).
        """
        annotation = tuple(annotation)  # type: ignore[assignment]
        if not au_is_valid(annotation):
            raise ValueError(
                f"invalid K^AU annotation {annotation!r}: need 0 <= lb <= sg <= ub"
            )
        if annotation == (0, 0, 0):
            return
        t = make_tuple(values)
        existing = self.rows.get(t)
        if existing is None:
            raise ValueError(f"cannot delete absent tuple {t!r}")
        remaining = tuple(e - d for e, d in zip(existing, annotation))
        if min(remaining) < 0 or not au_is_valid(remaining):
            raise ValueError(
                f"cannot delete {annotation!r} from {existing!r}: "
                f"remainder {remaining!r} is not a valid K^AU annotation"
            )
        if remaining == (0, 0, 0):
            del self.rows[t]
            # as in add(): statistics weight AU rows one-per-tuple, so
            # only a tuple that leaves changes them
            self._column_stats_cache = None
            if self._stats_acc is not None:
                self._stats_acc.observe_delete(t, 1)
        else:
            self.rows[t] = remaining  # type: ignore[assignment]
        self._publish(t, annotation, -1, False)

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
        return self.rows.get(t, (0, 0, 0))

    def __contains__(self, t: AUTuple) -> bool:
        return t in self.rows

    def row_as_dict(self, t: AUTuple) -> Dict[str, RangeValue]:
        """Valuation mapping attribute names to range values (for expressions)."""
        return dict(zip(self.schema, t))

    # ------------------------------------------------------------------
    # SGW extraction (Definition 13)
    # ------------------------------------------------------------------
    def selected_guess_world(self) -> Dict[Tuple[Any, ...], int]:
        """The deterministic bag ``R^sg`` encoded by this AU-relation."""
        world: Dict[Tuple[Any, ...], int] = {}
        for t, (_, sg, _) in self.rows.items():
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
        for ann in self.rows.values():
            total = au_add(total, ann)
        return total

    def __repr__(self) -> str:
        header = ", ".join(self.schema)
        lines = [f"AURelation({header}) [{len(self.rows)} tuples]"]
        for t, ann in sorted(
            self.rows.items(), key=lambda item: repr(item[0])
        )[:20]:
            vals = ", ".join(repr(v) for v in t)
            lines.append(f"  ({vals}) -> {ann}")
        if len(self.rows) > 20:
            lines.append(f"  ... {len(self.rows) - 20} more")
        return "\n".join(lines)

    def pretty(self, limit: int = 50) -> str:
        """Human-readable table rendering (used by examples)."""
        cols = [list(self.schema) + ["N^AU"]]
        for t, ann in list(self.rows.items())[:limit]:
            cols.append([repr(v) for v in t] + [repr(ann)])
        widths = [max(len(row[i]) for row in cols) for i in range(len(cols[0]))]
        lines = []
        for r, row in enumerate(cols):
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
            if r == 0:
                lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
        return "\n".join(lines)


class AUDatabase(Catalog[AURelation]):
    """A named collection of AU-relations (epoch: see
    :attr:`repro.db.storage.Catalog.epoch`)."""

    __slots__ = ()

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

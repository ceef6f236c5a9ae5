"""Deterministic bag-semantics relations — the "classical database" substrate.

This stands in for the PostgreSQL backend of the paper's middleware: the
selected-guess baseline (``Det``/SGQP) runs directly on these relations,
and the ground-truth oracle evaluates queries in every possible world over
them.

A :class:`DetRelation` is a named schema plus a bag ``dict[tuple, int]``
(tuple -> multiplicity), i.e. an ``N``-relation in the paper's K-relation
terminology.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

__all__ = ["DetRelation", "DetDatabase"]


class DetRelation:
    """An ``N``-relation: bag of tuples with multiplicities."""

    __slots__ = (
        "schema",
        "rows",
        "stats_epoch",
        "_column_stats_cache",
        "_chunk_cache",
        "_stats_acc",
        "_delta_sinks",
    )

    def __init__(
        self,
        schema: Sequence[str],
        rows: Mapping[Tuple[Any, ...], int]
        | Iterable[Tuple[Any, ...]]
        | None = None,
    ) -> None:
        self.schema: Tuple[str, ...] = tuple(schema)
        self.rows: Dict[Tuple[Any, ...], int] = {}
        #: monotonically increasing write counter — every add() bumps it;
        #: databases sum it into their catalog epoch, which keys the
        #: session layer's plan cache (repro.session)
        self.stats_epoch = 0
        # memoized per-column statistics (repro.algebra.stats).  add()
        # and delete() drop the finalized stats snapshot but keep the
        # incremental accumulator (_stats_acc) current, so the next
        # harvest never rescans — mutate through them only, as documented
        self._column_stats_cache = None
        # chunked columnar store (repro.db.chunks.DetChunkStore) with
        # per-chunk zone maps; maintained in place by add()/delete()
        self._chunk_cache = None
        self._stats_acc = None
        # per-write delta observers (repro.ivm): callables
        # ``sink(tuple, multiplicity, sign)`` fired after the write is
        # applied, with sign +1 for add() and -1 for delete()
        self._delta_sinks = ()
        if rows is None:
            return
        if isinstance(rows, Mapping):
            for t, m in rows.items():
                self.add(t, m)
        else:
            for t in rows:
                self.add(tuple(t), 1)

    def add(self, t: Tuple[Any, ...], multiplicity: int = 1) -> None:
        if multiplicity < 0:
            raise ValueError("multiplicities must be non-negative")
        if multiplicity == 0:
            return
        t = tuple(t)
        if len(t) != len(self.schema):
            raise ValueError(
                f"arity {len(t)} does not match schema {self.schema}"
            )
        existing = self.rows.get(t)
        self.rows[t] = (existing or 0) + multiplicity
        self.stats_epoch += 1
        self._column_stats_cache = None
        store = self._chunk_cache
        if store is not None and not store.on_add(
            t, self.rows[t], existing is None
        ):
            self._chunk_cache = None
        if self._stats_acc is not None:
            # incremental statistics: fold the delta multiplicity in
            # instead of invalidating the whole harvest
            self._stats_acc.observe(t, multiplicity)
        for sink in self._delta_sinks:
            sink(t, multiplicity, 1)

    def delete(self, t: Tuple[Any, ...], multiplicity: int = 1) -> None:
        """Remove ``multiplicity`` copies of ``t`` from the bag.

        Deleting more copies than present raises ``ValueError`` (bags
        hold non-negative multiplicities).  Deletes advance the write
        epoch by 2 — one for the write itself and one for the statistics
        shrinkage an insert cannot cause — so delete-heavy streams hit
        the session layer's staleness threshold at least as fast as
        insert streams do.
        """
        if multiplicity < 0:
            raise ValueError("multiplicities must be non-negative")
        if multiplicity == 0:
            return
        t = tuple(t)
        current = self.rows.get(t, 0)
        if multiplicity > current:
            raise ValueError(
                f"cannot delete {multiplicity} of {t!r}: multiplicity is {current}"
            )
        remaining = current - multiplicity
        if remaining:
            self.rows[t] = remaining
        else:
            del self.rows[t]
        self.stats_epoch += 2
        self._column_stats_cache = None
        store = self._chunk_cache
        if store is not None and not store.on_delete(t, remaining):
            self._chunk_cache = None
        if self._stats_acc is not None:
            self._stats_acc.observe_delete(t, multiplicity)
        for sink in self._delta_sinks:
            sink(t, multiplicity, -1)

    def multiplicity(self, t: Tuple[Any, ...]) -> int:
        return self.rows.get(tuple(t), 0)

    def attr_index(self, name: str) -> int:
        try:
            return self.schema.index(name)
        except ValueError:
            raise KeyError(
                f"attribute {name!r} not in schema {self.schema}"
            ) from None

    def tuples(self) -> Iterator[Tuple[Tuple[Any, ...], int]]:
        return iter(self.rows.items())

    def total_rows(self) -> int:
        """Bag cardinality (sum of multiplicities)."""
        return sum(self.rows.values())

    def memory_footprint(self, chunk_size: int | None = None) -> int:
        """Resident bytes of this relation's chunked columnar store.

        Builds (and caches) the chunk store at ``chunk_size`` if the
        relation has none yet, then sums the per-chunk column payloads —
        typed array buffers exactly, object columns as pointer vector
        plus per-element headers.
        """
        from .chunks import det_store

        return det_store(self, chunk_size).memory_footprint()

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.rows)

    # NOTE: relations deliberately use *identity* equality and hashing.
    # An earlier revision defined value-based __eq__ next to an identity
    # __hash__, which broke the eq/hash contract: two value-equal
    # relations could land in different dict buckets, so relations were
    # unsafe as dict/cache keys (the session layer keys caches by
    # relation identity).  Value comparison is explicit now:
    # ``same_contents`` or compare ``.schema``/``.rows`` directly.
    def same_contents(self, other: "DetRelation") -> bool:
        """Value comparison: same schema and same bag of rows."""
        return self.schema == other.schema and self.rows == other.rows

    def __repr__(self) -> str:
        header = ", ".join(self.schema)
        lines = [f"DetRelation({header}) [{len(self.rows)} distinct]"]
        for t, m in sorted(self.rows.items(), key=lambda i: repr(i[0]))[:20]:
            lines.append(f"  {t} x{m}")
        if len(self.rows) > 20:
            lines.append(f"  ... {len(self.rows) - 20} more")
        return "\n".join(lines)

    def as_bag(self) -> Dict[Tuple[Any, ...], int]:
        return dict(self.rows)


class DetDatabase:
    """A named collection of deterministic relations."""

    __slots__ = ("relations", "_epoch_base")

    def __init__(self, relations: Mapping[str, DetRelation] | None = None) -> None:
        self.relations: Dict[str, DetRelation] = dict(relations or {})
        self._epoch_base = 0

    @property
    def epoch(self) -> int:
        """Catalog epoch: a monotonically increasing write version.

        Sums the per-relation write counters plus a database-level
        counter bumped on relation (re)binding, so *any* write through
        the supported mutation paths — ``DetRelation.add`` or
        ``db[name] = rel`` — strictly increases it.  The session layer
        (:mod:`repro.session`) keys its plan cache and staleness checks
        on this value.  Mutating ``db.relations`` directly bypasses the
        versioning (as it bypasses every cache); don't.
        """
        return self._epoch_base + sum(
            rel.stats_epoch for rel in self.relations.values()
        )

    def __getitem__(self, name: str) -> DetRelation:
        try:
            return self.relations[name]
        except KeyError:
            raise KeyError(
                f"relation {name!r} not found; have {sorted(self.relations)}"
            ) from None

    def __setitem__(self, name: str, rel: DetRelation) -> None:
        previous = self.relations.get(name)
        # keep the epoch monotone even when the incoming relation's own
        # write counter is behind the one it replaces
        self._epoch_base += 1 + (
            previous.stats_epoch if previous is not None else 0
        )
        self.relations[name] = rel

    def __contains__(self, name: str) -> bool:
        return name in self.relations

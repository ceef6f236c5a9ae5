"""Deterministic bag-semantics relations — the "classical database" substrate.

This stands in for the PostgreSQL backend of the paper's middleware: the
selected-guess baseline (``Det``/SGQP) runs directly on these relations,
and the ground-truth oracle evaluates queries in every possible world over
them.

A :class:`DetRelation` is a named schema plus a bag ``dict[tuple, int]``
(tuple -> multiplicity), i.e. an ``N``-relation in the paper's K-relation
terminology.  It shares the write-side bookkeeping of :class:`Relation`
(epoch, chunk store, delta sinks) and the :class:`Catalog` database base
with the AU engine's :mod:`repro.core.relation`.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
    Tuple,
    TypeVar,
)

__all__ = ["Relation", "Catalog", "DetRelation", "DetDatabase"]


class Relation:
    """What the relations of both engines keep beside their rows.

    ``rows`` maps each row to its payload: a multiplicity
    (:class:`DetRelation`) or a ``K^AU`` annotation
    (:class:`~repro.core.relation.AURelation`).  Each engine's ``add`` /
    ``delete`` validates the write, applies it to ``rows``, weighs it
    into the statistics and ends with :meth:`_publish`, which keeps the
    rest current: the write epoch, the chunk store and the delta sinks.
    ``add`` / ``delete`` are the only mutation paths.
    """

    __slots__ = (
        "schema",
        "rows",
        "stats_epoch",
        "_column_stats_cache",
        "_chunk_cache",
        "_stats_acc",
        "_delta_sinks",
    )

    def __init__(self, schema: Sequence[str]) -> None:
        self.schema: Tuple[str, ...] = tuple(schema)
        self.rows: Dict[Tuple[Any, ...], Any] = {}
        #: monotonically increasing write counter — every write bumps
        #: it; databases sum it into their catalog epoch, which keys the
        #: session layer's plan cache (repro.session)
        self.stats_epoch = 0
        # memoized per-column statistics (repro.algebra.stats): a write
        # drops the finalized snapshot when it changes the weighted value
        # distribution, but keeps the incremental accumulator
        # (_stats_acc) current, so the next harvest never rescans
        self._column_stats_cache = None
        # chunked columnar store (repro.db.chunks.ChunkStore) with
        # per-chunk zone maps; maintained in place by _publish()
        self._chunk_cache: Any = None
        self._stats_acc: Any = None
        # per-write delta observers (repro.ivm, the telemetry event
        # log): callables ``sink(tuple, payload, sign)`` fired after the
        # write is applied, with the written multiplicity or annotation
        # and sign +1 for add() and -1 for delete()
        self._delta_sinks: Tuple[Callable[[Any, Any, int], None], ...] = ()

    def _publish(self, t: Tuple[Any, ...], delta: Any, sign: int, is_new: bool) -> None:
        """Finish a write of ``delta`` to row ``t`` that ``rows``
        already holds: bump the write epoch (a delete by 2, one for the
        write and one for the statistics shrinkage an insert cannot
        cause, so delete-heavy streams reach the session layer's
        staleness threshold at least as fast as inserts), fold the
        row's new payload into the chunk store, and fire the sinks."""
        self.stats_epoch += 1 if sign > 0 else 2
        store = self._chunk_cache
        if store is not None:
            stored = self.rows.get(t)
            kept = (
                store.on_add(t, stored, is_new)
                if sign > 0
                else store.on_delete(t, stored)
            )
            if not kept:
                self._chunk_cache = None
        for sink in self._delta_sinks:
            sink(t, delta, sign)

    def attach_sink(self, sink: Callable[[Any, Any, int], None]) -> None:
        """Call ``sink(t, payload, sign)`` after every later write."""
        self._delta_sinks = self._delta_sinks + (sink,)

    def detach_sink(self, sink: Callable[[Any, Any, int], None]) -> None:
        self._delta_sinks = tuple(s for s in self._delta_sinks if s is not sink)

    def attr_index(self, name: str) -> int:
        try:
            return self.schema.index(name)
        except ValueError:
            raise KeyError(
                f"attribute {name!r} not in schema {self.schema}"
            ) from None

    def tuples(self) -> Iterator[Tuple[Tuple[Any, ...], Any]]:
        """``(row, payload)`` pairs, in insertion order."""
        return iter(self.rows.items())

    def memory_footprint(self, chunk_size: int | None = None) -> int:
        """Resident bytes of this relation's chunked columnar store.

        Builds (and caches) the chunk store at ``chunk_size`` if the
        relation has none yet, then sums the per-chunk column payloads —
        typed array buffers exactly, object columns as pointer vector
        plus per-element headers.
        """
        from .chunks import chunk_store

        return chunk_store(self, chunk_size).memory_footprint()

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.rows)


class DetRelation(Relation):
    """An ``N``-relation: bag of tuples with multiplicities."""

    __slots__ = ()

    rows: Dict[Tuple[Any, ...], int]

    def __init__(
        self,
        schema: Sequence[str],
        rows: Mapping[Tuple[Any, ...], int]
        | Iterable[Tuple[Any, ...]]
        | None = None,
    ) -> None:
        super().__init__(schema)
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
        self._column_stats_cache = None
        if self._stats_acc is not None:
            # incremental statistics: fold the delta multiplicity in
            # instead of invalidating the whole harvest
            self._stats_acc.observe(t, multiplicity)
        self._publish(t, multiplicity, 1, existing is None)

    def delete(self, t: Tuple[Any, ...], multiplicity: int = 1) -> None:
        """Remove ``multiplicity`` copies of ``t`` from the bag.

        Deleting more copies than present raises ``ValueError`` (bags
        hold non-negative multiplicities).  Deletes advance the write
        epoch by 2 (see :meth:`Relation._publish`).
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
        self._column_stats_cache = None
        if self._stats_acc is not None:
            self._stats_acc.observe_delete(t, multiplicity)
        self._publish(t, multiplicity, -1, False)

    def multiplicity(self, t: Tuple[Any, ...]) -> int:
        return self.rows.get(tuple(t), 0)

    def total_rows(self) -> int:
        """Bag cardinality (sum of multiplicities)."""
        return sum(self.rows.values())

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


R = TypeVar("R", bound=Relation)


class Catalog(Generic[R]):
    """A named collection of relations with a write epoch."""

    __slots__ = ("relations", "_epoch_base")

    def __init__(self, relations: Mapping[str, R] | None = None) -> None:
        self.relations: Dict[str, R] = dict(relations or {})
        self._epoch_base = 0

    @property
    def epoch(self) -> int:
        """Catalog epoch: a monotonically increasing write version.

        Sums the per-relation write counters plus a database-level
        counter bumped on relation (re)binding, so *any* write through
        the supported mutation paths — a relation's ``add`` / ``delete``
        or ``db[name] = rel`` — strictly increases it.  The session layer
        (:mod:`repro.session`) keys its plan cache and staleness checks
        on this value.  Mutating ``db.relations`` directly bypasses the
        versioning (as it bypasses every cache); don't.
        """
        return self._epoch_base + sum(
            rel.stats_epoch for rel in self.relations.values()
        )

    def __getitem__(self, name: str) -> R:
        try:
            return self.relations[name]
        except KeyError:
            raise KeyError(
                f"relation {name!r} not found; have {sorted(self.relations)}"
            ) from None

    def __setitem__(self, name: str, rel: R) -> None:
        previous = self.relations.get(name)
        # keep the epoch monotone even when the incoming relation's own
        # write counter is behind the one it replaces
        self._epoch_base += 1 + (
            previous.stats_epoch if previous is not None else 0
        )
        self.relations[name] = rel

    def __contains__(self, name: str) -> bool:
        return name in self.relations


class DetDatabase(Catalog[DetRelation]):
    """A named collection of deterministic relations."""

    __slots__ = ()

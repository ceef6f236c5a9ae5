"""Per-column statistics and selectivity estimation for the cost-based optimizer.

The plan optimizer of PR 1 knew one number per table (its cardinality),
which is enough to order a greedy join but not to compare join *trees*.
This module supplies the attribute-level information the DP enumerator in
:mod:`repro.algebra.optimizer` costs plans with:

* :class:`ColumnStats` — distinct count, min/max bounds, null fraction,
  uncertain fraction, average range width, and (for numeric columns) an
  equi-width :class:`Histogram` of one column;
* :func:`harvest_column_stats` — one-pass harvesting from either storage
  layer.  Deterministic relations (:class:`~repro.db.storage.DetRelation`)
  contribute exact values; AU-relations
  (:class:`~repro.core.relation.AURelation`) summarize their
  range-annotated values (min over lower bounds, max over upper bounds,
  distinct over selected-guess values) so the same catalog drives
  planning for both engines;
* :func:`predicate_selectivity` / :func:`equi_join_selectivity` —
  System-R style estimates derived from those columns.  Estimates are
  always clamped to ``[0, 1]``; on key–foreign-key equi-joins with
  uniform distinct counts the join-size estimate
  ``|R|·|S| / max(d_R, d_S)`` is exact.

Uncertainty awareness: a predicate over an uncertain attribute cannot
soundly drop the tuple (the AU engine keeps every *possibly* matching
row), so atom selectivities are inflated by the column's uncertain
fraction — deterministic columns (uncertain fraction 0) are unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain
from typing import Any, Dict, List, Mapping, Optional, Tuple

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
    Or,
    Var,
)
from ..core.ranges import RangeValue, domain_key, order_key
from ..core.sums import exact_sum
from .. import telemetry as _tm

# process-wide accumulator counters (repro.telemetry registry): rows
# folded into the incremental statistics, and relations scanned to build
# their accumulator — once each, at the first harvest (the harvests
# after it are maintained by the writes and never rescan)
_OBSERVES = _tm.get_registry().counter(
    "repro_stats_observes_total",
    "Rows folded into incremental statistics accumulators.",
)
_FIRST_BUILDS = _tm.get_registry().counter(
    "repro_stats_rescans_total",
    "Statistics harvests that scanned a relation to build its accumulator.",
    reason="no_accumulator",
)

__all__ = [
    "ColumnStats",
    "Histogram",
    "StatsAccumulator",
    "harvest_column_stats",
    "predicate_selectivity",
    "equi_join_selectivity",
    "adaptive_morsel_count",
    "DEFAULT_SELECTIVITY",
    "HISTOGRAM_BUCKETS",
    "MORSEL_TARGET_ROWS",
]

#: Rows of driver-scan input one parallel morsel should carry: small
#: enough for load balancing across workers, large enough that per-
#: morsel fork/merge overhead stays negligible.
MORSEL_TARGET_ROWS = 2048.0


def adaptive_morsel_count(
    cardinality: float,
    parallelism: int,
    target_rows: float = MORSEL_TARGET_ROWS,
) -> int:
    """Morsel count for a parallel region, from catalog cardinalities.

    Splitting a small driver table into ``parallelism`` morsels buys
    nothing but fork and merge overhead; this sizes the region to
    ``⌈cardinality / target_rows⌉`` morsels, clamped to ``[2,
    parallelism]`` (an :class:`~repro.exec.physical.Exchange` region
    needs at least two morsels to exist at all).
    """
    if parallelism <= 1:
        return max(1, parallelism)
    if target_rows <= 0:
        return parallelism
    want = math.ceil(max(0.0, cardinality) / target_rows)
    return int(max(2, min(parallelism, want)))

#: Fallback selectivity for predicates the estimator cannot analyze —
#: matches the pre-catalog heuristic of one third of the input surviving.
DEFAULT_SELECTIVITY = 1.0 / 3.0

#: Equi-width bucket count harvested per numeric column.
HISTOGRAM_BUCKETS = 16

@dataclass(frozen=True)
class Histogram:
    """Equi-width histogram over a numeric column.

    ``counts[i]`` is the (multiplicity-weighted) number of values in the
    ``i``-th of ``len(counts)`` equal-width buckets spanning
    ``[lo, hi]``.  Built over the selected-guess values of a column, so
    the same histogram prices range predicates for both engines (the
    uncertain-fraction inflation in :func:`predicate_selectivity`
    accounts for range-annotated values separately).
    """

    lo: float
    hi: float
    counts: Tuple[int, ...]

    @classmethod
    def build(
        cls, values: List[Any], buckets: int = HISTOGRAM_BUCKETS
    ) -> Optional["Histogram"]:
        """Build from weighted ``(value, weight)`` pairs.

        Returns ``None`` for degenerate inputs (no values, a single
        point, or a span ``hi - lo`` beyond the double range — min/max
        logic handles those better).
        """
        if not values:
            return None
        lo = min(v for v, _w in values)
        hi = max(v for v, _w in values)
        span = hi - lo  # inf when it leaves the double range
        if not math.isfinite(span) or span <= 0:
            return None
        counts = [0] * buckets
        scale = buckets / span
        top = buckets - 1
        for v, w in values:
            i = int((v - lo) * scale)
            counts[i if i < top else top] += w
        return cls(float(lo), float(hi), tuple(counts))

    @property
    def total(self) -> int:
        return sum(self.counts)

    def fraction_below(self, c: float) -> float:
        """Estimated fraction of values ``<= c`` (continuous
        approximation: linear interpolation inside the bucket containing
        ``c``, so strict vs non-strict comparisons price the same)."""
        if c <= self.lo:
            return 0.0
        if c >= self.hi:
            return 1.0
        total = self.total
        if total <= 0:
            return 0.0
        width = (self.hi - self.lo) / len(self.counts)
        position = (c - self.lo) / width
        full = int(position)
        below = sum(self.counts[:full])
        if full < len(self.counts):
            below += self.counts[full] * (position - full)
        return min(1.0, max(0.0, below / total))

    def fingerprint(self) -> tuple:
        return (self.lo, self.hi, self.counts)


@dataclass(frozen=True)
class ColumnStats:
    """Summary statistics of a single column.

    ``count`` is the number of rows observed (bag cardinality for
    deterministic relations, tuple count for AU-relations — matching how
    :class:`~repro.algebra.optimizer.Statistics` counts table rows).
    ``min_value`` / ``max_value`` are the extreme *bounds* under the
    universal domain order: for AU columns the minimum lower bound and
    maximum upper bound, so every possible value of the column falls in
    ``[min_value, max_value]``.  ``distinct`` counts distinct non-null
    (selected-guess) values.  ``avg_width`` is the mean numeric range
    width (0 for deterministic columns).
    """

    count: int = 0
    distinct: int = 0
    min_value: Any = None
    max_value: Any = None
    null_fraction: float = 0.0
    uncertain_fraction: float = 0.0
    avg_width: float = 0.0
    #: equi-width histogram over the column's numeric SG values (bools
    #: as 0 / 1), or ``None`` for non-numeric / degenerate columns
    #: (range predicates then fall back to min/max interpolation)
    histogram: Optional[Histogram] = None

    def scaled(self, selectivity: float) -> "ColumnStats":
        """Statistics after a filter keeping ``selectivity`` of the rows.

        Distinct values shrink proportionally (uniformity assumption) but
        never below 1 while rows remain; bounds, fractions, and the
        histogram are kept — conservative, since a filter on *another*
        column approximately preserves this column's value distribution.
        """
        s = min(1.0, max(0.0, selectivity))
        count = int(math.ceil(self.count * s))
        distinct = min(self.distinct, max(1, int(math.ceil(self.distinct * s))))
        if count == 0:
            distinct = 0
        return replace(self, count=count, distinct=distinct)

    def capped(self, rows: float) -> "ColumnStats":
        """Cap the distinct count at an output cardinality estimate."""
        limit = max(1, int(rows))
        if self.distinct <= limit:
            return self
        return replace(self, distinct=limit)

    def fingerprint(self) -> tuple:
        """A hashable that is equal for equal statistics: the bounds go
        in as their :func:`~repro.core.ranges.order_key`, so ``True``,
        ``1`` and ``1.0`` agree (``==`` does) and every NaN ties."""
        return (
            self.count,
            self.distinct,
            order_key(self.min_value),
            order_key(self.max_value),
            round(self.null_fraction, 9),
            round(self.uncertain_fraction, 9),
            round(self.avg_width, 9),
            self.histogram.fingerprint() if self.histogram else None,
        )


# ----------------------------------------------------------------------
# harvesting (one-pass initial scan + incremental maintenance)
# ----------------------------------------------------------------------
class StatsAccumulator:
    """Incrementally maintained harvest state for one relation.

    The first harvest feeds every tuple through :meth:`observe`; after
    that the storage layers keep the accumulator current by observing
    each write (``add`` → :meth:`observe`, ``delete`` →
    :meth:`observe_delete`).  Every quantity is a *counted* one, so a
    write of ``Δ`` costs O(|Δ|) in either direction and never needs a
    recomputation:

    * counters — rows, nulls, uncertain cells, cells of finite width,
      and cells whose SG value has no histogram bucket (non-numbers,
      NaN) — per column;
    * one counted map ``{SG value: weight}`` per column, plus, for AU
      columns, counted maps over the ``lb`` / ``ub`` of the *uncertain*
      cells only (a certain cell has ``lb = sg = ub``) and over the
      finite non-zero widths.

    The maps are keyed by the raw value.  For the engine's value types
    (``bool``, ``int``, ``float``, ``str``) that counts the same classes
    as :func:`~repro.core.ranges.domain_key`: ``1``, ``1.0`` and
    ``True`` are one dict key exactly as they are one domain key.

    :meth:`finalize` derives the rest from the maps: ``distinct`` is
    the SG map's length, ``min_value`` / ``max_value`` the extremes
    under :func:`~repro.core.ranges.domain_key` of the SG keys with the
    ``lb`` (``ub``) keys, the histogram :meth:`Histogram.build` over
    the SG map's items, and ``avg_width`` an exact (order-free) sum.
    So the snapshot equals a from-scratch harvest of the same rows
    after any interleaving of inserts and deletes
    (``tests/test_stats.py`` holds Hypothesis properties to that
    effect).
    """

    __slots__ = (
        "schema", "total", "nulls", "uncertain", "width_n", "unbinned",
        "sgs", "lbs", "ubs", "widths",
    )

    def __init__(self, schema) -> None:
        self.schema = tuple(schema)
        n = len(self.schema)
        self.total = 0
        self.nulls = [0] * n
        self.uncertain = [0] * n
        self.width_n = [0] * n
        self.unbinned = [0] * n
        self.sgs: List[Dict[Any, int]] = [{} for _ in range(n)]
        self.lbs: List[Dict[Any, int]] = [{} for _ in range(n)]
        self.ubs: List[Dict[Any, int]] = [{} for _ in range(n)]
        self.widths: List[Dict[float, int]] = [{} for _ in range(n)]

    def observe(self, t, annotation) -> None:
        """Fold one stored row into the running statistics.

        ``annotation`` is an integer multiplicity (deterministic
        storage; the *delta* being added, so duplicate-row adds fold
        correctly) or an ``(lb, sg, ub)`` triple (AU storage — counted
        as one tuple, and only for tuples not previously present:
        annotation merges leave the value distribution untouched).
        """
        _OBSERVES.inc()
        self._fold(t, 1 if isinstance(annotation, tuple) else annotation)

    def observe_delete(self, t, weight: int) -> None:
        """Fold ``weight`` copies of a deleted row out of the running
        statistics (1 for an AU tuple removal)."""
        self._fold(t, -weight)

    def _fold(self, t, weight: int) -> None:
        self.total += weight
        for i, value in enumerate(t):
            if isinstance(value, RangeValue):
                sg = value.sg
                w = value.width()
                if math.isfinite(w):
                    self.width_n[i] += weight
                    if w:
                        _bump(self.widths[i], w, weight)
                if not value.is_certain:
                    self.uncertain[i] += weight
                    if sg is not None:
                        _bump(self.lbs[i], value.lb, weight)
                        _bump(self.ubs[i], value.ub, weight)
            else:
                sg = value
                self.width_n[i] += weight
            if sg is None:
                self.nulls[i] += weight
                continue
            # bools bin as the numbers 0 / 1 (domain_key's rank): every
            # member of an == class (1, 1.0, True) bins alike, whichever
            # one the caller passes and storage keeps
            if not (isinstance(sg, (int, float)) and sg == sg):
                self.unbinned[i] += weight
            _bump(self.sgs[i], sg, weight)

    def finalize(self) -> Dict[str, ColumnStats]:
        """Snapshot the running state into per-column :class:`ColumnStats`."""
        total = self.total
        out: Dict[str, ColumnStats] = {}
        for i, name in enumerate(self.schema):
            sgs = self.sgs[i]
            lo = hi = None
            if sgs:
                lo = min(chain(sgs, self.lbs[i]), key=domain_key)
                hi = max(chain(sgs, self.ubs[i]), key=domain_key)
            out[name] = ColumnStats(
                count=total,
                distinct=len(sgs),
                min_value=lo,
                max_value=hi,
                null_fraction=self.nulls[i] / total if total else 0.0,
                uncertain_fraction=(
                    self.uncertain[i] / total if total else 0.0
                ),
                avg_width=(
                    exact_sum(self.widths[i].items()) / self.width_n[i]
                    if self.width_n[i]
                    else 0.0
                ),
                histogram=(
                    None
                    if self.unbinned[i]
                    else Histogram.build(list(sgs.items()))
                ),
            )
        return out


def _bump(counts: Dict[Any, int], key: Any, weight: int) -> None:
    """Add ``weight`` to ``counts[key]``; a key whose count reaches 0
    leaves the map."""
    n = counts.get(key, 0) + weight
    if n:
        counts[key] = n
    else:
        del counts[key]


def harvest_column_stats(db) -> Dict[str, Dict[str, ColumnStats]]:
    """Harvest per-column statistics for every relation of ``db``.

    Works for both storage layers: anything exposing ``.relations`` whose
    values have a ``.schema`` and ``.tuples()`` yielding either
    ``(row, multiplicity)`` (deterministic) or ``(au_tuple, (lb, sg, ub))``
    (AU) pairs.
    """
    return {
        name: _harvest_relation(rel)
        for name, rel in getattr(db, "relations", {}).items()
    }


def _harvest_relation(rel) -> Dict[str, ColumnStats]:
    # both storage layers memoize the harvest; their writes keep the
    # accumulator current (see StatsAccumulator) and only drop the
    # finalized snapshot, so a relation is scanned once, at its first
    # harvest, and repeated harvests between writes are O(columns)
    cached = getattr(rel, "_column_stats_cache", None)
    if cached is not None:
        return cached
    acc = getattr(rel, "_stats_acc", None)
    if acc is None:
        _FIRST_BUILDS.inc()
        acc = StatsAccumulator(rel.schema)
        for t, annotation in rel.tuples():
            acc.observe(t, annotation)
        try:
            rel._stats_acc = acc
        except AttributeError:
            pass  # duck-typed relation without the slot
    out = acc.finalize()
    try:
        rel._column_stats_cache = out
    except AttributeError:
        pass  # duck-typed relation without the cache slot
    return out


# ----------------------------------------------------------------------
# selectivity estimation
# ----------------------------------------------------------------------
def equi_join_selectivity(
    left: Optional[ColumnStats], right: Optional[ColumnStats]
) -> float:
    """Selectivity of ``R.a = S.b`` — ``1 / max(d_a, d_b)``.

    With uniform values and containment of the smaller key set in the
    larger (the key–foreign-key case) this makes ``|R|·|S| · sel`` exact.
    Unknown columns fall back to :data:`DEFAULT_SELECTIVITY`.
    """
    d = max(
        left.distinct if left is not None else 0,
        right.distinct if right is not None else 0,
    )
    if d <= 0:
        return DEFAULT_SELECTIVITY
    return min(1.0, 1.0 / d)


def predicate_selectivity(
    condition: Expression, columns: Mapping[str, ColumnStats]
) -> float:
    """Estimated fraction of rows satisfying ``condition``, in ``[0, 1]``."""
    return min(1.0, max(0.0, _sel(condition, columns)))


def _sel(cond: Expression, columns: Mapping[str, ColumnStats]) -> float:
    if isinstance(cond, And):
        return _clamp(_sel(cond.left, columns)) * _clamp(_sel(cond.right, columns))
    if isinstance(cond, Or):
        a = _clamp(_sel(cond.left, columns))
        b = _clamp(_sel(cond.right, columns))
        return a + b - a * b
    if isinstance(cond, Not):
        return 1.0 - _clamp(_sel(cond.operand, columns))
    if isinstance(cond, Const):
        return 1.0 if bool(cond.value) else 0.0
    base = _clamp(_atom(cond, columns))
    # a predicate over uncertain attributes keeps every possibly-matching
    # row, so inflate by the uncertain fraction of the involved columns
    u = 0.0
    for v in cond.variables():
        col = columns.get(v)
        if col is not None and col.uncertain_fraction > u:
            u = col.uncertain_fraction
    return base + u * (1.0 - base)


def _clamp(s: float) -> float:
    return min(1.0, max(0.0, s))


def _atom(cond: Expression, columns: Mapping[str, ColumnStats]) -> float:
    if isinstance(cond, Eq):
        return _eq_selectivity(cond, columns)
    if isinstance(cond, Neq):
        return 1.0 - _eq_selectivity(Eq(cond.left, cond.right), columns)
    if isinstance(cond, (Leq, Lt, Geq, Gt)):
        return _range_selectivity(cond, columns)
    if isinstance(cond, IsNull) and isinstance(cond.operand, Var):
        col = columns.get(cond.operand.name)
        if col is not None:
            return col.null_fraction
        return DEFAULT_SELECTIVITY
    return DEFAULT_SELECTIVITY


def _eq_selectivity(cond: Eq, columns: Mapping[str, ColumnStats]) -> float:
    left, right = cond.left, cond.right
    if isinstance(left, Var) and isinstance(right, Var):
        return equi_join_selectivity(columns.get(left.name), columns.get(right.name))
    var, const = _var_const(left, right)
    if var is None:
        return DEFAULT_SELECTIVITY
    col = columns.get(var)
    if col is None or col.distinct <= 0:
        return DEFAULT_SELECTIVITY
    if _is_number(const) and _is_number(col.min_value) and _is_number(col.max_value):
        if const < col.min_value or const > col.max_value:
            return 0.0
    return 1.0 / col.distinct


def _range_selectivity(cond: Expression, columns: Mapping[str, ColumnStats]) -> float:
    """Distribution estimate for ``x ⊙ c`` over numeric columns.

    With a harvested :class:`Histogram` the estimate is the actual
    cumulative fraction below/above ``c`` (robust to skew); otherwise it
    falls back to linear interpolation between the column's min/max
    bounds (implicitly assuming uniformity).
    """
    left, right = cond.left, cond.right
    if isinstance(left, Var) and isinstance(right, Const):
        var, const, flipped = left.name, right.value, False
    elif isinstance(left, Const) and isinstance(right, Var):
        var, const, flipped = right.name, left.value, True
    else:
        return DEFAULT_SELECTIVITY
    col = columns.get(var)
    if col is None or not _is_number(const):
        return DEFAULT_SELECTIVITY
    # ``c ⊙ x`` is ``x ⊙' c`` with the comparison mirrored
    below = isinstance(cond, (Leq, Lt)) != flipped  # keeps x <= / < c
    if col.histogram is not None:
        frac = col.histogram.fraction_below(float(const))
        return _clamp(frac if below else 1.0 - frac)
    if not _is_number(col.min_value) or not _is_number(col.max_value):
        return DEFAULT_SELECTIVITY
    lo, hi = float(col.min_value), float(col.max_value)
    if hi <= lo:
        point = lo
        if below:
            return 1.0 if point <= const else 0.0
        return 1.0 if point >= const else 0.0
    if below:
        frac = (float(const) - lo) / (hi - lo)
    else:
        frac = (hi - float(const)) / (hi - lo)
    return _clamp(frac)


def _var_const(a: Expression, b: Expression):
    if isinstance(a, Var) and isinstance(b, Const):
        return a.name, b.value
    if isinstance(b, Var) and isinstance(a, Const):
        return b.name, a.value
    return None, None


def _is_number(v: Any) -> bool:
    # NaN has no place on a histogram or between min and max
    return isinstance(v, (int, float)) and not isinstance(v, bool) and v == v

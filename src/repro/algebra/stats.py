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
from ..core.ranges import RangeValue, domain_key
from .. import telemetry as _tm

# process-wide accumulator counters (repro.telemetry registry): how much
# incremental statistics work the write path does, and how often the
# incremental state was invalid and a harvest fell back to a full rescan
_OBSERVES = _tm.get_registry().counter(
    "repro_stats_observes_total",
    "Rows folded into incremental statistics accumulators.",
)
_RESCANS = _tm.get_registry().counter(
    "repro_stats_rescans_total",
    "Statistics harvests that fell back to a full relation rescan.",
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

#: Per-column cap on the weighted samples a :class:`StatsAccumulator`
#: retains for histogram rebuilds.  Columns past the cap drop their
#: samples after each (re)build — in-place bucket maintenance continues
#: exactly, and the rare out-of-range write then falls back to a full
#: relation rescan instead of a rebuild-from-samples.  Bounds a
#: long-lived serving connection's memory at O(cap) per numeric column
#: rather than O(total writes).
HISTOGRAM_SAMPLE_CAP = 100_000


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
        """Build from weighted ``(value, weight)`` pairs; a bare number
        is a value of weight 1.

        Returns ``None`` for degenerate inputs (no values, a single
        point, or a span ``hi - lo`` beyond the double range — min/max
        logic handles those better).
        """
        if not values:
            return None
        values = [s if type(s) is tuple else (s, 1) for s in values]
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
    #: equi-width histogram over the column's numeric SG values, or
    #: ``None`` for non-numeric / degenerate columns (range predicates
    #: then fall back to min/max interpolation)
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
        return (
            self.count,
            self.distinct,
            repr(self.min_value),
            repr(self.max_value),
            round(self.null_fraction, 9),
            round(self.uncertain_fraction, 9),
            round(self.avg_width, 9),
            self.histogram.fingerprint() if self.histogram else None,
        )


# ----------------------------------------------------------------------
# harvesting (one-pass initial scan + incremental maintenance)
# ----------------------------------------------------------------------
_UNSET = object()


class StatsAccumulator:
    """Incrementally maintainable harvest state for one relation.

    The initial harvest feeds every tuple through :meth:`observe`; after
    that, the storage layers (``DetRelation.add`` / ``AURelation.add``)
    keep the accumulator current by observing each write instead of
    throwing the whole harvest away.  All maintained quantities are
    *add-only exact*: counts, null/uncertain counters, width sums, and
    the per-column distinct sketches (plain sets of domain keys — exact,
    so the documented "sketch tolerance" for distinct counts is
    currently zero; a lossy sketch may replace them if memory ever
    becomes the constraint) absorb a write in O(columns), min/max bounds
    only ever widen, and histogram *bucket counters* are bumped in place
    while the new value lies inside the built range.  A value outside
    the range only dirties the histogram: :meth:`finalize` then rebuilds
    it from the retained weighted samples — the rebuild fallback —
    without rescanning the relation.  Sample retention is bounded
    (:data:`HISTOGRAM_SAMPLE_CAP` per column): columns past the cap
    drop their samples after each build and flag ``rescan_needed`` when
    an out-of-range write would need them, so
    :func:`_harvest_relation` falls back to a full rescan only when no
    accumulator is cached, the schema changed under it, or a capped
    column's histogram range grew.

    ``finalize`` snapshots the state into immutable
    :class:`ColumnStats`, bit-identical to what a from-scratch harvest
    of the same rows would produce (``tests/test_stats.py`` holds a
    Hypothesis property to that effect).
    """

    __slots__ = (
        "schema", "total", "nulls", "uncertain", "width_sum", "width_n",
        "distinct", "mins", "maxs", "numeric_ok", "samples", "hist_lo",
        "hist_hi", "hist_counts", "hist_dirty", "rescan_needed", "deletes",
    )

    def __init__(self, schema) -> None:
        self.schema = tuple(schema)
        n = len(self.schema)
        self.total = 0
        self.nulls = [0] * n
        self.uncertain = [0] * n
        self.width_sum = [0.0] * n
        self.width_n = [0] * n
        self.distinct: List[set] = [set() for _ in range(n)]
        self.mins: List[Any] = [_UNSET] * n
        self.maxs: List[Any] = [_UNSET] * n
        # histogram eligibility (False once a non-numeric value
        # disqualifies the column) and the weighted numeric SG samples
        # kept so an out-of-range write can rebuild the histogram
        # without rescanning the relation; samples are dropped (None)
        # once a column exceeds HISTOGRAM_SAMPLE_CAP — see finalize()
        self.numeric_ok = [True] * n
        self.samples: List[Optional[List[Any]]] = [[] for _ in range(n)]
        # built histogram state per column (bucket counters maintained
        # in place while values stay inside [hist_lo, hist_hi])
        self.hist_lo: List[float] = [0.0] * n
        self.hist_hi: List[float] = [0.0] * n
        self.hist_counts: List[Optional[List[int]]] = [None] * n
        self.hist_dirty = [True] * n
        #: set when an out-of-range write hits a column whose samples
        #: were dropped: only a full relation rescan can rebuild then
        self.rescan_needed = False
        #: deleted row weight, counted *separately* from the insert
        #: stream: a delete shrinks distributions in ways an insert
        #: cannot, so staleness heuristics must not net it against
        #: inserts (a delete-heavy stream would otherwise look idle)
        self.deletes = 0

    def observe(self, t, annotation) -> None:
        """Fold one stored row into the running statistics.

        ``annotation`` is an integer multiplicity (deterministic
        storage; the *delta* being added, so duplicate-row adds fold
        correctly) or an ``(lb, sg, ub)`` triple (AU storage — counted
        as one tuple, and only for tuples not previously present:
        annotation merges leave the value distribution untouched).
        """
        _OBSERVES.inc()
        weight = 1 if isinstance(annotation, tuple) else annotation
        self.total += weight
        for i, value in enumerate(t):
            if isinstance(value, RangeValue):
                sg, lb, ub = value.sg, value.lb, value.ub
                if not value.is_certain:
                    self.uncertain[i] += weight
                w = value.width()
                if math.isfinite(w):
                    self.width_sum[i] += w * weight
                    self.width_n[i] += weight
            else:
                sg = lb = ub = value
                self.width_n[i] += weight
            if sg is None:
                self.nulls[i] += weight
                continue
            if self.numeric_ok[i]:
                if isinstance(sg, (int, float)) and not isinstance(sg, bool):
                    if self.samples[i] is not None:
                        # a bare value stands for weight 1: the common
                        # case costs a list slot, not a tuple per row
                        self.samples[i].append(
                            sg if weight == 1 else (sg, weight)
                        )
                    self._observe_histogram(i, sg, weight)
                    if self.hist_dirty[i] and self.samples[i] is None:
                        # the range grew past a capped column's build:
                        # no samples to rebuild from — rescan instead
                        self.rescan_needed = True
                else:
                    self.numeric_ok[i] = False
                    self.samples[i] = None
                    self.hist_counts[i] = None
                    self.hist_dirty[i] = False
            self.distinct[i].add(domain_key(sg))
            if self.mins[i] is _UNSET:
                self.mins[i], self.maxs[i] = lb, ub
            else:
                if domain_key(lb) < domain_key(self.mins[i]):
                    self.mins[i] = lb
                if domain_key(ub) > domain_key(self.maxs[i]):
                    self.maxs[i] = ub

    def observe_delete(self, t, weight: int) -> None:
        """Fold one *deleted* row out of the running statistics.

        Counters that are exactly invertible (total, nulls, uncertain,
        width sums, in-range histogram buckets) are decremented in
        place; quantities that can only shrink under deletion (min/max
        bounds, distinct sketches, out-of-range histogram state) flag
        ``rescan_needed`` instead of guessing, so the next harvest
        rescans.  ``weight`` is the deleted multiplicity (1 for an AU
        tuple removal).  Deleted weight also accumulates in
        :attr:`deletes` — separately from :attr:`total` — so staleness
        heuristics can see a delete-heavy stream for what it is.
        """
        self.total -= weight
        self.deletes += weight
        for i, value in enumerate(t):
            if isinstance(value, RangeValue):
                sg, lb, ub = value.sg, value.lb, value.ub
                if not value.is_certain:
                    self.uncertain[i] -= weight
                w = value.width()
                if math.isfinite(w):
                    self.width_sum[i] -= w * weight
                    self.width_n[i] -= weight
            else:
                sg = lb = ub = value
                self.width_n[i] -= weight
            if sg is None:
                self.nulls[i] -= weight
                continue
            if self.numeric_ok[i]:
                if isinstance(sg, (int, float)) and not isinstance(sg, bool):
                    # retained samples now over-count: they cannot seed
                    # a rebuild any more, only a rescan can
                    self.samples[i] = None
                    counts = self.hist_counts[i]
                    if counts is not None and not self.hist_dirty[i]:
                        lo, hi = self.hist_lo[i], self.hist_hi[i]
                        if lo <= sg <= hi:
                            buckets = len(counts)
                            j = int((sg - lo) * (buckets / (hi - lo)))
                            top = buckets - 1
                            counts[j if j < top else top] -= weight
                        else:
                            self.hist_dirty[i] = True
                            self.rescan_needed = True
                    elif self.hist_dirty[i]:
                        self.rescan_needed = True
            # the distinct sketch stays a superset; min/max can only
            # shrink, so a delete touching a boundary forces a rescan
            if self.mins[i] is not _UNSET:
                if (
                    domain_key(lb) <= domain_key(self.mins[i])
                    or domain_key(ub) >= domain_key(self.maxs[i])
                ):
                    self.rescan_needed = True

    def _observe_histogram(self, i: int, v: float, weight: int) -> None:
        counts = self.hist_counts[i]
        if counts is None or self.hist_dirty[i]:
            return  # nothing built yet / already awaiting rebuild
        lo, hi = self.hist_lo[i], self.hist_hi[i]
        if lo <= v <= hi:
            # same bucket-assignment arithmetic as Histogram.build, so
            # the counters stay bit-identical to a from-scratch build
            buckets = len(counts)
            j = int((v - lo) * (buckets / (hi - lo)))
            top = buckets - 1
            counts[j if j < top else top] += weight
        else:
            self.hist_dirty[i] = True  # range grew: rebuild at finalize

    def _finalize_histogram(self, i: int) -> Optional[Histogram]:
        if not self.numeric_ok[i]:
            return None
        samples = self.samples[i]
        if self.hist_dirty[i]:
            if not samples:
                # dropped (rescan_needed drives a full rescan) or empty
                return None
            built = Histogram.build(samples)
            if built is None:
                # degenerate (single point / non-finite): stay dirty so
                # future observes re-attempt once the range widens —
                # unless the column is past the sample cap, where
                # re-attempting would mean rescanning on every write;
                # such columns retire to min/max interpolation
                self.hist_counts[i] = None
                if len(samples) > HISTOGRAM_SAMPLE_CAP:
                    self.numeric_ok[i] = False
                    self.samples[i] = None
                    self.hist_dirty[i] = False
                return None
            self.hist_lo[i], self.hist_hi[i] = built.lo, built.hi
            self.hist_counts[i] = list(built.counts)
            self.hist_dirty[i] = False
            if len(samples) > HISTOGRAM_SAMPLE_CAP:
                self.samples[i] = None  # bound memory; rescan on regrow
            return built
        counts = self.hist_counts[i]
        if counts is None:
            return None
        if samples is not None and len(samples) > HISTOGRAM_SAMPLE_CAP:
            self.samples[i] = None
        return Histogram(self.hist_lo[i], self.hist_hi[i], tuple(counts))

    def finalize(self) -> Dict[str, ColumnStats]:
        """Snapshot the running state into per-column :class:`ColumnStats`."""
        total = self.total
        out: Dict[str, ColumnStats] = {}
        for i, name in enumerate(self.schema):
            out[name] = ColumnStats(
                count=total,
                distinct=len(self.distinct[i]),
                min_value=None if self.mins[i] is _UNSET else self.mins[i],
                max_value=None if self.maxs[i] is _UNSET else self.maxs[i],
                null_fraction=self.nulls[i] / total if total else 0.0,
                uncertain_fraction=(
                    self.uncertain[i] / total if total else 0.0
                ),
                avg_width=(
                    self.width_sum[i] / self.width_n[i]
                    if self.width_n[i]
                    else 0.0
                ),
                histogram=self._finalize_histogram(i),
            )
        return out


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
    # both storage layers memoize the harvest; add() keeps the
    # accumulator current incrementally (see StatsAccumulator) and only
    # drops the finalized snapshot, so repeated harvests between writes
    # are O(columns), not O(rows)
    cached = getattr(rel, "_column_stats_cache", None)
    if cached is not None:
        return cached
    acc = getattr(rel, "_stats_acc", None)
    if (
        acc is None
        or acc.schema != tuple(rel.schema)
        or acc.rescan_needed
    ):
        # rebuild fallback: no (valid) incremental state — full rescan
        _RESCANS.inc()
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
    return isinstance(v, (int, float)) and not isinstance(v, bool)

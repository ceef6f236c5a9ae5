"""Range-annotated values: the attribute-level building block of AU-DBs.

A :class:`RangeValue` is a triple ``[lb / sg / ub]`` (Definition 6 of the
paper) consisting of a lower bound, a *selected-guess* (SG) value, and an
upper bound drawn from a totally ordered domain.  A range-annotated value
``c`` *bounds* a set of deterministic values ``S`` (Definition 10) when
every element of ``S`` falls within ``[c.lb, c.ub]`` and the SG value is one
of the elements of ``S``.

Values may be numbers, strings, booleans or ``None`` (treated as the minimal
element of its domain); the total order used is the one implied by
:func:`domain_key`, which mirrors the paper's assumption of an arbitrary but
fixed total order over a universal domain.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Callable, Iterable, List, Sequence

__all__ = [
    "RangeValue",
    "certain",
    "between",
    "domain_key",
    "order_key",
    "domain_le",
    "domain_min",
    "domain_max",
    "overlap_index",
    "NEG_INF",
    "POS_INF",
]


class _NegInf:
    """Sentinel smaller than every domain value (used for open bounds)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "-inf"


class _PosInf:
    """Sentinel larger than every domain value (used for open bounds)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "+inf"


NEG_INF = _NegInf()
POS_INF = _PosInf()


def domain_key(value: Any) -> tuple:
    """Total-order key for the universal domain ``D``.

    The paper assumes a total order over a universal domain that mixes
    types (Section 3).  We realize it by ordering first on a type rank and
    then on the value itself.  Booleans rank *with* the numbers as 0/1 —
    matching Python's ``True == 1`` — so a value can never be "certain"
    under ``==`` yet unequal under the domain order; ``False < True``
    still holds (the order used for the boolean domain in Example 5).
    Numbers order numerically, strings lexicographically.  ``None`` sorts
    below every other value of any type, and the infinity sentinels
    bracket everything.
    """
    kind = type(value)
    if kind is int or kind is float:
        return (1, value)
    if kind is str:
        return (2, value)
    if kind is bool:
        return (1, 1 if value else 0)
    if value is None:
        return (-1, 0)
    if kind is _NegInf:
        return (-2, 0)
    if kind is _PosInf:
        return (4, 0)
    if isinstance(value, bool):  # bool subclasses
        return (1, 1 if value else 0)
    if isinstance(value, (int, float)):
        return (1, value)
    if isinstance(value, str):
        return (2, value)
    return (3, repr(value))


#: :func:`order_key` of every NaN: above every number, below every string
_NAN_KEY = (1.5, 0)


def order_key(value: Any) -> tuple:
    """The sort key of ``ORDER BY`` / ``LIMIT``: :func:`domain_key`,
    except that NaN ranks above every number and below every string,
    all NaNs tied (PostgreSQL's order).  ``domain_key`` itself leaves NaN
    among the numbers, where it compares false both ways, so a sort on it
    is inconsistent and may misplace other rows.  Det ``MIN`` / ``MAX``
    rank by it too, so their result does not depend on row order;
    filters and zone maps keep ``domain_key``'s semantics."""
    kind = type(value)
    if kind is int:
        return (1, value)
    if kind is float:
        return (1, value) if value == value else _NAN_KEY
    key = domain_key(value)
    if key[0] == 1 and key[1] != key[1]:
        return _NAN_KEY
    return key


def domain_le(a: Any, b: Any) -> bool:
    """``a <= b`` under the universal domain order."""
    ta = type(a)
    tb = type(b)
    if (ta is int or ta is float) and (tb is int or tb is float):
        return a <= b
    if ta is str and tb is str:
        return a <= b
    return domain_key(a) <= domain_key(b)


def domain_min(values: Iterable[Any]) -> Any:
    """Minimum of ``values`` under the universal domain order."""
    return min(values, key=domain_key)


def domain_max(values: Iterable[Any]) -> Any:
    """Maximum of ``values`` under the universal domain order."""
    return max(values, key=domain_key)


@dataclass(frozen=True, slots=True)
class RangeValue:
    """An element ``[lb / sg / ub]`` of the range-annotated domain ``D_I``.

    Invariant (checked on construction): ``lb <= sg <= ub`` under the
    universal domain order, and no position holds NaN — it has no place
    in that order, whatever the other positions hold.
    """

    lb: Any
    sg: Any
    ub: Any

    def __post_init__(self) -> None:
        lb, sg, ub = self.lb, self.sg, self.ub
        if lb is ub and lb is sg and lb == lb:
            return  # a point of anything but NaN is in order
        if lb != lb or sg != sg or ub != ub:
            raise ValueError(
                f"range value cannot hold NaN, got [{lb!r}/{sg!r}/{ub!r}]"
            )
        if not (domain_le(lb, sg) and domain_le(sg, ub)):
            raise ValueError(
                f"range value must satisfy lb <= sg <= ub, got "
                f"[{self.lb!r}/{self.sg!r}/{self.ub!r}]"
            )

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    @property
    def is_certain(self) -> bool:
        """True when ``lb == sg == ub`` (the value is deterministic)."""
        lb = self.lb
        ub = self.ub
        if lb is ub:
            return True
        try:
            if lb == ub:
                return type(lb) is type(ub) or isinstance(lb, (int, float))
        except TypeError:
            pass
        return domain_key(lb) == domain_key(ub)

    def bounds_value(self, value: Any) -> bool:
        """Does this range contain the deterministic ``value``?"""
        return domain_le(self.lb, value) and domain_le(value, self.ub)

    def bounds_set(self, values: Iterable[Any]) -> bool:
        """Definition 10: bounds a set iff it contains every element and
        the SG value is one of them."""
        values = list(values)
        if not values:
            return False
        sg_key = domain_key(self.sg)
        return all(self.bounds_value(v) for v in values) and any(
            domain_key(v) == sg_key for v in values
        )

    def overlaps(self, other: "RangeValue") -> bool:
        """Do the intervals ``[lb, ub]`` of the two values intersect?

        This is the attribute-level ingredient of the ``≃`` predicate used
        for set difference (Definition 22) and of ``t ⊓ t'`` used for
        aggregation (Definition 26).
        """
        a_lb, a_ub = self.lb, self.ub
        b_lb, b_ub = other.lb, other.ub
        if (
            (type(a_lb) is int or type(a_lb) is float)
            and (type(a_ub) is int or type(a_ub) is float)
            and (type(b_lb) is int or type(b_lb) is float)
            and (type(b_ub) is int or type(b_ub) is float)
        ):
            return a_lb <= b_ub and b_lb <= a_ub
        return domain_le(a_lb, b_ub) and domain_le(b_lb, a_ub)

    def certainly_equal(self, other: "RangeValue") -> bool:
        """Are both values certain and equal (ingredient of ``≡``)?"""
        return (
            self.is_certain
            and other.is_certain
            and domain_key(self.sg) == domain_key(other.sg)
        )

    # ------------------------------------------------------------------
    # combination
    # ------------------------------------------------------------------
    def merge(self, other: "RangeValue") -> "RangeValue":
        """Minimum bounding range keeping *this* value's SG.

        Used by the SG-combiner (Definition 21) and by group-by bound
        computation (Definition 25), both of which merge the ranges of
        tuples that share SG values.
        """
        return RangeValue(
            domain_min((self.lb, other.lb)),
            self.sg,
            domain_max((self.ub, other.ub)),
        )

    def width(self) -> float:
        """Numeric width ``ub - lb`` (infinite for unbounded / non-numeric)."""
        if isinstance(self.lb, (int, float)) and isinstance(self.ub, (int, float)):
            return float(self.ub) - float(self.lb)
        if self.is_certain:
            return 0.0
        return math.inf

    def __repr__(self) -> str:
        if self.is_certain:
            return repr(self.sg)
        return f"[{self.lb!r}/{self.sg!r}/{self.ub!r}]"


def certain(value: Any) -> RangeValue:
    """A certain range-annotated value ``[v/v/v]``."""
    return RangeValue(value, value, value)


def between(lb: Any, sg: Any, ub: Any) -> RangeValue:
    """Convenience constructor mirroring the paper's ``[lb/sg/ub]``."""
    return RangeValue(lb, sg, ub)


def overlap_index(
    cells: Sequence[RangeValue],
) -> Callable[[RangeValue], List[int]]:
    """Index ``cells`` for interval-overlap probes.

    The returned function maps a probe value to the ascending positions
    of the cells it :meth:`~RangeValue.overlaps`.  Point cells (equal
    lower and upper keys) form one sorted run, where a probe's matches
    are the slice between two bisects.  The other cells are sorted on
    their lower bound; a probe bisects to the window that can overlap
    it — cells starting at or below its upper bound, from the first
    prefix whose running maximum upper bound reaches its lower bound —
    so near-disjoint cells (``Cpr`` boxes of a sorted run) cost a probe
    ``O(log n)`` plus its matches instead of ``n`` tests, and one wide
    range widens the windows of the ranges only, not of the points.
    """
    lo_keys = [domain_key(c.lb) for c in cells]
    hi_keys = [
        low if c.ub is c.lb else domain_key(c.ub) for low, c in zip(lo_keys, cells)
    ]
    by_lo = sorted(range(len(cells)), key=lo_keys.__getitem__)
    points = [k for k in by_lo if lo_keys[k] == hi_keys[k]]
    point_keys = [lo_keys[k] for k in points]
    spans = [k for k in by_lo if lo_keys[k] != hi_keys[k]]
    span_lo = [lo_keys[k] for k in spans]
    reach = list(accumulate((hi_keys[k] for k in spans), max))

    def probe(value: RangeValue) -> List[int]:
        lo = domain_key(value.lb)
        hi = lo if value.ub is value.lb else domain_key(value.ub)
        found = points[bisect_left(point_keys, lo) : bisect_right(point_keys, hi)]
        if spans:
            window = spans[bisect_left(reach, lo) : bisect_right(span_lo, hi)]
            found += [k for k in window if hi_keys[k] >= lo]
        found.sort()
        return found

    return probe

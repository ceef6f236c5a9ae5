"""Order-independent (exactly rounded) summation for SUM/AVG aggregates.

Floating-point addition is not associative, so a left-fold ``sum()``
returns different last bits depending on accumulation order — which is
exactly what changes between the tuple engine (folds per group in bag
iteration order), the vectorized hash aggregate (folds per batch row),
and the partition-parallel executor (folds per morsel, then merges).
PR 3 papered over this with a "floating-point round-off may differ"
carve-out; this module removes the carve-out by making the sum a pure
function of the *multiset* of addends:

* integers (and bools) accumulate in an exact Python-int slot;
* finite floats are *appended* to a term list — adding one is a list
  append, merging two accumulators a list extend — and the list is what
  represents the exact real sum: :func:`finish` hands it to
  ``math.fsum``, which rounds the exact sum of any finite term list
  once.  A list that passes :data:`_COMPACT_AT` terms is compacted in C:
  ``s1 = fsum(terms)``, then ``s2 = fsum(terms + [-s1])`` for what
  ``s1`` rounded away, and so on until the residual is 0 — the
  ``s1, s2, …`` are an exact expansion of the same sum, a handful of
  terms long;
* non-finite floats (``inf``/``nan``) accumulate in a separate IEEE
  slot where they are absorbing, so their propagation does not depend
  on where in the stream they appeared;
* every ``add_*`` call that adds a float — finite or not, at any
  weight, ``0`` included — counts one *float addend*.  Whether
  :func:`finish` returns the exact ``int`` or a ``float`` depends on
  whether the stream held a float at all, which cancellation cannot
  tell: a float added and taken out again leaves terms summing to an
  exact zero.  The count can: :func:`unmerge_acc` drops the float part
  when it returns to 0, so a maintained sum whose last float addend
  left finishes as the ``int`` a from-scratch fold of the rest returns.

An accumulator (:func:`new_acc`) is the list ``[int_sum, float_terms,
nonfinite_sum, float_spill, float_addends]``: the exact integer sum,
the term list, the absorbing IEEE slot, the integer spill slot of
overflowing float terms (below) and the float-addend count.

:func:`finish` rounds the exact value once, so any two executions that
add the same values — in any order, in any partitioning — return
bit-identical results.  Merging two accumulators (:func:`merge_acc`)
preserves exactness, which is what makes partial/final parallel
aggregation safe.

The contract is order-free *including transient overflow*: a running
float sum that leaves the double range saturates nothing.  ``fsum``
raises ``OverflowError`` when a partial sum overflows; a compaction
that meets it re-adds the terms through the one Python loop left here
(:func:`_add_spilling`, Shewchuk's error-free transformation): two
finite doubles whose sum overflows are both exact integers (magnitude
``>= 2**53``), so the larger one moves — exactly — to a fourth, integer
*spill* slot and the fold goes on; :func:`add_product` spills a term
``value * 2**j`` that is itself out of range the same way.
:func:`finish` saturates to ``±inf`` only when the *true* sum rounds
out of range (what a left-fold IEEE ``sum()`` returns then — a plain
``math.fsum`` would raise), so ``[1e308, 1e308, -1e308]`` sums to
``1e308`` in every order and under every partitioning.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Any, Iterable, Sequence, Tuple

__all__ = [
    "new_acc",
    "add_exact",
    "add_product",
    "add_products",
    "folds_in_c",
    "add_product_each",
    "merge_acc",
    "unmerge_acc",
    "finish",
    "exact_sum",
]


#: term-list length past which an accumulator is compacted
_COMPACT_AT = 64


def new_acc() -> list:
    """A fresh accumulator:
    ``[int_sum, float_terms, nonfinite_sum, float_spill, float_addends]``."""
    return [0, [], 0.0, 0, 0]


def _add_float(acc: list, x: float) -> None:
    """Add finite ``x``: one more term of the exact sum."""
    terms = acc[1]
    terms.append(x)
    if len(terms) > _COMPACT_AT:
        _compact(acc)


def _compact(acc: list) -> None:
    """Replace the term list by a short exact expansion of its sum."""
    terms = acc[1]
    n = len(terms)
    try:
        exact = []
        total = math.fsum(terms)
        while total:
            exact.append(total)
            terms.append(-total)
            total = math.fsum(terms)
    except OverflowError:  # a partial sum left the double range
        acc[1] = []
        for x in terms[:n]:
            _add_spilling(acc, x)
        return
    # a stream that held a float finishes as a float, even at 0
    terms[:] = exact or [0.0]


def _add_spilling(acc: list, x: float) -> None:
    """Shewchuk error-free transformation: add finite ``x`` keeping the
    exact sum as non-overlapping partials (the ``math.fsum`` invariant).

    If a combination overflows the double range, the larger operand —
    an exact integer at that magnitude — moves to the spill slot and
    the smaller one carries on, so the represented sum stays exact.
    """
    partials = acc[1]
    i = 0
    n = len(partials)
    for j in range(n):
        y = partials[j]
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        if math.isinf(hi):  # the running sum left the double range
            acc[3] += int(x)
            x = y
            continue
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def add_exact(acc: list, value: Any) -> None:
    """Fold ``value`` into ``acc`` exactly.

    Ints (and bools) stay exact integers; finite floats extend the
    term list; ``inf``/``nan`` go to the absorbing slot.  Non-numeric
    values raise ``TypeError`` like the plain ``sum()`` they replace.
    """
    if type(value) is float:
        acc[4] += 1
        if math.isfinite(value):
            _add_float(acc, value)
        else:
            acc[2] += value
    else:
        acc[0] += value  # exact for int/bool; TypeError otherwise


def add_product(acc: list, value: Any, mult: int) -> None:
    """Fold ``value * mult`` into ``acc`` without rounding the product.

    ``value * mult`` rounds once per call, so the same weighted row
    contributes *differently* depending on how its multiplicity is
    split across calls (``x*2 + x*3`` vs ``x*5`` differ in the last
    bit).  That breaks delta maintenance, where a tuple's multiplicity
    accrues across writes.  Decomposing the integer multiplicity into
    powers of two makes every term ``value * 2**j`` an *exact* binary
    scaling, so the accumulator receives exactly ``value * mult`` and
    the sum is a pure function of the weighted multiset *measure* —
    invariant under any regrouping of multiplicities.
    """
    if type(value) is not float:
        acc[0] += value * mult  # exact for int/bool
        return
    acc[4] += 1
    if not math.isfinite(value):
        acc[2] += value * mult  # absorbing slot (inf * 0 -> nan, as before)
        return
    if mult == 1:
        terms = acc[1]
        terms.append(value)
        if len(terms) > _COMPACT_AT:
            _compact(acc)
        return
    if mult == 0 or value == 0.0:
        _add_float(acc, value * 0.0 if mult == 0 else value)
        return
    if mult < 0:
        value, mult = -value, -mult
    while mult:
        low = mult & -mult  # lowest set bit: a power of two
        # power-of-two scaling: exact unless the term leaves the double
        # range (then it is an integer, and spills exactly)
        try:
            term = math.ldexp(value, low.bit_length() - 1)
        except OverflowError:
            num, den = value.as_integer_ratio()
            acc[3] += num * low // den
            term = 0.0  # the stream still holds a float
        _add_float(acc, term)
        mult -= low


def _c_sum(values: Sequence, weights: Sequence[int]) -> Any:
    """``Σ values[i] * weights[i]`` by one C ``sum`` — an ``int`` exactly
    when every value is an int or bool (a float anywhere makes it a
    float) — or ``None`` when the sum raises (``None`` or a string
    value, a weight too large for a float product)."""
    try:
        if weights.count(1) == len(weights):
            return sum(values)
        return sum(map(mul, values, weights))
    except (TypeError, OverflowError):
        return None


def _finite_floats(values: Sequence, weights: Sequence[int], total: Any) -> bool:
    """Every value a finite float and every weight 1, given the column's
    :func:`_c_sum`: a float sum is finite only if every addend is."""
    return (
        type(total) is float
        and math.isfinite(total)
        and weights.count(1) == len(weights)
        and set(map(type, values)) == {float}
    )


def folds_in_c(values: Sequence, weights: Sequence[int]) -> bool:
    """Whether :func:`add_products` folds this column without its
    per-value loop: every value an int or bool, or every value a finite
    float under unit weights."""
    total = _c_sum(values, weights)
    return type(total) is int or _finite_floats(values, weights, total)


def add_products(acc: list, values: Sequence, weights: Sequence[int]) -> None:
    """The batched :func:`add_product`: fold every ``values[i] *
    weights[i]`` into ``acc`` — ≡ the :func:`add_product` loop, to the
    bit of :func:`finish` and in the exception it raises.

    An int/bool column is one exact C ``sum``; finite floats under unit
    weights extend the term list at once and compact it once.  Anything
    else — mixed types, non-finite or non-unit-weighted floats, ``None``
    and strings (``TypeError``) — takes the per-value loop.
    """
    total = _c_sum(values, weights)
    if type(total) is int:
        acc[0] += total
    elif _finite_floats(values, weights, total):
        acc[4] += len(values)
        terms = acc[1]
        terms.extend(values)
        if len(terms) > _COMPACT_AT:
            _compact(acc)
    else:
        for value, weight in zip(values, weights):
            add_product(acc, value, weight)


def add_product_each(accs: Iterable[list], value: Any, mult: int) -> None:
    """:func:`add_product` of one weighted value into every accumulator
    of ``accs`` (the bounds of an AU ``SUM`` that a point contribution
    enters alike), its type and range tested once."""
    if type(value) is not float:
        product = value * mult
        for acc in accs:
            acc[0] += product
    elif mult == 1 and math.isfinite(value):
        for acc in accs:
            acc[4] += 1
            terms = acc[1]
            terms.append(value)
            if len(terms) > _COMPACT_AT:
                _compact(acc)
    else:
        for acc in accs:
            add_product(acc, value, mult)


def merge_acc(acc: list, other: list) -> None:
    """Fold accumulator ``other`` into ``acc`` (exact, order-free);
    ``other`` is only read, and ``acc`` shares no list with it."""
    acc[0] += other[0]
    terms = acc[1]
    terms.extend(other[1])
    if len(terms) > _COMPACT_AT:
        _compact(acc)
    acc[2] += other[2]
    acc[3] += other[3]
    acc[4] += other[4]


def unmerge_acc(acc: list, other: list) -> None:
    """Take accumulator ``other`` back out of ``acc``, exactly: the
    inverse of :func:`merge_acc` for a finite ``other`` (its absorbing
    ``inf``/``nan`` slot has no inverse, so the caller keeps it 0).  The
    float part negates term by term, which is exact, and is dropped when
    the last float addend leaves: the rest is integer-only, and a
    from-scratch fold of it would hold no float term."""
    acc[0] -= other[0]
    acc[4] -= other[4]
    if not acc[4]:
        acc[1] = []
        acc[3] = 0
        return
    terms = acc[1]
    terms.extend([-x for x in other[1]])
    if len(terms) > _COMPACT_AT:
        _compact(acc)
    acc[3] -= other[3]


def finish(acc: list) -> Any:
    """Round the exact accumulated value once.

    Integer-only streams return the exact ``int`` (matching the plain
    ``sum()`` the engines used before); any float in the stream makes
    the result the correctly rounded ``float`` of the exact float sum
    plus the integer sum as a double — ``±inf`` only when that true
    value rounds out of the double range.
    """
    int_sum, terms, nonfinite, spill, _ = acc
    if nonfinite != 0.0 or nonfinite != nonfinite:  # ±inf or nan seen
        return nonfinite  # absorbing: any finite rest leaves it as it is
    if not terms:
        return int_sum
    if not spill:
        try:
            if int_sum:
                return math.fsum(terms + [int_sum])
            return math.fsum(terms)
        except OverflowError:
            pass
    # huge operands: the same value — the exact float sum plus the
    # integer sum as a double — in exact integer arithmetic, in units
    # of 2**-1074 (every finite double is a whole number of those)
    try:
        total = _scaled(float(int_sum))
    except OverflowError:
        total = int_sum * _SCALE
    total += spill * _SCALE + sum(map(_scaled, terms))
    try:
        return total / _SCALE  # int / int rounds correctly, once
    except OverflowError:
        return math.inf if total > 0 else -math.inf


_SCALE = 1 << 1074


def _scaled(x: float) -> int:
    num, den = x.as_integer_ratio()
    return num * (_SCALE // den)


def exact_sum(weighted: Iterable[Tuple[Any, int]]) -> Any:
    """Sum of ``value * multiplicity`` over ``weighted``, order-free.

    Products enter via :func:`add_product`, so the result is a pure
    function of the weighted multiset measure: splitting a row's
    multiplicity across entries (or across incremental deltas) cannot
    change a bit.
    """
    acc = new_acc()
    for value, mult in weighted:
        add_product(acc, value, mult)
    return finish(acc)

"""Unit tests for range-annotated values (Definitions 6 and 10)."""

import dataclasses
import math
import pickle

import pytest

from repro.core.ranges import (
    NEG_INF,
    POS_INF,
    RangeValue,
    between,
    certain,
    domain_key,
    domain_le,
    domain_max,
    domain_min,
)


class TestConstruction:
    def test_certain_value(self):
        v = certain(5)
        assert v.lb == v.sg == v.ub == 5
        assert v.is_certain

    def test_between(self):
        v = between(1, 2, 3)
        assert (v.lb, v.sg, v.ub) == (1, 2, 3)
        assert not v.is_certain

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            RangeValue(3, 2, 1)

    def test_sg_below_lb_rejected(self):
        with pytest.raises(ValueError):
            RangeValue(2, 1, 3)

    def test_string_ranges(self):
        v = between("city", "city", "metro")
        assert v.bounds_value("city")
        assert v.bounds_value("metro")
        assert not v.bounds_value("z-town")

    def test_boolean_domain(self):
        # Example 5: the four elements of the boolean range domain
        for lb, sg, ub in [
            (True, True, True),
            (False, True, True),
            (False, False, True),
            (False, False, False),
        ]:
            RangeValue(lb, sg, ub)
        with pytest.raises(ValueError):
            RangeValue(True, False, True)

    @pytest.mark.parametrize(
        "cells",
        [
            (math.nan, math.nan, math.nan),  # a certain NaN
            (math.nan, 1, 2),
            (1, math.nan, 2),
            (1, 2, math.nan),
            (math.nan, "a", "b"),  # NaN ranks below strings in domain_key
            (None, math.nan, "z"),
            ("a", "b", math.nan),
            (None, None, math.nan),
        ],
    )
    def test_nan_rejected_in_any_position(self, cells):
        with pytest.raises(ValueError):
            RangeValue(*cells)

    def test_hashable_and_frozen(self):
        v = between(1, 2, 3)
        assert hash(v) == hash(between(1, 2, 3))
        with pytest.raises(Exception):
            v.lb = 0


class TestDataclassContract:
    """The hand-written constructor keeps the frozen dataclass's
    behaviour: fields, immutability, pickling, equality, hash and the
    two error messages."""

    CELLS = [(1, 2, 3), (5, 5, 5), (0, 0.0, -0.0), (None, "a", "b"), (1, 1.0, True)]

    def test_fields_are_the_bounds(self):
        assert [f.name for f in dataclasses.fields(RangeValue)] == ["lb", "sg", "ub"]

    @pytest.mark.parametrize("name", ["lb", "sg", "ub"])
    def test_assignment_raises_frozen_instance_error(self, name):
        v = between(1, 2, 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(v, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(v, name)
        assert (v.lb, v.sg, v.ub) == (1, 2, 3)

    @pytest.mark.parametrize("cells", CELLS)
    def test_pickle_round_trip(self, cells):
        # the worker pool ships cells this way
        v = RangeValue(*cells)
        back = pickle.loads(pickle.dumps(v))
        assert back == v and repr(back) == repr(v)
        assert [repr(x) for x in (back.lb, back.sg, back.ub)] == [repr(x) for x in cells]

    @pytest.mark.parametrize("cells", CELLS)
    def test_eq_and_hash_are_the_triples(self, cells):
        v = RangeValue(*cells)
        assert hash(v) == hash(cells)
        assert v == RangeValue(*cells)
        assert (v == RangeValue(0, 9, 9)) == (cells == (0, 9, 9))

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_nan_message_in_each_position(self, position):
        cells = [1, 1, 1]
        cells[position] = math.nan
        with pytest.raises(ValueError) as err:
            RangeValue(*cells)
        shown = "/".join(repr(x) for x in cells)
        assert str(err.value) == f"range value cannot hold NaN, got [{shown}]"

    def test_disorder_message(self):
        with pytest.raises(ValueError) as err:
            RangeValue(3, 2, 1)
        assert str(err.value) == "range value must satisfy lb <= sg <= ub, got [3/2/1]"


class TestBounding:
    def test_bounds_value(self):
        v = between(1, 2, 4)
        assert v.bounds_value(1)
        assert v.bounds_value(4)
        assert not v.bounds_value(0)
        assert not v.bounds_value(5)

    def test_bounds_set_requires_sg_member(self):
        # Example 6: x = [0/2/3] bounds {1,2,3}; [0/2/2] would not bound
        # a set missing 2... here: sg must be realized by the set.
        assert between(0, 2, 3).bounds_set([1, 2, 3])
        assert not between(0, 2, 3).bounds_set([1, 3])

    def test_bounds_set_containment(self):
        assert not between(0, 2, 2).bounds_set([1, 2, 3])

    def test_bounds_empty_set(self):
        assert not certain(1).bounds_set([])


class TestOverlap:
    def test_overlapping(self):
        assert between(1, 2, 3).overlaps(between(3, 4, 5))
        assert between(1, 2, 3).overlaps(between(0, 0, 10))

    def test_disjoint(self):
        assert not between(1, 2, 3).overlaps(between(4, 5, 6))

    def test_certainly_equal(self):
        assert certain(2).certainly_equal(certain(2))
        assert not certain(2).certainly_equal(certain(3))
        assert not between(1, 2, 3).certainly_equal(between(1, 2, 3))


class TestMerge:
    def test_merge_keeps_sg(self):
        merged = between(1, 2, 3).merge(between(0, 9, 10))
        assert (merged.lb, merged.sg, merged.ub) == (0, 2, 10)

    def test_width(self):
        assert between(1, 2, 5).width() == 4.0
        assert certain("x").width() == 0.0
        assert between("a", "b", "c").width() == math.inf


class TestDomainOrder:
    def test_total_order_across_types(self):
        values = ["b", 3, None, True, "a", 2.5, False]
        ordered = sorted(values, key=domain_key)
        assert ordered[0] is None
        # booleans rank with the numbers (False=0, True=1), numbers
        # before strings
        assert ordered[1:3] == [False, True]
        assert ordered[3:5] == [2.5, 3]
        assert ordered[5:] == ["a", "b"]

    def test_bools_interleave_with_numbers(self):
        # regression: True used to rank below every number, so a value
        # could be "certain" (True == 1) yet unequal in the domain order
        assert sorted([2, True, -1, False, 0.5], key=domain_key) == [
            -1,
            False,
            0.5,
            True,
            2,
        ]

    def test_bool_int_keys_coincide(self):
        assert domain_key(True) == domain_key(1)
        assert domain_key(False) == domain_key(0)

    def test_infinity_sentinels(self):
        assert domain_le(NEG_INF, None)
        assert domain_le("zzz", POS_INF)
        assert not domain_le(POS_INF, "zzz")

    def test_min_max(self):
        assert domain_min([3, 1, 2]) == 1
        assert domain_max(["a", "c", "b"]) == "c"


class TestBoolIntConsistency:
    """Property coverage for the unified bool/number domain order: a value
    is ``is_certain`` exactly when its bounds coincide under the domain
    order, even when booleans and numbers mix."""

    MIXED = [True, False, 0, 1, 2, -1, 0.0, 1.0, 0.5, "a", None]

    def test_certain_iff_bounds_share_domain_key(self):
        from hypothesis import given, strategies as st

        @given(a=st.sampled_from(self.MIXED), b=st.sampled_from(self.MIXED))
        def check(a, b):
            lo, hi = sorted([a, b], key=domain_key)
            rv = RangeValue(lo, lo, hi)
            assert rv.is_certain == (domain_key(lo) == domain_key(hi))

        check()

    def test_antisymmetry_matches_equality(self):
        from hypothesis import given, strategies as st

        @given(a=st.sampled_from(self.MIXED), b=st.sampled_from(self.MIXED))
        def check(a, b):
            if domain_le(a, b) and domain_le(b, a):
                assert domain_key(a) == domain_key(b)

        check()


class TestOverlapIndex:
    """``overlap_index`` answers exactly what ``overlaps`` answers cell by
    cell — mixed types, nested, touching and duplicate intervals."""

    def test_equals_pairwise_overlaps(self):
        from hypothesis import given, strategies as st

        from repro.core.ranges import overlap_index

        scalars = st.sampled_from([None, False, 0, 1, 1.0, 2, 2.5, 3, "a", "b"])

        def interval(ab):
            lo, hi = sorted(ab, key=domain_key)
            return RangeValue(lo, lo, hi)

        cells = st.tuples(scalars, scalars).map(interval)

        @given(st.lists(cells, max_size=8), cells)
        def check(indexed, probe):
            expected = [k for k, c in enumerate(indexed) if c.overlaps(probe)]
            assert overlap_index(indexed)(probe) == expected

        check()

        # many points and one wide range: the points keep a window of
        # their own, the range does not widen it
        points = scalars.map(lambda x: RangeValue(x, x, x))

        @given(st.lists(points, max_size=40), cells, st.integers(0, 40), cells)
        def check_points(indexed, wide, at, probe):
            indexed.insert(at, wide)
            expected = [k for k, c in enumerate(indexed) if c.overlaps(probe)]
            assert overlap_index(indexed)(probe) == expected

        check_points()

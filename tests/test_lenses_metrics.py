"""Unit tests for the key-repair lens, workloads, and accuracy metrics."""

import random

import pytest

from repro.core.bounding import bounds_world
from repro.core.ranges import between, certain
from repro.core.relation import AURelation
from repro.db.storage import DetRelation
from repro.lenses import key_repair_lens, make_uncertain
from repro.accuracy import (
    audb_certain_keys,
    audb_possible_keys,
    bound_tightness,
    certain_tuple_recall,
    mean_numeric_range,
    possible_recall_by_id,
    possible_recall_by_value,
    range_overestimation_factor,
)
from repro.workloads.micro import micro_instance, wide_table
from repro.workloads.realworld import (
    make_crimes,
    make_healthcare,
    make_netflix,
    realworld_queries,
)


class TestKeyRepairLens:
    def make_dirty(self):
        rel = DetRelation(
            ["k", "v"],
            [
                ("a", 1),
                ("b", 2),
                ("b", 5),   # key violation: two candidates for b
                ("c", 3),
            ],
        )
        return rel

    def test_violations_detected(self):
        result = key_repair_lens(self.make_dirty(), ["k"], random.Random(0))
        assert result.n_violating_keys == 1
        assert result.avg_alternatives == 2.0

    def test_audb_ranges_cover_candidates(self):
        result = key_repair_lens(self.make_dirty(), ["k"], random.Random(0))
        b_tuple = next(
            t for t, _a in result.audb.tuples() if t[0].sg == "b"
        )
        assert b_tuple[1].lb == 2 and b_tuple[1].ub == 5

    def test_selected_world_is_a_repair(self):
        result = key_repair_lens(self.make_dirty(), ["k"], random.Random(0))
        keys = [t[0] for t in result.selected.rows]
        assert sorted(keys) == ["a", "b", "c"]

    def test_audb_bounds_every_repair(self):
        result = key_repair_lens(self.make_dirty(), ["k"], random.Random(0))
        for world in result.xdb.enumerate_worlds():
            assert bounds_world(result.audb, world.as_bag())

    def test_xdb_sg_matches_audb_sg(self):
        result = key_repair_lens(self.make_dirty(), ["k"], random.Random(7))
        assert (
            result.xdb.selected_world().as_bag()
            == result.audb.selected_guess_world()
        )

    def test_make_uncertain(self):
        v = make_uncertain(1, 2, 3)
        assert (v.lb, v.sg, v.ub) == (1, 2, 3)


class TestWorkloads:
    def test_wide_table_shape(self):
        t = wide_table(50, n_cols=10, seed=1)
        assert len(t.schema) == 10
        assert t.total_rows() == 50

    def test_micro_instance(self):
        det, xrel = micro_instance(100, n_cols=5, uncertainty=0.2, seed=2)
        assert len(xrel.xtuples) == 100
        assert xrel.uncertain_tuple_fraction() > 0

    def test_realworld_statistics(self):
        for maker in (make_netflix, make_crimes, make_healthcare):
            ds = maker()
            assert ds.relation.total_rows() > 0
        queries = realworld_queries()
        assert set(queries) == {"Qn1", "Qn2", "Qc1", "Qc2", "Qh1", "Qh2"}

    def test_netflix_violation_rate(self):
        ds = make_netflix(n_rows=3000, seed=1)
        lens = key_repair_lens(ds.relation, list(ds.key_columns))
        rate = lens.n_violating_keys / 3000
        assert 0.01 < rate < 0.03  # target 1.9%
        assert 1.5 < lens.avg_alternatives < 3.0  # target 2.1


class TestMetrics:
    def make_audb(self):
        r = AURelation(["k", "v"])
        r.add(["a", certain(1)], (1, 1, 1))
        r.add(["b", between(1, 2, 4)], (0, 1, 1))
        return r

    def test_certain_and_possible_keys(self):
        r = self.make_audb()
        assert audb_certain_keys(r, ["k"]) == {("a",)}
        assert audb_possible_keys(r, ["k"]) == {("a",), ("b",)}

    def test_certain_recall(self):
        true_certain = {("a", 1): 1, ("c", 9): 1}
        recall = certain_tuple_recall(
            audb_certain_keys(self.make_audb(), ["k"]), true_certain, [0]
        )
        assert recall == 0.5

    def test_possible_recall_by_id(self):
        r = self.make_audb()
        true_possible = {("a", 1): 1, ("b", 3): 1}
        assert possible_recall_by_id(r, true_possible, ["k"], [0]) == 1.0
        missing = {("z", 0): 1}
        assert possible_recall_by_id(r, missing, ["k"], [0]) == 0.0

    def test_possible_recall_by_value(self):
        r = self.make_audb()
        assert possible_recall_by_value(r, {("a", 1): 1, ("b", 3): 1}) == 1.0
        assert possible_recall_by_value(r, {("b", 9): 1}) == 0.0

    def test_bound_tightness(self):
        r = AURelation(["k", "v"])
        r.add(["a", between(0, 5, 10)], (1, 1, 1))
        exact = {("a",): [(0, 10)]}
        lo, hi = bound_tightness(r, exact, ["k"])
        assert lo == hi == 1.0
        loose = {("a",): [(4, 6)]}
        lo2, _hi2 = bound_tightness(r, loose, ["k"])
        assert lo2 == 5.0  # width 10 vs tight width 2

    def test_range_overestimation(self):
        r = AURelation(["k", "v"])
        r.add(["a", between(0, 5, 20)], (1, 1, 1))
        exact = {("a",): [(0, 10)]}
        factor = range_overestimation_factor(r, "v", ["k"], exact)
        assert factor == 2.0

    def test_mean_numeric_range(self):
        r = self.make_audb()
        assert mean_numeric_range(r, "v") == pytest.approx(1.5)


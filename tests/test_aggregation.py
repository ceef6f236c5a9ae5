"""Unit tests for bound-preserving aggregation (Section 9)."""

import math

import pytest

from repro.core.aggregation import (
    MAX,
    MIN,
    SUM,
    agg_avg,
    agg_count,
    agg_max,
    agg_min,
    agg_sum,
    aggregate,
    semimodule_action,
    star_operator,
)
from repro.core.expressions import Var
from repro.core.ranges import between, certain
from repro.core.relation import AURelation


def rel(schema, rows):
    r = AURelation(schema)
    for values, ann in rows:
        r.add(values, ann)
    return r


class TestMonoids:
    def test_sum_monoid(self):
        assert SUM.fold([1, 2, 3]) == 6
        assert SUM.fold([]) == 0

    def test_min_max_monoids(self):
        assert MIN.fold([3, 1, 2]) == 1
        assert MAX.fold([3, 1, 2]) == 3
        assert MIN.fold([]) == math.inf
        assert MAX.fold([]) == -math.inf

    def test_monoid_laws(self):
        # commutativity / associativity spot check (Lemma 2 substrate)
        for monoid in (SUM, MIN, MAX):
            for a in (1, 5, -2):
                for b in (0, 3):
                    assert monoid.combine(a, b) == monoid.combine(b, a)
                    for c in (2, -1):
                        assert monoid.combine(monoid.combine(a, b), c) == (
                            monoid.combine(a, monoid.combine(b, c))
                        )


class TestSemimoduleAction:
    def test_sum_action_is_multiplication(self):
        assert semimodule_action(SUM, 3, 10) == 30

    def test_min_max_action(self):
        assert semimodule_action(MIN, 2, 10) == 10
        assert semimodule_action(MIN, 0, 10) == math.inf
        assert semimodule_action(MAX, 0, 10) == -math.inf


class TestStarOperator:
    def test_example_10_contribution(self):
        # (1,2,2) ⊛_SUM [3/5/10] = [3/10/20]
        r = star_operator(SUM, (1, 2, 2), between(3, 5, 10))
        assert (r.lb, r.sg, r.ub) == (3, 10, 20)

    def test_negative_values(self):
        # (1,2,2) ⊛_SUM [-4/-3/-3] = [-8/-6/-3]
        r = star_operator(SUM, (1, 2, 2), between(-4, -3, -3))
        assert (r.lb, r.sg, r.ub) == (-8, -6, -3)

    def test_min_with_possible_absence(self):
        r = star_operator(MIN, (0, 1, 1), between(5, 6, 7))
        assert r.lb == 5
        assert r.ub == math.inf  # the tuple may be absent

    def test_theorem5_bounds(self):
        # exhaustive check on small grids: ⊛ bounds k *_{N,M} m
        for monoid in (SUM, MIN, MAX):
            for k_lb, k_sg, k_ub in [(0, 0, 1), (0, 1, 2), (1, 1, 1), (1, 2, 3)]:
                for m_lo, m_sg, m_hi in [(-2, 0, 1), (1, 2, 3), (-3, -2, -1)]:
                    folded = star_operator(
                        monoid, (k_lb, k_sg, k_ub), between(m_lo, m_sg, m_hi)
                    )
                    for k in range(k_lb, k_ub + 1):
                        for m in (m_lo, m_sg, m_hi):
                            v = semimodule_action(monoid, k, m)
                            assert folded.lb <= v <= folded.ub


class TestAggregationNoGroupBy:
    def test_figure_7b(self):
        """Paper Figure 7: SELECT sum(#inhab) FROM address -> [6/7/14]."""
        address = rel(
            ["street", "number", "inhab"],
            [
                (["Canal", 165, certain(1)], (1, 1, 2)),
                (["Canal", between(153, 154, 156), between(1, 2, 2)], (1, 1, 1)),
                (["State", between(623, 623, 629), certain(2)], (2, 2, 3)),
                (["Monroe", between(3550, 3574, 3585), between(2, 3, 4)], (0, 0, 1)),
            ],
        )
        out = aggregate(address, [], [agg_sum("inhab", "pop")])
        ((t, ann),) = list(out.tuples())
        assert ann == (1, 1, 1)
        assert (t[0].lb, t[0].sg, t[0].ub) == (6, 7, 14)

    def test_empty_input_yields_neutral_row(self):
        out = aggregate(rel(["a"], []), [], [agg_sum("a", "s"), agg_count("c")])
        ((t, ann),) = list(out.tuples())
        assert ann == (1, 1, 1)
        assert t[0] == certain(0)
        assert t[1] == certain(0)


class TestAggregationGroupBy:
    def test_figure_7c(self):
        """Paper Figure 7c: count(*) grouped by street."""
        address = rel(
            ["street", "inhab"],
            [
                (["Canal", 1], (1, 1, 2)),
                ([between("Canal", "Canal", "State"), 2], (1, 1, 1)),
                (["State", 2], (2, 2, 3)),
                (["Monroe", 3], (0, 0, 1)),
            ],
        )
        out = aggregate(address, ["street"], [agg_count("cnt")])
        by_sg = {t[0].sg: (t, ann) for t, ann in out.tuples()}
        canal_t, canal_ann = by_sg["Canal"]
        assert canal_ann == (1, 1, 3)
        # Canal's merged group box is [Canal, State] (the second tuple's
        # street is uncertain), so this output may have to bound world
        # groups other than Canal; the rewriting's θ_c test therefore
        # clamps every contribution and the sound count bounds are [0, 7]
        # (the paper's Figure 7c prints the looser illustrative [1, 3]).
        assert canal_t[1].lb == 0
        assert canal_t[1].sg == 2
        assert canal_t[1].ub == 7
        state_t, state_ann = by_sg["State"]
        # 3rd tuple certainly in group State (count >= 2); 2nd could join it
        assert state_t[1].lb == 2
        assert (state_t[1].sg, state_t[1].ub) == (2, 4)  # Figure 7c: [2/2/4]
        assert state_ann[0] == 1
        monroe_t, monroe_ann = by_sg["Monroe"]
        assert monroe_ann == (0, 0, 1)
        assert monroe_t[1].ub == 2

    def test_example_10(self):
        """Sum of A grouping by B (Example 10).

        The paper's worked example computes -5 = 3 + min(0, -8) by letting
        the certainly-grouped first tuple contribute unclamped.  Because
        the output's group box is [2, 4] (it may also have to bound the
        world groups B=2 and B=4, in which the first tuple does not
        participate), the implementation follows the rewriting's θ_c test
        and clamps both contributions, yielding the sound bound -8: the
        possible world where the second tuple lands alone in group B=2
        with multiplicity 2 has sum -8, and its result tuple must be
        bounded by this single output.
        """
        r = rel(
            ["A", "B"],
            [
                ([between(3, 5, 10), 3], (1, 2, 2)),
                ([between(-4, -3, -3), between(2, 3, 4)], (1, 2, 2)),
            ],
        )
        out = aggregate(r, ["B"], [agg_sum("A", "s")])
        by_sg = {t[0].sg: t for t, _ann in out.tuples()}
        g3 = by_sg[3]
        assert g3[1].lb == -8
        assert g3[1].sg == 4  # SGW: 2*5 + 2*(-3)
        assert g3[1].ub == 20

    def test_example_10_certain_group(self):
        """With a certain group box the Example-10 shape keeps the
        unclamped contribution of the certainly-grouped tuple."""
        r = rel(
            ["A", "B"],
            [
                ([between(3, 5, 10), 3], (1, 2, 2)),
                ([between(-4, -3, -3), 3], (0, 2, 2)),
            ],
        )
        out = aggregate(r, ["B"], [agg_sum("A", "s")])
        ((t, _ann),) = list(out.tuples())
        assert t[1].lb == 3 + (-8)  # certain member unclamped, optional clamped via ug

    def test_group_bounds_merge(self):
        # Definition 25: output group-by bounds cover assigned inputs
        r = rel(
            ["g", "v"],
            [
                ([between(1, 2, 2), 10], (1, 1, 1)),
                ([between(2, 2, 4), 20], (0, 0, 1)),
            ],
        )
        out = aggregate(r, ["g"], [agg_sum("v", "s")])
        ((t, ann),) = list(out.tuples())
        assert (t[0].lb, t[0].sg, t[0].ub) == (1, 2, 4)
        assert ann[2] == 2  # both inputs may form distinct groups

    def test_min_max_aggregates(self):
        r = rel(
            ["g", "v"],
            [
                (["a", between(1, 2, 3)], (1, 1, 1)),
                (["a", certain(10)], (1, 1, 1)),
            ],
        )
        out = aggregate(
            r, ["g"], [agg_min("v", "lo"), agg_max("v", "hi")]
        )
        ((t, _ann),) = list(out.tuples())
        assert t[1].lb == 1 and t[1].ub == 3  # min in [1,3]
        assert t[2].lb == 10 and t[2].ub == 10  # max is certainly 10

    def test_avg_envelope(self):
        r = rel(
            ["g", "v"],
            [
                (["a", between(0, 10, 20)], (1, 1, 1)),
                (["a", certain(30)], (1, 1, 1)),
            ],
        )
        out = aggregate(r, ["g"], [agg_avg("v", "m")])
        ((t, _ann),) = list(out.tuples())
        assert t[1].lb <= 15 <= t[1].ub
        assert t[1].sg == 20.0  # (10 + 30) / 2
        assert t[1].lb == 0 and t[1].ub == 30

    def test_uncertain_group_membership_clamps(self):
        # a tuple that may not exist cannot raise the lower SUM bound
        r = rel(["g", "v"], [(["a", certain(5)], (0, 1, 1))])
        out = aggregate(r, ["g"], [agg_sum("v", "s")])
        ((t, ann),) = list(out.tuples())
        assert t[1].lb == 0
        assert t[1].ub == 5
        assert ann == (0, 1, 1)


class TestCompressedAggregation:
    def test_compressed_is_sound_and_sg_exact(self):
        """Lemma 10.2: compression preserves bounds and the exact SGW.

        Both the naive and the compressed aggregation must bound the query
        result in every possible world of a random x-relation; the
        compressed variant's SG values must equal the naive ones.
        """
        import random

        from repro.core.bounding import bounds_world
        from repro.db.engine import _aggregate as det_aggregate
        from repro.incomplete.xdb import XRelation

        rng = random.Random(3)
        xrel = XRelation(["g", "v"])
        for _ in range(9):
            g = rng.randint(1, 4)
            v = rng.randint(-5, 20)
            if rng.random() < 0.4:
                xrel.add([(g, v), (min(4, g + 1), rng.randint(-5, 20))])
            else:
                xrel.add_certain((g, v))
        audb = xrel.to_audb()
        naive = aggregate(audb, ["g"], [agg_sum("v", "s")])
        fast = aggregate(audb, ["g"], [agg_sum("v", "s")], compress_buckets=2)
        naive_by_sg = {t[0].sg: t for t, _ in naive.tuples()}
        fast_by_sg = {t[0].sg: t for t, _ in fast.tuples()}
        assert set(naive_by_sg) == set(fast_by_sg)
        for key, nt in naive_by_sg.items():
            assert fast_by_sg[key][1].sg == nt[1].sg
        for world in xrel.enumerate_worlds(limit=3000):
            result = det_aggregate(world, ["g"], [agg_sum("v", "s")])
            assert bounds_world(naive, result.as_bag())
            assert bounds_world(fast, result.as_bag())


class TestSumOverInfiniteBounds:
    """Regression: AU ``SUM`` of a ``0·(±inf)`` part is 0, not NaN.

    ``MIN`` over a possibly-empty group has ``ub = inf``; a row that is
    possibly absent (annotation lower bound 0) then offers the corner
    ``(0, inf)``, which corner selection values at 0 (semimodule
    ``0·x = 0``) — accumulation used to compute IEEE ``inf * 0 = nan``
    for it and the result failed the ``RangeValue`` invariant.
    """

    def _case(self):
        from repro.algebra.ast import Aggregate, TableRef
        from repro.core.relation import AUDatabase

        rel = AURelation(["a", "b"])
        rel.add([between(-2, -1, 0), between(-2, 0, 1)], (1, 1, 1))
        rel.add([certain(3), between(-2, 0, 2)], (0, 1, 1))
        rel.add([between(4, 6, 6), between(1, 2, 3)], (0, 1, 1))
        inner = Aggregate(TableRef("r"), ["a", "b"], [agg_min("a", "agg")])
        plan = Aggregate(inner, ["a"], [agg_sum("agg", "agg")])
        return plan, AUDatabase({"r": rel})

    def test_result_is_a_valid_range_and_bounds_every_world(self):
        import itertools

        from repro.algebra.evaluator import EvalConfig, evaluate_audb
        from repro.core.bounding import bounds_world
        from repro.db.engine import evaluate_det
        from repro.db.storage import DetDatabase, DetRelation

        plan, audb = self._case()
        result = evaluate_audb(plan, audb, EvalConfig(optimize=False))
        rows = dict(result.tuples())
        assert len(rows) == 3
        for t, _ann in rows.items():
            total = t[1]
            assert not any(
                isinstance(v, float) and math.isnan(v)
                for v in (total.lb, total.sg, total.ub)
            )
            assert total.lb <= total.sg <= total.ub == math.inf
        first = [(a, b) for a in (-2, -1, 0) for b in (-2, -1, 0, 1)]
        second = [None] + [(3, b) for b in (-2, -1, 0, 1, 2)]
        third = [None] + [(a, b) for a in (4, 5, 6) for b in (1, 2, 3)]
        for world in itertools.product(first, second, third):
            det = DetDatabase(
                {"r": DetRelation(["a", "b"], [r for r in world if r])}
            )
            truth = evaluate_det(plan, det, optimize=False)
            assert bounds_world(result, truth.as_bag()), world

    def test_serial_and_parallel_agree_to_the_bit(self):
        from repro.algebra.evaluator import EvalConfig, evaluate_audb

        plan, audb = self._case()
        serial = evaluate_audb(
            plan, audb, EvalConfig(optimize=False, backend="tuple")
        )
        for backend, parallelism in (("vectorized", 1), ("vectorized", 4)):
            other = evaluate_audb(
                plan,
                audb,
                EvalConfig(
                    optimize=False, backend=backend, parallelism=parallelism
                ),
            )
            assert repr(sorted(other.tuples(), key=repr)) == repr(
                sorted(serial.tuples(), key=repr)
            )

    def test_partial_group_fold_matches_the_serial_fold(self):
        # certain group-by, so the morsel-parallel partial path applies:
        # a possibly-absent row with an infinite value bound
        from repro.exec.au_aggregate import (
            finalize_groups,
            fold_partial_groups,
            merge_partial_groups,
        )
        from repro.exec.batch import AUColumnBatch

        r = rel(
            ["g", "v"],
            [
                ([1, between(1.0, 2.0, math.inf)], (0, 1, 1)),
                ([1, between(-math.inf, 0.5, 0.5)], (0, 0, 2)),
                ([1, 4.0], (1, 1, 1)),
            ],
        )
        specs = (agg_sum("v", "s"),)
        serial = aggregate(r, ["g"], list(specs))
        ((t, _ann),) = list(serial.tuples())
        assert (t[1].lb, t[1].sg, t[1].ub) == (-math.inf, 6.0, math.inf)
        rows = list(r.tuples())
        merged = {}
        for part in (rows[:1], rows[1:]):
            partial = fold_partial_groups(
                AUColumnBatch.from_rows(r.schema, part), ["g"], specs
            )
            merge_partial_groups(merged, partial, specs)
        merged_rel = finalize_groups(merged, ["g"], specs).to_relation()
        assert repr(list(merged_rel.tuples())) == repr(list(serial.tuples()))

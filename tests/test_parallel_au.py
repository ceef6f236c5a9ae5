"""Parallel AU execution: the SG-combine partial-aggregate merge
algebra, the AU-Exchange legality rules, and the persistent session
worker pool.

* A Hypothesis property certifies the heart of the tentpole claim: AU
  partial-aggregate states are **order- and grouping-invariant to the
  bit** — folding rows serially, or in any permutation partitioned into
  any number of worker states merged in any order, finalizes to the
  same ``AURelation`` with every float bound bit-equal (exact Shewchuk
  accumulation for SUM/AVG; pure min/max envelopes for the rest).
* ``verify_physical`` golden diagnostics for the AU parallel plans:
  engine-mismatched merge kinds, a non-linear operator on the partitioned
  spine of a region, and ``AUPartialAggregate`` outside its Exchange.
* The session-owned :class:`~repro.exec.parallel.WorkerPool`: forked
  once, reused across prepared executions, invalidated and re-forked on
  a catalog epoch advance, shut down by ``Connection.close()`` — all
  observable through the ``repro_parallel_*`` registry counters.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import telemetry
from repro.algebra.ast import Aggregate, Limit, OrderBy, TableRef
from repro.algebra.evaluator import EvalConfig, evaluate_audb
from repro.algebra.optimizer import optimize
from repro.analysis import PlanCompatibilityError, verify_physical
from repro.core.aggregation import (
    UncertainGroupError,
    agg_avg,
    agg_count,
    agg_max,
    agg_min,
    agg_sum,
)
from repro.core.expressions import Const, Gt, Var
from repro.core.ranges import between, certain
from repro.core.relation import AUDatabase, AURelation
from repro.core.tuples import make_tuple
from repro.exec import parallel as exec_parallel
from repro.exec.au_aggregate import (
    finalize_groups,
    fold_partial_groups,
    merge_partial_groups,
)
from repro.exec.batch import AUColumnBatch
from repro.exec import physical as phys
from repro.session import Connection

SCHEMA = ("g", "v")
SPECS = (
    agg_sum("v", "s"),
    agg_avg("v", "a"),
    agg_min("v", "mn"),
    agg_max("v", "mx"),
    agg_count("n"),
)

#: adversarial float pool: catastrophic-cancellation magnitudes that
#: expose any naive (non-exact) accumulation order dependence; no -0.0
#: (min/max ties must be representation-unique for bit comparison)
FLOATS = st.sampled_from(
    [1e16, 1.0, -1e16, 0.1, 1e-9, -0.1, 3.5, 2.5e-10, -7.25, 1e6, 0.25]
)


def _fingerprint(rel: AURelation):
    """repr round-trips doubles: equal fingerprints ⇔ bit-equal values."""
    return sorted(
        (tuple(repr(v) for v in t), tuple(ann)) for t, ann in rel.tuples()
    )


@st.composite
def _au_rows(draw):
    """Rows with certain int group keys (partitionability requirement),
    uncertain float measures, and uncertain ``K^AU`` annotations."""
    n = draw(st.integers(min_value=1, max_value=24))
    rows = []
    for _ in range(n):
        g = draw(st.integers(min_value=0, max_value=2))
        lo, sg, hi = sorted(draw(st.tuples(FLOATS, FLOATS, FLOATS)))
        ann = tuple(
            sorted(draw(st.tuples(*[st.integers(0, 3)] * 3)))
        )
        if ann == (0, 0, 0):
            ann = (0, 0, 1)
        rows.append(
            (make_tuple([certain(g), between(lo, sg, hi)]), ann)
        )
    return rows


class TestPartialMergeAlgebra:
    @settings(
        deadline=None,
        max_examples=120,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data(), rows=_au_rows())
    def test_merge_order_and_grouping_invariant(self, data, rows):
        # serial reference: one fold over the rows as generated
        serial = fold_partial_groups(
            AUColumnBatch.from_rows(SCHEMA, rows), ["g"], SPECS
        )
        reference = _fingerprint(
            finalize_groups(serial, ["g"], SPECS).to_relation()
        )

        # adversarial schedule: permute the rows, deal them into k
        # worker states, merge the states in dealing order
        shuffled = data.draw(st.permutations(rows))
        k = data.draw(st.integers(min_value=1, max_value=4))
        parts = [[] for _ in range(k)]
        for row in shuffled:
            parts[data.draw(st.integers(0, k - 1))].append(row)
        merged = {}
        for part in parts:
            partial = fold_partial_groups(
                AUColumnBatch.from_rows(SCHEMA, part), ["g"], SPECS
            )
            merge_partial_groups(merged, partial, SPECS)
        assert (
            _fingerprint(finalize_groups(merged, ["g"], SPECS).to_relation())
            == reference
        )

    def test_uncertain_group_attribute_raises(self):
        rows = [(make_tuple([between(1, 1, 2), certain(1.0)]), (1, 1, 1))]
        with pytest.raises(UncertainGroupError):
            fold_partial_groups(
                AUColumnBatch.from_rows(SCHEMA, rows), ["g"], (agg_sum("v", "s"),)
            )


# ======================================================================
# AU-Exchange legality (verify_physical golden diagnostics)
# ======================================================================
@pytest.fixture
def au_stats():
    rel = AURelation(["a", "b"])
    for i in range(8):
        rel.add([i, float(i)], (1, 1, 1))
    return Connection(AUDatabase({"r": rel})).statistics()


def _cfg(engine):
    return phys.PhysicalConfig(
        engine=engine, backend="vectorized", parallelism=4
    )


class TestAUExchangeLegality:
    def _region(self):
        return phys.FusedSelectProject(
            phys.ParallelScan("r", 2), Gt(Var("a"), Const(0)), None
        )

    def test_au_plan_rejects_det_merge_kind(self, au_stats):
        bad = phys.Exchange(self._region(), "aggregate", 2)
        with pytest.raises(PlanCompatibilityError, match="SG-combine-aware"):
            verify_physical(bad, au_stats, _cfg("au"))

    def test_det_plan_rejects_au_merge_kind(self, au_stats):
        bad = phys.Exchange(self._region(), "au_aggregate", 2)
        with pytest.raises(
            PlanCompatibilityError, match="only exist in the AU lowering"
        ):
            verify_physical(bad, au_stats, _cfg("det"))

    def test_nonlinear_operator_on_partitioned_spine_rejected(self, au_stats):
        # fed by the region's morsels, a non-linear operator would see
        # partial inputs
        morsels = phys.ParallelScan("r", 2)
        for serial in (
            phys.HashDistinct(morsels),
            phys.HashExcept(morsels, phys.Scan("r")),
            phys.TopK(morsels, ("a",), False, 3),
            phys.HashAggregate(morsels, ("a",), (agg_sum("b", "t"),), None),
        ):
            bad = phys.Exchange(
                phys.FusedSelectProject(serial, Gt(Var("a"), Const(0)), None),
                "concat",
                2,
            )
            with pytest.raises(
                PlanCompatibilityError, match="partitioned spine"
            ):
                verify_physical(bad, au_stats, _cfg("au"))
        # the AU top-k merge takes the bare region: per-morsel top-k
        # bounds are not sound, the full concatenation is ranked once
        final = phys.TopK(phys.Scan("r"), ("a",), False, 3)
        ranked_once = phys.Exchange(morsels, "au_topk", 2, final=final)
        verify_physical(ranked_once, au_stats, _cfg("au"))
        per_morsel = phys.Exchange(
            phys.TopK(morsels, ("a",), False, 3), "au_topk", 2, final=final
        )
        with pytest.raises(PlanCompatibilityError, match="partitioned spine"):
            verify_physical(per_morsel, au_stats, _cfg("au"))

    def test_au_partial_aggregate_without_exchange_rejected(self, au_stats):
        node = phys.AUPartialAggregate(
            phys.Scan("r"), ("a",), (agg_sum("b", "t"),)
        )
        with pytest.raises(
            PlanCompatibilityError, match="without a merging Exchange"
        ):
            verify_physical(node, au_stats, _cfg("au"))

    def test_au_partial_aggregate_in_det_plan_rejected(self, au_stats):
        node = phys.AUPartialAggregate(
            phys.Scan("r"), ("a",), (agg_sum("b", "t"),)
        )
        with pytest.raises(
            PlanCompatibilityError, match="deterministic plan"
        ):
            verify_physical(node, au_stats, _cfg("det"))


class TestAULoweringShape:
    @pytest.fixture
    def big_audb(self):
        rel = AURelation(["g", "v"])
        for i in range(9000):
            rel.add([i % 5, float(i % 97)], (1, 1, 1))
        return AUDatabase({"t": rel})

    def test_aggregate_lowers_to_au_exchange_and_verifies(self, big_audb):
        stats = Connection(big_audb, engine="au").statistics()
        plan = Aggregate(
            TableRef("t"), ["g"], [agg_sum("v", "s"), agg_avg("v", "a")]
        )
        config = _cfg("au")
        pplan = phys.lower(optimize(plan, stats, semantics="au"), stats, config)
        verify_physical(pplan, stats, config)
        text = phys.explain_physical(pplan)
        assert "Exchange merge=au_aggregate" in text
        assert "AUPartialAggregate" in text
        assert "ParallelScan" in text

    def test_topk_lowers_to_au_topk_and_verifies(self, big_audb):
        stats = Connection(big_audb, engine="au").statistics()
        plan = Limit(OrderBy(TableRef("t"), ["v"], True), 7)
        config = _cfg("au")
        pplan = phys.lower(optimize(plan, stats, semantics="au"), stats, config)
        verify_physical(pplan, stats, config)
        text = phys.explain_physical(pplan)
        assert "Exchange merge=au_topk" in text


# ======================================================================
# persistent worker pool lifecycle
# ======================================================================
_COUNTERS = (
    "repro_parallel_pool_forks_total",
    "repro_parallel_pool_reuses_total",
    "repro_parallel_pool_invalidations_total",
    "repro_parallel_tasks_total",
    "repro_parallel_au_serial_fallbacks_total",
)


def _counters():
    registry = telemetry.get_registry()
    return {name: registry.counter(name).value for name in _COUNTERS}


@pytest.mark.skipif(
    not hasattr(os, "fork"), reason="persistent pool needs fork()"
)
class TestWorkerPoolLifecycle:
    @pytest.fixture(autouse=True)
    def force_pool(self, monkeypatch):
        monkeypatch.setattr(exec_parallel, "PARALLEL_MIN_ROWS", 0)
        monkeypatch.setattr(exec_parallel, "PROCESS_MIN_ROWS", 0)

    def _connection(self):
        rel = AURelation(["g", "v"])
        for i in range(64):
            rel.add([i % 4, float(i)], (1, 1, 1))
        db = AUDatabase({"t": rel})
        conn = Connection(
            db,
            engine="au",
            # chunk_size=16: 64 rows make 4 storage chunks, so the
            # chunk-aligned morsels really split into 2 partitions
            config=EvalConfig(
                backend="vectorized", parallelism=2, chunk_size=16
            ),
        )
        return conn, rel, db

    def test_fork_reuse_invalidate_close(self):
        conn, rel, db = self._connection()
        plan = Aggregate(
            TableRef("t"), ["g"], [agg_sum("v", "s"), agg_count("n")]
        )
        prepared = conn.prepare(plan)

        before = _counters()
        first = prepared.execute(actuals={})
        after_fork = _counters()
        assert (
            after_fork["repro_parallel_pool_forks_total"]
            == before["repro_parallel_pool_forks_total"] + 1
        )

        second = prepared.execute(actuals={})
        after_reuse = _counters()
        assert (
            after_reuse["repro_parallel_pool_forks_total"]
            == after_fork["repro_parallel_pool_forks_total"]
        ), "a repeated prepared execution must not fork"
        assert (
            after_reuse["repro_parallel_pool_reuses_total"]
            == after_fork["repro_parallel_pool_reuses_total"] + 1
        )
        assert (
            after_reuse["repro_parallel_tasks_total"]
            > after_fork["repro_parallel_tasks_total"]
        )

        # a write advances the catalog epoch: the stale pool (workers
        # hold a fork-inherited snapshot) is invalidated and re-forked
        rel.add([0, 1.5], (1, 1, 1))
        third = prepared.execute(actuals={})
        after_write = _counters()
        assert (
            after_write["repro_parallel_pool_invalidations_total"]
            == after_reuse["repro_parallel_pool_invalidations_total"] + 1
        )
        assert (
            after_write["repro_parallel_pool_forks_total"]
            == after_reuse["repro_parallel_pool_forks_total"] + 1
        )

        serial = evaluate_audb(
            plan, db, EvalConfig(backend="vectorized", parallelism=1)
        )
        assert _fingerprint(third) == _fingerprint(serial)
        assert _fingerprint(first) == _fingerprint(second)

        pool = conn._pool
        assert pool is not None and pool.alive
        conn.close()
        assert conn._pool is None
        assert not pool.alive

    def test_broken_pool_falls_back_in_process(self):
        """A dead worker closes the pool (``PoolBrokenError``) and the
        region runs in-process instead — same result, no new fork."""
        conn, rel, db = self._connection()
        plan = Aggregate(
            TableRef("t"), ["g"], [agg_sum("v", "s"), agg_count("n")]
        )
        prepared = conn.prepare(plan)
        pooled = prepared.execute(actuals={})
        pool = conn._pool
        assert pool is not None and pool.alive
        for proc, _pipe in pool._workers:
            proc.terminate()
            proc.join(timeout=5.0)
            assert not proc.is_alive()

        before = _counters()
        inline = prepared.execute(actuals={})
        after = _counters()
        assert not pool.alive, "a transport failure must close the pool"
        assert (
            after["repro_parallel_tasks_total"]
            == before["repro_parallel_tasks_total"]
        ), "no morsel may be counted as served by the dead pool"
        serial = evaluate_audb(
            plan, db, EvalConfig(backend="vectorized", parallelism=1)
        )
        assert _fingerprint(inline) == _fingerprint(pooled)
        assert _fingerprint(inline) == _fingerprint(serial)
        conn.close()

    def test_uncertain_group_serial_fallback(self):
        conn, rel, db = self._connection()
        rel.add([between(0, 0, 1), 2.5], (1, 1, 1))  # uncertain group key
        plan = Aggregate(TableRef("t"), ["g"], [agg_sum("v", "s")])

        before = _counters()
        parallel = conn.execute(plan)
        after = _counters()
        assert (
            after["repro_parallel_au_serial_fallbacks_total"]
            == before["repro_parallel_au_serial_fallbacks_total"] + 1
        )
        serial = evaluate_audb(
            plan, db, EvalConfig(backend="vectorized", parallelism=1)
        )
        assert _fingerprint(parallel) == _fingerprint(serial)
        conn.close()

"""The query-session layer: prepared statements, plan cache, epochs.

Covers the PR's acceptance bar: a prepared parameterized query
re-executed 100x after interleaved writes returns results bit-identical
to fresh evaluation on all of {tuple, vectorized} x {det, AU}, while
skipping re-parse/re-optimize (asserted via the plan-cache hit counters
on ``Connection.metrics``) — plus staleness-driven re-lowering, epoch
band rotation, write-path cache invalidation on both engines, and the
relation identity-hash contract.
"""

import pytest

from repro import analysis
from repro.algebra.evaluator import EvalConfig, evaluate_audb
from repro.core.expressions import Const, UnboundParameterError
from repro.core.ranges import between
from repro.core.relation import AUDatabase, AURelation
from repro.db.engine import evaluate_det
from repro.db.storage import DetDatabase, DetRelation
from repro.exec.physical import explain_physical
from repro.session import (
    _METRIC_FIELDS,
    Connection,
    ConnectionMetrics,
    _bind,
    bind_parameters,
    collect_parameters,
    connect,
)
from repro.sql.parser import parse_sql
from repro.telemetry import MetricsRegistry, get_registry


def make_det_db(n: int = 24) -> DetDatabase:
    orders = DetRelation(["okey", "cust", "price"])
    customers = DetRelation(["ckey", "segment"])
    for i in range(n):
        orders.add((i, i % 5, float(i) + 0.25), 1 + i % 2)
    for c in range(5):
        customers.add((c, f"seg{c % 2}"), 1)
    return DetDatabase({"orders": orders, "customers": customers})


def make_au_db(n: int = 16) -> AUDatabase:
    orders = AURelation(["okey", "cust", "price"])
    customers = AURelation(["ckey", "segment"])
    for i in range(n):
        price = (
            between(float(i), float(i) + 0.5, float(i) + 2.0)
            if i % 3 == 0
            else float(i) + 0.25
        )
        orders.add([i, i % 5, price], (1, 1, 1 + i % 2))
    for c in range(5):
        customers.add([c, f"seg{c % 2}"], (1, 1, 1))
    return AUDatabase({"orders": orders, "customers": customers})


SQL = (
    "SELECT segment, sum(price) AS total, count(*) AS n "
    "FROM orders JOIN customers ON cust = ckey "
    "WHERE price >= ? GROUP BY segment"
)


def det_bits(rel):
    return (rel.schema, dict(rel.rows))


def au_bits(rel):
    return (rel.schema, dict(rel.tuples()))


class TestAcceptance:
    """The PR acceptance criterion, verbatim."""

    @pytest.mark.parametrize("backend", ["tuple", "vectorized"])
    def test_det_100x_reexecution_with_interleaved_writes(self, backend):
        db = make_det_db()
        conn = Connection(db, config=EvalConfig(backend=backend))
        raw_plan = parse_sql(SQL)
        thresholds = [0.0, 5.5, 11.25, 17.0]
        for i in range(100):
            # a write lands between every pair of executions
            db["orders"].add((100 + i, i % 5, 50.0 + i), 1)
            params = [thresholds[i % len(thresholds)]]
            got = conn.execute(SQL, params)
            fresh = evaluate_det(
                bind_parameters(raw_plan, params), db, backend=backend
            )
            assert det_bits(got) == det_bits(fresh), f"iteration {i}"
        m = conn.metrics
        # prepared once: every re-execution skipped re-parse/re-optimize
        assert m.parses == 1
        assert m.optimizations == 1
        assert m.cache_misses == 1
        assert m.cache_hits == 99
        assert m.executions == 100
        # 100 writes against the default staleness of 64: the physical
        # plan re-lowered against fresh statistics at least once, and
        # re-lowering is NOT a re-optimize
        assert m.relowerings >= 1
        assert m.lowerings == 1 + m.relowerings

    @pytest.mark.parametrize("backend", ["tuple", "vectorized"])
    def test_au_100x_reexecution_with_interleaved_writes(self, backend):
        db = make_au_db()
        conn = Connection(db, config=EvalConfig(backend=backend))
        raw_plan = parse_sql(SQL)
        thresholds = [0.0, 4.5, 9.25]
        for i in range(100):
            db["orders"].add(
                [100 + i, i % 5, between(40.0 + i, 50.0 + i, 60.0 + i)],
                (1, 1, 1),
            )
            params = [thresholds[i % len(thresholds)]]
            got = conn.execute(SQL, params)
            fresh = evaluate_audb(
                bind_parameters(raw_plan, params),
                db,
                EvalConfig(backend=backend),
            )
            assert au_bits(got) == au_bits(fresh), f"iteration {i}"
        m = conn.metrics
        assert m.parses == 1
        assert m.optimizations == 1
        assert m.cache_hits == 99
        assert m.relowerings >= 1
        assert m.lowerings == 1 + m.relowerings


class TestPreparedQuery:
    def test_prepared_plan_objects_amortize_without_the_cache(self):
        db = make_det_db()
        conn = Connection(db)
        plan = parse_sql("SELECT okey FROM orders WHERE price >= :p")
        prepared = conn.prepare(plan)
        assert prepared.parameters == ["p"]
        a = prepared.execute({"p": 3.0})
        b = prepared.execute({"p": 1000.0})
        assert len(b.rows) == 0 and len(a.rows) > 0
        assert conn.metrics.parses == 0  # plans arrive pre-parsed
        assert conn.metrics.optimizations == 1

    def test_binding_validation(self):
        conn = Connection(make_det_db())
        prepared = conn.prepare("SELECT okey FROM orders WHERE price >= ?")
        with pytest.raises(UnboundParameterError):
            prepared.execute()  # missing
        with pytest.raises(UnboundParameterError):
            prepared.execute([1.0, 2.0])  # surplus
        with pytest.raises(UnboundParameterError):
            prepared.execute({"p": 1.0})  # named for positional
        named = conn.prepare("SELECT okey FROM orders WHERE price >= :p")
        with pytest.raises(UnboundParameterError):
            named.execute([1.0])  # positional for named
        with pytest.raises(UnboundParameterError):
            named.execute({"p": 1.0, "q": 2.0})  # unknown name
        parameterless = conn.prepare("SELECT okey FROM orders")
        with pytest.raises(UnboundParameterError):
            parameterless.execute([1.0])

    def test_range_value_bindings_reach_the_au_engine(self):
        db = make_au_db()
        conn = Connection(db)
        prepared = conn.prepare("SELECT okey FROM orders WHERE price <= ?")
        exact = prepared.execute([3.0])
        fuzzy = prepared.execute([between(2.0, 3.0, 8.0)])
        # an uncertain bound can only widen the possible answers
        assert set(dict(exact.tuples())) <= set(dict(fuzzy.tuples()))

    def test_legacy_lowering_through_the_session(self):
        db = make_det_db()
        conn = Connection(db, config=EvalConfig(physical=False))
        got = conn.execute(SQL, [5.0])
        fresh = evaluate_det(
            bind_parameters(parse_sql(SQL), [5.0]), db, physical=False
        )
        assert det_bits(got) == det_bits(fresh)
        au = make_au_db()
        au_conn = Connection(au, config=EvalConfig(physical=False))
        got_au = au_conn.execute(SQL, [5.0])
        fresh_au = evaluate_audb(
            bind_parameters(parse_sql(SQL), [5.0]),
            au,
            EvalConfig(physical=False),
        )
        assert au_bits(got_au) == au_bits(fresh_au)

    @pytest.mark.parametrize("backend", [None, "tuple", "vectorized"])
    def test_physical_false_alone_selects_the_oracle(self, backend):
        # the legacy interpreter is the fuzzer's oracle: physical=False
        # must select it whatever the backend — named or the default —
        # so a default change never turns the oracle into the code
        # under test
        knobs = {} if backend is None else {"backend": backend}
        config = EvalConfig(physical=False, **knobs)
        plan = bind_parameters(parse_sql(SQL), [5.0])
        for db in (make_det_db(), make_au_db()):
            conn = Connection(db, config=config)
            conn.execute(SQL, [5.0])
            header = conn.explain_analyze(SQL, [6.0]).splitlines()[0]
            assert "backend=legacy" in header
            assert conn.metrics.lowerings == 0
            lowerings = get_registry().counter(
                "repro_session_lowerings_total", engine=conn.engine
            )
            before = lowerings.value
            if conn.engine == "det":
                evaluate_det(plan, db, physical=False, **knobs)
            else:
                evaluate_audb(plan, db, config)
            assert lowerings.value == before

    def test_explain_helpers(self):
        conn = Connection(make_det_db())
        prepared = conn.prepare(SQL)
        assert "HashJoin" in prepared.explain_physical()
        assert "rows" in prepared.explain_logical()


class TestStalenessAndBands:
    def test_relowering_triggers_after_staleness_drift(self):
        db = make_det_db()
        conn = Connection(db, staleness=4)
        prepared = conn.prepare("SELECT cust FROM orders WHERE price >= ?")
        prepared.execute([1.0])
        assert conn.metrics.relowerings == 0
        for i in range(5):  # drift past the threshold
            db["orders"].add((500 + i, 0, 1.0), 1)
        prepared.execute([1.0])
        assert conn.metrics.relowerings == 1
        assert conn.metrics.optimizations == 1  # still never re-optimized
        # within the window nothing re-lowers
        prepared.execute([2.0])
        assert conn.metrics.relowerings == 1

    def test_staleness_zero_relowers_on_any_drift_and_minus_one_never(self):
        db = make_det_db()
        eager = Connection(db, staleness=0)
        prepared = eager.prepare("SELECT cust FROM orders")
        prepared.execute()
        db["orders"].add((900, 0, 1.0), 1)
        prepared.execute()
        assert eager.metrics.relowerings == 1
        frozen = Connection(db, staleness=-1)
        p2 = frozen.prepare("SELECT cust FROM orders")
        p2.execute()
        for i in range(50):
            db["orders"].add((901 + i, 0, 1.0), 1)
        p2.execute()
        assert frozen.metrics.relowerings == 0

    def test_epoch_band_rotation_reprepares(self):
        db = make_det_db()
        conn = Connection(db, staleness=1)  # band width = 16 writes
        sql = "SELECT cust FROM orders WHERE price >= ?"
        conn.execute(sql, [1.0])
        conn.execute(sql, [1.0])
        assert conn.metrics.cache_misses == 1 and conn.metrics.cache_hits == 1
        for i in range(16):  # cross into the next epoch band
            db["orders"].add((700 + i, 0, 1.0), 1)
        conn.execute(sql, [1.0])
        assert conn.metrics.cache_misses == 2  # fresh prepare, new band
        assert conn.metrics.optimizations == 2

    def test_statistics_cached_by_epoch(self):
        db = make_det_db()
        conn = Connection(db)
        s1 = conn.statistics()
        assert conn.statistics() is s1  # no writes: same snapshot
        db["orders"].add((999, 0, 9.0), 1)
        s2 = conn.statistics()
        assert s2 is not s1
        assert s2.cardinalities["orders"] == s1.cardinalities["orders"] + 1
        assert conn.metrics.stats_refreshes == 2

    def test_lru_eviction(self):
        # distinct shapes: literal variants of one shape share a plan
        conn = Connection(make_det_db(), cache_size=2)
        shapes = [f"SELECT {col} FROM orders" for col in ("okey", "cust", "price")]
        for sql in shapes:
            conn.execute(sql)
        conn.execute(shapes[0])  # evicted by the third query
        assert conn.metrics.cache_misses == 4


class TestWritePathInvalidation:
    """Satellite audit: every supported write path must invalidate (or
    incrementally maintain) the statistics and columnar caches."""

    @pytest.mark.parametrize("backend", ["tuple", "vectorized"])
    def test_det_mutation_after_cached_read(self, backend):
        db = make_det_db()
        conn = Connection(db, config=EvalConfig(backend=backend))
        sql = "SELECT sum(price) AS s FROM orders"
        before = conn.execute(sql)
        # the columnar image and the stats snapshot are now warm; the
        # write must not leak into either
        db["orders"].add((800, 1, 100.0), 1)
        after = conn.execute(sql)
        assert det_bits(after) != det_bits(before)
        assert det_bits(after) == det_bits(
            evaluate_det(parse_sql(sql), db, backend=backend)
        )

    @pytest.mark.parametrize("backend", ["tuple", "vectorized"])
    def test_au_mutation_after_cached_read(self, backend):
        db = make_au_db()
        conn = Connection(db, config=EvalConfig(backend=backend))
        sql = "SELECT sum(price) AS s FROM orders"
        before = conn.execute(sql)
        db["orders"].add([800, 1, between(90.0, 100.0, 110.0)], (1, 1, 1))
        after = conn.execute(sql)
        assert au_bits(after) != au_bits(before)
        assert au_bits(after) == au_bits(
            evaluate_audb(parse_sql(sql), db, EvalConfig(backend=backend))
        )

    def test_au_annotation_merge_after_cached_read(self, backend="vectorized"):
        # merging an annotation into an existing tuple goes through the
        # columnar cache too (the annotation arrays change)
        db = make_au_db()
        conn = Connection(db, config=EvalConfig(backend=backend))
        sql = "SELECT count(*) AS n FROM orders"
        before = conn.execute(sql)
        t0 = next(iter(db["orders"]))
        db["orders"].add(t0, (0, 0, 3))  # ub-only merge, same tuple
        after = conn.execute(sql)
        assert au_bits(after) != au_bits(before)

    def test_relation_rebinding_invalidates_connection_stats(self):
        db = make_det_db()
        conn = Connection(db)
        assert conn.statistics().cardinalities["customers"] == 5
        db["customers"] = DetRelation(["ckey", "segment"], [(0, "seg0")])
        assert conn.statistics().cardinalities["customers"] == 1


class TestRelationIdentity:
    """DetRelation now uses identity eq/hash consistently (the old
    value-__eq__ / identity-__hash__ pair broke dict-key safety)."""

    def test_identity_semantics(self):
        a = DetRelation(["x"], [(1,)])
        b = DetRelation(["x"], [(1,)])
        assert a != b and a == a
        assert a.same_contents(b)
        assert hash(a) != hash(b) or a is b

    def test_safe_as_dict_keys(self):
        a = DetRelation(["x"], [(1,)])
        b = DetRelation(["x"], [(1,)])
        cache = {a: "a", b: "b"}
        assert len(cache) == 2
        assert cache[a] == "a" and cache[b] == "b"
        a.add((2,))  # mutation must not move it to another bucket
        assert cache[a] == "a"

    def test_same_contents_detects_differences(self):
        a = DetRelation(["x"], [(1,)])
        assert not a.same_contents(DetRelation(["y"], [(1,)]))
        assert not a.same_contents(DetRelation(["x"], [(2,)]))


class TestConnectionBasics:
    def test_engine_inference_and_validation(self):
        assert Connection(make_det_db()).engine == "det"
        assert Connection(make_au_db()).engine == "au"
        assert connect(make_det_db()).engine == "det"
        with pytest.raises(TypeError):
            Connection({"not": "a database"})
        with pytest.raises(ValueError):
            Connection(make_det_db(), engine="postgres")
        with pytest.raises(ValueError):
            Connection(make_det_db(), config=EvalConfig(backend="gpu"))

    def test_per_call_config_gets_its_own_cache_entry(self):
        conn = Connection(make_det_db(), config=EvalConfig(backend="tuple"))
        sql = "SELECT cust FROM orders"
        conn.execute(sql)
        conn.execute(sql, config=EvalConfig(backend="vectorized"))
        conn.execute(sql)
        assert conn.metrics.cache_misses == 2
        assert conn.metrics.cache_hits == 1

    def test_parameters_survive_optimization(self):
        # pushdown must not lose or duplicate placeholders
        conn = Connection(make_det_db())
        prepared = conn.prepare(
            "SELECT segment, okey FROM orders JOIN customers ON cust = ckey "
            "WHERE price >= ? AND segment = ?"
        )
        assert collect_parameters(prepared.optimized) == sorted(
            collect_parameters(prepared.plan)
        ) or sorted(collect_parameters(prepared.optimized)) == [0, 1]
        got = prepared.execute([2.0, "seg0"])
        fresh = evaluate_det(
            bind_parameters(prepared.plan, [2.0, "seg0"]), conn.db
        )
        assert det_bits(got) == det_bits(fresh)


class TestBindingCoverage:
    """Parameter binding must reach every physical operator kind."""

    def test_parameter_inside_a_compressed_join_condition(self):
        db = make_au_db()
        config = EvalConfig(join_buckets=2)
        conn = Connection(db, config=config)
        sql = (
            "SELECT okey FROM orders JOIN customers "
            "ON cust = ckey AND price >= ?"
        )
        prepared = conn.prepare(sql)
        for p in (0.0, 6.5):
            got = prepared.execute([p])
            fresh = evaluate_audb(
                bind_parameters(parse_sql(sql), [p]), db, config
            )
            assert au_bits(got) == au_bits(fresh)

    def test_parameter_inside_a_parallel_region(self):
        from repro.exec import parallel as exec_parallel

        db = make_det_db()
        config = EvalConfig(backend="vectorized", parallelism=4)
        old = exec_parallel.PARALLEL_MIN_ROWS
        exec_parallel.PARALLEL_MIN_ROWS = 0
        try:
            conn = Connection(db, config=config)
            prepared = conn.prepare(SQL)
            for p in (0.0, 8.5):
                got = prepared.execute([p])
                fresh = evaluate_det(
                    bind_parameters(parse_sql(SQL), [p]),
                    db,
                    backend="vectorized",
                    parallelism=4,
                )
                assert det_bits(got) == det_bits(fresh)
        finally:
            exec_parallel.PARALLEL_MIN_ROWS = old

    def test_legacy_adaptive_compression_hints_via_session(self):
        db = make_au_db()
        config = EvalConfig(
            physical=False, join_buckets=4, adaptive_compression=True
        )
        conn = Connection(db, config=config)
        sql = (
            "SELECT okey FROM orders JOIN customers ON cust = ckey "
            "WHERE price >= ?"
        )
        got = conn.execute(sql, [2.0])
        fresh = evaluate_audb(
            bind_parameters(parse_sql(sql), [2.0]), db, config
        )
        assert au_bits(got) == au_bits(fresh)

    def test_parameter_in_projection_aggregate_and_having(self):
        db = make_det_db()
        conn = Connection(db)
        sql = (
            "SELECT cust, sum(price * :scale) AS s FROM orders "
            "GROUP BY cust HAVING s >= :floor"
        )
        prepared = conn.prepare(sql)
        for binding in ({"scale": 2.0, "floor": 0.0},
                        {"scale": 0.5, "floor": 40.0}):
            got = prepared.execute(binding)
            fresh = evaluate_det(
                bind_parameters(parse_sql(sql), binding), db
            )
            assert det_bits(got) == det_bits(fresh)

    def test_hot_bindings_reuse_compiled_closures(self):
        # re-executing a statement must reuse, for any binding, the
        # vectorized backend's compiled kernels (cached by statement
        # shape, constants lifted) instead of re-codegenning
        from repro.exec import compile as exec_compile
        from repro.exec.physical import explain_physical

        conn = Connection(
            make_det_db(), config=EvalConfig(backend="vectorized")
        )
        prepared = conn.prepare("SELECT okey FROM orders WHERE price >= ?")
        first = prepared.execute([2.0])
        assert det_bits(prepared.execute([2.0])) == det_bits(first)
        # a hot binding rebinds to the plan it ran before
        hot = {0: Const(2.0)}
        assert explain_physical(_bind(prepared.pplan, hot)) == explain_physical(
            _bind(prepared.pplan, hot)
        )
        before = len(exec_compile._KERNELS)
        for k in range(5):
            prepared.execute([2.0])
            prepared.execute([3.0 + k])
        assert len(exec_compile._KERNELS) == before  # no kernel churn
        # values that compare equal but differ in type must NOT share
        # a bound plan or a memoized result (okey * 2 is an int,
        # okey * 2.0 a float)
        scale = conn.prepare("SELECT okey * :s AS v FROM orders")
        as_int = scale.execute({"s": 2})
        as_float = scale.execute({"s": 2.0})
        assert explain_physical(
            _bind(scale.pplan, {"s": Const(2)})
        ) != explain_physical(_bind(scale.pplan, {"s": Const(2.0)}))
        assert all(isinstance(t[0], int) for t in as_int.rows)
        assert all(isinstance(t[0], float) for t in as_float.rows)


class TestBindTimeSkipping:
    """A prepared statement skips the chunks of its literal twin: the
    cached plan's scans carry skip *templates* (``column ⟨op⟩ ?slot``)
    and binding fills them on copies of the scans."""

    @staticmethod
    def _skipping(run):
        from repro.db import chunks

        before = chunks._CHUNKS_SKIPPED.value
        result = run()
        return result, chunks._CHUNKS_SKIPPED.value - before

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("engine", ["det", "au"])
    def test_prepared_skips_like_its_literal_twin(self, engine, parallelism):
        from repro.exec import parallel as exec_parallel

        db = make_det_db(60) if engine == "det" else make_au_db(60)
        bits = det_bits if engine == "det" else au_bits
        config = EvalConfig(
            backend="vectorized", chunk_size=8, parallelism=parallelism
        )
        conn = Connection(db, config=config, verify=True)
        sql = "SELECT okey, price FROM orders WHERE okey >= ? AND okey < ?"
        prepared = conn.prepare(sql)
        old = exec_parallel.PARALLEL_MIN_ROWS
        exec_parallel.PARALLEL_MIN_ROWS = 0
        try:
            for lo, hi in ((0, 5), (30, 41), (58, 99)):
                got, skipped = self._skipping(lambda: prepared.execute([lo, hi]))
                twin = sql.replace("?", str(lo), 1).replace("?", str(hi), 1)
                # prepare() keeps the twin's literals (execute() would
                # lift them back into this very statement)
                want, twin_skipped = self._skipping(
                    lambda: conn.prepare(twin).execute()
                )
                assert bits(got) == bits(want)
                assert skipped == twin_skipped > 0, (lo, hi)
        finally:
            exec_parallel.PARALLEL_MIN_ROWS = old
        # the cached plan still holds the template, never a filled copy
        skips = [
            str(n.skip) for n in prepared.pplan.walk()
            if getattr(n, "skip", None) is not None
        ]
        assert skips == ["okey>=?0 AND okey<?1"]

    def test_binding_fills_the_skip_predicate_on_a_copy(self):
        db = make_det_db(60)
        conn = Connection(
            db,
            config=EvalConfig(backend="vectorized", chunk_size=8),
            trace=True,
        )
        prepared = conn.prepare(
            "SELECT okey FROM orders WHERE okey >= ? AND price < ?"
        )
        _, first = self._skipping(lambda: prepared.execute([50, 100.0]))
        assert first > 0
        assert [
            span.attrs["skip"]
            for span in conn.last_trace.root.walk()
            if "skip" in span.attrs
        ] == ["bound"]
        bound = _bind(prepared.pplan, {0: Const(50), 1: Const(100.0)})
        assert str(bound.child.skip) == "okey>=50 AND price<100.0"
        assert bound.child.skip.origin == "bound"
        db["orders"].add((999, 1, 1.0), 1)  # a new epoch: no result memo
        _, again = self._skipping(lambda: prepared.execute([50, 100.0]))
        assert again == first
        # a NaN binding drops its atom, as derive_skip drops a NaN literal
        nan = _bind(prepared.pplan, {0: Const(50), 1: Const(float("nan"))})
        assert str(nan.child.skip) == "okey>=50"
        assert str(prepared.pplan.child.skip) == "okey>=?0 AND price<?1"

    def test_parallel_au_aggregate_fills_its_serial_final_too(self):
        # the AU Exchange keeps the serial HashAggregate as its final
        # (re-run on an uncertain group key): its scan must be filled as
        # well, which verify_bound checks on every bound plan
        from repro.exec import parallel as exec_parallel

        db = make_au_db(60)
        config = EvalConfig(backend="vectorized", chunk_size=8, parallelism=2)
        conn = Connection(db, config=config, verify=True)
        sql = "SELECT cust, count(*) AS n FROM orders WHERE okey < ? GROUP BY cust"
        old = exec_parallel.PARALLEL_MIN_ROWS
        exec_parallel.PARALLEL_MIN_ROWS = 0
        try:
            got = conn.execute(sql, [20])
        finally:
            exec_parallel.PARALLEL_MIN_ROWS = old
        fresh = evaluate_audb(bind_parameters(parse_sql(sql), [20]), db, config)
        assert au_bits(got) == au_bits(fresh)
        prepared = conn.prepare(sql)
        for spine in (None, analysis.binding_spine(prepared.pplan)):
            bound = _bind(prepared.pplan, {0: Const(20)}, spine)
            assert type(bound).__name__ == "Exchange"
            (scan,) = [n for n in bound.final.walk() if type(n).__name__ == "Scan"]
            assert str(scan.skip) == "okey<20"

    def test_binding_visits_only_the_parameter_spine(self):
        """Execution binds along :func:`repro.analysis.binding_spine`:
        the same plan as the full walk, with every subtree and expression
        that mentions no parameter kept as the template's own object."""
        conn = Connection(make_det_db(60), config=EvalConfig(backend="vectorized"))
        prepared = conn.prepare(
            "SELECT okey, segment FROM orders JOIN customers ON cust = ckey "
            "WHERE price < ? AND segment <> 'x'"
        )
        spine = analysis.binding_spine(prepared.pplan)
        binding = {0: Const(100.0)}
        full = _bind(prepared.pplan, binding)
        bound = _bind(prepared.pplan, binding, spine)
        assert explain_physical(bound) == explain_physical(full)
        assert "?" not in explain_physical(bound)
        template = list(prepared.pplan.walk())
        for old, new in zip(template, bound.walk()):
            assert (new is old) == (id(old) not in spine)
        # a statement without parameters binds to itself
        plain = conn.prepare("SELECT okey FROM orders WHERE price < 5.0")
        assert not analysis.binding_spine(plain.pplan)
        assert _bind(plain.pplan, binding, frozenset()) is plain.pplan


class TestMetricsRegistryView:
    """Satellite: ``ConnectionMetrics`` is a view over the process-wide
    :class:`repro.telemetry.MetricsRegistry` — every local increment
    must appear as an equal delta on the matching
    ``repro_session_<field>_total`` registry counter, and the counters
    stay monotone."""

    @staticmethod
    def _registry_values(engine):
        reg = get_registry()
        return {
            name: reg.counter(
                f"repro_session_{name}_total", engine=engine
            ).value
            for name in _METRIC_FIELDS
        }

    def test_increments_route_to_registry(self):
        reg = MetricsRegistry()
        m = ConnectionMetrics("det", registry=reg)
        m.parses += 1
        m.executions += 3
        assert m.parses == 1 and m.executions == 3
        assert (
            reg.counter("repro_session_parses_total", engine="det").value
            == 1
        )
        assert (
            reg.counter(
                "repro_session_executions_total", engine="det"
            ).value
            == 3
        )
        assert m.snapshot()["executions"] == 3

    def test_monotone_contract_rejects_decrements(self):
        m = ConnectionMetrics("det", registry=MetricsRegistry())
        m.executions = 2
        with pytest.raises(ValueError):
            m.executions = 1
        assert m.executions == 2  # the rejected write changed nothing

    def test_connections_share_registry_but_not_views(self):
        reg = MetricsRegistry()
        a = ConnectionMetrics("det", registry=reg)
        b = ConnectionMetrics("det", registry=reg)
        a.executions += 1
        b.executions += 1
        assert a.executions == 1 and b.executions == 1
        assert (
            reg.counter(
                "repro_session_executions_total", engine="det"
            ).value
            == 2  # the registry aggregates over both connections
        )

    @pytest.mark.parametrize("backend", ["tuple", "vectorized"])
    def test_live_paths_keep_view_and_registry_consistent(self, backend):
        # the interesting session paths — plan-cache hit, result-memo
        # hit, staleness re-lowering, subscribe — must all advance the
        # local view and the global registry by identical deltas
        before = self._registry_values("det")
        db = make_det_db()
        conn = Connection(
            db, config=EvalConfig(backend=backend), staleness=1
        )
        prepared = conn.prepare(SQL)  # miss: parse+optimize+lower
        conn.execute(SQL, [2.0])  # plan-cache hit, fresh execution
        conn.execute(SQL, [2.0])  # plan-cache hit + result-memo hit
        for i in range(5):
            db["orders"].add((600 + i, 0, 1.0), 1)
        prepared.execute([2.0])  # epoch drift past staleness: re-lower
        view = conn.subscribe("SELECT cust FROM orders")
        conn.unsubscribe(view)
        snap = conn.metrics.snapshot()
        assert snap["cache_hits"] == 2
        assert snap["cache_misses"] >= 1
        assert snap["result_cache_hits"] == 1
        assert snap["relowerings"] == 1
        assert snap["subscriptions"] == 1
        assert snap["executions"] == 3
        after = self._registry_values("det")
        deltas = {k: after[k] - before[k] for k in after}
        assert deltas == snap

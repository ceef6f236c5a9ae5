"""Differential query fuzzer: optimized ≡ naive, vectorized ≡ tuple,
physical ≡ legacy lowering, parallel ≡ serial, and AU bounds Det.

A *seeded* random generator (plain :mod:`random`, no Hypothesis — every
case is reproducible from its integer seed, which CI pins) produces small
AU-databases and random ``RA_agg`` plans, then machine-checks the
equivalences the optimizer, the physical planner, the vectorized
backend, and the paper's semantics promise:

1. **Optimizer differential** — for BOTH engines and BOTH join-order
   strategies (``greedy`` and the cost-based ``dp``), the optimized plan
   returns exactly the naive (``--no-optimize``) result: identical
   schemas, identical bags (Det), identical ``K^AU`` annotations (AU).
2. **Physical-planner differential** — the default path (cost-based
   lowering through :func:`repro.exec.physical.lower`) returns exactly
   the legacy direct interpretation (``physical=False``) on both
   engines, naive and optimized shapes.
3. **Backend and parallelism differential** — for BOTH engines, the
   vectorized backend (:mod:`repro.exec`) returns exactly the tuple
   interpreter's result on every plan shape, and BOTH engines return
   identical results at ``parallelism`` 1 and 4 (partition thresholds
   pinned to 0 so the 4-way morsel partition-and-merge machinery — AU
   partial aggregates with SG-combine-aware merges included — really
   runs); the tuple-at-a-time AU executor is knob-inert under the same
   setting.
4. **Float bit-stability** — on a float-valued copy of the database,
   SUM/AVG results are *bit-identical* across backends, lowerings, and
   parallelism levels (exact summation, :mod:`repro.core.sums`); the
   PR 3 "round-off may differ" carve-out is gone.
4b. **Prepared-statement differential** — every plan, wrapped in a
   parameterized selection (any comparison, either orientation), is
   ``prepare``d once on a :class:`repro.session.Connection`
   (``staleness=1`` so epoch-drift re-lowering actually fires, chunk
   size 1, 3, 64 or the default) and executed with three bindings —
   ints, or NaN / ``None`` / bool / str / float — interleaved with
   writes; each execution must equal its literal twin (the bound plan
   prepared fresh) and the legacy interpreter bit-for-bit, or raise the
   same exception, on both engines and both backends, and skip exactly
   as many chunks as the literal twin; the session counters must show
   zero re-parses/re-optimizes.
4c. **Incremental-view-maintenance differential** — every plan is
   ``subscribe``d on a connection and a random interleaving of
   inserts/deletes/updates (AU deletes with valid delta/remainder
   ``K^AU`` triples) is applied; after every write the maintained
   :class:`~repro.ivm.MaterializedView` result must equal fresh
   re-execution, on both engines and both backends, whatever the
   delta-plan classification (linear / aggregate-merge / epoch-gated
   refresh); after ``unsubscribe`` maintenance must stop and the
   registry entry must be freed.
5. **Det-vs-AU containment** — the AU result must bound the certain
   answer: its selected-guess world equals the Det engine's result over
   the SGW database, and the tuple-matching oracle
   (:func:`repro.core.bounding.bounds_world`) certifies the AU relation
   bounds that world.  ``LIMIT``/top-k plans only require sub-bag
   containment (the AU engine keeps a sound superset — exact when the
   order keys are certain, everything otherwise).
6. **Compression soundness** — with a join compression budget and
   planner-placed (adaptive) budgets, the result still bounds the Det
   answer, on both backends.
6b. **Compression backend differential** — under ``Cpr`` the two
   backends run different code (the tuple backend
   :func:`repro.core.compression.optimized_join`, the vectorized one the
   columnar :func:`repro.exec.compressed_join.compressed_join`) and must
   still return the same relation **in the same row order** — or raise
   the same exception type — for ``join_buckets`` ∈ {1, 2, 64} ×
   ``aggregation_buckets`` ∈ {None, 1, 2, 64} × fixed and adaptive
   budgets × vectorized ``parallelism`` ∈ {1, 4}: the columnar AU
   aggregate (:func:`repro.exec.au_aggregate.aggregate_batch`) and its
   per-morsel partial fold are held to
   :func:`repro.core.aggregation.aggregate` the same way.
7. **Telemetry transparency** — on a slice of the seeds (every third
   case) the plan is re-executed on ``trace=True`` connections: tracing
   must be invisible (bit-identical results on both engines and both
   backends) and the recorded :class:`repro.telemetry.QueryTrace` must
   be well formed — ``problems()`` empty, so no orphan spans, no
   negative durations, no child interval escaping its parent.

Run the CI gate standalone (exits non-zero on the first mismatch)::

    PYTHONPATH=src python tests/test_fuzz_differential.py --cases 200 --seed 20260728
"""

from __future__ import annotations

import argparse
import os
import random
from typing import List, Set, Tuple

import pytest

from repro import analysis
from repro.algebra.ast import (
    Aggregate,
    CrossProduct,
    Difference,
    Distinct,
    Join,
    Limit,
    OrderBy,
    Plan,
    Projection,
    Rename,
    Selection,
    TableRef,
    TopK,
    Union,
)
from repro.algebra.evaluator import EvalConfig, evaluate_audb
from repro.core.aggregation import agg_avg, agg_count, agg_max, agg_min, agg_sum
from repro.core.bounding import bounds_world
from repro.core.expressions import (
    And,
    Const,
    Eq,
    Geq,
    Gt,
    Leq,
    Lt,
    Neq,
    Not,
    Or,
    Parameter,
    Var,
)
from repro.core.ranges import RangeValue
from repro.core.relation import AUDatabase, AURelation
from repro.db.engine import evaluate_det
from repro.db.storage import DetDatabase, DetRelation
from repro.exec import parallel as exec_parallel
from repro.experiments.common import sgw_database
from repro.session import Connection, bind_parameters

BASE_SEED = 20260728
N_CASES = int(os.environ.get("FUZZ_CASES", "200"))
_CHUNK = 20

TABLES = {"r": ("a", "b"), "s": ("c", "d"), "u": ("e", "f")}

#: the chunk-free oracle of the storage lanes: the legacy direct
#: interpretation of the logical plan never builds or reads a chunk store
TUPLE_LEGACY = EvalConfig(backend="tuple", physical=False)


# ----------------------------------------------------------------------
# seeded generators
# ----------------------------------------------------------------------
def make_audb(rng: random.Random) -> AUDatabase:
    relations = {}
    for name, schema in TABLES.items():
        rel = AURelation(schema)
        for _ in range(rng.randint(0, 5)):
            values = []
            for _column in schema:
                lo = rng.randint(-2, 5)
                mid = lo + rng.randint(0, 2)
                hi = mid + rng.randint(0, 2)
                values.append(RangeValue(lo, mid, hi))
            lb = rng.randint(0, 1)
            sg = lb + rng.randint(0, 1)
            ub = sg + rng.randint(0, 1)
            if ub > 0:
                rel.add(values, (lb, sg, ub))
        relations[name] = rel
    return AUDatabase(relations)


def make_condition(rng: random.Random, schema: List[str]):
    def atom():
        lhs = Var(rng.choice(schema))
        if rng.random() < 0.5:
            rhs = Const(rng.randint(-2, 6))
        else:
            rhs = Var(rng.choice(schema))
        op = rng.choice([Eq, Leq, Gt])
        return op(lhs, rhs)

    cond = atom()
    for _ in range(rng.randint(0, 2)):
        combiner = rng.choice(["and", "or", "not"])
        if combiner == "and":
            cond = And(cond, atom())
        elif combiner == "or":
            cond = Or(cond, atom())
        else:
            cond = Not(cond)
    return cond


def make_plan(
    rng: random.Random, depth: int
) -> Tuple[Plan, List[str], Set[str]]:
    if depth <= 0:
        name = rng.choice(sorted(TABLES))
        return TableRef(name), list(TABLES[name]), {name}

    choice = rng.randint(0, 9)
    plan, schema, used = make_plan(rng, depth - 1)

    if choice == 0:  # fresh leaf
        name = rng.choice(sorted(TABLES))
        return TableRef(name), list(TABLES[name]), {name}
    if choice == 1:  # selection
        return Selection(plan, make_condition(rng, schema)), schema, used
    if choice == 2:  # projection (subset + one computed column)
        kept = rng.sample(schema, rng.randint(1, len(schema)))
        cols = [(Var(a), a) for a in kept]
        if rng.random() < 0.5:
            x = rng.choice(schema)
            cols.append((Var(x) + Const(1), f"w{depth}"))
        return Projection(plan, cols), [n for _, n in cols], used
    if choice == 3:  # equi-join with an unused table
        free = sorted(set(TABLES) - used)
        if not free:
            return Selection(plan, make_condition(rng, schema)), schema, used
        name = rng.choice(free)
        other_schema = list(TABLES[name])
        condition = Eq(Var(rng.choice(schema)), Var(rng.choice(other_schema)))
        plan = Join(plan, TableRef(name), condition)
        return plan, schema + other_schema, used | {name}
    if choice == 4:  # cross product with an unused table
        free = sorted(set(TABLES) - used)
        if not free:
            return Distinct(plan), schema, used
        name = rng.choice(free)
        return (
            CrossProduct(plan, TableRef(name)),
            schema + list(TABLES[name]),
            used | {name},
        )
    if choice == 5:  # union / difference against a filtered copy
        other = Selection(plan, make_condition(rng, schema))
        node = Union if rng.random() < 0.5 else Difference
        return node(plan, other), schema, used
    if choice == 6:  # distinct
        return Distinct(plan), schema, used
    if choice == 7:  # group-by aggregate
        keys = rng.sample(schema, rng.randint(1, len(schema)))
        value = rng.choice(schema)
        spec = rng.choice(
            [
                agg_sum(value, "agg"),
                agg_min(value, "agg"),
                agg_max(value, "agg"),
                agg_avg(value, "agg"),
                agg_count("agg"),
            ]
        )
        return Aggregate(plan, keys, [spec]), keys + ["agg"], used
    if choice == 8:  # ORDER BY ... LIMIT (exercises TopK fusion)
        keys = rng.sample(schema, rng.randint(1, len(schema)))
        return (
            Limit(OrderBy(plan, keys, rng.random() < 0.5), rng.randint(1, 4)),
            schema,
            used,
        )
    # rename one column to a fresh name
    old = rng.choice(schema)
    new = f"{old}_{depth}"
    return (
        Rename(plan, {old: new}),
        [new if a == old else a for a in schema],
        used,
    )


# ----------------------------------------------------------------------
# the differential oracle
# ----------------------------------------------------------------------
def _limit_shape(plan: Plan) -> Tuple[bool, bool]:
    """``(contains_limit, containment_claimable)``.

    The AU engine evaluates ``Limit``/top-k as the identity (keeping
    everything is the only sound choice over unordered uncertain data),
    so the Det result is only a *sub-bag* of the AU selected-guess world
    — and that claim survives exactly the bag-monotone operators above
    the Limit.  ``Aggregate`` over a limited input (its values summarize
    more rows on the AU side) and a Limit in the *right* branch of a
    ``Difference`` (more gets subtracted) break it; for such plans the
    fuzzer only checks the optimizer differential.
    """
    if isinstance(plan, (Limit, TopK)):
        _, ok = _limit_shape(plan.child)
        return True, ok
    if isinstance(plan, Aggregate):
        has, ok = _limit_shape(plan.child)
        return has, ok and not has
    if isinstance(plan, Difference):
        left_has, left_ok = _limit_shape(plan.left)
        right_has, right_ok = _limit_shape(plan.right)
        return left_has or right_has, left_ok and right_ok and not right_has
    has, ok = False, True
    for child in plan.children():
        child_has, child_ok = _limit_shape(child)
        has = has or child_has
        ok = ok and child_ok
    return has, ok


def _is_subbag(small, big) -> bool:
    return all(big.get(t, 0) >= m for t, m in small.items())


def _clone_det(det: DetDatabase) -> DetDatabase:
    return DetDatabase(
        {
            name: DetRelation(rel.schema, dict(rel.rows))
            for name, rel in det.relations.items()
        }
    )


def _clone_audb(audb: AUDatabase) -> AUDatabase:
    out = AUDatabase({})
    for name, rel in audb.relations.items():
        clone = AURelation(rel.schema)
        for t, ann in rel.tuples():
            clone.add(t, ann)
        out[name] = clone
    return out


#: prepared-lane bindings beyond the small ints: every value kind the
#: bind-time skip fill must decide like a literal (NaN and None drop /
#: keep their atom, bools rank with the numbers, int vs float, strings)
EXOTIC_BINDINGS = (float("nan"), None, True, False, "a", 2.0, 3.5)


def _outcome(run):
    """``(result bits, chunks skipped)`` of ``run()``, or the exception
    type it raised — the three sides of the prepared lane must agree."""
    from repro.db import chunks

    before = chunks._CHUNKS_SKIPPED.value
    try:
        result = run()
    except Exception as exc:  # noqa: BLE001 - parity of *any* failure
        return ("raised", type(exc).__name__), None
    skipped = chunks._CHUNKS_SKIPPED.value - before
    if isinstance(result, DetRelation):
        return (result.schema, result.rows), skipped
    return (result.schema, dict(result.tuples())), skipped


def _check_prepared_lane(rng, plan, schema, used, det, audb, context) -> None:
    """Prepared-statement lane: ``prepare`` once, execute with three
    bindings interleaved with writes, and compare against the literal
    twin (the bound plan prepared fresh) and the legacy interpreter, on
    both engines and both backends, at a random chunk size.

    The parameterized atom is any comparison in either orientation and
    the bindings include NaN, ``None``, bools, strings and floats next
    to ints; the prepared statement must skip exactly the chunks its
    literal twin skips.  ``staleness=1`` forces the epoch-drift
    re-lowering machinery to run mid-sequence, so plan-cache staleness
    is fuzzed too.
    """
    col, param = Var(rng.choice(schema)), Parameter(0)
    op = rng.choice([Leq, Lt, Geq, Gt, Eq, Neq])
    atom = op(col, param) if rng.random() < 0.7 else op(param, col)
    param_plan = Selection(plan, atom)
    bindings = [
        rng.randint(-2, 6) if rng.random() < 0.6 else rng.choice(EXOTIC_BINDINGS)
        for _ in range(3)
    ]
    chunk_size = rng.choice((1, 3, 64, None))
    writes = []
    for _ in bindings:
        table = rng.choice(sorted(used))
        writes.append((table, [rng.randint(-2, 5) for _ in TABLES[table]]))
    for backend in ("tuple", "vectorized"):
        det_db = _clone_det(det)
        au_db = _clone_audb(audb)
        config = EvalConfig(backend=backend, chunk_size=chunk_size)
        det_conn = Connection(det_db, config=config, staleness=1)
        au_conn = Connection(au_db, config=config, staleness=1)
        det_twin = Connection(det_db, config=config)
        au_twin = Connection(au_db, config=config)
        det_prepared = det_conn.prepare(param_plan)
        au_prepared = au_conn.prepare(param_plan)
        for (table, row), value in zip(writes, bindings):
            bound = bind_parameters(param_plan, [value])
            where = f"[{backend} chunk={chunk_size} ?={value!r}] {context}"
            for engine, prepared, twin, legacy in (
                ("det", det_prepared, det_twin, lambda: evaluate_det(
                    bound, det_db, backend="tuple", physical=False)),
                ("AU", au_prepared, au_twin, lambda: evaluate_audb(
                    bound, au_db, TUPLE_LEGACY)),
            ):
                got, skipped = _outcome(lambda: prepared.execute([value]))
                want, twin_skipped = _outcome(lambda: twin.execute(bound))
                assert got == want, f"prepared {engine} vs literal {where}"
                assert got == _outcome(legacy)[0], (
                    f"prepared {engine} vs legacy {where}"
                )
                assert skipped == twin_skipped, (
                    f"prepared {engine} skipped {skipped} chunks, its "
                    f"literal twin {twin_skipped} {where}"
                )
            det_db[table].add(tuple(row), 1)
            au_db[table].add(row, (1, 1, 1))
        # the whole point of preparing: one parse/optimize per statement
        for conn in (det_conn, au_conn):
            assert conn.metrics.optimizations == 1, f"re-optimized {context}"
            assert conn.metrics.parses == 0, f"re-parsed {context}"


def _sample_au_delete(wrng: random.Random, ann) -> Tuple[int, int, int]:
    """A valid ``K^AU`` delta to delete from a tuple annotated ``ann``:
    both the delta and the remainder must satisfy ``0 <= lb <= sg <= ub``.
    Rejection-samples; falls back to removing the full annotation."""
    lb, sg, ub = ann
    for _ in range(8):
        dlb = wrng.randint(0, lb)
        dsg = wrng.randint(dlb, sg)
        dub = wrng.randint(dsg, ub)
        if lb - dlb <= sg - dsg <= ub - dub:
            return (dlb, dsg, dub)
    return ann


def _random_write(wrng: random.Random, det_db, au_db) -> None:
    """One random insert/delete/update applied to *both* databases.

    Both relations advance through their own sink/epoch machinery; the
    det and AU sides evolve independently (the det database is the AU
    database's SGW projection only at step 0 — maintenance correctness
    is per-engine, not cross-engine)."""
    table = wrng.choice(sorted(TABLES))
    op = wrng.choice(("insert", "delete", "update"))
    det_rel = det_db[table]
    au_rel = au_db[table]
    if op in ("delete", "update") and len(det_rel):
        t = wrng.choice(sorted(det_rel.rows, key=repr))
        det_rel.delete(t, wrng.randint(1, det_rel.rows[t]))
    elif op != "delete":
        det_rel.add(
            tuple(wrng.randint(-2, 5) for _ in det_rel.schema),
            wrng.randint(1, 2),
        )
    if op in ("delete", "update") and len(au_rel):
        t, ann = wrng.choice(sorted(au_rel.tuples(), key=repr))
        au_rel.delete(t, _sample_au_delete(wrng, ann))
    elif op != "delete":
        values = []
        for _column in au_rel.schema:
            lo = wrng.randint(-2, 5)
            mid = lo + wrng.randint(0, 2)
            values.append(RangeValue(lo, mid, mid + wrng.randint(0, 2)))
        lb = wrng.randint(0, 1)
        sg = lb + wrng.randint(0, 1)
        au_rel.add(values, (lb, sg, sg + wrng.randint(0, 1)))


def _check_ivm_lane(rng, plan, det, audb, context) -> None:
    """Incremental-view-maintenance lane: ``subscribe`` to the plan and
    interleave random inserts/deletes/updates with reads, asserting the
    maintained result equals fresh re-execution after every write, for
    both engines and both backends.  After ``unsubscribe`` a further
    write must not be maintained and the registry entry must be freed.

    The subscribed connections run on a randomly chosen chunk size while
    the fresh reference evaluation is the legacy tuple interpreter
    (which never touches a chunk store), so delta-plan maintenance over
    incrementally maintained chunk stores is cross-checked against
    chunk-free evaluation too.
    """
    lane_seed = rng.randrange(2**31)
    chunk_size = rng.choice((1, 3, 64, None))
    for backend in ("tuple", "vectorized"):
        wrng = random.Random(lane_seed)
        det_db = _clone_det(det)
        au_db = _clone_audb(audb)
        config = EvalConfig(backend=backend, chunk_size=chunk_size)
        det_conn = Connection(det_db, config=config)
        au_conn = Connection(au_db, config=config)
        det_view = det_conn.subscribe(plan)
        au_view = au_conn.subscribe(plan)
        for step in range(4):
            _random_write(wrng, det_db, au_db)
            where = (
                f"[{backend} ivm/{det_view.kind} chunk={chunk_size} "
                f"step {step}] {context}"
            )
            got = det_view.result()
            want = evaluate_det(plan, det_db, backend="tuple", physical=False)
            assert got.schema == want.schema, f"ivm det schema {where}"
            assert got.rows == want.rows, f"ivm det bag {where}"
            got_au = au_view.result()
            want_au = evaluate_audb(plan, au_db, TUPLE_LEGACY)
            assert got_au.schema == want_au.schema, f"ivm AU schema {where}"
            assert dict(got_au.tuples()) == dict(want_au.tuples()), (
                f"ivm AU annotations {where}"
            )
        for conn, view in ((det_conn, det_view), (au_conn, au_view)):
            conn.unsubscribe(view)
            assert view.closed and not conn.subscriptions, (
                f"unsubscribe left registry entry [{backend}] {context}"
            )
        _random_write(wrng, det_db, au_db)
        for view in (det_view, au_view):
            try:
                view.result()
            except RuntimeError:
                pass
            else:
                raise AssertionError(
                    f"closed view still served [{backend}] {context}"
                )


def _check_chunk_lane(rng, plan, det, audb, context) -> None:
    """Chunked-storage lane: paged chunked storage must be invisible.

    For chunk sizes 1 (one row per page), 3 (ragged pages), 64, and the
    default page size, both engines on both backends must return results
    bit-identical to the legacy tuple interpreter (no chunk stores, no
    zone-map skipping).  A round of random writes
    between reads exercises the stores' incremental maintenance paths
    (zone widening on insert, boundary invalidation on delete) — the
    second read runs over maintained chunk stores, not fresh builds."""
    lane_seed = rng.randrange(2**31)
    sizes = (1, 3, 64, None)
    for backend in ("tuple", "vectorized"):
        wrng = random.Random(lane_seed)
        det_db = _clone_det(det)
        au_db = _clone_audb(audb)
        for step in range(2):
            if step:
                for _ in range(3):
                    _random_write(wrng, det_db, au_db)
            where = f"[{backend} chunk step {step}] {context}"
            want_det = evaluate_det(
                plan, det_db, backend="tuple", physical=False
            )
            want_au = evaluate_audb(plan, au_db, TUPLE_LEGACY)
            for size in sizes:
                got = evaluate_det(
                    plan, det_db, backend=backend, chunk_size=size
                )
                assert got.schema == want_det.schema, (
                    f"chunked det schema [size={size}] {where}"
                )
                assert got.rows == want_det.rows, (
                    f"chunked det bag [size={size}] {where}"
                )
                got_au = evaluate_audb(
                    plan, au_db, EvalConfig(backend=backend, chunk_size=size)
                )
                assert got_au.schema == want_au.schema, (
                    f"chunked AU schema [size={size}] {where}"
                )
                assert dict(got_au.tuples()) == dict(want_au.tuples()), (
                    f"chunked AU annotations [size={size}] {where}"
                )


def _check_telemetry_lane(plan, det, audb, context) -> None:
    """Telemetry lane: re-execute the plan on ``trace=True`` connections
    and assert tracing is invisible — results bit-identical to untraced
    evaluation on both engines and both backends — and that the recorded
    span tree is well formed (``QueryTrace.problems()`` is empty: no
    orphan spans, no negative durations, no interval escaping its
    parent, and an operator span for the executed plan)."""
    for backend in ("tuple", "vectorized"):
        config = EvalConfig(backend=backend)
        det_conn = Connection(_clone_det(det), config=config, trace=True)
        au_conn = Connection(_clone_audb(audb), config=config, trace=True)
        got_det = det_conn.execute(plan)
        want_det = evaluate_det(plan, det, backend=backend)
        assert got_det.schema == want_det.schema, (
            f"traced det schema [{backend}] {context}"
        )
        assert got_det.rows == want_det.rows, (
            f"traced det bag [{backend}] {context}"
        )
        got_au = au_conn.execute(plan)
        want_au = evaluate_audb(plan, audb, config)
        assert got_au.schema == want_au.schema, (
            f"traced AU schema [{backend}] {context}"
        )
        assert dict(got_au.tuples()) == dict(want_au.tuples()), (
            f"traced AU annotations [{backend}] {context}"
        )
        for label, conn in (("det", det_conn), ("au", au_conn)):
            trace = conn.last_trace
            assert trace is not None, (
                f"no trace recorded [{label} {backend}] {context}"
            )
            assert trace.root.end is not None, (
                f"trace never finished [{label} {backend}] {context}"
            )
            problems = trace.problems()
            assert problems == [], (
                f"malformed trace {problems} [{label} {backend}] {context}"
            )
            spans = trace.spans()
            assert any(s.cat == "operator" for s in spans), (
                f"no operator spans [{label} {backend}] {context}"
            )


def _check_compression_lane(plan: Plan, audb: AUDatabase, context: str) -> None:
    """The vectorized backend — serial and, with the partition threshold
    pinned to 0, over 4 morsels — against the tuple backend under every
    compression budget: the same schema and the same rows **in the same
    order** (or the same exception type).  A ``Cpr`` or a top-k over a
    compressed join or aggregate only agrees when each operator hands on
    its rows in the reference's order."""
    old_threshold = exec_parallel.PARALLEL_MIN_ROWS
    exec_parallel.PARALLEL_MIN_ROWS = 0
    try:
        for join_buckets in (1, 2, 64):
            for aggregation_buckets in (None, 1, 2, 64):
                for adaptive in (False, True):
                    outcomes = []
                    for backend, parallelism in (
                        ("tuple", 1),
                        ("vectorized", 1),
                        ("vectorized", 4),
                    ):
                        config = EvalConfig(
                            backend=backend,
                            parallelism=parallelism,
                            join_buckets=join_buckets,
                            aggregation_buckets=aggregation_buckets,
                            adaptive_compression=adaptive,
                        )
                        try:
                            result = evaluate_audb(plan, audb, config)
                        except analysis.PlanVerificationError:
                            raise
                        except Exception as exc:  # noqa: BLE001 - parity of any failure
                            outcomes.append(type(exc))
                        else:
                            outcomes.append((result.schema, list(result.tuples())))
                    assert outcomes[0] == outcomes[1] == outcomes[2], (
                        f"compressed backends differ [CT={join_buckets} "
                        f"agg={aggregation_buckets} adaptive={adaptive}] {context}"
                    )
    finally:
        exec_parallel.PARALLEL_MIN_ROWS = old_threshold


def _float_database(det: DetDatabase) -> DetDatabase:
    """A float-valued copy of the SGW database (every value +0.5), so
    SUM/AVG exercise floating-point accumulation on every path."""
    out = DetDatabase({})
    for name, rel in det.relations.items():
        d = DetRelation(rel.schema)
        for row, m in rel.tuples():
            d.add(tuple(v + 0.5 for v in row), m)
        out[name] = d
    return out


def check_case(seed: int) -> None:
    """One fuzz case, with plan verification forced on: every
    optimize/lower inside runs the :mod:`repro.analysis` checks.  On any
    mismatch or verifier failure a standalone repro script is written to
    ``failures/`` (or ``$FUZZ_FAILURE_DIR``) and the error re-raised
    with the script path appended."""
    try:
        with analysis.verified():
            _check_case(seed)
    except (AssertionError, analysis.PlanVerificationError) as exc:
        path = _dump_repro(seed, exc)
        exc.args = (f"{exc} [repro script: {path}]",)
        raise


def _dump_repro(seed: int, exc: BaseException) -> str:
    """Write a minimized standalone repro script for a failing seed."""
    directory = os.environ.get("FUZZ_FAILURE_DIR") or os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "failures",
    )
    os.makedirs(directory, exist_ok=True)
    # regenerate the case inputs so the script documents what failed
    rng = random.Random(seed)
    audb = make_audb(rng)
    plan, schema, used = make_plan(rng, rng.randint(1, 4))
    cards = {name: len(rel) for name, rel in audb.relations.items()}
    error = " ".join(str(exc).splitlines())[:400]
    path = os.path.join(directory, f"fuzz_seed_{seed}.py")
    with open(path, "w") as fh:
        fh.write(
            "#!/usr/bin/env python\n"
            f"# Differential-fuzzer failure repro (seed {seed}).\n"
            f"# error: {error}\n"
            f"# plan: {plan!r}\n"
            f"# output schema: {schema}  tables used: {sorted(used)}\n"
            f"# AU table cardinalities: {cards}\n"
            "# Run from the repo root:\n"
            f"#   PYTHONPATH=src:tests python failures/fuzz_seed_{seed}.py\n"
            "import sys\n"
            "\n"
            "sys.path[:0] = ['src', 'tests']\n"
            "\n"
            "from repro import analysis\n"
            "from test_fuzz_differential import _check_case\n"
            "\n"
            "with analysis.verified():\n"
            f"    _check_case({seed})\n"
            "print('seed reproduced cleanly (failure no longer occurs)')\n"
        )
    return path


def _check_case(seed: int) -> None:
    """One fuzz case; raises AssertionError (with the seed) on mismatch."""
    rng = random.Random(seed)
    audb = make_audb(rng)
    det = sgw_database(audb)
    plan, _schema, _used = make_plan(rng, rng.randint(1, 4))
    context = f"seed={seed} plan={plan!r}"

    # 1a. Det engine: optimized (both strategies) == naive, and the
    # physical planner == the legacy direct lowering on every shape
    det_naive = evaluate_det(plan, det, optimize=False, physical=False)
    det_shapes = [("naive", dict(optimize=False))]
    for join_order in ("greedy", "dp"):
        det_shapes.append(
            (join_order, dict(optimize=True, join_order=join_order))
        )
    for shape, kwargs in det_shapes:
        det_phys = evaluate_det(plan, det, **kwargs)
        assert det_phys.schema == det_naive.schema, (
            f"Det schema [{shape}] {context}"
        )
        assert det_phys.rows == det_naive.rows, f"Det bag [{shape}] {context}"
        det_legacy = evaluate_det(plan, det, physical=False, **kwargs)
        assert det_legacy.rows == det_naive.rows, (
            f"Det legacy lowering [{shape}] {context}"
        )

    # 1b. AU engine: optimized (both strategies) == naive, physical ==
    # legacy lowering
    au_naive = evaluate_audb(plan, audb, EvalConfig(optimize=False, physical=False))
    au_shapes = [("naive", dict(optimize=False))]
    for join_order in ("greedy", "dp"):
        au_shapes.append((join_order, dict(optimize=True, join_order=join_order)))
    for shape, cfg_kwargs in au_shapes:
        au_phys = evaluate_audb(plan, audb, EvalConfig(**cfg_kwargs))
        assert au_phys.schema == au_naive.schema, f"AU schema [{shape}] {context}"
        assert dict(au_phys.tuples()) == dict(au_naive.tuples()), (
            f"AU annotations [{shape}] {context}"
        )
        au_legacy = evaluate_audb(
            plan, audb, EvalConfig(physical=False, **cfg_kwargs)
        )
        assert dict(au_legacy.tuples()) == dict(au_naive.tuples()), (
            f"AU legacy lowering [{shape}] {context}"
        )

    # 1c. vectorized backend == tuple backend on every plan shape, and —
    # with the partition threshold pinned to 0 so 4-way morsel
    # partitioning really happens — parallelism ∈ {1, 4} are identical
    old_threshold = exec_parallel.PARALLEL_MIN_ROWS
    exec_parallel.PARALLEL_MIN_ROWS = 0
    try:
        for shape, kwargs in det_shapes:
            for parallelism in (1, 4):
                det_vec = evaluate_det(
                    plan,
                    det,
                    backend="vectorized",
                    parallelism=parallelism,
                    **kwargs,
                )
                assert det_vec.schema == det_naive.schema, (
                    f"Det vec schema [{shape} x{parallelism}] {context}"
                )
                assert det_vec.rows == det_naive.rows, (
                    f"Det vec bag [{shape} x{parallelism}] {context}"
                )
        for shape, cfg_kwargs in au_shapes:
            for parallelism in (1, 4):
                au_vec = evaluate_audb(
                    plan,
                    audb,
                    EvalConfig(
                        backend="vectorized",
                        parallelism=parallelism,
                        **cfg_kwargs,
                    ),
                )
                assert au_vec.schema == au_naive.schema, (
                    f"AU vec schema [{shape} x{parallelism}] {context}"
                )
                assert dict(au_vec.tuples()) == dict(au_naive.tuples()), (
                    f"AU vec annotations [{shape} x{parallelism}] {context}"
                )
        # the tuple-at-a-time AU executor has no parallel regions; the
        # parallelism knob must be inert there even with thresholds at 0
        au_tuple_x4 = evaluate_audb(
            plan, audb, EvalConfig(backend="tuple", parallelism=4)
        )
        assert dict(au_tuple_x4.tuples()) == dict(au_naive.tuples()), (
            f"AU tuple x4 annotations {context}"
        )

        # 1d. float bit-stability: on a float-valued database SUM/AVG are
        # bit-identical across lowerings, backends, and parallelism
        fdb = _float_database(det)
        float_ref = evaluate_det(plan, fdb, optimize=False, physical=False)
        for label, result in (
            ("physical", evaluate_det(plan, fdb, optimize=False)),
            ("optimized", evaluate_det(plan, fdb)),
            ("vec", evaluate_det(plan, fdb, backend="vectorized")),
            (
                "vec x4",
                evaluate_det(plan, fdb, backend="vectorized", parallelism=4),
            ),
        ):
            assert result.schema == float_ref.schema, (
                f"float schema [{label}] {context}"
            )
            assert result.rows == float_ref.rows, (
                f"float bits differ [{label}] {context}"
            )
    finally:
        exec_parallel.PARALLEL_MIN_ROWS = old_threshold

    # 1e. prepared statements: a plan prepared once and re-executed with
    # changing bindings across interleaved writes matches fresh
    # unprepared evaluation bit-for-bit on both engines and backends
    _check_prepared_lane(rng, plan, _schema, _used, det, audb, context)

    # 1f. incremental view maintenance: a subscribed view interleaved
    # with random inserts/deletes/updates equals fresh re-execution
    # after every write, on both engines and both backends
    _check_ivm_lane(rng, plan, det, audb, context)

    # 1g. chunked storage is invisible: every chunk size (including the
    # degenerate one-row pages) matches the legacy tuple interpreter
    # bit-for-bit, across a round of writes that exercises incremental
    # store maintenance
    _check_chunk_lane(rng, plan, det, audb, context)

    # 1h. telemetry transparency on a slice of the seeds: tracing must
    # not change any result, and the span tree must be well formed
    if seed % 3 == 0:
        _check_telemetry_lane(plan, det, audb, context)

    # 1i. under compression the two backends still agree as relations
    _check_compression_lane(plan, audb, context)

    # 2. the AU result must bound the certain (SGW) answer
    det_bag = det_naive.as_bag()
    sgw = au_naive.selected_guess_world()
    has_limit, containment_ok = _limit_shape(plan)
    if not containment_ok:
        return  # limited input consumed by an aggregate/difference: no claim
    if has_limit:
        # AU keeps everything under LIMIT; Det keeps a sub-bag of it
        assert _is_subbag(det_bag, sgw), f"LIMIT sub-bag {context}"
    else:
        assert sgw == det_bag, f"SGW mismatch {context}"
        assert bounds_world(au_naive, det_bag), f"AU does not bound Det {context}"

        # 3. compression (fixed and optimizer-placed budgets) stays sound,
        # on both backends
        for backend in ("tuple", "vectorized"):
            compressed = evaluate_audb(
                plan,
                audb,
                EvalConfig(
                    join_buckets=2,
                    aggregation_buckets=2,
                    adaptive_compression=True,
                    backend=backend,
                ),
            )
            assert bounds_world(compressed, det_bag), (
                f"compressed AU unsound [{backend}] {context}"
            )


# ----------------------------------------------------------------------
# pytest entry points (chunked so failures name a narrow seed range)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("chunk", range((N_CASES + _CHUNK - 1) // _CHUNK))
def test_fuzz_differential(chunk):
    start = chunk * _CHUNK
    for i in range(start, min(start + _CHUNK, N_CASES)):
        check_case(BASE_SEED + i)


def test_known_regression_seeds():
    """Seeds that once exposed interesting shapes stay pinned forever."""
    for seed in (BASE_SEED, BASE_SEED + 17, BASE_SEED + 101):
        check_case(seed)


# ----------------------------------------------------------------------
# CI gate
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cases", type=int, default=200)
    parser.add_argument("--seed", type=int, default=BASE_SEED)
    args = parser.parse_args(argv)

    failures = 0
    for i in range(args.cases):
        seed = args.seed + i
        try:
            check_case(seed)
        except (AssertionError, analysis.PlanVerificationError) as exc:
            failures += 1
            print(f"MISMATCH at seed {seed}: {exc}")
    status = "FAIL" if failures else "ok"
    print(
        f"differential fuzzer: {args.cases} cases from seed {args.seed}: "
        f"{failures} mismatches [{status}]"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

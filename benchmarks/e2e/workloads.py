"""The five workloads: set-up, the public call per op, and the result oracle.

Every workload talks to the program through its public surface only —
``Connection`` / ``PreparedQuery`` / ``MaterializedView`` and the
relations' ``add`` / ``delete`` — and is checked from outside it:

* det results equal the legacy tuple interpreter
  (``EvalConfig(backend="tuple", physical=False)``) bit for bit;
* an AU result's selected-guess world equals the det result over the
  selected world (``LIMIT`` plans: the det result is a sub-bag, the AU
  engine keeps a sound superset), and on the fixed verification
  bindings ``bounds_world`` certifies the AU result bounds it;
* a view read equals a fresh ``Connection.execute`` of the view's SQL.

``setup()`` is what ``setup_s`` times: data generation, ``to_audb()``,
the connection, statistics harvest, chunk-store build, prepare /
subscribe and one warm-up round over the verification bindings.  The
oracle's own connections are built by ``arm_oracle()``, outside it.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

import generators as gen
from generators import Op

from repro.algebra.evaluator import EvalConfig
from repro.core.bounding import bounds_world
from repro.session import Connection

REFERENCE = EvalConfig(backend="tuple", physical=False)
CERTAIN = (1, 1, 1)


# ----------------------------------------------------------------------
# oracle helpers
# ----------------------------------------------------------------------
def same_bits(a, b) -> bool:
    """Two det relations hold the same rows with the same bits (``==``
    alone would let ``1 == 1.0`` and ``0.0 == -0.0`` through)."""
    return (
        tuple(a.schema) == tuple(b.schema)
        and a.rows == b.rows
        and sorted(map(repr, a.rows.items())) == sorted(map(repr, b.rows.items()))
    )


def sg_matches(au_result, det_result, limited: bool) -> bool:
    """The AU result's selected-guess world against the det answer."""
    world = au_result.selected_guess_world()
    bag = det_result.as_bag()
    if limited:
        return all(world.get(t, 0) >= m for t, m in bag.items())
    return world == bag


def same_au(a, b) -> bool:
    return tuple(a.schema) == tuple(b.schema) and dict(a.tuples()) == dict(b.tuples())


def _limited(sql: str) -> bool:
    return " LIMIT " in sql


class Workload:
    """Base: the verification results and the oracle bookkeeping."""

    name = ""
    #: engine of the results the bound-quality metrics are taken over
    au = True
    #: ops per block: the window ends on a block boundary, and
    #: throughput / CPU are medians over blocks
    block = 40

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.spec = gen.SPECS[self.name]
        #: (sql, params, result) per fixed verification binding,
        #: filled by setup()'s warm-up round
        self.verification: List[Tuple[str, tuple, Any]] = []
        #: seconds spent in repro.tpch / repro.incomplete during setup
        self.generate_s = 0.0
        self.to_audb_s = 0.0
        self.subscribe_s = 0.0
        self._expected: Dict[Any, Any] = {}

    # -- interface -----------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result) -> bool:
        raise NotImplementedError

    def arm_oracle(self) -> None:
        raise NotImplementedError

    def databases(self) -> List[Any]:
        raise NotImplementedError

    def connections(self) -> List[Connection]:
        raise NotImplementedError

    def redrive_target(self, op: Op) -> Optional[Tuple[Connection, str, tuple]]:
        """``(connection, sql, params)`` for a query op, so the traced
        run can re-drive it stage by stage; ``None`` for other ops."""
        return None

    def close(self) -> None:
        for conn in self.connections():
            conn.close()

    # -- shared --------------------------------------------------------
    def _open_pdbench(self):
        """Generate the spec's PDBench instance and its AU database
        (``self.db``), timing both; returns the instance."""
        start = time.perf_counter()
        inst = gen.pdbench(self.spec)
        self.generate_s = time.perf_counter() - start
        start = time.perf_counter()
        self.db = inst.audb()
        self.to_audb_s = time.perf_counter() - start
        return inst

    def verify_bounds(self) -> List[str]:
        """Failures of the verification bindings against the oracle's
        reference (the legacy interpreter over the selected world)."""
        failures = []
        for sql, params, result in self.verification:
            expected = self.reference.execute(sql, params)
            if not self.au:
                if not same_bits(result, expected):
                    failures.append(f"verification {sql!r} {params!r}: det mismatch")
                continue
            limited = _limited(sql)
            if not sg_matches(result, expected, limited):
                failures.append(f"verification {sql!r} {params!r}: SG world mismatch")
            elif not limited and not bounds_world(result, expected.as_bag()):
                failures.append(f"verification {sql!r} {params!r}: bounds_world fails")
        return failures

    def _expected_for(self, op: Op, reference: Connection):
        """The reference result for ``op``, cached under ``op.ref``."""
        if op.ref is None:
            return reference.execute(op.ref_sql or op.sql, op.ref_params or op.params)
        expected = self._expected.get(op.ref)
        if expected is None:
            expected = reference.execute(op.sql, op.params)
            self._expected[op.ref] = expected
        return expected


# ----------------------------------------------------------------------
class PreparedWorkload(Workload):
    """Round-robin prepared statements over one connection."""

    statements: Dict[str, Tuple[str, tuple]] = {}

    def _open(self) -> Tuple[Any, Any, EvalConfig]:
        """``(database, selected world, config)``."""
        raise NotImplementedError

    def setup(self) -> None:
        self.db, self.world, config = self._open()
        self.conn = Connection(self.db, config=config)
        self.prepared = {
            name: self.conn.prepare(sql) for name, (sql, _v) in self.statements.items()
        }
        self.verification = [
            (sql, verify, self.prepared[name].execute(verify))
            for name, (sql, verify) in self.statements.items()
        ]

    def arm_oracle(self) -> None:
        self.reference = Connection(self.world, config=REFERENCE)

    def run(self, op: Op):
        return self.prepared[op.stmt].execute(op.params)

    def check(self, op: Op, result) -> bool:
        expected = self._expected_for(op, self.reference)
        if self.au:
            return sg_matches(result, expected, _limited(op.sql))
        return same_bits(result, expected)

    def databases(self):
        return [self.db]

    def connections(self):
        return [self.conn]

    def redrive_target(self, op: Op):
        return (self.conn, op.sql, op.params)


class AuAnalytics(PreparedWorkload):
    name = "au_analytics"
    statements = gen.ANALYTICS_STATEMENTS
    block = len(statements)

    def _open(self):
        inst = self._open_pdbench()
        config = EvalConfig(
            backend="vectorized",
            join_buckets=self.spec["join_buckets"],
            aggregation_buckets=self.spec["aggregation_buckets"],
            parallelism=self.spec["parallelism"],
        )
        return self.db, inst.selected_world(), config

    def ops(self):
        return gen.analytics_ops(self.seed)


class DetScan(PreparedWorkload):
    name = "det_scan"
    au = False
    statements = gen.SCAN_STATEMENTS
    block = len(statements)

    def _open(self):
        db = gen.scan_database(self.spec)
        config = EvalConfig(
            backend="vectorized", parallelism=self.spec["parallelism"]
        )
        return db, db, config

    def ops(self):
        return gen.scan_ops(self.seed)


# ----------------------------------------------------------------------
class ServingPoint(Workload):
    name = "serving_point"
    VERIFY_KEYS = (1, 2, 3, 4, 5)

    def setup(self) -> None:
        inst = self._open_pdbench()
        self.world = inst.selected_world()
        self.domains = {
            d: len(inst.det[d]) for d in ("orders", "customer", "part")
        }
        self.conn = Connection(self.db, config=EvalConfig(backend="vectorized"))
        self.verification = [
            (sql, (key,), self.conn.execute(sql, (key,)))
            for sql, _domain in gen.POINT_STATEMENTS.values()
            for key in self.VERIFY_KEYS
        ]

    def arm_oracle(self) -> None:
        self.reference = Connection(self.world, config=REFERENCE)

    def ops(self):
        return gen.point_ops(self.seed, self.domains)

    def run(self, op: Op):
        return self.conn.execute(op.sql, op.params)

    def check(self, op: Op, result) -> bool:
        return sg_matches(result, self._expected_for(op, self.reference), False)

    def databases(self):
        return [self.db]

    def connections(self):
        return [self.conn]

    def redrive_target(self, op: Op):
        return (self.conn, op.sql, op.params)


# ----------------------------------------------------------------------
class AdhocCompile(Workload):
    name = "adhoc_compile"

    def setup(self) -> None:
        self.det, self.audb = gen.chain_databases(self.spec)
        self.conns = {
            "det": Connection(self.det),
            "au": Connection(self.audb),
        }
        self.verification = []
        for sql in gen.ADHOC_VERIFY:
            self.conns["det"].execute(sql)
            self.verification.append((sql, (), self.conns["au"].execute(sql)))

    def arm_oracle(self) -> None:
        # one plan per shape, not per text: the shapes outnumber the
        # default 128-entry plan cache
        self.reference = Connection(self.det, config=REFERENCE, cache_size=4096)

    def ops(self):
        return gen.adhoc_ops(self.seed)

    def run(self, op: Op):
        return self.conns[op.engine].execute(op.sql)

    def check(self, op: Op, result) -> bool:
        expected = self._expected_for(op, self.reference)
        if op.engine == "au":
            return sg_matches(result, expected, False)
        return same_bits(result, expected)

    def databases(self):
        return [self.det, self.audb]

    def connections(self):
        return list(self.conns.values())

    def redrive_target(self, op: Op):
        return (self.conns[op.engine], op.sql, ())


# ----------------------------------------------------------------------
class MixedRwViews(Workload):
    name = "mixed_rw_views"
    block = 8

    def setup(self) -> None:
        inst = self._open_pdbench()
        #: the selected world, kept in step with every write by check()
        self.world = inst.selected_world()
        self.sizes = {d: len(inst.det[d]) for d in ("orders", "customer", "part")}
        self.config = EvalConfig(backend="vectorized")
        self.conn = Connection(
            self.db, config=self.config, staleness=self.spec["staleness"]
        )
        start = time.perf_counter()
        self.views = {
            name: self.conn.subscribe(sql) for name, sql in gen.MIXED_VIEWS.items()
        }
        self.subscribe_s = time.perf_counter() - start
        self.prepared = {
            name: self.conn.prepare(sql)
            for name, (sql, _v) in gen.MIXED_STATEMENTS.items()
        }
        self.verification = [
            (sql, verify, self.prepared[name].execute(verify))
            for name, (sql, verify) in gen.MIXED_STATEMENTS.items()
        ] + [
            (sql, (), self.views[name].result())
            for name, sql in gen.MIXED_VIEWS.items()
        ]
        # one write of each kind through the subscribed views, undone
        probe = (0, 1, "O", 1.0, 19980601, 0)
        self.db["orders"].add(probe, CERTAIN)
        self.db["orders"].delete(probe, CERTAIN)
        for view in self.views.values():
            view.result()

    def arm_oracle(self) -> None:
        self.reference = Connection(self.world, config=REFERENCE)
        self.fresh = Connection(self.db, config=self.config)

    def ops(self):
        return gen.mixed_ops(
            self.seed, self.sizes["orders"], self.sizes["customer"], self.sizes["part"]
        )

    def run(self, op: Op):
        kind = op.kind
        if kind == "query":
            return self.prepared[op.stmt].execute(op.params)
        if kind == "view":
            return self.views[op.stmt].result()
        if kind == "add":
            return self.db[op.stmt].add(op.row, CERTAIN)
        return self.db[op.stmt].delete(op.row, CERTAIN)

    def check(self, op: Op, result) -> bool:
        kind = op.kind
        if kind == "query":
            return sg_matches(result, self._expected_for(op, self.reference), False)
        if kind == "view":
            return same_au(result, self.fresh.execute(gen.MIXED_VIEWS[op.stmt]))
        if kind == "add":
            self.world[op.stmt].add(op.sg_row, 1)
        else:
            self.world[op.stmt].delete(op.sg_row, 1)
        return True

    def databases(self):
        return [self.db]

    def connections(self):
        return [self.conn]

    def redrive_target(self, op: Op):
        if op.kind == "query":
            return (self.conn, op.sql, op.params)
        return None

    def close(self) -> None:
        for view in self.views.values():
            view.close()
        super().close()


WORKLOADS = {
    cls.name: cls
    for cls in (AuAnalytics, DetScan, ServingPoint, AdhocCompile, MixedRwViews)
}

"""Seeded inputs of the end-to-end benchmark: databases, SQL texts, op streams.

Two rules, borrowed from TPC-H's dbgen/qgen split:

* a workload's **database** is a pure function of the scale and data
  seed pinned in :data:`SPECS` (like ``dbgen`` at a scale factor), so
  the amount of work per statement — and the bound-quality metrics —
  do not move with ``--seed``;
* everything the program is *asked* — parameter bindings, ad-hoc SQL
  texts, Zipf draws, the write stream and its order — comes from
  ``--seed`` (like ``qgen``'s substitution parameters), drawn from
  domains narrow enough that another seed changes which values are
  asked for, not how much work answering them is.

The program under test only ever sees what this module returns.
:func:`fingerprint` hashes a workload's database and the head of its op
stream; ``fingerprints.json`` records the default seed's digests so a
later edit to ``repro.tpch.datagen`` (or to this file) that silently
changes a workload fails loudly.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

DEFAULT_SEED = 20260926

#: Everything that sizes a workload.  ``data_seed`` seeds the database;
#: ``bindings`` is the number of distinct bindings per statement (more
#: than the session's 8-entry result memo, so a round-robin cycle never
#: hits it).  ``mixed_rw_views`` re-lowers after 512 writes, not the
#: default 64: at the default one query op in ten is a 60-150 ms re-lower
#: + statistics-refresh spike, which puts ``query_p95_ms`` in the middle
#: of a sparse spike distribution (run-to-run spread 0.4); at 512 a run
#: still re-lowers every statement (``physical.relowerings``) but p95
#: sits in the regular latencies.
SPECS: Dict[str, Dict[str, Any]] = {
    "au_analytics": dict(
        scale=0.14, uncertainty=0.02, alternatives=8, data_seed=7,
        bindings=24, join_buckets=64, aggregation_buckets=64, parallelism=1,
    ),
    "det_scan": dict(
        lineitem_rows=24_000, orders_rows=2_400, data_seed=11,
        bindings=9, parallelism=1, probe_parallelism=2,
    ),
    "serving_point": dict(
        scale=0.4, uncertainty=0.02, alternatives=8, data_seed=7,
        zipf_s=1.1,
    ),
    "adhoc_compile": dict(
        tables=8, rows=120, data_seed=3, uncertain_share=0.05,
    ),
    "mixed_rw_views": dict(
        scale=0.4, uncertainty=0.02, alternatives=8, data_seed=7,
        delete_share=0.2, range_share=0.2, orders_share=0.25, staleness=512,
    ),
}

WORKLOADS = tuple(SPECS)


@dataclass(frozen=True)
class Op:
    """One client request.

    ``kind`` is ``"query"``, ``"view"``, ``"add"`` or ``"delete"``;
    ``stmt`` names the statement, view or written table (latencies are
    grouped by it).  Queries carry ``sql``/``params``; ``ref`` is the
    key under which the oracle may cache the expected result (``None``:
    the op is unique).  Ad-hoc queries also carry the parameterised
    ``ref_sql``/``ref_params`` twin the oracle executes, and ``engine``
    picks the connection.  Writes carry ``row`` (AU rows may hold
    ``RangeValue`` cells) and ``sg_row``, the row of the selected-guess
    world.
    """

    kind: str
    stmt: str
    sql: Optional[str] = None
    params: Tuple[Any, ...] = ()
    ref: Optional[Tuple[Any, ...]] = None
    ref_sql: Optional[str] = None
    ref_params: Tuple[Any, ...] = ()
    engine: str = ""
    row: Tuple[Any, ...] = ()
    sg_row: Tuple[Any, ...] = ()


# ----------------------------------------------------------------------
# databases
# ----------------------------------------------------------------------
def pdbench(spec: Dict[str, Any]):
    """The PDBench instance a spec pins (``repro.tpch.pdbench``)."""
    from repro.tpch.pdbench import make_pdbench

    return make_pdbench(
        scale=spec["scale"],
        uncertainty=spec["uncertainty"],
        n_alternatives=spec["alternatives"],
        seed=spec["data_seed"],
    )


def scan_database(spec: Dict[str, Any]):
    """``lineitem`` clustered on ``l_id`` (row *i* has key *i*, so chunk
    zone maps on the key are narrow) plus a small ``orders``."""
    from repro.db.storage import DetDatabase, DetRelation

    rng = random.Random(spec["data_seed"])
    n, n_orders = spec["lineitem_rows"], spec["orders_rows"]
    orders = DetRelation(
        ["o_id", "o_status", "o_prio"],
        [(i, rng.choice("OFP"), rng.randrange(5)) for i in range(n_orders)],
    )
    lineitem = DetRelation(
        ["l_id", "l_orderkey", "l_qty", "l_price", "l_flag"],
        [
            (
                i,
                rng.randrange(n_orders),
                rng.randint(1, 50),
                rng.randint(100, 1000),
                rng.choice("ANR"),
            )
            for i in range(n)
        ],
    )
    return DetDatabase({"lineitem": lineitem, "orders": orders})


def chain_databases(spec: Dict[str, Any]):
    """The key–foreign-key chain ``t0 -> t1 -> ...`` of
    ``bench_session.py`` as a det database and as an AU database whose
    payload column ``c{i}`` is a range on ``uncertain_share`` of the
    rows (join columns stay certain, so joins stay key joins)."""
    from repro.core.ranges import between
    from repro.core.relation import AUDatabase, AURelation
    from repro.db.storage import DetDatabase, DetRelation

    rng = random.Random(spec["data_seed"])
    n_rows = spec["rows"]
    det, au = DetDatabase({}), AUDatabase({})
    for i in range(spec["tables"]):
        schema = [f"a{i}", f"b{i}", f"c{i}"]
        d, a = DetRelation(schema), AURelation(schema)
        for j in range(n_rows):
            c = rng.randint(0, 999)
            row = (j, (j * 7 + i) % n_rows, c)
            d.add(row, 1)
            if rng.random() < spec["uncertain_share"]:
                row = (row[0], row[1], between(max(0, c - 40), c, c + 40))
            a.add(row, (1, 1, 1))
        det[f"t{i}"] = d
        au[f"t{i}"] = a
    return det, au


# ----------------------------------------------------------------------
# small helpers
# ----------------------------------------------------------------------
def _distinct(draw, n: int) -> List[Tuple[Any, ...]]:
    """The first ``n`` distinct values ``draw()`` returns, in order."""
    out: List[Tuple[Any, ...]] = []
    seen = set()
    while len(out) < n:
        value = draw()
        if value not in seen:
            seen.add(value)
            out.append(value)
    return out


def _date(rng: random.Random, year: int, months: Sequence[int]) -> int:
    return year * 10000 + rng.choice(months) * 100 + rng.randint(1, 28)


class Zipf:
    """Ranks ``0..n-1`` with probability proportional to ``1/(rank+1)^s``."""

    def __init__(self, n: int, s: float) -> None:
        weights = [1.0 / (rank + 1) ** s for rank in range(n)]
        self.cumulative = list(itertools.accumulate(weights))

    def draw(self, rng: random.Random) -> int:
        return bisect.bisect_left(
            self.cumulative, rng.random() * self.cumulative[-1]
        )


# ----------------------------------------------------------------------
# au_analytics
# ----------------------------------------------------------------------
_REVENUE = "l_extendedprice * (1 - l_discount)"

#: name -> (SQL, fixed verification binding).  Seven statements: with an
#: odd count the pooled median sits inside one statement's latencies
#: instead of on the gap between two.
ANALYTICS_STATEMENTS: Dict[str, Tuple[str, Tuple[Any, ...]]] = {
    "q1": (
        "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
        "SUM(l_extendedprice) AS sum_base_price, "
        f"SUM({_REVENUE}) AS sum_disc_price, AVG(l_quantity) AS avg_qty, "
        "COUNT(*) AS count_order FROM lineitem WHERE l_shipdate <= ? "
        "GROUP BY l_returnflag, l_linestatus",
        (19980902,),
    ),
    "q3": (
        "SELECT l_orderkey, o_orderdate, o_shippriority, "
        f"SUM({_REVENUE}) AS revenue FROM customer, orders, lineitem "
        "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
        "AND c_mktsegment = 'BUILDING' AND o_orderdate < ? AND l_shipdate > ? "
        "GROUP BY l_orderkey, o_orderdate, o_shippriority",
        (19950315, 19950115),
    ),
    "q10": (
        f"SELECT c_custkey, c_name, n_name, SUM({_REVENUE}) AS revenue "
        "FROM customer, orders, lineitem, nation "
        "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
        "AND c_nationkey = n_nationkey AND o_orderdate >= ? "
        "AND o_orderdate < ? AND l_returnflag = 'R' "
        "GROUP BY c_custkey, c_name, n_name",
        (19931001, 19940101),
    ),
    "spj2": (
        "SELECT o_orderkey, c_name, o_totalprice FROM orders, customer "
        "WHERE o_custkey = c_custkey AND o_totalprice > ?",
        (100000.0,),
    ),
    "spj3": (
        "SELECT l_orderkey, l_partkey, o_orderdate FROM lineitem, orders "
        "WHERE l_orderkey = o_orderkey AND l_quantity >= ? "
        "AND l_extendedprice > ?",
        (42, 1000.0),
    ),
    "topk": (
        "SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderdate >= ? "
        "ORDER BY o_totalprice DESC LIMIT 10",
        (19950101,),
    ),
    "except": (
        "SELECT o_custkey FROM orders WHERE o_orderdate >= ? "
        "EXCEPT SELECT c_custkey FROM customer WHERE c_acctbal < ?",
        (19960101, 1000.0),
    ),
}

def analytics_bindings(seed: int, n: int) -> Dict[str, List[Tuple[Any, ...]]]:
    """``n`` distinct bindings per statement, from domains a few weeks
    wide around the TPC-H defaults (selectivity stays comparable)."""
    rng = random.Random(f"au_analytics:{seed}")

    def q3():
        date = _date(rng, 1995, (3, 4))
        return (date, date - 200)

    def q10():
        lo = _date(rng, 1993, (7, 8, 9))
        return (lo, lo + 300)

    draws = {
        "q1": lambda: (_date(rng, 1998, (8, 9)),),
        "q3": q3,
        "q10": q10,
        "spj2": lambda: (round(rng.uniform(95000.0, 105000.0), 2),),
        "spj3": lambda: (rng.randint(41, 43), round(rng.uniform(950.0, 1050.0), 2)),
        "topk": lambda: (_date(rng, 1995, (1, 2)),),
        "except": lambda: (
            _date(rng, 1996, (1, 2)),
            round(rng.uniform(900.0, 1100.0), 2),
        ),
    }
    return {name: _distinct(draws[name], n) for name in ANALYTICS_STATEMENTS}


def _round_robin(
    statements: Dict[str, Tuple[str, Tuple[Any, ...]]],
    bindings: Dict[str, List[Tuple[Any, ...]]],
) -> Iterator[Op]:
    """Every statement once per round, bindings cycled round-robin."""
    for i in itertools.count():
        for name, (sql, _verify) in statements.items():
            pool = bindings[name]
            k = i % len(pool)
            yield Op("query", name, sql, pool[k], ref=(name, k))


def analytics_ops(seed: int) -> Iterator[Op]:
    bindings = analytics_bindings(seed, SPECS["au_analytics"]["bindings"])
    return _round_robin(ANALYTICS_STATEMENTS, bindings)


# ----------------------------------------------------------------------
# det_scan
# ----------------------------------------------------------------------
#: five prepared statements (odd, as above)
SCAN_STATEMENTS: Dict[str, Tuple[str, Tuple[Any, ...]]] = {
    "range": (
        "SELECT l_id, l_qty, l_price FROM lineitem "
        "WHERE l_id >= ? AND l_id < ?",
        (12_000, 12_240),
    ),
    "point": (
        "SELECT l_id, l_orderkey, l_price FROM lineitem WHERE l_id = ?",
        (13_337,),
    ),
    "groupby": (
        "SELECT l_flag, SUM(l_price) AS s, COUNT(*) AS n FROM lineitem "
        "WHERE l_qty > ? AND l_price >= ? GROUP BY l_flag",
        (10, 100),
    ),
    "joinagg": (
        "SELECT o_status, SUM(l_price) AS s, COUNT(*) AS n, AVG(l_qty) AS q "
        "FROM lineitem JOIN orders ON l_orderkey = o_id "
        "WHERE l_qty > ? AND l_price <= ? GROUP BY o_status",
        (10, 900),
    ),
    "topk": (
        "SELECT l_id, l_price FROM lineitem WHERE l_qty = ? "
        "ORDER BY l_price DESC LIMIT 10",
        (25,),
    ),
}


def scan_bindings(seed: int, n: int) -> Dict[str, List[Tuple[Any, ...]]]:
    rng = random.Random(f"det_scan:{seed}")
    rows = SPECS["det_scan"]["lineitem_rows"]
    width = rows // 100  # the 1 %-selective key range

    def key_range():
        lo = rng.randrange(rows - width)
        return (lo, lo + width)

    draws = {
        "range": key_range,
        "point": lambda: (rng.randrange(rows),),
        "groupby": lambda: (rng.randint(8, 12), rng.randint(100, 130)),
        "joinagg": lambda: (rng.randint(8, 12), rng.randint(880, 920)),
        "topk": lambda: (rng.randint(1, 50),),
    }
    return {name: _distinct(draws[name], n) for name in SCAN_STATEMENTS}


def scan_ops(seed: int) -> Iterator[Op]:
    bindings = scan_bindings(seed, SPECS["det_scan"]["bindings"])
    return _round_robin(SCAN_STATEMENTS, bindings)


# ----------------------------------------------------------------------
# serving_point
# ----------------------------------------------------------------------
#: name -> (SQL, key domain).  Listed hottest first: the statement rank
#: is fixed (the mix is part of the workload), the key ranks are seeded.
POINT_STATEMENTS: Dict[str, Tuple[str, str]] = {
    "order_by_key": (
        "SELECT o_orderkey, o_totalprice, o_orderdate FROM orders "
        "WHERE o_orderkey = ?",
        "orders",
    ),
    "lines_of_order": (
        "SELECT l_linenumber, l_quantity, l_extendedprice FROM lineitem "
        "WHERE l_orderkey = ?",
        "orders",
    ),
    "orders_of_customer": (
        "SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey = ?",
        "customer",
    ),
    "customer_spend": (
        "SELECT COUNT(*) AS n, SUM(o_totalprice) AS total FROM orders "
        "WHERE o_custkey = ?",
        "customer",
    ),
    "order_revenue": (
        f"SELECT SUM({_REVENUE}) AS revenue FROM lineitem WHERE l_orderkey = ?",
        "orders",
    ),
    "order_lines_join": (
        "SELECT o_orderdate, l_linenumber, l_quantity FROM orders, lineitem "
        "WHERE o_orderkey = l_orderkey AND o_orderkey = ?",
        "orders",
    ),
    "customer_orders_join": (
        "SELECT c_name, o_orderkey, o_totalprice FROM customer, orders "
        "WHERE c_custkey = o_custkey AND c_custkey = ?",
        "customer",
    ),
    "lines_of_part": (
        "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_partkey = ?",
        "part",
    ),
    "customer_by_key": (
        "SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_custkey = ?",
        "customer",
    ),
    "part_by_key": (
        "SELECT p_partkey, p_name, p_retailprice FROM part WHERE p_partkey = ?",
        "part",
    ),
    "suppliers_of_part": (
        "SELECT ps_suppkey, ps_supplycost FROM partsupp WHERE ps_partkey = ?",
        "part",
    ),
    "customer_nation_join": (
        "SELECT c_name, n_name FROM customer, nation "
        "WHERE c_nationkey = n_nationkey AND c_custkey = ?",
        "customer",
    ),
}


def point_ops(seed: int, domains: Dict[str, int]) -> Iterator[Op]:
    """Statement and key both Zipf; ``domains`` maps a key domain to its
    size (keys are ``1..size``)."""
    spec = SPECS["serving_point"]
    rng = random.Random(f"serving_point:{seed}")
    names = list(POINT_STATEMENTS)
    stmt_zipf = Zipf(len(names), spec["zipf_s"])
    key_zipf = {d: Zipf(size, spec["zipf_s"]) for d, size in domains.items()}
    keys = {}
    for domain, size in sorted(domains.items()):
        keys[domain] = list(range(1, size + 1))
        rng.shuffle(keys[domain])
    while True:
        name = names[stmt_zipf.draw(rng)]
        sql, domain = POINT_STATEMENTS[name]
        key = keys[domain][key_zipf[domain].draw(rng)]
        yield Op("query", name, sql, (key,), ref=(name, key))


# ----------------------------------------------------------------------
# adhoc_compile
# ----------------------------------------------------------------------
def _chain_sql(lo: int, width: int, shape: str, predicate: str, lits) -> str:
    """A ``width``-way chain join starting at table ``lo``; ``lits`` are
    SQL literals or ``?`` placeholders."""
    hi = lo + width - 1
    tables = ", ".join(f"t{i}" for i in range(lo, hi + 1))
    conds = [f"b{i} = a{i + 1}" for i in range(lo, hi)]
    if predicate == "point":
        conds.append(f"a{lo} = {lits[0]}")
    else:
        conds.append(f"a{lo} >= {lits[0]}")
        conds.append(f"a{lo} < {lits[1]}")
    conds.append(f"c{hi} >= {lits[2]}")
    if shape == "rows":
        select = f"a{lo}, b{hi}, c{hi}"
        tail = ""
    elif shape == "count":
        select = f"COUNT(*) AS n, SUM(c{hi}) AS s"
        tail = ""
    else:  # grouped
        select = f"a{lo}, COUNT(*) AS n, MAX(c{hi}) AS m"
        tail = f" GROUP BY a{lo}"
    return f"SELECT {select} FROM {tables} WHERE " + " AND ".join(conds) + tail


def adhoc_ops(seed: int) -> Iterator[Op]:
    """Never-seen SQL texts: 2- to 8-way joins with inlined literals.

    Each op also carries its parameterised twin (same text with ``?``),
    which the oracle prepares once per shape and executes with the
    literals as parameters."""
    spec = SPECS["adhoc_compile"]
    rng = random.Random(f"adhoc_compile:{seed}")
    n_tables, n_rows = spec["tables"], spec["rows"]
    seen = set()
    for i in itertools.count():
        while True:
            width = rng.randint(2, n_tables)
            lo = rng.randint(0, n_tables - width)
            shape = rng.choice(("rows", "count", "grouped"))
            predicate = rng.choice(("point", "range"))
            start = rng.randrange(n_rows)
            lits = (start, start + rng.randint(2, 12), rng.randint(0, 400))
            if predicate == "point":
                lits = (lits[0], lits[0], lits[2])
            key = (width, lo, shape, predicate, lits)
            if key not in seen:
                seen.add(key)
                break
        sql = _chain_sql(lo, width, shape, predicate, lits)
        ref_sql = _chain_sql(lo, width, shape, predicate, ("?", "?", "?"))
        params = (lits[0], lits[2]) if predicate == "point" else lits
        yield Op(
            "query",
            f"join{width}",
            sql,
            engine="det" if i % 2 == 0 else "au",
            ref_sql=ref_sql,
            ref_params=params,
        )


#: fixed texts for warm-up and for the bound-quality metrics
ADHOC_VERIFY = tuple(
    _chain_sql(lo, width, shape, predicate, (5, 40, 100))
    for lo, width, shape, predicate in (
        (0, 2, "rows", "range"),
        (1, 3, "count", "range"),
        (2, 4, "grouped", "range"),
        (0, 5, "rows", "point"),
        (1, 6, "count", "range"),
        (0, 8, "grouped", "range"),
    )
)


# ----------------------------------------------------------------------
# mixed_rw_views
# ----------------------------------------------------------------------
MIXED_VIEWS: Dict[str, str] = {
    "linear": (
        "SELECT o_orderkey, c_name, o_totalprice FROM orders, customer "
        "WHERE o_custkey = c_custkey AND o_totalprice > 150000.0"
    ),
    "aggregate": (
        "SELECT o_orderstatus, COUNT(*) AS n, SUM(o_totalprice) AS total "
        "FROM orders GROUP BY o_orderstatus"
    ),
    "topk": (
        "SELECT o_orderkey, o_totalprice FROM orders "
        "ORDER BY o_totalprice DESC LIMIT 10"
    ),
}

MIXED_STATEMENTS: Dict[str, Tuple[str, Tuple[Any, ...]]] = {
    "order_lines": (
        "SELECT l_orderkey, SUM(l_extendedprice) AS s FROM lineitem "
        "WHERE l_orderkey >= ? AND l_orderkey < ? GROUP BY l_orderkey",
        (100, 120),
    ),
    "big_orders": (
        "SELECT o_orderkey, o_totalprice, l_quantity FROM orders, lineitem "
        "WHERE o_orderkey = l_orderkey AND o_totalprice > ? "
        "AND l_quantity >= ?",
        (200000.0, 45),
    ),
    "recent_orders": (
        "SELECT o_orderkey, o_custkey, o_totalprice FROM orders "
        "WHERE o_orderdate >= ?",
        (19980601,),
    ),
}


def mixed_ops(seed: int, n_orders: int, n_customers: int, n_parts: int) -> Iterator[Op]:
    """Blocks of eight ops — four writes, two view reads, two prepared
    queries — shuffled inside the block, so every prefix of whole blocks
    has the stated mix.  Inserted orders take fresh keys above
    ``n_orders``; deletes remove rows this stream inserted earlier."""
    from repro.core.ranges import between

    spec = SPECS["mixed_rw_views"]
    rng = random.Random(f"mixed_rw_views:{seed}")
    views = itertools.cycle(MIXED_VIEWS)
    statements = itertools.cycle(MIXED_STATEMENTS)
    next_key = n_orders + 1
    live: List[Op] = []  # earlier inserts not yet deleted

    def uncertain(value, spread):
        if rng.random() < spec["range_share"]:
            return between(value - spread, value, value + spread)
        return value

    def insert() -> Op:
        nonlocal next_key
        if rng.random() < spec["orders_share"]:
            key = next_key
            next_key += 1
            price = round(rng.uniform(1000.0, 300000.0), 2)
            sg_row = (
                key, rng.randint(1, n_customers), rng.choice("OFP"), price,
                _date(rng, 1998, (6, 7, 8)), rng.randrange(5),
            )
            row = sg_row[:3] + (uncertain(price, 5000.0),) + sg_row[4:]
            return Op("add", "orders", row=row, sg_row=sg_row)
        qty = rng.randint(1, 50)
        sg_row = (
            rng.randint(1, next_key - 1), rng.randint(1, n_parts), 1,
            rng.randint(8, 1_000_000), qty,
            round(qty * rng.uniform(900.0, 2000.0), 2),
            round(rng.uniform(0.0, 0.1), 2), round(rng.uniform(0.0, 0.08), 2),
            rng.choice("ANR"), rng.choice("OF"), _date(rng, 1998, (6, 7, 8)),
        )
        row = sg_row[:4] + (uncertain(qty, 3),) + sg_row[5:]
        return Op("add", "lineitem", row=row, sg_row=sg_row)

    def write() -> Op:
        if live and rng.random() < spec["delete_share"]:
            victim = live.pop(rng.randrange(len(live)))
            return Op("delete", victim.stmt, row=victim.row, sg_row=victim.sg_row)
        op = insert()
        live.append(op)
        return op

    def query() -> Op:
        name = next(statements)
        sql = MIXED_STATEMENTS[name][0]
        if name == "order_lines":
            lo = rng.randint(1, n_orders - 20)
            params = (lo, lo + 20)
        elif name == "big_orders":
            params = (round(rng.uniform(190000.0, 210000.0), 2), rng.randint(43, 47))
        else:
            params = (_date(rng, 1998, (5, 6)),)
        return Op("query", name, sql, params)

    while True:
        block = [write() for _ in range(4)]
        block += [Op("view", next(views)) for _ in range(2)]
        block += [query() for _ in range(2)]
        # deletes must stay behind the insert they undo: shuffle reads
        # into the write sequence instead of shuffling everything
        order = sorted(range(8), key=lambda _: rng.random())
        writes = iter(block[:4])
        reads = iter(block[4:])
        slots = set(order[:4])
        for slot in range(8):
            yield next(writes) if slot in slots else next(reads)


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def fingerprint(databases: Sequence[Any], ops: Iterator[Op], n_ops: int = 2000) -> str:
    """sha256 over every relation's schema and rows (sorted by repr) and
    the first ``n_ops`` ops of the stream."""
    digest = hashlib.sha256()
    for db in databases:
        for name in sorted(db.relations):
            rel = db.relations[name]
            digest.update(repr((name, tuple(rel.schema))).encode())
            for line in sorted(repr(item) for item in rel.tuples()):
                digest.update(line.encode())
    for op in itertools.islice(ops, n_ops):
        digest.update(repr(op).encode())
    return digest.hexdigest()

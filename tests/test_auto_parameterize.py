"""Literal texts share cached plans.

``Connection.execute(sql)`` (and ``explain_analyze(sql)``) with no
parameters looks the raw text up in the plan cache and, on a miss, runs
the text's template — its comparison literals lifted into ``?``
placeholders by :func:`repro.sql.lexer.normalize` — with the literals as
the binding.  ``Connection.prepare(text)`` keeps its literals, which
makes it the same-commit oracle:

* a table of texts → ``(template, values)``: the positions that lift
  and the ones that must not (select list, ``CASE``, ``LIMIT``, ``IN``,
  ``BETWEEN``, a negated number, ``TRUE``/``NULL``);
* N literal variants of one shape cost one parse, one optimization and
  one lowering; the counter, the trace mark, the event log and the
  ``explain_analyze`` header say what was lifted;
* derandomized Hypothesis: literal variants of a generated shape over
  the differential fuzzer's tables run three ways — ``execute(text)``
  (lifted), ``prepare(text).execute()`` (literals kept) and the legacy
  interpreter — on both engines × both backends × chunk sizes
  {1, 3, 64, default}, interleaved with writes: the same result bits or
  the same exception type, and the same chunks skipped;
* under ``adaptive_compression`` the template may place different
  ``Cpr`` budgets than its literal text, so the AU result is held to
  ``bounds_world`` of the det answer instead of to bit equality.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.evaluator import EvalConfig
from repro.core.bounding import bounds_world
from repro.experiments.common import sgw_database
from repro.session import Connection
from repro.sql.lexer import SqlSyntaxError, normalize
from repro.sql.parser import parse_sql
from repro.telemetry import get_registry
from test_fuzz_differential import (
    TABLES,
    _clone_audb,
    _clone_det,
    _outcome,
    legacy_au,
    legacy_det,
    make_audb,
)


# ----------------------------------------------------------------------
# the lifting rule, table-driven
# ----------------------------------------------------------------------
NORMALIZE_CASES = [
    # a right operand before a boundary
    ("SELECT a FROM r WHERE a = 5", ("SELECT a FROM r WHERE a = ?", [5])),
    (
        "SELECT a FROM r WHERE a >= 1 AND b < 2.5 OR b <> 'x'",
        ("SELECT a FROM r WHERE a >= ? AND b < ? OR b <> ?", [1, 2.5, "x"]),
    ),
    # the mirror image: a boundary before, the comparison after
    (
        "SELECT a FROM r WHERE 5 <= a AND NOT 3 != b",
        ("SELECT a FROM r WHERE ? <= a AND NOT ? != b", [5, 3]),
    ),
    ("SELECT a FROM r WHERE (a > 0)", ("SELECT a FROM r WHERE (a > ?)", [0])),
    (
        "SELECT a FROM r JOIN s ON b = c AND d > 4 WHERE a = 1",
        ("SELECT a FROM r JOIN s ON b = c AND d > ? WHERE a = ?", [4, 1]),
    ),
    # strings keep their text; a doubled quote and a '?' inside stay data
    (
        "SELECT a FROM r WHERE b = 'it''s' AND a = 'a?b'",
        ("SELECT a FROM r WHERE b = ? AND a = ?", ["it's", "a?b"]),
    ),
    # the parser's own number typing, big ints exact
    (
        f"SELECT a FROM r WHERE a = {2**63 - 1} OR a = {2**53 + 1} OR a = 1.",
        ("SELECT a FROM r WHERE a = ? OR a = ? OR a = ?", [2**63 - 1, 2**53 + 1, 1.0]),
    ),
    # every clause boundary after a right operand
    (
        "SELECT a, COUNT(*) AS n FROM r WHERE b > 1 GROUP BY a HAVING n >= 2",
        ("SELECT a, COUNT(*) AS n FROM r WHERE b > ? GROUP BY a HAVING n >= ?", [1, 2]),
    ),
    (
        "SELECT a FROM r WHERE b > 1 ORDER BY a LIMIT 3",
        ("SELECT a FROM r WHERE b > ? ORDER BY a LIMIT 3", [1]),
    ),
    (
        "SELECT a FROM r WHERE a = 1 UNION SELECT c FROM s WHERE c = 2 "
        "EXCEPT SELECT e FROM u WHERE e = 3",
        (
            "SELECT a FROM r WHERE a = ? UNION SELECT c FROM s WHERE c = ? "
            "EXCEPT SELECT e FROM u WHERE e = ?",
            [1, 2, 3],
        ),
    ),
    # the literal positions that stay
    ("SELECT a, 5 AS k FROM r", None),
    ("SELECT CASE WHEN a = 1 THEN 2 ELSE 0 END AS z FROM r", None),
    ("SELECT a FROM r LIMIT 5", None),
    ("SELECT a FROM r WHERE a IN (1, 2)", None),
    ("SELECT a FROM r WHERE a BETWEEN 1 AND 5", None),
    ("SELECT a FROM r WHERE a = -5", None),
    ("SELECT a FROM r WHERE a = 5 + b", None),
    ("SELECT a FROM r WHERE b = TRUE OR b = NULL", None),
    ("SELECT a FROM r WHERE a = b", None),
    # a text with placeholders of its own is left alone
    ("SELECT a FROM r WHERE a = ? AND b = 5", None),
    ("SELECT a FROM r WHERE a = :k AND b = 5", None),
    # only the lifted literal of a mixed text moves
    (
        "SELECT a, 7 AS k FROM r WHERE a IN (1, 2) AND b = 3 LIMIT 4",
        ("SELECT a, 7 AS k FROM r WHERE a IN (1, 2) AND b = ? LIMIT 4", [3]),
    ),
    # comments and layout outside the literals are kept verbatim
    (
        "SELECT a FROM r -- why\nWHERE a=5AND b='x'",
        ("SELECT a FROM r -- why\nWHERE a=?AND b=?", [5, "x"]),
    ),
]


@pytest.mark.parametrize("sql, expected", NORMALIZE_CASES)
def test_normalize(sql, expected):
    got = normalize(sql)
    assert got == expected
    if expected is not None:
        # 5 == 5.0 in Python: the parser's typing is checked separately
        assert [type(v) for v in got[1]] == [type(v) for v in expected[1]]
        # the template bound to the values is the text's own plan
        from repro.session import bind_parameters

        template, values = expected
        assert repr(bind_parameters(parse_sql(template), values)) == repr(
            parse_sql(sql)
        )


def test_normalize_rejects_what_the_lexer_rejects():
    with pytest.raises(SqlSyntaxError):
        normalize("SELECT a FROM r WHERE b = 'oops")


#: a literal, the value it denotes, and a neighbour a misread literal
#: would find instead (``float(2**53 + 1) == 2**53``)
EXACT_LITERALS = [
    ("'it''s'", "it's", "it''s"),
    ("'a?b'", "a?b", "a"),
    (str(2**63 - 1), 2**63 - 1, 2**63 - 2),
    (str(2**53 + 1), 2**53 + 1, 2**53),
    ("2.5", 2.5, 2),
]


@pytest.mark.parametrize("backend", ["tuple", "vectorized"])
@pytest.mark.parametrize("engine", ["det", "au"])
@pytest.mark.parametrize("literal, value, neighbour", EXACT_LITERALS)
def test_lifted_literal_finds_exactly_its_value(engine, backend, literal, value, neighbour):
    from repro.core.relation import AUDatabase, AURelation
    from repro.db.storage import DetDatabase, DetRelation

    rows = [(1, value), (2, neighbour)]
    if engine == "det":
        db = DetDatabase({"t": DetRelation(["k", "x"], rows)})
    else:
        rel = AURelation(["k", "x"])
        for row in rows:
            rel.add(list(row), (1, 1, 1))
        db = AUDatabase({"t": rel})
    text = f"SELECT k FROM t WHERE x = {literal}"
    config = EvalConfig(backend=backend)
    got, _ = _outcome(lambda: Connection(db, config=config).execute(text))
    want, _ = _outcome(
        lambda: Connection(db, config=config).prepare(text).execute()
    )
    assert got == want
    assert len(got[1]) == 1  # the value's own row, not its neighbour's


# ----------------------------------------------------------------------
# the session: counters and observability
# ----------------------------------------------------------------------
def _det_db(n=40):
    from repro.db.storage import DetDatabase, DetRelation

    r = DetRelation(["a", "b"], [(i, i % 7) for i in range(n)])
    s = DetRelation(["c", "d"], [(i % 7, i) for i in range(n)])
    return DetDatabase({"r": r, "s": s})


SHAPE = "SELECT a, d FROM r JOIN s ON b = c WHERE a >= {} AND d < {}"


@pytest.mark.parametrize("backend", ["tuple", "vectorized"])
def test_literal_variants_of_one_shape_compile_once(backend):
    db = _det_db()
    conn = Connection(db, config=EvalConfig(backend=backend))
    oracle = Connection(db, config=EvalConfig(backend=backend))
    variants = [(lo, lo + 9) for lo in range(0, 30, 3)]
    for lo, hi in variants:
        text = SHAPE.format(lo, hi)
        got = conn.execute(text)
        want = oracle.prepare(text).execute()
        assert got.rows == want.rows
    m = conn.metrics
    assert (m.parses, m.optimizations, m.lowerings) == (1, 1, 1)
    assert (m.cache_misses, m.cache_hits) == (1, len(variants) - 1)
    assert m.auto_parameterized == len(variants)
    assert oracle.metrics.parses == len(variants)


def test_raw_text_is_looked_up_first():
    conn = Connection(_det_db())
    text = SHAPE.format(3, 20)
    conn.prepare(text)  # an explicitly prepared text keeps its literals
    conn.execute(text)
    assert conn.metrics.auto_parameterized == 0
    assert conn.metrics.cache_hits == 1
    # a literal-free text is cached under its raw text, as before
    conn.execute("SELECT a FROM r")
    conn.execute("SELECT a FROM r")
    assert conn.metrics.auto_parameterized == 0
    assert conn.metrics.parses == 2
    # explicit params, even empty ones, run the text as written
    conn.execute(SHAPE.format(4, 20), ())
    assert conn.metrics.auto_parameterized == 0
    # the raw text of a lifted query never becomes a key
    conn.execute(SHAPE.format(5, 20))
    conn.execute(SHAPE.format(5, 20))
    assert conn.metrics.auto_parameterized == 2
    assert not any(key[0] == SHAPE.format(5, 20) for key in conn._cache)


def test_auto_parameterization_is_observable():
    conn = Connection(_det_db(), trace=True, events=True)
    counter = get_registry().counter(
        "repro_session_auto_parameterized_total", engine="det"
    )
    before = counter.value
    conn.execute(SHAPE.format(2, 30))
    assert counter.value == before + 1
    marks = [s for s in conn.last_trace.root.children if s.cat == "mark"]
    assert [(m.name, m.attrs) for m in marks] == [("auto-param", {"lifted": 2})]
    assert conn.last_trace.problems() == []
    (begin,) = [e for e in conn.events if e.kind == "query_begin"]
    assert begin.data["sql"] == SHAPE.format("?", "?")
    assert begin.data["params"] == repr([2, 30])
    conn.events.close()
    header = conn.explain_analyze(SHAPE.format(4, 30)).splitlines()[0]
    assert header.endswith(", auto-parameterized: 2 literal(s)")
    marks = [s for s in conn.last_trace.root.children if s.cat == "mark"]
    assert [m.name for m in marks] == ["auto-param"]
    # a text with nothing to lift says nothing
    assert "auto-parameterized" not in conn.explain_analyze("SELECT a FROM r")


# ----------------------------------------------------------------------
# the equivalence property
# ----------------------------------------------------------------------
OPS = ("=", "<>", "!=", "<", "<=", ">", ">=")

#: literal texts: small ints, floats, strings with a doubled quote and
#: a question mark, and ints a float cannot hold exactly
LITERALS = (
    "0", "1", "3", "5", "2.5", "0.5", "'str'", "'it''s'", "'a?b'",
    str(2**63 - 1), str(2**53 + 1),
)

#: atom forms; ``{{}}`` is a literal slot — the first four lift, the
#: rest must stay in the text
ATOMS = (
    "{col} {op} {{}}",
    "{{}} {op} {col}",
    "({col} {op} {{}})",
    "{col} + 1 {op} {{}}",
    "{col} IN ({{}}, {{}})",
    "{col} BETWEEN {{}} AND {{}}",
    "{col} {op} -{{}}",
    "{col} {op} {{}} + 1",
)

#: FROM clauses over the fuzzer's tables and the columns they bring
FROMS = (
    ("r", ("a", "b")),
    ("r JOIN s ON b = c", ("a", "b", "c", "d")),
    ("r, u", ("a", "b", "e", "f")),
)


@st.composite
def conditions(draw, cols):
    parts = []
    for i in range(draw(st.integers(1, 3))):
        atom = draw(st.sampled_from(ATOMS)).format(
            col=draw(st.sampled_from(cols)), op=draw(st.sampled_from(OPS))
        )
        if draw(st.booleans()) and not atom.startswith("("):
            atom = f"NOT {atom}"
        if i:
            parts.append(draw(st.sampled_from((" AND ", " OR "))))
        parts.append(atom)
    return "".join(parts)


@st.composite
def shapes(draw, limits=True):
    """A query shape: SQL text with ``{}`` literal slots."""
    table, cols = draw(st.sampled_from(FROMS))
    if len(cols) == 4 and table.startswith("r JOIN") and draw(st.booleans()):
        table += " AND " + draw(conditions(cols))  # a literal in ON
    c1, c2 = draw(st.permutations(cols))[:2]
    where = draw(conditions(cols))
    kind = draw(st.sampled_from(("star", "cols", "const", "case", "agg")))
    if kind == "agg":
        sql = (
            f"SELECT {c1}, COUNT(*) AS n, SUM({c2}) AS t FROM {table} "
            f"WHERE {where} GROUP BY {c1}"
        )
        if draw(st.booleans()):
            sql += " HAVING n >= {}"
        return sql
    select, key = {
        "star": ("*", c1),
        "cols": (f"{c1}, {c2}", c1),
        "const": (f"{c1}, {{}} AS k", c1),
        "case": (f"CASE WHEN {c1} = {{}} THEN {{}} ELSE 0 END AS z, {c2}", c2),
    }[kind]
    sql = f"SELECT {select} FROM {table} WHERE {where}"
    tail = draw(st.sampled_from(("", "order", "union") if limits else ("", "union")))
    if tail == "order":
        sql += f" ORDER BY {key} LIMIT {draw(st.integers(1, 4))}"
    elif tail == "union":
        sql += f" UNION SELECT {select} FROM {table} WHERE {draw(conditions(cols))}"
    return sql


def _variants(draw, shape, n):
    slots = shape.count("{}")
    literals = st.lists(st.sampled_from(LITERALS), min_size=slots, max_size=slots)
    return [shape.format(*draw(literals)) for _ in range(n)]


#: written cell values: small ints, and now and then the value of a
#: literal, so a mistyped or misread lifted literal changes a result
CELLS = (0, 1, 3, 5, 2.5, "str", "it's", "a?b", 2**63 - 1, 2**53 + 1)


def _writes(rng, n, cells=True):
    out = []
    for _ in range(n):
        table = rng.choice(sorted(TABLES))
        out.append((table, [
            rng.choice(CELLS) if cells and rng.random() < 0.4 else rng.randint(-2, 5)
            for _ in TABLES[table]
        ]))
    return out


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    chunk_size=st.sampled_from((1, 3, 64, None)),
    data=st.data(),
)
def test_lifted_text_equals_literal_text_and_legacy(seed, chunk_size, data):
    shape = data.draw(shapes())
    texts = _variants(data.draw, shape, 3)
    rng = random.Random(seed)
    audb = make_audb(rng)
    det = sgw_database(audb)
    writes = _writes(rng, len(texts))
    for backend in ("tuple", "vectorized"):
        det_db, au_db = _clone_det(det), _clone_audb(audb)
        config = EvalConfig(backend=backend, chunk_size=chunk_size)
        lanes = []
        for engine, db, legacy in (
            ("det", det_db, lambda plan, db=det_db: legacy_det(plan, db)),
            ("AU", au_db, lambda plan, db=au_db: legacy_au(plan, db)),
        ):
            lanes.append((
                engine,
                Connection(db, config=config),
                Connection(db, config=config),
                legacy,
            ))
        for text, (table, row) in zip(texts, writes):
            where = f"[{backend} chunk={chunk_size}] {text!r}"
            for engine, lifting, literal, legacy in lanes:
                got, skipped = _outcome(lambda: lifting.execute(text))
                want, want_skipped = _outcome(
                    lambda: literal.prepare(text).execute()
                )
                assert got == want, f"lifted {engine} vs literal {where}"
                assert got == _outcome(lambda: legacy(parse_sql(text)))[0], (
                    f"lifted {engine} vs legacy {where}"
                )
                assert skipped == want_skipped, (
                    f"lifted {engine} skipped {skipped} chunks, the "
                    f"literal text {want_skipped} {where}"
                )
            det_db[table].add(tuple(row), 1)
            au_db[table].add(row, (1, 1, 1))
        for _engine, lifting, literal, _legacy in lanes:
            assert lifting.metrics.parses <= literal.metrics.parses


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**16), data=st.data())
def test_adaptive_compression_lifted_text_stays_sound(seed, data):
    # the session's one documented exception: a template places its Cpr
    # budgets without the literals, so it may compress differently than
    # the literal text — the result must still bound the det answer
    shape = data.draw(shapes(limits=False))
    texts = _variants(data.draw, shape, 3)
    rng = random.Random(seed)
    au_db = make_audb(rng)
    for backend in ("tuple", "vectorized"):
        config = EvalConfig(
            backend=backend,
            join_buckets=2,
            aggregation_buckets=2,
            adaptive_compression=True,
        )
        conn = Connection(_clone_audb(au_db), config=config)
        for text, (table, row) in zip(texts, _writes(rng, len(texts), cells=False)):
            where = f"[{backend}] {text!r}"
            world = sgw_database(conn.db)
            try:
                expected = legacy_det(parse_sql(text), world)
            except Exception as exc:  # noqa: BLE001 - parity of any failure
                with pytest.raises(type(exc)):
                    conn.execute(text)
            else:
                assert bounds_world(conn.execute(text), expected.as_bag()), where
            conn.db[table].add(row, (1, 1, 1))

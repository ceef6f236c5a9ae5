"""Compile scalar expressions into fused per-batch Python loops.

The tuple-at-a-time engines interpret the expression AST once per row:
every ``Eq``/``And``/``Add`` node costs a Python method call plus a
``RowView`` attribute lookup.  The vectorized backend instead *compiles*
an expression once per statement shape into a single generated function
whose body is the fully-inlined expression over direct column indexing —
the "fused selection" of a vectorized engine: one loop, no AST dispatch.

There is one emitter per evaluation semantics.

**Deterministic** (:func:`compile_filter`, :func:`compile_projector`)
mirrors :meth:`Expression.eval` exactly:

* ``Eq``/``Neq`` compare under the universal domain order via
  :func:`~repro.core.ranges.domain_key`;
* ``Leq``/``Lt``/``Geq``/``Gt`` go through
  :func:`~repro.core.ranges.domain_le` with the same operand orientation
  as the interpreted operators;
* ``And``/``Or`` short-circuit exactly like ``bool(l) and bool(r)``.

**Range-annotated** (:func:`compile_range_filter`,
:func:`compile_range_pair_filter`) mirrors :meth:`Expression.eval_range`
(Definition 9) for AU selections and join residuals.  The kernel reads
the three bounds of every referenced attribute directly, through the
cell's ``.lb``/``.sg``/``.ub``, computes the condition's truth triple
with the same ``domain_key``/``domain_le`` calls the interpreter makes,
drops rows whose upper truth bound or upper annotation is 0 and scales
the ``K^AU`` annotation of the survivors; no ``RangeValue`` allocation,
row view or AST dispatch per row.  The contract that keeps this
bit-identical to the interpreter, errors included:

* arithmetic on bounds (``Add``/``Sub``/``Mul``/``Div``/``Neg``) and
  ``IsNull`` (whose triple over ``[-inf/NULL/x]`` is no valid range) are
  the only parts of a condition that can raise.  They are emitted as
  per-row *statements*, in the interpreter's evaluation order
  (``Lt``/``Geq`` visit their right operand first), each followed by
  the ``lb <= sg <= ub`` check ``RangeValue`` construction performs — a
  violated check constructs that ``RangeValue`` to raise its error;
* comparisons and ``And``/``Or``/``Not`` over truth triples cannot
  raise, so they are emitted as three pure expressions — one per truth
  bound — and only those short-circuit, inside ``and``/``or``.  All
  three are evaluated for every row, as the interpreter does;
* ``And``/``Or``/``Not`` over an operand that is not itself a truth
  triple (a bare attribute, a constant, arithmetic) may fail the
  interpreter's range validation, and ``If``/``MakeUncertain`` evaluate
  branches lazily; they raise :class:`CompileError`, as does a constant
  that is no valid range (NaN).

Expressions containing nodes an emitter does not know (new Expression
subclasses, variables outside the schema) raise :class:`CompileError`;
callers fall back to interpreting ``Expression.eval`` /
``Expression.eval_range`` over a row view, which preserves the engine's
error behaviour (e.g. ``KeyError: unbound variable``).  The tuple
backend (:func:`repro.core.operators.selection`) and AU projections stay
interpreted: the first is the kernels' differential oracle.

Kernels are cached by their *generated source*: constants are lifted
into a per-call ``_K`` tuple and attributes resolved to column
positions, so the source is the statement's shape and one prepared
statement compiles once however many bindings it runs under.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import telemetry as _tm
from ..core.expressions import (
    Add,
    And,
    Const,
    Div,
    Eq,
    Expression,
    Geq,
    Gt,
    If,
    IsNull,
    Leq,
    Lt,
    MakeUncertain,
    Mul,
    Neg,
    Neq,
    Not,
    Or,
    Sub,
    Var,
)
from ..core.ranges import RangeValue, domain_key, domain_le

__all__ = [
    "CompileError",
    "compile_filter",
    "compile_projector",
    "compile_range_filter",
    "compile_range_pair_filter",
    "compile_range_values",
]


class CompileError(Exception):
    """The expression contains a node the compiler cannot translate."""


_ARITH = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


# ======================================================================
# kernel cache
# ======================================================================
#: generated source -> compiled function.  The source carries no
#: constant and no expression object, so re-bound plans share entries.
_KERNELS: Dict[str, Callable] = {}
_KERNEL_LIMIT = 512


def _counters(engine: str):
    registry = _tm.get_registry()
    return (
        registry.counter(
            "repro_exec_kernel_compiles_total",
            "Expression kernels generated and compiled (cache misses).",
            engine=engine,
        ),
        registry.counter(
            "repro_exec_kernel_cache_hits_total",
            "Expression kernels served from the structural kernel cache.",
            engine=engine,
        ),
    )


_COUNTERS = {engine: _counters(engine) for engine in ("det", "au")}


def _kernel(source: str, engine: str) -> Callable:
    """The compiled ``_kernel`` function of ``source`` (cached)."""
    compiles, hits = _COUNTERS[engine]
    fn = _KERNELS.get(source)
    if fn is not None:
        hits.inc()
        return fn
    namespace: Dict[str, object] = {}
    exec(compile(source, "<repro.exec.compile>", "exec"), namespace)
    fn = namespace["_kernel"]  # type: ignore[assignment]
    if len(_KERNELS) >= _KERNEL_LIMIT:
        _KERNELS.clear()
    _KERNELS[source] = fn
    compiles.inc()
    return fn


# ======================================================================
# deterministic semantics
# ======================================================================
class _Emitter:
    """Translate an expression tree into a Python source fragment."""

    def __init__(self, index: Dict[str, int]) -> None:
        self.index = index
        self.used_columns: Dict[int, str] = {}  # column index -> local name
        self.constants: List[object] = []

    def column(self, name: str) -> str:
        j = self.index.get(name)
        if j is None:
            raise CompileError(f"unbound variable {name!r}")
        local = self.used_columns.get(j)
        if local is None:
            local = f"_c{j}"
            self.used_columns[j] = local
        return local

    def emit(self, e: Expression) -> str:
        # exact-type dispatch: an Expression *subclass* may override
        # ``eval``, so anything but the known node types falls back to
        # interpretation rather than silently compiling base semantics
        kind = type(e)
        if kind is Var:
            return f"{self.column(e.name)}[_i]"
        if kind is Const:
            self.constants.append(e.value)
            return f"_K[{len(self.constants) - 1}]"
        if kind is And:
            return f"(bool({self.emit(e.left)}) and bool({self.emit(e.right)}))"
        if kind is Or:
            return f"(bool({self.emit(e.left)}) or bool({self.emit(e.right)}))"
        if kind is Not:
            return f"(not bool({self.emit(e.operand)}))"
        if kind is Eq:
            return f"(_dk({self.emit(e.left)}) == _dk({self.emit(e.right)}))"
        if kind is Neq:
            return f"(_dk({self.emit(e.left)}) != _dk({self.emit(e.right)}))"
        if kind is Leq:
            return f"_le({self.emit(e.left)}, {self.emit(e.right)})"
        if kind is Lt:
            return f"(not _le({self.emit(e.right)}, {self.emit(e.left)}))"
        if kind is Geq:
            return f"_le({self.emit(e.right)}, {self.emit(e.left)})"
        if kind is Gt:
            return f"(not _le({self.emit(e.left)}, {self.emit(e.right)}))"
        if kind in _ARITH:
            op = _ARITH[kind]
            return f"({self.emit(e.left)} {op} {self.emit(e.right)})"
        if kind is Neg:
            return f"(-{self.emit(e.operand)})"
        if kind is If:
            then = self.emit(e.then_branch)
            other = self.emit(e.else_branch)
            cond = self.emit(e.cond)
            return f"(({then}) if bool({cond}) else ({other}))"
        if kind is IsNull:
            return f"(({self.emit(e.operand)}) is None)"
        if kind is MakeUncertain:
            # deterministic semantics keeps the selected guess
            return self.emit(e.sg)
        raise CompileError(f"cannot compile {kind.__name__}")


def _compile_det(expr: Expression, schema: Sequence[str], body: str):
    """Kernel ``fn(columns, n)`` whose loop ``body`` uses ``{value}``."""
    emitter = _Emitter({name: j for j, name in enumerate(schema)})
    value = emitter.emit(expr)
    bindings = "".join(
        f"    {local} = _cols[{j}]\n"
        for j, local in sorted(emitter.used_columns.items())
    )
    fn = _kernel(
        f"def _kernel(_cols, _n, _K, _dk, _le):\n"
        f"{bindings}{body.format(value=value)}",
        "det",
    )
    constants = tuple(emitter.constants)

    def bound(columns: Sequence, n: int):
        return fn(columns, n, constants, domain_key, domain_le)

    return bound


def compile_filter(
    condition: Expression, schema: Sequence[str]
) -> Callable[[Sequence, int], List[int]]:
    """Compile ``condition`` into ``fn(columns, n) -> surviving row ids``.

    The returned function runs one fused loop over the batch and returns
    the indices of rows whose condition is truthy — exactly
    ``bool(condition.eval(row))`` of the tuple engine.  Raises
    :class:`CompileError` for untranslatable expressions.
    """
    return _compile_det(
        condition,
        schema,
        "    _out = []\n"
        "    _append = _out.append\n"
        "    for _i in range(_n):\n"
        "        if {value}:\n"
        "            _append(_i)\n"
        "    return _out\n",
    )


def compile_projector(
    expr: Expression, schema: Sequence[str]
) -> Callable[[Sequence, int], List]:
    """Compile ``expr`` into ``fn(columns, n) -> output column``.

    One fused loop computing the expression for every row — the
    vectorized form of a computed projection column.  Raises
    :class:`CompileError` for untranslatable expressions.
    """
    return _compile_det(
        expr, schema, "    return [{value} for _i in range(_n)]\n"
    )


# ======================================================================
# range-annotated semantics
# ======================================================================
#: a sub-expression's lower / selected-guess / upper bound as source
#: fragments, plus whether it is a *truth triple*: three ``bool``s with
#: ``lb <= sg <= ub``, which only comparisons, ``IsNull`` and
#: connectives over those produce
_Triple = Tuple[str, str, str, bool]


class _RowFeed:
    """Rows of one batch; cells are read through ``.lb``/``.sg``/``.ub``."""

    params = "_cols, _alb, _asg, _aub, _n"
    header = "for _i in range(_n):"
    ann = ("_alb[_i]", "_asg[_i]", "_aub[_i]")
    cursors = ("_i",)

    def __init__(self, schema: Sequence[str]) -> None:
        self.index = {name: j for j, name in enumerate(schema)}
        self.hoisted: Dict[str, str] = {}  # local -> source, once per call
        self.loads: Dict[str, str] = {}  # local -> source, once per row

    def bounds(self, name: str) -> Tuple[str, str, str]:
        j = self.index.get(name)
        if j is None:
            raise CompileError(f"unbound variable {name!r}")
        self.hoisted[f"_c{j}"] = f"_cols[{j}]"
        self.loads[f"_v{j}"] = f"_c{j}[_i]"
        return f"_v{j}.lb", f"_v{j}.sg", f"_v{j}.ub"


class _PairFeed:
    """Row pairs ``(li[k], ri[k])`` of two batches (join residuals);
    the pair's annotation is the ``K^AU`` product of its rows'."""

    params = (
        "_lcols, _rcols, _li, _ri, "
        "_llb, _lsg, _lub, _rlb, _rsg, _rub"
    )
    header = "for _i, _j in zip(_li, _ri):"
    ann = ("_llb[_i] * _rlb[_j]", "_lsg[_i] * _rsg[_j]", "_lub[_i] * _rub[_j]")
    cursors = ("_i", "_j")

    def __init__(self, left: Sequence[str], right: Sequence[str]) -> None:
        # as in the engines' combined-schema row views, the right side
        # wins a name both sides carry
        self.index = {name: ("l", "_i", k) for k, name in enumerate(left)}
        self.index.update(
            {name: ("r", "_j", k) for k, name in enumerate(right)}
        )
        self.hoisted: Dict[str, str] = {}
        self.loads: Dict[str, str] = {}

    def bounds(self, name: str) -> Tuple[str, str, str]:
        entry = self.index.get(name)
        if entry is None:
            raise CompileError(f"unbound variable {name!r}")
        side, cursor, k = entry
        self.hoisted[f"_{side}c{k}"] = f"_{side}cols[{k}]"
        self.loads[f"_{side}v{k}"] = f"_{side}c{k}[{cursor}]"
        return f"_{side}v{k}.lb", f"_{side}v{k}.sg", f"_{side}v{k}.ub"


class _RangeEmitter:
    """Translate a condition into per-row statements (everything that
    can raise, in evaluation order) and a pure truth triple."""

    def __init__(self, feed) -> None:
        self.feed = feed
        self.constants: List[object] = []
        self.lines: List[str] = []
        self.temps = 0
        #: id(Const node) -> its slot in ``constants``
        self.slots: Dict[int, int] = {}

    def _temp(self) -> str:
        self.temps += 1
        return f"_t{self.temps}"

    def _operand(self, e: Expression) -> _Triple:
        """``emit(e)`` as names cheap enough to mention repeatedly."""
        lb, sg, ub, truth = self.emit(e)
        if truth and not lb.isidentifier():
            # a nested truth triple is three compound expressions;
            # evaluating them early is safe because they cannot raise
            t = self._temp()
            self.lines.append(f"{t}l = {lb}; {t}s = {sg}; {t}u = {ub}")
            return f"{t}l", f"{t}s", f"{t}u", truth
        return lb, sg, ub, truth

    def _truth(self, e: Expression, parent: type) -> _Triple:
        triple = self.emit(e)
        if not triple[3]:
            raise CompileError(
                f"{parent.__name__} over non-boolean {type(e).__name__}"
            )
        return triple

    def _value(self, lb: str, sg: str, ub: str, truth: bool = False) -> _Triple:
        """Bind a computed triple, validated like ``RangeValue``."""
        t = self._temp()
        self.lines.append(f"{t}l = {lb}")
        self.lines.append(f"{t}s = {sg}")
        self.lines.append(f"{t}u = {ub}")
        self.lines.append(
            f"if not (_le({t}l, {t}s) and _le({t}s, {t}u)): "
            f"_RV({t}l, {t}s, {t}u)"
        )
        return f"{t}l", f"{t}s", f"{t}u", truth

    def _leq(self, a: _Triple, b: _Triple) -> _Triple:
        return (
            f"_le({a[2]}, {b[0]})",
            f"_le({a[1]}, {b[1]})",
            f"_le({a[0]}, {b[2]})",
            True,
        )

    @staticmethod
    def _negated(t: _Triple) -> _Triple:
        return f"(not {t[2]})", f"(not {t[1]})", f"(not {t[0]})", True

    def emit(self, e: Expression) -> _Triple:
        # exact-type dispatch, as in the deterministic emitter
        kind = type(e)
        if kind is Var:
            return (*self.feed.bounds(e.name), False)
        if kind is Const:
            k = self.slots[id(e)] = len(self.constants)
            self.constants.append(e.value)
            return f"_k{k}l", f"_k{k}s", f"_k{k}u", False
        if kind is And or kind is Or:
            a = self._truth(e.left, kind)
            b = self._truth(e.right, kind)
            op = "and" if kind is And else "or"
            return (
                f"({a[0]} {op} {b[0]})",
                f"({a[1]} {op} {b[1]})",
                f"({a[2]} {op} {b[2]})",
                True,
            )
        if kind is Not:
            return self._negated(self._truth(e.operand, kind))
        if kind is Eq or kind is Neq:
            a = self._operand(e.left)
            b = self._operand(e.right)
            eq = (
                f"(_dk({a[2]}) == _dk({b[0]}) and _dk({b[2]}) == _dk({a[0]}))",
                f"(_dk({a[1]}) == _dk({b[1]}))",
                f"(_le({a[0]}, {b[2]}) and _le({b[0]}, {a[2]}))",
                True,
            )
            return eq if kind is Eq else self._negated(eq)
        if kind is Leq or kind is Gt:
            # a > b  ==  NOT (a <= b)
            a = self._operand(e.left)
            b = self._operand(e.right)
            leq = self._leq(a, b)
            return leq if kind is Leq else self._negated(leq)
        if kind is Geq or kind is Lt:
            # a >= b  ==  b <= a, and a < b is its negation; the
            # interpreter evaluates the right operand first
            b = self._operand(e.right)
            a = self._operand(e.left)
            geq = self._leq(b, a)
            return geq if kind is Geq else self._negated(geq)
        if kind is Add or kind is Sub:
            a = self._operand(e.left)
            b = self._operand(e.right)
            if kind is Add:
                return self._value(
                    f"{a[0]} + {b[0]}", f"{a[1]} + {b[1]}", f"{a[2]} + {b[2]}"
                )
            return self._value(
                f"{a[0]} - {b[2]}", f"{a[1]} - {b[1]}", f"{a[2]} - {b[0]}"
            )
        if kind is Mul or kind is Div:
            a = self._operand(e.left)
            b = self._operand(e.right)
            op = _ARITH[kind]
            if kind is Div:
                self.lines.append(f"if {b[0]} <= 0 <= {b[2]}: _zero_div()")
            c = self._temp()
            self.lines.append(
                f"{c} = ({a[0]} {op} {b[0]}, {a[0]} {op} {b[2]}, "
                f"{a[2]} {op} {b[0]}, {a[2]} {op} {b[2]})"
            )
            return self._value(
                f"min({c})", f"{a[1]} {op} {b[1]}", f"max({c})"
            )
        if kind is Neg:
            a = self._operand(e.operand)
            return self._value(f"-{a[2]}", f"-{a[1]}", f"-{a[0]}")
        if kind is IsNull:
            # checked: over [-inf/NULL/x] the interpreter's triple is
            # (False, True, False), which no RangeValue can hold
            a = self._operand(e.operand)
            return self._value(
                f"{a[0]} is None and {a[2]} is None",
                f"{a[1]} is None",
                f"{a[0]} is None",
                truth=True,
            )
        raise CompileError(
            f"cannot compile {kind.__name__} under range semantics"
        )


def _zero_div() -> None:
    raise ZeroDivisionError(
        "range-annotated division by an interval containing zero"
    )


def _bounds_of(value: object) -> Tuple[object, object, object]:
    """``Const(value).eval_range`` as a bound triple."""
    if isinstance(value, RangeValue):
        return value.lb, value.sg, value.ub
    if not domain_le(value, value):
        # NaN: the interpreter's certain(value) raises on every row
        raise CompileError(f"constant {value!r} is not a valid range")
    return value, value, value


def _hoists(feed, n_consts: int) -> List[str]:
    """Once-per-call statements: the referenced columns and the bound
    triples of the constants as locals."""
    return [f"{local} = {src}" for local, src in feed.hoisted.items()] + [
        f"_k{k}l, _k{k}s, _k{k}u = _K[{k}]" for k in range(n_consts)
    ]


def _compile_range(condition: Expression, feed):
    emitter = _RangeEmitter(feed)
    lb, sg, ub, _truth = emitter.emit(condition)
    constants = tuple(_bounds_of(value) for value in emitter.constants)
    prologue = _hoists(feed, len(constants))
    outputs = [f"_o{c}" for c in feed.cursors] + ["_olb", "_osg", "_oub"]
    prologue += [f"{out} = []" for out in outputs]
    body = [f"{local} = {src}" for local, src in feed.loads.items()]
    body += emitter.lines
    # the whole truth triple of every row, like eval_range
    body += [
        f"_lb = {lb}",
        f"_sg = {sg}",
        f"if not {ub}: continue",
        f"_u = {feed.ann[2]}",
        "if _u == 0: continue",
    ]
    body += [f"_o{c}.append({c})" for c in feed.cursors]
    body += [
        f"_olb.append({feed.ann[0]} if _lb else 0)",
        f"_osg.append({feed.ann[1]} if _sg else 0)",
        "_oub.append(_u)",
    ]
    source = "".join(
        [f"def _kernel({feed.params}, _K, _dk, _le, _RV, _zero_div):\n"]
        + [f"    {line}\n" for line in prologue]
        + [f"    {feed.header}\n"]
        + [f"        {line}\n" for line in body]
        + [f"    return {', '.join(outputs)}\n"]
    )
    fn = _kernel(source, "au")

    def bound(*args):
        return fn(*args, constants, domain_key, domain_le, RangeValue, _zero_div)

    return bound


def compile_range_filter(
    condition: Expression, schema: Sequence[str]
) -> Callable[..., Tuple[List[int], List[int], List[int], List[int]]]:
    """Compile an AU selection into
    ``fn(columns, ann_lb, ann_sg, ann_ub, n) -> (rows, lb, sg, ub)``.

    ``columns`` holds one list of :class:`RangeValue` cells per
    attribute.  ``rows`` are the ids of the rows whose condition is
    possibly true and whose annotation upper bound is non-zero, in
    order; ``lb``/``sg``/``ub`` are their annotations with the lower /
    selected-guess component zeroed where the condition is not
    certainly / not SG-true — the triple ``M_N(θ) · k`` of the tuple
    engine's selection.  Raises :class:`CompileError` for
    untranslatable conditions.
    """
    return _compile_range(condition, _RowFeed(schema))


def compile_range_pair_filter(
    condition: Expression,
    left_schema: Sequence[str],
    right_schema: Sequence[str],
) -> Callable[..., Tuple[List[int], List[int], List[int], List[int], List[int]]]:
    """Compile an AU join residual into ``fn(left_columns,
    right_columns, li, ri, *left_ann, *right_ann) ->
    (left_rows, right_rows, lb, sg, ub)``.

    Pair ``k`` combines row ``li[k]`` of the left with row ``ri[k]`` of
    the right batch; its annotation is the product of the rows'
    annotations, filtered and scaled as in :func:`compile_range_filter`.
    """
    return _compile_range(condition, _PairFeed(left_schema, right_schema))


def _point_form(e: Expression, emitter: _RangeEmitter) -> Optional[str]:
    """``e`` as one plain expression over the SG values of its (already
    emitted) leaves, or ``None`` when ``e`` is not pure arithmetic.

    On a row whose leaves are all points — one object for the three
    bounds — ``+ - * /`` and negation compute the same value for each
    bound as :meth:`Expression.eval_range` does, in its operand order
    and raising what it raises, a NaN result included: it reaches the
    ``RangeValue`` the kernel builds and fails its validation there.
    """
    kind = type(e)
    if kind is Var:
        return emitter.feed.bounds(e.name)[1]
    if kind is Const:
        return f"_k{emitter.slots[id(e)]}s"
    if kind in _ARITH:
        left = _point_form(e.left, emitter)
        right = _point_form(e.right, emitter)
        if left is None or right is None:
            return None
        return f"({left} {_ARITH[kind]} {right})"
    if kind is Neg:
        operand = _point_form(e.operand, emitter)
        return None if operand is None else f"(-{operand})"
    return None


def compile_range_values(
    expr: Expression, schema: Sequence[str]
) -> Callable[[Sequence, int], List[RangeValue]]:
    """Compile ``expr`` into ``fn(columns, n) -> [RangeValue]``: its
    :meth:`Expression.eval_range` over every row, as one loop — the
    value-emitting sibling of :func:`compile_range_filter` (aggregate
    inputs of the AU ``HashAggregate``).

    A row whose referenced cells — and the expression's constants — are
    all points evaluates the plain arithmetic once and shares the object
    between the three bounds; any other row computes the three bounds
    with the statements of the range emitter.  Raises
    :class:`CompileError` for untranslatable expressions.
    """
    feed = _RowFeed(schema)
    emitter = _RangeEmitter(feed)
    lb, sg, ub, _truth = emitter.emit(expr)
    point = _point_form(expr, emitter)
    constants = tuple(_bounds_of(value) for value in emitter.constants)
    prologue = _hoists(feed, len(constants))
    body = [f"{local} = {src}" for local, src in feed.loads.items()]
    if point is not None:
        cells = "".join(
            f" and {v}.lb is {v}.sg is {v}.ub" for v in feed.loads
        )
        body += [
            f"if _points{cells}:",
            f"    _p = {point}",
            "    _append(_RV(_p, _p, _p))",
            "    continue",
        ]
    body += emitter.lines
    body.append(f"_append(_RV({lb}, {sg}, {ub}))")
    source = "".join(
        ["def _kernel(_cols, _n, _K, _points, _dk, _le, _RV, _zero_div):\n"]
        + [f"    {line}\n" for line in prologue]
        + ["    _out = []\n", "    _append = _out.append\n"]
        + ["    for _i in range(_n):\n"]
        + [f"        {line}\n" for line in body]
        + ["    return _out\n"]
    )
    fn = _kernel(source, "au")
    points = all(k[0] is k[1] is k[2] for k in constants)

    def bound(columns: Sequence, n: int) -> List[RangeValue]:
        return fn(
            columns, n, constants, points,
            domain_key, domain_le, RangeValue, _zero_div,
        )

    return bound

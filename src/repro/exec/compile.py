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
* a comparison whose operands are typed-array columns of the batch at
  hand or ``int``/``float``/``bool`` constants is the native
  ``<=``/``==``/``!=`` in that same orientation — the kernel variant is
  chosen per call from the columns' representation (:class:`DetKernel`);
* ``And``/``Or`` short-circuit exactly like ``bool(l) and bool(r)``;
  ``bool()`` is emitted only around an operand whose node does not
  already yield a ``bool`` (comparisons, ``Not``, ``IsNull`` and the
  connectives do).

A det kernel is one list comprehension: a filter
``[_i for _i, _v2, _v3 in zip(range(_n), _cols[2], _cols[3]) if …]``
over the row ids and the cells of the columns it reads, a projector
``[… for _v2, _v3 in zip(_cols[2], _cols[3])]`` over the cells alone;
the constants are hoisted into locals (``_k0 = _K[0]``) once per call.

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
  three are evaluated for every row, as the interpreter does — except
  on the *point lane*: a condition built only from comparisons of
  columns and constants under ``And``/``Or``/``Not`` tests a row whose
  cells (and constants) are all points once, on the SG values — one
  ``_le`` per ``<``, the upper truth first and the lower and SG truths
  only on kept rows (:func:`_point_form`, shared with the value
  kernels; :class:`RangeKernel` counts the rows that missed it);
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
statement compiles once however many bindings it runs under (a det
kernel once per column representation it meets).
"""

from __future__ import annotations

from array import array
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

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
    "DetKernel",
    "RangeKernel",
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
#: generated source -> compiled function; a det kernel is cached under
#: its variant key (see :class:`DetKernel`) with its native comparison
#: count.  Keys carry no constant and no expression object, so re-bound
#: plans share entries.
_KERNELS: Dict[Hashable, Any] = {}
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


def _compile_source(source: str) -> Callable:
    namespace: Dict[str, Any] = {}
    exec(compile(source, "<repro.exec.compile>", "exec"), namespace)
    return namespace["_kernel"]


def _kernel(
    key: Hashable, engine: str, build: Optional[Callable[[], Any]] = None
) -> Any:
    """The kernel cache entry under ``key``: the compiled ``_kernel``
    function of the source ``key``, or ``build()``'s entry (cached)."""
    compiles, hits = _COUNTERS[engine]
    entry = _KERNELS.get(key)
    if entry is not None:
        hits.inc()
        return entry
    entry = _compile_source(key) if build is None else build()
    if len(_KERNELS) >= _KERNEL_LIMIT:
        _KERNELS.clear()
    _KERNELS[key] = entry
    compiles.inc()
    return entry


# ======================================================================
# deterministic semantics
# ======================================================================
#: constant types a comparison may take natively: for these (and the
#: values of typed columns) ``domain_le``/``domain_key`` reduce to the
#: native ``<=``/``==``
_NATIVE_TYPES = (int, float, bool)


class _Emitter:
    """Translate an expression tree into a Python source fragment.

    ``typed`` holds the column positions that are ``array('q'|'d')`` in
    the batch the kernel will run on: a comparison between two such
    columns, or between one and an ``int``/``float``/``bool`` constant,
    is emitted as the native ``<=``/``==``/``!=`` instead of through
    ``_le``/``_dk`` (``native_compares`` counts them).
    """

    def __init__(
        self, index: Dict[str, int], typed: FrozenSet[int] = frozenset()
    ) -> None:
        self.index = index
        self.typed = typed
        self.used_columns: Dict[int, str] = {}  # column index -> local name
        self.constants: List[object] = []
        self.native_compares = 0

    def _native(self, e: Expression) -> bool:
        if type(e) is Var:
            return self.index.get(e.name) in self.typed
        return type(e) is Const and type(e.value) in _NATIVE_TYPES

    def _operands(self, first: Expression, second: Expression):
        """Both operands emitted in this order, and whether their
        comparison runs natively (never between two constants: two
        references to one NaN object compare equal under ``_dk``)."""
        a, b = self.emit(first), self.emit(second)
        native = (
            self._native(first)
            and self._native(second)
            and Var in (type(first), type(second))
        )
        self.native_compares += native
        return a, b, native

    def column(self, name: str) -> str:
        """The comprehension variable holding this row's cell of
        ``name``."""
        j = self.index.get(name)
        if j is None:
            raise CompileError(f"unbound variable {name!r}")
        local = self.used_columns.get(j)
        if local is None:
            local = f"_v{j}"
            self.used_columns[j] = local
        return local

    def _bool(self, e: Expression) -> str:
        """``e`` as a ``bool``: wrapped in ``bool()`` unless its node
        already yields one."""
        source = self.emit(e)
        return source if type(e) in _BOOL_NODES else f"bool({source})"

    def emit(self, e: Expression) -> str:
        # exact-type dispatch: an Expression *subclass* may override
        # ``eval``, so anything but the known node types falls back to
        # interpretation rather than silently compiling base semantics
        kind = type(e)
        if kind is Var:
            return self.column(e.name)
        if kind is Const:
            self.constants.append(e.value)
            return f"_k{len(self.constants) - 1}"
        if kind is And:
            return f"({self._bool(e.left)} and {self._bool(e.right)})"
        if kind is Or:
            return f"({self._bool(e.left)} or {self._bool(e.right)})"
        if kind is Not:
            return f"(not {self.emit(e.operand)})"
        if kind is Eq or kind is Neq:
            a, b, native = self._operands(e.left, e.right)
            op = "==" if kind is Eq else "!="
            return f"({a} {op} {b})" if native else f"(_dk({a}) {op} _dk({b}))"
        if kind is Leq or kind is Gt or kind is Geq or kind is Lt:
            # the interpreter's orientation: a >= b is b <= a, a < b is
            # not (b <= a) — so a < NaN stays True, as under domain_le
            if kind is Leq or kind is Gt:
                a, b, native = self._operands(e.left, e.right)
            else:
                a, b, native = self._operands(e.right, e.left)
            le = f"({a} <= {b})" if native else f"_le({a}, {b})"
            return le if kind is Leq or kind is Geq else f"(not {le})"
        if kind in _ARITH:
            op = _ARITH[kind]
            return f"({self.emit(e.left)} {op} {self.emit(e.right)})"
        if kind is Neg:
            return f"(-{self.emit(e.operand)})"
        if kind is If:
            then = self.emit(e.then_branch)
            other = self.emit(e.else_branch)
            # a conditional expression tests its condition like bool()
            cond = self.emit(e.cond)
            return f"(({then}) if {cond} else ({other}))"
        if kind is IsNull:
            return f"(({self.emit(e.operand)}) is None)"
        if kind is MakeUncertain:
            # deterministic semantics keeps the selected guess
            return self.emit(e.sg)
        raise CompileError(f"cannot compile {kind.__name__}")


def _typed(column: Any) -> bool:
    return type(column) is array and column.typecode in "qd"


#: node types whose compiled form already yields a ``bool``
_BOOL_NODES = frozenset({Eq, Neq, Leq, Lt, Geq, Gt, Not, IsNull, And, Or})


def _det_source(emitter: _Emitter, value: str, is_filter: bool) -> str:
    """The kernel source: the constants hoisted into locals once per
    call, then one comprehension evaluating ``value`` per row.

    A filter keeps the ids of the rows where ``value`` is truthy; its
    loop targets are the row id and the cells of the columns it reads,
    fed by ``zip(range(_n), *columns)``.  A projector needs no row id:
    its targets are the cells alone (one column is iterated directly).
    A kernel that reads no column iterates ``range(_n)`` — never
    ``zip(range(_n))``, whose 1-tuples are all truthy.
    """
    used = sorted(emitter.used_columns.items())
    cells = [local for _j, local in used]
    columns = [f"_cols[{j}]" for j, _local in used]
    if not columns:
        rows, feed = "_i", "range(_n)"
    elif is_filter:
        rows = ", ".join(["_i"] + cells)
        feed = f"zip(range(_n), {', '.join(columns)})"
    elif len(columns) == 1:
        rows, feed = cells[0], columns[0]
    else:
        rows, feed = ", ".join(cells), f"zip({', '.join(columns)})"
    loop = f"for {rows} in {feed}"
    body = f"_i {loop} if {value}" if is_filter else f"{value} {loop}"
    hoists = "".join(
        f"    _k{k} = _K[{k}]\n" for k in range(len(emitter.constants))
    )
    return f"def _kernel(_cols, _n, _K, _dk, _le):\n{hoists}    return [{body}]\n"


class DetKernel:
    """A compiled deterministic filter or projector:
    ``kernel(columns, n)``.

    The kernel variant is picked per call from the representation of
    the columns it reads — those that are typed arrays in the batch at
    hand compare natively (see :class:`_Emitter`), list columns keep
    ``_le``/``_dk`` — and cached under the statement's generated source
    plus that representation, so one prepared statement compiles once
    per column layout however many bindings it runs under.  Exact:
    ``_pack_typed`` packs only homogeneous ints and NaN-free floats,
    and on ``int``/``float``/``bool`` operands ``domain_le`` and
    ``domain_key`` equality are the native comparisons.
    ``native_compares`` is the fewest comparisons any call ran natively
    (``None`` before the first call).
    """

    __slots__ = (
        "_expr",
        "_index",
        "_is_filter",
        "_key",
        "_used",
        "_constants",
        "_variants",
        "native_compares",
    )

    def __init__(
        self, expr: Expression, schema: Sequence[str], is_filter: bool
    ) -> None:
        index = {name: j for j, name in enumerate(schema)}
        emitter = _Emitter(index)
        value = emitter.emit(expr)  # raises CompileError
        self._expr = expr
        self._index = index
        self._is_filter = is_filter
        self._used = tuple(sorted(emitter.used_columns))
        self._constants = tuple(emitter.constants)
        natives = tuple(type(c) in _NATIVE_TYPES for c in self._constants)
        self._key = (_det_source(emitter, value, is_filter), natives)
        self._variants: Dict[FrozenSet[int], Tuple[Callable, int]] = {}
        self.native_compares: Optional[int] = None

    def __call__(self, columns: Sequence, n: int):
        typed = frozenset(j for j in self._used if _typed(columns[j]))
        entry = self._variants.get(typed)
        if entry is None:
            entry = self._variants[typed] = _kernel(
                (self._key, typed), "det", lambda: self._build(typed)
            )
        fn, native = entry
        if self.native_compares is None or native < self.native_compares:
            self.native_compares = native
        return fn(columns, n, self._constants, domain_key, domain_le)

    def _build(self, typed: FrozenSet[int]) -> Tuple[Callable, int]:
        emitter = _Emitter(self._index, typed)
        value = emitter.emit(self._expr)
        source = _det_source(emitter, value, self._is_filter)
        return _compile_source(source), emitter.native_compares


def compile_filter(condition: Expression, schema: Sequence[str]) -> DetKernel:
    """Compile ``condition`` into ``fn(columns, n) -> surviving row ids``.

    The returned :class:`DetKernel` runs one comprehension over the
    batch and returns the indices of rows whose condition is truthy —
    exactly ``bool(condition.eval(row))`` of the tuple engine.  Raises
    :class:`CompileError` for untranslatable expressions.
    """
    return DetKernel(condition, schema, is_filter=True)


def compile_projector(expr: Expression, schema: Sequence[str]) -> DetKernel:
    """Compile ``expr`` into ``fn(columns, n) -> output column``.

    One comprehension computing the expression for every row — the
    vectorized form of a computed projection column.  Raises
    :class:`CompileError` for untranslatable expressions.
    """
    return DetKernel(expr, schema, is_filter=False)


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
    size = "_n"

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
    size = "len(_li)"

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


class RangeKernel:
    """A compiled AU filter or join residual: ``kernel(*feed)`` returns
    the kernel's outputs (see :func:`compile_range_filter`,
    :func:`compile_range_pair_filter`).

    Over all its calls it counts the rows it evaluated (``rows``) and
    those that ran the full truth triple (``range_rows``); the others
    took the point lane (``point_rows``).  Only the triple counts, so
    the lane pays nothing for the telemetry.
    """

    __slots__ = ("_fn", "_constants", "_points", "rows", "range_rows")

    def __init__(self, fn: Callable, constants: Tuple) -> None:
        self._fn = fn
        self._constants = constants
        self._points = _all_points(constants)
        self.rows = 0
        self.range_rows = 0

    def __call__(self, *feed):
        *out, rows, ranged = self._fn(
            *feed, self._constants, self._points,
            domain_key, domain_le, RangeValue, _zero_div,
        )
        self.rows += rows
        self.range_rows += ranged
        return tuple(out)

    @property
    def point_rows(self) -> int:
        return self.rows - self.range_rows


def _all_points(constants: Tuple) -> bool:
    """Whether the point lane is open for these constants' bound
    triples: only while every one is a point."""
    return all(k[0] is k[1] is k[2] for k in constants)


def _point_guard(feed) -> str:
    """The lane's entry test: the constants (``_points``, once per call)
    and every referenced cell are points."""
    cells = "".join(f" and {v}.lb is {v}.sg is {v}.ub" for v in feed.loads)
    return f"if _points{cells}:"


def _compile_range(condition: Expression, feed) -> RangeKernel:
    emitter = _RangeEmitter(feed)
    lb, sg, ub, _truth = emitter.emit(condition)
    point = _point_form(condition, emitter)
    constants = tuple(_bounds_of(value) for value in emitter.constants)
    prologue = _hoists(feed, len(constants))
    outputs = [f"_o{c}" for c in feed.cursors] + ["_olb", "_osg", "_oub"]
    prologue += [f"{out} = []" for out in outputs] + ["_r = 0"]
    body = [f"{local} = {src}" for local, src in feed.loads.items()]
    if point is not None:
        # the point lane: the upper truth first, then the lower and SG
        # truths of the kept rows only, each distinct source once
        plb, psg, pub = point[:3]
        truths = {pub: None}
        lane = [f"if not {pub}: continue", f"_u = {feed.ann[2]}", "if _u == 0: continue"]
        for local, source in (("_lb", plb), ("_sg", psg)):
            if source not in truths:
                truths[source] = local
                lane.append(f"{local} = {source}")
        lane += _kept(feed, truths[plb], truths[psg])
        body += [_point_guard(feed)] + [f"    {line}" for line in lane + ["continue"]]
    body.append("_r += 1")
    body += emitter.lines
    # the whole truth triple of every other row, like eval_range
    body += [
        f"_lb = {lb}",
        f"_sg = {sg}",
        f"if not {ub}: continue",
        f"_u = {feed.ann[2]}",
        "if _u == 0: continue",
    ]
    body += _kept(feed, "_lb", "_sg")
    source = "".join(
        [f"def _kernel({feed.params}, _K, _points, _dk, _le, _RV, _zero_div):\n"]
        + [f"    {line}\n" for line in prologue]
        + [f"    {feed.header}\n"]
        + [f"        {line}\n" for line in body]
        + [f"    return {', '.join(outputs)}, {feed.size}, _r\n"]
    )
    return RangeKernel(_kernel(source, "au"), constants)


def _kept(feed, lb: Optional[str], sg: Optional[str]) -> List[str]:
    """Statements keeping the current row, annotated ``M_N(θ) · k``:
    ``lb`` / ``sg`` name the row's lower / SG truth (``None``: true)."""
    lines = [f"_o{c}.append({c})" for c in feed.cursors]
    for out, ann, truth in (("_olb", feed.ann[0], lb), ("_osg", feed.ann[1], sg)):
        lines.append(
            f"{out}.append({ann})" if truth is None
            else f"{out}.append({ann} if {truth} else 0)"
        )
    return lines + ["_oub.append(_u)"]


def compile_range_filter(
    condition: Expression, schema: Sequence[str]
) -> RangeKernel:
    """Compile an AU selection into the :class:`RangeKernel`
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
) -> RangeKernel:
    """Compile an AU join residual into the :class:`RangeKernel`
    ``fn(left_columns, right_columns, li, ri, *left_ann, *right_ann) ->
    (left_rows, right_rows, lb, sg, ub)``.

    Pair ``k`` combines row ``li[k]`` of the left with row ``ri[k]`` of
    the right batch; its annotation is the product of the rows'
    annotations, filtered and scaled as in :func:`compile_range_filter`.
    """
    return _compile_range(condition, _PairFeed(left_schema, right_schema))


#: comparison node -> whether the point lane reads it as ``b <= a``
#: (``Geq``, ``Lt``: the interpreter's orientation) and negates it
_ORDER = {Leq: (False, False), Gt: (False, True), Geq: (True, False), Lt: (True, True)}


def _point_form(e: Expression, emitter: _RangeEmitter) -> Optional[_Triple]:
    """``e`` on a row whose referenced cells — and the constants — are
    all points (one object for the three bounds): its three bounds as
    plain expressions over the SG values of its (already emitted)
    leaves, or ``None`` when ``e`` has no point form.

    Two shapes have one, each computing on such a row exactly what the
    range emitter's statements compute there:

    * pure arithmetic over columns and constants (the value kernels):
      ``+ - * /`` and negation compute one value, the same for each
      bound as :meth:`Expression.eval_range` does, in its operand order
      and raising what it raises, a NaN result included: it reaches the
      ``RangeValue`` the kernel builds and fails its validation there;
    * comparisons of columns and constants under ``AND`` / ``OR`` /
      ``NOT`` (the filters): on points the three bounds of ``a <= b``
      are one ``_le`` call, those of ``a = b`` the SG key equality (the
      lower and SG truths) and the two-sided ``_le`` (the upper truth).
      Those two differ only when one NaN object is compared with itself,
      which no ``RangeValue`` can hold, so the form keeps both and the
      lane stays the triple to the bit even there.  Nothing in this
      shape can raise, so the lane may short-circuit and skip bounds.

    ``IS NULL``, a comparison over arithmetic or over a comparison, and
    arithmetic over a comparison have no point form: arithmetic in a
    filter must raise on the rows the interpreter raises on, in its
    order, which only the triple's statements guarantee.
    """
    kind = type(e)
    if kind is Var:
        s = emitter.feed.bounds(e.name)[1]
        return s, s, s, False
    if kind is Const:
        s = f"_k{emitter.slots[id(e)]}s"
        return s, s, s, False
    if kind in _ARITH or kind is Neg:
        operands = [_point_form(x, emitter) for x in e.children()]
        if any(x is None or x[3] for x in operands):
            return None
        if kind is Neg:
            v = f"(-{operands[0][1]})"
        else:
            v = f"({operands[0][1]} {_ARITH[kind]} {operands[1][1]})"
        return v, v, v, False
    if kind is And or kind is Or:
        a = _point_form(e.left, emitter)
        b = _point_form(e.right, emitter)
        if a is None or b is None:
            return None
        op = "and" if kind is And else "or"
        return tuple(f"({x} {op} {y})" for x, y in zip(a[:3], b[:3])) + (True,)
    if kind is Not:
        a = _point_form(e.operand, emitter)
        return None if a is None else _RangeEmitter._negated(a)
    if kind not in _ORDER and kind is not Eq and kind is not Neq:
        return None
    if type(e.left) not in (Var, Const) or type(e.right) not in (Var, Const):
        return None
    x = _point_form(e.left, emitter)[1]
    y = _point_form(e.right, emitter)[1]
    if kind in _ORDER:
        swap, negate = _ORDER[kind]
        t = f"_le({y}, {x})" if swap else f"_le({x}, {y})"
        t = f"(not {t})" if negate else t
        return t, t, t, True
    key = f"(_dk({x}) == _dk({y}))"
    overlap = f"(_le({x}, {y}) and _le({y}, {x}))"
    eq = key, key, overlap, True
    return eq if kind is Eq else _RangeEmitter._negated(eq)


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
        plb, psg, pub = point[:3]
        if plb == psg == pub:
            lane = [f"_p = {psg}", "_append(_RV(_p, _p, _p))"]
        else:
            lane = [f"_append(_RV({plb}, {psg}, {pub}))"]
        body += [_point_guard(feed)] + [f"    {line}" for line in lane + ["continue"]]
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
    points = _all_points(constants)

    def bound(columns: Sequence, n: int) -> List[RangeValue]:
        return fn(
            columns, n, constants, points,
            domain_key, domain_le, RangeValue, _zero_div,
        )

    return bound

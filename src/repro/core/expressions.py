"""Scalar expressions with three evaluation semantics.

The expression language of Definition 3: variables, constants, boolean
connectives, comparisons, arithmetic, and ``if/then/else``.  Each
expression supports

* :meth:`Expression.eval` — deterministic semantics (Definition 4) over a
  valuation ``{var: value}``;
* :func:`eval_incomplete` — possible-worlds semantics (Definition 5) over a
  set of valuations;
* :meth:`Expression.eval_range` — range-annotated semantics (Definition 9)
  over a valuation ``{var: RangeValue}``, which is the bound-preserving
  evaluation proven sound by Theorem 1.

Expressions overload Python operators so queries read naturally::

    from repro.core.expressions import Var, Const
    e = (Var("rate") > Const(10)) & (Var("size") == Const("metro"))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Sequence, Set

from .ranges import RangeValue, certain, domain_key, domain_le, domain_max, domain_min

__all__ = [
    "Expression",
    "Var",
    "Const",
    "Parameter",
    "UnboundParameterError",
    "And",
    "Or",
    "Not",
    "Eq",
    "Neq",
    "Leq",
    "Lt",
    "Geq",
    "Gt",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Neg",
    "If",
    "IsNull",
    "eval_incomplete",
    "TRUE",
    "FALSE",
]


TRUE_RANGE = RangeValue(True, True, True)
FALSE_RANGE = RangeValue(False, False, False)
MAYBE_RANGE = RangeValue(False, False, True)


class RowView:
    """A lazy ``{attribute: value}`` view over a positional tuple.

    Expression evaluation only ever *looks up* attributes, so operators
    can avoid materializing a dict per row: build one schema-index map per
    operator call and wrap each tuple in a :class:`RowView`.
    """

    __slots__ = ("_index", "row")

    def __init__(self, index: Dict[str, int], row: tuple) -> None:
        self._index = index
        self.row = row

    @staticmethod
    def index_of(schema) -> Dict[str, int]:
        return {name: i for i, name in enumerate(schema)}

    def __getitem__(self, name: str) -> Any:
        return self.row[self._index[name]]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def get(self, name: str, default: Any = None) -> Any:
        i = self._index.get(name)
        return default if i is None else self.row[i]

    def keys(self):
        return self._index.keys()


def _bool_range(lb: bool, sg: bool, ub: bool) -> RangeValue:
    return RangeValue(lb, sg, ub)


class UnboundParameterError(LookupError):
    """A :class:`Parameter` placeholder was evaluated without a binding.

    Raised when a plan containing ``?`` / ``:name`` placeholders reaches
    an executor directly; bind values first (``PreparedQuery.execute``
    or :func:`repro.session.bind_parameters`).
    """


class Expression:
    """Base class of the scalar expression AST."""

    # -- analysis ------------------------------------------------------
    def variables(self) -> FrozenSet[str]:
        """The set ``vars(e)`` of variables mentioned by the expression."""
        out: Set[str] = set()
        self._collect_vars(out)
        return frozenset(out)

    def _collect_vars(self, out: Set[str]) -> None:
        for child in self.children():
            child._collect_vars(out)

    def parameters(self) -> List[Any]:
        """Placeholder keys mentioned by the expression, in first-seen
        order: ``int`` indices for positional ``?`` parameters, ``str``
        names for ``:name`` parameters."""
        out: List[Any] = []
        self._collect_params(out)
        return out

    def _collect_params(self, out: List[Any]) -> None:
        for child in self.children():
            child._collect_params(out)

    def children(self) -> Iterable["Expression"]:
        return ()

    def with_children(self, children: Sequence["Expression"]) -> "Expression":
        """This operator over ``children`` (every non-leaf constructor
        takes exactly its children, in order); the same object when they
        are the ones it already has."""
        for new, old in zip(children, self.children()):
            if new is not old:
                return type(self)(*children)
        return self

    def map_leaves(
        self, fn: Callable[["Expression"], "Expression"]
    ) -> "Expression":
        """The expression with every leaf ``e`` replaced by ``fn(e)``;
        subtrees ``fn`` leaves alone are shared, not copied."""
        children = self.children()
        if not children:
            return fn(self)
        return self.with_children([c.map_leaves(fn) for c in children])

    # -- evaluation ----------------------------------------------------
    def eval(self, valuation: Dict[str, Any]) -> Any:
        """Deterministic evaluation (Definition 4)."""
        raise NotImplementedError

    def eval_range(self, valuation: Dict[str, RangeValue]) -> RangeValue:
        """Range-annotated evaluation (Definition 9)."""
        raise NotImplementedError

    # -- operator sugar --------------------------------------------------
    def __and__(self, other: "Expression") -> "Expression":
        return And(self, _wrap(other))

    def __or__(self, other: "Expression") -> "Expression":
        return Or(self, _wrap(other))

    def __invert__(self) -> "Expression":
        return Not(self)

    def __eq__(self, other: Any) -> "Expression":  # type: ignore[override]
        return Eq(self, _wrap(other))

    def __ne__(self, other: Any) -> "Expression":  # type: ignore[override]
        return Neq(self, _wrap(other))

    def __le__(self, other: Any) -> "Expression":
        return Leq(self, _wrap(other))

    def __lt__(self, other: Any) -> "Expression":
        return Lt(self, _wrap(other))

    def __ge__(self, other: Any) -> "Expression":
        return Geq(self, _wrap(other))

    def __gt__(self, other: Any) -> "Expression":
        return Gt(self, _wrap(other))

    def __add__(self, other: Any) -> "Expression":
        return Add(self, _wrap(other))

    def __sub__(self, other: Any) -> "Expression":
        return Sub(self, _wrap(other))

    def __mul__(self, other: Any) -> "Expression":
        return Mul(self, _wrap(other))

    def __truediv__(self, other: Any) -> "Expression":
        return Div(self, _wrap(other))

    def __neg__(self) -> "Expression":
        return Neg(self)

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(self.children())))

    def __bool__(self) -> bool:
        raise TypeError(
            "Expression objects are symbolic; use .eval()/.eval_range() "
            "to obtain a value"
        )


def _wrap(value: Any) -> Expression:
    if isinstance(value, Expression):
        return value
    return Const(value)


@dataclass(frozen=True, eq=False)
class Var(Expression):
    """Attribute / variable reference."""

    name: str

    def _collect_vars(self, out: Set[str]) -> None:
        out.add(self.name)

    def eval(self, valuation: Dict[str, Any]) -> Any:
        try:
            return valuation[self.name]
        except KeyError:
            raise KeyError(f"unbound variable {self.name!r}") from None

    def eval_range(self, valuation: Dict[str, RangeValue]) -> RangeValue:
        value = valuation[self.name]
        if not isinstance(value, RangeValue):
            return certain(value)
        return value

    def __repr__(self) -> str:
        return self.name

    def __hash__(self) -> int:
        return hash(("Var", self.name))


@dataclass(frozen=True, eq=False)
class Const(Expression):
    """Constant literal ``c`` — evaluates to ``[c/c/c]`` under ranges."""

    value: Any

    def eval(self, valuation: Dict[str, Any]) -> Any:
        return self.value

    def eval_range(self, valuation: Dict[str, RangeValue]) -> RangeValue:
        if isinstance(self.value, RangeValue):
            return self.value
        return certain(self.value)

    def __repr__(self) -> str:
        return repr(self.value)

    def __hash__(self) -> int:
        return hash(("Const", repr(self.value)))


TRUE = Const(True)
FALSE = Const(False)


@dataclass(frozen=True, eq=False)
class Parameter(Expression):
    """A query parameter placeholder (``?`` positional / ``:name`` named).

    Parameters survive parsing, logical optimization, and physical
    lowering *symbolically*, which is what lets one prepared plan serve
    many bindings (:mod:`repro.session`).  They carry no value: both
    evaluation semantics raise :class:`UnboundParameterError` — binding
    (substitution by a :class:`Const`) must happen before execution.

    ``key`` is the 0-based position for ``?`` placeholders (assigned
    left-to-right by the parser) or the name for ``:name`` placeholders.
    """

    key: Any  # int (positional) | str (named)

    def _collect_params(self, out: List[Any]) -> None:
        if self.key not in out:
            out.append(self.key)

    def eval(self, valuation: Dict[str, Any]) -> Any:
        raise UnboundParameterError(
            f"parameter {self!r} is unbound; execute through a prepared "
            "query or bind_parameters() first"
        )

    def eval_range(self, valuation: Dict[str, RangeValue]) -> RangeValue:
        raise UnboundParameterError(
            f"parameter {self!r} is unbound; execute through a prepared "
            "query or bind_parameters() first"
        )

    def __repr__(self) -> str:
        if isinstance(self.key, int):
            return f"?{self.key}"
        return f":{self.key}"

    def __hash__(self) -> int:
        return hash(("Parameter", self.key))


class _Binary(Expression):
    """Shared plumbing for binary operators."""

    __slots__ = ("left", "right")
    symbol = "?"

    def __init__(self, left: Expression, right: Expression) -> None:
        self.left = _wrap(left)
        self.right = _wrap(right)

    def children(self) -> Iterable[Expression]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.symbol} {self.right!r})"


class And(_Binary):
    """Conjunction; monotone, so bounds combine pointwise."""

    symbol = "AND"

    def eval(self, valuation: Dict[str, Any]) -> bool:
        return bool(self.left.eval(valuation)) and bool(self.right.eval(valuation))

    def eval_range(self, valuation: Dict[str, RangeValue]) -> RangeValue:
        a = self.left.eval_range(valuation)
        b = self.right.eval_range(valuation)
        return _bool_range(
            bool(a.lb) and bool(b.lb),
            bool(a.sg) and bool(b.sg),
            bool(a.ub) and bool(b.ub),
        )


class Or(_Binary):
    """Disjunction; monotone, so bounds combine pointwise."""

    symbol = "OR"

    def eval(self, valuation: Dict[str, Any]) -> bool:
        return bool(self.left.eval(valuation)) or bool(self.right.eval(valuation))

    def eval_range(self, valuation: Dict[str, RangeValue]) -> RangeValue:
        a = self.left.eval_range(valuation)
        b = self.right.eval_range(valuation)
        return _bool_range(
            bool(a.lb) or bool(b.lb),
            bool(a.sg) or bool(b.sg),
            bool(a.ub) or bool(b.ub),
        )


@dataclass(frozen=True, eq=False)
class Not(Expression):
    """Negation: flips and swaps the bounds (Definition 9)."""

    operand: Expression

    def children(self) -> Iterable[Expression]:
        return (self.operand,)

    def eval(self, valuation: Dict[str, Any]) -> bool:
        return not bool(self.operand.eval(valuation))

    def eval_range(self, valuation: Dict[str, RangeValue]) -> RangeValue:
        a = self.operand.eval_range(valuation)
        return _bool_range(not bool(a.ub), not bool(a.sg), not bool(a.lb))

    def __repr__(self) -> str:
        return f"(NOT {self.operand!r})"


class Eq(_Binary):
    """Equality.

    Certainly true only when both operands are certain and equal; possibly
    true when the intervals overlap (Definition 9).
    """

    symbol = "="

    def eval(self, valuation: Dict[str, Any]) -> bool:
        return domain_key(self.left.eval(valuation)) == domain_key(
            self.right.eval(valuation)
        )

    def eval_range(self, valuation: Dict[str, RangeValue]) -> RangeValue:
        a = self.left.eval_range(valuation)
        b = self.right.eval_range(valuation)
        lb = domain_key(a.ub) == domain_key(b.lb) and domain_key(
            b.ub
        ) == domain_key(a.lb)
        ub = domain_le(a.lb, b.ub) and domain_le(b.lb, a.ub)
        sg = domain_key(a.sg) == domain_key(b.sg)
        return _bool_range(lb, sg, ub)


class Neq(_Binary):
    """Inequality, defined as ``NOT (a = b)``."""

    symbol = "<>"

    def eval(self, valuation: Dict[str, Any]) -> bool:
        return domain_key(self.left.eval(valuation)) != domain_key(
            self.right.eval(valuation)
        )

    def eval_range(self, valuation: Dict[str, RangeValue]) -> RangeValue:
        a = self.left.eval_range(valuation)
        b = self.right.eval_range(valuation)
        # Eq's triple, negated and flipped
        return _bool_range(
            not (domain_le(a.lb, b.ub) and domain_le(b.lb, a.ub)),
            domain_key(a.sg) != domain_key(b.sg),
            not (
                domain_key(a.ub) == domain_key(b.lb)
                and domain_key(b.ub) == domain_key(a.lb)
            ),
        )


class Leq(_Binary):
    """``a <= b``: certainly true iff ``a.ub <= b.lb`` (Definition 9)."""

    symbol = "<="

    def eval(self, valuation: Dict[str, Any]) -> bool:
        return domain_le(self.left.eval(valuation), self.right.eval(valuation))

    def eval_range(self, valuation: Dict[str, RangeValue]) -> RangeValue:
        a = self.left.eval_range(valuation)
        b = self.right.eval_range(valuation)
        return _bool_range(
            domain_le(a.ub, b.lb),
            domain_le(a.sg, b.sg),
            domain_le(a.lb, b.ub),
        )


class Lt(_Binary):
    """``a < b`` defined as ``NOT (b <= a)``."""

    symbol = "<"

    def eval(self, valuation: Dict[str, Any]) -> bool:
        return not domain_le(self.right.eval(valuation), self.left.eval(valuation))

    def eval_range(self, valuation: Dict[str, RangeValue]) -> RangeValue:
        # operand order of ``b <= a``: the right operand evaluates first
        b = self.right.eval_range(valuation)
        a = self.left.eval_range(valuation)
        return _bool_range(
            not domain_le(b.lb, a.ub),
            not domain_le(b.sg, a.sg),
            not domain_le(b.ub, a.lb),
        )


class Geq(_Binary):
    symbol = ">="

    def eval(self, valuation: Dict[str, Any]) -> bool:
        return domain_le(self.right.eval(valuation), self.left.eval(valuation))

    def eval_range(self, valuation: Dict[str, RangeValue]) -> RangeValue:
        # ``b <= a``: the right operand evaluates first
        b = self.right.eval_range(valuation)
        a = self.left.eval_range(valuation)
        return _bool_range(
            domain_le(b.ub, a.lb),
            domain_le(b.sg, a.sg),
            domain_le(b.lb, a.ub),
        )


class Gt(_Binary):
    symbol = ">"

    def eval(self, valuation: Dict[str, Any]) -> bool:
        return not domain_le(self.left.eval(valuation), self.right.eval(valuation))

    def eval_range(self, valuation: Dict[str, RangeValue]) -> RangeValue:
        # NOT (a <= b)
        a = self.left.eval_range(valuation)
        b = self.right.eval_range(valuation)
        return _bool_range(
            not domain_le(a.lb, b.ub),
            not domain_le(a.sg, b.sg),
            not domain_le(a.ub, b.lb),
        )


class Add(_Binary):
    """Addition: inequalities are preserved, so bounds add pointwise."""

    symbol = "+"

    def eval(self, valuation: Dict[str, Any]) -> Any:
        return self.left.eval(valuation) + self.right.eval(valuation)

    def eval_range(self, valuation: Dict[str, RangeValue]) -> RangeValue:
        a = self.left.eval_range(valuation)
        b = self.right.eval_range(valuation)
        return RangeValue(a.lb + b.lb, a.sg + b.sg, a.ub + b.ub)


class Sub(_Binary):
    """Subtraction ``a - b``: bounds are ``[a.lb - b.ub, a.ub - b.lb]``."""

    symbol = "-"

    def eval(self, valuation: Dict[str, Any]) -> Any:
        return self.left.eval(valuation) - self.right.eval(valuation)

    def eval_range(self, valuation: Dict[str, RangeValue]) -> RangeValue:
        a = self.left.eval_range(valuation)
        b = self.right.eval_range(valuation)
        return RangeValue(a.lb - b.ub, a.sg - b.sg, a.ub - b.lb)


class Mul(_Binary):
    """Multiplication: min/max over the four bound combinations."""

    symbol = "*"

    def eval(self, valuation: Dict[str, Any]) -> Any:
        return self.left.eval(valuation) * self.right.eval(valuation)

    def eval_range(self, valuation: Dict[str, RangeValue]) -> RangeValue:
        a = self.left.eval_range(valuation)
        b = self.right.eval_range(valuation)
        corners = (a.lb * b.lb, a.lb * b.ub, a.ub * b.lb, a.ub * b.ub)
        return RangeValue(min(corners), a.sg * b.sg, max(corners))


class Div(_Binary):
    """Division ``a / b``.

    Mirrors the paper's reciprocal: undefined when the divisor interval
    straddles zero (the bound could then be a division by zero in some
    world), in which case a :class:`ZeroDivisionError` is raised.
    """

    symbol = "/"

    def eval(self, valuation: Dict[str, Any]) -> Any:
        return self.left.eval(valuation) / self.right.eval(valuation)

    def eval_range(self, valuation: Dict[str, RangeValue]) -> RangeValue:
        a = self.left.eval_range(valuation)
        b = self.right.eval_range(valuation)
        if b.lb <= 0 <= b.ub:
            raise ZeroDivisionError(
                "range-annotated division by an interval containing zero"
            )
        corners = (a.lb / b.lb, a.lb / b.ub, a.ub / b.lb, a.ub / b.ub)
        return RangeValue(min(corners), a.sg / b.sg, max(corners))


@dataclass(frozen=True, eq=False)
class Neg(Expression):
    """Arithmetic negation ``-a``."""

    operand: Expression

    def children(self) -> Iterable[Expression]:
        return (self.operand,)

    def eval(self, valuation: Dict[str, Any]) -> Any:
        return -self.operand.eval(valuation)

    def eval_range(self, valuation: Dict[str, RangeValue]) -> RangeValue:
        a = self.operand.eval_range(valuation)
        return RangeValue(-a.ub, -a.sg, -a.lb)

    def __repr__(self) -> str:
        return f"(-{self.operand!r})"


@dataclass(frozen=True, eq=False)
class If(Expression):
    """``if cond then then_branch else else_branch`` (Definition 9).

    When the condition is uncertain the bounds take the min/max over both
    branches.
    """

    cond: Expression
    then_branch: Expression
    else_branch: Expression

    def children(self) -> Iterable[Expression]:
        return (self.cond, self.then_branch, self.else_branch)

    def eval(self, valuation: Dict[str, Any]) -> Any:
        if bool(self.cond.eval(valuation)):
            return self.then_branch.eval(valuation)
        return self.else_branch.eval(valuation)

    def eval_range(self, valuation: Dict[str, RangeValue]) -> RangeValue:
        c = self.cond.eval_range(valuation)
        if bool(c.lb) and bool(c.ub):
            return self.then_branch.eval_range(valuation)
        if not bool(c.lb) and not bool(c.ub):
            return self.else_branch.eval_range(valuation)
        t = self.then_branch.eval_range(valuation)
        e = self.else_branch.eval_range(valuation)
        sg = t.sg if bool(c.sg) else e.sg
        return RangeValue(
            domain_min((t.lb, e.lb)), sg, domain_max((t.ub, e.ub))
        )

    def __repr__(self) -> str:
        return (
            f"(IF {self.cond!r} THEN {self.then_branch!r} "
            f"ELSE {self.else_branch!r})"
        )


@dataclass(frozen=True, eq=False)
class IsNull(Expression):
    """SQL-style ``x IS NULL`` test (``None`` is the null marker)."""

    operand: Expression

    def children(self) -> Iterable[Expression]:
        return (self.operand,)

    def eval(self, valuation: Dict[str, Any]) -> bool:
        return self.operand.eval(valuation) is None

    def eval_range(self, valuation: Dict[str, RangeValue]) -> RangeValue:
        a = self.operand.eval_range(valuation)
        can_be_null = a.lb is None
        must_be_null = a.lb is None and a.ub is None
        return _bool_range(must_be_null, a.sg is None, can_be_null)

    def __repr__(self) -> str:
        return f"({self.operand!r} IS NULL)"


@dataclass(frozen=True, eq=False)
class MakeUncertain(Expression):
    """The lens construct ``MakeUncertain(e_lb, e_sg, e_ub)`` (Example 16).

    Introduces attribute-level uncertainty inside a query: the three
    sub-expressions provide the lower bound, selected guess, and upper
    bound of the produced range value.  Under deterministic evaluation it
    returns the SG value (the selected-guess world keeps the guess).
    """

    lb: Expression
    sg: Expression
    ub: Expression

    def children(self) -> Iterable[Expression]:
        return (self.lb, self.sg, self.ub)

    def eval(self, valuation: Dict[str, Any]) -> Any:
        return self.sg.eval(valuation)

    def eval_range(self, valuation: Dict[str, RangeValue]) -> RangeValue:
        lo = self.lb.eval_range(valuation)
        mid = self.sg.eval_range(valuation)
        hi = self.ub.eval_range(valuation)
        return RangeValue(
            domain_min((lo.lb, mid.lb)),
            mid.sg,
            domain_max((hi.ub, mid.ub)),
        )

    def __repr__(self) -> str:
        return f"MakeUncertain({self.lb!r}, {self.sg!r}, {self.ub!r})"


def eval_incomplete(
    expression: Expression, valuations: Iterable[Dict[str, Any]]
) -> Set[Any]:
    """Possible-worlds semantics (Definition 5).

    Evaluates ``expression`` in every valuation and returns the set of
    possible outcomes.  Used by tests to verify Theorem 1.
    """
    results: List[Any] = [expression.eval(v) for v in valuations]
    seen: Set[Any] = set()
    out: Set[Any] = set()
    for r in results:
        key = domain_key(r)
        if key not in seen:
            seen.add(key)
            out.add(r)
    return out

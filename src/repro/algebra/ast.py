"""Logical query plans (``RA_agg``) shared by every engine in the repo.

The same plan evaluates over

* deterministic relations (:mod:`repro.db.engine` — the ``Det``/SGQP
  baseline and per-world ground truth),
* AU-relations (:mod:`repro.algebra.evaluator` — the paper's
  bound-preserving semantics), and
* the baseline systems in :mod:`repro.baselines`.

Plans are built either directly, via the fluent helpers on
:class:`Plan`, or from SQL through :mod:`repro.sql`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import (
    Any,
    Callable,
    Container,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from ..core.aggregation import AggregateSpec
from ..core.expressions import Expression, Var

__all__ = [
    "Node",
    "CHILD",
    "EXPRS",
    "collect_parameters",
    "Plan",
    "TableRef",
    "Selection",
    "Projection",
    "Join",
    "CrossProduct",
    "Union",
    "Difference",
    "Distinct",
    "Aggregate",
    "Rename",
    "Limit",
    "OrderBy",
    "TopK",
]


# ----------------------------------------------------------------------
# the structural description shared by both plan IRs
# ----------------------------------------------------------------------
#: ``field(metadata=CHILD)``: an input plan, or a tuple of them — what
#: :meth:`Node.children` and :meth:`Node.walk` visit.
CHILD: Mapping[str, str] = {"slot": "child"}

#: ``field(metadata=EXPRS)``: an expression-bearing slot that is *not*
#: an input — an :class:`Expression`, a ``((Expression, name), …)``
#: tuple, an :class:`AggregateSpec` tuple, or a plan kept off the
#: ``children()`` spine (``TupleFallback.logical``, ``Exchange.final``);
#: ``None`` when optional.  Every unmarked field is a scalar.
EXPRS: Mapping[str, str] = {"slot": "exprs"}

N = TypeVar("N", bound="Node")


@lru_cache(maxsize=None)
def _slots(cls: Any) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """``(child slots, child + expression slots)`` of a node class."""
    marked = [(f.name, f.metadata.get("slot")) for f in fields(cls)]
    return (
        tuple(name for name, kind in marked if kind == "child"),
        tuple(name for name, kind in marked if kind is not None),
    )


def _map(value: Any, fn: Callable[[Any], Any]) -> Any:
    """``value`` with ``fn`` applied to every node and expression in it;
    whatever ``fn`` returns unchanged keeps its container unchanged."""
    if isinstance(value, (Node, Expression)):
        return fn(value)
    if isinstance(value, tuple):
        new = [_map(v, fn) for v in value]
        for n, o in zip(new, value):
            if n is not o:
                return tuple(new)
        return value
    if isinstance(value, AggregateSpec) and value.expr is not None:
        expr = fn(value.expr)
        return value if expr is value.expr else replace(value, expr=expr)
    return value


def _rebuild(node: Any, slots: Sequence[str], fn: Callable[[Any], Any]) -> Any:
    """``node`` with ``fn`` mapped over ``slots``: a copy carrying every
    other field when something changed, else the same object."""
    changes: Dict[str, Any] = {}
    for name in slots:
        old = getattr(node, name)
        new = _map(old, fn)
        if new is not old:
            changes[name] = new
    if not changes:
        return node
    # a shallow clone, as copy.copy would make: mapped slots hold values
    # already in stored form, so they are not fed back through __init__
    copy = object.__new__(type(node))
    vars(copy).update(vars(node))
    vars(copy).update(changes)
    return copy


class Node:
    """What logical and physical plan nodes have in common.

    A node is a dataclass whose fields are marked :data:`CHILD`,
    :data:`EXPRS` or left scalar; traversal, copy-with and every
    "rewrite each node" pass (parameter binding and collection, the
    optimizer's child rebuild, parallel-region insertion) derive from
    that description instead of enumerating node types.  The rewrites
    preserve identity: a subtree nothing changed in is returned as the
    same object, which keeps ``id(node)``-keyed actuals, bindings and
    compiled-expression caches valid.
    """

    def children(self) -> Tuple[Any, ...]:
        out: Tuple[Any, ...] = ()
        for name in _slots(type(self))[0]:
            value = getattr(self, name)
            out += value if isinstance(value, tuple) else (value,)
        return out

    def walk(self: N) -> Iterator[N]:
        """Pre-order traversal of the plan tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def map_children(self: N, fn: Callable[[Any], Any]) -> N:
        """This node over ``fn(child)`` for each child."""
        rebuilt: N = _rebuild(self, _slots(type(self))[0], fn)
        return rebuilt

    def map_slots(self: N, fn: Callable[[Any], Any]) -> N:
        """This node over ``fn`` of each plan and expression it holds
        directly — children, off-spine plans and expressions alike."""
        rebuilt: N = _rebuild(self, _slots(type(self))[1], fn)
        return rebuilt

    def plans(self) -> Iterator[Tuple[str, Optional[int], "Node"]]:
        """``(slot, index, plan)`` for each plan this node holds directly,
        off-spine ones (``TupleFallback.logical``, ``Exchange.final``)
        included; ``index`` is the position inside a tuple slot."""
        for name in _slots(type(self))[1]:
            value = getattr(self, name)
            if isinstance(value, Node):
                yield name, None, value
            elif isinstance(value, tuple):
                for i, item in enumerate(value):
                    if isinstance(item, Node):
                        yield name, i, item

    def rewrite(
        self: N,
        expr_fn: Callable[[Expression], Expression],
        node_fn: Optional[Callable[[Any], Any]] = None,
        within: Optional[Container[int]] = None,
    ) -> N:
        """The plan with ``expr_fn`` applied to every expression of every
        node, nested off-spine plans included; ``node_fn``, when given,
        then maps each (rewritten) node — bottom-up, returning the node
        itself where it changes nothing.  ``within``, when given, holds
        the ids of the only nodes and expressions to visit: anything
        else is kept as is, unvisited, with its whole subtree."""

        def visit(value: Any) -> Any:
            if within is not None and id(value) not in within:
                return value
            if isinstance(value, Expression):
                return expr_fn(value)
            node = _rebuild(value, _slots(type(value))[1], visit)
            return node if node_fn is None else node_fn(node)

        rewritten: N = visit(self)
        return rewritten


def collect_parameters(plan: Node) -> List[Any]:
    """All parameter keys mentioned anywhere in ``plan``, first-seen order."""
    out: List[Any] = []

    def note(expr: Expression) -> Expression:
        for key in expr.parameters():
            if key not in out:
                out.append(key)
        return expr

    plan.rewrite(note)
    return out


class Plan(Node):
    """Base class for logical plan nodes with fluent builders."""

    # ------------------------------------------------------------------
    # fluent construction
    # ------------------------------------------------------------------
    def where(self, condition: Expression) -> "Selection":
        return Selection(self, condition)

    def select(self, *columns) -> "Projection":
        """Project onto columns.

        Each column is an attribute name, or a ``(expression, name)`` pair.
        """
        cols: List[Tuple[Expression, str]] = []
        for c in columns:
            if isinstance(c, str):
                cols.append((Var(c), c))
            else:
                expr, name = c
                cols.append((Var(expr) if isinstance(expr, str) else expr, name))
        return Projection(self, tuple(cols))

    def join(self, other: "Plan", condition: Expression) -> "Join":
        return Join(self, other, condition)

    def cross(self, other: "Plan") -> "CrossProduct":
        return CrossProduct(self, other)

    def union(self, other: "Plan") -> "Union":
        return Union(self, other)

    def minus(self, other: "Plan") -> "Difference":
        return Difference(self, other)

    def distinct(self) -> "Distinct":
        return Distinct(self)

    def grouped(
        self, keys: Sequence[str], aggregates: Sequence[AggregateSpec]
    ) -> "Aggregate":
        return Aggregate(self, tuple(keys), tuple(aggregates))

    def aggregate(self, *aggregates: AggregateSpec) -> "Aggregate":
        return Aggregate(self, (), tuple(aggregates))

    def rename(self, mapping: Dict[str, str]) -> "Rename":
        return Rename(self, tuple(sorted(mapping.items())))

    def order_by(self, keys: Sequence[str], descending: bool = False) -> "OrderBy":
        return OrderBy(self, tuple(keys), descending)

    def limit(self, n: int) -> "Limit":
        return Limit(self, n)

    # ------------------------------------------------------------------
    def table_names(self) -> List[str]:
        return [n.name for n in self.walk() if isinstance(n, TableRef)]


@dataclass(frozen=True)
class TableRef(Plan):
    """Base-table access."""

    name: str

    def __repr__(self) -> str:
        return f"Table({self.name})"


@dataclass(frozen=True)
class Selection(Plan):
    child: Plan = field(metadata=CHILD)
    condition: Expression = field(metadata=EXPRS)

    def __repr__(self) -> str:
        return f"σ[{self.condition!r}]({self.child!r})"


@dataclass(frozen=True)
class Projection(Plan):
    child: Plan = field(metadata=CHILD)
    columns: Tuple[Tuple[Expression, str], ...] = field(metadata=EXPRS)

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))

    def __repr__(self) -> str:
        cols = ", ".join(f"{e!r}→{n}" for e, n in self.columns)
        return f"π[{cols}]({self.child!r})"


@dataclass(frozen=True)
class Join(Plan):
    left: Plan = field(metadata=CHILD)
    right: Plan = field(metadata=CHILD)
    condition: Expression = field(metadata=EXPRS)

    def __repr__(self) -> str:
        return f"({self.left!r} ⋈[{self.condition!r}] {self.right!r})"


@dataclass(frozen=True)
class CrossProduct(Plan):
    left: Plan = field(metadata=CHILD)
    right: Plan = field(metadata=CHILD)

    def __repr__(self) -> str:
        return f"({self.left!r} × {self.right!r})"


@dataclass(frozen=True)
class Union(Plan):
    left: Plan = field(metadata=CHILD)
    right: Plan = field(metadata=CHILD)

    def __repr__(self) -> str:
        return f"({self.left!r} ∪ {self.right!r})"


@dataclass(frozen=True)
class Difference(Plan):
    left: Plan = field(metadata=CHILD)
    right: Plan = field(metadata=CHILD)

    def __repr__(self) -> str:
        return f"({self.left!r} − {self.right!r})"


@dataclass(frozen=True)
class Distinct(Plan):
    child: Plan = field(metadata=CHILD)

    def __repr__(self) -> str:
        return f"δ({self.child!r})"


@dataclass(frozen=True)
class Aggregate(Plan):
    child: Plan = field(metadata=CHILD)
    group_by: Tuple[str, ...]
    aggregates: Tuple[AggregateSpec, ...] = field(metadata=EXPRS)
    having: Optional[Expression] = field(default=None, metadata=EXPRS)

    def __post_init__(self) -> None:
        object.__setattr__(self, "group_by", tuple(self.group_by))
        object.__setattr__(self, "aggregates", tuple(self.aggregates))

    def __repr__(self) -> str:
        aggs = ", ".join(f"{a.kind}({a.expr!r})→{a.name}" for a in self.aggregates)
        gb = ",".join(self.group_by)
        return f"γ[{gb}; {aggs}]({self.child!r})"


@dataclass(frozen=True)
class Rename(Plan):
    """``mapping`` is given as a dict (or its pairs) and stored as a
    sorted tuple of pairs, so the node stays hashable."""

    child: Plan = field(metadata=CHILD)
    mapping: Tuple[Tuple[str, str], ...]

    def __post_init__(self) -> None:
        pairs = tuple(sorted(dict(self.mapping).items()))
        object.__setattr__(self, "mapping", pairs)

    def mapping_dict(self) -> Dict[str, str]:
        return dict(self.mapping)

    def __repr__(self) -> str:
        return f"ρ[{dict(self.mapping)}]({self.child!r})"


@dataclass(frozen=True)
class OrderBy(Plan):
    """Presentation-only ordering (deterministic engine only)."""

    child: Plan = field(metadata=CHILD)
    keys: Tuple[str, ...]
    descending: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(self.keys))


@dataclass(frozen=True)
class Limit(Plan):
    """First ``n`` rows.

    Without an :class:`OrderBy` child the deterministic engine picks rows
    by the full-tuple domain order (deterministic but arbitrary); with one,
    the engine sorts by the ORDER BY keys — see :class:`TopK`, the fused
    form produced by the optimizer.
    """

    child: Plan = field(metadata=CHILD)
    n: int


@dataclass(frozen=True)
class TopK(Plan):
    """``ORDER BY keys [DESC] LIMIT n`` fused into a single top-k node.

    The deterministic engine sorts by ``keys`` (all descending when
    ``descending`` is set, mirroring the parser) with the full-tuple domain
    order as tie-break, then keeps the first ``n`` rows by multiplicity.
    The AU engine returns a true (bound-adjusted) top-k when every order
    key is certain and keeps everything otherwise — LIMIT over uncertainly
    *ordered* data cannot soundly drop tuples (see
    :func:`repro.core.operators.au_topk`).
    """

    child: Plan = field(metadata=CHILD)
    keys: Tuple[str, ...]
    descending: bool
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(self.keys))

    def __repr__(self) -> str:
        order = "desc" if self.descending else "asc"
        return f"topk[{','.join(self.keys)} {order}; {self.n}]({self.child!r})"

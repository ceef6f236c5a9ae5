"""Structural meta-test over every plan-node and expression class.

Both plan IRs describe their fields declaratively (``CHILD`` / ``EXPRS``
marks, everything else scalar — :class:`repro.algebra.ast.Node`) and
binding, parameter collection, copy-with, traversal and pickling are
derived from that description.  The classes are *enumerated* here, not
listed, so a node added later is held to the same contract without
anyone remembering to extend a test: a sample instance is built from
the field annotations alone, and an annotation the builder does not
know fails loudly.
"""

import dataclasses
import pickle

import pytest

from repro.algebra import ast
from repro.algebra.ast import CHILD, EXPRS, Plan, collect_parameters
from repro.core.aggregation import AggregateSpec
from repro.core.expressions import Const, Expression, Gt, Parameter, Var
from repro.exec import physical as phys
from repro.session import bind_parameters


def _concrete(base):
    """Leaf classes of ``base``'s subclass tree, in definition order."""
    out = []
    for cls in base.__subclasses__():
        out.extend(_concrete(cls) or [cls])
    return out


NODE_CLASSES = _concrete(Plan) + _concrete(phys.PhysNode)
EXPRESSION_CLASSES = _concrete(Expression)


class _Sampler:
    """Builds one instance of a node class from its field annotations,
    planting a fresh :class:`Parameter` in every expression position."""

    def __init__(self):
        self.keys = []

    def expr(self):
        key = len(self.keys)
        self.keys.append(key)
        return Gt(Var("a"), Parameter(key))

    def leaf(self, physical):
        return phys.Scan("t", est=7.0) if physical else ast.TableRef("t")

    def value(self, field, physical):
        kind, ann = field.metadata.get("slot"), field.type
        if kind == "child":
            if ann.startswith("Tuple["):
                return (self.leaf(physical), self.leaf(physical))
            return self.leaf(physical)
        if kind == "exprs":
            if "AggregateSpec" in ann:
                return (
                    AggregateSpec("sum", self.expr(), "s"),
                    AggregateSpec("count", None, "c"),
                )
            if "Tuple[Tuple[Expression, str]" in ann:
                return ((Var("a"), "a"), (self.expr(), "x"))
            if "Expression" in ann:
                return self.expr()
            if "PhysNode" in ann:
                return phys.FusedSelectProject(phys.Scan("t"), self.expr(), None)
            if "Plan" in ann:
                return ast.Selection(ast.TableRef("t"), self.expr())
        scalars = {
            "str": "x",
            "int": 3,
            "Optional[int]": 3,
            "bool": True,
            "float": 2.5,
            "Tuple[str, ...]": ("a", "b"),
            "Tuple[str, str]": ("a", "b"),
            "Tuple[Tuple[str, str], ...]": (("a", "b"),),
            "Dict[str, str]": {"a": "b"},
            "Optional[object]": "opaque",
            "Tuple[Plan, ...]": (ast.TableRef("src"),),
        }
        if kind is None and ann in scalars:
            return scalars[ann]
        pytest.fail(
            f"{field.name}: {ann} (slot {kind!r}) — teach _Sampler.value "
            "how to build this field"
        )

    def build(self, cls):
        physical = issubclass(cls, phys.PhysNode)
        return cls(
            **{
                f.name: self.value(f, physical)
                for f in dataclasses.fields(cls)
            }
        )


def _sample(cls):
    sampler = _Sampler()
    return sampler.build(cls), sampler.keys


def _fields(node, kind):
    return [
        f.name
        for f in dataclasses.fields(node)
        if f.metadata.get("slot") == kind
    ]


def test_enumeration_sees_both_irs_and_the_expressions():
    names = {cls.__name__ for cls in NODE_CLASSES}
    assert {"TableRef", "Aggregate", "Scan", "HashExcept", "Exchange"} <= names
    assert {"Var", "Parameter", "And", "If"} <= {
        cls.__name__ for cls in EXPRESSION_CLASSES
    }


def test_the_aggregation_budget_is_a_field_of_hash_aggregate():
    # it travels with copy-with, binding and pickling like any scalar
    # field; the other SG-combining operators take no budget
    names = lambda cls: {f.name for f in dataclasses.fields(cls)}  # noqa: E731
    assert "buckets" in names(phys.HashAggregate)
    for cls in (phys.HashDistinct, phys.HashExcept, phys.TopK):
        assert "buckets" not in names(cls)
    node, _keys = _sample(phys.HashAggregate)
    assert node.map_children(lambda c: phys.Scan("u")).buckets == node.buckets


@pytest.mark.parametrize(
    "cls",
    NODE_CLASSES,
    ids=lambda c: f"{c.__module__.rsplit('.', 1)[-1]}.{c.__name__}",
)
class TestNodeStructure:
    def test_marks_are_the_two_known_ones(self, cls):
        for f in dataclasses.fields(cls):
            assert f.metadata in ({}, CHILD, EXPRS), f.name

    def test_children_are_the_declared_child_slots(self, cls):
        node, _keys = _sample(cls)
        declared = []
        for name in _fields(node, "child"):
            value = getattr(node, name)
            declared.extend(value if isinstance(value, tuple) else [value])
        assert len(node.children()) == len(declared)
        assert all(c is d for c, d in zip(node.children(), declared))
        assert list(node.walk())[0] is node
        assert len(list(node.walk())) == 1 + len(declared)

    def test_identity_transform_returns_the_same_object(self, cls):
        node, _keys = _sample(cls)
        assert node.map_children(lambda child: child) is node
        assert node.rewrite(lambda expr: expr) is node
        assert node.rewrite(lambda expr: expr.map_leaves(lambda e: e)) is node

    def test_map_children_replaces_children_and_carries_the_rest(self, cls):
        node, _keys = _sample(cls)
        physical = isinstance(node, phys.PhysNode)
        fresh = phys.Scan("u") if physical else ast.TableRef("u")
        mapped = node.map_children(lambda child: fresh)
        if not node.children():
            assert mapped is node
            return
        assert type(mapped) is cls and mapped is not node
        assert all(c is fresh for c in mapped.children())
        assert len(mapped.children()) == len(node.children())
        for name in _fields(node, "exprs"):
            assert getattr(mapped, name) is getattr(node, name), name
        for name in _fields(node, None):
            assert getattr(mapped, name) == getattr(node, name), name

    def test_binding_replaces_every_planted_parameter(self, cls):
        node, keys = _sample(cls)
        assert collect_parameters(node) == keys
        bound = bind_parameters(node, [10 + k for k in keys])
        if not keys:
            assert bound is node
            return
        assert type(bound) is cls and bound is not node
        assert collect_parameters(bound) == []
        values = []

        def note(leaf):
            if isinstance(leaf, Const):
                values.append(leaf.value)
            return leaf

        assert bound.rewrite(lambda e: e.map_leaves(note)) is bound
        assert sorted(values) == [10 + k for k in keys]
        # est, sources and every scalar field carried over untouched …
        for name in _fields(node, None):
            assert getattr(bound, name) == getattr(node, name), name
        # … parameter-free siblings shared, not copied …
        assert all(b is o for b, o in zip(bound.children(), node.children()))
        # … and the template is not mutated
        assert collect_parameters(node) == keys

    def test_bound_walk_stays_aligned_with_the_template(self, cls):
        # PreparedQuery._run_inner mirrors actuals / trace aliases from
        # the bound plan back onto the template by zipping the walks
        node, keys = _sample(cls)
        parent = (
            phys.Concat(node, phys.Scan("t"))
            if isinstance(node, phys.PhysNode)
            else ast.Union(node, ast.TableRef("t"))
        )
        bound = bind_parameters(parent, [10 + k for k in keys])
        template_walk, bound_walk = list(parent.walk()), list(bound.walk())
        assert [type(n) for n in bound_walk] == [type(n) for n in template_walk]
        # the parameter-free sibling is shared
        assert bound.right is parent.right

    def test_pickle_round_trip_keeps_type_and_fields(self, cls):
        node, _keys = _sample(cls)
        clone = pickle.loads(pickle.dumps(node))
        assert type(clone) is cls and clone is not node
        assert repr(clone) == repr(node)
        assert [type(n) for n in clone.walk()] == [type(n) for n in node.walk()]


class TestPhysicalNodesKeepIdentitySemantics:
    def test_equal_fields_are_still_different_nodes(self):
        a, b = phys.Scan("t"), phys.Scan("t")
        assert a != b and len({a, b}) == 2  # id(node)-keyed maps stay per-node

    def test_est_and_sources_are_keyword_fields(self):
        src = ast.TableRef("t")
        scan = phys.Scan("t", None, None, est=5.0, sources=(src,))
        assert (scan.est, scan.sources) == (5.0, (src,))
        with pytest.raises(TypeError):
            phys.Scan("t", None, None, 5.0)

    def test_logical_rename_survives_copy_with_and_reconstruction(self):
        # the constructor takes a dict, the node stores sorted pairs:
        # copy-with must keep the stored form, and the stored form must
        # be accepted back by the constructor (dataclasses.replace)
        rename = ast.Rename(ast.TableRef("t"), {"b": "y", "a": "x"})
        moved = rename.map_children(lambda child: ast.TableRef("u"))
        assert moved.mapping == rename.mapping == (("a", "x"), ("b", "y"))
        assert moved.mapping_dict() == {"a": "x", "b": "y"}
        again = dataclasses.replace(rename, child=ast.TableRef("u"))
        assert again.mapping == rename.mapping


def _sample_expression(cls):
    if not dataclasses.is_dataclass(cls):  # the binary operators
        return cls(Var("l"), Var("r"))
    args = []
    for i, f in enumerate(dataclasses.fields(cls)):
        if f.type == "Expression":
            args.append(Var(f"v{i}"))
        elif f.type in ("str", "Any"):
            args.append("k")
        else:
            pytest.fail(f"{cls.__name__}.{f.name}: {f.type} — extend the sampler")
    return cls(*args)


@pytest.mark.parametrize("cls", EXPRESSION_CLASSES, ids=lambda c: c.__name__)
class TestExpressionStructure:
    def test_rebuild_from_children(self, cls):
        expr = _sample_expression(cls)
        children = list(expr.children())
        assert expr.with_children(children) is expr
        assert expr.map_leaves(lambda leaf: leaf) is expr
        if not children:
            return
        fresh = [Var(f"n{i}") for i in range(len(children))]
        rebuilt = expr.with_children(fresh)
        assert type(rebuilt) is cls and rebuilt is not expr
        assert all(n is f for n, f in zip(rebuilt.children(), fresh))
        assert repr(rebuilt) != repr(expr)

    def test_binding_and_substitution_reach_every_child(self, cls):
        expr = _sample_expression(cls)
        n = len(list(expr.children()))
        if not n:
            return
        params = expr.with_children([Parameter(i) for i in range(n)])
        assert params.parameters() == list(range(n))
        bound = bind_parameters(params, list(range(100, 100 + n)))
        assert bound.parameters() == []
        assert [c.value for c in bound.children()] == list(range(100, 100 + n))
        # sharing: only the spine above a replaced leaf is rebuilt
        keep = Gt(Var("a"), Var("b"))
        mixed = expr.with_children([keep] + [Parameter(0)] * (n - 1))
        rebound = bind_parameters(mixed, [1] if n > 1 else None)
        assert list(rebound.children())[0] is keep
        assert (rebound is mixed) == (n == 1)

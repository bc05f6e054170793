"""Record semantics of the frozen value types.

Each record must behave like the frozen dataclass with the same fields:
equality within one class, the hash of the field tuple, repr in field
order, no assignment or deletion, and no instance __dict__.  Every frozen
object, records or not, refuses assignment and deletion of each slot, and
only _record writes a slot.
"""

import ast
import dataclasses

import pytest

from weylirr._record import Frozen, Record
from weylirr.acceptance import CheckResult
from weylirr.classifier import (
    Decision,
    EndNode,
    FundWeight,
    LeviDescent,
    Sl2Node,
)
from weylirr.qarith import ZERO, LaurentPoly, SpecOrder, qint
from weylirr.rootsystem import LeviComponent, Root, build
from weylirr.weylmods import E8Certificate

from package_ast import package_sources

# one sample field tuple per record class, and a second one that differs
SAMPLES = [
    (SpecOrder, (6, 2), (6, 1)),
    (Root, ((1, 0, 1), 1), ((1, 1, 0), 1)),
    (LeviComponent, ((2, 3), build("A", 2), 1), ((2, 3), build("B", 2), 1)),
    (E8Certificate,
     (qint(3), LaurentPoly({2: 1}), (qint(2),), (3, 60), (60,), 1, -1),
     (qint(3), LaurentPoly({2: 1}), (qint(2),), (3, 60), (), 1, -1)),
    (Sl2Node, (1, 3), (1, 4)),
    (LeviDescent, ((2, 3), "A2", 1, (1, 0)), ((2, 3), "A2", 2, (1, 0))),
    (EndNode, ("a", 6), ("b", 6)),
    (FundWeight, (2, 3, "adjoint_short_root"), (2, 3, "g2_omega2")),
    (Decision, ("reducible", None, (Sl2Node(1, 3),), 3),
     ("globally_irreducible", "minuscule", (), None)),
    (CheckResult, ("e8-certificate", False, 0.5, "order 60"),
     ("e8-certificate", True, 0.5, "order 60")),
]
IDS = [cls.__name__ for cls, _, _ in SAMPLES]


def _dataclass_twin(cls, values):
    """The frozen dataclass that the record class stands in for."""
    twin = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)
    return twin(*values)


@pytest.mark.parametrize("cls, values, other", SAMPLES, ids=IDS)
class TestRecordSemantics:
    def test_equal_fields_give_equal_objects(self, cls, values, other):
        a, b = cls(*values), cls(*values)
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b) == hash(values)
        assert a != cls(*other) and hash(a) != hash(cls(*other))
        assert len({a, b, cls(*other)}) == 2

    def test_other_classes_are_never_equal(self, cls, values, other):
        class Twin(cls):
            __slots__ = ()

        record, twin = cls(*values), Twin(*values)
        assert record != twin and twin != record
        assert record != values and record != list(values)
        assert record.__eq__(values) is NotImplemented
        assert record != _dataclass_twin(cls, values)

    def test_repr_lists_the_fields_in_order(self, cls, values, other):
        record = cls(*values)
        body = ", ".join(f"{f}={v!r}" for f, v in zip(cls._fields, values))
        assert repr(record) == f"{cls.__qualname__}({body})"
        assert repr(record) == repr(_dataclass_twin(cls, values))
        assert hash(record) == hash(_dataclass_twin(cls, values))

    def test_fields_are_frozen(self, cls, values, other):
        record = cls(*values)
        for name in cls.__slots__ + ("unknown",):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert tuple(getattr(record, f) for f in cls._fields) == values

    def test_no_instance_dict(self, cls, values, other):
        assert issubclass(cls, Record)
        assert not hasattr(cls(*values), "__dict__")

    def test_keyword_construction(self, cls, values, other):
        fields = cls._fields
        kwargs = dict(zip(fields, values))
        assert cls(**kwargs) == cls(*values)
        for k in range(len(fields) + 1):
            mixed = cls(*values[:k], **dict(zip(fields[k:], values[k:])))
            assert mixed == cls(*values)
        first = fields[0]
        bad_calls = [
            lambda: cls(*values, values[0]),  # one too many
            lambda: cls(**{f: v for f, v in kwargs.items() if f != first}),
            lambda: cls(*values, unknown=values[0]),
            lambda: cls(*values[:1], **kwargs),  # first field twice
            lambda: cls(),
        ]
        for call in bad_calls:
            with pytest.raises(TypeError, match=cls.__name__):
                call()


def test_spec_order_validates_in_init():
    for ell in (0, -1, 2.0, "6"):
        with pytest.raises(ValueError, match="^ell: must be a positive"):
            SpecOrder(ell)
    for d in (0, 4, "1"):
        with pytest.raises(ValueError, match="^d: must be 1, 2 or 3$"):
            SpecOrder(6, d)


# one object of each frozen type that is not a record, and a record with
# slots outside its fields
FROZEN = [ZERO, qint(2), LaurentPoly({-3: 2, 4: -1}), build("G", 2),
          build("D", 5), SpecOrder(6, 2)]


@pytest.mark.parametrize("obj", FROZEN, ids=repr)
def test_every_slot_is_frozen(obj):
    assert isinstance(obj, Frozen)
    slots = [name for cls in type(obj).__mro__
             for name in cls.__dict__.get("__slots__", ())
             if name != "__dict__"]
    assert len(slots) >= 2
    before = [getattr(obj, name, None) for name in slots]
    for name in slots + ["unknown"]:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert [getattr(obj, name, None) for name in slots] == before


def _writers(tree):
    """The lines of tree that name object.__setattr__ or define
    __setattr__ or __delattr__."""
    hooks = ("__setattr__", "__delattr__")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in hooks
                and isinstance(node.value, ast.Name)
                and node.value.id == "object"):
            yield node.lineno
        elif isinstance(node, ast.FunctionDef) and node.name in hooks:
            yield node.lineno
        elif (isinstance(node, ast.Name) and node.id in hooks
              and isinstance(node.ctx, ast.Store)):
            yield node.lineno


def test_only_record_module_writes_slots():
    found = {name: list(_writers(ast.parse(text)))
             for name, text in package_sources().items()}
    assert found["_record"]
    assert {name: lines for name, lines in found.items()
            if lines and name != "_record"} == {}

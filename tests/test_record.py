"""Record semantics of the frozen value types.

Each record must behave like the frozen dataclass with the same fields:
equality within one class, the hash of the field tuple, repr in field
order, no assignment or deletion, and no instance __dict__.  Every frozen
object, records or not, refuses assignment and deletion of each slot, and
only _record writes a slot or builds an initializer.  The positional fast
path that a record of one to seven fields gets must build the same object,
or raise the same message, as Record.__init__ on every kind of call.
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


def _bind_messages(cls, values):
    """The five bad calls of test_keyword_construction, each with the
    message that _bind gives it."""
    fields, name = cls._fields, cls.__qualname__
    n, kwargs = len(fields), dict(zip(fields, values))
    return [
        ((*values, values[0]), {},
         f"{name}() takes {n} arguments but {n + 1} were given"),
        ((), {f: v for f, v in kwargs.items() if f != fields[0]},
         f"{name}() missing arguments: {fields[0]}"),
        (values, {"unknown": values[0]},
         f"{name}() got unknown argument 'unknown'"),
        (values[:1], kwargs, f"{name}() got repeated argument {fields[0]!r}"),
        ((), {}, f"{name}() missing arguments: {', '.join(fields)}"),
    ]


@pytest.mark.parametrize("width", range(1, 9))
def test_every_width_builds_alike_on_every_path(width):
    # throwaway records of one to eight fields, and a subclass of each
    # that adds no slots: one to seven get a positional fast path of
    # their own, eight keeps Record.__init__, and every kind of call must
    # give the same object, or the same message, as Record.__init__
    fields = tuple(f"f{i}" for i in range(width))

    class Wide(Record):
        __slots__ = _fields = fields

    class Narrow(Wide):
        __slots__ = ()

    values = tuple((i, str(i)) for i in range(width))
    for cls in (Wide, Narrow):
        assert ("__init__" in vars(cls)) == (width <= 7)
        reference = object.__new__(cls)
        Record.__init__(reference, *values)
        built = [cls(*values), cls(**dict(zip(fields, values)))]
        built += [cls(*values[:k], **dict(zip(fields[k:], values[k:])))
                  for k in range(1, width)]
        for record in built:
            assert record == reference and not record != reference
            assert hash(record) == hash(reference) == hash(values)
            assert repr(record) == repr(reference)
            assert tuple(getattr(record, f) for f in fields) == values
        for args, kwargs, message in _bind_messages(cls, values):
            with pytest.raises(TypeError) as fast_error:
                cls(*args, **kwargs)
            with pytest.raises(TypeError) as slow_error:
                Record.__init__(object.__new__(cls), *args, **kwargs)
            assert str(fast_error.value) == str(slow_error.value) == message


def test_a_written_init_is_kept_by_its_subclasses():
    class Checked(Record):
        __slots__ = _fields = ("a", "b")

        def __init__(self, a, b):
            if a > b:
                raise ValueError("a > b")
            Record.__init__(self, a, b)

    class Twin(Checked):
        __slots__ = ()

    class Order(SpecOrder):
        __slots__ = ()

    for cls in (Checked, Twin):
        assert cls.__init__ is Checked.__dict__["__init__"]
        assert cls(1, 2) == cls(a=1, b=2)
        with pytest.raises(ValueError):
            cls(2, 1)
    assert Order.__init__ is SpecOrder.__dict__["__init__"]
    assert Order(6, 2).s == 3
    with pytest.raises(ValueError, match="^d: must be 1, 2 or 3$"):
        Order(6, 4)


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


def _built_initializers(tree):
    """The lines of tree that build an initializer: an __init__ defined
    inside a function, an assignment to an __init__ attribute, or a use
    of a slot descriptor's __set__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield from (inner.lineno for inner in ast.walk(node)
                        if inner is not node
                        and isinstance(inner, ast.FunctionDef)
                        and inner.name == "__init__")
        elif isinstance(node, ast.Attribute) and (
                node.attr == "__set__" or node.attr == "__init__"
                and isinstance(node.ctx, ast.Store)):
            yield node.lineno


def test_only_spec_order_writes_an_init_and_only_record_builds_one():
    trees = {name: ast.parse(text)
             for name, text in package_sources().items()}
    records = [node for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)
               and any(getattr(base, "id", None) == "Record"
                       for base in node.bases)]
    written = {node.name for node in records for item in node.body
               if isinstance(item, ast.FunctionDef)
               and item.name == "__init__"}
    assert len(records) == len(SAMPLES) and written == {"SpecOrder"}
    found = {name: sorted(set(_built_initializers(tree)))
             for name, tree in trees.items()}
    assert found["_record"]
    assert {name: lines for name, lines in found.items()
            if lines and name != "_record"} == {}
    for cls, _, _ in SAMPLES:
        assert (cls.__init__.__module__ == "weylirr._record") \
            == (cls is not SpecOrder)

"""Frozen objects: the base of every immutable type, and its one slot writer.

Frozen is the base of Record, LaurentPoly and RootSystem: its __setattr__
and __delattr__ raise AttributeError.  A slot is written only through
_setattr (object.__setattr__), by a constructor or by vanishes_at's store
of a polynomial's reduction; no other module names object.__setattr__.

Record is the package's small stand-in for frozen dataclasses.  Importing
dataclasses (which imports inspect) and generating each class costs a
fresh process several milliseconds, more than a typical CLI query spends
computing, so the value types use this base instead.  A subclass declares
its fields once, as ``__slots__ = _fields = (...)``, and Record.__init__
is the one constructor: it reads ``_fields`` and takes positional and
keyword arguments in that order.  A subclass writes its own ``__init__``
only to validate or derive values, as SpecOrder does.  Two records are
equal when they are of the same class and their field tuples are equal;
the hash is the hash of the field tuple; repr reads
``QualName(field=value!r, ...)`` in field order.  Instances have no
``__dict__``.
"""


_setattr = object.__setattr__


def _bind(cls, args: tuple, kwargs: dict) -> tuple:
    """The arguments of a cls(...) call as one tuple in field order."""
    fields, name = cls._fields, cls.__qualname__
    if len(args) > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} arguments but "
                        f"{len(args)} were given")
    rest = fields[len(args):]
    for key in kwargs:
        if key not in rest:
            what = "repeated" if key in fields else "unknown"
            raise TypeError(f"{name}() got {what} argument {key!r}")
    missing = [f for f in rest if f not in kwargs]
    if missing:
        raise TypeError(f"{name}() missing arguments: {', '.join(missing)}")
    return args + tuple([kwargs[f] for f in rest])


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Record(Frozen):
    __slots__ = ()
    _fields = ()

    def __init__(self, /, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = _bind(type(self), args, kwargs)
        for name, value in zip(fields, args):
            _setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

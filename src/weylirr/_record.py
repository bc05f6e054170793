"""Frozen objects: the base of every immutable type, and its slot writers.

Frozen is the base of Record, LaurentPoly and RootSystem: its __setattr__
and __delattr__ raise AttributeError.  A slot is written only through
_setattr (object.__setattr__), by a constructor or by vanishes_at's store
of a polynomial's reduction, or through its descriptor's __set__ in a
record initializer built here; no other module names object.__setattr__
or __set__.

Record is the package's small stand-in for frozen dataclasses.  Importing
dataclasses (which imports inspect) and generating each class costs a
fresh process several milliseconds, more than a typical CLI query spends
computing, so the value types use this base instead.  A subclass declares
its fields once, as ``__slots__ = _fields = (...)``, and only this module
builds constructors.  Record.__init__ reads ``_fields`` and takes
positional and keyword arguments in that order, binding through _bind.
Record.__init_subclass__ gives each class of one to seven fields whose
__init__ comes from this module a fast path of its own, built by
_positional without exec: a call with one positional argument per field
sets the slots through their descriptors, and any other call binds
through _bind with the same messages.  A subclass writes its own
``__init__`` only to validate or derive values, as SpecOrder does;
it keeps that __init__, and so do its subclasses.  Two records are
equal when they are of the same class and their field tuples are equal;
the hash is the hash of the field tuple; repr reads
``QualName(field=value!r, ...)`` in field order.  Instances have no
``__dict__``.

InternalCheckError lives here too, at the bottom of the import graph, so
that rootsystem, classifier and cli raise and catch it without importing
qarith; qarith re-exports the same class.
"""


_setattr = object.__setattr__


class InternalCheckError(RuntimeError):
    """An internal consistency check failed: a bug, never bad user input."""


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


def _positional(cls):
    """cls's initializer: a call with one positional argument per field
    sets the slots through their descriptors, unrolled for up to seven
    fields (the tests of n nest, so a call stops at the first that
    fails); any other call binds through _bind first."""
    n = len(cls._fields)
    s0, s1, s2, s3, s4, s5, s6 = [getattr(cls, f).__set__
                                  for f in cls._fields] + [None] * (7 - n)

    def __init__(self, /, *args, **kwargs):
        if kwargs or len(args) != n:
            args = _bind(type(self), args, kwargs)
        s0(self, args[0])
        if n > 1:
            s1(self, args[1])
            if n > 2:
                s2(self, args[2])
                if n > 3:
                    s3(self, args[3])
                    if n > 4:
                        s4(self, args[4])
                        if n > 5:
                            s5(self, args[5])
                            if n > 6:
                                s6(self, args[6])
    return __init__


class Record(Frozen):
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        if cls.__init__.__module__ == __name__ and 0 < len(cls._fields) < 8:
            cls.__init__ = _positional(cls)

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

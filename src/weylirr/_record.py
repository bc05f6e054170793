"""Frozen value records, the package's small stand-in for frozen dataclasses.

Importing dataclasses (which imports inspect) and generating each class
costs a fresh process several milliseconds, more than a typical CLI query
spends computing, so the value types use this base instead.

A subclass declares its fields once, as ``__slots__ = _fields = (...)``,
and sets them in its own ``__init__`` with ``object.__setattr__``.  Two
records are equal when they are of the same class and their field tuples
are equal; the hash is the hash of the field tuple; repr reads
``QualName(field=value!r, ...)`` in field order.  Fields can be neither
assigned nor deleted, and instances have no ``__dict__``.
"""


class Record:
    __slots__ = ()
    _fields = ()

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

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

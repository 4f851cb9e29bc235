"""Frozen value types without ``dataclasses``.

A ``Value`` declares its fields as its ``__slots__``, in constructor order,
and writes its own ``__init__``.  It gets what a frozen dataclass gets:
``==`` field by field, the hash of the tuple of fields, a ``repr`` naming
each field, and pickling and copying through the constructor.  Assignment
raises ``dataclasses.FrozenInstanceError``, imported only then, so that a
fresh process loads neither ``dataclasses`` nor the ``inspect`` it imports.
"""

from __future__ import annotations


class Value:
    """A frozen record whose fields are its class's ``__slots__``.

    The descriptors, built on every builder call, store each field with
    ``object.__setattr__``; records built off those paths use ``_set``.  A
    class whose constructor takes other arguments overrides ``__reduce__``.
    """

    __slots__ = ()

    def _set(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._fields()

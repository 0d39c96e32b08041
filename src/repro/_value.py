"""Slotted value classes: what a dataclass gives a record, with no code generated
at import (defining a frozen dataclass compiles its methods, about 0.6 ms a class)."""

from __future__ import annotations


class Value:
    """Value equality, hashing, ``repr`` and pickling over ``__slots__``.

    A subclass names its fields in ``__slots__``, in the order its
    ``__init__`` takes them, and writes that ``__init__``.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

"""The one base of the package's value types.

This module imports nothing from ``cotor``, so ``f2`` (whose matrices
are records) and ``core`` both build on it; ``core`` re-exports
``Record``.
"""

from __future__ import annotations

from operator import attrgetter

_setattr = object.__setattr__


class Record:
    """Base of the value types: slotted, frozen records compared by field.

    A subclass names its fields in ``__slots__`` and sets them in its
    ``__init__``, which takes them in that order, through ``_setattr``
    (``object.__setattr__``), since assigning or deleting a field raises
    ``AttributeError``.  Two records are equal when they have the same
    class and equal fields, a record hashes as the tuple of its fields
    (``_fields``, read by one ``attrgetter`` per class), ``repr`` reads
    ``Name(field=value, ...)``, and ``copy`` and ``pickle`` rebuild a
    record through its ``__init__``.  A type that is compared or hashed
    on a hot path defines its own ``__eq__`` and ``__hash__`` by the same
    rule, which skip the call to the getter.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        if len(cls.__slots__) == 1:  # one name gets the value, not a tuple
            cls._fields = property(lambda self: (get(self),))
        else:
            cls._fields = property(get)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields == other._fields
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._fields

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

"""Value semantics shared by the package's value types."""

from __future__ import annotations

from operator import attrgetter


class Value:
    """Base of a slotted value type: two instances are equal when they are
    of the same class and their slot values are equal, and the hash is that
    of the tuple of slot values, both in ``__slots__`` order. A subclass
    that must be unhashable, as one whose instances change after they are
    built, sets ``__hash__ = None``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        if len(cls.__slots__) == 1:  # attrgetter of one name is no tuple
            one = get
            get = lambda obj: (one(obj),)  # noqa: E731
        # a staticmethod, since an attrgetter does not bind to instances
        cls._slot_values = staticmethod(get)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._slot_values(self) == self._slot_values(other)

    def __hash__(self) -> int:
        return hash(self._slot_values(self))


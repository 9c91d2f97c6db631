"""Value semantics shared by the package's value types, and the typed
reading of JSON values, which names the JSON path of a value it refuses."""

from __future__ import annotations

from operator import attrgetter

from .errors import UsageError


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


def json_int(value, path: str) -> int:
    """An integer read from JSON at ``path``: an int or a decimal string.
    Anything else is refused, a float or a bool too, since int() would
    truncate it or read it as 0 or 1 and so load a different code."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            raise UsageError(f"{path}: must be an integer, got a string "
                             "that is not a decimal integer") from None
    raise UsageError(f"{path}: must be an integer, got {_kind(value)}")


def json_of(value, kind: type, path: str):
    """The value at ``path``, refused unless it is a JSON object (``kind``
    dict) or list (``kind`` list)."""
    if not isinstance(value, kind):
        raise UsageError(f"{path}: must be {_KINDS[kind]}, "
                         f"got {_kind(value)}")
    return value


def json_at(obj: dict, key: str, kind: type, parent: str = ""):
    """obj[key], where obj is the object at path ``parent``: refused if
    missing, else read as an integer (``kind`` int, see :func:`json_int`)
    or as :func:`json_of` reads it."""
    path = f"{parent}.{key}" if parent else key
    if key not in obj:
        raise UsageError(f"{path}: missing")
    if kind is int:
        return json_int(obj[key], path)
    return json_of(obj[key], kind, path)


_KINDS = {dict: "an object", list: "a list", int: "an integer",
          str: "a string"}


def _kind(value) -> str:
    """The JSON type of a value, or the value itself where it is a
    constant or a float."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return _KINDS.get(type(value), type(value).__name__)

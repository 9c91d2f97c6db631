"""Reading code files: the typed reading of JSON values, which names the
JSON path of a value it refuses, and the code a file names, read
straight to element indices and handed to ``codes._span``.

Only the commands that read a code file, ``wd`` and ``dual``, load this
module. A file is read up to the larger of the guard and
``DEFAULT_GUARD`` characters, and an integer is refused past
``MAX_DIGITS`` characters, naming its path.
"""

from __future__ import annotations

import json
import sys

from .codes import LinearCode, _span
from .cost import DEFAULT_GUARD, check_guard, enumeration_guard
from .errors import HrmcError, MixedDimensions, UsageError, shown
from .fields import Field, make_field

# Python's default int-conversion limit, kept on every version as a cap
# on an integer's characters: a longer decimal costs quadratic time to
# convert.
MAX_DIGITS = 4300


class _LongInt(str):
    """The text of a JSON number of more than ``MAX_DIGITS`` characters,
    left unconverted for :func:`json_int` to read or refuse."""


def _parse_int(text: str):
    """The ``parse_int`` of the JSON parser."""
    return int(text) if len(text) <= MAX_DIGITS else _LongInt(text)


def json_int(value, path: str) -> int:
    """An integer read from JSON at ``path``: an int or a decimal string,
    of at most ``MAX_DIGITS`` characters. Anything else is refused, a float
    or a bool too, since int() would truncate it or read it as 0 or 1 and
    so load a different code."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        if len(value) > MAX_DIGITS:
            raise UsageError(f"{path}: integer of {len(value)} characters, "
                             f"more than {MAX_DIGITS}")
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
          _LongInt: "an integer", str: "a string"}


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


def field_from_jsonable(obj) -> Field:
    """The field a code file's ``field`` object names. A refusal names the
    JSON path of the bad value, for example ``field.modulus_poly[2]``; one
    of :func:`make_field`'s is prefixed ``field:``. A modulus coefficient
    outside 0..p-1 is refused, though :func:`make_field` takes it mod p,
    since it would load another field than the file names."""
    obj = json_of(obj, dict, "field")
    p = json_at(obj, "p", int, "field")
    m = json_at(obj, "m", int, "field")
    modulus = []
    for i, c in enumerate(json_at(obj, "modulus_poly", list, "field")):
        c = json_int(c, f"field.modulus_poly[{i}]")
        if not 0 <= c < p:
            raise UsageError(f"field.modulus_poly[{i}]: modulus coefficient "
                             f"{shown(c)} outside 0..{shown(p - 1)}")
        modulus.append(c)
    try:
        return make_field(p, m, modulus)
    except UsageError as exc:
        raise type(exc)(f"field: {exc}") from exc


def code_from_jsonable(obj) -> LinearCode:
    """The code a code file names, read straight to element indices: an
    object of ``field`` (see :func:`field_from_jsonable`), ``t`` and a
    list of ``generators``, each an object of its ``t``, equal to the
    code's, and ``rows``: t lists of t cells, each a list of at most 2m
    base-p digits, little-endian, padded with zero digits. Integers are
    read as :func:`json_int` reads them, other keys are ignored, and every
    refusal names the JSON path of the bad value, for example
    ``generators[3].rows[1][0][0]``."""
    obj = json_of(obj, dict, "top level")
    field = field_from_jsonable(json_at(obj, "field", dict))
    t = json_at(obj, "t", int)
    if t < 1:
        raise UsageError(f"t: must be positive, got {shown(t)}")
    p, width = field.p, 2 * field.m
    grids = []
    for n, gen in enumerate(json_at(obj, "generators", list)):
        at = f"generators[{n}]"
        gen = json_of(gen, dict, at)
        gen_t = json_at(gen, "t", int, at)
        if gen_t != t:
            raise MixedDimensions(
                f"{at}.t: {shown(gen_t)}, not the code's t = {shown(t)}")
        rows = json_at(gen, "rows", list, at)
        if len(rows) != t:
            raise UsageError(
                f"{at}.rows: {len(rows)} rows, not t = {shown(t)}")
        grid = []
        for i, row in enumerate(rows):
            at_row = f"{at}.rows[{i}]"
            if len(json_of(row, list, at_row)) != t:
                raise UsageError(
                    f"{at_row}: {len(row)} cells, not t = {shown(t)}")
            grid += [_cell_index(cell, p, width, f"{at_row}[{j}]")
                     for j, cell in enumerate(row)]
        grids.append(grid)
    return _span(field, t, grids, "rows")


def _cell_index(cell, p: int, width: int, path: str) -> int:
    """The element index of a cell at ``path``: a list of at most
    ``width`` base-p digits, little-endian, padded with zero digits."""
    if len(json_of(cell, list, path)) > width:
        raise UsageError(f"{path}: {len(cell)} digits, more than 2m = "
                         f"{width}")
    index = 0
    for d in reversed(range(len(cell))):
        digit = cell[d]
        if type(digit) is not int:  # build the path only where it may be named
            digit = json_int(digit, f"{path}[{d}]")
        if not 0 <= digit < p:
            raise UsageError(f"{path}[{d}]: entry digit {shown(digit)} "
                             f"outside 0..{p - 1}")
        index = index * p + digit
    return index


def read_code(path: str, guard: int | None = None) -> LinearCode:
    """The code in a JSON file. A refusal keeps the class it was raised
    with (``NotHermitian``, ``EnumerationTooLarge``, ...) and its message
    gains the path; a file that cannot be opened, decoded or parsed,
    nested too deeply to parse included, is a UsageError. A file may hold
    at most the guard or ``DEFAULT_GUARD`` characters, whichever is
    larger: a guard small enough for what a command enumerates still
    reads the file that names the code, and the reading of an endless
    file ends."""
    limit = max(enumeration_guard(guard), DEFAULT_GUARD)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read(min(limit, sys.maxsize - 1) + 1)
        check_guard(len(text), "characters of a code file", limit)
        return code_from_jsonable(json.loads(text, parse_int=_parse_int))
    except HrmcError as exc:  # before ValueError, which UsageError is
        exc.args = (f"cannot read code from {path}: {exc}",)
        raise
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"cannot read code from {path}: {exc}") from exc

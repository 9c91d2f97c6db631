"""Hermitian matrices over GF(q^2): the matrix type.

A t x t matrix H is Hermitian when H equals its conjugate transpose:
H[i][j] == conj(H[j][i]) for all i, j, which forces the diagonal into the
conjugation-fixed subfield. This module holds what codes are built from:
:class:`HermitianMatrix`, :func:`is_hermitian` and :func:`zero_matrix`.
The rank function, the canonical order of the whole space and its
enumeration are in :mod:`hrmc.hermitian_space`, which only the object
route (the tests, the acceptance checks and the public API) loads.
"""

from __future__ import annotations

from ._value import Value
from .errors import DimensionMismatch, NotHermitian, UsageError
from .fields import Field, FieldElement


class HermitianMatrix(Value):
    """t x t matrix over GF(q^2), compared and hashed by value, usable in
    sets; nothing in the package changes one after it is built."""

    __slots__ = ("field", "t", "entries")

    def __init__(self, field: Field, t: int,
                 entries: tuple[tuple[FieldElement, ...], ...]) -> None:
        self.field = field
        self.t = t
        self.entries = entries
        if t < 1:
            raise UsageError(f"matrix size must be positive, got t={t}")
        if len(entries) != t or any(len(r) != t for r in entries):
            raise UsageError("entries must form a t x t grid")
        for row in entries:
            for x in row:
                if x.field != field:
                    raise DimensionMismatch("entry from a different field")

    def __add__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        _check_compatible(self, other)
        rows = tuple(tuple(a + b for a, b in zip(ra, rb))
                     for ra, rb in zip(self.entries, other.entries))
        return HermitianMatrix(self.field, self.t, rows)

    def scale(self, c: FieldElement) -> "HermitianMatrix":
        """c times the matrix, for c in the conjugation-fixed subfield
        GF(q); any other c is refused with NotHermitian, as c H is then
        not Hermitian for H nonzero."""
        rows = tuple(tuple(c * a for a in r) for r in self.entries)
        if c.conj() != c:
            raise NotHermitian(f"cannot scale by {c!r}: it lies outside the "
                               f"conjugation-fixed subfield "
                               f"GF({self.field.q})")
        return HermitianMatrix(self.field, self.t, rows)

    def is_zero(self) -> bool:
        return all(x.index == 0 for row in self.entries for x in row)

    def to_jsonable(self) -> dict:
        return {"t": self.t,
                "rows": [[x.to_jsonable() for x in row] for row in self.entries]}


def zero_matrix(field: Field, t: int) -> HermitianMatrix:
    z = field.zero()
    return HermitianMatrix(field, t, tuple(tuple(z for _ in range(t))
                                           for _ in range(t)))


def _check_compatible(a: HermitianMatrix, b: HermitianMatrix) -> None:
    if a.t != b.t or a.field != b.field:
        raise DimensionMismatch(
            f"matrices of size {a.t}/{b.t} over different parameters")


def is_hermitian(m: HermitianMatrix) -> bool:
    return all(m.entries[i][j] == m.entries[j][i].conj()
               for i in range(m.t) for j in range(m.t))

"""Hermitian matrices over GF(q^2) and their rank function.

A t x t matrix H is Hermitian when H equals its conjugate transpose:
H[i][j] == conj(H[j][i]) for all i, j, which forces the diagonal into the
conjugation-fixed subfield. The rank metric on these matrices is the
ordinary rank over GF(q^2). :func:`rank` computes it for a
:class:`HermitianMatrix` by :func:`rank_of_rows`, an elimination on rows
of element indices through the field's own arithmetic. The enumeration
kernel ``codes.rank_counts`` ranks packed words with an elimination of
its own and does not call this one, so each can be tested against the
other.

:func:`hermitian_from_index` decodes one matrix of a fixed mixed-radix
order: the diagonal entries come first (base q, most significant first,
running through the subfield in canonical ascending order), then the
strictly upper entries row by row (base q^2 each).

Every exhaustive enumeration is refused up front when it would visit more
objects than the guard that :func:`enumeration_guard` resolves.
"""

from __future__ import annotations

import os
from typing import Iterator

from .errors import DimensionMismatch, EnumerationTooLarge, UsageError
from .fields import Field, FieldElement

DEFAULT_GUARD = 1 << 24


def enumeration_guard(guard: int | None = None) -> int:
    """Resolve the enumeration guard: explicit arg, else env, else default.

    Raises UsageError when HRMC_GUARD is not an integer or the guard is
    negative.
    """
    if guard is None:
        env = os.environ.get("HRMC_GUARD")
        try:
            guard = int(env) if env else DEFAULT_GUARD
        except ValueError:
            raise UsageError(f"HRMC_GUARD={env!r} is not an integer") from None
    if guard < 0:
        raise UsageError(f"the enumeration guard must be >= 0, got {guard}")
    return guard


def check_guard(count: int, what: str, guard: int | None = None) -> None:
    """Refuse an enumeration of ``count`` objects above the guard."""
    limit = enumeration_guard(guard)
    if count > limit:
        # str() refuses ints of over 4300 digits, so name a power of two
        shown = (count if count < 1 << 64
                 else f"at least 2^{count.bit_length() - 1}")
        raise EnumerationTooLarge(
            f"{shown} {what} exceed the enumeration guard {limit}")


class HermitianMatrix:
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

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.field, self.t, self.entries)
                == (other.field, other.t, other.entries))

    def __hash__(self) -> int:
        return hash((self.field, self.t, self.entries))

    def __add__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        _check_compatible(self, other)
        rows = tuple(tuple(a + b for a, b in zip(ra, rb))
                     for ra, rb in zip(self.entries, other.entries))
        return HermitianMatrix(self.field, self.t, rows)

    def __neg__(self) -> "HermitianMatrix":
        rows = tuple(tuple(-a for a in r) for r in self.entries)
        return HermitianMatrix(self.field, self.t, rows)

    def scale(self, c: FieldElement) -> "HermitianMatrix":
        rows = tuple(tuple(c * a for a in r) for r in self.entries)
        return HermitianMatrix(self.field, self.t, rows)

    def conj_transpose(self) -> "HermitianMatrix":
        rows = tuple(tuple(self.entries[j][i].conj() for j in range(self.t))
                     for i in range(self.t))
        return HermitianMatrix(self.field, self.t, rows)

    def is_zero(self) -> bool:
        return all(x.index == 0 for row in self.entries for x in row)

    def to_jsonable(self) -> dict:
        return {"t": self.t,
                "rows": [[x.to_jsonable() for x in row] for row in self.entries]}


def matrix_from_jsonable(field: Field, obj: dict) -> HermitianMatrix:
    t = int(obj["t"])
    rows = tuple(tuple(field.element([int(c) for c in cell]) for cell in row)
                 for row in obj["rows"])
    return HermitianMatrix(field, t, rows)


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


def rank_of_rows(field: Field, rows: list[list[int]]) -> int:
    """Rank over GF(q^2) of the matrix whose rows hold element indices.

    Gaussian elimination that reduces ``rows`` in place.
    """
    add, mul, neg, inv = field.add, field.mul, field.neg, field.inv
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        pivot = rows[i]
        rows[i] = rows[r]
        rows[r] = pivot
        scale = neg(inv(pivot[c]))
        for i in range(r + 1, nrows):
            row = rows[i]
            if row[c]:
                f = mul(row[c], scale)
                for j in range(c + 1, ncols):
                    if pivot[j]:
                        row[j] = add(row[j], mul(f, pivot[j]))
        r += 1
        if r == nrows:
            break
    return r


def rank(m: HermitianMatrix) -> int:
    """Rank over GF(q^2)."""
    return rank_of_rows(m.field, [[x.index for x in row] for row in m.entries])


def total_hermitian(field: Field, t: int) -> int:
    """q^(t^2): one subfield choice per diagonal slot, one full-field choice
    per strictly-upper slot."""
    return field.q ** (t * t)


def hermitian_from_index(field: Field, t: int, index: int) -> HermitianMatrix:
    """Decode the index into the canonical enumeration's index-th matrix."""
    if t < 1:
        raise UsageError(f"matrix size must be positive, got t={t}")
    if not 0 <= index < total_hermitian(field, t):
        raise UsageError(f"index {index} out of range")
    q = field.q
    order = field.order
    upper_slots = t * (t - 1) // 2
    # Peel digits least significant first: uppers in reverse row-major order,
    # then the diagonal in reverse.
    upper_digits = []
    for _ in range(upper_slots):
        upper_digits.append(index % order)
        index //= order
    upper_digits.reverse()
    diag_digits = []
    for _ in range(t):
        diag_digits.append(index % q)
        index //= q
    diag_digits.reverse()

    subfield = field.subfield_elements()
    grid = [[field.zero()] * t for _ in range(t)]
    for i in range(t):
        grid[i][i] = subfield[diag_digits[i]]
    k = 0
    for i in range(t):
        for j in range(i + 1, t):
            x = field.from_index(upper_digits[k])
            grid[i][j] = x
            grid[j][i] = x.conj()
            k += 1
    return HermitianMatrix(field, t, tuple(tuple(r) for r in grid))


def matrix_to_index(m: HermitianMatrix) -> int:
    """Inverse of :func:`hermitian_from_index` (the matrix must be Hermitian)."""
    field, t = m.field, m.t
    subfield_pos = {idx: pos for pos, idx in enumerate(field.subfield_indices())}
    index = 0
    for i in range(t):
        index = index * field.q + subfield_pos[m.entries[i][i].index]
    for i in range(t):
        for j in range(i + 1, t):
            index = index * field.order + m.entries[i][j].index
    return index


def enumerate_hermitian(field: Field, t: int,
                        guard: int | None = None) -> Iterator[HermitianMatrix]:
    """All Hermitian t x t matrices in canonical index order.

    Raises EnumerationTooLarge before yielding anything if the count
    q^(t^2) exceeds the guard.
    """
    total = total_hermitian(field, t)
    check_guard(total, "matrices", guard)
    for index in range(total):
        yield hermitian_from_index(field, t, index)


def inner_product(h: HermitianMatrix, j: HermitianMatrix) -> FieldElement:
    """Trace form <H, J> = Tr(conj_transpose(H) J); lands in the subfield."""
    _check_compatible(h, j)
    field = h.field
    acc = 0
    for a in range(h.t):
        for b in range(h.t):
            acc = field.add(acc, field.mul(
                field.conj_index(h.entries[a][b].index), j.entries[a][b].index))
    return field.from_index(acc)

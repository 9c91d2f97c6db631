"""The space of t x t Hermitian matrices as objects: rank, order, trace form.

The rank metric on Hermitian matrices is the ordinary rank over GF(q^2).
:func:`rank` computes it for a :class:`~hrmc.hermitian.HermitianMatrix`
by :func:`rank_of_rows`, an elimination on rows of element indices
through the field's own arithmetic. The enumeration kernel
``codes.rank_counts`` ranks packed words with an elimination of its own
and does not call this one, so each can be tested against the other.

:func:`hermitian_from_index` decodes one matrix of a fixed mixed-radix
order: the diagonal entries come first (base q, most significant first,
running through the subfield in canonical ascending order), then the
strictly upper entries row by row (base q^2 each).
"""

from __future__ import annotations

from typing import Iterator

from .cost import check_power_guard
from .errors import UsageError
from .fields import Field, FieldElement
from .hermitian import HermitianMatrix, _check_compatible


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


def enumerate_hermitian(field: Field, t: int,
                        guard: int | None = None) -> Iterator[HermitianMatrix]:
    """All Hermitian t x t matrices in canonical index order.

    Raises EnumerationTooLarge before yielding anything if the count
    q^(t^2) exceeds the guard.
    """
    check_power_guard(field.q, t * t, "matrices", guard)
    for index in range(total_hermitian(field, t)):
        yield hermitian_from_index(field, t, index)


def inner_product(h: HermitianMatrix, j: HermitianMatrix) -> FieldElement:
    """Trace form <H, J> = Tr(H^dagger J); lands in the subfield."""
    _check_compatible(h, j)
    field = h.field
    acc = 0
    for a in range(h.t):
        for b in range(h.t):
            acc = field.add(acc, field.mul(
                field.conj_index(h.entries[a][b].index), j.entries[a][b].index))
    return field.from_index(acc)

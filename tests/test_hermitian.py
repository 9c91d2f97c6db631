"""Hermitian matrices: predicate, rank, enumeration, trace form."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hrmc.codes import _Packing
from hrmc.errors import DimensionMismatch, EnumerationTooLarge
from hrmc.fields import make_field
from hrmc.hermitian import (
    HermitianMatrix,
    enumerate_hermitian,
    hermitian_from_index,
    inner_product,
    is_hermitian,
    matrix_from_jsonable,
    matrix_to_index,
    rank,
    rank_of_rows,
    total_hermitian,
    zero_matrix,
)
from hrmc.macwilliams import full_space_distribution
from hrmc.negq import NegQContext

CENSUS = {
    (2, 2): (1, 5, 10),
    (2, 3): (1, 21, 210, 280),
    (3, 2): (1, 20, 60),
}


def _mat(field, rows):
    return HermitianMatrix(field, len(rows),
                           tuple(tuple(field.from_index(x) for x in r)
                                 for r in rows))


@pytest.mark.parametrize("q,t", sorted(CENSUS))
def test_rank_census(fields, q, t):
    counts = [0] * (t + 1)
    for m in enumerate_hermitian(fields[q], t):
        counts[rank(m)] += 1
    assert tuple(counts) == CENSUS[(q, t)]
    assert tuple(counts) == full_space_distribution(NegQContext(q), t)


def test_every_enumerated_matrix_is_hermitian(fields):
    for m in enumerate_hermitian(fields[2], 3):
        assert is_hermitian(m)


def test_is_hermitian_rejects(fields):
    f4 = fields[2]
    bad = _mat(f4, [[0, 2], [2, 0]])  # needs conj(a) = 1 + a in the corner
    assert not is_hermitian(bad)
    good = _mat(f4, [[0, 2], [3, 0]])
    assert is_hermitian(good)


def _kernel_size(m):
    """|{v : m v = 0}| by trying every vector; sums are taken digitwise mod p
    on coefficient vectors, so nothing here is shared with the elimination."""
    field, t = m.field, m.t
    p = field.p
    size = 0
    for v in product(range(field.order), repeat=t):
        for row in m.entries:
            digits = [0] * (2 * field.m)
            for x, y in zip(row, v):
                term = field.from_index(field.mul(x.index, y)).coeffs
                digits = [(d + c) % p for d, c in zip(digits, term)]
            if any(digits):
                break
        else:
            size += 1
    return size


@pytest.mark.parametrize("q,t", [(2, 1), (2, 2), (2, 3), (3, 2), (4, 2)])
def test_rank_is_codimension_of_kernel(fields, q, t):
    """rank(H) = t - log_{q^2} |ker H| for every Hermitian H."""
    order = fields[q].order
    for m in enumerate_hermitian(fields[q], t):
        assert order ** (t - rank(m)) == _kernel_size(m)


# q -> (p, m) for every field the packed rank is compared on
PACKED_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1),
                 8: (2, 3), 9: (3, 2)}


@settings(max_examples=250, deadline=None)
@given(q=st.sampled_from(sorted(PACKED_FIELDS)), t=st.integers(1, 4),
       data=st.data())
def test_packed_rank_matches_elimination_and_kernel(q, t, data):
    """The enumeration kernel's packed rank equals rank_of_rows on any
    t x t matrix (Hermitian or not) and, where q^(2t) is small enough to
    try every vector, t - log_{q^2} |ker|. Rows are random combinations of
    r random rows, so every rank up to t turns up."""
    field = make_field(*PACKED_FIELDS[q])
    elements = st.integers(0, field.order - 1)
    r = data.draw(st.integers(0, t))
    spans = [data.draw(st.lists(elements, min_size=t, max_size=t))
             for _ in range(r)]
    rows = []
    for _ in range(t):
        row = [0] * t
        for span in spans:
            c = data.draw(elements)
            row = [field.add(x, field.mul(c, y)) for x, y in zip(row, span)]
        rows.append(row)
    pk = _Packing(field, t)
    got = pk.rank(pk.pack(x for row in rows for x in row))
    assert got == rank_of_rows(field, [row[:] for row in rows])
    if field.order ** t <= 4096:
        m = HermitianMatrix(field, t, tuple(
            tuple(field.from_index(x) for x in row) for row in rows))
        assert field.order ** (t - got) == _kernel_size(m)


def test_rank_spot_values(fields):
    f4 = fields[2]
    assert rank(zero_matrix(f4, 3)) == 0
    assert rank(_mat(f4, [[1, 0], [0, 1]])) == 2
    assert rank(_mat(f4, [[1, 0], [0, 0]])) == 1
    assert rank(_mat(f4, [[0, 2], [3, 0]])) == 2
    # two proportional columns
    assert rank(_mat(f4, [[1, 1], [1, 1]])) == 1


def test_enumeration_order_and_index(fields):
    f4 = fields[2]
    seen = list(enumerate_hermitian(f4, 2))
    assert len(seen) == total_hermitian(f4, 2) == 16
    assert len(set(seen)) == 16
    assert seen[0].is_zero()
    for i in (0, 1, 5, 15):
        assert seen[i] == hermitian_from_index(f4, 2, i)
        assert matrix_to_index(seen[i]) == i
    # least significant digit is the upper corner, most significant the
    # first diagonal entry
    assert seen[1].entries[0][1].index == 1
    assert seen[8].entries[0][0].index == 1


def test_enumeration_guard(fields):
    with pytest.raises(EnumerationTooLarge):
        list(enumerate_hermitian(fields[2], 3, guard=100))
    with pytest.raises(ValueError):
        hermitian_from_index(fields[2], 0, 0)


def test_inner_product_properties(fields):
    f4 = fields[2]
    mats = list(enumerate_hermitian(f4, 2))
    sub = set(f4.subfield_indices())
    for h in mats:
        for j in mats:
            v = inner_product(h, j)
            assert v.index in sub
            assert inner_product(j, h) == v
    h, j, k = mats[3], mats[7], mats[12]
    assert inner_product(h + j, k) == inner_product(h, k) + inner_product(j, k)
    for s in f4.subfield_elements():
        assert inner_product(h.scale(s), j) == s * inner_product(h, j)


def test_inner_product_dimension_mismatch(fields):
    with pytest.raises(DimensionMismatch):
        inner_product(zero_matrix(fields[2], 2), zero_matrix(fields[2], 3))
    with pytest.raises(DimensionMismatch):
        inner_product(zero_matrix(fields[2], 2), zero_matrix(fields[3], 2))


def test_matrix_json_roundtrip(fields):
    f4 = fields[2]
    m = hermitian_from_index(f4, 3, 123)
    assert matrix_from_jsonable(f4, m.to_jsonable()) == m


def test_rejects_zero_size(fields):
    with pytest.raises(ValueError):
        zero_matrix(fields[2], 0)

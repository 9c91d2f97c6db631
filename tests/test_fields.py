"""Field construction, arithmetic axioms, and the conjugation."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from hrmc.errors import (
    DivisionByZero,
    FieldMismatch,
    NonPrimeModulus,
    ReducibleModulus,
    UnsupportedSize,
)
from hrmc.fields import (
    _DEFAULT_MODULI,
    _smallest_irreducible,
    arith,
    conj,
    field_from_jsonable,
    make_field,
)

SMALL = [(2, 1), (3, 1), (2, 2)]                      # order <= 16, exhaustive
MEDIUM = SMALL + [(5, 1), (7, 1), (2, 3), (3, 2),     # order <= 256
                  (11, 1), (13, 1), (2, 4)]


@pytest.mark.parametrize("p,m", SMALL)
def test_axioms_exhaustive(p, m):
    f = make_field(p, m)
    n = f.order
    for a in range(n):
        for b in range(n):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in range(n):
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("p,m", MEDIUM)
def test_zech_addition_matches_digits(p, m):
    """add, neg and sub through the Zech table equal digitwise mod-p
    arithmetic on the coefficient vectors, for every pair."""
    f = make_field(p, m)
    elements = list(f.elements())
    index_of = {x.coeffs: x.index for x in elements}
    for x in elements:
        assert f.neg(x.index) == index_of[tuple((-c) % p for c in x.coeffs)]
        for y in elements:
            total = tuple((c + d) % p for c, d in zip(x.coeffs, y.coeffs))
            diff = tuple((c - d) % p for c, d in zip(x.coeffs, y.coeffs))
            assert f.add(x.index, y.index) == index_of[total]
            assert f.sub(x.index, y.index) == index_of[diff]


@pytest.mark.parametrize("p,m", MEDIUM)
def test_inverses(p, m):
    f = make_field(p, m)
    for a in range(1, f.order):
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(DivisionByZero):
        f.inv(0)


@pytest.mark.parametrize("p,m", MEDIUM)
def test_conjugation_is_field_automorphism(p, m):
    f = make_field(p, m)
    n = f.order
    for a in range(n):
        assert f.conj_index(f.conj_index(a)) == a
    for a in range(0, n, max(1, n // 50)):
        for b in range(n):
            assert f.conj_index(f.add(a, b)) == f.add(f.conj_index(a),
                                                      f.conj_index(b))
            assert f.conj_index(f.mul(a, b)) == f.mul(f.conj_index(a),
                                                      f.conj_index(b))


@pytest.mark.parametrize("p,m", MEDIUM)
def test_conjugation_fixes_exactly_q_elements(p, m):
    f = make_field(p, m)
    fixed = [a for a in range(f.order) if f.conj_index(a) == a]
    assert len(fixed) == f.q
    assert tuple(fixed) == f.subfield_indices()
    # the fixed set is closed under the field operations
    s = set(fixed)
    for a in fixed:
        for b in fixed:
            assert f.add(a, b) in s
            assert f.mul(a, b) in s


def test_gf4_layout():
    """Pin the concrete GF(4) representation the rest of the suite uses."""
    f = make_field(2, 1)
    assert f.modulus_poly == (1, 1, 1)
    a = f.from_index(2)
    assert (a * a).index == 3          # a^2 = 1 + a
    assert a.conj().index == 3         # conj(a) = a^2
    assert f.subfield_indices() == (0, 1)


def test_element_coeffs_roundtrip():
    f = make_field(3, 1)
    for i in range(f.order):
        x = f.from_index(i)
        assert f.element(x.coeffs).index == i
    assert f.element([2, 1]).coeffs == (2, 1)
    assert f.element([5, 4]).index == f.element([2, 1]).index  # reduced mod p


def test_arith_dispatch():
    f = make_field(2, 1)
    x, y = f.from_index(2), f.from_index(3)
    assert arith("add", x, y) == x + y
    assert arith("sub", x, y) == x - y
    assert arith("mul", x, y) == x * y
    assert arith("div", x, y) == x / y
    assert arith("neg", x) == -x
    assert arith("inv", x) == x.inv()
    assert arith("conj", x) == conj(x)
    with pytest.raises(ValueError):
        arith("xor", x, y)
    with pytest.raises(ValueError):
        arith("add", x)


def test_field_mismatch():
    x = make_field(2, 1).from_index(1)
    y = make_field(3, 1).from_index(1)
    with pytest.raises(FieldMismatch):
        _ = x + y


def test_construction_errors():
    with pytest.raises(NonPrimeModulus):
        make_field(4, 1)
    with pytest.raises(NonPrimeModulus):
        make_field(1, 1)
    with pytest.raises(ReducibleModulus):
        make_field(2, 1, [1, 0, 1])  # z^2 + 1 = (z + 1)^2 over GF(2)
    with pytest.raises(UnsupportedSize):
        make_field(2, 5)             # degree 10 extension
    with pytest.raises(UnsupportedSize):
        make_field(17, 2)            # order 17^4 > 2^16
    with pytest.raises(ValueError):
        make_field(2, 1, [1, 1])     # not degree 2m
    with pytest.raises(ValueError):
        make_field(2, 1, [1, 1, 0])  # not monic


def test_default_moduli_match_search():
    for (p, m), poly in _DEFAULT_MODULI.items():
        assert poly == _smallest_irreducible(p, 2 * m)


def test_json_roundtrip():
    f = make_field(3, 1)
    again = field_from_jsonable(f.to_jsonable())
    assert again == f
    assert again is f  # cached
    # pickling (as for --workers tasks) also goes through the cache
    assert pickle.loads(pickle.dumps(f)) is f


def test_pow_matches_repeated_multiplication():
    f = make_field(2, 2)
    for a in range(f.order):
        acc = 1
        for e in range(8):
            assert f.pow(a, e) == acc
            acc = f.mul(acc, a)


@settings(max_examples=200, deadline=None)
@given(a=st.integers(0, 80), b=st.integers(0, 80), c=st.integers(0, 80))
def test_axioms_sampled_gf81(a, b, c):
    f = make_field(3, 2)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.conj_index(f.mul(a, b)) == f.mul(f.conj_index(a), f.conj_index(b))

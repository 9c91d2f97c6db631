"""Field construction, arithmetic axioms, and the conjugation."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from hrmc.codefile import field_from_jsonable
from hrmc.cost import prime_factors
from hrmc.errors import (
    DivisionByZero,
    FieldMismatch,
    NonPrimeModulus,
    ReducibleModulus,
    UnsupportedSize,
    UsageError,
)
from hrmc.fields import (
    _int_to_poly,
    _poly_mod,
    _poly_mul,
    _smallest_irreducible,
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


def _reference_tables(p, m):
    """exp, log and zech built one polynomial product at a time: the
    generator is the first index above 1 that passes the order test, and
    exp[i] is exp[i - 1] times it, reduced by the default modulus."""
    modulus = _smallest_irreducible(p, 2 * m)
    order = p ** (2 * m)
    n = order - 1

    def mul(a, b):
        prod = _poly_mod(_poly_mul(_int_to_poly(a, p), _int_to_poly(b, p), p),
                         modulus, p)
        return sum(c * p ** i for i, c in enumerate(prod))

    def power(a, e):
        acc = 1
        while e:
            if e & 1:
                acc = mul(acc, a)
            a, e = mul(a, a), e >> 1
        return acc

    gen = next(g for g in range(2, order)
               if all(power(g, n // f) != 1 for f in prime_factors(n)))
    exp = [1]
    while len(exp) < n:
        exp.append(mul(exp[-1], gen))
    log = [0] * order
    for i, v in enumerate(exp):
        log[v] = i
    zech = []
    for v in exp:  # v + 1, adding 1 to the constant digit mod p
        s = v - (p - 1) if v % p == p - 1 else v + 1
        zech.append(log[s] if s else -1)
    return exp, log, zech


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1),
                                 (3, 2), (3, 3), (5, 1), (5, 2), (7, 1),
                                 (13, 1), (251, 1)])
def test_tables_match_one_product_per_power(p, m):
    f = make_field(p, m)
    exp, log, zech = _reference_tables(p, m)
    assert f._exp == exp
    assert f._log == log
    assert f._zech == zech
    assert f._neg_one == log[p - 1]


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


@pytest.mark.parametrize("p,m", SMALL)
def test_element_operators_act_on_indices(p, m):
    """Each FieldElement operator is the field's index arithmetic, for
    every pair: + - * / and unary -, .inv() and .conj()."""
    f = make_field(p, m)
    for x in f.elements():
        a = x.index
        assert (-x).index == f.neg(a)
        assert x.conj().index == f.conj_index(a)
        if a:
            assert x.inv().index == f.inv(a)
        for y in f.elements():
            b = y.index
            assert (x + y).index == f.add(a, b)
            assert (x - y).index == f.sub(a, b)
            assert (x * y).index == f.mul(a, b)
            if b:
                assert (x / y).index == f.mul(a, f.inv(b))
                assert (x / y) * y == x


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
    # code files and the bench's reference digests depend on these moduli
    moduli = {
        (2, 1): (1, 1, 1),                # z^2 + z + 1
        (3, 1): (1, 0, 1),                # z^2 + 1
        (2, 2): (1, 1, 0, 0, 1),          # z^4 + z + 1
        (5, 1): (2, 0, 1),                # z^2 + 2
        (7, 1): (1, 0, 1),                # z^2 + 1
    }
    for (p, m), poly in moduli.items():
        assert _smallest_irreducible(p, 2 * m) == poly
        assert make_field(p, m).modulus_poly == poly


def test_json_roundtrip():
    f = make_field(3, 1)
    again = field_from_jsonable(f.to_jsonable())
    assert again == f
    assert again is f  # cached
    # unpickling also goes through the cache
    assert pickle.loads(pickle.dumps(f)) is f


def test_code_file_field_refuses_what_make_field_takes_mod_p():
    """A code file's modulus coefficient outside 0..p-1 is refused at its
    JSON path (tests/test_cli.py runs the other refusals through wd),
    while make_field and Field.element, the library calls, still take
    every digit mod p."""
    with pytest.raises(UsageError, match=r"^field\.modulus_poly\[0\]: "):
        field_from_jsonable({"p": 2, "m": 1, "modulus_poly": [3, 1, 1]})
    f4 = make_field(2, 1)
    assert make_field(2, 1, [3, 1, 1]) is make_field(2, 1, [1, -1, 1]) is f4
    assert f4.element([5, 0]) == f4.element([1]) == f4.one()


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

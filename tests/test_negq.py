"""Base -q combinatorics: spot values, identities, inversion."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hrmc.errors import EnumerationTooLarge, LengthMismatch, UsageError
from hrmc.negq import (
    NegQContext,
    beta_fn,
    gamma_ext,
    gamma_fn,
    gauss,
    gauss_ext,
    prime_factors,
    sequence_forward,
    sequence_inversion,
    triangle,
    xi,
)

CTX2, CTX3, CTX4 = NegQContext(2), NegQContext(3), NegQContext(4)


def test_context_validation():
    for q in (2, 3, 4, 5, 8, 9, 16):
        assert NegQContext(q).b == -q
    for q in (0, 1, 6, 10, 12):
        with pytest.raises(ValueError):
            NegQContext(q)
    assert [NegQContext(q).prime_parts for q in (2, 4, 9, 27, 49)] \
        == [(2, 1), (2, 2), (3, 2), (3, 3), (7, 2)]
    # the largest exact root decides, with trial division only up to its
    # square root: 46339 divisions for (2^31 - 1)^2
    assert [NegQContext(q).prime_parts
            for q in (2 ** 64, 3 ** 40, 2 ** 31 - 1, (2 ** 31 - 1) ** 2)] \
        == [(2, 64), (3, 40), (2 ** 31 - 1, 1), (2 ** 31 - 1, 2)]
    NegQContext((2 ** 31 - 1) ** 2, guard=46339)
    with pytest.raises(EnumerationTooLarge, match="^46339 trial divisions"):
        NegQContext((2 ** 31 - 1) ** 2, guard=46338)
    for q in range(-3, 5000):
        if len(prime_factors(q)) == 1:
            p, m = NegQContext(q).prime_parts
            assert [p] == prime_factors(q) and p ** m == q
        else:
            with pytest.raises(UsageError):
                NegQContext(q)


def test_prime_factors_match_trial_division():
    primes = [p for p in range(2, 500) if all(p % d for d in range(2, p))]
    for n in range(-3, 500):
        expected = [p for p in primes if n > 0 and n % p == 0]
        assert prime_factors(n) == expected, n


def test_gauss_spot_values():
    assert gauss(CTX2, 0, 0) == 1
    assert gauss(CTX2, 2, 1) == -1
    assert gauss(CTX2, 3, 1) == 3
    assert gauss(CTX2, 3, 2) == 3
    assert gauss(CTX3, 2, 1) == -2
    assert gauss(CTX3, 3, 1) == 7
    assert gauss(CTX4, 2, 1) == -3


def test_gauss_edge_cases():
    for ctx in (CTX2, CTX3, CTX4):
        for x in range(6):
            assert gauss(ctx, x, 0) == 1
            assert gauss(ctx, x, -1) == 0
            assert gauss(ctx, x, -5) == 0
            for k in range(x + 1, x + 4):
                assert gauss(ctx, x, k) == 0  # vanishes past the top
    with pytest.raises(ValueError):
        gauss(CTX2, -1, 1)


def test_gamma_spot_values():
    assert gamma_fn(CTX2, 3, 1) == 7
    assert gamma_fn(CTX2, 3, 2) == 70
    for ctx in (CTX2, CTX3):
        for x in range(5):
            assert gamma_fn(ctx, x, 0) == 1
            assert gamma_fn(ctx, x, -3) == 1


def test_beta_short_circuits_instead_of_recursing_negative():
    assert beta_fn(CTX2, 2, 5) == 0
    assert beta_fn(CTX2, 0, 1) == 0
    assert beta_fn(CTX2, 3, 2) == gauss(CTX2, 3, 1) * gauss(CTX2, 2, 1)


@pytest.mark.parametrize("ctx", [CTX2, CTX3, CTX4])
def test_xi_against_plain_q_product(ctx):
    """Cross-check the signed closed form against the classical product
    formula written directly in powers of q."""
    from fractions import Fraction
    q = ctx.q
    for t in range(6):
        total = 0
        for h in range(t + 1):
            num = Fraction(q) ** triangle(h)
            for i in range(h):
                num *= q ** (2 * t - 2 * i) - 1
            den = 1
            for i in range(1, h + 1):
                den *= q ** i - (-1) ** i
            classical = num / den
            assert classical.denominator == 1
            assert xi(ctx, t, h) == classical
            total += xi(ctx, t, h)
        assert total == q ** (t * t)


@pytest.mark.parametrize("ctx", [CTX2, CTX3, CTX4])
def test_pascal_all_five_forms(ctx):
    b = ctx.b
    for x in range(1, 13):
        for k in range(x + 1):
            g = gauss(ctx, x, k)
            assert g == gauss(ctx, x - 1, k) + b ** (x - k) * gauss(ctx, x - 1, k - 1)
            assert g == gauss(ctx, x - 1, k - 1) + b ** k * gauss(ctx, x - 1, k)
            if k >= 1:
                assert g * (b ** k - 1) == (b ** (x - k + 1) - 1) * gauss(ctx, x, k - 1)
                assert g * (b ** k - 1) == (b ** x - 1) * gauss(ctx, x - 1, k - 1)
            if k <= x - 1:
                assert g * (b ** (x - k) - 1) == (b ** x - 1) * gauss(ctx, x - 1, k)


@settings(max_examples=150, deadline=None)
@given(q=st.sampled_from([2, 3, 4]), x=st.integers(0, 12), data=st.data())
def test_symmetry_and_exchange(q, x, data):
    ctx = NegQContext(q)
    k = data.draw(st.integers(0, x), label="k")
    i = data.draw(st.integers(0, x - k), label="i")
    assert gauss(ctx, x, k) == gauss(ctx, x, x - k)
    assert (gauss(ctx, x, i) * gauss(ctx, x - i, k)
            == gauss(ctx, x, k) * gauss(ctx, x - k, i))


def _gauss_reference(q, x, k):
    """prod_{i<k} (b^x - b^i) / (b^k - b^i) over Fractions; 0 for k < 0."""
    if k < 0:
        return Fraction(0)
    b = Fraction(-q)
    out = Fraction(1)
    for i in range(k):
        out *= (b ** x - b ** i) / (b ** k - b ** i)
    return out


def _gamma_reference(q, x, k):
    """prod_{i<k} (-b^x - b^i) over Fractions; 1 for k <= 0."""
    b = Fraction(-q)
    out = Fraction(1)
    for i in range(k):
        out *= -(b ** x) - b ** i
    return out


@settings(max_examples=300, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 5]), x=st.integers(-6, 14),
       k=st.integers(-1, 14))
def test_extended_products_match_fraction_reference(q, x, k):
    """The Gaussian and gamma rows (x >= 0) and the int
    numerator/denominator accumulation (x < 0) equal the defining Fraction
    product; whole values come back as ints."""
    ctx = NegQContext(q)
    for got, want in ((gauss_ext(ctx, x, k), _gauss_reference(q, x, k)),
                      (gamma_ext(ctx, x, k), _gamma_reference(q, x, k))):
        assert got == want
        assert isinstance(got, int) == (want.denominator == 1)
    if x >= 0:
        assert gauss(ctx, x, k) == gauss_ext(ctx, x, k)
        assert gamma_fn(ctx, x, k) == gamma_ext(ctx, x, k)
    else:
        with pytest.raises(UsageError):
            gauss(ctx, x, k)
        with pytest.raises(UsageError):
            gamma_fn(ctx, x, k)


def test_inversion_roundtrip_explicit():
    seq = [3, -1, 4, 1, -5]
    fwd = sequence_forward(CTX2, 4, seq)
    assert sequence_inversion(CTX2, 4, fwd) == seq


@settings(max_examples=100, deadline=None)
@given(q=st.sampled_from([2, 3]),
       seq=st.lists(st.integers(-50, 50), min_size=1, max_size=7))
def test_inversion_roundtrip(q, seq):
    ctx = NegQContext(q)
    ell = len(seq) - 1
    assert sequence_inversion(ctx, ell, sequence_forward(ctx, ell, seq)) == seq


def test_inversion_length_mismatch():
    with pytest.raises(LengthMismatch):
        sequence_inversion(CTX2, 3, [1, 2])
    with pytest.raises(LengthMismatch):
        sequence_forward(CTX2, 1, [1, 2, 3])

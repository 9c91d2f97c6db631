"""The twisted product, powers, transforms, and both derivative kinds."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from hrmc.errors import ContextMismatch, NonIntegralResult
from hrmc import polynomials
from hrmc.negq import NegQContext, beta_fn
from hrmc.polynomials import (
    ConcretePoly,
    LambdaPoly,
    concretize,
    evaluate,
    mu_poly,
    negq_derivative,
    negq_inv_derivative,
    negq_power,
    negq_product,
    negq_transform,
    nu_poly,
    one_poly,
    poly_from_jsonable,
    shift_lambda,
)
from hrmc.verify import (
    mu_power_coeff,
    nu_power_coeff,
    polys_equal,
    random_lambda_poly,
)

CTX2, CTX3 = NegQContext(2), NegQContext(3)


def test_mu_seed_values():
    mu = mu_poly(CTX2)
    assert concretize(mu, 3).coefficients == (1, 7)
    assert concretize(mu, 0).coefficients == (1, -2)
    assert concretize(mu, 1).coefficients == (1, 1)
    # negative parameter gives an exact rational, not an error
    assert mu.coefficient(1, -1) == Fraction(-1, 2)


def test_nu_squared():
    nu2 = negq_power(nu_poly(CTX2), 2)
    assert concretize(nu2, 0).coefficients == (1, 1, -2)
    assert concretize(nu2, 5).coefficients == (1, 1, -2)  # parameter-free


def test_mu_cube_at_three_is_census_row():
    mu3 = negq_power(mu_poly(CTX2), 3)
    assert concretize(mu3, 3).coefficients == (1, 21, 210, 280)


@pytest.mark.parametrize("ctx", [CTX2, CTX3])
@pytest.mark.parametrize("k", range(7))
def test_power_closed_forms(ctx, k):
    mu_k = negq_power(mu_poly(ctx), k)
    nu_k = negq_power(nu_poly(ctx), k)
    for lam in range(-3, 9):
        for u in range(k + 1):
            assert mu_k.coefficient(u, lam) == mu_power_coeff(ctx, k, u, lam)
            assert nu_k.coefficient(u, lam) == nu_power_coeff(ctx, k, u)


def test_identity_element():
    one = one_poly(CTX2)
    f = random_lambda_poly(CTX2, random.Random(1), 3)
    assert polys_equal(negq_product(one, f), f)
    assert polys_equal(negq_product(f, one), f)


def test_associativity_sampled():
    rng = random.Random(42)
    for _ in range(10):
        f = random_lambda_poly(CTX2, rng, rng.randint(0, 3))
        g = random_lambda_poly(CTX2, rng, rng.randint(0, 3))
        h = random_lambda_poly(CTX2, rng, rng.randint(0, 3))
        left = negq_product(negq_product(f, g), h)
        right = negq_product(f, negq_product(g, h))
        assert polys_equal(left, right)


def test_product_is_not_commutative():
    mu, nu = mu_poly(CTX2), nu_poly(CTX2)
    assert not polys_equal(negq_product(mu, nu), negq_product(nu, mu))


def test_context_mismatch():
    with pytest.raises(ContextMismatch):
        negq_product(mu_poly(CTX2), mu_poly(CTX3))


def test_transform_shape(example_code):
    image = negq_transform([1, 0, 3, 4], nu_poly(CTX2), mu_poly(CTX2))
    frozen = concretize(image, 3)
    assert frozen.degree == 3
    assert [c % 8 for c in frozen.coefficients] == [0, 0, 0, 0]
    assert tuple(c // 8 for c in frozen.coefficients) == (1, 3, 24, 36)


@pytest.mark.parametrize("t", [1, 5, 12])
def test_transform_shares_power_chains(monkeypatch, t):
    """t + 1 nonzero counts take at most 3t + 1 twisted products (two
    shared power chains of t products each, one product per term), and
    give the same coefficients as a fresh pair of powers per term."""
    counts = list(range(1, t + 2))
    nu, mu = nu_poly(CTX3), mu_poly(CTX3)
    calls = []
    real_product = polynomials.negq_product

    def counting_product(a, b):
        calls.append((a.degree, b.degree))
        return real_product(a, b)

    monkeypatch.setattr(polynomials, "negq_product", counting_product)
    image = negq_transform(counts, nu, mu)
    got = [[image.coefficient(u, lam) for u in range(t + 1)]
           for lam in (t, 1, -1)]
    assert len(calls) <= 3 * t + 1
    monkeypatch.undo()
    if t <= 5:
        terms = [(c, negq_product(negq_power(nu, i), negq_power(mu, t - i)))
                 for i, c in enumerate(counts)]
        assert got == [[sum(c * term.coefficient(u, lam) for c, term in terms)
                        for u in range(t + 1)] for lam in (t, 1, -1)]


def _counting_coeff(calls, tag):
    def coeff(i, lam):
        calls[tag, lam] += 1
        return i * lam + 1
    return coeff


def test_rows_are_computed_once_per_lambda():
    """A polynomial fills its row at a lambda once: a user coefficient
    function is called degree + 1 times per distinct lambda however often
    coefficient and concretize read it, and a twisted product computes
    each operand row it needs once per lambda, sharing rows between the
    lambdas it is read at."""
    calls = Counter()
    f = LambdaPoly(CTX3, 3, _counting_coeff(calls, "f"))
    for _ in range(3):
        for lam in (0, 2, -1):
            assert concretize(f, lam).coefficients == tuple(
                i * lam + 1 for i in range(4))
            assert [f.coefficient(i, lam) for i in range(-1, 5)] \
                == [0] + [i * lam + 1 for i in range(4)] + [0]
    assert calls == {("f", lam): 4 for lam in (0, 2, -1)}

    calls.clear()
    a = LambdaPoly(CTX3, 2, _counting_coeff(calls, "a"))
    b = LambdaPoly(CTX3, 3, _counting_coeff(calls, "b"))
    prod = negq_product(a, b)
    for _ in range(2):
        for lam in (5, 6):
            frozen = concretize(prod, lam)
            assert [prod.coefficient(u, lam) for u in range(6)] \
                == list(frozen.coefficients)
            assert prod.row(lam) is prod.row(lam)
    # row lam of the product reads a at lam and b at lam, lam-1, lam-2
    assert calls == {**{("a", lam): 3 for lam in (5, 6)},
                     **{("b", lam): 4 for lam in (3, 4, 5, 6)}}
    assert f.coeff(2, 3) == 7 and prod.coeff(1, 5) == prod.coefficient(1, 5)


def test_derivative_reduces_powers():
    for ctx in (CTX2, CTX3):
        for k in range(6):
            for phi in range(6):
                expect_mu = negq_power(mu_poly(ctx), k - phi) if phi <= k else None
                got = negq_derivative(negq_power(mu_poly(ctx), k), phi)
                if phi > k:
                    assert all(got.coefficient(i, lam) == 0
                               for i in range(got.degree + 1)
                               for lam in range(-2, 6))
                else:
                    scale = beta_fn(ctx, k, phi)
                    for lam in range(-2, 6):
                        for i in range(k - phi + 1):
                            assert got.coefficient(i, lam) \
                                == scale * expect_mu.coefficient(i, lam)
                got_nu = negq_derivative(negq_power(nu_poly(ctx), k), phi)
                if phi <= k:
                    scale = beta_fn(ctx, k, phi)
                    expect_nu = negq_power(nu_poly(ctx), k - phi)
                    for i in range(k - phi + 1):
                        assert got_nu.coefficient(i, 0) \
                            == scale * expect_nu.coefficient(i, 0)


def test_inverse_derivative_is_legitimately_rational():
    """One reciprocal-base derivative of Y^2 has coefficient 1/2 at q=2;
    the twist power b^(phi(1-i)) brings in genuine denominators."""
    y_squared = LambdaPoly(CTX2, 2, lambda i, lam: 1 if i == 2 else 0)
    d = negq_inv_derivative(y_squared, 1)
    assert d.degree == 1
    assert d.coefficient(1, 0) == Fraction(1, 2)
    assert d.coefficient(0, 0) == 0


def test_inverse_derivative_power_rules():
    """mu powers differentiate to scaled, parameter-shifted lower powers; nu
    powers stay integral with an alternating sign."""
    from hrmc.negq import bpow, gamma_ext, triangle
    for ctx in (CTX2, CTX3):
        for k in range(6):
            for phi in range(k + 1):
                got = negq_inv_derivative(negq_power(mu_poly(ctx), k), phi)
                base = shift_lambda(negq_power(mu_poly(ctx), k - phi), phi)
                for lam in range(-2, 7):
                    scale = (bpow(ctx, -triangle(phi)) * beta_fn(ctx, k, phi)
                             * gamma_ext(ctx, lam, phi))
                    for i in range(k - phi + 1):
                        assert got.coefficient(i, lam) \
                            == scale * base.coefficient(i, lam)
                got_nu = negq_inv_derivative(negq_power(nu_poly(ctx), k), phi)
                expect = negq_power(nu_poly(ctx), k - phi)
                sign = (-1) ** phi * beta_fn(ctx, k, phi)
                for i in range(k - phi + 1):
                    assert got_nu.coefficient(i, 0) == sign * expect.coefficient(i, 0)


def test_evaluate_matches_coefficients():
    f = random_lambda_poly(CTX2, random.Random(9), 3)
    for lam in range(-2, 5):
        frozen = concretize(f, lam)
        for x, y in [(1, 1), (2, -1), (-3, 5)]:
            assert evaluate(f, x, y, lam) == frozen.evaluate(x, y)


def test_concrete_poly_json():
    p = ConcretePoly(CTX2, 2, (1, -7, 40))
    assert poly_from_jsonable(CTX2, p.to_jsonable()) == p
    bad = ConcretePoly(CTX2, 1, (1, Fraction(1, 2)))
    with pytest.raises(NonIntegralResult):
        bad.to_jsonable()


def test_transform_rejects_bad_substituends():
    with pytest.raises(ValueError):
        negq_transform([1, 1], negq_power(nu_poly(CTX2), 2), mu_poly(CTX2))
    with pytest.raises(ValueError):
        negq_transform([], nu_poly(CTX2), mu_poly(CTX2))

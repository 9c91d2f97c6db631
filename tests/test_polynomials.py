"""The twisted product, powers, transforms, and both derivative kinds."""

import random
import sys
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest

from hrmc.errors import ContextMismatch, NonIntegralResult, UsageError
from hrmc import polynomials, verify
from hrmc.negq import NegQContext, beta_fn, triangle
from hrmc.polynomials import (
    ConcretePoly,
    LambdaPoly,
    concretize,
    div_x,
    div_y,
    evaluate,
    mu_poly,
    negq_derivative,
    negq_inv_derivative,
    negq_power,
    negq_product,
    negq_transform,
    nu_poly,
    one_poly,
    poly_add,
    poly_from_jsonable,
    poly_scale,
    scale_y,
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
    # a row divided out of b^2 is memoised like any other
    assert mu.row(-2) == (1, Fraction(-5, 4)) and mu.row(-2) is mu.row(-2)


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


@pytest.mark.parametrize("ctx", [CTX2, CTX3])
def test_nu_power_holds_one_row(ctx):
    """nu and its powers do not depend on lambda, so a power memoises one
    row, whatever lambdas it is read at, and each link of its chain holds
    one too."""
    for k in (0, 1, 4, 7):
        nu_k = negq_power(nu_poly(ctx), k)
        for lam in (0, 5, -3, 11):
            assert nu_k.row(lam) == tuple(nu_power_coeff(ctx, k, u)
                                          for u in range(k + 1))
        assert len(nu_k._rows) == 1


def test_lambda_free_is_set_by_construction():
    """Constants, nu and what the combinators build from them alone are
    lambda-free; a polynomial given by a coefficient function never is,
    even when its coefficients ignore lambda."""
    nu, mu = nu_poly(CTX2), mu_poly(CTX2)
    free = [one_poly(CTX2), nu, negq_power(nu, 3), shift_lambda(nu, 2),
            polynomials.poly_add(nu, one_poly(CTX2)),
            polynomials.poly_scale(nu, 3), negq_derivative(negq_power(nu, 2), 1),
            negq_transform([1, 2], nu, nu)]
    assert all(p._free for p in free)
    user = LambdaPoly(CTX2, 1, lambda i, lam: (1, -1)[i])
    dependent = [mu, user, negq_product(nu, mu), negq_product(user, nu),
                 polynomials.poly_add(nu, mu), negq_transform([1, 2], nu, mu)]
    assert not any(p._free for p in dependent)
    for lam in (0, 3):
        user.row(lam)
    assert len(user._rows) == 2


def test_transform_sweep_matches_fresh_powers_at_any_lambda():
    """The sweep drops each link of the mu chain once the next has read
    it; rows read at several lambdas, in any order, and again after, match
    powers built fresh for each term, zero counts included."""
    counts = [3, 0, 0, 5, 0, 2, 0]
    t = len(counts) - 1
    image = negq_transform(counts, nu_poly(CTX3), mu_poly(CTX3))
    nu, mu = nu_poly(CTX3), mu_poly(CTX3)
    terms = [(c, negq_product(negq_power(nu, i), negq_power(mu, t - i)))
             for i, c in enumerate(counts)]
    for lam in (t, -2, 1, t + 3, t):
        assert list(image.row(lam)) == [
            sum(c * term.coefficient(u, lam) for c, term in terms)
            for u in range(t + 1)]


def test_no_suite_polynomial_row_holds_a_float(monkeypatch):
    """Every row that the polynomial suites of verify compute is exact:
    ints and Fractions, never a float."""
    floats = []
    real_row = LambdaPoly.row

    def checked_row(self, lam):
        row = real_row(self, lam)
        if any(isinstance(c, float) for c in row):
            floats.append((self.degree, lam, row))
        return row

    monkeypatch.setattr(LambdaPoly, "row", checked_row)
    for q in (2, 3, 251):
        ctx = NegQContext(q)
        verify.suite_powers(ctx)
        for suite in (verify.suite_leibniz, verify.suite_evaluation,
                      verify.suite_product_lemmas, verify.suite_inversion):
            assert suite(ctx, 5, 0).ok
    assert floats == []


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
    # a float or a bool is refused, not truncated to another polynomial
    for obj in ({"degree": 1.9, "coefficients": [2, 1]},
                {"degree": 1, "coefficients": [2.7, 1]},
                {"degree": 1, "coefficients": ["2", True]},
                {"degree": False, "coefficients": [2]}):
        with pytest.raises(UsageError):
            poly_from_jsonable(CTX2, obj)


def test_transform_rejects_bad_substituends():
    with pytest.raises(ValueError):
        negq_transform([1, 1], negq_power(nu_poly(CTX2), 2), mu_poly(CTX2))
    with pytest.raises(ValueError):
        negq_transform([], nu_poly(CTX2), mu_poly(CTX2))


# ------------------------------------------- scaled rows against Fractions
#
# A plain reference: a polynomial is (degree, f) with f(i, lam) a Fraction,
# 0 outside 0..degree, and each operator is its defining formula over
# Fractions, with b = -q as a Fraction so that negative powers are exact.
# Each coefficient function is memoised, so nested powers stay cheap.

def _ref(degree, f):
    @cache
    def coefficient(i, lam):
        return f(i, lam) if 0 <= i <= degree else Fraction(0)
    return degree, coefficient


def _ref_product(b, x, y):
    (r, f), (s, g) = x, y
    return _ref(r + s, lambda u, lam: sum(
        b ** (i * s) * f(i, lam) * g(u - i, lam - i) for i in range(r + 1)))


def _ref_power(b, x, k):
    out = _ref(0, lambda i, lam: Fraction(1))
    for _ in range(k):
        out = _ref_product(b, x, out)
    return out


def _ref_add(x, y):
    (r, f), (s, g) = x, y
    return _ref(max(r, s), lambda i, lam: f(i, lam) + g(i, lam))


def _ref_transform(b, counts, y_sub, x_sub):
    t = len(counts) - 1
    out = _ref(t, lambda i, lam: Fraction(0))
    for i, c in enumerate(counts):
        term = _ref_product(b, _ref_power(b, y_sub, i), _ref_power(b, x_sub, t - i))
        out = _ref_add(out, _ref(t, lambda u, lam, c=c, f=term[1]: c * f(u, lam)))
    return out


def _user_poly(ctx, rng, degree, den):
    """A LambdaPoly whose coefficient i is a quadratic in lambda with
    coefficients n / den(), returned as Fractions (ints when den gives
    1), and its reference."""
    table = [[Fraction(rng.randint(-4, 4), den()) for _ in range(3)]
             for _ in range(degree + 1)]

    def value(i, lam):
        c0, c1, c2 = table[i]
        return c0 + c1 * lam + c2 * lam * lam

    def coeff(i, lam):
        v = value(i, lam)
        return v.numerator if all(c.denominator == 1 for c in table[i]) else v

    return LambdaPoly(ctx, degree, coeff), _ref(degree, value)


def _scaled_cases(q):
    """(name, polynomial, reference) for every operator, on user inputs
    with int, b-adic and 1/3-style Fraction coefficients and on the seeds."""
    ctx, b = NegQContext(q), Fraction(-q)
    rng = random.Random(q)
    other = 3 if q % 3 else 5  # a denominator prime to q
    inputs = {
        "int": _user_poly(ctx, rng, 2, lambda: 1),
        "badic": _user_poly(ctx, rng, 2, lambda: q ** rng.randint(0, 3)),
        "third": _user_poly(ctx, rng, 1, lambda: other ** rng.randint(0, 1)),
        "mu": (mu_poly(ctx), _ref(1, lambda i, lam: (1, -b ** lam - 1)[i])),
        "nu": (nu_poly(ctx), _ref(1, lambda i, lam: Fraction((1, -1)[i]))),
    }
    # an input whose rows are held over a power of b at every lambda
    badic, (r, f) = inputs["badic"]
    inputs["inv"] = (negq_inv_derivative(badic, 1), _ref(r - 1, lambda j, lam, f=f: (
        b ** (1 - (j + 1)) * beta_fn(ctx, j + 1, 1) * f(j + 1, lam))))
    cases = [(name, p, ref) for name, (p, ref) in inputs.items()]
    for (na, (a, ra)), (nb, (bb, rb)) in ((x, y) for x in inputs.items()
                                         for y in inputs.items()):
        cases.append((f"{na}*{nb}", negq_product(a, bb), _ref_product(b, ra, rb)))
        cases.append((f"{na}+{nb}", poly_add(a, bb), _ref_add(ra, rb)))
    for name, (a, (r, f)) in inputs.items():
        for k in range(4):
            cases.append((f"{name}^{k}", negq_power(a, k), _ref_power(b, (r, f), k)))
        for c in (3, Fraction(5, q ** 2), Fraction(-2, q), Fraction(2, other)):
            cases.append((f"{c}*{name}", poly_scale(a, c),
                          _ref(r, lambda i, lam, c=c, f=f: c * f(i, lam))))
        for phi in range(1, r + 1):
            cases.append((f"d{phi} {name}", negq_derivative(a, phi), _ref(
                r - phi, lambda i, lam, phi=phi, r=r, f=f:
                    beta_fn(ctx, r - i, phi) * f(i, lam))))
            cases.append((f"dinv{phi} {name}", negq_inv_derivative(a, phi), _ref(
                r - phi, lambda j, lam, phi=phi, f=f:
                    b ** (phi * (1 - j - phi) + triangle(phi))
                    * beta_fn(ctx, j + phi, phi) * f(j + phi, lam))))
        if r >= 1:
            cases.append((f"{name}/X", div_x(a), _ref(r - 1, f)))
            cases.append((f"{name}/Y", div_y(a),
                          _ref(r - 1, lambda i, lam, f=f: f(i + 1, lam))))
        cases.append((f"bY {name}", scale_y(a),
                       _ref(r, lambda i, lam, f=f: b ** i * f(i, lam))))
        for delta in (-2, 1):
            cases.append((f"{name}(lam-{delta})", shift_lambda(a, delta),
                          _ref(r, lambda i, lam, f=f, d=delta: f(i, lam - d))))
    subs = [inputs["nu"], inputs["mu"], (shift_lambda(inputs["mu"][0], 2),
            _ref(1, lambda i, lam: (1, -b ** (lam - 2) - 1)[i]))]
    for counts in ([1, 0, 2, 5], [0, 3, Fraction(1, q)]):
        for (y, ry), (x, rx) in ((y, x) for y in subs for x in subs):
            cases.append((f"T{counts}", negq_transform(counts, y, x),
                          _ref_transform(b, counts, ry, rx)))
    return cases


def _exact_type(value, want):
    return type(value) is (int if want.denominator == 1 else Fraction)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_scaled_rows_match_a_fraction_reference(q):
    """Every operator on scaled rows gives the values of its defining
    formula over Fractions at lambda -4..7: on int inputs, on b-adic and
    1/3-style Fraction inputs and on the seeds. Rows, concretize and
    evaluate give an int wherever the value is whole, else a Fraction."""
    points = [(1, 1), (2, -1), (Fraction(1, 2), 3)]
    for name, poly, (degree, f) in _scaled_cases(q):
        assert poly.degree == degree, name
        for lam in range(-4, 8):
            want = [f(i, lam) for i in range(degree + 1)]
            row = poly.row(lam)
            assert list(row) == want, (name, lam)
            assert all(map(_exact_type, row, want)), (name, lam, row)
            assert concretize(poly, lam).coefficients is row
            for x, y in points:
                got = evaluate(poly, x, y, lam)
                value = sum(c * Fraction(y) ** i * Fraction(x) ** (degree - i)
                            for i, c in enumerate(want))
                assert got == value and _exact_type(got, value), (name, lam)


def test_leibniz_builds_fractions_only_in_output_functions():
    """While leibniz trials run (both rules, phi 0..4, q 2 and 3), the
    operators of hrmc.polynomials build no Fraction: they work on ints
    over a power of b, and only row, evaluate and concretize divide.
    A construction is charged to the innermost hrmc.polynomials frame
    that is not a comprehension or the shared division ``_quotient``."""
    built = {Fraction.__new__.__code__}
    if hasattr(Fraction, "_from_coprime_ints"):
        built.add(Fraction._from_coprime_ints.__func__.__code__)
    here = polynomials.__file__
    passed = {"<listcomp>", "<genexpr>", "_quotient"}
    charged = Counter()

    def profile(frame, event, arg):
        if event != "call" or frame.f_code not in built:
            return
        frame = frame.f_back
        while frame is not None and (frame.f_code.co_filename != here
                                     or frame.f_code.co_name in passed):
            frame = frame.f_back
        charged[frame and frame.f_code.co_name] += 1

    results = []
    sys.setprofile(profile)
    try:
        for q in (2, 3):
            results.append(verify.suite_leibniz(NegQContext(q), 2, 0))
    finally:
        sys.setprofile(None)
    assert all(r.ok and r.passed == 20 for r in results)
    assert charged["row"] > 0  # the qinv rule's rows are not all whole
    assert set(charged) <= {None, "row", "evaluate", "concretize"}, charged

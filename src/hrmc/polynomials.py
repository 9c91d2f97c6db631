"""Homogeneous two-variable polynomials with a twisted product.

The weight-enumerator algebra in this package multiplies homogeneous
polynomials in X, Y whose coefficients are allowed to depend on an integer
parameter lambda. The product is *not* the commutative one: writing
a = sum_i a_i(lam) Y^i X^(r-i) of degree r and b of degree s, the twisted
product has coefficients

    (a * b)_u(lam) = sum_i b^(i*s) * a_i(lam) * b_(u-i)(lam - i),

i.e. each Y-power picked from the left factor scales the right factor by a
power of the base b = -q and shifts its parameter. The product is
associative (the suite checks this rather than assuming it) but not
commutative.

A product memoises its coefficients, so powers are built as one chain
a^[0], a^[1], ..., a^[k], each the product of a with the one before:
``negq_power`` returns the last link, and ``negq_transform`` shares one
chain per substituend across all the terms of the enumerator instead of
rebuilding a power for each term.

Coefficients are exact: ints, or Fractions where a construction genuinely
produces them (negative lambda arguments, or the inverse derivative whose
b-power twist has negative exponent).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .errors import ContextMismatch, NonIntegralResult, UsageError
from .negq import NegQContext, beta_fn, bpow, triangle

Number = int | Fraction
CoeffFn = Callable[[int, int], Number]


class LambdaPoly:
    """Homogeneous polynomial of the given degree with lambda-dependent
    coefficients. coefficient(i, lam) is the Y^i X^(degree-i) coefficient
    and is 0 outside 0 <= i <= degree. Equal only to itself, since the
    coefficient functions cannot be compared; ``verify.polys_equal``
    compares two over a window of lambdas."""

    __slots__ = ("ctx", "degree", "coeff")

    def __init__(self, ctx: NegQContext, degree: int, coeff: CoeffFn) -> None:
        self.ctx = ctx
        self.degree = degree
        self.coeff = coeff

    def coefficient(self, i: int, lam: int) -> Number:
        if i < 0 or i > self.degree:
            return 0
        return self.coeff(i, lam)


class ConcretePoly:
    """Homogeneous polynomial with fixed numeric coefficients."""

    __slots__ = ("ctx", "degree", "coefficients")

    def __init__(self, ctx: NegQContext, degree: int,
                 coefficients: tuple[Number, ...]) -> None:
        self.ctx = ctx
        self.degree = degree
        self.coefficients = coefficients
        if len(coefficients) != degree + 1:
            raise UsageError("need degree+1 coefficients")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.ctx, self.degree, self.coefficients)
                == (other.ctx, other.degree, other.coefficients))

    def __hash__(self) -> int:
        return hash((self.ctx, self.degree, self.coefficients))

    def coefficient(self, i: int) -> Number:
        if i < 0 or i > self.degree:
            return 0
        return self.coefficients[i]

    def evaluate(self, x: Number, y: Number) -> Number:
        return sum(self.coefficients[i] * y ** i * x ** (self.degree - i)
                   for i in range(self.degree + 1))

    def to_jsonable(self) -> dict:
        for c in self.coefficients:
            if isinstance(c, Fraction) and c.denominator != 1:
                raise NonIntegralResult(f"coefficient {c} is not an integer")
        return {"degree": self.degree,
                "coefficients": [str(int(c)) for c in self.coefficients]}


def _check_ctx(a: LambdaPoly, b: LambdaPoly) -> NegQContext:
    if a.ctx != b.ctx:
        raise ContextMismatch(f"mixed parameters {a.ctx} and {b.ctx}")
    return a.ctx


def one_poly(ctx: NegQContext) -> LambdaPoly:
    return LambdaPoly(ctx, 0, lambda i, lam: 1)


def constant_poly(ctx: NegQContext, value: Number) -> LambdaPoly:
    return LambdaPoly(ctx, 0, lambda i, lam: value)


def mu_poly(ctx: NegQContext) -> LambdaPoly:
    """X + (-b^lambda - 1) Y, the rank-one enumerator seed."""
    def coeff(i: int, lam: int) -> Number:
        if i == 0:
            return 1
        return -bpow(ctx, lam) - 1
    return LambdaPoly(ctx, 1, coeff)


def nu_poly(ctx: NegQContext) -> LambdaPoly:
    """X - Y; its coefficients do not involve lambda."""
    return LambdaPoly(ctx, 1, lambda i, lam: 1 if i == 0 else -1)


def negq_product(a: LambdaPoly, b: LambdaPoly) -> LambdaPoly:
    """Twisted product; see the module docstring for the exact twist."""
    ctx = _check_ctx(a, b)
    r, s = a.degree, b.degree
    twist = [ctx.b ** (i * s) for i in range(r + 1)]
    cache: dict[tuple[int, int], Number] = {}

    def coeff(u: int, lam: int) -> Number:
        key = (u, lam)
        if key not in cache:
            acc: Number = 0
            for i in range(max(0, u - s), min(r, u) + 1):
                acc += twist[i] * a.coefficient(i, lam) \
                    * b.coefficient(u - i, lam - i)
            cache[key] = acc
        return cache[key]

    return LambdaPoly(ctx, r + s, coeff)


def _power_chain(a: LambdaPoly, k: int) -> list[LambdaPoly]:
    """[a^[0], a^[1], ..., a^[k]], each power the twisted product of a with
    the one before, so all of them share one set of memoised coefficients."""
    chain = [one_poly(a.ctx)]
    for _ in range(k):
        chain.append(negq_product(a, chain[-1]))
    return chain


def negq_power(a: LambdaPoly, k: int) -> LambdaPoly:
    """k-fold twisted power, multiplying by a on the left each step."""
    if k < 0:
        raise UsageError("power must be non-negative")
    return _power_chain(a, k)[-1]


def poly_add(a: LambdaPoly, b: LambdaPoly) -> LambdaPoly:
    ctx = _check_ctx(a, b)
    deg = max(a.degree, b.degree)
    return LambdaPoly(ctx, deg,
                      lambda i, lam: a.coefficient(i, lam) + b.coefficient(i, lam))


def poly_scale(a: LambdaPoly, factor: Number) -> LambdaPoly:
    return LambdaPoly(a.ctx, a.degree,
                      lambda i, lam: factor * a.coefficient(i, lam))


def negq_transform(counts: Sequence[Number], y_sub: LambdaPoly,
                   x_sub: LambdaPoly) -> LambdaPoly:
    """Substitute polynomials for the two variables of an enumerator.

    Given enumerator coefficients counts[i] (the Y^i X^(t-i) weights) this
    returns sum_i counts[i] * y_sub^[i] * x_sub^[t-i] under the twisted
    product. Both substituends must be degree 1 so the result is again
    homogeneous of degree t.

    The powers come from two shared chains, y_sub^[0..t] and x_sub^[0..t],
    so the t + 1 terms reuse each other's memoised coefficients: at most
    3t + 1 twisted products in all, instead of a fresh chain per term.
    """
    ctx = _check_ctx(y_sub, x_sub)
    if y_sub.degree != 1 or x_sub.degree != 1:
        raise UsageError("substituends must have degree 1")
    if not counts:
        raise UsageError("need at least one coefficient")
    t = len(counts) - 1
    y_pows, x_pows = _power_chain(y_sub, t), _power_chain(x_sub, t)
    terms = [(c, negq_product(y_pows[i], x_pows[t - i]))
             for i, c in enumerate(counts) if c != 0]
    return LambdaPoly(ctx, t, lambda u, lam: sum(
        c * term.coefficient(u, lam) for c, term in terms))


def evaluate(a: LambdaPoly, x: Number, y: Number, lam: int) -> Number:
    return sum(a.coefficient(i, lam) * y ** i * x ** (a.degree - i)
               for i in range(a.degree + 1))


def concretize(a: LambdaPoly, lam: int) -> ConcretePoly:
    """Freeze the parameter; Fractions that are whole numbers become ints."""
    vals = []
    for i in range(a.degree + 1):
        v = a.coefficient(i, lam)
        if isinstance(v, Fraction) and v.denominator == 1:
            v = int(v)
        vals.append(v)
    return ConcretePoly(a.ctx, a.degree, tuple(vals))


# --------------------------------------------------------------- calculus

def negq_derivative(a: LambdaPoly, phi: int) -> LambdaPoly:
    """phi-fold q-derivative: coefficient i picks up beta(r - i, phi) and the
    degree drops by phi. Differentiating past the degree gives the zero
    polynomial."""
    if phi < 0:
        raise UsageError("phi must be non-negative")
    r = a.degree
    if phi == 0:
        return a
    if phi > r:
        return constant_poly(a.ctx, 0)
    betas = [beta_fn(a.ctx, r - i, phi) for i in range(r - phi + 1)]
    return LambdaPoly(a.ctx, r - phi,
                      lambda i, lam: a.coefficient(i, lam) * betas[i]
                      if 0 <= i <= r - phi else 0)


def negq_inv_derivative(a: LambdaPoly, phi: int) -> LambdaPoly:
    """phi-fold derivative in the reciprocal base.

    Term i of the input contributes b^(phi(1-i) + tri(phi)) * beta(i, phi)
    times its coefficient to output term i - phi. The b-power has negative
    exponent for i > 1, so coefficients are exact rationals in general;
    integrality is only asserted where a *consumer* requires it.
    """
    if phi < 0:
        raise UsageError("phi must be non-negative")
    r = a.degree
    if phi == 0:
        return a
    if phi > r:
        return constant_poly(a.ctx, 0)
    ctx = a.ctx
    # factors[j] belongs to input term i = j + phi
    factors = [bpow(ctx, phi * (1 - i) + triangle(phi)) * beta_fn(ctx, i, phi)
               for i in range(phi, r + 1)]

    def coeff(j: int, lam: int) -> Number:
        if j < 0 or j > r - phi:
            return 0
        return a.coefficient(j + phi, lam) * factors[j]

    return LambdaPoly(ctx, r - phi, coeff)


# ------------------------------------------------- structural combinators

def div_x(a: LambdaPoly) -> LambdaPoly:
    """Strip one factor of X. Only meaningful when the pure-Y^r coefficient
    vanishes identically; the caller is responsible for that."""
    if a.degree < 1:
        raise UsageError("cannot divide a degree-0 polynomial by X")
    return LambdaPoly(a.ctx, a.degree - 1,
                      lambda i, lam: a.coefficient(i, lam)
                      if 0 <= i <= a.degree - 1 else 0)


def div_y(a: LambdaPoly) -> LambdaPoly:
    """Strip one factor of Y. Only meaningful when the pure-X^r coefficient
    (index 0) vanishes identically."""
    if a.degree < 1:
        raise UsageError("cannot divide a degree-0 polynomial by Y")
    return LambdaPoly(a.ctx, a.degree - 1,
                      lambda i, lam: a.coefficient(i + 1, lam)
                      if 0 <= i <= a.degree - 1 else 0)


def scale_y(a: LambdaPoly) -> LambdaPoly:
    """Substitute Y -> b*Y, i.e. coefficient i gains a factor b^i."""
    base = a.ctx.b
    return LambdaPoly(a.ctx, a.degree,
                      lambda i, lam: base ** i * a.coefficient(i, lam)
                      if 0 <= i <= a.degree else 0)


def shift_lambda(a: LambdaPoly, delta: int) -> LambdaPoly:
    """Replace the parameter lambda by lambda - delta."""
    return LambdaPoly(a.ctx, a.degree,
                      lambda i, lam: a.coefficient(i, lam - delta))


def poly_from_jsonable(ctx: NegQContext, obj: dict) -> ConcretePoly:
    degree = int(obj["degree"])
    coeffs = tuple(int(c) for c in obj["coefficients"])
    return ConcretePoly(ctx, degree, coeffs)

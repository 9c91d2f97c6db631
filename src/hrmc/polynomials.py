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

A polynomial is evaluated a row at a time: ``row(lam)`` is the tuple of
all degree + 1 coefficients at one lambda, computed once and memoised on
the polynomial. Every combinator builds its rows from whole rows of its
operands (a product convolves a.row(lam) with b.row(lam - i)), so a
coefficient read twice, or by two consumers, is computed once. Powers are
built as one chain a^[0], a^[1], ..., a^[k], each the product of a with the
one before: ``negq_power`` returns the last link, and ``negq_transform``
shares one chain per substituend across all the terms of the enumerator
instead of rebuilding a power for each term.

Some polynomials do not depend on lambda: constants, ``nu_poly``, and
whatever the combinators build from lambda-free operands alone. That is
known from how a polynomial was built, never from its coefficients (a
polynomial given by a coefficient function is never taken to be
lambda-free), and such a polynomial memoises one row, served for every
lambda. The nu chain of a transform is then one row per link, and
``negq_transform`` keeps only two links of its other chain at a time, so
a transform of degree t holds O(t^2) coefficients rather than O(t^3).

Coefficients are exact: ints, or Fractions where a construction genuinely
produces them (negative lambda arguments, or the inverse derivative whose
b-power twist has negative exponent).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from ._value import Value
from .errors import ContextMismatch, NonIntegralResult, UsageError
from .negq import NegQContext, beta_fn, bpow, triangle

Number = int | Fraction
CoeffFn = Callable[[int, int], Number]
Row = tuple[Number, ...]


class LambdaPoly:
    """Homogeneous polynomial of the given degree with lambda-dependent
    coefficients. coefficient(i, lam) is the Y^i X^(degree-i) coefficient
    and is 0 outside 0 <= i <= degree; row(lam) holds all of them at one
    lambda and is computed once. The constructor's coeff(i, lam) fills a
    row one i at a time; the combinators below fill theirs from their
    operands' rows (``_from_rows``). A lambda-free polynomial (``_free``)
    keeps one row, under lambda 0, for every lambda. Equal only to itself,
    since the coefficient functions cannot be compared;
    ``verify.polys_equal`` compares two over a window of lambdas."""

    __slots__ = ("ctx", "degree", "_free", "_coeff", "_fill", "_rows")

    def __init__(self, ctx: NegQContext, degree: int, coeff: CoeffFn) -> None:
        self.ctx = ctx
        self.degree = degree
        self._free = False
        self._coeff = coeff
        self._fill = lambda lam: tuple([coeff(i, lam)
                                        for i in range(degree + 1)])
        self._rows: dict[int, Row] = {}

    @property
    def coeff(self) -> CoeffFn:
        """The function given to the constructor; ``coefficient`` for a
        polynomial built by a combinator."""
        return self.coefficient if self._coeff is None else self._coeff

    def row(self, lam: int) -> Row:
        """The degree + 1 coefficients at lam, from the memo if present."""
        if self._free:
            lam = 0
        row = self._rows.get(lam)
        if row is None:
            row = self._rows[lam] = self._fill(lam)
        return row

    def coefficient(self, i: int, lam: int) -> Number:
        if i < 0 or i > self.degree:
            return 0
        return self.row(lam)[i]


def _from_rows(ctx: NegQContext, degree: int, fill: Callable[[int], Row],
               free: bool) -> LambdaPoly:
    """The polynomial whose row at lam is fill(lam); free when fill(lam)
    does not depend on lam."""
    poly = LambdaPoly.__new__(LambdaPoly)
    poly.ctx = ctx
    poly.degree = degree
    poly._free = free
    poly._coeff = None
    poly._fill = fill
    poly._rows = {}
    return poly


class ConcretePoly(Value):
    """Homogeneous polynomial with fixed numeric coefficients."""

    __slots__ = ("ctx", "degree", "coefficients")

    def __init__(self, ctx: NegQContext, degree: int,
                 coefficients: tuple[Number, ...]) -> None:
        self.ctx = ctx
        self.degree = degree
        self.coefficients = coefficients
        if len(coefficients) != degree + 1:
            raise UsageError("need degree+1 coefficients")

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
    return constant_poly(ctx, 1)


def constant_poly(ctx: NegQContext, value: Number) -> LambdaPoly:
    return _from_rows(ctx, 0, lambda lam: (value,), True)


def mu_poly(ctx: NegQContext) -> LambdaPoly:
    """X + (-b^lambda - 1) Y, the rank-one enumerator seed."""
    return _from_rows(ctx, 1, lambda lam: (1, -bpow(ctx, lam) - 1), False)


def nu_poly(ctx: NegQContext) -> LambdaPoly:
    """X - Y; its coefficients do not involve lambda."""
    return _from_rows(ctx, 1, lambda lam: (1, -1), True)


def negq_product(a: LambdaPoly, b: LambdaPoly) -> LambdaPoly:
    """Twisted product; see the module docstring for the exact twist."""
    ctx = _check_ctx(a, b)
    r, s = a.degree, b.degree
    twist = [ctx.b ** (i * s) for i in range(r + 1)]

    def fill(lam: int) -> Row:
        out: list[Number] = [0] * (r + s + 1)
        for i, (w, a_i) in enumerate(zip(twist, a.row(lam))):
            wa = w * a_i
            for u, b_j in enumerate(b.row(lam - i), i):
                out[u] += wa * b_j
        return tuple(out)

    return _from_rows(ctx, r + s, fill, a._free and b._free)


def _power_chain(a: LambdaPoly, k: int) -> list[LambdaPoly]:
    """[a^[0], a^[1], ..., a^[k]], each power the twisted product of a with
    the one before, so all of them share one set of memoised rows."""
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
    pad_a, pad_b = (0,) * (deg - a.degree), (0,) * (deg - b.degree)
    return _from_rows(ctx, deg, lambda lam: tuple(
        x + y for x, y in zip(a.row(lam) + pad_a, b.row(lam) + pad_b)),
        a._free and b._free)


def poly_scale(a: LambdaPoly, factor: Number) -> LambdaPoly:
    return _from_rows(a.ctx, a.degree,
                      lambda lam: tuple(factor * c for c in a.row(lam)),
                      a._free)


def negq_transform(counts: Sequence[Number], y_sub: LambdaPoly,
                   x_sub: LambdaPoly) -> LambdaPoly:
    """Substitute polynomials for the two variables of an enumerator.

    Given enumerator coefficients counts[i] (the Y^i X^(t-i) weights) this
    returns sum_i counts[i] * y_sub^[i] * x_sub^[t-i] under the twisted
    product. Both substituends must be degree 1 so the result is again
    homogeneous of degree t.

    The powers come from two shared chains, y_sub^[0..t] and x_sub^[0..t],
    so the t + 1 terms reuse each other's memoised rows: at most 3t + 1
    twisted products in all, instead of a fresh chain per term.

    A row at lam sweeps the x chain bottom-up. The term with x_sub^[k]
    reads that link at lam - (t - k) .. lam, and so does link k + 1;
    link k fills those rows from link k - 1, whose memo is then dropped.
    Every link is filled, whatever its count: a link filled on demand from
    a dropped one would recompute the whole chain below it. With two
    links held at a time and a lambda-free y_sub (one row per link), a
    row costs O(t^2) memoised coefficients.
    """
    ctx = _check_ctx(y_sub, x_sub)
    if y_sub.degree != 1 or x_sub.degree != 1:
        raise UsageError("substituends must have degree 1")
    if not counts:
        raise UsageError("need at least one coefficient")
    t = len(counts) - 1
    y_pows, x_pows = _power_chain(y_sub, t), _power_chain(x_sub, t)
    # terms[k] pairs x_sub^[k] with y_sub^[t - k], or is None for count 0
    terms = [(counts[t - k], negq_product(y_pows[t - k], x_pows[k]))
             if counts[t - k] != 0 else None for k in range(t + 1)]

    def fill(lam: int) -> Row:
        out: list[Number] = [0] * (t + 1)
        for k, link in enumerate(x_pows):
            for m in range(lam - t + k, lam + 1):
                link.row(m)
            if terms[k] is not None:
                c, term = terms[k]
                for u, v in enumerate(term.row(lam)):
                    out[u] += c * v
            if k:
                x_pows[k - 1]._rows.clear()
        x_pows[t]._rows.clear()
        return tuple(out)

    return _from_rows(ctx, t, fill, y_sub._free and x_sub._free)


def evaluate(a: LambdaPoly, x: Number, y: Number, lam: int) -> Number:
    return sum(c * y ** i * x ** (a.degree - i)
               for i, c in enumerate(a.row(lam)))


def concretize(a: LambdaPoly, lam: int) -> ConcretePoly:
    """Freeze the parameter; Fractions that are whole numbers become ints."""
    return ConcretePoly(a.ctx, a.degree, tuple(
        int(v) if isinstance(v, Fraction) and v.denominator == 1 else v
        for v in a.row(lam)))


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
    return _from_rows(a.ctx, r - phi, lambda lam: tuple(
        c * beta for c, beta in zip(a.row(lam), betas)), a._free)


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
    return _from_rows(ctx, r - phi, lambda lam: tuple(
        c * f for c, f in zip(a.row(lam)[phi:], factors)), a._free)


# ------------------------------------------------- structural combinators

def div_x(a: LambdaPoly) -> LambdaPoly:
    """Strip one factor of X. Only meaningful when the pure-Y^r coefficient
    vanishes identically; the caller is responsible for that."""
    if a.degree < 1:
        raise UsageError("cannot divide a degree-0 polynomial by X")
    return _from_rows(a.ctx, a.degree - 1, lambda lam: a.row(lam)[:-1],
                      a._free)


def div_y(a: LambdaPoly) -> LambdaPoly:
    """Strip one factor of Y. Only meaningful when the pure-X^r coefficient
    (index 0) vanishes identically."""
    if a.degree < 1:
        raise UsageError("cannot divide a degree-0 polynomial by Y")
    return _from_rows(a.ctx, a.degree - 1, lambda lam: a.row(lam)[1:],
                      a._free)


def scale_y(a: LambdaPoly) -> LambdaPoly:
    """Substitute Y -> b*Y, i.e. coefficient i gains a factor b^i."""
    powers = [a.ctx.b ** i for i in range(a.degree + 1)]
    return _from_rows(a.ctx, a.degree, lambda lam: tuple(
        p * c for p, c in zip(powers, a.row(lam))), a._free)


def shift_lambda(a: LambdaPoly, delta: int) -> LambdaPoly:
    """Replace the parameter lambda by lambda - delta."""
    return _from_rows(a.ctx, a.degree, lambda lam: a.row(lam - delta),
                      a._free)


def poly_from_jsonable(ctx: NegQContext, obj: dict) -> ConcretePoly:
    degree = int(obj["degree"])
    coeffs = tuple(int(c) for c in obj["coefficients"])
    return ConcretePoly(ctx, degree, coeffs)

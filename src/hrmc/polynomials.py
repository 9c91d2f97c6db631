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

A polynomial is evaluated a row at a time: a row holds all degree + 1
coefficients at one lambda, computed once and memoised on the
polynomial. Every combinator builds its rows from whole rows of its
operands (a product convolves the row of a at lam with those of b at
lam - i), so a coefficient read twice, or by two consumers, is computed
once. Powers are built as one chain a^[0], a^[1], ..., a^[k], each the
product of a with the one before: ``negq_power`` returns the last link,
and ``negq_transform`` shares one chain per substituend across all the
terms of the enumerator instead of rebuilding a power for each term.

Some polynomials do not depend on lambda: constants, ``nu_poly``, and
whatever the combinators build from lambda-free operands alone. That is
known from how a polynomial was built, never from its coefficients (a
polynomial given by a coefficient function is never taken to be
lambda-free), and such a polynomial memoises one row, served for every
lambda. The nu chain of a transform is then one row per link, and
``negq_transform`` keeps only two links of its other chain at a time, so
a transform of degree t holds O(t^2) coefficients rather than O(t^3).

Rows are held scaled, as ints over one power of b. The memo holds a row
as ``(e, nums)`` with e >= 0: coefficient i is nums[i] / b^e. Negative
powers of b are the only denominators the algebra makes (the mu seed at
negative lambda, the reciprocal-base derivative's twist, a scale factor
over a power of q), so every operator works on ints. A product adds the
exponents of its operands, reading the rows of its right factor aligned
to one exponent; a sum and a transform align their operands the same way;
derivatives, shifts, X/Y divisions and ``scale_y`` pass e through. Only
the output functions divide: ``row``, ``coefficient``, ``evaluate`` and
``concretize`` give an int where b^e divides and a Fraction otherwise, and
``row(lam)`` is memoised, so it is the same tuple at every read. A row
with e = 0 and int entries, such as every row of the transform at
lambda = t, is handed out as it is. A coefficient function may return a
Fraction whose denominator is not a power of q; it then stays a Fraction
inside nums, and the arithmetic is the generic one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from ._value import Value
from .errors import ContextMismatch, NonIntegralResult, UsageError
from .fields import json_int
from .negq import NegQContext, beta_fn, triangle

Number = int | Fraction
CoeffFn = Callable[[int, int], Number]
Row = tuple[Number, ...]
Scaled = tuple[int, Row]  # (e, nums): coefficient i is nums[i] / b**e
_INT = frozenset({int})


def _split(q: int, value: Number) -> tuple[int, Number]:
    """(k, n) with value == n / b**k. k > 0 only for a Fraction whose
    denominator is q**k; any other value comes back as (0, value)."""
    if not isinstance(value, Fraction):
        return 0, value
    den, k = value.denominator, 0
    while den % q == 0:
        den //= q
        k += 1
    if den != 1:
        return 0, value
    return k, value.numerator * (-1) ** k  # b**k == (-1)**k * q**k


def _ints(values: Row) -> bool:
    """Whether every value is an int (of type int itself)."""
    return set(map(type, values)) <= _INT


def _scaled(q: int, values: Row) -> Scaled:
    """A row of ints and Fractions as (e, nums) over one power of b."""
    if _ints(values):
        return 0, values
    parts = [_split(q, v) for v in values]
    e = max(k for k, _ in parts)
    return e, tuple(n * (-q) ** (e - k) for k, n in parts)


def _quotient(value: Number, den: int) -> Number:
    """value / den: an int when it is whole, else a Fraction."""
    if isinstance(value, int):
        quo, rem = divmod(value, den)
        return quo if rem == 0 else Fraction(value, den)
    value = value / den
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value


class LambdaPoly:
    """Homogeneous polynomial of the given degree with lambda-dependent
    coefficients. coefficient(i, lam) is the Y^i X^(degree-i) coefficient
    and is 0 outside 0 <= i <= degree; row(lam) holds all of them at one
    lambda. The constructor's coeff(i, lam) fills a row one i at a time;
    the combinators below fill theirs from their operands' scaled rows
    (``_from_rows``). ``_rows`` memoises the scaled rows and ``_out`` the
    divided ones that ``row`` returns. A lambda-free polynomial
    (``_free``) keeps one row, under lambda 0, for every lambda. Equal only
    to itself, since the coefficient functions cannot be compared;
    ``verify.polys_equal`` compares two over a window of lambdas."""

    __slots__ = ("ctx", "degree", "_free", "_coeff", "_fill", "_rows", "_out")

    def __init__(self, ctx: NegQContext, degree: int, coeff: CoeffFn) -> None:
        self.ctx = ctx
        self.degree = degree
        self._free = False
        self._coeff = coeff
        q = ctx.q
        self._fill = lambda lam: _scaled(q, tuple([coeff(i, lam)
                                                   for i in range(degree + 1)]))
        self._rows: dict[int, Scaled] = {}
        self._out: dict[int, Row] = {}

    @property
    def coeff(self) -> CoeffFn:
        """The function given to the constructor; ``coefficient`` for a
        polynomial built by a combinator."""
        return self.coefficient if self._coeff is None else self._coeff

    def row(self, lam: int) -> Row:
        """The degree + 1 coefficients at lam, each an int where it is
        whole and a Fraction otherwise; divided once and memoised."""
        if self._free:
            lam = 0
        row = self._out.get(lam)
        if row is None:
            e, nums = self._row(lam)
            if e == 0 and _ints(nums):
                row = nums
            else:
                den = self.ctx.b ** e
                row = tuple([_quotient(v, den) for v in nums])
            self._out[lam] = row
        return row

    def _row(self, lam: int) -> Scaled:
        """The scaled row (e, nums) at lam, from the memo if present."""
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


def _from_rows(ctx: NegQContext, degree: int, fill: Callable[[int], Scaled],
               free: bool) -> LambdaPoly:
    """The polynomial whose scaled row at lam is fill(lam); free when
    fill(lam) does not depend on lam."""
    poly = LambdaPoly.__new__(LambdaPoly)
    poly.ctx = ctx
    poly.degree = degree
    poly._free = free
    poly._coeff = None
    poly._fill = fill
    poly._rows = {}
    poly._out = {}
    return poly


def _weighted(a: LambdaPoly, degree: int, weights: Sequence[Number],
              shift: int = 0, first: int = 0) -> LambdaPoly:
    """Coefficient i is weights[i] times a's coefficient first + i, with
    the weights held over b**shift."""
    def fill(lam: int) -> Scaled:
        e, nums = a._row(lam)
        return e + shift, tuple([w * c for w, c in zip(weights, nums[first:])])

    return _from_rows(a.ctx, degree, fill, a._free)


def _sliced(a: LambdaPoly, start: int, stop: int | None) -> LambdaPoly:
    """a's coefficients start..stop - 1, over the same power of b."""
    def fill(lam: int) -> Scaled:
        e, nums = a._row(lam)
        return e, nums[start:stop]

    return _from_rows(a.ctx, a.degree - 1, fill, a._free)


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
    row = _scaled(ctx.q, (value,))
    return _from_rows(ctx, 0, lambda lam: row, True)


def mu_poly(ctx: NegQContext) -> LambdaPoly:
    """X + (-b^lambda - 1) Y, the rank-one enumerator seed; below lambda 0
    it is held over b^-lambda."""
    b = ctx.b

    def fill(lam: int) -> Scaled:
        if lam >= 0:
            return 0, (1, -b ** lam - 1)
        power = b ** -lam
        return -lam, (power, -1 - power)

    return _from_rows(ctx, 1, fill, False)


def nu_poly(ctx: NegQContext) -> LambdaPoly:
    """X - Y; its coefficients do not involve lambda."""
    row = (0, (1, -1))
    return _from_rows(ctx, 1, lambda lam: row, True)


def negq_product(a: LambdaPoly, b: LambdaPoly) -> LambdaPoly:
    """Twisted product; see the module docstring for the exact twist. The
    rows of b at lam - i are summed over the largest of their exponents."""
    ctx = _check_ctx(a, b)
    r, s = a.degree, b.degree
    base = ctx.b
    twist = [base ** (i * s) for i in range(r + 1)]

    def fill(lam: int) -> Scaled:
        ea, a_row = a._row(lam)
        out: list[Number] = [0] * (r + s + 1)
        eo = 0  # out is held over b**eo
        for i, (w, a_i) in enumerate(zip(twist, a_row)):
            e, b_row = b._row(lam - i)
            if e != eo:
                out, w, eo = _align(out, eo, w, e, base)
            wa = w * a_i
            for u, b_j in enumerate(b_row, i):
                out[u] += wa * b_j
        return ea + eo, tuple(out)

    return _from_rows(ctx, r + s, fill, a._free and b._free)


def _align(out: list[Number], eo: int, w: Number, e: int,
           base: int) -> tuple[list[Number], Number, int]:
    """A sum held over base**eo and a weight w of a row held over base**e,
    brought to the larger exponent: (out, w, exponent)."""
    if e < eo:
        return out, w * base ** (eo - e), eo
    f = base ** (e - eo)
    return [f * v for v in out], w, e


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
    base = ctx.b

    def fill(lam: int) -> Scaled:
        (ea, x), (eb, y) = a._row(lam), b._row(lam)
        if ea == eb:
            return ea, tuple([u + v for u, v in zip(x + pad_a, y + pad_b)])
        e = max(ea, eb)
        fa, fb = base ** (e - ea), base ** (e - eb)
        return e, tuple([fa * u + fb * v
                         for u, v in zip(x + pad_a, y + pad_b)])

    return _from_rows(ctx, deg, fill, a._free and b._free)


def poly_scale(a: LambdaPoly, factor: Number) -> LambdaPoly:
    """factor times a; a factor over a power of q goes into the exponent."""
    shift, n = _split(a.ctx.q, factor)
    return _weighted(a, a.degree, [n] * (a.degree + 1), shift)


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
    row costs O(t^2) memoised coefficients. The terms' rows are summed
    over the largest of their exponents.
    """
    ctx = _check_ctx(y_sub, x_sub)
    if y_sub.degree != 1 or x_sub.degree != 1:
        raise UsageError("substituends must have degree 1")
    if not counts:
        raise UsageError("need at least one coefficient")
    t = len(counts) - 1
    base = ctx.b
    y_pows, x_pows = _power_chain(y_sub, t), _power_chain(x_sub, t)
    # terms[k] pairs x_sub^[k] with y_sub^[t - k], or is None for count 0
    terms = [(counts[t - k], negq_product(y_pows[t - k], x_pows[k]))
             if counts[t - k] != 0 else None for k in range(t + 1)]

    def fill(lam: int) -> Scaled:
        out: list[Number] = [0] * (t + 1)
        eo = 0  # out is held over b**eo
        for k, link in enumerate(x_pows):
            for m in range(lam - t + k, lam + 1):
                link._row(m)
            if terms[k] is not None:
                c, term = terms[k]
                e, nums = term._row(lam)
                if e != eo:
                    out, c, eo = _align(out, eo, c, e, base)
                for u, v in enumerate(nums):
                    out[u] += c * v
            if k:
                x_pows[k - 1]._rows.clear()
        x_pows[t]._rows.clear()
        return eo, tuple(out)

    return _from_rows(ctx, t, fill, y_sub._free and x_sub._free)


def evaluate(a: LambdaPoly, x: Number, y: Number, lam: int) -> Number:
    e, nums = a._row(lam)
    return _quotient(sum(c * y ** i * x ** (a.degree - i)
                         for i, c in enumerate(nums)), a.ctx.b ** e)


def concretize(a: LambdaPoly, lam: int) -> ConcretePoly:
    """Freeze the parameter: the coefficients of ``row(lam)``."""
    return ConcretePoly(a.ctx, a.degree, a.row(lam))


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
    return _weighted(a, r - phi,
                     [beta_fn(a.ctx, r - i, phi) for i in range(r - phi + 1)])


def negq_inv_derivative(a: LambdaPoly, phi: int) -> LambdaPoly:
    """phi-fold derivative in the reciprocal base.

    Term i of the input contributes b^(phi(1-i) + tri(phi)) * beta(i, phi)
    times its coefficient to output term i - phi. The b-power has negative
    exponent for i > 1, so coefficients are exact rationals in general;
    integrality is only asserted where a *consumer* requires it. The
    factors are held as ints over the b-power of the most negative
    exponent.
    """
    if phi < 0:
        raise UsageError("phi must be non-negative")
    r = a.degree
    if phi == 0:
        return a
    if phi > r:
        return constant_poly(a.ctx, 0)
    ctx = a.ctx
    # exponents[j] belongs to input term i = j + phi
    exponents = [phi * (1 - i) + triangle(phi) for i in range(phi, r + 1)]
    shift = max(0, -min(exponents))
    factors = [ctx.b ** (x + shift) * beta_fn(ctx, i, phi)
               for i, x in enumerate(exponents, phi)]
    return _weighted(a, r - phi, factors, shift, phi)


# ------------------------------------------------- structural combinators

def div_x(a: LambdaPoly) -> LambdaPoly:
    """Strip one factor of X. Only meaningful when the pure-Y^r coefficient
    vanishes identically; the caller is responsible for that."""
    if a.degree < 1:
        raise UsageError("cannot divide a degree-0 polynomial by X")
    return _sliced(a, 0, -1)


def div_y(a: LambdaPoly) -> LambdaPoly:
    """Strip one factor of Y. Only meaningful when the pure-X^r coefficient
    (index 0) vanishes identically."""
    if a.degree < 1:
        raise UsageError("cannot divide a degree-0 polynomial by Y")
    return _sliced(a, 1, None)


def scale_y(a: LambdaPoly) -> LambdaPoly:
    """Substitute Y -> b*Y, i.e. coefficient i gains a factor b^i."""
    return _weighted(a, a.degree, [a.ctx.b ** i for i in range(a.degree + 1)])


def shift_lambda(a: LambdaPoly, delta: int) -> LambdaPoly:
    """Replace the parameter lambda by lambda - delta."""
    return _from_rows(a.ctx, a.degree, lambda lam: a._row(lam - delta),
                      a._free)


def poly_from_jsonable(ctx: NegQContext, obj: dict) -> ConcretePoly:
    """Inverse of ``ConcretePoly.to_jsonable``. The degree and every
    coefficient must be an int or a decimal string; a float or a bool is
    refused, as in code files."""
    degree = json_int(obj["degree"], "polynomial degree")
    coeffs = tuple(json_int(c, "polynomial coefficient")
                   for c in obj["coefficients"])
    return ConcretePoly(ctx, degree, coeffs)

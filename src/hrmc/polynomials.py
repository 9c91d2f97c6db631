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
once. ``negq_power`` builds a^[k] as a chain a^[0], a^[1], ..., each the
product of a with the one before, so each power fills its rows from the
memoised rows of the previous one.

``negq_transform`` builds no power chain. By associativity it takes the
enumerator's terms by Horner's rule, G_m = G_(m-1) * x_sub + counts[m] *
y_sub^[m], and each G_m and y_sub^[m] is read only at the lambda of the
row being filled. So a row is one pass of at most 2t product rows, each
from the one before and the degree-one substituends at lam - i, made by
the same row-level product as ``negq_product``: O(t^2) big-int products,
and O(t) coefficients held at a time.

Rows are held scaled, as ints over one power of b. The memo holds a row
as ``(e, nums)`` with e >= 0: coefficient i is nums[i] / b^e. Negative
powers of b are the only denominators the algebra makes (the mu seed at
negative lambda, the reciprocal-base derivative's twist, a scale factor
over a power of q), so every operator works on ints. A product adds the
exponents of its operands, reading the rows of its right factor aligned
to one exponent, and a transform aligns its terms the same way. Only the
output functions divide: ``row``, ``coefficient`` and ``concretize`` (and
``calculus.evaluate``) give an int where b^e divides and a Fraction
otherwise. Only the scaled rows are memoised, so ``row(lam)`` divides on
each call; a row with e = 0 and int entries, such as every row of the
transform at lambda = t, is handed out as it is. A coefficient function
may return a Fraction whose denominator is not a power of q; it then
stays a Fraction inside nums, and the arithmetic is the generic one.

This module holds what the MacWilliams transform runs: the rows, the
twisted product, its powers, the transform and ``concretize``. The
calculus that only the identity suites use (derivatives, X and Y
divisions, ``scale_y``, lambda shifts, sums, scalar multiples and
evaluation) is in :mod:`hrmc.calculus`, on the same scaled rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from ._value import Value
from .errors import ContextMismatch, NonIntegralResult, UsageError
from .negq import NegQContext

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
    (``_from_rows``). ``_rows`` memoises the scaled rows, one per lambda
    read, and ``row`` divides them. Equal only to itself, since the
    coefficient functions cannot be compared; ``verify.polys_equal``
    compares two over a window of lambdas."""

    __slots__ = ("ctx", "degree", "_fill", "_rows")

    def __init__(self, ctx: NegQContext, degree: int, coeff: CoeffFn) -> None:
        self.ctx = ctx
        self.degree = degree
        q = ctx.q
        self._fill = lambda lam: _scaled(q, tuple([coeff(i, lam)
                                                   for i in range(degree + 1)]))
        self._rows: dict[int, Scaled] = {}

    def row(self, lam: int) -> Row:
        """The degree + 1 coefficients at lam, each an int where it is
        whole and a Fraction otherwise, divided from the memoised scaled
        row."""
        e, nums = self._row(lam)
        if e == 0 and _ints(nums):
            return nums
        den = self.ctx.b ** e
        return tuple([_quotient(v, den) for v in nums])

    def _row(self, lam: int) -> Scaled:
        """The scaled row (e, nums) at lam, from the memo if present."""
        row = self._rows.get(lam)
        if row is None:
            row = self._rows[lam] = self._fill(lam)
        return row

    def coefficient(self, i: int, lam: int) -> Number:
        if i < 0 or i > self.degree:
            return 0
        return self.row(lam)[i]


def _from_rows(ctx: NegQContext, degree: int,
               fill: Callable[[int], Scaled]) -> LambdaPoly:
    """The polynomial whose scaled row at lam is fill(lam)."""
    poly = LambdaPoly.__new__(LambdaPoly)
    poly.ctx = ctx
    poly.degree = degree
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
    row = _scaled(ctx.q, (value,))
    return _from_rows(ctx, 0, lambda lam: row)


def mu_poly(ctx: NegQContext) -> LambdaPoly:
    """X + (-b^lambda - 1) Y, the rank-one enumerator seed; below lambda 0
    it is held over b^-lambda."""
    b = ctx.b

    def fill(lam: int) -> Scaled:
        if lam >= 0:
            return 0, (1, -b ** lam - 1)
        power = b ** -lam
        return -lam, (power, -1 - power)

    return _from_rows(ctx, 1, fill)


def nu_poly(ctx: NegQContext) -> LambdaPoly:
    """X - Y; its coefficients do not involve lambda."""
    row = (0, (1, -1))
    return _from_rows(ctx, 1, lambda lam: row)


def negq_product(a: LambdaPoly, b: LambdaPoly) -> LambdaPoly:
    """Twisted product; see the module docstring for the exact twist."""
    ctx = _check_ctx(a, b)
    base, s = ctx.b, b.degree
    twist = [base ** (i * s) for i in range(a.degree + 1)]
    return _from_rows(ctx, a.degree + s,
                      lambda lam: _product_row(twist, a._row(lam), b, lam))


def _product_row(twist: Sequence[int], a_row: Scaled, b: LambdaPoly,
                 lam: int) -> Scaled:
    """Row lam of the twisted product of a with b, from a's scaled row at
    lam; twist[i] is b**(i * b.degree). The rows of b at lam - i are summed
    over the largest of their exponents."""
    ea, a_nums = a_row
    base = b.ctx.b
    out: list[Number] = [0] * (len(a_nums) + b.degree)
    eo = 0  # out is held over b**eo
    for i, (w, a_i) in enumerate(zip(twist, a_nums)):
        e, b_nums = b._row(lam - i)
        if e != eo:
            out, w, eo = _align(out, eo, w, e, base)
        wa = w * a_i
        for u, b_j in enumerate(b_nums, i):
            out[u] += wa * b_j
    return ea + eo, tuple(out)


def _align(out: list[Number], eo: int, w: Number, e: int,
           base: int) -> tuple[list[Number], Number, int]:
    """A sum held over base**eo and a weight w of a row held over base**e,
    brought to the larger exponent: (out, w, exponent)."""
    if e < eo:
        return out, w * base ** (eo - e), eo
    f = base ** (e - eo)
    return [f * v for v in out], w, e


def negq_power(a: LambdaPoly, k: int) -> LambdaPoly:
    """k-fold twisted power, multiplying by a on the left each step; each
    power's rows are filled from the memoised rows of the one before."""
    if k < 0:
        raise UsageError("power must be non-negative")
    power = one_poly(a.ctx)
    for _ in range(k):
        power = negq_product(a, power)
    return power


def negq_transform(counts: Sequence[Number], y_sub: LambdaPoly,
                   x_sub: LambdaPoly) -> LambdaPoly:
    """Substitute polynomials for the two variables of an enumerator.

    Given enumerator coefficients counts[i] (the Y^i X^(t-i) weights) this
    returns sum_i counts[i] * y_sub^[i] * x_sub^[t-i] under the twisted
    product. Both substituends must be degree 1 so the result is again
    homogeneous of degree t.

    The sum is taken by Horner's rule. The twisted product is
    associative, so the sum is G_t, where G_0 = counts[0] and

        G_m = G_(m-1) * x_sub + counts[m] * y_sub^[m],

    with y_sub^[m] = y_sub^[m-1] * y_sub. A right factor of degree 1 is
    read at lam - i, and each G_m and y_sub^[m] only at lam itself, so a
    row at lam takes at most 2t product rows of O(t) entries each: O(t^2)
    big-int products. It holds one G row and one power row at a time,
    each until the next has read it, and makes no power past the last
    nonzero count. The terms' rows are summed over the largest of their
    exponents.
    """
    ctx = _check_ctx(y_sub, x_sub)
    if y_sub.degree != 1 or x_sub.degree != 1:
        raise UsageError("substituends must have degree 1")
    if not counts:
        raise UsageError("need at least one coefficient")
    t = len(counts) - 1
    base = ctx.b
    twist = [base ** i for i in range(t)]
    last = max((m for m, c in enumerate(counts) if c), default=0)

    def fill(lam: int) -> Scaled:
        g: Scaled = (0, (counts[0],))  # G_m at lam
        power: Scaled = (0, (1,))  # y_sub^[m] at lam
        for m in range(1, t + 1):
            g = _product_row(twist, g, x_sub, lam)
            if m > last:
                continue
            power = _product_row(twist, power, y_sub, lam)
            c = counts[m]
            if c:
                (eo, out), (e, nums) = g, power
                out = list(out)
                if e != eo:
                    out, c, eo = _align(out, eo, c, e, base)
                for u, v in enumerate(nums):
                    out[u] += c * v
                g = eo, tuple(out)
        return g

    return _from_rows(ctx, t, fill)


def concretize(a: LambdaPoly, lam: int) -> ConcretePoly:
    """Freeze the parameter: the coefficients of ``row(lam)``."""
    return ConcretePoly(a.ctx, a.degree, a.row(lam))

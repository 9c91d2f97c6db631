"""Calculus on the twisted-product polynomials of :mod:`hrmc.polynomials`,
and the base -q algebra that only the identity suites use.

The q-derivative and its reciprocal-base version, the X and Y divisions,
``scale_y``, the lambda shift, sums, scalar multiples and evaluation at a
point; beside them, the gamma values extended to x < 0 (the delta lemma
and the mu powers read gamma at negative lambda, while every Gaussian
the suites read has x >= 0, so they call ``negq.gauss``), b to any
integer power, beta, the triangular sequence transform and its
inversion, and the delta and epsilon summation lemmas. The identity
suites of ``verify`` are their only callers in the package, so only
``verify`` loads this module.

Every combinator here builds its rows from the scaled rows ``(e, nums)``
of its operands, as the product does: derivatives, shifts, divisions and
``scale_y`` pass the exponent e through, a sum aligns its operands to the
larger one, and only :func:`evaluate` divides.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import IndexOutOfRange, LengthMismatch, UsageError
from .negq import NegQContext, gamma_fn, gauss, triangle
from .polynomials import (
    LambdaPoly,
    Number,
    Scaled,
    _check_ctx,
    _from_rows,
    _quotient,
    _split,
    constant_poly,
)


# ------------------------------------------------- base -q values

def bpow(ctx: NegQContext, e: int) -> int | Fraction:
    """b**e for any integer e, exact (a Fraction when e < 0)."""
    return ctx.b ** e if e >= 0 else Fraction(1, ctx.b ** (-e))


# For x >= 0 gamma is read from the rows of hrmc.negq; the products at
# x < 0, where b^x = 1/d with d = b^(-x), are cached on (q, x, k).
@lru_cache(maxsize=None)
def _gamma_negative(q: int, x: int, k: int) -> int | Fraction:
    b, d = -q, (-q) ** -x
    num = 1
    for i in range(k):
        num *= -1 - b ** i * d
    return _quotient(num, d ** max(k, 0))


def gamma_ext(ctx: NegQContext, x: int, k: int) -> int | Fraction:
    """prod_{i=0}^{k-1} (-b**x - b**i), extended to x < 0; 1 for k <= 0.

    An int when the value is whole, else a Fraction.
    """
    if x >= 0:
        return gamma_fn(ctx, x, k)
    return _gamma_negative(ctx.q, x, k)


def beta_fn(ctx: NegQContext, x: int, k: int) -> int:
    """prod_{i=0}^{k-1} gauss(x - i, 1), stopping early at a zero factor.

    The early stop matters: for k > x the factor at i = x is gauss(0, 1) = 0,
    so the whole product is 0 without ever evaluating a negative first
    argument.
    """
    if x < 0:
        raise UsageError(f"beta_fn requires x >= 0, got x={x}")
    out = 1
    for i in range(k):
        f = gauss(ctx, x - i, 1)
        if f == 0:
            return 0
        out *= f
    return out


def sequence_inversion(ctx: NegQContext, ell: int, a: list[int]) -> list[int]:
    """Invert the triangular relation a_j = sum_i gauss(ell-i, ell-j) b_i.

    Given the transformed sequence ``a`` (length ell+1), recover ``b``:
    b_i = sum_{j<=i} (-1)^(i-j) b^(tri(i-j)) gauss(ell-j, ell-i) a_j.
    """
    if len(a) != ell + 1:
        raise LengthMismatch(f"expected {ell + 1} entries, got {len(a)}")
    out = []
    for i in range(ell + 1):
        acc = 0
        for j in range(i + 1):
            acc += ((-1) ** (i - j) * ctx.b ** triangle(i - j)
                    * gauss(ctx, ell - j, ell - i) * a[j])
        out.append(acc)
    return out


def sequence_forward(ctx: NegQContext, ell: int, b: list[int]) -> list[int]:
    """Apply the triangular relation that sequence_inversion undoes."""
    if len(b) != ell + 1:
        raise LengthMismatch(f"expected {ell + 1} entries, got {len(b)}")
    return [sum(gauss(ctx, ell - i, ell - j) * b[i] for i in range(j + 1))
            for j in range(ell + 1)]


# ------------------------------------------------- summation lemmas

def delta_fn(ctx: NegQContext, lam: int, phi: int, j: int):
    """Alternating gamma sum sum_i gauss(j,i) (-1)^i b^tri(i) gamma(lam-i, phi).

    The first argument of gamma may go negative inside the sum, where it
    is an integer over a power of b, so the value itself may be a Fraction
    for some arguments. The sum is kept as one integer numerator over one
    denominator, a product of powers of b, and divided once.
    """
    b = ctx.b
    num, den = 0, 1
    for i in range(j + 1):
        g = gamma_ext(ctx, lam - i, phi)
        n = gauss(ctx, j, i) * (-1) ** i * b ** triangle(i) * g.numerator
        d = g.denominator
        num, den = num * d + n * den, den * d
    return _quotient(num, den)


def epsilon_fn(ctx: NegQContext, big_lam: int, phi: int, i: int):
    """Double-product sum whose closed form is an i-shifted Gaussian.

    Matches the closed form (-1)^i b^tri(i) gauss(big_lam - i, big_lam - phi)
    for i <= big_lam. Beyond that the two sides genuinely differ, so an
    i > big_lam is refused with IndexOutOfRange.

    A term is an integer over a power of b: b^(ell(big_lam - phi)) may
    have a negative b-exponent. The sum is kept as one integer numerator
    over one denominator and divided once.
    """
    if i > big_lam:
        raise IndexOutOfRange(f"need i <= Lambda, got i={i} Lambda={big_lam}")
    b = ctx.b
    num, den = 0, 1
    for ell in range(i + 1):
        g = gauss(ctx, big_lam - i, phi - ell)
        if g == 0:  # as for every ell > phi, so below phi - ell >= 0
            continue
        e = ell * (big_lam - phi)  # below 0, b^e goes into d
        n = (gauss(ctx, i, ell) * (-1) ** ell * g
             * b ** (triangle(ell) + max(e, 0)))
        d = b ** max(-e, 0)
        top = b ** (phi - ell)
        for k in range(i - ell):
            n *= top - b ** k
        num, den = num * d + n * den, den * d
    return _quotient(num, den)


# ------------------------------------------------- derivatives

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
    return _from_rows(a.ctx, a.degree, lambda lam: a._row(lam - delta))


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

    return _from_rows(ctx, deg, fill)


def poly_scale(a: LambdaPoly, factor: Number) -> LambdaPoly:
    """factor times a; a factor over a power of q goes into the exponent."""
    shift, n = _split(a.ctx.q, factor)
    return _weighted(a, a.degree, [n] * (a.degree + 1), shift)


def evaluate(a: LambdaPoly, x: Number, y: Number, lam: int) -> Number:
    e, nums = a._row(lam)
    return _quotient(sum(c * y ** i * x ** (a.degree - i)
                         for i, c in enumerate(nums)), a.ctx.b ** e)


# ------------------------------------------------- row builders

def _weighted(a: LambdaPoly, degree: int, weights: Sequence[Number],
              shift: int = 0, first: int = 0) -> LambdaPoly:
    """Coefficient i is weights[i] times a's coefficient first + i, with
    the weights held over b**shift."""
    def fill(lam: int) -> Scaled:
        e, nums = a._row(lam)
        return e + shift, tuple([w * c for w, c in zip(weights, nums[first:])])

    return _from_rows(a.ctx, degree, fill)


def _sliced(a: LambdaPoly, start: int, stop: int | None) -> LambdaPoly:
    """a's coefficients start..stop - 1, over the same power of b."""
    def fill(lam: int) -> Scaled:
        e, nums = a._row(lam)
        return e, nums[start:stop]

    return _from_rows(a.ctx, a.degree - 1, fill)

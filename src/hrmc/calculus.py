"""Calculus on the twisted-product polynomials of :mod:`hrmc.polynomials`.

The q-derivative and its reciprocal-base version, the X and Y divisions,
``scale_y``, the lambda shift, sums, scalar multiples and evaluation at a
point. The identity suites of ``verify`` (Leibniz rules, evaluation,
product lemmas) are their only callers in the package; the MacWilliams
transform needs none of them, so the commands that run it do not load
this module.

Every combinator here builds its rows from the scaled rows ``(e, nums)``
of its operands, as the product does: derivatives, shifts, divisions and
``scale_y`` pass the exponent e through, a sum aligns its operands to the
larger one, and only :func:`evaluate` divides.
"""

from __future__ import annotations

from typing import Sequence

from .errors import UsageError
from .negq import beta_fn, triangle
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

    return _from_rows(a.ctx, degree, fill, a._free)


def _sliced(a: LambdaPoly, start: int, stop: int | None) -> LambdaPoly:
    """a's coefficients start..stop - 1, over the same power of b."""
    def fill(lam: int) -> Scaled:
        e, nums = a._row(lam)
        return e, nums[start:stop]

    return _from_rows(a.ctx, a.degree - 1, fill, a._free)

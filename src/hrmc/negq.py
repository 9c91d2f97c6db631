"""Exact arithmetic in base b = -q.

All the combinatorial quantities in this package live over a *negative*
base: for a prime power q we work with b = -q and form analogues of the
Gaussian binomial coefficient and its companion products. Everything is
computed with exact integers (internally exact rationals), never floats.

The public entry points take a :class:`NegQContext` and integer arguments
and return Python ints. A quantity that should be integral but is not
raises :class:`~hrmc.errors.NonIntegralResult` instead of silently
truncating; with correct formulas that never fires and acts as a tripwire.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import LengthMismatch, NonIntegralResult, UsageError


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division.

    Empty for n < 2; ``[n]`` exactly when n is prime.
    """
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class NegQContext:
    """Fixes the prime power q; all arithmetic uses base b = -q."""

    q: int

    def __post_init__(self) -> None:
        if len(prime_factors(self.q)) != 1:
            raise UsageError(f"q must be a prime power >= 2, got {self.q}")

    @property
    def b(self) -> int:
        return -self.q

    @property
    def prime_parts(self) -> tuple[int, int]:
        """(p, m) with q == p**m."""
        (p,) = prime_factors(self.q)
        m = 1
        while p ** m < self.q:
            m += 1
        return p, m


def triangle(i: int) -> int:
    """i*(i-1)//2, the exponent that appears throughout the b-power twists."""
    return i * (i - 1) // 2


def bpow(ctx: NegQContext, e: int) -> int | Fraction:
    """b**e for any integer e, exact (a Fraction when e < 0)."""
    if e >= 0:
        return ctx.b ** e
    return Fraction(1, ctx.b ** (-e))


@lru_cache(maxsize=None)
def _gauss_frac(q: int, x: int, k: int) -> Fraction:
    """Gaussian coefficient over b = -q, extended to any integer x.

    For k < 0 the value is 0 by convention (this is what makes the
    triangular recurrences close at the k = 0 boundary). For x < 0 the
    defining product is evaluated with b**x as an exact rational.
    """
    if k < 0:
        return Fraction(0)
    b = -q
    bx = Fraction(b) ** x if x >= 0 else Fraction(1, b ** (-x))
    num = Fraction(1)
    den = 1
    for i in range(k):
        num *= bx - b ** i
        den *= b ** k - b ** i
    return num / den


@lru_cache(maxsize=None)
def _gamma_frac(q: int, x: int, k: int) -> Fraction:
    """prod_{i=0}^{k-1} (-b**x - b**i), extended to x < 0; 1 for k <= 0."""
    b = -q
    bx = Fraction(b) ** x if x >= 0 else Fraction(1, b ** (-x))
    out = Fraction(1)
    for i in range(k):
        out *= -bx - b ** i
    return out


def _as_int(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise NonIntegralResult(f"{what} evaluated to non-integer {value}")
    return int(value)


def gauss(ctx: NegQContext, x: int, k: int) -> int:
    """Gaussian coefficient [x choose k] over base b = -q.

    Requires x >= 0; returns 0 for k < 0 or k > x. Values can be negative
    (e.g. q=2 gives gauss(2, 1) == -1) because the base is negative.
    """
    if x < 0:
        raise UsageError(f"gauss requires x >= 0, got x={x}")
    return _as_int(_gauss_frac(ctx.q, x, k), f"gauss({x},{k})")


def gamma_fn(ctx: NegQContext, x: int, k: int) -> int:
    """prod_{i=0}^{k-1} (-b**x - b**i); the empty product (k <= 0) is 1."""
    if x < 0:
        raise UsageError(f"gamma_fn requires x >= 0, got x={x}")
    return _as_int(_gamma_frac(ctx.q, x, k), f"gamma({x},{k})")


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


def xi(ctx: NegQContext, t: int, h: int) -> int:
    """Number of t x t Hermitian matrices of rank h, as a closed form.

    Equals gauss(t, h) * gamma(t, h); the two sign-carrying factors always
    multiply out to a non-negative integer.
    """
    if t < 0:
        raise UsageError(f"xi requires t >= 0, got t={t}")
    value = gauss(ctx, t, h) * gamma_fn(ctx, t, h)
    assert value >= 0
    return value


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

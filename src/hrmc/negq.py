"""Exact arithmetic in base b = -q.

All the combinatorial quantities in this package live over a *negative*
base: for a prime power q we work with b = -q and form analogues of the
Gaussian binomial coefficient and its companion products. Everything is
computed with exact integers, never floats. For x >= 0 the Gaussian
coefficients [x, 0..x] are filled as one row per (q, x), each from the one
before by one factor and one exact division,
[x, k] = [x, k - 1] (b^(x-k+1) - 1) / (b^k - 1), and gamma(x, k) likewise
takes one factor per step in k. For x < 0 the defining product is
accumulated as an integer numerator and denominator and divided once.
Every value is cached per (q, x, k).

The public entry points take a :class:`NegQContext` and integer arguments
and return Python ints; only ``gauss_ext`` and ``gamma_ext``, which extend
the first argument to x < 0, return a Fraction where the value is not
whole. A quantity that should be integral but is not
raises :class:`~hrmc.errors.NonIntegralResult` instead of silently
truncating; with correct formulas that never fires and acts as a tripwire.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, log2

from ._value import Value
from .cost import check_guard
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


def _perfect_power(n: int) -> tuple[int, int]:
    """(r, m) with r ** m == n and m as large as possible, for n >= 2, so
    n is a prime power exactly when r is prime.

    Each m-th root is estimated from log2(n) in floating point. For n
    below 2^(2^22) the estimate is within 2^-30 of a long root, which
    Newton's step from just above makes exact, and within 1/2 of a short
    one, which rounding makes exact. A root is tested on the low 64 bits
    of n before the whole of it."""
    shift = max(n.bit_length() - 64, 0)
    log = log2(n >> shift) + shift
    low = n & ((1 << 64) - 1)
    for m in range(n.bit_length() - 1, 1, -1):
        e = log / m
        lead = max(int(e) - 52, 0)
        x = round(2.0 ** (e - lead)) << lead
        if x >> 32:  # descend to floor(n^(1/m)) from just above it
            x += (x >> 30) + 1
            while (y := ((m - 1) * x + n // x ** (m - 1)) // m) < x:
                x = y
        if pow(x, m, 1 << 64) == low and x ** m == n:
            return x, m
    return n, 1


class NegQContext(Value):
    """Fixes the prime power q; all arithmetic uses base b = -q.

    q is a prime power when its largest exact root is prime. That root is
    trial-divided only once the divisions it needs, up to its square root,
    are within the guard (resolved as :mod:`hrmc.cost` does)."""

    __slots__ = ("q",)

    def __init__(self, q: int, guard: int | None = None) -> None:
        self.q = q
        root = _perfect_power(q)[0] if q >= 2 else 0
        check_guard(isqrt(root) - 1,
                    "trial divisions to test q for a prime power", guard)
        if prime_factors(root) != [root]:
            raise UsageError(f"q must be a prime power >= 2, got {q}")

    def __repr__(self) -> str:  # shown in ContextMismatch messages
        return f"NegQContext(q={self.q!r})"

    @property
    def b(self) -> int:
        return -self.q

    @property
    def prime_parts(self) -> tuple[int, int]:
        """(p, m) with q == p**m."""
        return _perfect_power(self.q)


def triangle(i: int) -> int:
    """i*(i-1)//2, the exponent that appears throughout the b-power twists."""
    return i * (i - 1) // 2


def bpow(ctx: NegQContext, e: int) -> int | Fraction:
    """b**e for any integer e, exact (a Fraction when e < 0)."""
    if e >= 0:
        return ctx.b ** e
    return Fraction(1, ctx.b ** (-e))


def _bx(q: int, x: int) -> tuple[int, int]:
    """b**x as (numerator, denominator) ints with b = -q, for any integer x.

    The denominator is 1 for x >= 0 and b**(-x) (which may be negative)
    otherwise.
    """
    b = -q
    return (b ** x, 1) if x >= 0 else (1, b ** (-x))


def _exact(num: int, den: int) -> int | Fraction:
    """num/den as an int when den divides num, else as a Fraction."""
    quo, rem = divmod(num, den)
    return quo if rem == 0 else Fraction(num, den)


# The caches behind gauss_ext/gauss and gamma_ext/gamma_fn are keyed on q,
# not on the context: gauss is called about 10^5 times per eigen table and
# hashing a NegQContext calls its Python-level __hash__ each time.
@lru_cache(maxsize=None)
def _gauss_row(q: int, x: int) -> tuple[int, ...]:
    """[x, k] over b = -q for k = 0..x, x >= 0: each entry the one before
    times b^(x-k+1) - 1, divided exactly by b^k - 1."""
    b = -q
    row = [1]
    top, bottom = b ** x, 1  # b^(x-k+1) and b^(k-1) at step k
    for _ in range(x):
        bottom *= b
        row.append(row[-1] * (top - 1) // (bottom - 1))
        top //= b
    return tuple(row)


@lru_cache(maxsize=None)
def _gamma_row(q: int, x: int) -> tuple[int, ...]:
    """gamma(x, k) over b = -q for k = 0..x, x >= 0: each entry the one
    before times -b^x - b^(k-1)."""
    b = -q
    lead = -b ** x
    row = [1]
    power = 1  # b^(k-1) at step k
    for _ in range(x):
        row.append(row[-1] * (lead - power))
        power *= b
    return tuple(row)


@lru_cache(maxsize=None)
def _gauss_q(q: int, x: int, k: int) -> int | Fraction:
    if k < 0:
        return 0
    if x >= 0:
        return _gauss_row(q, x)[k] if k <= x else 0
    b = -q
    bn, bd = _bx(q, x)
    num = den = 1
    for i in range(k):
        num *= bn - b ** i * bd
        den *= (b ** k - b ** i) * bd
    return _exact(num, den)


@lru_cache(maxsize=None)
def _gamma_q(q: int, x: int, k: int) -> int | Fraction:
    b = -q
    if x >= 0:
        if k <= x:
            return _gamma_row(q, x)[max(k, 0)]
        value = _gamma_row(q, x)[x]
        for i in range(x, k):  # past the row, one factor per step
            value *= -b ** x - b ** i
        return value
    bn, bd = _bx(q, x)
    num = den = 1
    for i in range(k):
        num *= -bn - b ** i * bd
        den *= bd
    return _exact(num, den)


def gauss_ext(ctx: NegQContext, x: int, k: int) -> int | Fraction:
    """Gaussian coefficient over b = -q, extended to any integer x.

    For k < 0 the value is 0 by convention (this is what makes the
    triangular recurrences close at the k = 0 boundary). For x < 0 the
    defining product prod_{i<k} (b**x - b**i) / (b**k - b**i) is evaluated
    with b**x as an exact rational. An int when the value is whole, else a
    Fraction; computed once per (q, x, k).
    """
    return _gauss_q(ctx.q, x, k)


def gamma_ext(ctx: NegQContext, x: int, k: int) -> int | Fraction:
    """prod_{i=0}^{k-1} (-b**x - b**i), extended to x < 0; 1 for k <= 0.

    An int when the value is whole, else a Fraction; computed once per
    (q, x, k).
    """
    return _gamma_q(ctx.q, x, k)


def gauss(ctx: NegQContext, x: int, k: int) -> int:
    """Gaussian coefficient [x choose k] over base b = -q.

    Requires x >= 0; returns 0 for k < 0 or k > x. Values can be negative
    (e.g. q=2 gives gauss(2, 1) == -1) because the base is negative.
    """
    if x < 0:
        raise UsageError(f"gauss requires x >= 0, got x={x}")
    value = _gauss_q(ctx.q, x, k)
    if not isinstance(value, int):  # a Fraction; int checks skip the ABC
        raise NonIntegralResult(
            f"gauss({x},{k}) evaluated to non-integer {value}")
    return value


def gamma_fn(ctx: NegQContext, x: int, k: int) -> int:
    """prod_{i=0}^{k-1} (-b**x - b**i); the empty product (k <= 0) is 1."""
    if x < 0:
        raise UsageError(f"gamma_fn requires x >= 0, got x={x}")
    value = _gamma_q(ctx.q, x, k)
    if not isinstance(value, int):  # a Fraction; int checks skip the ABC
        raise NonIntegralResult(
            f"gamma({x},{k}) evaluated to non-integer {value}")
    return value


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

"""Exact arithmetic in base b = -q.

All the combinatorial quantities in this package live over a *negative*
base: for a prime power q we work with b = -q and form analogues of the
Gaussian binomial coefficient and its companion products. Everything is
computed with exact integers, never floats. The Gaussian coefficients
[x, 0..x] are filled as one row per (q, x), each from the one before by
one factor and one exact division,
[x, k] = [x, k - 1] (b^(x-k+1) - 1) / (b^k - 1), and gamma(x, k) likewise
takes one factor per step in k. Each row is computed once, and ``gauss``
and ``gamma_fn`` read their values from it.

The rows are ints by construction: gamma's are products of ints, and
each division in the Gaussian row is exact by the q-binomial theorem;
verify's Gaussian suite checks the rows. What only that suite and the
others use (the extension to x < 0, beta, the sequence transforms) is in
:mod:`hrmc.calculus`.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt, log2

from ._value import Value
from .cost import check_guard, prime_factors
from .errors import UsageError


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


# The rows are cached on q, not on the context: gauss is called about
# 10^5 times per eigen table and hashing a NegQContext calls its
# Python-level __hash__ each time.
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


def gauss(ctx: NegQContext, x: int, k: int) -> int:
    """Gaussian coefficient [x choose k] over base b = -q.

    Requires x >= 0; returns 0 for k < 0 or k > x. Values can be negative
    (e.g. q=2 gives gauss(2, 1) == -1) because the base is negative.
    """
    if x < 0:
        raise UsageError(f"gauss requires x >= 0, got x={x}")
    return _gauss_row(ctx.q, x)[k] if 0 <= k <= x else 0


def gamma_fn(ctx: NegQContext, x: int, k: int) -> int:
    """prod_{i=0}^{k-1} (-b**x - b**i); the empty product (k <= 0) is 1.

    Past the row (k > x) it takes one more factor per step in k."""
    if x < 0:
        raise UsageError(f"gamma_fn requires x >= 0, got x={x}")
    row = _gamma_row(ctx.q, x)
    if k <= x:
        return row[max(k, 0)]
    b = ctx.b
    value = row[x]
    for i in range(x, k):
        value *= -b ** x - b ** i
    return value


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

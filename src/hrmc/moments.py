"""Moment identities and maximal codes.

Each moment identity relates a code's rank distribution to its trace
dual's: :func:`moment_q` in base b = -q and :func:`moment_qinv` in the
reciprocal base, both returned as their two exact sides for the caller to
compare. :func:`mhrd_distribution` is the closed-form distribution of a
maximal code of odd minimum distance. The summation lemmas behind the
moment identities, ``delta_fn`` and ``epsilon_fn``, are in
:mod:`hrmc.calculus` with the suites' other algebra, and the simplified
sides that ``verify`` compares with, ``moment_q_low`` and
``moment_qinv_high``, are in :mod:`hrmc.verify`. Only the functions
that build a Fraction import :mod:`fractions`, so ``mhrd`` does not load
it.
"""

from __future__ import annotations

from .errors import (
    CheckFailed,
    EvenMinimumDistance,
    IndexOutOfRange,
    UsageError,
    shown,
)
from .negq import NegQContext, gamma_fn, gauss, triangle


def _signed_power(ctx: NegQContext, t: int, e: int) -> int:
    """(-b^t)^e; note -b^t = -(-q)^t is negative for even t."""
    return (-(ctx.b ** t)) ** e


def check_phi(t: int, phi: int) -> None:
    if not 0 <= phi <= t:
        raise IndexOutOfRange(f"need 0 <= phi <= t, got phi={phi} t={t}")


def moment_q(ctx: NegQContext, counts, dual_counts,
             code_sizes: tuple[int, int], t: int, phi: int) -> dict:
    """Both sides of the phi-th binomial moment identity.

    Returns {"lhs", "rhs"} exactly; the caller asserts equality so a test
    failure shows both values.
    """
    from fractions import Fraction
    check_phi(t, phi)
    _, dual_size = code_sizes
    lhs = sum(gauss(ctx, t - i, phi) * counts[i] for i in range(t - phi + 1))
    rhs = Fraction(_signed_power(ctx, t, t - phi), dual_size) * sum(
        gauss(ctx, t - i, t - phi) * dual_counts[i] for i in range(phi + 1))
    return {"lhs": lhs, "rhs": rhs}


def moment_qinv(ctx: NegQContext, counts, dual_counts,
                code_sizes: tuple[int, int], t: int, phi: int) -> dict:
    """Both sides of the phi-th moment identity in the reciprocal base."""
    from fractions import Fraction
    check_phi(t, phi)
    _, dual_size = code_sizes
    b = ctx.b
    lhs = sum(b ** (phi * (t - i)) * gauss(ctx, i, phi) * counts[i]
              for i in range(phi, t + 1))
    rhs = Fraction(_signed_power(ctx, t, t - phi), dual_size) * sum(
        (-1) ** i * b ** (triangle(i) + i * (phi - i))
        * gauss(ctx, t - i, t - phi) * gamma_fn(ctx, t - i, phi - i)
        * dual_counts[i] for i in range(phi + 1))
    return {"lhs": lhs, "rhs": rhs}


# ------------------------------------------------- extremal distributions

def mhrd_distribution(ctx: NegQContext, t: int, d: int,
                      dual_size: int) -> tuple[int, ...]:
    """Rank distribution of a maximal code with odd minimum distance d.

    The closed form pins every count once q, t, d are fixed; dual_size must
    equal q^(t(d-1)) (the size forced on the dual of a maximal code) and is
    taken explicitly so the caller states what it believes.
    """
    if not 1 <= d <= t:
        raise UsageError(f"need 1 <= d <= t, got d={d} t={t}")
    if d % 2 == 0:
        raise EvenMinimumDistance(
            f"closed form requires odd minimum distance, got d={d}")
    expected_dual = ctx.q ** (t * (d - 1))
    if dual_size != expected_dual:
        raise UsageError(f"dual size must be {shown(expected_dual)}, "
                         f"got {shown(dual_size)}")
    b = ctx.b
    # With s = -b^t, the closed form's factor s^(d+i) / dual_size - 1 is
    # s^(i+1) - 1: s^(d-1) = b^(t(d-1)) = dual_size, as d - 1 is even. So
    # the sum over i of g_i (s^(i+1) - 1) is s * sum_i g_i s^i - sum_i g_i,
    # and the first sum is taken by Horner's rule in s.
    s = -(b ** t)
    span = range(t - d + 1)
    twists = [(-1) ** j * b ** triangle(j) for j in span]
    counts = [0] * (t + 1)
    counts[0] = 1
    for r in span:
        horner = plain = 0
        for i in range(r, -1, -1):
            g = twists[r - i] * gauss(ctx, d + r, d + i)
            horner = horner * s + g
            plain += g
        acc = (horner * s - plain) * gauss(ctx, t, d + r)
        if acc < 0:
            raise CheckFailed(f"count at rank {d + r} came out {shown(acc)}")
        counts[d + r] = acc
    total = sum(counts)
    expected_total = ctx.q ** (t * (t - d + 1))
    if total != expected_total:
        raise CheckFailed(f"counts sum to {shown(total)}, expected "
                          f"{shown(expected_total)}")
    return tuple(counts)

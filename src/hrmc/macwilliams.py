"""Dual weight distributions, eigenvalue tables, and moment identities.

The rank-weight distribution of the trace-dual code is a linear image of
the primal distribution. Two independent routes compute it:

* the *eigen* route multiplies by the association-scheme eigenvalues
  Q_k(x), each a closed-form sum (the sum over x is taken first, so no
  table is built), and
* the *functional* route substitutes the degree-one polynomials nu and mu
  into the enumerator under the twisted product and reads coefficients at
  parameter t.

They must agree, and a third route (enumerating the dual code directly)
is compared against both in the tests and the CLI. Keeping the routes
independent is the point: a bug in any one of them shows up as a mismatch
rather than cancelling silently.

The eigenvalues themselves have two closed forms, Q and C, each with a
table builder of its own (``build_eigen_table``, ``build_eigen_table_C``);
``hrmc eigen`` and verify's eigen suite require the tables to agree.

Closed-form rank counts for extremal codes and the two families of moment
identities round out the module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .errors import (
    CheckFailed,
    EvenMinimumDistance,
    IndexOutOfRange,
    NonIntegralDual,
    UsageError,
)
from .negq import (
    NegQContext,
    gamma_ext,
    gamma_fn,
    gauss,
    gauss_ext,
    triangle,
    xi,
)
from .polynomials import concretize, mu_poly, negq_transform, nu_poly


def krawtchouk_Q(ctx: NegQContext, k: int, x: int, t: int) -> int:
    """Eigenvalue Q_k(x) of the rank-t association scheme."""
    if not (0 <= x <= t and 0 <= k <= t):
        raise IndexOutOfRange(f"need 0 <= x,k <= t, got x={x} k={k} t={t}")
    b = ctx.b
    acc = 0
    for j in range(k + 1):
        acc += (b ** (triangle(k - j) + t * j)
                * gauss(ctx, t - j, t - k) * gauss(ctx, t - x, j))
    return (-1) ** k * acc


def krawtchouk_C(ctx: NegQContext, k: int, x: int, t: int) -> int:
    """Same eigenvalue through the alternating product formula.

    Written independently of krawtchouk_Q so the two can check each other.
    """
    if not (0 <= x <= t and 0 <= k <= t):
        raise IndexOutOfRange(f"need 0 <= x,k <= t, got x={x} k={k} t={t}")
    b = ctx.b
    acc = 0
    for ell in range(k + 1):
        acc += ((-1) ** ell * b ** (ell * (t - x) + triangle(ell))
                * gauss(ctx, x, ell) * gauss(ctx, t - x, k - ell)
                * gamma_fn(ctx, t - ell, k - ell))
    return acc


class EigenTable:
    """values[x][k] = Q_k(x) for the rank-t scheme; row 0 is the full-space
    distribution and column 0 is all ones."""

    __slots__ = ("q", "t", "values")

    def __init__(self, q: int, t: int,
                 values: tuple[tuple[int, ...], ...]) -> None:
        self.q = q
        self.t = t
        self.values = values

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.q, self.t, self.values)
                == (other.q, other.t, other.values))

    def __hash__(self) -> int:
        return hash((self.q, self.t, self.values))

    def to_jsonable(self) -> dict:
        return {"q": self.q, "t": self.t,
                "rows": [[str(v) for v in row] for row in self.values]}


# The two tables below are the formulas of krawtchouk_Q and krawtchouk_C
# evaluated for a whole table at once: each Gaussian and gamma row is read
# once and each b-power built by one multiplication from the previous one.
# The routes share nothing beyond gauss (and the C route gamma_fn), so a
# slip in one still shows as a mismatch against the other.

def _q_weights(ctx: NegQContext, t: int) -> tuple[list, Iterator[list]]:
    """The parts of the Q closed form for the rank-t scheme.

    Returns the Gaussian rows, rows[m][j] = gauss(m, j) for j <= m <= t,
    and the x-independent weights w[k][j] = b^(tri(k-j) + t*j) *
    gauss(t-j, t-k) for j <= k, one list per k in turn, so that

        Q_k(x) = (-1)^k sum_{j <= min(k, t-x)} w[k][j] * rows[t-x][j];

    the sum stops at j = t - x because gauss(t - x, j) is 0 beyond it.
    The weights are made as they are read, one k at a time.
    """
    b = ctx.b
    rows = [[gauss(ctx, m, j) for j in range(m + 1)] for m in range(t + 1)]
    btri = [1]  # b^tri(m), tri(m) - tri(m - 1) = m - 1
    btj = [1]   # b^(t*j)
    for m in range(1, t + 1):
        btri.append(btri[-1] * b ** (m - 1))
        btj.append(btj[-1] * b ** t)
    weights = ([btri[k - j] * btj[j] * rows[t - j][t - k] for j in range(k + 1)]
               for k in range(t + 1))
    return rows, weights


def build_eigen_table(ctx: NegQContext, t: int) -> EigenTable:
    """The table of krawtchouk_Q, every entry of the same closed form."""
    rows, weights = _q_weights(ctx, t)
    columns = []
    for k, w in enumerate(weights):
        column = []
        for x in range(t + 1):
            g = rows[t - x]
            acc = sum(w[j] * g[j] for j in range(min(k, t - x) + 1))
            column.append(-acc if k & 1 else acc)
        columns.append(column)
    return EigenTable(ctx.q, t, tuple(zip(*columns)))


def build_eigen_table_C(ctx: NegQContext, t: int) -> EigenTable:
    """The table of krawtchouk_C, built independently of the Q route.

    With y = t - x, entry (x, k) is sum_l (-1)^l (b^y)^l b^tri(l)
    gauss(x, l) gauss(y, k - l) gamma(t - l, k - l) over
    max(0, k - y) <= l <= min(k, x), where both Gaussian factors are
    nonzero.
    """
    b = ctx.b
    rows = [[gauss(ctx, m, n) for n in range(m + 1)] for m in range(t + 1)]
    gammas = [[gamma_fn(ctx, m, n) for n in range(m + 1)]
              for m in range(t + 1)]
    btri = [1]  # b^tri(l)
    for ell in range(1, t + 1):
        btri.append(btri[-1] * b ** (ell - 1))
    values = []
    for x in range(t + 1):
        y = t - x
        by = b ** y
        lead = []  # the x-dependent part of term l, sign included
        power = 1  # (b^y)^l
        for ell in range(x + 1):
            term = power * btri[ell] * rows[x][ell]
            lead.append(-term if ell & 1 else term)
            power *= by
        g = rows[y]
        values.append(tuple(
            sum(lead[ell] * g[k - ell] * gammas[t - ell][k - ell]
                for ell in range(max(0, k - y), min(k, x) + 1))
            for k in range(t + 1)))
    return EigenTable(ctx.q, t, tuple(values))


def _check_distribution(counts, code_size: int, t: int) -> None:
    if len(counts) != t + 1:
        raise UsageError(f"need {t + 1} counts")
    if code_size < 1:
        raise UsageError(f"code size must be at least 1, got {code_size}")


def macwilliams_eigen(ctx: NegQContext, counts, code_size: int,
                      t: int) -> tuple[int, ...]:
    """Dual distribution via the eigenvalues Q_k(x).

    Count k is sum_x counts[x] * Q_k(x) / code_size. With the Q closed
    form the sum over x is taken first: s[j] = sum_x counts[x] *
    gauss(t - x, j), then the count is (-1)^k sum_{j <= k} w[k][j] * s[j]
    with the weights of ``_q_weights``; O(t^2) products, no table.
    """
    _check_distribution(counts, code_size, t)
    rows, weights = _q_weights(ctx, t)
    sums = [sum(counts[x] * rows[t - x][j] for x in range(t - j + 1))
            for j in range(t + 1)]
    out = []
    for k, w in enumerate(weights):
        acc = sum(w[j] * sums[j] for j in range(k + 1))
        v = Fraction(-acc if k & 1 else acc, code_size)
        if v.denominator != 1 or v < 0:
            raise NonIntegralDual(f"dual count {k} came out {v}")
        out.append(int(v))
    return tuple(out)


def macwilliams_transform(ctx: NegQContext, counts, code_size: int,
                          t: int) -> tuple[int, ...]:
    """Dual distribution via the twisted polynomial substitution.

    Builds the substituted enumerator from iterated products of the
    degree-one seeds, deliberately avoiding the closed-form power
    coefficients used elsewhere.
    """
    _check_distribution(counts, code_size, t)
    image = negq_transform(list(counts), nu_poly(ctx), mu_poly(ctx))
    frozen = concretize(image, t)
    out = []
    for k in range(t + 1):
        v = Fraction(frozen.coefficient(k)) / code_size
        if v.denominator != 1 or v < 0:
            raise NonIntegralDual(f"dual count {k} came out {v}")
        out.append(int(v))
    return tuple(out)


# ------------------------------------------------------------- moments

def _signed_power(ctx: NegQContext, t: int, e: int) -> int:
    """(-b^t)^e; note -b^t = -(-q)^t is negative for even t."""
    return (-(ctx.b ** t)) ** e


def _check_phi(t: int, phi: int) -> None:
    if not 0 <= phi <= t:
        raise IndexOutOfRange(f"need 0 <= phi <= t, got phi={phi} t={t}")


def moment_q(ctx: NegQContext, counts, dual_counts,
             code_sizes: tuple[int, int], t: int, phi: int) -> dict:
    """Both sides of the phi-th binomial moment identity.

    Returns {"lhs", "rhs"} exactly; the caller asserts equality so a test
    failure shows both values.
    """
    _check_phi(t, phi)
    _, dual_size = code_sizes
    lhs = sum(gauss(ctx, t - i, phi) * counts[i] for i in range(t - phi + 1))
    rhs = Fraction(_signed_power(ctx, t, t - phi), dual_size) * sum(
        gauss(ctx, t - i, t - phi) * dual_counts[i] for i in range(phi + 1))
    return {"lhs": lhs, "rhs": rhs}


def moment_q_low(ctx: NegQContext, dual_size: int, t: int, phi: int) -> Fraction:
    """Simplified right side valid whenever phi is below the dual minimum
    distance (only the dual zero word contributes)."""
    return Fraction(_signed_power(ctx, t, t - phi), dual_size) * gauss(ctx, t, phi)


def moment_qinv(ctx: NegQContext, counts, dual_counts,
                code_sizes: tuple[int, int], t: int, phi: int) -> dict:
    """Both sides of the phi-th moment identity in the reciprocal base."""
    _check_phi(t, phi)
    _, dual_size = code_sizes
    b = ctx.b
    lhs = sum(b ** (phi * (t - i)) * gauss(ctx, i, phi) * counts[i]
              for i in range(phi, t + 1))
    rhs = Fraction(_signed_power(ctx, t, t - phi), dual_size) * sum(
        (-1) ** i * b ** (triangle(i) + i * (phi - i))
        * gauss(ctx, t - i, t - phi) * gamma_fn(ctx, t - i, phi - i)
        * dual_counts[i] for i in range(phi + 1))
    return {"lhs": lhs, "rhs": rhs}


def moment_qinv_high(ctx: NegQContext, counts, t: int, phi: int) -> int:
    """Alternating combination that vanishes when phi exceeds the dual
    diameter; returned so callers can assert it is zero."""
    b = ctx.b
    return sum((-1) ** i * b ** (triangle(i) + i * (phi - i))
               * gauss(ctx, t - i, t - phi) * gamma_fn(ctx, t - i, phi - i)
               * counts[i] for i in range(phi + 1))


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
        n = gauss_ext(ctx, j, i) * (-1) ** i * b ** triangle(i) * g.numerator
        d = g.denominator
        num, den = num * d + n * den, den * d
    v = Fraction(num, den)
    return int(v) if v.denominator == 1 else v


def epsilon_fn(ctx: NegQContext, big_lam: int, phi: int, i: int):
    """Double-product sum whose closed form is an i-shifted Gaussian.

    Matches the closed form (-1)^i b^tri(i) gauss(big_lam - i, big_lam - phi)
    whenever i <= big_lam; beyond that the two sides genuinely differ, so
    callers should stay in that range.

    A term is an integer over a power of b: b^(ell(big_lam - phi)) and the
    factors b^(phi - ell) - b^j may have negative b-exponents, and past
    i = big_lam so may the Gaussian's first argument. The sum is kept as
    one integer numerator over one denominator and divided once.
    """
    b = ctx.b
    num, den = 0, 1
    for ell in range(i + 1):
        g = gauss_ext(ctx, big_lam - i, phi - ell)
        if g == 0:
            continue
        n = gauss_ext(ctx, i, ell) * (-1) ** ell * b ** triangle(ell) \
            * g.numerator
        d = g.denominator
        e = ell * (big_lam - phi)
        if e >= 0:
            n *= b ** e
        else:
            d *= b ** -e
        # b^(phi - ell) = top / bottom: each factor is an integer over bottom
        top, bottom = ((b ** (phi - ell), 1) if phi >= ell
                       else (1, b ** (ell - phi)))
        for k in range(i - ell):
            n *= top - b ** k * bottom
            d *= bottom
        num, den = num * d + n * den, den * d
    v = Fraction(num, den)
    return int(v) if v.denominator == 1 else v


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
        raise UsageError(f"dual size must be {expected_dual}, got {dual_size}")
    b = ctx.b
    counts = [0] * (t + 1)
    counts[0] = 1
    for r in range(t - d + 1):
        acc = Fraction(0)
        for i in range(r + 1):
            acc += ((-1) ** (r - i) * b ** triangle(r - i)
                    * gauss(ctx, d + r, d + i) * gauss(ctx, t, d + r)
                    * (Fraction(_signed_power(ctx, t, d + i), dual_size) - 1))
        if acc.denominator != 1 or acc < 0:
            raise CheckFailed(f"count at rank {d + r} came out {acc}")
        counts[d + r] = int(acc)
    total = sum(counts)
    expected_total = ctx.q ** (t * (t - d + 1))
    if total != expected_total:
        raise CheckFailed(
            f"counts sum to {total}, expected {expected_total}")
    return tuple(counts)


def full_space_distribution(ctx: NegQContext, t: int) -> tuple[int, ...]:
    """Rank census of the whole Hermitian space, from the closed form."""
    return tuple(xi(ctx, t, h) for h in range(t + 1))

"""Dual weight distributions: the two MacWilliams routes.

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

The eigenvalue tables are in :mod:`hrmc.eigen`, and the moment identities
and maximal-code distributions in :mod:`hrmc.moments`; neither route
loads them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .errors import NonIntegralDual, UsageError, shown
from .negq import NegQContext, gauss
from .polynomials import concretize, mu_poly, negq_transform, nu_poly


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
            raise NonIntegralDual(f"dual count {k} came out {shown(v)}")
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
            raise NonIntegralDual(f"dual count {k} came out {shown(v)}")
        out.append(int(v))
    return tuple(out)

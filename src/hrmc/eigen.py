"""Eigenvalues of the Hermitian association scheme, and their tables.

The eigenvalue Q_k(x) of the rank-t scheme has two closed forms, Q
(:func:`krawtchouk_Q`) and C (:func:`krawtchouk_C`), each with a table
builder of its own (:func:`build_eigen_table`, :func:`build_eigen_table_C`),
and a third table comes from the three-term recurrence of the Hermitian
forms graph (:func:`build_eigen_table_recurrence`), which shares nothing
with either. Verify's eigen suite requires the Q and C tables to agree;
``hrmc eigen`` requires the recurrence and C tables to agree, and the
tests hold all three to each other. Row 0 of a table is the rank census
of the whole space, whose closed form is :func:`full_space_distribution`.

The eigen route of :mod:`hrmc.macwilliams` builds no table, so the
commands that run it do not load this module.
"""

from __future__ import annotations

from ._value import Value
from .errors import CheckFailed, IndexOutOfRange
from .negq import NegQContext, gamma_fn, gauss, triangle, xi


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


class EigenTable(Value):
    """values[x][k] = Q_k(x) for the rank-t scheme; row 0 is the full-space
    distribution and column 0 is all ones."""

    __slots__ = ("q", "t", "values")

    def __init__(self, q: int, t: int,
                 values: tuple[tuple[int, ...], ...]) -> None:
        self.q = q
        self.t = t
        self.values = values

    def to_jsonable(self) -> dict:
        return {"q": self.q, "t": self.t,
                "rows": [[str(v) for v in row] for row in self.values]}


# The two tables below are the formulas of krawtchouk_Q and krawtchouk_C
# evaluated for a whole table at once: each Gaussian and gamma row is read
# once and each b-power built by one multiplication from the previous one.
# The routes share nothing beyond gauss (and the C route gamma_fn), so a
# slip in one still shows as a mismatch against the other. The Q table
# takes its parts from ``macwilliams._q_weights``, as ``macwilliams_eigen``
# does, and loads that module only when it is built.

def build_eigen_table(ctx: NegQContext, t: int) -> EigenTable:
    """The table of krawtchouk_Q, every entry of the same closed form."""
    from .macwilliams import _q_weights  # verify's suite alone builds it
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


def build_eigen_table_recurrence(ctx: NegQContext, t: int) -> EigenTable:
    """The table from the three-term recurrence of the Hermitian forms
    graph, built independently of the Q and C routes.

    The rank-distance graph on t x t Hermitian matrices over GF(q^2) is
    distance-regular with classical parameters (t, b, b - 1, -b^t - 1)
    (Brouwer, Cohen and Neumaier, *Distance-Regular Graphs*, 9.5C), and
    the scheme is self-dual, so row x of the table satisfies

        c_(k+1) P_x(k+1) = (theta_x - a_k) P_x(k) - b_(k-1) P_x(k-1)

    from P_x(0) = 1, where, with [i] = (b^i - 1) / (b - 1),

        c_i = [i] b^(i-1),          b_i = -([t] - [i]) (b^t + b^i),
        a_k = b_0 - b_k - c_k,      theta_x = -[t-x] (b^t + b^x) - [x].

    Each entry is one exact division by c_(k+1); a remainder raises
    CheckFailed, never a truncated value.
    """
    base = ctx.b
    powers = [1]  # b^i
    for _ in range(t):
        powers.append(powers[-1] * base)
    brackets = [(p - 1) // (base - 1) for p in powers]  # [i], exact
    top = powers[t]
    c = [0] + [brackets[i] * powers[i - 1] for i in range(1, t + 1)]
    up = [-(brackets[t] - brackets[i]) * (top + powers[i])
          for i in range(t + 1)]  # b_i
    a = [up[0] - up[k] - c[k] for k in range(t + 1)]
    values = []
    for x in range(t + 1):
        theta = -brackets[t - x] * (top + powers[x]) - brackets[x]
        row, prev = [1], 0  # P_x(0), P_x(-1)
        for k in range(t):
            quo, rem = divmod((theta - a[k]) * row[k] - up[k - 1] * prev,
                              c[k + 1])
            if rem:
                raise CheckFailed(
                    f"eigen recurrence leaves a remainder at x={x} "
                    f"k={k + 1}, q={ctx.q} t={t}")
            prev = row[k]
            row.append(quo)
        values.append(tuple(row))
    return EigenTable(ctx.q, t, tuple(values))


def full_space_distribution(ctx: NegQContext, t: int) -> tuple[int, ...]:
    """Rank census of the whole Hermitian space, from the closed form."""
    return tuple(xi(ctx, t, h) for h in range(t + 1))

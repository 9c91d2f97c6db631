"""Additive codes of Hermitian matrices and their trace-form duals.

A code here is a subgroup of the t x t Hermitian matrices over GF(q^2)
that is closed under scaling by the conjugation-fixed subfield GF(q). Such
a set is a GF(q)-linear space, so it has a basis of k generator matrices
and exactly q^k words.

Coordinates: a Hermitian matrix is determined by its t diagonal entries
(subfield) plus, for every strictly-upper cell, two subfield coordinates
u, v with entry = u + v*theta, where theta is the smallest field element
moved by conjugation. That gives a just-bijective vectorisation onto
GF(q)^(t^2) which make_code uses to reduce any generating set to a
canonical row-echelon basis -- two equal codes therefore compare equal.

The dual is taken with respect to the trace form <H, J> = Tr(H^dagger J):
solve the k x t^2 linear system that says "orthogonal to every generator"
over the subfield and re-assemble the null-space basis into matrices.

Enumeration has one kernel. Word ``index`` of a code is the combination
of the generators whose coefficients are the base-q digits of the index,
the first generator's digit most significant, each digit picking a
subfield element in ascending index order. ``_words`` walks any index
range [start, stop) of that order as flat row-major tuples of element
indices, keeping the prefix sums of the scaled generators so that a step
redoes only the sums behind the digits that changed. :func:`rank_counts`
ranks those words with ``hermitian.rank_of_rows``; it is what
:func:`weight_distribution`, :func:`min_distance` and the CLI (census,
``wd`` and every ``--workers`` process) count with, and ranges split
anywhere add up to the whole distribution. :func:`enumerate_codewords`
and :func:`codeword_from_index` turn the same words into matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CheckFailed,
    MixedDimensions,
    NotHermitian,
    UsageError,
    ZeroCode,
)
from .fields import Field
from .hermitian import (
    HermitianMatrix,
    check_guard,
    inner_product,
    is_hermitian,
    matrix_from_jsonable,
    rank_of_rows,
)


@dataclass(frozen=True)
class LinearCode:
    field: Field
    t: int
    generators: tuple[HermitianMatrix, ...]  # canonical echelon basis
    k: int

    @property
    def size(self) -> int:
        return self.field.q ** self.k

    def to_jsonable(self) -> dict:
        return {"field": self.field.to_jsonable(), "t": self.t,
                "generators": [g.to_jsonable() for g in self.generators]}


@dataclass(frozen=True)
class WeightDistribution:
    """Counts of codewords by rank: counts[r] = number of words of rank r."""

    q: int
    t: int
    k: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.t + 1:
            raise UsageError("need one count per rank 0..t")
        if self.counts[0] < 1:
            raise UsageError("the zero word is always present")
        if sum(self.counts) != self.q ** self.k:
            raise UsageError("counts must sum to the code size")

    def min_distance(self) -> int:
        for r in range(1, self.t + 1):
            if self.counts[r]:
                return r
        raise ZeroCode("no nonzero word")

    def diameter(self) -> int:
        return max(r for r in range(self.t + 1) if self.counts[r])

    def to_jsonable(self) -> dict:
        return {"q": self.q, "t": self.t, "k": self.k,
                "counts": [str(c) for c in self.counts]}


# ----------------------------------------------------------------- coords

def _theta_index(field: Field) -> int:
    """Smallest element index moved by conjugation."""
    fixed = set(field.subfield_indices())
    for i in range(field.order):
        if i not in fixed:
            return i
    raise AssertionError("conjugation cannot fix the whole field")


def vectorize(m: HermitianMatrix) -> tuple[int, ...]:
    """Subfield coordinates of a Hermitian matrix, as element indices."""
    field, t = m.field, m.t
    theta = _theta_index(field)
    denom = field.inv(field.sub(theta, field.conj_index(theta)))
    coords = [m.entries[i][i].index for i in range(t)]
    for i in range(t):
        for j in range(i + 1, t):
            h = m.entries[i][j].index
            v = field.mul(field.sub(h, field.conj_index(h)), denom)
            u = field.sub(h, field.mul(v, theta))
            coords.append(u)
            coords.append(v)
    return tuple(coords)


def devectorize(field: Field, t: int, coords: tuple[int, ...]) -> HermitianMatrix:
    theta = _theta_index(field)
    grid = [[0] * t for _ in range(t)]
    for i in range(t):
        grid[i][i] = coords[i]
    pos = t
    for i in range(t):
        for j in range(i + 1, t):
            u, v = coords[pos], coords[pos + 1]
            pos += 2
            h = field.add(u, field.mul(v, theta))
            grid[i][j] = h
            grid[j][i] = field.conj_index(h)
    return HermitianMatrix(field, t, tuple(
        tuple(field.from_index(x) for x in row) for row in grid))


def _rref(field: Field, rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over the subfield; returns (rows, pivot cols).

    All arithmetic stays inside the subfield because the inputs do.
    """
    rows = [r[:] for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    rr = 0
    for col in range(ncols):
        sel = next((i for i in range(rr, len(rows)) if rows[i][col] != 0), None)
        if sel is None:
            continue
        rows[rr], rows[sel] = rows[sel], rows[rr]
        inv = field.inv(rows[rr][col])
        rows[rr] = [field.mul(inv, x) for x in rows[rr]]
        for i in range(len(rows)):
            if i != rr and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [field.sub(x, field.mul(f, y))
                           for x, y in zip(rows[i], rows[rr])]
        pivots.append(col)
        rr += 1
        if rr == len(rows):
            break
    return rows[:rr], pivots


def make_code(field: Field, t: int, generators: list[HermitianMatrix]) -> LinearCode:
    """Build a code from any generating set, reducing to a canonical basis."""
    if t < 1:
        raise UsageError(f"matrix size must be positive, got t={t}")
    for g in generators:
        if not isinstance(g, HermitianMatrix):
            raise NotHermitian(f"{g!r} is not a Hermitian matrix")
        if g.field != field or g.t != t:
            raise MixedDimensions("generator size or field does not match")
        if not is_hermitian(g):
            raise NotHermitian("generator differs from its conjugate transpose")
    vecs = [list(vectorize(g)) for g in generators]
    if not vecs:
        return LinearCode(field, t, (), 0)
    basis_rows, _ = _rref(field, vecs)
    basis = tuple(devectorize(field, t, tuple(r)) for r in basis_rows)
    return LinearCode(field, t, basis, len(basis))


def standard_basis(field: Field, t: int) -> tuple[HermitianMatrix, ...]:
    """Hermitian matrices dual to the vectorisation coordinates."""
    out = []
    dim = t * t
    for pos in range(dim):
        coords = tuple(1 if i == pos else 0 for i in range(dim))
        out.append(devectorize(field, t, coords))
    return tuple(out)


def dual_code(code: LinearCode) -> LinearCode:
    """All Hermitian matrices orthogonal to the code under the trace form."""
    field, t = code.field, code.t
    dim = t * t
    basis = standard_basis(field, t)
    if code.k == 0:
        return make_code(field, t, list(basis))
    system = [[inner_product(e, g).index for e in basis] for g in code.generators]
    reduced, pivots = _rref(field, system)
    assert len(pivots) == code.k, "trace form must be non-degenerate"
    pivot_set = set(pivots)
    free_cols = [c for c in range(dim) if c not in pivot_set]
    null_vectors = []
    for f in free_cols:
        coords = [0] * dim
        coords[f] = 1
        for r, p in enumerate(pivots):
            coords[p] = field.neg(reduced[r][f])
        null_vectors.append(tuple(coords))
    dual = make_code(field, t, [devectorize(field, t, v) for v in null_vectors])
    assert dual.k == dim - code.k
    return dual


# ----------------------------------------------------------- enumeration

def _words(code: LinearCode, start: int, stop: int):
    """Words start..stop-1 in index order, as flat row-major index tuples."""
    field, k = code.field, code.k
    q = field.q
    add = field.add
    scaled = [[tuple(field.mul(s, x.index) for row in g.entries for x in row)
               for s in field.subfield_indices()] for g in code.generators]
    digits = []
    index = start
    for _ in range(k):
        digits.append(index % q)
        index //= q
    digits.reverse()
    partial = [(0,) * (code.t * code.t)]  # partial[i]: the first i terms
    for j in range(k):
        partial.append(tuple(map(add, partial[j], scaled[j][digits[j]])))
    if start < stop:
        yield partial[k]
    for _ in range(start + 1, stop):
        pos = k - 1
        while digits[pos] == q - 1:
            digits[pos] = 0
            pos -= 1
        digits[pos] += 1
        for j in range(pos, k):
            partial[j + 1] = tuple(map(add, partial[j], scaled[j][digits[j]]))
        yield partial[k]


def _word_matrix(code: LinearCode, word: tuple[int, ...]) -> HermitianMatrix:
    field, t = code.field, code.t
    return HermitianMatrix(field, t, tuple(
        tuple(field.from_index(x) for x in word[i:i + t])
        for i in range(0, t * t, t)))


def _check_enumeration(code: LinearCode, guard: int | None) -> None:
    """Refuse before any word is built: more words than the guard, or
    words of more cells than the guard (a code file without generators
    may name any t)."""
    check_guard(code.size, "codewords", guard)
    check_guard(code.t * code.t, "cells per codeword", guard)


def rank_counts(code: LinearCode, start: int, stop: int,
                guard: int | None = None) -> list[int]:
    """counts[r] = number of words of rank r among words start..stop-1.

    The guard applies to the whole code, so every split of [0, q^k) into
    ranges is refused or counted alike.
    """
    _check_enumeration(code, guard)
    if not 0 <= start <= stop <= code.size:
        raise UsageError(f"range [{start}, {stop}) outside [0, {code.size})")
    field, t = code.field, code.t
    cells = t * t
    counts = [0] * (t + 1)
    for word in _words(code, start, stop):
        counts[rank_of_rows(field, [list(word[i:i + t])
                                    for i in range(0, cells, t)])] += 1
    return counts


def codeword_from_index(code: LinearCode, index: int) -> HermitianMatrix:
    """Decode an index in [0, q^k) to its codeword; coefficient of the first
    generator is the most significant digit."""
    if not 0 <= index < code.size:
        raise UsageError(f"codeword index {index} out of range")
    return _word_matrix(code, next(_words(code, index, index + 1)))


def enumerate_codewords(code: LinearCode, guard: int | None = None):
    """All q^k codewords as matrices, in index order."""
    _check_enumeration(code, guard)
    for word in _words(code, 0, code.size):
        yield _word_matrix(code, word)


def weight_distribution(code: LinearCode, guard: int | None = None) -> WeightDistribution:
    return WeightDistribution(code.field.q, code.t, code.k,
                              tuple(rank_counts(code, 0, code.size, guard)))


def min_distance(code: LinearCode, guard: int | None = None) -> int:
    return weight_distribution(code, guard).min_distance()


def singleton_check(code: LinearCode, min_dist: int | None = None,
                    guard: int | None = None) -> dict:
    """Size bound q^(t(t-d+1)) for minimum distance d; flags extremal codes.

    Returns {"bound": int, "is_mhrd": bool}. A size above the bound means a
    bug somewhere upstream and raises CheckFailed.
    """
    d = min_distance(code, guard) if min_dist is None else min_dist
    q, t = code.field.q, code.t
    bound = q ** (t * (t - d + 1))
    if code.size > bound:
        raise CheckFailed(
            f"code of size {code.size} exceeds the bound {bound} for d={d}")
    return {"bound": bound, "is_mhrd": code.size == bound}


def code_from_jsonable(obj: dict) -> LinearCode:
    from .fields import field_from_jsonable
    field = field_from_jsonable(obj["field"])
    t = int(obj["t"])
    gens = [matrix_from_jsonable(field, g) for g in obj["generators"]]
    return make_code(field, t, gens)

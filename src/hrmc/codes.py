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

Enumeration has one kernel, on packed words: a whole t x t word is one
int with a lane per base-p digit of each cell (see ``_Packing``), so
adding two words is one ``^`` in characteristic 2 and one SWAR add
otherwise, and a row is a shift-and-mask slice. Word ``index`` of a code
is the combination of the generators whose coefficients are the base-q
digits of the index, the first generator's digit most significant, each
digit picking a subfield element in ascending index order. ``_words``
walks any index range of that order over any base word: it adds each
prefix of the leading generators, summed once, to every word of a list
of the span of the trailing generators. :func:`rank_counts` ranks words
with the packed elimination ``_Packing.rank``, written apart from
``hermitian.rank_of_rows``, and visits only the words whose first nonzero
coefficient is 1: scaling by GF(q)* keeps the rank, so each such word
stands for its q - 1 nonzero multiples.

An enumeration builds one packing, the q multiples of each generator its
walk lists (:func:`rank_counts` reads only the word of a block's leading
generator, and no generator before the first block it counts) and one
list of at most ``_RUN_LIMIT`` words (or q, if more), shared by every
projective block. The packing builds nothing up front: its memos (lead
rows, head states, lane conversions) fill as words need them and each
starts over at ``_CACHE_LIMIT`` entries, so nothing grows with the field
order. :func:`rank_counts` is what
:func:`weight_distribution`, :func:`min_distance` and the CLI (census,
``wd`` and every ``--workers`` process) count with, and ranges of
[0, q^k) split anywhere add up to the whole distribution.
:func:`enumerate_codewords` and :func:`codeword_from_index` decode the
same walker's words to matrices, in index order.
"""

from __future__ import annotations

import operator
from collections import Counter
from itertools import chain, count, repeat

from ._value import Value
from .errors import (
    CheckFailed,
    MixedDimensions,
    NotHermitian,
    UsageError,
    ZeroCode,
)
from .cost import check_guard
from .fields import Field, field_from_jsonable, json_int
from .hermitian import (
    HermitianMatrix,
    inner_product,
    is_hermitian,
    matrix_from_jsonable,
)


class LinearCode(Value):
    __slots__ = ("field", "t", "generators", "k")

    def __init__(self, field: Field, t: int,
                 generators: tuple[HermitianMatrix, ...], k: int) -> None:
        self.field = field
        self.t = t
        self.generators = generators  # canonical echelon basis
        self.k = k

    @property
    def size(self) -> int:
        return self.field.q ** self.k

    def to_jsonable(self) -> dict:
        return {"field": self.field.to_jsonable(), "t": self.t,
                "generators": [g.to_jsonable() for g in self.generators]}


class WeightDistribution(Value):
    """Counts of codewords by rank: counts[r] = number of words of rank r."""

    __slots__ = ("q", "t", "k", "counts")

    def __init__(self, q: int, t: int, k: int, counts: tuple[int, ...]) -> None:
        self.q = q
        self.t = t
        self.k = k
        self.counts = counts
        if len(counts) != t + 1:
            raise UsageError("need one count per rank 0..t")
        if counts[0] < 1:
            raise UsageError("the zero word is always present")
        if sum(counts) != q ** k:
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


# ---------------------------------------------------------- packed words

_CACHE_LIMIT = 1 << 16  # entries a packing's memo holds before it starts over
_RUN_LIMIT = 1 << 10  # words of the listed span of the trailing generators


class _Packing:
    """Words of t x t matrices over one field, each held as a single int.

    Every base-p digit of an element index gets a lane of ``w`` bits: one
    bit in characteristic 2, else bit_length(p - 1) + 1 bits, room for the
    sum of two digits. A cell is 2m lanes and cell (i, j) sits at cell
    offset i*t + j, so row i is a shift-and-mask slice of the word. Adding
    words is ``^`` in characteristic 2 and otherwise one SWAR add: sum the
    lanes, then take p from every lane whose sum reached p, found as the
    top bit of the lane after adding 2^(w-1) - p. In characteristic 2 a
    cell's lanes are its element index.

    :attr:`rank` inserts rows into a basis keyed by lead column. A row is
    first scaled to lead 1; if that column already has a basis row, the
    difference of the two replaces the row (same span, that column
    cleared), else the scaled row joins the basis. The lead column is the
    lowest set bit of the row; the scaled row and its negative are cached
    per row in a dict filled on first use, as are, for odd p, the
    conversions between a cell's lanes and its element index. The basis
    and rank after the first t // 2 rows are memoised per value of those
    rows, one shared tuple for equal states, so a word reduces only its
    other rows. Nothing is built up front, and each memo starts over when
    it reaches ``_CACHE_LIMIT`` entries, so memory stays bounded in every
    field. Each enumeration makes its own packing and drops it at the end;
    none is kept on the field, so pickling a field for a ``--workers``
    task ships none of it.
    """

    def __init__(self, field: Field, t: int):
        p = field.p
        w = 1 if p == 2 else (p - 1).bit_length() + 1
        lanes = 2 * field.m
        self.field, self.t, self.p, self.w = field, t, p, w
        self.cell_bits = lanes * w
        self.cell_mask = (1 << self.cell_bits) - 1
        self.row_bits = t * self.cell_bits
        ones = sum(1 << (i * w) for i in range(lanes * t * t))
        self.lane_p = p * ones
        self.carry = ((1 << (w - 1)) - p) * ones
        self.top = ones << (w - 1)
        self.add = operator.xor if p == 2 else self._make_swar_add()
        self._lanes: dict[int, int] = {}  # element index -> lanes, odd p
        self._indices: dict[int, int] = {}  # lanes -> element index, odd p
        self._lead: dict[int, tuple[int, int, int]] = {}
        self.rank = self._make_rank()

    # -- cells and words --

    def cell(self, index: int) -> int:
        """Lanes of an element index."""
        if self.p == 2:
            return index
        memo = self._lanes
        value = memo.get(index)
        if value is None:
            if len(memo) >= _CACHE_LIMIT:
                memo.clear()
            p, w = self.p, self.w
            value = shift = 0
            rest = index
            while rest:
                rest, digit = divmod(rest, p)
                value |= digit << shift
                shift += w
            memo[index] = value
        return value

    def index(self, cell: int) -> int:
        """Element index of a cell's lanes."""
        if self.p == 2:
            return cell
        memo = self._indices
        index = memo.get(cell)
        if index is None:
            if len(memo) >= _CACHE_LIMIT:
                memo.clear()
            p, w = self.p, self.w
            lane = (1 << w) - 1
            index, place, rest = 0, 1, cell
            while rest:
                index += (rest & lane) * place
                rest >>= w
                place *= p
            memo[cell] = index
        return index

    def pack(self, indices) -> int:
        """Word of element indices given cell by cell, row-major."""
        bits = self.cell_bits
        return sum(self.cell(x) << (pos * bits) for pos, x in enumerate(indices))

    def _cells(self, word: int):
        """(offset, element index) of every cell up to the word's last
        nonzero one."""
        bits, mask = self.cell_bits, self.cell_mask
        offset = 0
        while word:
            yield offset, self.index(word & mask)
            word >>= bits
            offset += 1

    def _make_swar_add(self):
        p, w1, carry, top = self.p, self.w - 1, self.carry, self.top

        def add(a: int, b: int) -> int:
            s = a + b
            return s - (((s + carry) & top) >> w1) * p

        return add

    def neg(self, a: int) -> int:
        # lanes p - d lie in 1..p, and the add takes p from those at p
        return a if self.p == 2 else self.add(self.lane_p - a, 0)

    def matrix(self, word: int) -> HermitianMatrix:
        field, t = self.field, self.t
        grid = [field.zero()] * (t * t)
        for offset, x in self._cells(word):
            grid[offset] = field.from_index(x)
        return HermitianMatrix(field, t, tuple(
            tuple(grid[i:i + t]) for i in range(0, t * t, t)))

    def generators(self, code: "LinearCode", start: int = 0) -> list[list[int]]:
        """scaled[j][d]: generator j times the d-th subfield element, in
        ascending index order, so scaled[j][0] is zero and scaled[j][1]
        the generator itself. A generator before ``start`` gets only those
        two, for a walk that never lists its other multiples."""
        others = self.field.subfield_indices()[2:]
        mul, cell, bits = self.field.mul, self.cell, self.cell_bits
        scaled = []
        for j, g in enumerate(code.generators):
            cells = [(pos * bits, x) for pos, x in enumerate(
                x.index for row in g.entries for x in row) if x]
            scaled.append([0, sum(cell(x) << shift for shift, x in cells),
                           *(sum(cell(mul(s, x)) << shift for shift, x in cells)
                             for s in (others if j >= start else ()))])
        return scaled

    # -- rank --

    def _lead_of(self, row: int) -> tuple[int, int, int]:
        """(lead column, row scaled to lead 1, its negative) of a nonzero row."""
        cache = self._lead
        if len(cache) >= _CACHE_LIMIT:
            cache.clear()
        bits, mask = self.cell_bits, self.cell_mask
        col = ((row & -row).bit_length() - 1) // bits
        shift = col * bits
        rest = row >> shift  # the lead cell and those after it
        s = self.field.inv(self.index(rest & mask))
        mul, cell, index = self.field.mul, self.cell, self.index
        scaled = 0
        while rest:
            lanes = rest & mask
            if lanes:
                scaled |= cell(mul(s, index(lanes))) << shift
            rest >>= bits
            shift += bits
        found = cache[row] = (col, scaled, self.neg(scaled))
        return found

    def _make_rank(self):
        t, p, w1 = self.t, self.p, self.w - 1
        carry, top = self.carry, self.top
        row_bits = self.row_bits
        row_mask = (1 << row_bits) - 1
        half = t // 2
        head_mask = (1 << (half * row_bits)) - 1
        head_shifts = [i * row_bits for i in range(half)]
        tail_shifts = [i * row_bits for i in range(half, t)]
        leads, lead_of = self._lead, self._lead_of
        states: dict[int, tuple[int, ...]] = {}  # head rows -> (rank, *basis)
        interned: dict[tuple[int, ...], tuple[int, ...]] = {}
        xor = p == 2

        def head_state(head: int) -> tuple[int, ...]:
            if len(states) >= _CACHE_LIMIT:
                states.clear()
                interned.clear()
            basis = [0] * t
            state = (rank(head, head_shifts, basis), *basis)
            state = states[head] = interned.setdefault(state, state)
            return state

        def rank(word: int, shifts=tail_shifts, basis=None) -> int:
            """Rank over GF(q^2) of a packed t x t matrix. Given a basis
            (basis[c]: minus the basis row with lead c), the rows at
            ``shifts`` join it instead, and the count that joined is
            returned."""
            if basis is None:
                head = word & head_mask
                try:
                    r, *basis = states[head]
                except KeyError:
                    r, *basis = head_state(head)
            else:
                r = 0
            for shift in shifts:
                row = (word >> shift) & row_mask
                while row:
                    try:
                        col, scaled, negated = leads[row]
                    except KeyError:
                        col, scaled, negated = lead_of(row)
                    b = basis[col]
                    if not b:
                        basis[col] = negated
                        r += 1
                        break
                    if xor:  # self.add, inlined in the kernel's inner loop
                        row = scaled ^ b
                    else:
                        s = scaled + b
                        row = s - (((s + carry) & top) >> w1) * p
            return r

        return rank


# ----------------------------------------------------------- enumeration

def _run(scaled: list[list[int]], add) -> tuple[int, list[int]]:
    """(n, words): the span of the last n generators listed in index
    order, for the largest n >= 1 whose q^n words fit ``_RUN_LIMIT``
    (one generator's span is its multiples, listed already)."""
    n, words = (1, scaled[-1]) if scaled else (0, [0])
    for multiples in reversed(scaled[:-1]):
        if len(words) * len(multiples) > _RUN_LIMIT:
            break
        words = [add(x, w) for x in multiples for w in words]
        n += 1
    return n, words


def _words(scaled: list[list[int]], base: int, start: int, stop: int, add,
           run: tuple[int, list[int]] | None = None):
    """Words start..stop-1 of base + span(generators), in index order.

    Word ``index`` adds to ``base`` the combination of the generators whose
    coefficients are the base-q digits of the index, the first generator's
    digit most significant; ``scaled[j][d]`` is generator j times the d-th
    subfield element. ``run`` (see :func:`_run`) lists the span of the
    last n generators of the enumeration that ``scaled`` ends, in which
    the span of fewer trailing generators is a leading slice; ``None``
    stands for the last generator's multiples. Each prefix of the other
    generators is summed once, by the same walk without a run, and added
    to every listed word it serves.
    """
    if not scaled:
        return iter([base] if start < stop else [])
    n, listed = run or (1, scaled[-1])
    n = min(n, len(scaled))
    size = len(scaled[-1]) ** n  # words per prefix
    first = start // size
    prefixes = _words(scaled[:-n], base, first, -(-stop // size), add)
    return chain.from_iterable(
        map(add, repeat(prefix), listed[max(start - pos, 0):stop - pos])
        for pos, prefix in zip(count(first * size, size), prefixes))


def _block_of(q: int, k: int, point: int) -> int:
    """The block (see :func:`_points`) that holds a point."""
    j, end = 0, q ** (k - 1)
    while end <= point:
        j += 1
        end += q ** (k - 1 - j)
    return j


def _points(scaled: list[list[int]], q: int, lo: int, hi: int, add, run):
    """Words lo..hi-1 of those whose first nonzero coefficient is 1.

    Block j of them is generator j plus every word of the span of the
    generators after it, in index order; the blocks follow each other.
    A walk from block j on reads generator j's word alone, and lists
    the multiples of the generators after it only.
    """
    k = len(scaled)
    blocks = []
    first = 0
    for j in range(k):
        size = q ** (k - 1 - j)
        a, b = max(lo, first), min(hi, first + size)
        if a < b:
            blocks.append(_words(scaled[j + 1:], scaled[j][1],
                                 a - first, b - first, add, run))
        first += size
    return chain.from_iterable(blocks)


def _check_enumeration(code: LinearCode, guard: int | None) -> None:
    """Refuse before any word is built: more words than the guard, or
    words of more cells than the guard (a code file without generators
    may name any t)."""
    check_guard(code.size, "codewords", guard)
    check_guard(code.t * code.t, "cells per codeword", guard)


def rank_counts(code: LinearCode, start: int, stop: int,
                guard: int | None = None) -> list[int]:
    """counts[r] = number of words of rank r among words start..stop-1 of
    the kernel order.

    The kernel order is the zero word, then every word whose first nonzero
    coefficient is 1 (a point) followed by its q - 2 other nonzero
    subfield multiples, in ascending subfield index order. Scaling by
    GF(q)* keeps the rank, so each point is ranked once and counts for
    the multiples the range holds. The guard applies to the whole code,
    so every split of [0, q^k) into ranges is refused or counted alike.
    """
    _check_enumeration(code, guard)
    if not 0 <= start <= stop <= code.size:
        raise UsageError(f"range [{start}, {stop}) outside [0, {code.size})")
    t, q = code.t, code.field.q
    m = q - 1
    counts = [0] * (t + 1)
    if start == 0 < stop:
        counts[0] = 1
    first = max(start, 1)
    if first >= stop:
        return counts
    pk = _Packing(code.field, t)
    lo, hi = (first - 1) // m, (stop - 2) // m + 1  # the points touched
    listed = _block_of(q, code.k, lo) + 1  # the first generator listed
    scaled = pk.generators(code, listed)
    rank, add, run = pk.rank, pk.add, _run(scaled[listed:], pk.add)
    for r, n in Counter(map(rank, _points(scaled, q, lo, hi, add,
                                          run))).items():
        counts[r] += n * m
    # the first and last points touched may have multiples outside the range
    first_point = next(_points(scaled, q, lo, lo + 1, add, run))
    last_point = next(_points(scaled, q, hi - 1, hi, add, run))
    counts[rank(first_point)] -= first - 1 - lo * m
    counts[rank(last_point)] -= hi * m - (stop - 1)
    return counts


def codeword_from_index(code: LinearCode, index: int) -> HermitianMatrix:
    """Decode an index in [0, q^k) to its codeword; coefficient of the first
    generator is the most significant digit."""
    if not 0 <= index < code.size:
        raise UsageError(f"codeword index {index} out of range")
    pk = _Packing(code.field, code.t)
    return pk.matrix(next(_words(pk.generators(code), 0, index, index + 1,
                                 pk.add)))


def enumerate_codewords(code: LinearCode, guard: int | None = None):
    """All q^k codewords as matrices, in index order."""
    _check_enumeration(code, guard)
    pk = _Packing(code.field, code.t)
    scaled = pk.generators(code)
    for word in _words(scaled, 0, 0, code.size, pk.add, _run(scaled, pk.add)):
        yield pk.matrix(word)


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
    field = field_from_jsonable(obj["field"])
    t = json_int(obj["t"], "code t")
    gens = [matrix_from_jsonable(field, g) for g in obj["generators"]]
    return make_code(field, t, gens)

"""Additive codes of Hermitian matrices and their trace-form duals.

A code here is a subgroup of the t x t Hermitian matrices over GF(q^2)
that is closed under scaling by the conjugation-fixed subfield GF(q). Such
a set is a GF(q)-linear space, so it has a basis of k generator matrices
and exactly q^k words.

Coordinates: a Hermitian matrix is determined by its t diagonal entries
(subfield) plus, for every strictly-upper cell, two subfield coordinates
u, v with entry = u + v*theta, where theta is the smallest field element
moved by conjugation. They are laid out row by row: row i's diagonal
entry, then u and v of each of its upper entries. That gives a bijective
vectorisation onto GF(q)^(t^2). A :class:`LinearCode` is held as the
reduced row-echelon form of its words' coordinates, which its
constructor computes from any rows, so two equal codes compare equal,
and k and the generator matrices follow from it. Since the coordinates
of the top t // 2 rows (the head) come first, that basis is head-first:
its generators with a nonzero head lead, and the others span K, the
words whose head is zero.

The dual is taken with respect to the trace form <H, J> = Tr(H^dagger J):
each generator's row of the system over the subfield is read off its
cells, and the null space is the dual's basis.

Enumeration has one kernel, on packed words: a whole t x t word is one
int with a lane per base-p digit of each cell (see ``_Packing``), so
adding two words is one ``^`` in characteristic 2 and one SWAR add
otherwise, and a row is a shift-and-mask slice. Word ``index`` of a
basis is the combination of its generators whose coefficients are the
base-q digits of the index, the first generator's digit most
significant, each digit picking a subfield element in ascending index
order. ``_runs`` walks any index range of that order over any base word
as (prefix, words) pairs: each prefix of the leading generators, summed
once, serves a list of the span of the trailing generators.

:func:`rank_counts` counts in the index order of the code's basis,
whose trailing generators span K. It visits only the words whose first
nonzero coefficient is 1: scaling by GF(q)* keeps the rank, so each such
word stands for its q - 1 nonzero multiples. The words of a coset h + K
share their head and follow each other, so the kernel reduces the head
rows once per coset and each word only its other rows, with the packed
elimination of ``_Packing``, written apart from
``hermitian_space.rank_of_rows``. Where the code holds E, the unit at
the last diagonal cell, one reduction of a word's last row ranks the q
words that differ only in E's coefficient; ``_Packing.count_ranks``
states that rule and proves it.

An enumeration builds one packing, the q multiples of each generator its
walk lists (:func:`rank_counts` reads only the word of a block's leading
generator, and no generator before the first block it counts), a list
of at most ``_RUN_LIMIT`` words of K (or q, if more), shared by every
coset, and, where that list holds all of K, one as long of the span of
the trailing head generators, to which each prefix of the others is
added to give the cosets' prefixes. The packing builds nothing up
front, and its memos fill as words need them and stay bounded (see
``_Packing``). :func:`rank_counts` is what :func:`weight_distribution`,
:func:`min_distance` and the CLI (census, ``wd`` and every ``--workers``
process) count with, and ranges of [0, q^k) split anywhere add up to
the whole distribution. :func:`codeword_from_index` and
:func:`enumerate_codewords` decode words to matrices from the basis
coordinates with plain field arithmetic, not from packed words, so they
share no code with the kernel.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from itertools import chain, repeat

from ._value import Value, json_int
from .errors import (
    CheckFailed,
    MixedDimensions,
    NotHermitian,
    UsageError,
    ZeroCode,
)
from .cost import check_guard
from .fields import Field, field_from_jsonable
from .hermitian import (
    HermitianMatrix,
    is_hermitian,
    matrix_from_jsonable,
)


class LinearCode(Value):
    """The GF(q)-linear span of some t x t Hermitian matrices, held as
    ``basis``: the reduced row-echelon form of their subfield coordinates
    (see :func:`vectorize`), which the constructor computes from any rows
    it is given. Two equal codes therefore hold equal bases. ``k``,
    ``size`` and the ``generators`` (built on each read) follow from it."""

    __slots__ = ("field", "t", "basis")

    def __init__(self, field: Field, t: int,
                 basis: Iterable[Iterable[int]]) -> None:
        if t < 1:
            raise UsageError(f"matrix size must be positive, got t={t}")
        subfield = set(field.subfield_indices())
        rows = [list(row) for row in basis]
        for row in rows:
            if len(row) != t * t:
                raise UsageError(f"a basis row has {len(row)} coordinates, "
                                 f"not t^2 = {t * t}")
            if not subfield.issuperset(row):
                raise UsageError("a basis coordinate lies outside the "
                                 "conjugation-fixed subfield")
        self.field = field
        self.t = t
        self.basis = tuple(map(tuple, _rref(field, rows)[0]))

    @property
    def k(self) -> int:
        return len(self.basis)

    @property
    def size(self) -> int:
        return self.field.q ** self.k

    @property
    def generators(self) -> tuple[HermitianMatrix, ...]:
        theta = _theta_index(self.field)
        return tuple(devectorize(self.field, self.t, row, theta)
                     for row in self.basis)

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


def vectorize(field: Field, t: int, grid: list[int],
              theta: int) -> list[int]:
    """Subfield coordinates, as element indices, of the Hermitian matrix
    whose element indices, row-major, are ``grid`` (its lower cells are
    not read), row by row: each row's diagonal entry, then u and v of
    each of its upper entries."""
    denom = field.inv(field.sub(theta, field.conj_index(theta)))
    coords = []
    for i in range(t):
        coords.append(grid[i * t + i])
        for h in grid[i * t + i + 1:(i + 1) * t]:
            v = field.mul(field.sub(h, field.conj_index(h)), denom)
            coords += (field.sub(h, field.mul(v, theta)), v)
    return coords


def _grid(field: Field, t: int, coords: list[int], theta: int) -> list[int]:
    """Element indices, row-major, of the matrix of subfield coordinates.
    The lower cell u + v*conj(theta) is the conjugate of the upper one,
    since conjugation fixes u and v."""
    add, mul = field.add, field.mul
    theta_bar = field.conj_index(theta)
    grid = [0] * (t * t)
    pos = 0
    for i in range(t):
        grid[i * t + i] = coords[pos]
        pos += 1
        for j in range(i + 1, t):
            u, v = coords[pos], coords[pos + 1]
            pos += 2
            grid[i * t + j] = add(u, mul(v, theta))
            grid[j * t + i] = add(u, mul(v, theta_bar))
    return grid


def devectorize(field: Field, t: int, coords: list[int],
                theta: int) -> HermitianMatrix:
    grid = [field.from_index(x) for x in _grid(field, t, coords, theta)]
    return HermitianMatrix(field, t, tuple(
        tuple(grid[i:i + t]) for i in range(0, t * t, t)))


def _rref(field: Field,
          rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over the subfield; returns (rows, pivot
    cols), pivots sought in ascending column order. All arithmetic stays
    inside the subfield because the inputs do. On coordinates laid out row
    by row, the rows with a pivot among the top t // 2 matrix rows come
    first, and the others have those rows zero.
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
        if rows[rr][col] != 1:  # element index 1 is the field's one
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
    """The code spanned by any Hermitian matrices: :class:`LinearCode`
    reduces their coordinates to its basis, whose generators with a
    nonzero head (top t // 2 rows) come first while the others span the
    zero-head subcode K."""
    if t < 1:
        raise UsageError(f"matrix size must be positive, got t={t}")
    for g in generators:
        if not isinstance(g, HermitianMatrix):
            raise NotHermitian(f"{g!r} is not a Hermitian matrix")
        if g.field != field or g.t != t:
            raise MixedDimensions("generator size or field does not match")
        if not is_hermitian(g):
            raise NotHermitian("generator differs from its conjugate transpose")
    theta = _theta_index(field)
    return LinearCode(field, t, [
        vectorize(field, t, [x.index for row in g.entries for x in row], theta)
        for g in generators])


def dual_code(code: LinearCode) -> LinearCode:
    """All Hermitian matrices orthogonal to the code under the trace form.

    Entry c of a generator G's row in the system is <E_c, G>, E_c the
    matrix of unit coordinate c: g_ii for a diagonal coordinate and, for
    an upper entry h, Tr(h) for its u and Tr(conj(theta) h) for its v,
    where Tr(x) = x + conj(x).
    """
    field, t = code.field, code.t
    add, mul, conj, neg = field.add, field.mul, field.conj_index, field.neg
    theta_bar = conj(_theta_index(field))
    system = []
    for cells in _grids(code):
        row = []
        for i in range(t):
            row.append(cells[i * t + i])
            for h in cells[i * t + i + 1:(i + 1) * t]:
                w = mul(theta_bar, h)
                row += (add(h, conj(h)), add(w, conj(w)))
        system.append(row)
    reduced, pivots = _rref(field, system)
    if len(pivots) != code.k:
        raise CheckFailed(f"trace form system has rank {len(pivots)}, "
                          f"not k={code.k}")
    null_vectors = []
    for f in sorted(set(range(t * t)) - set(pivots)):
        coords = [0] * (t * t)
        coords[f] = 1
        for r, p in zip(reduced, pivots):
            coords[p] = neg(r[f])
        null_vectors.append(coords)
    return LinearCode(field, t, null_vectors)


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

    :meth:`reduce` inserts rows into a basis keyed by lead column. A row
    is first scaled to lead 1; if that column already has a basis row, the
    difference of the two replaces the row (same span, that column
    cleared), else the scaled row joins the basis. The lead column is the
    lowest set bit of the row; the scaled row and its negative are cached
    per row in a dict filled on first use, as are, for odd p, the
    conversions between a cell's lanes and its element index.
    :meth:`count_ranks` runs the same elimination inline over many words.
    Nothing is built up front. The lead memo starts over when it reaches
    ``_CACHE_LIMIT`` entries. The two conversion memos need no cap: each
    is keyed by element indices or by the lanes of one, every lane below
    p, so it holds at most ``field.order`` entries, and no field is
    larger than ``fields.MAX_FIELD_ORDER`` = 2^16. Each enumeration makes
    its own packing and drops it at the end; none is kept on the field,
    so a pickled field carries none of it.
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

    # -- cells and words --

    def cell(self, index: int) -> int:
        """Lanes of an element index."""
        if self.p == 2:
            return index
        memo = self._lanes
        value = memo.get(index)
        if value is None:
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
            p, w = self.p, self.w
            lane = (1 << w) - 1
            index, place, rest = 0, 1, cell
            while rest:
                index += (rest & lane) * place
                rest >>= w
                place *= p
            memo[cell] = index
        return index

    def _make_swar_add(self):
        p, w1, carry, top = self.p, self.w - 1, self.carry, self.top

        def add(a: int, b: int) -> int:
            s = a + b
            return s - (((s + carry) & top) >> w1) * p

        return add

    def neg(self, a: int) -> int:
        # lanes p - d lie in 1..p, and the add takes p from those at p
        return a if self.p == 2 else self.add(self.lane_p - a, 0)

    def generators(self, grids, start: int = 0) -> list[list[int]]:
        """scaled[j][d]: the word of grids[j] (element indices, row-major)
        times the d-th subfield element, in ascending index order, so
        scaled[j][0] is zero and scaled[j][1] the word itself. A generator
        before ``start`` gets only those two, for a walk that never lists
        its other multiples."""
        others = self.field.subfield_indices()[2:]
        mul, cell, bits = self.field.mul, self.cell, self.cell_bits
        scaled = []
        for j, grid in enumerate(grids):
            cells = [(pos * bits, x) for pos, x in enumerate(grid) if x]
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

    def reduce(self, word: int, shifts, basis: list[int]) -> int:
        """Insert the rows of a packed word at ``shifts`` into ``basis``
        (basis[c]: minus the basis row with lead c, else 0) and return how
        many joined it."""
        row_mask = (1 << self.row_bits) - 1
        add, leads, lead_of = self.add, self._lead, self._lead_of
        joined = 0
        for shift in shifts:
            row = (word >> shift) & row_mask
            while row:
                col, scaled, negated = leads.get(row) or lead_of(row)
                b = basis[col]
                if not b:
                    basis[col] = negated
                    joined += 1
                    break
                row = add(scaled, b)
        return joined

    def rank(self, word: int) -> int:
        """Rank over GF(q^2) of a packed t x t matrix."""
        t, bits = self.t, self.row_bits
        return self.reduce(word, range(0, t * bits, bits), [0] * t)

    def count_ranks(self, runs) -> list[int]:
        """counts[r]: the words of rank r among add(prefix, w), for each
        (prefix, words) of ``runs`` and each w of its words. The words must
        be Hermitian, and every such w must have zero top t // 2 rows (the
        head).

        So a word's head is its prefix's: the head rows are reduced once
        for each run whose prefix's head differs from the run before, and
        each word reduces only its other rows, into a copy of that state.
        This is :meth:`reduce` in one loop, with the lead lookup and the
        add inlined.

        A run whose words start with the zero word and then E, the unit
        at the last diagonal cell, lists the span of trailing generators
        that ends with E, so its words come in groups of q that differ
        only in E's coefficient; the words after its last whole group,
        and those of every other run, are groups of one. Only a group's
        first word M = [[A, c], [c*, d]] is reduced, and where its last
        row (c*, d) stops counts the whole group. Where that row joins at
        a column before the last, every word of the group gains one rank
        on [A | c]. Otherwise (c*, d) is nu e_last modulo the rows of
        [A | c], e_last the unit row of the last column; the group's last
        rows are (c*, x) for x in d + GF(q) = GF(q), and the word of x =
        d - nu keeps the rank of [A | c] while the others gain one (a
        group of one keeps it exactly when nu = 0). That x lies in GF(q)
        because the words are Hermitian: (c*, d - nu) = y [A | c] for
        some y, so c* = yA, hence c = Ay* as A = A*, and d - nu = yc =
        yAy*, a 1 x 1 Hermitian matrix, which conjugation fixes. Nor is
        a row of [A | c]'s span led by the last column, where the last
        row would reduce on to zero: such a row z [A | c] has zA = 0 and
        zc != 0, yet zc = zAy* = 0. The words of a :class:`LinearCode`
        are Hermitian, as its basis holds coordinates. The rule is
        elimination on each group's own rows, not a closed form, so this
        route stays apart from the eigenvalue and transform routes.
        """
        t, p, w1, carry, top = self.t, self.p, self.w - 1, self.carry, self.top
        q = self.field.q
        bits = self.row_bits
        row_mask = (1 << bits) - 1
        half = t // 2
        head_mask = (1 << (half * bits)) - 1
        head_shifts = range(0, half * bits, bits)
        tail_shifts = tuple(range(half * bits, t * bits, bits))
        first_of_group = [0, 1 << (t * t - 1) * self.cell_bits]  # 0, E
        leads, lead_of, reduce = self._lead, self._lead_of, self.reduce
        xor = p == 2
        counts = [0] * (t + 1)
        last = state = joined = listed = groups = None
        for prefix, words in runs:
            if prefix & head_mask != last:
                last = prefix & head_mask
                state = [0] * t
                joined = reduce(prefix, head_shifts, state)
            if words is not listed:  # most runs list the same words
                listed = words
                size = q if words[:2] == first_of_group else 1
                whole = len(words) - len(words) % size
                groups = ((words[:whole:size], size), (words[whole:], 1))
            for group, g in groups:
                for word in group:
                    if xor:
                        word ^= prefix
                    else:
                        s = prefix + word
                        word = s - (((s + carry) & top) >> w1) * p
                    basis = state[:]
                    r = joined
                    for shift in tail_shifts:
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
                            if xor:
                                row = scaled ^ b
                            else:
                                s = scaled + b
                                row = s - (((s + carry) & top) >> w1) * p
                    # row and col: where the last row stopped
                    if g > 1 and (not row or col == t - 1):  # nu e_last
                        r -= row != 0  # the rank of the rows above
                        counts[r] += 1  # the word of x = d - nu
                        counts[r + 1] += g - 1
                    else:
                        counts[r] += g
        return counts


# ----------------------------------------------------------- enumeration

def _run(scaled: list[list[int]], add) -> tuple[int, list[int]]:
    """(n, words): the span of the last n generators listed in index
    order, for the largest n >= 1 whose q^n words fit ``_RUN_LIMIT`` (one
    generator's span is its multiples, listed already); (0, [0]) for no
    generator."""
    n, words = (1, scaled[-1]) if scaled else (0, [0])
    for multiples in reversed(scaled[:-1]):
        if len(words) * len(multiples) > _RUN_LIMIT:
            break
        words = [add(x, w) for x in multiples for w in words]
        n += 1
    return n, words


def _runs(scaled: list[list[int]], base: int, start: int, stop: int, add,
          run: tuple[int, list[int]], prefix_run=None):
    """Words start..stop-1 of base + span(generators), in index order, as
    (prefix, words) pairs: add(prefix, w) for each w of the words.

    Word ``index`` adds to ``base`` the combination of the generators whose
    coefficients are the base-q digits of the index, the first generator's
    digit most significant; ``scaled[j][d]`` is generator j times the d-th
    subfield element. ``run`` (see :func:`_run`) lists the span of the
    last n generators of the enumeration that ``scaled`` ends, in which
    the span of fewer trailing generators is a leading slice. Each prefix
    of the other generators is summed once, by :func:`_words` with
    ``prefix_run``, and comes with the part of the list it serves.
    """
    n, listed = run
    size = len(listed)  # words per prefix, unless scaled is all listed
    first, last = start // size, -(-stop // size)
    prefixes = _words(scaled[:max(len(scaled) - n, 0)], base, first, last,
                      add, prefix_run)
    lo, hi = start - first * size, stop - (last - 1) * size
    if last - first == 1:
        return zip(prefixes, [listed[lo:hi]])
    return zip(prefixes, chain([listed[lo:]], repeat(listed, last - first - 2),
                               [listed[:hi]]))


def _words(scaled: list[list[int]], base: int, start: int, stop: int, add,
           run: tuple[int, list[int]] | None = None):
    """The words of :func:`_runs` one by one; ``run`` defaults to the last
    generator's multiples."""
    if not scaled:
        return iter([base] if start < stop else [])
    return chain.from_iterable(
        map(add, repeat(prefix), words) for prefix, words in
        _runs(scaled, base, start, stop, add, run or (1, scaled[-1])))


def _block_of(q: int, k: int, point: int) -> int:
    """The block (see :func:`_point_runs`) that holds a point."""
    j, end = 0, q ** (k - 1)
    while end <= point:
        j += 1
        end += q ** (k - 1 - j)
    return j


def _point_runs(scaled: list[list[int]], q: int, lo: int, hi: int, add,
                *runs):
    """Words lo..hi-1 of those whose first nonzero coefficient is 1, as
    the (prefix, words) pairs of :func:`_runs` with ``runs``.

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
            blocks.append(_runs(scaled[j + 1:], scaled[j][1], a - first,
                                b - first, add, *runs))
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
    subfield multiples, in ascending subfield index order. The points are
    word indices of the code's basis (see :func:`codeword_from_index`):
    those whose first nonzero coefficient is the first generator's, in
    index order, then those whose is the second's, and so on.
    Scaling by GF(q)* keeps the rank, so each point is ranked once and
    counts for the multiples the range holds. The generators with a
    nonzero head lead that basis and the others span K, the words whose
    top t // 2 rows are zero, so the points of each coset h + K are one
    contiguous run of that order: their head rows are reduced once, and
    each point reduces only its other rows. Where the basis ends with E,
    the unit at the last diagonal cell, one reduction of a point's last
    row ranks the q consecutive points that differ only in E's
    coefficient (the rule and its proof: :meth:`_Packing.count_ranks`).
    The guard applies to the whole code, so every split of [0, q^k) into
    ranges is refused or counted alike.
    """
    _check_enumeration(code, guard)
    if not 0 <= start <= stop <= code.size:
        raise UsageError(f"range [{start}, {stop}) outside [0, {code.size})")
    t, q = code.t, code.field.q
    m = q - 1
    first = max(start, 1)
    if first >= stop:
        return [int(start == 0 < stop)] + [0] * t
    pk = _Packing(code.field, t)
    lo, hi = (first - 1) // m, (stop - 2) // m + 1  # the points touched
    listed = _block_of(q, code.k, lo) + 1  # the first generator listed
    grids = _grids(code)
    n_head = sum(any(grid[:t // 2 * t]) for grid in grids)
    scaled = pk.generators(grids, listed)
    add = pk.add
    # words of K only, then, where they take all of K, the head generators
    tail = scaled[max(n_head, listed):]
    runs = (_run(tail, add),)
    if runs[0][0] >= len(tail):
        runs += (_run(scaled[listed:n_head], add),)
    counts = [n * m for n in pk.count_ranks(
        _point_runs(scaled, q, lo, hi, add, *runs))]
    counts[0] += start == 0
    # the first and last points touched may have multiples outside the range
    for point, outside in ((lo, first - 1 - lo * m),
                           (hi - 1, hi * m - (stop - 1))):
        prefix, words = next(_point_runs(scaled, q, point, point + 1, add,
                                         *runs))
        counts[pk.rank(add(prefix, words[0]))] -= outside
    return counts


def _grids(code: LinearCode) -> list[list[int]]:
    """The element indices of each generator of the code, row-major."""
    theta = _theta_index(code.field)
    return [_grid(code.field, code.t, row, theta) for row in code.basis]


def codeword_from_index(code: LinearCode, index: int) -> HermitianMatrix:
    """Decode an index in [0, q^k) to its codeword: the combination of the
    basis rows whose coefficients are the base-q digits of the index, the
    first row's digit most significant, each digit picking a subfield
    element in ascending index order."""
    if not 0 <= index < code.size:
        raise UsageError(f"codeword index {index} out of range")
    field = code.field
    add, mul, q = field.add, field.mul, field.q
    subfield = field.subfield_indices()
    coords = [0] * (code.t * code.t)
    for row in reversed(code.basis):
        index, digit = divmod(index, q)
        if digit:
            c = subfield[digit]
            coords = [add(x, mul(c, y)) for x, y in zip(coords, row)]
    return devectorize(field, code.t, coords, _theta_index(field))


def enumerate_codewords(code: LinearCode, guard: int | None = None):
    """All q^k codewords as matrices, in index order."""
    _check_enumeration(code, guard)
    for index in range(code.size):
        yield codeword_from_index(code, index)


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


def read_code(path: str) -> LinearCode:
    """The code in a JSON file; UsageError if it cannot be read or used,
    nested too deeply to parse included."""
    import json
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        return code_from_jsonable(obj)
    except (OSError, ValueError, KeyError, TypeError, OverflowError,
            RecursionError) as exc:
        raise UsageError(f"cannot read code from {path}: {exc}") from exc

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
on coordinates it is x G y^T for an invertible block-diagonal G, so the
dual is G^-1 applied to the null space of the basis (see :func:`dual_code`).

Enumeration has one kernel, on packed words: a whole t x t word is one
int with a lane per base-p digit of each cell (see ``_Packing``), so
adding two words is one ``^`` in characteristic 2 and one SWAR add
otherwise, and a row is a shift-and-mask slice. Word ``index`` of a
basis is the combination of its generators whose coefficients are the
base-q digits of the index, the first generator's digit most
significant, each digit picking a subfield element in ascending index
order. The points of a basis are its words whose first nonzero
coefficient is 1. ``_point_runs`` walks any range of them as (prefix,
words) pairs over L, a list of the span of the last few generators: each
point of the other generators, walked by the same function one level
down, is summed once and serves the whole of L, and the points led by
one of L's generators are that generator plus a leading slice of L.

:func:`rank_counts` counts in the index order of the code's basis,
whose trailing generators span K, with the packed elimination of
``_Packing``, written apart from ``hermitian_space.rank_of_rows``. It
ranks only the words whose first nonzero coefficient is 1, reduces the
head rows once per coset h + K, and, where the code holds E, the unit at
the last diagonal cell, ranks q words per reduction of a word's last row
(``_Packing.count_ranks`` states that rule and proves it).

An enumeration packs the q multiples of each generator from its basis
row, and lists at most ``_RUN_LIMIT`` words of K (or q, if more), shared
by every coset; a level down lists at most min(points it walks,
``_RUN_LIMIT``) words of its own trailing span (or q, if more). The
packing's memos fill as words need them and stay bounded (see
``_Packing``). :func:`rank_counts` is what :func:`weight_distribution`,
:func:`min_distance` and the CLI (census, ``wd`` and every ``--workers``
process) count with, and ranges of [0, q^k) split anywhere add up to the
whole distribution.
:func:`codeword_from_index` and :func:`enumerate_codewords` decode words
to matrices from the basis coordinates with plain field arithmetic, so
they share no code with the kernel.

A code comes from matrix objects (:func:`make_code`) or from a code file
(``codefile.code_from_jsonable``). Both hand grids of element indices to
``_span``, the one Hermitian check, which then vectorizes them.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from functools import lru_cache
from itertools import chain, repeat
from typing import TYPE_CHECKING

from ._value import Value
from .errors import (
    CheckFailed,
    MixedDimensions,
    NotHermitian,
    UsageError,
    ZeroCode,
)
from .cost import check_guard
from .fields import Field

if TYPE_CHECKING:  # hermitian is loaded only where matrices are built
    from .hermitian import HermitianMatrix


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
    from .hermitian import HermitianMatrix
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
    from .hermitian import HermitianMatrix
    if t < 1:
        raise UsageError(f"matrix size must be positive, got t={t}")
    for g in generators:
        if not isinstance(g, HermitianMatrix):
            raise NotHermitian(f"{g!r} is not a Hermitian matrix")
        if g.field != field or g.t != t:
            raise MixedDimensions("generator size or field does not match")
    return _span(field, t, [[x.index for row in g.entries for x in row]
                            for g in generators], "entries")


def _span(field: Field, t: int, grids: list[list[int]],
          rows: str) -> LinearCode:
    """The code spanned by t x t matrices, each given as its element
    indices, row-major. A matrix that differs from its conjugate transpose
    is refused, naming the first cell that does as
    ``generators[n].<rows>[i][j]``, on or below the diagonal."""
    conj = field.conj_index
    for n, grid in enumerate(grids):
        for i in range(t):
            for j in range(i + 1):
                if grid[i * t + j] != conj(grid[j * t + i]):
                    cell = f"generators[{n}].{rows}"
                    raise NotHermitian(f"{cell}[{i}][{j}]: " + (
                        f"not the conjugate of {cell}[{j}][{i}]" if i != j
                        else "outside the conjugation-fixed subfield"))
    theta = _theta_index(field)
    return LinearCode(field, t, [vectorize(field, t, grid, theta)
                                 for grid in grids])


def dual_code(code: LinearCode) -> LinearCode:
    """All Hermitian matrices orthogonal to the code under the trace form.

    On subfield coordinates it is x G y^T, as Tr(conj(u + v theta)(u' +
    v' theta)) = 2uu' + (uv' + vu')T + 2vv'N with T = theta + conj(theta)
    and N = theta conj(theta): G is 1 at a diagonal coordinate and
    [[2, T], [T, 2N]] at the (u, v) of an upper entry, of determinant
    -(theta - conj(theta))^2 != 0. So the dual is G^-1 applied to the
    null space of the basis, which the basis's pivots give.
    """
    field, t = code.field, code.t
    add, mul, neg, conj = field.add, field.mul, field.neg, field.conj_index
    theta, two = _theta_index(field), add(1, 1)
    trace, norm = add(theta, conj(theta)), mul(theta, conj(theta))
    s = field.inv(field.sub(mul(two, mul(two, norm)), mul(trace, trace)))
    # a block of G^-1: s [[2N, -T], [-T, 2]]
    uu, uv, vv = mul(s, mul(two, norm)), mul(s, neg(trace)), mul(s, two)
    # row i's diagonal coordinate is at i(2t - i), its upper pairs follow
    pairs = [u for i in range(t)
             for u in range(i * (2 * t - i) + 1, (i + 1) * (2 * t - i - 1), 2)]
    pivots = [row.index(1) for row in code.basis]  # each row leads with 1
    rows = []
    for f in sorted(set(range(t * t)) - set(pivots)):  # a null vector each
        y = [0] * (t * t)
        y[f] = 1
        for r, p in zip(code.basis, pivots):
            y[p] = neg(r[f])
        for u in pairs:
            a, b = y[u], y[u + 1]
            if a or b:
                y[u] = add(mul(uu, a), mul(uv, b))
                y[u + 1] = add(mul(uv, a), mul(vv, b))
        rows.append(y)
    dual = LinearCode(field, t, rows)
    if dual.k != t * t - code.k:
        raise CheckFailed(f"the dual has {dual.k} dimensions, not "
                          f"t^2 - k = {t * t - code.k}")
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

    :meth:`reduce` inserts rows into a basis keyed by lead column. A row
    is first scaled to lead 1; if that column already has a basis row, the
    difference of the two replaces the row (same span, that column
    cleared), else the scaled row joins the basis. The lead column is the
    lowest set bit of the row; the scaled row and its negative are cached
    per row in a dict filled on first use, as are, for odd p, the
    conversions between a cell's lanes and its element index.
    :meth:`count_ranks` runs the same elimination inline over many words,
    sums of what :meth:`generators` packs from basis rows. Nothing is
    built up front. The lead memo starts over when it reaches
    ``_CACHE_LIMIT`` entries. The two conversion memos need no cap: each
    is keyed by element indices or by the lanes of one, every lane below
    p, so it holds at most ``field.order`` entries, and no field is
    larger than ``fields.MAX_FIELD_ORDER`` = 2^16. :func:`rank_counts`
    keeps the packing of the last field and size it counted (see
    :func:`_packing`), so consecutive enumerations over one field and size,
    such as a code and its dual, share the memos; none is kept on the
    field, so a pickled field carries none of it.
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

    def generators(self, basis) -> list[list[int]]:
        """scaled[j][d]: the word of basis row j (subfield coordinates, see
        :func:`vectorize`) times the d-th subfield element, in ascending
        index order, so scaled[j][0] is zero and scaled[j][1] the word
        itself."""
        field, t, bits = self.field, self.t, self.cell_bits
        mul, cell, theta = field.mul, self.cell, _theta_index(field)
        others = field.subfield_indices()[2:]
        scaled = []
        for row in basis:
            cells = [(pos * bits, x) for pos, x
                     in enumerate(_grid(field, t, row, theta)) if x]
            scaled.append([0, sum(cell(x) << shift for shift, x in cells),
                           *(sum(cell(mul(s, x)) << shift for shift, x in cells)
                             for s in others)])
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


@lru_cache(maxsize=1)
def _packing(field: Field, t: int) -> _Packing:
    """The packing for t x t matrices over the field, kept until an
    enumeration asks for another field or size."""
    return _Packing(field, t)


# ----------------------------------------------------------- enumeration

def _run(scaled: list[list[int]], add, limit: int) -> tuple[int, list[int]]:
    """(n, words): the span of the last n generators listed in index
    order, for the largest n >= 1 whose q^n words fit the limit (one
    generator's span is its multiples, listed already); (0, [0]) for no
    generator."""
    n, words = (1, scaled[-1]) if scaled else (0, [0])
    for multiples in reversed(scaled[:-1]):
        if len(words) * len(multiples) > limit:
            break
        words = [add(x, w) for x in multiples for w in words]
        n += 1
    return n, words


def _point_runs(scaled: list[list[int]], lo: int, hi: int, add,
                run: tuple[int, list[int]]):
    """Points lo..hi-1 of ``scaled``, the words whose first nonzero
    coefficient is 1 in kernel order (see :func:`rank_counts`), as
    (prefix, words) pairs: add(prefix, w) for each w of the words.

    ``scaled[j][d]`` is generator j times the d-th subfield element, and
    ``run`` (see :func:`_run`) lists L, the span of the last n generators.
    The points led by one of the others, the lead, are the lead's own
    points in kernel order, each followed by every word of L. The points
    led by one of the last n are that generator plus a leading slice of L,
    the span of the generators after it.
    """
    n, listed = run
    k, size = len(scaled), len(listed)
    q = len(scaled[0])
    start = size * (q ** (k - n) - 1) // (q - 1)  # points led by the lead
    runs = []
    if lo < start:
        top = min(hi, start)
        a, b = lo // size, -(-top // size)  # the lead's points touched
        lo_cut, hi_cut = lo - a * size, top - (b - 1) * size
        slices = [listed[lo_cut:hi_cut]] if b - a == 1 else chain(
            [listed[lo_cut:]], repeat(listed, b - a - 2), [listed[:hi_cut]])
        runs.append(zip(_points(scaled[:k - n], a, b, add), slices))
    for j in range(k - n, k):  # generator j plus the span of those after it
        block = q ** (k - 1 - j)
        if lo < start + block and start < hi:
            runs.append([(scaled[j][1],
                          listed[max(lo - start, 0):min(hi - start, block)])])
        start += block
    return chain.from_iterable(runs)


def _points(scaled: list[list[int]], lo: int, hi: int, add):
    """The words of :func:`_point_runs` one by one, over a list of at most
    min(hi - lo, ``_RUN_LIMIT``) words of the trailing span (or q, if
    more)."""
    run = _run(scaled, add, min(hi - lo, _RUN_LIMIT))
    return chain.from_iterable(
        map(add, repeat(prefix), words)
        for prefix, words in _point_runs(scaled, lo, hi, add, run))


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
    counts for the multiples the range holds. Each generator is packed
    from its basis row with all q multiples. The generators with a
    nonzero head lead that basis and the others span K, the words whose
    top t // 2 rows are zero, so the points of each coset h + K are one
    contiguous run of that order: their head rows are reduced once, and
    each point reduces only its other rows. The walk lists L, the span of
    K's last generators (at most ``_RUN_LIMIT`` words, or q if more),
    once: each point of the generators before them is followed by every
    word of L, and a point led by one of L's generators is that generator
    plus a leading slice of L (see :func:`_point_runs`). Where the basis
    ends with E, the unit at the last diagonal cell, one reduction of a
    point's last row ranks the q consecutive points that differ only in
    E's coefficient (the rule and its proof: :meth:`_Packing.count_ranks`).
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
    pk = _packing(code.field, t)
    lo, hi = (first - 1) // m, (stop - 2) // m + 1  # the points touched
    head = t * t - (t - t // 2) ** 2  # coordinates of the top t // 2 rows
    n_head = sum(any(row[:head]) for row in code.basis)
    scaled, add = pk.generators(code.basis), pk.add
    run = _run(scaled[n_head:], add, _RUN_LIMIT)  # words of K only
    runs = _point_runs(scaled, lo, hi, add, run)
    first_run = next(runs)  # its first word is point lo
    counts = [n * m for n in pk.count_ranks(chain([first_run], runs))]
    counts[0] += start == 0
    # the first and last points touched may have multiples outside the range
    last_run = next(_point_runs(scaled, hi - 1, hi, add, run))
    for (prefix, words), outside in ((first_run, first - 1 - lo * m),
                                     (last_run, hi * m - (stop - 1))):
        counts[pk.rank(add(prefix, words[0]))] -= outside
    return counts


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


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
and k and the generator matrices follow from it.

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
coefficient is 1. ``_points`` walks any range of them over S, a list of
the span of the last few generators: each point of the other generators,
walked by the same function one level down, is summed once with every
word of S, and the points led by one of S's generators are that
generator plus a leading slice of S.

:func:`rank_counts` counts in the index order of the enumeration basis
(see ``_enumeration_basis``) with the packed elimination of
``_Packing``, written apart from ``hermitian_space.rank_of_rows``. It
ranks only the words whose first nonzero coefficient is 1. Where the
code holds E, the unit at the last diagonal cell, the enumeration basis
ends with the basis rows that lie on the last row and column, E last,
which span W, so each coset of W is a run of the order. The words of a
coset share their top-left (t - 1)-block A, and one reduction of A, with
an elimination over GF(p) that counts the coset's last columns in the
column space of A, ranks all of them (``_Packing.count_cosets`` states
that rule and proves it). Any other point, and every point of a code
without E, is ranked by itself, all its rows reduced.

An enumeration packs the q multiples of each generator from its basis
row, and each level of the walk lists at most min(points it walks,
``_RUN_LIMIT``) words of its trailing span (or q, if more). The
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
    IndexOutOfRange,
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
    reduces their coordinates to its basis."""
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


def _enumeration_basis(t: int, basis) -> tuple[list[tuple[int, ...]], int]:
    """(rows, w): the code's basis rows in the order the kernel enumerates
    them, and the dimension of the span W of the last w.

    For a code that holds E, the unit at the last diagonal cell, so that
    its basis ends with E, the last w rows are those zero off L, the words
    supported on the last column and the last diagonal cell (2t - 1
    coordinates: the last pair of each row above the last, and the last
    one), in their order, so E is last; the others come first, in theirs.
    W then holds E and lies in L, which is all the rule of
    :meth:`_Packing.count_cosets` asks of it. Every other code is
    enumerated on its basis as it stands, with w = 0."""
    n = t * t
    if not basis or tuple(basis[-1]) != (0,) * (n - 1) + (1,):
        return list(basis), 0
    # the last pair of row i - 1 ends where row i's diagonal coordinate is
    cut = {c for i in range(1, t) for c in (i * (2 * t - i) - 2,
                                            i * (2 * t - i) - 1)} | {n - 1}
    off = [c for c in range(n) if c not in cut]
    front, inside = [], []
    for row in basis:
        (front if any(row[c] for c in off) else inside).append(tuple(row))
    return front + inside, len(inside)


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
    cell's lanes are its element index. The lanes of a word are its
    coordinates over GF(p), so a GF(p)-multiple of a word is a few adds.

    :meth:`reduce` inserts rows into a basis keyed by lead column. A row
    is first scaled to lead 1; if that column already has a basis row, the
    difference of the two replaces the row (same span, that column
    cleared), else the scaled row joins the basis. The lead column is the
    lowest set bit of the row; the scaled row and its negative are cached
    per row in a dict filled on first use, as are, for odd p, the
    conversions between a cell's lanes and its element index.
    :meth:`count_ranks` runs the same elimination inline over many words,
    sums of what :meth:`generators` packs from basis rows, and
    :meth:`count_cosets` over the top-left blocks of whole cosets of W
    (see :func:`_enumeration_basis`). Nothing is built up front. The lead
    memo starts over when it reaches ``_CACHE_LIMIT`` entries. The two
    conversion memos need no cap: each is keyed by element indices or by
    the lanes of one, every lane below p, so it holds at most
    ``field.order`` entries, and no field is larger than
    ``fields.MAX_FIELD_ORDER`` = 2^16. :func:`rank_counts` keeps the
    packing of the last field and size it counted (see :func:`_packing`),
    so consecutive enumerations over one field and size, such as a code
    and its dual, share the memos; none is kept on the field, so a
    pickled field carries none of it.
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

    def times(self, a: int, c: int) -> int:
        """c a, for c in GF(p): every lane times c, by doubling."""
        add, total = self.add, 0
        while c:
            if c & 1:
                total = add(total, a)
            a = add(a, a)
            c >>= 1
        return total

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

    def enumeration(self, basis):
        """(scaled, w, lasts) for a code's basis: the enumeration basis's
        generators (see :func:`_enumeration_basis` and :meth:`generators`),
        the dimension w of W, the span of the last w, and the last rows
        (c*, 0) of a basis over GF(p) of the words of W other than E's
        multiples: each of W's generators but E times each element of a
        basis of GF(q) over GF(p)."""
        rows, w = _enumeration_basis(self.t, basis)
        scaled = self.generators(rows)
        t, bits = self.t, self.row_bits
        block = (1 << (t - 1) * self.cell_bits) - 1
        spanned: dict[int, int] = {}
        places = [d for d, x in enumerate(self.field.subfield_indices())
                  if self.join(self.cell(x), spanned)]
        lasts = [(multiples[d] >> (t - 1) * bits) & block
                 for multiples in scaled[len(scaled) - w:-1] for d in places]
        return scaled, w, lasts

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

    def reduce(self, word: int, shifts, basis: list[int],
               mask: int | None = None) -> int:
        """Insert the rows of a packed word at ``shifts``, each cut to
        ``mask`` (its first cells) if given, into ``basis`` (basis[c]:
        minus the basis row with lead c, else 0) and return how many
        joined it."""
        row_mask = (1 << self.row_bits) - 1 if mask is None else mask
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

    def residue(self, row: int, basis: list[int]) -> int:
        """The row minus the combination of the rows of ``basis`` (as
        :meth:`reduce` leaves it) that clears each of their lead columns,
        column by column from the first: zero exactly when the row lies in
        their span, and linear in the row. Each step is :meth:`reduce`'s,
        which divides the row by its lead, so ``s`` keeps the product of
        those leads to scale what is left back."""
        mul, index, cell = self.field.mul, self.index, self.cell
        add, leads, lead_of = self.add, self._lead, self._lead_of
        bits, mask = self.cell_bits, self.cell_mask
        left, s = 0, 1
        while row:
            col, scaled, negated = leads.get(row) or lead_of(row)
            shift = col * bits
            lead = (row >> shift) & mask
            b = basis[col]
            if b:
                s = mul(s, index(lead))
                row = add(scaled, b)
            else:  # a column no row of the basis leads stays
                left |= cell(mul(s, index(lead))) << shift
                row ^= lead << shift
        return left

    def join(self, v: int, spanned: dict[int, int]) -> bool:
        """Insert a word into ``spanned``, a basis over GF(p) keyed by the
        lowest nonzero lane of each element, held times -1 over that lane;
        return whether it joined (False: it lies in their span)."""
        add, p, w = self.add, self.p, self.w
        lane = (1 << w) - 1
        while v:
            at = ((v & -v).bit_length() - 1) // w
            digit = (v >> at * w) & lane
            b = spanned.get(at)
            if b is None:
                spanned[at] = self.times(self.neg(v), pow(digit, -1, p))
                return True
            v = add(v, self.times(b, digit))
        return False

    def count_ranks(self, words) -> list[int]:
        """counts[r]: the words of rank r among ``words``. This is
        :meth:`rank` in one loop, with the lead lookup and the add inlined.
        Each word is ranked by itself: where a code holds E,
        :func:`rank_counts` hands the whole cosets of W to
        :meth:`count_cosets` and only the other points to this loop.
        """
        t, p, w1, carry, top = self.t, self.p, self.w - 1, self.carry, self.top
        bits = self.row_bits
        row_mask = (1 << bits) - 1
        shifts = tuple(range(0, t * bits, bits))
        leads, lead_of = self._lead, self._lead_of
        xor = p == 2
        counts = [0] * (t + 1)
        for word in words:
            basis = [0] * t
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
                    if xor:
                        row = scaled ^ b
                    else:
                        s = scaled + b
                        row = s - (((s + carry) & top) >> w1) * p
            counts[r] += 1
        return counts

    def count_cosets(self, words, lasts: list[int], w: int) -> list[int]:
        """counts[r]: the words of rank r in the cosets M + W, for each word
        M of ``words``, where W, of dimension w, holds E and lies in L (see
        :func:`_enumeration_basis`), and ``lasts`` are the last rows of a
        basis of W over GF(p) less E's multiples (see :meth:`enumeration`).

        Write M = [[A, c0], [c0*, d0]], A the top-left (t - 1)-block. Every
        word of M + W has the block A, its last column runs over c0 + V,
        V the last columns of W, and each such c comes with all q corners
        d, as W holds E. Let r = rank A. If c lies in the column space of
        A, c = Ay, the word [[A, c], [c*, d]] has rank r for d = y*Ay and
        r + 1 for the q - 1 other d. That one d lies in GF(q), since
        y*Ay is a 1 x 1 Hermitian matrix (A = A*), and c* = y*A, so the
        last row (c*, d) is a combination of the rows above it exactly for
        that d. Otherwise the rows of [A | c] have rank r + 1, and the last
        row is no combination of them, whatever d: (c*, d) = z [A | c]
        would give c* = zA and c = Az*. So the q |V| words of the coset
        hold n of rank r, n (q - 1) of rank r + 1 and (|V| - n) q of rank
        r + 2, where n = |(c0 + V) ∩ col A|.

        c lies in col A exactly when c* lies in A's row space, so when
        :meth:`residue` takes c* to zero against A's reduced rows. The
        residue is linear, so (c0 + V) ∩ col A is empty unless c0*'s
        residue lies in the span of V*'s residues over GF(p), and is
        otherwise a coset of V ∩ col A, the residues' kernel in V: n =
        p^(dim V - rank of the residues), dimensions over GF(p). One
        reduction of A decides the q |V| words. It is elimination on the
        coset's own rows, not a closed form, so this route stays apart
        from the eigenvalue and transform routes.
        """
        t, p, q = self.t, self.p, self.field.q
        bits = self.row_bits
        block = (1 << (t - 1) * self.cell_bits) - 1  # a row's first t - 1 cells
        shifts = range(0, (t - 1) * bits, bits)
        last = (t - 1) * bits
        size = q ** (w - 1)  # |V|
        reduce, residue, join = self.reduce, self.residue, self.join
        counts = [0] * (t + 1)
        for word in words:
            basis = [0] * t
            r = reduce(word, shifts, basis, block)
            if r == t - 1:  # col A is everything
                n = size
            else:
                spanned: dict[int, int] = {}
                for v in lasts:
                    join(residue(v, basis), spanned)
                inside = not join(residue((word >> last) & block, basis),
                                  spanned)
                n = p ** (len(lasts) - len(spanned)) if inside else 0
            counts[r] += n
            counts[r + 1] += n * (q - 1)
            if n < size:
                counts[r + 2] += (size - n) * q
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


def _points(scaled: list[list[int]], lo: int, hi: int, add):
    """The words of points lo..hi-1 of ``scaled``, the words whose first
    nonzero coefficient is 1 in kernel order (see :func:`rank_counts`).

    ``scaled[j][d]`` is generator j times the d-th subfield element. The
    walk lists S, the span of the last n generators, in at most min(hi -
    lo, ``_RUN_LIMIT``) words (or q, if more; see :func:`_run`). The points
    led by one of the others, the lead, are the lead's own points in
    kernel order, walked by this function one level down, each followed
    by its sum with every word of S. The points led by one of the last n
    are that generator plus a leading slice of S, the span of the
    generators after it.
    """
    n, listed = _run(scaled, add, min(hi - lo, _RUN_LIMIT))
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
    return chain.from_iterable(map(add, repeat(prefix), words)
                               for prefix, words in chain.from_iterable(runs))


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
    word indices of the enumeration basis (see :func:`_enumeration_basis`;
    :func:`codeword_from_index` decodes those of the code's basis), which
    is the code's basis unless the code holds E, the unit at the last
    diagonal cell: those whose first nonzero coefficient is the first
    generator's, in index order, then those whose is the second's, and so
    on. Scaling by GF(q)* keeps the rank, so each point is ranked once and
    counts for the multiples the range holds. Each generator is packed
    from its basis row with all q multiples.

    Where the code holds E, the last w generators are its basis rows on
    the last column and the last diagonal cell, E last, and span W, so the
    points of each coset M + W outside W are q^w consecutive points, and
    the cosets' first points M are the points of the generators before W.
    A coset the range holds whole is counted by one reduction of its
    top-left block (the rule and its proof: :meth:`_Packing.count_cosets`).
    The points of a coset the range cuts, and those of W, are ranked one
    by one, as one stream of words from :func:`_points`, which lists S, the
    span of the last few generators (at most ``_RUN_LIMIT`` words, or q if
    more), once: each point of the generators before them is followed by
    its sum with every word of S. The guard applies to the whole code, so
    every split of [0, q^k) into ranges is refused or counted alike.
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
    add = pk.add
    scaled, w, lasts = pk.enumeration(code.basis)
    lo, hi = (first - 1) // m, (stop - 2) // m + 1  # the points touched
    size, outer = q ** w, len(scaled) - w
    # the cosets of W outside W the range holds whole
    a, b = -(-lo // size), min(hi // size, (q ** outer - 1) // m)
    counts = [0] * (t + 1)
    pieces = [(lo, hi)]
    if w and a < b:
        counts = pk.count_cosets(_points(scaled[:outer], a, b, add), lasts, w)
        pieces = [(lo, a * size), (b * size, hi)]
    ranked = pk.count_ranks(chain.from_iterable(
        _points(scaled, x, y, add) for x, y in pieces if x < y))
    counts = [(x + y) * m for x, y in zip(counts, ranked)]
    counts[0] += start == 0
    # the first and last points touched may have multiples outside the range
    for point, outside in ((lo, first - 1 - lo * m),
                           (hi - 1, hi * m - (stop - 1))):
        if outside:
            word = next(_points(scaled, point, point + 1, add))
            counts[pk.rank(word)] -= outside
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

    Returns {"bound": int, "is_mhrd": bool}. A given d outside 1..t is
    refused with IndexOutOfRange before any word is counted. A size above
    the bound means a bug somewhere upstream and raises CheckFailed.
    """
    q, t = code.field.q, code.t
    if min_dist is not None and not 1 <= min_dist <= t:
        raise IndexOutOfRange(f"need 1 <= d <= t, got d={min_dist} t={t}")
    d = min_distance(code, guard) if min_dist is None else min_dist
    bound = q ** (t * (t - d + 1))
    if code.size > bound:
        raise CheckFailed(
            f"code of size {code.size} exceeds the bound {bound} for d={d}")
    return {"bound": bound, "is_mhrd": code.size == bound}


"""Code construction, weight distributions, and trace-form duality."""

import random
import sys
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from hrmc import codes
from hrmc.codefile import code_from_jsonable
from hrmc.codes import (
    WeightDistribution,
    codeword_from_index,
    dual_code,
    enumerate_codewords,
    make_code,
    min_distance,
    rank_counts,
    singleton_check,
    weight_distribution,
)
from hrmc.errors import (
    CheckFailed,
    EnumerationTooLarge,
    IndexOutOfRange,
    MixedDimensions,
    NotHermitian,
    UsageError,
    ZeroCode,
)
from hrmc.fields import FieldElement, make_field
from hrmc.hermitian import HermitianMatrix, zero_matrix
from hrmc.hermitian_space import (
    enumerate_hermitian,
    hermitian_from_index,
    inner_product,
    rank,
    rank_of_rows,
    total_hermitian,
)
from hrmc.verify import random_code, sample_codes


def _mat(field, rows):
    return HermitianMatrix(field, len(rows),
                           tuple(tuple(field.from_index(x) for x in r)
                                 for r in rows))


def test_example_code_distribution(example_code):
    wd = weight_distribution(example_code)
    assert wd.counts == (1, 0, 3, 4)
    assert example_code.k == 3
    assert example_code.size == 8


def test_example_dual(example_code):
    dual = dual_code(example_code)
    assert dual.size == 64
    assert weight_distribution(dual).counts == (1, 3, 24, 36)
    assert dual_code(dual) == example_code


def test_dual_by_brute_filter(example_code):
    """The null-space dual must equal the definition: every matrix whose
    trace pairing with all codewords vanishes."""
    f4 = example_code.field
    dual = dual_code(example_code)
    filtered = {
        m for m in enumerate_hermitian(f4, 3)
        if all(inner_product(m, g).index == 0 for g in example_code.generators)
    }
    assert set(enumerate_codewords(dual)) == filtered


def _unit_matrices(field, t):
    """The matrix of each unit subfield coordinate, in coordinate order."""
    theta = codes._theta_index(field)
    return [codes.devectorize(field, t, [int(c == pos) for c in range(t * t)],
                              theta)
            for pos in range(t * t)]


def _reference_dual(code):
    """The dual by the definition's route: pair the unit matrices with
    every generator by inner_product, solve for the null space and let
    make_code reduce it."""
    field, t = code.field, code.t
    units = _unit_matrices(field, t)
    if code.k == 0:
        return make_code(field, t, units)
    system = [[inner_product(e, g).index for e in units]
              for g in code.generators]
    reduced, pivots = codes._rref(field, system)
    assert len(pivots) == code.k
    null_vectors = []
    for f in (c for c in range(t * t) if c not in pivots):
        coords = [0] * (t * t)
        coords[f] = 1
        for r, p in enumerate(pivots):
            coords[p] = field.neg(reduced[r][f])
        null_vectors.append(coords)
    theta = codes._theta_index(field)
    return make_code(field, t, [codes.devectorize(field, t, v, theta)
                                for v in null_vectors])


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_dual_matches_the_inner_product_system(p, m, t):
    field = make_field(p, m)
    for seed in range(3):
        code = random_code(field, t, random.Random(f"dual:{p}:{m}:{t}:{seed}"))
        dual = dual_code(code)
        assert dual == _reference_dual(code)
        assert dual_code(dual) == code


def test_dual_code_checks_the_system_rank(monkeypatch, example_code):
    """The dimension check is a raise, not an assert, so it holds under
    -O: a dual that loses a dimension in its reduction is refused."""
    rref = codes._rref

    def lossy(field, rows):
        reduced, pivots = rref(field, rows)
        return reduced[:-1], pivots[:-1]

    monkeypatch.setattr(codes, "_rref", lossy)
    with pytest.raises(CheckFailed,
                       match=r"dual has 5 dimensions, not t\^2 - k = 6"):
        dual_code(example_code)


@pytest.mark.parametrize("combo", [(2, 2), (2, 3), (3, 2)])
def test_corpus_duality(code_corpus, combo, fields):
    q, t = combo
    for sample in code_corpus[combo]:
        assert sample.code.size * sample.dual.size == q ** (t * t)
        assert sample.dual.k == t * t - sample.code.k
        assert dual_code(sample.dual) == sample.code


@pytest.mark.parametrize("combo", [(2, 2), (2, 3)])
def test_corpus_dual_matches_filter(code_corpus, fields, combo):
    q, t = combo
    field = fields[q]
    for sample in code_corpus[combo][:5]:
        words = set(enumerate_codewords(sample.code))
        filtered = {m for m in enumerate_hermitian(field, t)
                    if all(inner_product(m, w).index == 0 for w in words)}
        assert set(enumerate_codewords(sample.dual)) == filtered


@pytest.mark.parametrize("combo", [(2, 2), (2, 3), (3, 2)])
def test_rank_counts_ranges_add_up(code_corpus, combo):
    """Counts over [0, a) and [a, q^k) sum to the whole distribution, for
    splits at 1, a third (uneven when q = 3) and one before the end."""
    for sample in code_corpus[combo]:
        for c in (sample.code, sample.dual):
            whole = list(weight_distribution(c).counts)
            for a in sorted({0, 1, c.size // 3, c.size - 1, c.size}):
                halves = zip(rank_counts(c, 0, a), rank_counts(c, a, c.size))
                assert [x + y for x, y in halves] == whole


def _counts_by_rank(code):
    """Distribution through enumerate_codewords and hermitian.rank, an
    elimination apart from the kernel's."""
    counts = [0] * (code.t + 1)
    for word in enumerate_codewords(code):
        counts[rank(word)] += 1
    return counts


@pytest.mark.parametrize("p,m", [(2, 2), (5, 1)])
def test_rank_counts_split_inside_projective_groups(p, m):
    """At q = 4 and q = 5 the kernel ranks one word for each group of 3 or
    4 nonzero multiples; a split at every a in [0, q^k], inside a group or
    not, still counts every multiple on exactly one side."""
    field = make_field(p, m)
    code = next(c for s in sample_codes(field, 2, 10, 0)
                for c in (s.code, s.dual) if c.k == 3)
    whole = _counts_by_rank(code)
    assert list(weight_distribution(code).counts) == whole
    for a in range(code.size + 1):
        halves = zip(rank_counts(code, 0, a), rank_counts(code, a, code.size))
        assert [x + y for x, y in halves] == whole


def _random_code(field, t, k, seed, start=()):
    """A code of dimension k: the span of ``start`` and random matrices."""
    rng = random.Random(seed)
    code = make_code(field, t, list(start))
    while code.k < k:
        extra = hermitian_from_index(field, t,
                                     rng.randrange(total_hermitian(field, t)))
        code = make_code(field, t, [*code.generators, extra])
    return code


def _with_zero_head(field, t, dim_k, extra, seed):
    """A code holding dim_k unit matrices whose top t // 2 rows are zero,
    so its zero-head subcode K has at least that dimension, and ``extra``
    random matrices."""
    rng = random.Random(seed)
    units = [u for u in _unit_matrices(field, t)
             if not any(x.index for row in u.entries[:t // 2] for x in row)]
    return make_code(field, t, units[:dim_k] + [
        hermitian_from_index(field, t,
                             rng.randrange(total_hermitian(field, t)))
        for _ in range(extra)])


def _heads(code):
    """The generators of the code's basis with a nonzero cell in the top
    t // 2 rows (the head); they lead the basis, and the others span K."""
    return sum(any(x.index for row in g.entries[:code.t // 2] for x in row)
               for g in code.generators)


def _w_dim(code):
    """The dimension of W, the words of the code whose top-left (t - 1)
    block is zero (so they lie on the last row and column), where the
    code holds E, the unit at the last diagonal cell; 0 where it does not.
    Counted word by word."""
    t, q = code.t, code.field.q
    inside = [word for word in enumerate_codewords(code)
              if not any(x.index for row in word.entries[:t - 1]
                         for x in row[:t - 1])]
    if _unit_matrices(code.field, t)[-1] not in inside:
        return 0
    w = 0
    while q ** w < len(inside):
        w += 1
    assert q ** w == len(inside)
    return w


def _coset_cuts(code):
    """Kernel indices at every boundary of a coset h + K in the code's
    basis, K the span of its generators whose top t // 2 rows (the head)
    are zero (the points of a block past the generators with a nonzero
    head count as one coset), one index either side of it, one inside its
    first group of q - 1 multiples, and one in the middle of the coset;
    and, where the code holds E, the same at every boundary of a coset
    M + W of W, the span of the enumeration basis's last w rows, whose
    q^w points the kernel walks in a row."""
    q, k, m = code.field.q, code.k, code.field.q - 1
    heads = _heads(code)
    cuts, first = set(), 0
    for j in range(k):
        block = q ** (k - 1 - j)
        step = q ** (k - heads) if j < heads else block
        for point in range(first, first + block, step):
            cuts.update(1 + point * m + d for d in (-1, 0, 1, m // 2))
            cuts.add(1 + (point + step // 2) * m)
        first += block
    w = codes._enumeration_basis(code.t, code.basis)[1]
    if w:
        cosets = (q ** (k - w) - 1) // m  # the points before W's own
        for point in range(0, (cosets + 1) * q ** w, q ** w):
            cuts.update(1 + point * m + d for d in (-1, 0, 1, m // 2))
    return sorted(a for a in cuts if 0 < a < code.size)


@pytest.mark.parametrize("p,m,t", [(2, 1, 1), (3, 1, 1), (2, 1, 2), (2, 1, 3),
                                   (2, 1, 4), (2, 2, 2), (3, 1, 2), (3, 1, 3),
                                   (3, 2, 2), (5, 1, 2), (7, 1, 2)])
def test_rank_counts_with_tiny_memos(monkeypatch, p, m, t):
    """With a packing's lead memo starting over at 2 entries, and the
    walk's listed span of the trailing generators at the default
    ``_RUN_LIMIT`` or cut to one generator, rank_counts equals a count
    through hermitian_space.rank, whole and as the sum of the ranges
    between all the cuts of _coset_cuts. The codes, described by K, their
    words whose top t // 2 rows (the head) are zero: one whose head map
    is injective (dim K = 0, for t >= 2), one whose K has at least two
    dimensions where t >= 3, more words than the cut run lists, and one
    of up to 256 words, whose points are walked several levels down; at
    t >= 2 also two of up to 256 words below the whole space, one holding
    E, the unit at the last diagonal cell, whose whole cosets of W are
    counted by one reduction of their top-left block each, and one
    without E, counted a point at a time; at t = 1 the head is empty and
    K is the whole code."""
    codes._packing.cache_clear()  # each memo starts empty, as it starts over
    monkeypatch.setattr(codes, "_CACHE_LIMIT", 2)
    field = make_field(p, m)
    q = field.q
    tail = (t - t // 2) * (t - t // 2)  # dimension of the zero-head space
    small = min(2, t * t)
    above = min(t * t, max(4, max(k for k in range(t * t + 1)
                                  if q ** k <= 256)))
    cases = [_random_code(field, t, small, seed=small),
             _with_zero_head(field, t, min(2, tail), 1 + (q < 5), seed=t),
             _random_code(field, t, above, seed=above)]
    dims = [code.k - _heads(code) for code in cases]
    if t >= 2:
        assert dims[0] == 0
        unit = _unit_matrices(field, t)[-1]
        k = max(k for k in range(1, t * t) if q ** k <= 256)
        drawn = (_random_code(field, t, k, seed) for seed in range(20))
        cases += [_random_code(field, t, k, seed=k, start=[unit]),
                  next(c for c in drawn if c.generators[-1] != unit)]
        assert cases[-2].generators[-1] == unit
    assert dims[1] >= min(2, tail)
    for limit in (codes._RUN_LIMIT, q):
        monkeypatch.setattr(codes, "_RUN_LIMIT", limit)
        for code in cases:
            whole = _counts_by_rank(code)
            assert rank_counts(code, 0, code.size) == whole
            cuts = [0, *_coset_cuts(code), code.size]
            parts = [rank_counts(code, a, b) for a, b in zip(cuts, cuts[1:])]
            assert [sum(column) for column in zip(*parts)] == whole


def test_a_cut_run_limit_bounds_every_list(monkeypatch):
    """``_RUN_LIMIT`` is read on each count. The code of every matrix at
    q=2, t=3 whose last diagonal cell is zero (so it lacks E, and is
    counted point by point) has 8 generators and 255 points, each handed
    to ``count_ranks`` once as a word. At the default limit the walk lists
    the 128 words of the span of the last 7 generators, fewer than the
    points it walks, and one level down the first generator's one point
    is walked over a list of its q multiples. Cut to q, every list holds
    one generator's q words, so the walk goes down one level per
    generator. The counts are the same either way."""
    field = make_field(2, 1)
    code = codes.LinearCode(field, 3,
                            dual_code(make_code(field, 3, [])).basis[:-1])
    want = _counts_by_rank(code)
    real_count, real_run = codes._Packing.count_ranks, codes._run
    real_points = codes._points
    handed, listed, walked = [], [], []

    def count_ranks(self, words):
        words = list(words)
        handed.extend(words)
        return real_count(self, words)

    def run(scaled, add, limit):
        n, words = real_run(scaled, add, limit)
        listed.append(len(words))
        return n, words

    def points(scaled, lo, hi, add):
        walked.append(len(scaled))
        return real_points(scaled, lo, hi, add)

    monkeypatch.setattr(codes._Packing, "count_ranks", count_ranks)
    monkeypatch.setattr(codes, "_run", run)
    monkeypatch.setattr(codes, "_points", points)
    for limit, most, levels in ((codes._RUN_LIMIT, (255, 128), [1, 8]),
                                (2, (255, 2), list(range(1, 9)))):
        monkeypatch.setattr(codes, "_RUN_LIMIT", limit)
        del handed[:], listed[:], walked[:]
        assert rank_counts(code, 0, code.size) == want
        assert (len(handed), max(listed)) == most
        assert sorted(set(walked)) == levels


@pytest.mark.parametrize("p,m,t,dim_k", [(2, 1, 3, 0), (2, 1, 3, 2),
                                         (3, 1, 2, 0), (3, 1, 3, 2),
                                         (2, 2, 2, 0), (2, 2, 3, 2),
                                         (5, 1, 2, 0), (5, 1, 3, 2),
                                         (2, 1, 3, None), (3, 1, 3, None),
                                         (2, 2, 2, None), (5, 1, 2, None)])
def test_kernel_order_walks_the_code_basis(p, m, t, dim_k):
    """Kernel index 0 is the zero word, and index 1 + P(q - 1) + d is the
    d-th nonzero multiple of point P of the enumeration basis, decoded as
    codeword_from_index decodes a code's basis. The points are the word
    indices whose leading base-q digit is 1, those of k digits first, then
    those of k - 1 digits and so on, each length in ascending order. So
    each one-index range counts one word, at the rank of its point. The
    enumeration basis is the code's basis, except where the code holds E
    (dim_k None), the unit at the last diagonal cell: there its w rows on
    the last row and column, which span W, go last in their order, E
    last, and the others keep theirs. The codes: one whose K is zero, one
    whose K has at least two dimensions, and one that holds E."""
    field = make_field(p, m)
    q = field.q
    if dim_k is None:
        code = _code_with_v(field, t, 1, 0)
        rows, w = codes._enumeration_basis(t, code.basis)
        assert w == _w_dim(code) and rows[-1] == code.basis[-1]
        tail = rows[len(rows) - w:]
        assert rows == [r for r in code.basis if r not in tail] + tail
        assert tail == [r for r in code.basis if r in tail]
        basis = SimpleNamespace(field=field, t=t, basis=rows, size=code.size)
        assert all(not any(x.index for row in word.entries[:t - 1]
                           for x in row[:t - 1])
                   for word in enumerate_codewords(codes.LinearCode(
                       field, t, rows[len(rows) - w:])))
    elif dim_k:
        code = basis = _with_zero_head(field, t, dim_k, 1, seed=q)
        assert code.k - _heads(code) >= dim_k
    else:
        code = basis = next(c for seed in range(20) if _heads(
            c := _random_code(field, t, 3, seed)) == 3)
    points = [i for n in reversed(range(code.k))
              for i in range(q ** n, 2 * q ** n)]
    order = [0, *(point for point in points for _ in range(q - 1))]
    assert len(order) == code.size
    for a, index in enumerate(order):
        counts = [0] * (t + 1)
        counts[rank(codeword_from_index(basis, index))] = 1
        assert rank_counts(code, a, a + 1) == counts, a


def _space_counts(field, t):
    """The ranks of every t x t Hermitian matrix, each built cell by cell
    and ranked by hermitian_space.rank_of_rows: no packing, no basis and
    no cosets."""
    conj = [field.conj_index(x) for x in range(field.order)]
    upper = [(i, j) for i in range(t) for j in range(i + 1, t)]
    counts = [0] * (t + 1)
    for diag in product(field.subfield_indices(), repeat=t):
        for cells in product(range(field.order), repeat=len(upper)):
            rows = [[0] * t for _ in range(t)]
            for i, d in enumerate(diag):
                rows[i][i] = d
            for (i, j), x in zip(upper, cells):
                rows[i][j], rows[j][i] = x, conj[x]
            counts[rank_of_rows(field, rows)] += 1
    return counts


@pytest.mark.parametrize("p,m,t", [(2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4),
                                   (3, 1, 1), (3, 1, 2), (3, 1, 3), (2, 2, 1),
                                   (2, 2, 2), (5, 1, 1), (5, 1, 2), (7, 1, 2),
                                   (3, 2, 1), (3, 2, 2)])
def test_full_space_groups_match_per_word_elimination(p, m, t):
    """The basis of the whole space ends with E, the unit at the last
    diagonal cell, so the kernel counts each coset of W, the words on the
    last row and column, by one reduction of its top-left block; that
    count equals the ranks of all q^(t^2) matrices by elimination. (At
    t = 3, q = 4 has 2^18 matrices and q >= 5 at least 5^9, more than
    this reference ranks in a second.)"""
    field = make_field(p, m)
    space = dual_code(make_code(field, t, []))
    assert space.generators[-1] == _unit_matrices(field, t)[-1]
    assert rank_counts(space, 0, space.size) == _space_counts(field, t)


def _code_with_v(field, t, dim_v, seed):
    """A code that holds E, the unit at the last diagonal cell, whose V,
    the last columns of its words on the last row and column, has dim_v
    dimensions over GF(q): it holds dim_v units of the last column, a
    random matrix and, at t > 2, the unit at the first diagonal cell, so
    that some cosets of W have a top-left block of rank 1 whose column
    space meets V. (At t = 2 that unit would put every word in W.)"""
    units = _unit_matrices(field, t)
    # row i's diagonal coordinate is i(2t - i); its last pair ends row i
    column = [units[c] for i in range(t - 1)
              for c in (i * (2 * t - i) + 2 * (t - 1 - i) - 1,
                        i * (2 * t - i) + 2 * (t - 1 - i))]
    start = [units[-1], *column[:dim_v]]
    if t > 2:
        start.append(units[0])
    return _random_code(field, t, len(start) + 1, seed, start=start)


@pytest.mark.parametrize("p,m,t", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 1, 3),
                                   (2, 2, 2), (2, 2, 3), (5, 1, 2)])
def test_the_last_row_and_column_rule_matches_elimination(monkeypatch, p, m,
                                                          t):
    """Codes that hold E whose V has each dimension from 0 to 2(t - 1):
    rank_counts, which counts each whole coset of W by one reduction of
    its top-left block, equals a count through enumerate_codewords and
    hermitian_space.rank, whole and as the sum of the ranges between the
    cuts of _coset_cuts (every boundary of a coset of W, one index either
    side of it and one inside its first multiples), with the lead memo
    starting over at 2 entries and the listed span of K at the default
    ``_RUN_LIMIT`` or cut to q words. At t = 3 also a code with two basis
    rows led on the last column that go on off it: W is then E's
    multiples alone, less than the code's words on the last row and
    column, and the rule still holds."""
    codes._packing.cache_clear()
    monkeypatch.setattr(codes, "_CACHE_LIMIT", 2)
    field = make_field(p, m)
    found = []
    for dim_v in range(2 * (t - 1) + 1):
        code = next(c for seed in range(20)
                    if _w_dim(c := _code_with_v(field, t, dim_v, seed))
                    == dim_v + 1)
        assert codes._enumeration_basis(t, code.basis)[1] == dim_v + 1
        assert code.k > dim_v + 1  # some coset of W outside W
        found.append(code)
    if t == 3:  # units 3 and 4 lie on the last column, 5 on the diagonal
        units = _unit_matrices(field, t)
        code = make_code(field, t, [units[-1], units[3] + units[5],
                                    units[4] + units[5]])
        assert codes._enumeration_basis(t, code.basis)[1] == 1 < _w_dim(code)
        found.append(code)
    for code in found:
        whole = _counts_by_rank(code)
        cuts = [0, *_coset_cuts(code), code.size]
        for limit in (codes._RUN_LIMIT, field.q):
            monkeypatch.setattr(codes, "_RUN_LIMIT", limit)
            assert rank_counts(code, 0, code.size) == whole, code.basis
            parts = [rank_counts(code, a, b) for a, b in zip(cuts, cuts[1:])]
            assert [sum(column) for column in zip(*parts)] == whole, code.basis


def test_census_at_q13_t2_meets_few_new_leads(monkeypatch):
    """The q=13, t=2 census decides the 26 364 words outside W, the words
    on the last column and the last diagonal cell, by one reduction of
    their 1 x 1 top-left block, and ranks W's 183 points one by one, so
    it finds the lead of 196 new rows (504 when each group of 13 words
    reduced its last row once, 2 508 when every word reduced its own)."""
    codes._packing.cache_clear()  # no lead known from an earlier count
    calls = []
    real_lead_of = codes._Packing._lead_of
    monkeypatch.setattr(codes._Packing, "_lead_of", lambda self, row:
                        calls.append(row) or real_lead_of(self, row))
    space = dual_code(make_code(make_field(13, 1), 2, []))
    assert rank_counts(space, 0, space.size) == [1, 2040, 26520]
    assert len(calls) == 196


def test_consecutive_counts_share_the_lead_memo(monkeypatch):
    """rank_counts keeps the packing of the last field and size it
    counted, so verify's 20 sample codes and their duals at q=2, t=3
    find the lead of fewer than 200 new rows between them (1 337 when
    each count starts with an empty memo), and still count each code as
    a count from an empty memo does."""
    field = make_field(2, 1)
    codes._packing.cache_clear()
    calls = []
    real_lead_of = codes._Packing._lead_of
    monkeypatch.setattr(codes._Packing, "_lead_of", lambda self, row:
                        calls.append(row) or real_lead_of(self, row))
    samples = sample_codes(field, 3, 20, 0)
    assert len(calls) < 200
    for s in samples:
        for code, counts in ((s.code, s.counts), (s.dual, s.dual_counts)):
            codes._packing.cache_clear()
            assert tuple(rank_counts(code, 0, code.size)) == counts


def test_full_space_reduces_each_block_once(monkeypatch):
    """The 65 536 matrices at q=2, t=4: the whole space holds E, and W, its
    words on the last column and the last diagonal cell, has 7
    dimensions. So the 65 408 words outside W fall into 511 cosets of W
    (one per point of the 9 generators before W), and the kernel reduces
    the top-left 3 x 3 block once per coset, not once per word, and
    nothing else through ``reduce``. The 127 points of W are handed to
    ``count_ranks`` as words, each ranked by itself, and the range has no
    edge point with multiples outside it to rank. It counts from the
    code's basis as it stands, reducing no coordinates again, and neither
    building the space nor counting it makes a field element or a matrix
    object. The basis lists first the 12 generators with a nonzero top
    two rows, as ``_rref`` seeks pivots in column order."""
    field = make_field(2, 1)
    zero = make_code(field, 4, [])
    for cls in (FieldElement, HermitianMatrix):
        monkeypatch.setattr(cls, "__init__", _no_objects)
    space = dual_code(zero)
    for name in ("_rref", "vectorize"):
        monkeypatch.setattr(codes, name, _unreachable)
    reduced, handed = [], []
    real_reduce, real_count = codes._Packing.reduce, codes._Packing.count_ranks

    def recording(self, word, shifts, basis, mask=None):
        reduced.append(len(shifts))
        return real_reduce(self, word, shifts, basis, mask)

    def count_ranks(self, words):
        words = list(words)
        handed.extend(words)
        return real_count(self, words)

    monkeypatch.setattr(codes._Packing, "reduce", recording)
    monkeypatch.setattr(codes._Packing, "count_ranks", count_ranks)
    assert rank_counts(space, 0, space.size) == [1, 85, 3570, 23800, 38080]
    assert (reduced.count(3), len(reduced)) == (511, 511)
    assert len(handed) == 127
    monkeypatch.undo()
    assert _heads(space) == 12 and not any(
        x.index for g in space.generators[12:] for row in g.entries[:2]
        for x in row)


def test_code_reduces_the_rows_it_is_given():
    """A LinearCode holds the reduced row-echelon form of its rows, so the
    full space's basis in reverse order, whose zero-head rows lead, is
    the full space again, head-first, and counts the same."""
    field = make_field(2, 1)
    space = dual_code(make_code(field, 2, []))
    flipped = codes.LinearCode(field, 2, space.basis[::-1])
    assert not any(space.basis[::-1][0][:3])  # a zero head leads
    assert flipped == space and flipped.basis == space.basis
    assert (rank_counts(flipped, 0, flipped.size) == _space_counts(field, 2)
            == rank_counts(space, 0, space.size))


@pytest.mark.parametrize("p,m,t", [(2, 1, 2), (2, 1, 3), (3, 1, 2)])
def test_code_dimension_is_the_rank_of_its_rows(p, m, t):
    """k follows from the rows, so it cannot disagree with them: two of
    the full space's basis rows span q^2 words, and all of them, with a
    copy of each and the sum of each neighbouring pair, span the whole
    space, each counted as elimination ranks its words. There is no k to
    pass."""
    field = make_field(p, m)
    space = dual_code(make_code(field, t, []))
    rows = space.basis
    two = codes.LinearCode(field, t, rows[:2])
    assert two.k == 2 and two.size == field.q ** 2
    assert rank_counts(two, 0, two.size) == _counts_by_rank(two)
    sums = [[field.add(x, y) for x, y in zip(a, b)]
            for a, b in zip(rows, rows[1:])]
    whole = codes.LinearCode(field, t, [*rows, *sums, *rows])
    assert whole == space and whole.k == t * t
    assert rank_counts(whole, 0, whole.size) == _space_counts(field, t)
    with pytest.raises(TypeError):
        codes.LinearCode(field, t, rows, len(rows))


def test_code_refuses_rows_that_are_not_coordinates(fields):
    """Every row must hold t^2 coordinates, each an element index of the
    conjugation-fixed subfield, and t must be positive; theta, the
    smallest index conjugation moves, is no coordinate, nor is the
    element object of a subfield index."""
    f4 = fields[2]
    theta = codes._theta_index(f4)
    cases = [
        ((f4, 2, [[1, 0, 0, 1], [0, 0, theta, 0]]),
         "a basis coordinate lies outside the conjugation-fixed subfield"),
        ((f4, 2, [[0, f4.one(), 0, 0]]),
         "a basis coordinate lies outside the conjugation-fixed subfield"),
        ((f4, 2, [[1, 0, 0, 1], [1, 0, 0]]),
         "a basis row has 3 coordinates, not t^2 = 4"),
        ((f4, 1, [[1, 0, 0, 1]]),
         "a basis row has 4 coordinates, not t^2 = 1"),
        ((f4, 0, []), "matrix size must be positive, got t=0"),
    ]
    for args, message in cases:
        with pytest.raises(UsageError) as info:
            codes.LinearCode(*args)
        assert type(info.value) is UsageError and str(info.value) == message


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       pm=st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)]),
       t=st.integers(1, 3))
def test_any_coordinate_rows_give_the_code_of_their_matrices(data, pm, t):
    """Random coordinate rows, with copies, combinations of each other and
    in any order, give the code that make_code builds from their
    matrices, whose words are all the combinations of the rows; its
    counts over the ranges between random cuts add up to the count of
    its words by hermitian_space.rank."""
    field = make_field(*pm)
    q, n = field.q, t * t
    subfield = field.subfield_indices()
    drawn = data.draw(st.lists(
        st.lists(st.sampled_from(subfield), min_size=n, max_size=n),
        max_size=max(k for k in range(n + 1) if q ** k <= 256)))

    def combination(coefficients):
        word = [0] * n
        for c, row in zip(coefficients, drawn):
            word = [field.add(x, field.mul(c, y)) for x, y in zip(word, row)]
        return word

    mixes = data.draw(st.lists(st.lists(st.sampled_from(subfield),
                                        min_size=len(drawn),
                                        max_size=len(drawn)), max_size=3))
    copies = data.draw(st.lists(st.sampled_from(drawn), max_size=3)
                       if drawn else st.just([]))
    rows = data.draw(st.permutations(
        [*drawn, *map(combination, mixes), *copies]))
    code = codes.LinearCode(field, t, rows)
    theta = codes._theta_index(field)
    assert code == make_code(field, t, [codes.devectorize(field, t, r, theta)
                                        for r in rows])
    assert set(enumerate_codewords(code)) == {
        codes.devectorize(field, t, combination(c), theta)
        for c in product(subfield, repeat=len(drawn))}
    whole = _counts_by_rank(code)
    cuts = sorted(data.draw(st.lists(st.integers(0, code.size), max_size=6)))
    bounds = [0, *cuts, code.size]
    parts = [rank_counts(code, a, b) for a, b in zip(bounds, bounds[1:])]
    assert [sum(column) for column in zip(*parts)] == whole


def _unreachable(*args):
    raise AssertionError("the code's basis reduced again")


def _no_objects(*args):
    raise AssertionError("an element or matrix object was built")


def test_packing_setup_does_not_grow_with_the_field(monkeypatch):
    """A packing converts no element and fills no memo when it is built,
    so its set-up over GF(251^2) is the size of its set-up over GF(4)."""
    converted = []
    for name in ("cell", "index"):
        method = getattr(codes._Packing, name)
        monkeypatch.setattr(
            codes._Packing, name,
            lambda self, x, method=method: converted.append(x) or method(self, x))
    held = []
    for p in (2, 251):
        pk = codes._Packing(make_field(p, 1), 3)
        held.append(sorted(len(v) for v in vars(pk).values()
                           if isinstance(v, (dict, list, tuple))))
    assert converted == []
    assert held[0] == held[1] == [0, 0, 0]


def test_rank_counts_builds_only_the_multiples_it_lists():
    """rank_counts over GF(251^2), where a generator has 250 nonzero
    multiples: a k = 1 code counts its one point for all of them, and a
    k = 2 code counts the same whole distribution in one range as split
    at the first word of block 1."""
    codes._packing.cache_clear()  # no lead known from an earlier count
    field = make_field(251, 1)
    t, q = 2, field.q
    one = _random_code(field, t, 1, seed=3)
    two = _random_code(field, t, 2, seed=4)
    lead = rank(one.generators[0])
    whole = list(weight_distribution(two).counts)
    block_1 = 1 + q ** (two.k - 1) * (q - 1)  # first word of block 1
    assert rank_counts(one, 0, one.size) == [1 if r == 0 else
                                             q - 1 if r == lead else 0
                                             for r in range(t + 1)]
    assert rank_counts(two, 0, two.size) == whole
    tail = rank_counts(two, block_1, two.size)
    head = rank_counts(two, 0, block_1)
    assert [x + y for x, y in zip(head, tail)] == whole


class RankOfRowsReached(Exception):
    pass


def test_weight_distribution_needs_no_rank_of_rows(monkeypatch, code_corpus,
                                                   example_code):
    """The kernel ranks with its own packed elimination: with
    hermitian_space.rank_of_rows made to raise in every hrmc module,
    weight distributions still equal those counted through
    hermitian_space.rank before the patch."""
    cases = [example_code] + [c for samples in code_corpus.values()
                              for s in samples[:4] for c in (s.code, s.dual)]
    want = [_counts_by_rank(c) for c in cases]

    def raising(*args):
        raise RankOfRowsReached(args)

    for name, module in list(sys.modules.items()):
        if (name == "hrmc" or name.startswith("hrmc.")) and hasattr(
                module, "rank_of_rows"):
            monkeypatch.setattr(module, "rank_of_rows", raising)
    with pytest.raises(RankOfRowsReached):
        rank(codeword_from_index(example_code, 1))
    for code, counts in zip(cases, want):
        assert list(weight_distribution(code).counts) == counts


def test_rank_counts_rejects_bad_range(example_code):
    with pytest.raises(ValueError):
        rank_counts(example_code, 5, 4)
    with pytest.raises(ValueError):
        rank_counts(example_code, 0, 9)
    with pytest.raises(EnumerationTooLarge):
        rank_counts(example_code, 0, 1, guard=4)


def test_zero_code(fields):
    f4 = fields[2]
    code = make_code(f4, 2, [])
    assert code.k == 0
    assert weight_distribution(code).counts == (1, 0, 0)
    dual = dual_code(code)
    assert dual.k == 4
    with pytest.raises(ZeroCode):
        min_distance(code)


def test_full_code_dual_is_zero(fields):
    f4 = fields[2]
    code = dual_code(make_code(f4, 2, []))
    assert code == make_code(f4, 2, _unit_matrices(f4, 2))
    assert code.k == 4
    assert dual_code(code).k == 0


def test_make_code_canonical(example_code):
    f4 = example_code.field
    regenerated = make_code(f4, 3, list(example_code.generators))
    assert regenerated == example_code
    reordered = make_code(f4, 3, list(reversed(example_code.generators)))
    assert reordered == example_code
    # adding a word of the code changes nothing
    word = codeword_from_index(example_code, 5)
    widened = make_code(f4, 3, list(example_code.generators) + [word])
    assert widened == example_code


def test_make_code_rejects(fields):
    f4, f9 = fields[2], fields[3]
    not_herm = _mat(f4, [[0, 2], [2, 0]])
    with pytest.raises(NotHermitian):
        make_code(f4, 2, [not_herm])
    with pytest.raises(NotHermitian):
        make_code(f4, 2, ["nope"])
    with pytest.raises(MixedDimensions):
        make_code(f4, 2, [zero_matrix(f4, 3)])
    with pytest.raises(MixedDimensions):
        make_code(f4, 2, [zero_matrix(f9, 2)])


def test_codeword_enumeration_order(example_code):
    words = list(enumerate_codewords(example_code))
    assert len(words) == 8
    assert len(set(words)) == 8
    assert words[0].is_zero()
    for i in (0, 1, 3, 7):
        assert words[i] == codeword_from_index(example_code, i)


def test_enumeration_guard(example_code, fields):
    with pytest.raises(EnumerationTooLarge):
        weight_distribution(example_code, guard=4)
    # a code without generators may name any t: its one word is refused
    # when it has more cells than the guard, before it is built
    empty = make_code(fields[2], 11, [])
    with pytest.raises(EnumerationTooLarge, match="121 cells"):
        rank_counts(empty, 0, 1, guard=100)
    with pytest.raises(EnumerationTooLarge, match="121 cells"):
        next(enumerate_codewords(empty, guard=100))
    assert rank_counts(empty, 0, 1, guard=121) == [1] + [0] * 11


def test_min_distance_and_singleton(example_code, extremal_d3_code,
                                    extremal_d2_code):
    assert min_distance(example_code) == 2
    report = singleton_check(example_code)
    assert report["bound"] == 2 ** 6
    assert report["is_mhrd"] is False

    assert min_distance(extremal_d3_code) == 3
    assert weight_distribution(extremal_d3_code).counts == (1, 0, 0, 7)
    report = singleton_check(extremal_d3_code)
    assert report == {"bound": 8, "is_mhrd": True}

    assert min_distance(extremal_d2_code) == 2
    report = singleton_check(extremal_d2_code)
    assert report == {"bound": 4, "is_mhrd": True}


@pytest.mark.parametrize("d", [-1, 0, 3, 5])
def test_singleton_check_refuses_a_distance_outside_1_to_t(fields, d,
                                                           monkeypatch):
    """A given minimum distance outside 1..t has no bound: on the zero
    t=2 code over GF(4) it is refused with IndexOutOfRange, a UsageError,
    before any word is counted, not reported as a bound, a fraction or a
    failed check."""
    zero = make_code(fields[2], 2, [])
    monkeypatch.setattr(codes, "rank_counts", _unreachable)
    with pytest.raises(IndexOutOfRange, match=f"got d={d} t=2"):
        singleton_check(zero, d)
    assert issubclass(IndexOutOfRange, UsageError)
    assert singleton_check(zero, 2) == {"bound": 2 ** 2, "is_mhrd": False}


def test_weight_distribution_validation():
    with pytest.raises(ValueError):
        WeightDistribution(2, 2, 1, (0, 1, 1))   # zero word missing
    with pytest.raises(ValueError):
        WeightDistribution(2, 2, 1, (1, 1, 1))   # wrong total
    with pytest.raises(ValueError):
        WeightDistribution(2, 2, 1, (1, 1))      # wrong length


def test_code_file_of_a_matrix_loads_its_span(fields, example_code,
                                              monkeypatch):
    """A code file whose generators are matrices' JSON loads the code
    that make_code builds from them, and the reader builds no element or
    matrix object on the way."""
    f4 = fields[2]
    m = hermitian_from_index(f4, 3, 123)
    obj = {"field": f4.to_jsonable(), "t": 3, "generators": [m.to_jsonable()]}
    expected = make_code(f4, 3, [m])
    example = example_code.to_jsonable()  # which builds matrices

    def refuse(*args):
        raise AssertionError("an object was built")
    monkeypatch.setattr(FieldElement, "__init__", refuse)
    monkeypatch.setattr(HermitianMatrix, "__init__", refuse)
    assert code_from_jsonable(obj) == expected
    assert code_from_jsonable(example) == example_code


def test_make_code_and_the_reader_name_the_same_cell(fields):
    """make_code and the code-file reader share one Hermitian check on
    element indices, which names the first cell, on or below the
    diagonal, that differs from its conjugate transpose."""
    f4 = fields[2]
    theta = codes._theta_index(f4)
    for rows, cell, message in [
            ([[0, 2], [2, 0]], "[1][0]", "not the conjugate of {}[0][1]"),
            ([[1, 0], [0, theta]], "[1][1]",
             "outside the conjugation-fixed subfield")]:
        obj = {"field": f4.to_jsonable(), "t": 2, "generators": [
            {"t": 2, "rows": [[f4.from_index(x).to_jsonable() for x in row]
                              for row in rows]}]}
        for build, at in ((lambda: make_code(f4, 2, [_mat(f4, rows)]),
                           "generators[0].entries"),
                          (lambda: code_from_jsonable(obj),
                           "generators[0].rows")):
            with pytest.raises(NotHermitian) as info:
                build()
            assert str(info.value) == f"{at}{cell}: " + message.format(at)


def test_code_json_roundtrip(example_code):
    again = code_from_jsonable(example_code.to_jsonable())
    assert again == example_code
    assert again.field is example_code.field

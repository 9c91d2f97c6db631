"""Code construction, weight distributions, and trace-form duality."""

import sys

import pytest

from hrmc.codes import (
    WeightDistribution,
    code_from_jsonable,
    codeword_from_index,
    dual_code,
    enumerate_codewords,
    make_code,
    min_distance,
    rank_counts,
    singleton_check,
    standard_basis,
    weight_distribution,
)
from hrmc.errors import (
    EnumerationTooLarge,
    MixedDimensions,
    NotHermitian,
    ZeroCode,
)
from hrmc.fields import make_field
from hrmc.hermitian import (
    HermitianMatrix,
    enumerate_hermitian,
    inner_product,
    rank,
    zero_matrix,
)
from hrmc.verify import sample_codes


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


class RankOfRowsReached(Exception):
    pass


def test_weight_distribution_needs_no_rank_of_rows(monkeypatch, code_corpus,
                                                   example_code):
    """The kernel ranks with its own packed elimination: with
    hermitian.rank_of_rows made to raise in every hrmc module, weight
    distributions still equal those counted through hermitian.rank before
    the patch."""
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
    code = make_code(f4, 2, list(standard_basis(f4, 2)))
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


def test_weight_distribution_validation():
    with pytest.raises(ValueError):
        WeightDistribution(2, 2, 1, (0, 1, 1))   # zero word missing
    with pytest.raises(ValueError):
        WeightDistribution(2, 2, 1, (1, 1, 1))   # wrong total
    with pytest.raises(ValueError):
        WeightDistribution(2, 2, 1, (1, 1))      # wrong length


def test_code_json_roundtrip(example_code):
    again = code_from_jsonable(example_code.to_jsonable())
    assert again == example_code
    assert again.field is example_code.field

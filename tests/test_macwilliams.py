"""Eigenvalue tables, dual-distribution routes, moments, closed forms."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hrmc import macwilliams
from hrmc.errors import (
    EvenMinimumDistance,
    IndexOutOfRange,
    NonIntegralDual,
)
from hrmc.macwilliams import (
    build_eigen_table,
    build_eigen_table_C,
    delta_fn,
    epsilon_fn,
    full_space_distribution,
    krawtchouk_C,
    krawtchouk_Q,
    macwilliams_eigen,
    macwilliams_transform,
    mhrd_distribution,
    moment_q,
    moment_q_low,
    moment_qinv,
    moment_qinv_high,
)
from hrmc.negq import NegQContext
from hrmc.verify import delta_closed, epsilon_closed
from hrmc.codes import weight_distribution, dual_code

CTX2, CTX3 = NegQContext(2), NegQContext(3)

# discrete eigenvalues for q=2, t=3, checked against a from-scratch
# computation outside this package
Q23 = (
    (1, 21, 210, 280),
    (1, -11, 50, -40),
    (1, 5, 2, -8),
    (1, -3, -6, 8),
)


def test_eigen_table_frozen_values():
    table = build_eigen_table(CTX2, 3)
    assert table.values == Q23
    assert krawtchouk_Q(CTX2, 1, 1, 3) == -11


@pytest.mark.parametrize("ctx", [CTX2, CTX3])
@pytest.mark.parametrize("t", range(6))
def test_both_eigen_routes_agree(ctx, t):
    for x in range(t + 1):
        for k in range(t + 1):
            assert krawtchouk_Q(ctx, k, x, t) == krawtchouk_C(ctx, k, x, t)


@pytest.mark.parametrize("ctx", [CTX2, CTX3])
def test_eigen_table_shape(ctx):
    for t in range(5):
        table = build_eigen_table(ctx, t)
        assert table.values[0] == full_space_distribution(ctx, t)
        assert all(row[0] == 1 for row in table.values)


@pytest.mark.parametrize("ctx", [CTX2, CTX3])
def test_eigen_recurrence(ctx):
    for t in range(5):
        for x in range(t + 1):
            for k in range(t + 1):
                assert krawtchouk_Q(ctx, k + 1, x + 1, t + 1) == (
                    krawtchouk_Q(ctx, k + 1, x, t + 1)
                    + ctx.b ** (2 * t + 1 - x) * krawtchouk_Q(ctx, k, x, t))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_tables_equal_their_definitions(q):
    """Every entry of both tables is its per-entry closed form."""
    ctx = NegQContext(q)
    for t in range(9):
        want_q = tuple(tuple(krawtchouk_Q(ctx, k, x, t) for k in range(t + 1))
                       for x in range(t + 1))
        want_c = tuple(tuple(krawtchouk_C(ctx, k, x, t) for k in range(t + 1))
                       for x in range(t + 1))
        assert build_eigen_table(ctx, t).values == want_q
        assert build_eigen_table_C(ctx, t).values == want_c


def _dual_by_definition(ctx, counts, size, t):
    """sum_x counts[x] * Q_k(x) / size for each k, or, at the first k where
    that is not a non-negative integer, the NonIntegralDual message."""
    out = []
    for k in range(t + 1):
        v = Fraction(sum(c * krawtchouk_Q(ctx, k, x, t)
                         for x, c in enumerate(counts)), size)
        if v.denominator != 1 or v < 0:
            return f"dual count {k} came out {v}"
        out.append(int(v))
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 5]), data=st.data())
def test_macwilliams_eigen_matches_the_eigenvalue_sum(q, data):
    """On random count vectors, zeros included, macwilliams_eigen gives
    the sum over the eigenvalues, or raises NonIntegralDual at the same k
    with the same value. The Q-image of a vector, divided by q^(t^2), gives
    the vector back, so those inputs are distributions and must succeed."""
    ctx = NegQContext(q)
    t = data.draw(st.integers(0, 6), label="t")
    vec = data.draw(st.lists(st.one_of(st.just(0), st.integers(0, 10 ** 6)),
                             min_size=t + 1, max_size=t + 1), label="vec")
    size = data.draw(st.integers(1, 10 ** 4), label="size")
    image = [sum(v * krawtchouk_Q(ctx, k, x, t) for x, v in enumerate(vec))
             for k in range(t + 1)]
    assert macwilliams_eigen(ctx, image, q ** (t * t), t) == tuple(vec)
    want = _dual_by_definition(ctx, vec, size, t)
    if isinstance(want, tuple):
        assert macwilliams_eigen(ctx, vec, size, t) == want
    else:
        with pytest.raises(NonIntegralDual) as exc:
            macwilliams_eigen(ctx, vec, size, t)
        assert str(exc.value) == want


def test_eigen_index_errors():
    with pytest.raises(IndexOutOfRange):
        krawtchouk_Q(CTX2, 4, 0, 3)
    with pytest.raises(IndexOutOfRange):
        krawtchouk_C(CTX2, 0, -1, 3)


def test_example_routes(example_code):
    counts = weight_distribution(example_code).counts
    assert macwilliams_eigen(CTX2, counts, 8, 3) == (1, 3, 24, 36)
    assert macwilliams_transform(CTX2, counts, 8, 3) == (1, 3, 24, 36)


def test_transform_non_integral_rejected():
    with pytest.raises(NonIntegralDual):
        macwilliams_eigen(CTX2, (1, 1, 0, 0), 8, 3)
    with pytest.raises(NonIntegralDual):
        macwilliams_transform(CTX2, (1, 1, 0, 0), 8, 3)


def test_example_moments(example_code):
    counts = weight_distribution(example_code).counts
    dual = dual_code(example_code)
    dual_counts = weight_distribution(dual).counts
    sizes = (example_code.size, dual.size)
    for phi in range(4):
        m = moment_q(CTX2, counts, dual_counts, sizes, 3, phi)
        assert m["lhs"] == m["rhs"]
        m = moment_qinv(CTX2, counts, dual_counts, sizes, 3, phi)
        assert m["lhs"] == m["rhs"]
    # dual minimum distance is 1, so only phi=0 gets the simplified form
    assert moment_q(CTX2, counts, dual_counts, sizes, 3, 0)["lhs"] \
        == moment_q_low(CTX2, dual.size, 3, 0)
    # the first moments, by hand: 8, 6, 3, 1
    assert [moment_q(CTX2, counts, dual_counts, sizes, 3, phi)["lhs"]
            for phi in range(4)] == [8, 6, 3, 1]


def test_vanishing_moment_for_full_space():
    """The dual of the full space is the zero code (diameter 0), so the
    alternating combination vanishes for every phi >= 1."""
    for ctx, t in [(CTX2, 2), (CTX2, 3), (CTX3, 2)]:
        census = full_space_distribution(ctx, t)
        for phi in range(1, t + 1):
            assert moment_qinv_high(ctx, census, t, phi) == 0


def test_delta_matches_closed_form_on_full_grid():
    for ctx in (CTX2, CTX3):
        for lam in range(9):
            for phi in range(7):
                for j in range(7):
                    assert delta_fn(ctx, lam, phi, j) \
                        == delta_closed(ctx, lam, phi, j), (ctx.q, lam, phi, j)
    assert delta_fn(CTX2, 4, 2, 1) == 168


def test_epsilon_matches_closed_form_up_to_lambda():
    for ctx in (CTX2, CTX3):
        for lam in range(9):
            for phi in range(7):
                for i in range(min(lam, 6) + 1):
                    assert epsilon_fn(ctx, lam, phi, i) \
                        == epsilon_closed(ctx, lam, phi, i), (ctx.q, lam, phi, i)
    assert epsilon_fn(CTX2, 5, 2, 2) == -2


def test_epsilon_closed_form_fails_past_lambda():
    """Past i = Lambda the sum and the closed form genuinely part ways;
    pin the smallest counterexample so the domain restriction stays
    documented."""
    assert epsilon_fn(CTX2, 0, 0, 1) == 0
    assert epsilon_closed(CTX2, 0, 0, 1) == -1


MHRD_CASES = [
    (2, 1, 1, (1, 1)),
    (2, 2, 1, (1, 5, 10)),
    (2, 3, 1, (1, 21, 210, 280)),
    (3, 2, 1, (1, 20, 60)),
    (2, 3, 3, (1, 0, 0, 7)),
    (3, 3, 3, (1, 0, 0, 26)),
]


@pytest.mark.parametrize("q,t,d,expected", MHRD_CASES)
def test_mhrd_distribution(q, t, d, expected):
    ctx = NegQContext(q)
    dual_size = q ** (t * (d - 1))
    assert mhrd_distribution(ctx, t, d, dual_size) == expected


def test_mhrd_d1_is_census():
    for ctx, t in [(CTX2, 2), (CTX2, 3), (CTX3, 2)]:
        assert mhrd_distribution(ctx, t, 1, 1) == full_space_distribution(ctx, t)


def test_mhrd_matches_actual_extremal_code(extremal_d3_code):
    counts = weight_distribution(extremal_d3_code).counts
    assert counts == mhrd_distribution(CTX2, 3, 3, 2 ** 6)


def test_mhrd_rejections():
    with pytest.raises(EvenMinimumDistance):
        mhrd_distribution(CTX2, 3, 2, 2 ** 3)
    with pytest.raises(ValueError):
        mhrd_distribution(CTX2, 3, 5, 1)     # d > t
    with pytest.raises(ValueError):
        mhrd_distribution(CTX2, 3, 3, 17)    # wrong dual size


def test_eigen_table_json():
    table = build_eigen_table(CTX2, 3)
    js = table.to_jsonable()
    assert js["rows"][1][1] == "-11"
    assert js["q"] == 2 and js["t"] == 3


class ClosedFormReached(Exception):
    pass


def test_transform_route_needs_no_closed_form(monkeypatch):
    """macwilliams_transform is built from twisted products of the nu/mu
    seeds alone: with the closed-form Gaussian and gamma functions (plain
    and x-extended) and the eigenvalue formula made to raise, it still
    gives the eigen route's answer, computed before the patch."""
    cases = []
    for ctx in (CTX2, CTX3):
        for t in range(1, 7):
            full = ctx.q ** (t * t)
            dists = [((1,) + (0,) * t, 1)]
            for d in range(1, t + 1, 2):
                dual_size = ctx.q ** (t * (d - 1))
                dists.append((mhrd_distribution(ctx, t, d, dual_size),
                              full // dual_size))
            for counts, size in dists:
                cases.append((ctx, t, counts, size,
                              macwilliams_eigen(ctx, counts, size, t)))

    def closed_form(*args):
        raise ClosedFormReached(args)

    for name, module in list(sys.modules.items()):
        if name == "hrmc" or name.startswith("hrmc."):
            for fn in ("gauss", "gamma_fn", "gauss_ext", "gamma_ext",
                       "_gauss_q", "_gamma_q", "krawtchouk_Q"):
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, closed_form)
    with pytest.raises(ClosedFormReached):
        macwilliams_eigen(CTX2, (1, 0), 1, 1)
    for ctx, t, counts, size, want in cases:
        assert macwilliams_transform(ctx, counts, size, t) == want


class RouteCrossed(Exception):
    pass


def _make_raise(monkeypatch, names):
    def crossed(*args):
        raise RouteCrossed(args)

    for name, module in list(sys.modules.items()):
        if name == "hrmc" or name.startswith("hrmc."):
            for fn in names:
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, crossed)


_Q_ROUTE = ("build_eigen_table", "_q_weights", "krawtchouk_Q")
_C_ROUTE = ("build_eigen_table_C", "krawtchouk_C")


def test_eigen_routes_stay_independent(monkeypatch):
    """The Q route (build_eigen_table and macwilliams_eigen) and the C
    table share nothing beyond gauss and gamma_fn: with either route made
    to raise, the other still gives its values from before the patch."""
    cases = []
    for ctx in (CTX2, CTX3):
        for t in range(7):
            full = ctx.q ** (t * t)
            dists = [((1,) + (0,) * t, 1)]
            for d in range(1, t + 1, 2):
                dual_size = ctx.q ** (t * (d - 1))
                dists.append((mhrd_distribution(ctx, t, d, dual_size),
                              full // dual_size))
            duals = [(counts, size, macwilliams_eigen(ctx, counts, size, t))
                     for counts, size in dists]
            cases.append((ctx, t, build_eigen_table(ctx, t),
                          build_eigen_table_C(ctx, t), duals))

    with monkeypatch.context() as patch:
        _make_raise(patch, _C_ROUTE)
        with pytest.raises(RouteCrossed):
            macwilliams.build_eigen_table_C(CTX2, 1)
        for ctx, t, q_table, _, duals in cases:
            assert macwilliams.build_eigen_table(ctx, t) == q_table
            for counts, size, want in duals:
                assert macwilliams.macwilliams_eigen(ctx, counts, size,
                                                     t) == want
    with monkeypatch.context() as patch:
        _make_raise(patch, _Q_ROUTE)
        with pytest.raises(RouteCrossed):
            macwilliams.build_eigen_table(CTX2, 1)
        with pytest.raises(RouteCrossed):
            macwilliams.macwilliams_eigen(CTX2, (1, 0), 1, 1)
        for ctx, t, _, c_table, _ in cases:
            assert macwilliams.build_eigen_table_C(ctx, t) == c_table


def test_eigen_routes_use_no_other_t(monkeypatch):
    """A table for t is built from no table for another t (so neither
    route runs the three-term recurrence that verify's eigen suite
    checks), by no per-entry eigenvalue call, and macwilliams_eigen builds
    no table."""
    calls = []

    def recording(name, fn):
        def wrapper(ctx, *args):
            calls.append((name, args[-1]))  # t is the last argument
            return fn(ctx, *args)
        return wrapper

    names = _Q_ROUTE + _C_ROUTE
    originals = {fn: getattr(macwilliams, fn) for fn in names}
    for name, module in list(sys.modules.items()):
        if name == "hrmc" or name.startswith("hrmc."):
            for fn in names:
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn,
                                        recording(fn, originals[fn]))
    for ctx in (CTX2, CTX3):
        for t in range(7):
            calls.clear()
            macwilliams.build_eigen_table(ctx, t)
            assert calls == [("build_eigen_table", t), ("_q_weights", t)]
            calls.clear()
            macwilliams.build_eigen_table_C(ctx, t)
            assert calls == [("build_eigen_table_C", t)]
            calls.clear()
            macwilliams.macwilliams_eigen(ctx, (1,) + (0,) * t, 1, t)
            assert calls == [("_q_weights", t)]

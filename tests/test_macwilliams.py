"""Eigenvalue tables, dual-distribution routes, moments, closed forms."""

import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hrmc import eigen, macwilliams, moments, verify
from hrmc.eigen import (
    build_eigen_table,
    build_eigen_table_C,
    build_eigen_table_recurrence,
    full_space_distribution,
    krawtchouk_C,
    krawtchouk_Q,
)
from hrmc.errors import (
    CheckFailed,
    EvenMinimumDistance,
    IndexOutOfRange,
    NonIntegralDual,
    UsageError,
    shown,
)
from hrmc.macwilliams import macwilliams_eigen, macwilliams_transform
from hrmc.calculus import delta_fn, epsilon_fn
from hrmc.moments import mhrd_distribution, moment_q, moment_qinv
from hrmc.negq import NegQContext
from hrmc.verify import (
    delta_closed,
    epsilon_closed,
    moment_q_low,
    moment_qinv_high,
    sample_codes,
    suite_routes,
)
from hrmc.codes import make_code, weight_distribution, dual_code
from hrmc.fields import make_field
from hrmc.hermitian import HermitianMatrix

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
    """Every entry of the Q and C tables is its per-entry closed form, and
    the recurrence table equals both."""
    ctx = NegQContext(q)
    for t in range(10):
        want_q = tuple(tuple(krawtchouk_Q(ctx, k, x, t) for k in range(t + 1))
                       for x in range(t + 1))
        want_c = tuple(tuple(krawtchouk_C(ctx, k, x, t) for k in range(t + 1))
                       for x in range(t + 1))
        assert build_eigen_table(ctx, t).values == want_q
        assert build_eigen_table_C(ctx, t).values == want_c
        assert build_eigen_table_recurrence(ctx, t).values == want_q == want_c


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_recurrence_table_is_orthogonal_and_symmetric(q):
    """With v_k = P_0(k), the valencies, the rows of the recurrence table
    satisfy sum_k P_x(k) P_y(k) / v_k = delta_xy q^(t^2) / v_x, and
    v_x P_x(k) = v_k P_k(x)."""
    ctx = NegQContext(q)
    for t in range(7):
        rows = build_eigen_table_recurrence(ctx, t).values
        v = rows[0]
        for x in range(t + 1):
            for y in range(t + 1):
                got = sum(Fraction(rows[x][k] * rows[y][k], v[k])
                          for k in range(t + 1))
                assert got == (Fraction(q ** (t * t), v[x]) if x == y else 0)
            for k in range(t + 1):
                assert v[x] * rows[x][k] == v[k] * rows[k][x]


def _dual_by_definition(ctx, counts, size, t):
    """sum_x counts[x] * Q_k(x) / size for each k, or, at the first k where
    that is not a non-negative integer, the NonIntegralDual message, which
    names a value of 2^64 or more in size by its power of two."""
    out = []
    for k in range(t + 1):
        v = Fraction(sum(c * krawtchouk_Q(ctx, k, x, t)
                         for x, c in enumerate(counts)), size)
        if v.denominator != 1 or v < 0:
            return f"dual count {k} came out {shown(v)}"
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
    """Past i = Lambda the sum is not the lemma (at the smallest such
    point it is 0 where the closed form's shifted Gaussian, read at x < 0,
    would be -1), so the sum refuses it, and the closed form, whose
    Gaussian needs x >= 0, refuses it too."""
    for ctx, lam, phi, i in ((CTX2, 0, 0, 1), (CTX3, 4, 2, 5),
                             (CTX2, -1, 0, 0)):
        with pytest.raises(IndexOutOfRange, match="need i <= Lambda"):
            epsilon_fn(ctx, lam, phi, i)
    with pytest.raises(UsageError):
        epsilon_closed(CTX2, 0, 0, 1)


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


def test_mhrd_names_huge_sizes_in_its_errors(monkeypatch):
    """A wrong dual size of more than 4300 digits is a UsageError that
    names the sizes by their powers of two, and so is a failed check on
    the counts, where str() would raise a ValueError."""
    with pytest.raises(UsageError, match=r"dual size must be at least "
                                         r"2\^15000, got 1"):
        mhrd_distribution(CTX2, 150, 101, 1)
    monkeypatch.setattr(moments, "gauss", lambda ctx, x, k: 10 ** 5000)
    with pytest.raises(CheckFailed, match=r"at (least |most -)2\^\d+"):
        mhrd_distribution(CTX2, 3, 3, 2 ** 6)


def test_eigen_route_names_a_huge_fraction():
    """A non-integral dual count past 4300 digits names its numerator by
    its power of two."""
    with pytest.raises(NonIntegralDual, match=r"came out at least 2\^\d+/3"):
        macwilliams_eigen(CTX2, (1, 10 ** 5000), 3, 1)


def test_eigen_table_json():
    table = build_eigen_table(CTX2, 3)
    js = table.to_jsonable()
    assert js["rows"][1][1] == "-11"
    assert js["q"] == 2 and js["t"] == 3


def _patch_everywhere(monkeypatch, names, replacement):
    """Replace each named function, as replacement(name), in every loaded
    hrmc module that has it; a name that no module has fails the test, so
    a rename cannot quietly leave a route unpatched."""
    found = set()
    for name, module in list(sys.modules.items()):
        if name == "hrmc" or name.startswith("hrmc."):
            for fn in names:
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, replacement(fn))
                    found.add(fn)
    assert found == set(names), set(names) - found


class ClosedFormReached(Exception):
    pass


def test_transform_route_needs_no_closed_form(monkeypatch):
    """macwilliams_transform is built from twisted products of the nu/mu
    seeds alone: with the closed-form Gaussian and gamma functions (gamma
    also x-extended) and the eigenvalue formula made to raise, it still
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

    _patch_everywhere(monkeypatch, ("gauss", "gamma_fn", "_gauss_row",
                                    "_gamma_row", "gamma_ext",
                                    "krawtchouk_Q"),
                      lambda fn: closed_form)
    with pytest.raises(ClosedFormReached):
        macwilliams_eigen(CTX2, (1, 0), 1, 1)
    for ctx, t, counts, size, want in cases:
        assert macwilliams_transform(ctx, counts, size, t) == want


class RouteCrossed(Exception):
    pass


def _make_raise(monkeypatch, names):
    def crossed(*args):
        raise RouteCrossed(args)

    _patch_everywhere(monkeypatch, names, lambda fn: crossed)


_Q_ROUTE = ("build_eigen_table", "_q_weights", "krawtchouk_Q")
_C_ROUTE = ("build_eigen_table_C", "krawtchouk_C")
_R_ROUTE = ("build_eigen_table_recurrence",)
_ROUTES = (_Q_ROUTE, _C_ROUTE, _R_ROUTE)


def test_eigen_routes_stay_independent(monkeypatch):
    """The Q route (build_eigen_table and macwilliams_eigen), the C table
    and the recurrence table share nothing but gauss and gamma_fn, which
    only Q and C use: with any two routes made to raise, and gauss and
    gamma_fn too for the recurrence, the third still gives its values from
    before the patch."""
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
            tables = {route[0]: getattr(eigen, route[0])(ctx, t)
                      for route in _ROUTES}
            cases.append((ctx, t, tables, duals))

    for route in _ROUTES:
        others = [other for other in _ROUTES if other is not route]
        shared = ("gauss", "gamma_fn") if route is _R_ROUTE else ()
        with monkeypatch.context() as patch:
            _make_raise(patch, [fn for other in others for fn in other]
                        + list(shared))
            for other in others:
                with pytest.raises(RouteCrossed):
                    getattr(eigen, other[0])(CTX2, 1)
            if route is not _Q_ROUTE:
                with pytest.raises(RouteCrossed):
                    macwilliams.macwilliams_eigen(CTX2, (1, 0), 1, 1)
            for ctx, t, tables, duals in cases:
                build = getattr(eigen, route[0])
                assert build(ctx, t) == tables[route[0]]
                if route is _Q_ROUTE:
                    for counts, size, want in duals:
                        assert macwilliams.macwilliams_eigen(
                            ctx, counts, size, t) == want


def test_eigen_routes_use_no_other_t(monkeypatch):
    """A table for t is built from no table for another t (so no route
    runs the recurrence in t that verify's eigen suite checks; the
    recurrence table's own recurrence runs in k, within one t), by no
    per-entry eigenvalue call, and macwilliams_eigen builds no table."""
    calls = []

    def recording(name, fn):
        def wrapper(ctx, *args):
            calls.append((name, args[-1]))  # t is the last argument
            return fn(ctx, *args)
        return wrapper

    names = _Q_ROUTE + _C_ROUTE + _R_ROUTE
    originals = {fn: getattr(macwilliams if fn == "_q_weights" else eigen, fn)
                 for fn in names}
    _patch_everywhere(monkeypatch, names,
                      lambda fn: recording(fn, originals[fn]))
    for ctx in (CTX2, CTX3):
        for t in range(7):
            calls.clear()
            eigen.build_eigen_table(ctx, t)
            assert calls == [("build_eigen_table", t), ("_q_weights", t)]
            calls.clear()
            eigen.build_eigen_table_C(ctx, t)
            assert calls == [("build_eigen_table_C", t)]
            calls.clear()
            eigen.build_eigen_table_recurrence(ctx, t)
            assert calls == [("build_eigen_table_recurrence", t)]
            calls.clear()
            macwilliams.macwilliams_eigen(ctx, (1,) + (0,) * t, 1, t)
            assert calls == [("_q_weights", t)]


def _small_code(field, t, k, rng):
    """A code spanned by k random Hermitian t x t matrices; small enough
    to enumerate at t = 8, so most of its rank counts are zero."""
    subfield = field.subfield_elements()
    gens = []
    for _ in range(k):
        grid = [[field.zero()] * t for _ in range(t)]
        for i in range(t):
            grid[i][i] = subfield[rng.randrange(field.q)]
            for j in range(i + 1, t):
                x = field.from_index(rng.randrange(field.order))
                grid[i][j], grid[j][i] = x, x.conj()
        gens.append(HermitianMatrix(field, t, tuple(map(tuple, grid))))
    return make_code(field, t, gens)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_transform_equals_eigen_route(q):
    """The transform, taken by Horner's rule, gives the eigen route's dual
    distribution for random codes at every t up to 8, zero counts
    included."""
    field = make_field(*NegQContext(q).prime_parts)
    ctx = NegQContext(q)
    rng = random.Random(f"sweep:{q}")
    seen_zero = False
    for t in range(1, 9):
        for k in range(3 if q < 5 else 2):
            code = _small_code(field, t, k, rng)
            counts = weight_distribution(code).counts
            seen_zero = seen_zero or 0 in counts
            assert macwilliams_transform(ctx, counts, code.size, t) \
                == macwilliams_eigen(ctx, counts, code.size, t)
    assert seen_zero


def test_transform_memo_is_bounded():
    """The transform holds O(t) values at a time while it fills a row: one
    row of G_m and one of the nu power. Memoising every row of a nu and a
    mu power chain, about t^3/6 values, peaked at 22 MB here."""
    tracemalloc.start()
    try:
        dual = macwilliams_transform(CTX2, [1] + [0] * 80, 1, 80)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dual == full_space_distribution(CTX2, 80)
    assert peak < 4 * 2 ** 20


def test_routes_suite_reports_a_non_integral_dual(monkeypatch):
    """A sample whose transformed distribution is not integral fails the
    routes suite with its own label, and the next sample is still run."""
    samples = sample_codes(make_field(2, 1), 2, 3, 0)

    def non_integral(ctx, counts, size, t):
        raise NonIntegralDual("entry 1 is 1/2")

    monkeypatch.setattr(verify, "macwilliams_eigen", non_integral)
    res = suite_routes(NegQContext(2), 2, samples)
    assert (res.passed, res.failed) == (0, 3)
    assert res.failures == [f"non-integral sample={n}: entry 1 is 1/2"
                            for n in range(3)]

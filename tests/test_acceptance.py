"""Acceptance checks for the package, one test per criterion.

Run `pytest -v tests/test_acceptance.py` for a one-line pass/fail verdict
per criterion.  Every comparison is exact integer equality; the handful of
runtime budgets are generous for any recent machine.
"""

import json
import time

from hrmc.cli import main
from hrmc.codes import (
    dual_code,
    enumerate_codewords,
    weight_distribution,
)
from hrmc.hermitian import enumerate_hermitian, inner_product, rank
from hrmc.macwilliams import (
    build_eigen_table,
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
from hrmc.negq import NegQContext, xi
from hrmc.polynomials import concretize, mu_poly, negq_power, nu_poly
from hrmc.verify import (
    delta_closed,
    epsilon_closed,
    nu_power_coeff,
    suite_evaluation,
    suite_gamma_beta,
    suite_gaussian,
    suite_leibniz,
)

from conftest import COMBOS, CORPUS_SEED

CTX2, CTX3 = NegQContext(2), NegQContext(3)


def test_criterion_01_rank_census(fields, capsys):
    start = time.perf_counter()
    counts = [0, 0, 0, 0]
    for h in enumerate_hermitian(fields[2], 3):
        counts[rank(h)] += 1
    elapsed = time.perf_counter() - start
    assert counts == [1, 21, 210, 280]
    assert counts == [xi(CTX2, 3, h) for h in range(4)]
    assert sum(counts) == 512
    assert elapsed < 1.0
    # `hrmc count` against the closed form for every census of at most
    # 2^16 matrices
    for q in (2, 3, 4, 5, 7, 13):
        ctx = NegQContext(q)
        t = 1
        while q ** (t * t) <= 1 << 16:
            assert main(["count", "--q", str(q), "--t", str(t),
                         "--format", "json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["counts"] == [str(xi(ctx, t, h))
                                         for h in range(t + 1)]
            t += 1


def test_criterion_02_worked_example(example_code):
    assert weight_distribution(example_code).counts == (1, 0, 3, 4)
    words = list(enumerate_codewords(example_code))
    assert len(words) == 8
    # the dual, found the slow honest way: filter the whole space
    dual_words = [h for h in enumerate_hermitian(example_code.field, 3)
                  if all(inner_product(h, w).index == 0 for w in words)]
    assert len(dual_words) == 64
    brute = [0, 0, 0, 0]
    for h in dual_words:
        brute[rank(h)] += 1
    eigen = macwilliams_eigen(CTX2, (1, 0, 3, 4), 8, 3)
    transform = macwilliams_transform(CTX2, (1, 0, 3, 4), 8, 3)
    assert tuple(brute) == eigen == transform == (1, 3, 24, 36)


def test_criterion_03_eigenvalue_routes_agree():
    start = time.perf_counter()
    for ctx in (CTX2, CTX3):
        for t in range(6):
            table = build_eigen_table(ctx, t)
            for x in range(t + 1):
                for k in range(t + 1):
                    assert table.values[x][k] == krawtchouk_C(ctx, k, x, t)
    assert time.perf_counter() - start < 5.0


def test_criterion_04_eigenvalue_recurrence():
    for ctx in (CTX2, CTX3):
        for t in range(5):
            for x in range(t + 1):
                for k in range(t + 1):
                    lhs = krawtchouk_Q(ctx, k + 1, x + 1, t + 1)
                    rhs = (krawtchouk_Q(ctx, k + 1, x, t + 1)
                           + ctx.b ** (2 * t + 1 - x)
                           * krawtchouk_Q(ctx, k, x, t))
                    assert lhs == rhs


def test_criterion_05_power_closed_forms():
    for ctx in (CTX2, CTX3):
        mu, nu = mu_poly(ctx), nu_poly(ctx)
        for t in range(7):
            power = concretize(negq_power(mu, t), t)
            assert power.coefficients == tuple(
                xi(ctx, t, h) for h in range(t + 1))
        for k in range(7):
            power = negq_power(nu, k)
            want = tuple(nu_power_coeff(ctx, k, i) for i in range(k + 1))
            # the nu powers carry no lambda dependence at all
            for lam in range(-3, 9):
                got = tuple(power.coefficient(i, lam) for i in range(k + 1))
                assert got == want


def test_criterion_06_gaussian_identity_suites():
    for q in (2, 3, 4):
        ctx = NegQContext(q)
        for res in (suite_gaussian(ctx, xmax=12), suite_gamma_beta(ctx, xmax=12)):
            assert res.failed == 0, res.failures
            assert res.passed > 0


def test_criterion_07_leibniz_rules():
    total = 0
    for ctx in (CTX2, CTX3):
        res = suite_leibniz(ctx, 50, CORPUS_SEED)
        assert res.failed == 0, res.failures
        total += 50
    assert total == 100


def test_criterion_08_evaluation_lemmas():
    total = 0
    for ctx in (CTX2, CTX3):
        res = suite_evaluation(ctx, 25, CORPUS_SEED)
        assert res.failed == 0, res.failures
        total += 25
    assert total == 50


def test_criterion_09_moment_identities(code_corpus):
    start = time.perf_counter()
    examined = 0
    for (q, t), samples in code_corpus.items():
        ctx = NegQContext(q)
        for s in samples:
            sizes = (s.code.size, s.dual.size)
            dual_wd = s.dual_counts
            dual_min = None
            dual_diam = max((i for i, c in enumerate(dual_wd) if c), default=0)
            nonzero = [i for i in range(1, t + 1) if dual_wd[i]]
            if nonzero:
                dual_min = nonzero[0]
            for phi in range(t + 1):
                m = moment_q(ctx, s.counts, dual_wd, sizes, t, phi)
                assert m["lhs"] == m["rhs"], (q, t, phi)
                m = moment_qinv(ctx, s.counts, dual_wd, sizes, t, phi)
                assert m["lhs"] == m["rhs"], (q, t, phi)
                if dual_min is None or phi < dual_min:
                    simple = moment_q_low(ctx, s.dual.size, t, phi)
                    full = moment_q(ctx, s.counts, dual_wd, sizes, t, phi)
                    assert full["rhs"] == simple, (q, t, phi)
                if phi > dual_diam:
                    assert moment_qinv_high(ctx, s.counts, t, phi) == 0
            examined += 1
    assert examined >= 50
    assert time.perf_counter() - start < 120.0


def test_criterion_10_size_identity(code_corpus):
    for (q, t), samples in code_corpus.items():
        for s in samples:
            assert s.code.size * s.dual.size == q ** (t * t)


def test_criterion_11_delta_epsilon_closed_forms():
    for ctx in (CTX2, CTX3):
        for lam in range(9):
            for phi in range(7):
                for j in range(7):
                    assert delta_fn(ctx, lam, phi, j) \
                        == delta_closed(ctx, lam, phi, j)
                for i in range(min(lam, 6) + 1):
                    assert epsilon_fn(ctx, lam, phi, i) \
                        == epsilon_closed(ctx, lam, phi, i)


def test_criterion_12_mhrd_and_biduality(code_corpus):
    for q, t in COMBOS:
        ctx = NegQContext(q)
        assert mhrd_distribution(ctx, t, 1, 1) == full_space_distribution(ctx, t)
    for (q, t), samples in code_corpus.items():
        ctx = NegQContext(q)
        for s in samples:
            once = macwilliams_eigen(ctx, s.counts, s.code.size, t)
            twice = macwilliams_eigen(ctx, once, s.dual.size, t)
            assert twice == s.counts

"""Self-checking suites behind the ``verify`` subcommand.

Each suite re-derives one family of identities from scratch and counts
how many instances hold. The closed-form helpers in this module exist
only as comparison targets; library code never calls them, so a suite
failure always means two genuinely independent computations disagreed.

All randomness flows from one seed, so a given (q, t, trials, seed)
quadruple produces byte-identical reports.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ._value import Value
from .calculus import (
    div_x,
    div_y,
    evaluate,
    negq_derivative,
    negq_inv_derivative,
    poly_add,
    poly_scale,
    scale_y,
    shift_lambda,
)
from .codes import (
    LinearCode,
    _theta_index,
    dual_code,
    vectorize,
    weight_distribution,
)
from .cost import check_guard, check_power_guard, sampled_words, value_words
from .eigen import (
    build_eigen_table,
    build_eigen_table_C,
    full_space_distribution,
    krawtchouk_Q,
)
from .errors import NonIntegralDual, UsageError
from .fields import Field
from .macwilliams import macwilliams_eigen, macwilliams_transform
from .moments import (
    delta_fn,
    epsilon_fn,
    mhrd_distribution,
    moment_q,
    moment_q_low,
    moment_qinv,
    moment_qinv_high,
)
from .negq import (
    NegQContext,
    beta_fn,
    bpow,
    gamma_ext,
    gamma_fn,
    gauss,
    gauss_ext,
    sequence_forward,
    sequence_inversion,
    triangle,
)
from .polynomials import LambdaPoly, mu_poly, negq_power, negq_product, nu_poly

LAMBDA_RANGE = range(-3, 9)  # default window for comparing parameterised polys


class SuiteResult(Value):
    __slots__ = ("name", "passed", "failed", "failures")
    __hash__ = None  # check() changes the counts

    def __init__(self, name: str, passed: int = 0, failed: int = 0,
                 failures: list[str] | None = None) -> None:
        self.name = name
        self.passed = passed
        self.failed = failed
        self.failures = [] if failures is None else failures

    def check(self, ok: bool, label: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(label)

    @property
    def ok(self) -> bool:
        return self.failed == 0


# ------------------------------------------------ closed-form comparators

def mu_power_coeff(ctx: NegQContext, k: int, u: int,
                   lam: int) -> int | Fraction:
    """Closed form for coefficient u of the k-fold mu power."""
    return gauss_ext(ctx, k, u) * gamma_ext(ctx, lam, u)


def nu_power_coeff(ctx: NegQContext, k: int, u: int) -> int:
    """Closed form for coefficient u of the k-fold nu power (lambda-free)."""
    return (-1) ** u * ctx.b ** triangle(u) * gauss(ctx, k, u)


def delta_closed(ctx: NegQContext, lam: int, phi: int, j: int):
    # an int for phi >= 0; only bpow's negative exponent makes a Fraction
    top = bpow(ctx, phi)
    prefactor = 1
    for i in range(j):
        prefactor *= top - ctx.b ** i
    if prefactor == 0:
        return 0
    v = ((-1) ** j * prefactor * gamma_ext(ctx, lam - j, phi - j)
         * bpow(ctx, j * (lam - j)))
    return int(v) if v.denominator == 1 else v


def epsilon_closed(ctx: NegQContext, big_lam: int, phi: int, i: int):
    v = (-1) ** i * ctx.b ** triangle(i) * gauss_ext(ctx, big_lam - i,
                                                     big_lam - phi)
    return int(v) if v.denominator == 1 else v


def polys_equal(a: LambdaPoly, b: LambdaPoly,
                lams=LAMBDA_RANGE) -> bool:
    """Equal coefficients at every lambda of lams, compared on the scaled
    rows brought to the larger power of b, so nothing is divided."""
    size, base = max(a.degree, b.degree) + 1, a.ctx.b

    def same(lam: int) -> bool:
        (ea, na), (eb, nb) = a._row(lam), b._row(lam)
        e = max(ea, eb)
        fa, fb = base ** (e - ea), base ** (e - eb)
        return ([x * fa for x in na] + [0] * (size - len(na))
                == [y * fb for y in nb] + [0] * (size - len(nb)))

    return all(map(same, lams))


def random_lambda_poly(ctx: NegQContext, rng: random.Random,
                       degree: int) -> LambdaPoly:
    """Polynomial coefficients of each Y-power of a random quadratic in lambda."""
    table = tuple(tuple(rng.randint(-4, 4) for _ in range(3))
                  for _ in range(degree + 1))

    def coeff(i: int, lam: int) -> int:
        c0, c1, c2 = table[i]
        return c0 + c1 * lam + c2 * lam * lam

    return LambdaPoly(ctx, degree, coeff)


def random_code(field: Field, t: int, rng: random.Random) -> LinearCode:
    """Random subcode: the span of 1..t^2 random Hermitian matrices, each
    drawn as its diagonal, then its upper cells row by row."""
    n_gens = rng.randint(1, t * t)
    subfield = field.subfield_indices()
    theta = _theta_index(field)
    rows = []
    for _ in range(n_gens):
        grid = [0] * (t * t)
        for i in range(t):
            grid[i * t + i] = subfield[rng.randrange(field.q)]
        for i in range(t):
            for j in range(i + 1, t):
                grid[i * t + j] = rng.randrange(field.order)
        rows.append(vectorize(field, t, grid, theta))
    return LinearCode(field, t, rows)


# --------------------------------------------------------------- suites

def suite_gaussian(ctx: NegQContext, xmax: int = 10) -> SuiteResult:
    res = SuiteResult("gaussian-identities")
    b = ctx.b
    for x in range(xmax + 1):
        for k in range(x + 1):
            res.check(gauss(ctx, x, k) == gauss(ctx, x, x - k),
                      f"symmetry x={x} k={k}")
        for i in range(x + 1):
            for k in range(x - i + 1):
                lhs = gauss(ctx, x, i) * gauss(ctx, x - i, k)
                rhs = gauss(ctx, x, k) * gauss(ctx, x - k, i)
                res.check(lhs == rhs, f"exchange x={x} i={i} k={k}")
        for y in (-2, -1, 0, 3, 7):
            prod = 1
            for i in range(x):
                prod *= y - b ** i
            expansion = sum((-1) ** (x - k) * b ** triangle(x - k)
                            * gauss(ctx, x, k) * y ** k for k in range(x + 1))
            res.check(prod == expansion, f"expansion x={x} y={y}")
            vander = sum(gauss(ctx, x, k)
                         * _eval_rising(y, b, k) for k in range(x + 1))
            res.check(vander == y ** x, f"vandermonde x={x} y={y}")
    for j in range(min(xmax, 8) + 1):
        for i in range(j + 1):
            s = sum((-1) ** (k - i) * b ** triangle(k - i)
                    * gauss(ctx, k, i) * gauss(ctx, j, k)
                    for k in range(i, j + 1))
            res.check(s == (1 if i == j else 0), f"orthogonality i={i} j={j}")
    for x in range(1, xmax + 1):
        for k in range(x + 1):
            g = gauss(ctx, x, k)
            res.check(g == gauss(ctx, x - 1, k)
                      + b ** (x - k) * gauss(ctx, x - 1, k - 1),
                      f"pascal-a x={x} k={k}")
            res.check(g == gauss(ctx, x - 1, k - 1) + b ** k * gauss(ctx, x - 1, k),
                      f"pascal-b x={x} k={k}")
            if k >= 1:
                res.check(g * (b ** k - 1)
                          == (b ** (x - k + 1) - 1) * gauss(ctx, x, k - 1),
                          f"pascal-c x={x} k={k}")
                res.check(g * (b ** k - 1)
                          == (b ** x - 1) * gauss(ctx, x - 1, k - 1),
                          f"pascal-e x={x} k={k}")
            if k <= x - 1:
                res.check(g * (b ** (x - k) - 1)
                          == (b ** x - 1) * gauss(ctx, x - 1, k),
                          f"pascal-d x={x} k={k}")
    return res


def _eval_rising(y: int, b: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= y - b ** i
    return out


def suite_gamma_beta(ctx: NegQContext, xmax: int = 10) -> SuiteResult:
    res = SuiteResult("gamma-beta")
    b = ctx.b
    for x in range(xmax + 1):
        for k in range(xmax + 1):
            g = gamma_fn(ctx, x, k)
            alt = b ** triangle(k)
            for i in range(k):
                alt *= -bpow(ctx, x - i) - 1  # exact even when i > x
            res.check(g == alt, f"gamma-shift x={x} k={k}")
            if x >= 1 and k >= 1:
                res.check(g == b ** (k - 1) * (-b ** x - 1)
                          * gamma_fn(ctx, x - 1, k - 1),
                          f"gamma-peel x={x} k={k}")
            res.check(gamma_fn(ctx, x, k + 1) == (-b ** x - b ** k) * g,
                      f"gamma-extend x={x} k={k}")
        for k in range(x + 2):
            res.check(beta_fn(ctx, x, k) == gauss(ctx, x, k) * beta_fn(ctx, k, k),
                      f"beta-split x={x} k={k}")
            if k <= x:
                res.check(beta_fn(ctx, x, k) * beta_fn(ctx, x - k, 1)
                          == beta_fn(ctx, x, k + 1),
                          f"beta-chain x={x} k={k}")
    return res


def suite_eigen(ctx: NegQContext, tmax: int = 5) -> SuiteResult:
    res = SuiteResult("eigen-routes")
    for t in range(tmax + 1):
        table = build_eigen_table(ctx, t)
        alt = build_eigen_table_C(ctx, t)
        for x in range(t + 1):
            for k in range(t + 1):
                res.check(table.values[x][k] == alt.values[x][k],
                          f"routes t={t} x={x} k={k}")
        for k in range(t + 1):
            res.check(table.values[0][k] == gauss(ctx, t, k) * gamma_fn(ctx, t, k),
                      f"row0 t={t} k={k}")
        for x in range(t + 1):
            res.check(table.values[x][0] == 1, f"col0 t={t} x={x}")
    for t in range(tmax):
        for x in range(t + 1):
            for k in range(t + 1):
                lhs = krawtchouk_Q(ctx, k + 1, x + 1, t + 1)
                rhs = (krawtchouk_Q(ctx, k + 1, x, t + 1)
                       + ctx.b ** (2 * t + 1 - x) * krawtchouk_Q(ctx, k, x, t))
                res.check(lhs == rhs, f"recurrence t={t} x={x} k={k}")
    return res


def suite_powers(ctx: NegQContext, kmax: int = 6) -> SuiteResult:
    res = SuiteResult("mu-nu-powers")
    mu, nu = mu_poly(ctx), nu_poly(ctx)
    for k in range(kmax + 1):
        mu_k = negq_power(mu, k)
        nu_k = negq_power(nu, k)
        for lam in LAMBDA_RANGE:
            for u in range(k + 1):
                res.check(mu_k.coefficient(u, lam) == mu_power_coeff(ctx, k, u, lam),
                          f"mu^{k} u={u} lam={lam}")
                res.check(nu_k.coefficient(u, lam) == nu_power_coeff(ctx, k, u),
                          f"nu^{k} u={u} lam={lam}")
        if k >= 2:
            left = negq_product(negq_product(mu, nu), mu)
            right = negq_product(mu, negq_product(nu, mu))
            res.check(polys_equal(left, right), f"assoc-mix k={k}")
    for t in range(kmax + 1):
        row = tuple(int(mu_power_coeff(ctx, t, u, t)) for u in range(t + 1))
        res.check(row == full_space_distribution(ctx, t), f"omega t={t}")
    return res


def suite_leibniz(ctx: NegQContext, trials: int, seed: int) -> SuiteResult:
    res = SuiteResult("leibniz")
    rng = random.Random(f"leibniz:{ctx.q}:{seed}")
    for trial in range(trials):
        rf, rg = rng.randint(0, 4), rng.randint(0, 4)
        f = random_lambda_poly(ctx, rng, rf)
        g = random_lambda_poly(ctx, rng, rg)
        prod = negq_product(f, g)
        # D^ell f, D^ell g and their reciprocal-base versions, ell = 0..4,
        # built once a trial so each memoises its rows for every phi
        df, dg, idf, idg = ([derive(h, ell) for ell in range(5)]
                            for derive in (negq_derivative, negq_inv_derivative)
                            for h in (f, g))
        for phi in range(0, 5):
            lhs = negq_derivative(prod, phi)
            rhs = None
            for ell in range(phi + 1):
                w = gauss(ctx, phi, ell) * bpow(ctx, (phi - ell) * (rf - ell))
                term = poly_scale(negq_product(df[ell], dg[phi - ell]), w)
                rhs = term if rhs is None else poly_add(rhs, term)
            res.check(polys_equal(lhs, rhs, range(-2, 7)),
                      f"q-rule trial={trial} phi={phi}")
            lhs2 = negq_inv_derivative(prod, phi)
            rhs2 = None
            for ell in range(phi + 1):
                w = gauss(ctx, phi, ell) * bpow(ctx, ell * (rg - phi + ell))
                term = poly_scale(
                    negq_product(idf[ell], shift_lambda(idg[phi - ell], ell)),
                    w)
                rhs2 = term if rhs2 is None else poly_add(rhs2, term)
            res.check(polys_equal(lhs2, rhs2, range(-2, 7)),
                      f"qinv-rule trial={trial} phi={phi}")
    return res


def suite_evaluation(ctx: NegQContext, trials: int, seed: int) -> SuiteResult:
    res = SuiteResult("evaluation")
    nu = nu_poly(ctx)
    for j in range(5):
        nu_j = negq_power(nu, j)
        for ell in range(5):
            got = evaluate(negq_derivative(nu_j, ell), 1, 1, 0)
            want = beta_fn(ctx, j, j) if j == ell else 0
            res.check(got == want, f"nu-eval j={j} ell={ell}")
    rng = random.Random(f"evaluation:{ctx.q}:{seed}")
    mu = mu_poly(ctx)
    for trial in range(trials):
        rho = random_lambda_poly(ctx, rng, rng.randint(0, 4))
        s = rng.randint(0, 4)
        lam = rng.randint(0, 6)
        lhs = evaluate(negq_product(rho, negq_power(mu, s)), 1, 1, lam)
        rhs = (-1) ** s * ctx.b ** (lam * s) * evaluate(rho, 1, 1, lam)
        res.check(lhs == rhs, f"mu-eval trial={trial} s={s} lam={lam}")
    return res


def suite_product_lemmas(ctx: NegQContext, trials: int, seed: int) -> SuiteResult:
    """Factor an X or Y out of a twisted product when one side allows it."""
    res = SuiteResult("product-lemmas")
    rng = random.Random(f"product-lemmas:{ctx.q}:{seed}")
    for trial in range(trials):
        ru, rv = rng.randint(1, 4), rng.randint(1, 4)
        u = random_lambda_poly(ctx, rng, ru)
        v = random_lambda_poly(ctx, rng, rv)
        u_top = _zero_coeff_at(u, ru)     # top Y-coefficient removed
        v_top = _zero_coeff_at(v, rv)
        u_bot = _zero_coeff_at(u, 0)      # pure-X coefficient removed
        v_bot = _zero_coeff_at(v, 0)
        res.check(polys_equal(div_x(negq_product(u_top, v)),
                              negq_product(div_x(u_top), v)),
                  f"left-x trial={trial}")
        res.check(polys_equal(div_x(negq_product(u, v_top)),
                              negq_product(scale_y(u), div_x(v_top))),
                  f"right-x trial={trial}")
        res.check(polys_equal(div_y(negq_product(u_bot, v)),
                              poly_scale(negq_product(div_y(u_bot),
                                                      shift_lambda(v, 1)),
                                         ctx.b ** rv)),
                  f"left-y trial={trial}")
        res.check(polys_equal(div_y(negq_product(u, v_bot)),
                              negq_product(scale_y(u), div_y(v_bot))),
                  f"right-y trial={trial}")
    return res


def _zero_coeff_at(a: LambdaPoly, pos: int) -> LambdaPoly:
    return LambdaPoly(a.ctx, a.degree,
                      lambda i, lam: 0 if i == pos else a.coefficient(i, lam))


def suite_delta_epsilon(ctx: NegQContext) -> SuiteResult:
    res = SuiteResult("delta-epsilon")
    for lam in range(9):
        for phi in range(7):
            for j in range(7):
                res.check(delta_fn(ctx, lam, phi, j)
                          == delta_closed(ctx, lam, phi, j),
                          f"delta lam={lam} phi={phi} j={j}")
            for i in range(min(lam, 6) + 1):
                res.check(epsilon_fn(ctx, lam, phi, i)
                          == epsilon_closed(ctx, lam, phi, i),
                          f"epsilon Lam={lam} phi={phi} i={i}")
    return res


def suite_inversion(ctx: NegQContext, trials: int, seed: int) -> SuiteResult:
    res = SuiteResult("inversion")
    rng = random.Random(f"inversion:{ctx.q}:{seed}")
    for trial in range(trials):
        ell = rng.randint(0, 6)
        b_seq = [rng.randint(-9, 9) for _ in range(ell + 1)]
        a_seq = sequence_forward(ctx, ell, b_seq)
        res.check(sequence_inversion(ctx, ell, a_seq) == b_seq,
                  f"roundtrip trial={trial} ell={ell}")
    return res


# ----------------------------------------------- code-level (needs a field)

class CodeSample(Value):
    __slots__ = ("code", "counts", "dual", "dual_counts")
    __hash__ = None

    def __init__(self, code: LinearCode, counts: tuple[int, ...],
                 dual: LinearCode, dual_counts: tuple[int, ...]) -> None:
        self.code = code
        self.counts = counts
        self.dual = dual
        self.dual_counts = dual_counts


def sample_codes(field: Field, t: int, trials: int, seed: int,
                 guard: int | None = None) -> list[CodeSample]:
    if trials > 0:
        # a code or its dual has at least q^ceil(t^2/2) words, and both
        # are enumerated, so refuse here when every sample would be
        # refused, then when all of them together would be
        check_power_guard(field.q, (t * t + 1) // 2, "codewords", guard)
        check_guard(sampled_words(field.q, t, trials), "sampled codewords",
                    guard)
    # every sample and its dual are drawn, and their exact sizes refused
    # together, before any of them is enumerated
    drawn = []
    for i in range(trials):
        rng = random.Random(f"{seed}:{field.q}:{t}:{i}")
        code = random_code(field, t, rng)
        drawn.append((code, dual_code(code)))
    check_guard(sum(code.size + dual.size for code, dual in drawn),
                "sampled codewords", guard)
    return [CodeSample(code, weight_distribution(code, guard).counts,
                       dual, weight_distribution(dual, guard).counts)
            for code, dual in drawn]


def suite_routes(ctx: NegQContext, t: int, samples: list[CodeSample]) -> SuiteResult:
    res = SuiteResult("macwilliams-routes")
    for n, s in enumerate(samples):
        try:
            eigen = macwilliams_eigen(ctx, s.counts, s.code.size, t)
            transform = macwilliams_transform(ctx, s.counts, s.code.size, t)
        except NonIntegralDual as exc:
            res.check(False, f"non-integral sample={n}: {exc}")
            continue
        res.check(eigen == s.dual_counts, f"eigen-vs-brute sample={n}")
        res.check(transform == s.dual_counts, f"transform-vs-brute sample={n}")
        res.check(s.code.size * s.dual.size == ctx.q ** (t * t),
                  f"size-product sample={n}")
    return res


def suite_moments(ctx: NegQContext, t: int, samples: list[CodeSample]) -> SuiteResult:
    res = SuiteResult("moments")
    for n, s in enumerate(samples):
        sizes = (s.code.size, s.dual.size)
        dual_min = next((r for r in range(1, t + 1) if s.dual_counts[r]), t + 1)
        dual_diam = max(r for r in range(t + 1) if s.dual_counts[r])
        for phi in range(t + 1):
            m1 = moment_q(ctx, s.counts, s.dual_counts, sizes, t, phi)
            res.check(m1["lhs"] == m1["rhs"], f"q-moment sample={n} phi={phi}")
            if phi < dual_min:
                res.check(m1["lhs"] == moment_q_low(ctx, s.dual.size, t, phi),
                          f"q-moment-low sample={n} phi={phi}")
            m2 = moment_qinv(ctx, s.counts, s.dual_counts, sizes, t, phi)
            res.check(m2["lhs"] == m2["rhs"], f"qinv-moment sample={n} phi={phi}")
            if phi > dual_diam:
                res.check(moment_qinv_high(ctx, s.counts, t, phi) == 0,
                          f"qinv-moment-high sample={n} phi={phi}")
    return res


def suite_mhrd(ctx: NegQContext, t: int, samples: list[CodeSample]) -> SuiteResult:
    res = SuiteResult("mhrd-biduality")
    res.check(mhrd_distribution(ctx, t, 1, 1) == full_space_distribution(ctx, t),
              "full-space row")
    for n, s in enumerate(samples):
        back = macwilliams_eigen(ctx, s.dual_counts, s.dual.size, t)
        res.check(back == s.counts, f"biduality sample={n}")
    return res


def run_verification(field: Field, t: int, trials: int, seed: int,
                     guard: int | None = None) -> list[SuiteResult]:
    if trials < 0:
        raise UsageError(f"trials must be at least 0, got {trials}")
    ctx = NegQContext(field.q)
    samples = sample_codes(field, t, trials, seed, guard)
    # suite_mhrd's full-space row sums as much as mhrd at d = 1
    check_guard(value_words(field.q, t, (t + 1) ** 2),
                "estimated words summed by the closed form", guard)
    return [
        suite_gaussian(ctx),
        suite_gamma_beta(ctx),
        suite_eigen(ctx, min(max(t, 3), 5)),
        suite_powers(ctx),
        suite_leibniz(ctx, trials, seed),
        suite_evaluation(ctx, trials, seed),
        suite_product_lemmas(ctx, trials, seed),
        suite_delta_epsilon(ctx),
        suite_inversion(ctx, trials, seed),
        suite_routes(ctx, t, samples),
        suite_moments(ctx, t, samples),
        suite_mhrd(ctx, t, samples),
    ]

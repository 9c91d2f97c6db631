"""Command line front end.

Subcommands:

* count       -- enumerate Hermitian matrices, census by rank, compare to
                 the closed form
* eigen       -- print the eigenvalue table, cross-checking both routes
* wd          -- rank-weight distribution of a code given as JSON, counted
                 on whichever of the code and its dual has fewer words
* dual        -- all dual-distribution routes for a code, plus moments
* macwilliams -- transform a raw distribution by both routes
* mhrd        -- closed-form distribution of a maximal code
* verify      -- run the identity suites and report per-suite counts

Exit codes: 0 on success; 1 when independently computed routes disagree,
a verification suite fails or another ``CheckFailed`` is raised; 2 for
every ``UsageError``, that is input that cannot be used: a q that is not
a prime power, ``--t`` below 1, ``--d`` outside 1..t or even, ``--phi``
outside 0..t, ``--size`` below 1, negative ``--trials``, a malformed code
file or one with a non-Hermitian generator, a ``--dist`` that is not the
distribution of any code, an enumeration above the guard, an
``eigen``, ``macwilliams`` or ``mhrd`` output estimated at more decimal
digits than the guard, or a ``macwilliams`` transform estimated to
memoise more words than the guard. The class of the error, fixed where
it is raised, alone decides between 1 and 2; either way stderr gets one
``error:`` line. JSON output is canonical (sorted keys, no whitespace) with every
integer rendered as a decimal string, so repeated runs and different
worker counts produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction

from .codes import (
    WeightDistribution,
    code_from_jsonable,
    dual_code,
    make_code,
    rank_counts,
    standard_basis,
    weight_distribution,
)
from .errors import CheckFailed, HrmcError, NonIntegralDual, UsageError
from .fields import make_field
from .hermitian import DEFAULT_GUARD, check_guard, enumeration_guard
from .macwilliams import (
    build_eigen_table,
    build_eigen_table_C,
    full_space_distribution,
    macwilliams_eigen,
    macwilliams_transform,
    mhrd_distribution,
    moment_q,
    moment_qinv,
)
from .negq import NegQContext


class RunConfig:
    __slots__ = ("enumeration_guard", "rng_seed", "worker_count",
                 "output_format")

    def __init__(self, enumeration_guard: int = DEFAULT_GUARD,
                 rng_seed: int = 0, worker_count: int = 1,
                 output_format: str = "table") -> None:
        self.enumeration_guard = enumeration_guard
        self.rng_seed = rng_seed
        self.worker_count = worker_count
        self.output_format = output_format

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.enumeration_guard, self.rng_seed, self.worker_count,
                 self.output_format)
                == (other.enumeration_guard, other.rng_seed,
                    other.worker_count, other.output_format))

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        workers = getattr(args, "workers", 1)
        if workers < 1:
            raise UsageError(f"--workers must be at least 1, got {workers}")
        return cls(
            enumeration_guard=enumeration_guard(args.guard),
            rng_seed=getattr(args, "seed", 0) or 0,
            worker_count=workers,
            output_format=getattr(args, "format", "table") or "table",
        )


def _matrix_size(t: int) -> int:
    if t < 1:
        raise UsageError(f"--t must be at least 1, got {t}")
    return t


def _check_output_digits(q: int, t: int, entries: int,
                         config: RunConfig) -> None:
    """Refuse a closed-form command before it computes, when its output
    would hold more decimal digits than the guard: ``entries`` values of
    about as many digits as q^(t^2), which bounds every eigenvalue and
    count. q^64 has d digits, so q^n has at most n*d/64 + 1."""
    digits = t * t * len(str(q ** 64)) // 64 + 1
    check_guard(entries * digits, "estimated output digits",
                config.enumeration_guard)


def _check_transform_words(q: int, t: int, config: RunConfig) -> None:
    """Refuse ``macwilliams`` before its transform builds a product, when
    the coefficients it memoises would be too large: (t+1)^2 values as
    long as q^(t^2), counted in 30-bit words (CPython's int digits). The
    memo holds about t^3/6 values, most of them shorter, so the estimate
    follows the growth of its size rather than bounding it; at q=2 the
    default guard accepts t up to 148. q^64 has c bits, so q^n has at
    most n*c/64 + 1."""
    bits = t * t * (q ** 64).bit_length() // 64 + 1
    check_guard((t + 1) ** 2 * -(-bits // 30),
                "estimated words memoised by the transform",
                config.enumeration_guard)


# ------------------------------------------------------------- output

def _stringify(obj):
    """Render every integer (however large) as a decimal string."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, Fraction):
        return str(obj)  # "p/q" for the rare legitimately rational value
    if isinstance(obj, (list, tuple)):
        return [_stringify(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _stringify(v) for k, v in obj.items()}
    return obj


@contextlib.contextmanager
def _all_digits():
    """Lift Python's limit on the digits of an int-to-str conversion while
    output is rendered; input parsing (``--dist``, code files) keeps it."""
    if not hasattr(sys, "set_int_max_str_digits"):  # before Python 3.11
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def emit(payload: dict, config: RunConfig, table_lines) -> None:
    """Print the payload as canonical JSON, or the table lines (which may
    be a lazy iterable), with every integer rendered in full."""
    with _all_digits():
        if config.output_format == "json":
            print(json.dumps(_stringify(payload), sort_keys=True,
                             separators=(",", ":")))
        else:
            for line in table_lines:
                print(line)


# ------------------------------------------------------------- workers

# Fewest words worth a process of their own. Starting a pool of two and
# mapping over it costs 10-24 ms (median 16 ms) more than running its
# tasks in-process, and the kernel ranks 0.39-1.4 M words/s (q=2 t=4 to
# q=13 t=2), so at the slowest rate a start-up costs about as much as
# ranking 2^13 words (2 vCPU, Python 3.11).
MIN_WORDS_PER_PROCESS = 2 ** 13


def _index_ranges(total: int, workers: int) -> list[tuple[int, int]]:
    """Split [0, total) into one range per process worth starting: no more
    than requested, than CPUs, or than ranges of MIN_WORDS_PER_PROCESS
    indices each."""
    parts = max(1, min(workers, os.cpu_count() or 1,
                       total // MIN_WORDS_PER_PROCESS))
    step = -(-total // parts)
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _count_range(task: tuple) -> list[int]:
    return rank_counts(*task)


def _weight_distribution(code, config: RunConfig) -> WeightDistribution:
    """weight_distribution, split by index range over --workers processes."""
    tasks = [(code, lo, hi, config.enumeration_guard)
             for lo, hi in _index_ranges(code.size, config.worker_count)]
    if len(tasks) == 1:
        parts = [_count_range(tasks[0])]
    else:
        import multiprocessing  # loaded only when a pool is started
        with multiprocessing.Pool(processes=len(tasks)) as pool:
            parts = pool.map(_count_range, tasks)
    counts = tuple(sum(column) for column in zip(*parts))
    return WeightDistribution(code.field.q, code.t, code.k, counts)


# ------------------------------------------------------------- commands

def cmd_count(args, config: RunConfig) -> int:
    t = _matrix_size(args.t)
    ctx = NegQContext(args.q)
    field = make_field(*ctx.prime_parts)
    # refuse before the t^2 basis matrices are built, not after
    check_guard(field.q ** (t * t), "matrices", config.enumeration_guard)
    full_space = make_code(field, t, list(standard_basis(field, t)))
    counts = list(_weight_distribution(full_space, config).counts)
    closed = list(full_space_distribution(ctx, t))
    match = counts == closed
    payload = {"q": field.q, "t": t, "counts": counts,
               "closed_form": closed, "match": match}
    lines = [f"rank census, q={field.q} t={t} ({full_space.size} matrices)"]
    lines += [f"  rank {r}: {c}" for r, c in enumerate(counts)]
    lines.append(f"closed form: {closed}")
    lines.append("MATCH" if match else "MISMATCH")
    emit(payload, config, lines)
    return 0 if match else 1


def cmd_eigen(args, config: RunConfig) -> int:
    t = _matrix_size(args.t)
    ctx = NegQContext(args.q)
    _check_output_digits(ctx.q, t, (t + 1) ** 2, config)
    table = build_eigen_table(ctx, t)
    alt = build_eigen_table_C(ctx, t)
    for x in range(t + 1):
        for k in range(t + 1):
            if table.values[x][k] != alt.values[x][k]:
                raise CheckFailed(
                    f"eigen routes differ at x={x} k={k}: "
                    f"{table.values[x][k]} vs {alt.values[x][k]}")
    with _all_digits():  # entries pass 4300 digits from about q=2, t=120
        payload = table.to_jsonable()
        lines = [f"eigenvalue table, q={args.q} t={args.t} (both routes agree)"]
        lines += ["  " + " ".join(f"{v:>10}" for v in row)
                  for row in table.values]
    emit(payload, config, lines)
    return 0


def _load_code(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        return code_from_jsonable(obj)
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        raise UsageError(f"cannot read code from {path}: {exc}") from exc


def _weight_distribution_via_dual(code, config: RunConfig) -> WeightDistribution:
    """Count the words of the trace dual and map the counts back: the dual
    of the dual is the code, so one MacWilliams step gives its distribution.
    The eigen and transform routes must agree on it."""
    dual = dual_code(code)
    dual_counts = _weight_distribution(dual, config).counts
    ctx = NegQContext(code.field.q)
    eigen = macwilliams_eigen(ctx, dual_counts, dual.size, code.t)
    transform = macwilliams_transform(ctx, dual_counts, dual.size, code.t)
    if eigen != transform:
        raise CheckFailed(f"routes disagree: {eigen} vs {transform}")
    return WeightDistribution(code.field.q, code.t, code.k, eigen)


def cmd_wd(args, config: RunConfig) -> int:
    code = _load_code(args.input)
    # enumerate whichever of C and its dual has fewer words
    count = (_weight_distribution_via_dual if code.t * code.t - code.k < code.k
             else _weight_distribution)
    wd = count(code, config).to_jsonable()
    lines = [f"weight distribution, q={wd['q']} t={wd['t']} k={wd['k']}",
             "  " + " ".join(str(c) for c in wd["counts"])]
    emit(wd, config, lines)
    return 0


def cmd_dual(args, config: RunConfig) -> int:
    code = _load_code(args.input)
    guard = config.enumeration_guard
    ctx = NegQContext(code.field.q)
    t = code.t
    # refuse before the t^2 basis matrices of the dual are built, not after
    check_guard(code.size, "codewords", guard)
    check_guard(ctx.q ** (t * t - code.k), "dual codewords", guard)
    primal = weight_distribution(code, guard)
    dual = dual_code(code)
    brute = weight_distribution(dual, guard)
    eigen = macwilliams_eigen(ctx, primal.counts, code.size, t)
    transform = macwilliams_transform(ctx, primal.counts, code.size, t)
    match = eigen == brute.counts == transform
    phis = [args.phi] if args.phi is not None else list(range(t + 1))
    moments = []
    moments_ok = True
    for phi in phis:
        m1 = moment_q(ctx, primal.counts, brute.counts,
                      (code.size, dual.size), t, phi)
        m2 = moment_qinv(ctx, primal.counts, brute.counts,
                         (code.size, dual.size), t, phi)
        ok = m1["lhs"] == m1["rhs"] and m2["lhs"] == m2["rhs"]
        moments_ok = moments_ok and ok
        moments.append({"phi": phi, "q_lhs": m1["lhs"], "q_rhs": m1["rhs"],
                        "qinv_lhs": m2["lhs"], "qinv_rhs": m2["rhs"],
                        "match": ok})
    payload = {
        "code": primal.to_jsonable(),
        "dual_brute": brute.to_jsonable(),
        "dual_eigen": list(eigen),
        "dual_transform": list(transform),
        "match": match,
        "moments": moments,
    }
    lines = [
        f"code: q={ctx.q} t={t} k={code.k} counts={list(primal.counts)}",
        f"dual (enumerated): k={dual.k} counts={list(brute.counts)}",
        f"dual (eigen route): {list(eigen)}",
        f"dual (transform route): {list(transform)}",
        "PASS" if match else "FAIL",
    ]
    for m in moments:
        lines.append(
            f"moment phi={m['phi']}: q {m['q_lhs']} = {m['q_rhs']}, "
            f"reciprocal {m['qinv_lhs']} = {m['qinv_rhs']} "
            f"[{'ok' if m['match'] else 'MISMATCH'}]")
    emit(payload, config, lines)
    return 0 if match and moments_ok else 1


def _parse_dist(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad distribution {text!r}: {exc}") from exc


def _check_dist(args, counts: list[int]) -> None:
    """Refuse counts that no code has: a negative count, a zero word
    counted other than once, or counts that do not sum to --size. A
    --size below 1 is left to macwilliams_eigen, which names it."""
    if args.size < 1:
        return
    if any(c < 0 for c in counts):
        fault = "a count is negative"
    elif counts[0] != 1:
        fault = f"the zero word is counted {counts[0]} times, not once"
    elif sum(counts) != args.size:
        fault = f"the counts sum to {sum(counts)}"
    else:
        return
    raise UsageError(f"--dist {args.dist} with --size {args.size} is not "
                     f"the distribution of a code ({fault})")


def cmd_macwilliams(args, config: RunConfig) -> int:
    t = _matrix_size(args.t)
    ctx = NegQContext(args.q)
    _check_output_digits(ctx.q, t, t + 1, config)
    _check_transform_words(ctx.q, t, config)
    counts = _parse_dist(args.dist)
    if len(counts) != t + 1:
        raise UsageError(
            f"need {t + 1} comma-separated counts, got {len(counts)}")
    _check_dist(args, counts)
    try:
        eigen = macwilliams_eigen(ctx, counts, args.size, t)
    except NonIntegralDual as exc:
        # the counts come from the caller, so no code has them: bad input
        raise UsageError(
            f"--dist {args.dist} with --size {args.size} is not the "
            f"distribution of a code ({exc})") from exc
    transform = macwilliams_transform(ctx, counts, args.size, t)
    if eigen != transform:
        raise CheckFailed(f"routes disagree: {eigen} vs {transform}")
    payload = {"q": args.q, "t": args.t, "size": args.size,
               "input": counts, "dual": list(eigen)}
    with _all_digits():
        lines = [f"dual distribution, q={args.q} t={args.t} |C|={args.size}",
                 f"  {list(eigen)} (both routes agree)"]
    emit(payload, config, lines)
    return 0


def cmd_mhrd(args, config: RunConfig) -> int:
    t = _matrix_size(args.t)
    ctx = NegQContext(args.q)
    _check_output_digits(ctx.q, t, t + 1, config)
    if not 1 <= args.d <= t:  # before q^(t(d-1)) is computed for any d
        raise UsageError(f"--d must be in 1..{t}, got {args.d}")
    dual_size = args.q ** (t * (args.d - 1))
    counts = mhrd_distribution(ctx, t, args.d, dual_size)
    payload = {"q": args.q, "t": args.t, "d": args.d,
               "dual_size": dual_size, "counts": list(counts)}
    with _all_digits():
        lines = [f"maximal-code distribution, q={args.q} t={args.t} d={args.d}",
                 f"  {list(counts)}"]
    emit(payload, config, lines)
    return 0


def cmd_verify(args, config: RunConfig) -> int:
    from .verify import run_verification  # only this command needs it
    t = _matrix_size(args.t)
    field = make_field(*NegQContext(args.q).prime_parts)
    results = run_verification(field, t, args.trials, config.rng_seed,
                               config.enumeration_guard)
    all_ok = all(r.ok for r in results)
    payload = {
        "q": args.q, "t": args.t, "trials": args.trials,
        "seed": config.rng_seed,
        "suites": [{"name": r.name, "passed": r.passed, "failed": r.failed,
                    "failures": r.failures} for r in results],
        "ok": all_ok,
    }
    lines = []
    for r in results:
        status = "ok" if r.ok else "FAIL"
        lines.append(f"{r.name:<22} {r.passed:>6} passed {r.failed:>4} failed  {status}")
        for f in r.failures:
            lines.append(f"    {f}")
    lines.append("ALL SUITES PASSED" if all_ok else "SUITE FAILURES")
    emit(payload, config, lines)
    return 0 if all_ok else 1


# ------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrmc",
        description="Exact computations for Hermitian rank-metric codes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, seed=False, workers=True):
        p.add_argument("--guard", type=int, default=None,
                       help="cap on objects enumerated, cells per word, "
                            "estimated output digits and transform words "
                            "(default: HRMC_GUARD or 2^24)")
        p.add_argument("--format", choices=("table", "json"), default="table")
        if workers:
            p.add_argument("--workers", type=int, default=1)
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("count", help="rank census of all Hermitian matrices")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    common(p)

    p = sub.add_parser("eigen", help="eigenvalue table by two routes")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    common(p, workers=False)

    p = sub.add_parser("wd", help="weight distribution of a code")
    p.add_argument("--input", required=True, help="code JSON file")
    common(p)

    p = sub.add_parser("dual", help="dual distribution by three routes")
    p.add_argument("--input", required=True, help="code JSON file")
    p.add_argument("--phi", type=int, default=None,
                   help="restrict the moment table to one phi")
    common(p, workers=False)

    p = sub.add_parser("macwilliams", help="transform a raw distribution")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--dist", required=True, help="comma-separated counts")
    p.add_argument("--size", type=int, required=True, help="code size")
    common(p, workers=False)

    p = sub.add_parser("mhrd", help="closed-form maximal-code distribution")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--d", type=int, required=True, help="minimum distance (odd)")
    common(p, workers=False)

    p = sub.add_parser("verify", help="run the identity suites")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    common(p, seed=True)

    return parser


_COMMANDS = {
    "count": cmd_count,
    "eigen": cmd_eigen,
    "wd": cmd_wd,
    "dual": cmd_dual,
    "macwilliams": cmd_macwilliams,
    "mhrd": cmd_mhrd,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig.from_args(args)
        return _COMMANDS[args.command](args, config)
    except HrmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())

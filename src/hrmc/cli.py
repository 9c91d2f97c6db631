"""Command line front end.

Subcommands:

* count       -- enumerate Hermitian matrices, census by rank, compare to
                 the closed form
* eigen       -- print the eigenvalue table from the three-term
                 recurrence, checked against the C closed form
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
distribution of any code, or work or output that :mod:`hrmc.cost`
estimates above the guard. The class of the error, fixed where it is
raised, alone decides between 1 and 2; either way stderr gets one
``error:`` line. JSON output is canonical (sorted keys, no whitespace)
with every integer rendered as a decimal string, so repeated runs and
different worker counts produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction

from .cost import (
    check_guard,
    check_power_guard,
    enumeration_guard,
    output_digits,
    value_words,
)
from .errors import CheckFailed, HrmcError, NonIntegralDual, UsageError

# Each command imports the modules it runs when it runs, so a process
# compiles only those (start-up is most of a small command's time).


def _matrix_size(t: int) -> int:
    if t < 1:
        raise UsageError(f"--t must be at least 1, got {t}")
    return t


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


def emit(payload: dict, output_format: str, table_lines) -> None:
    """Print the payload as canonical JSON, or the table lines (which may
    be a lazy iterable), with every integer rendered in full. The JSON is
    written as it is encoded, never held as one string."""
    with _all_digits():
        if output_format == "json":
            json.dump(_stringify(payload), sys.stdout, sort_keys=True,
                      separators=(",", ":"))
            sys.stdout.write("\n")
        else:
            for line in table_lines:
                print(line)


# ------------------------------------------------------------- workers

# Fewest words worth a process of their own. Making a pipe and forking
# take about 0.2 ms in the parent, and a child that counts one word has
# answered and been reaped about 3 ms after the fork (medians of 200;
# 2 vCPU, Python 3.11). The kernel ranks 0.64-2.1 M words/s (q=2 t=4 to
# q=13 t=2), so a child's start-up costs as much as ranking 1,900-6,400
# words, and a range of 2^13 words (3.9-12.8 ms) pays for its child at
# every rate, where the child has a CPU of its own.
MIN_WORDS_PER_PROCESS = 2 ** 13


def _index_ranges(total: int, workers: int) -> list[tuple[int, int]]:
    """Split [0, total) into one range per process worth starting: no more
    than requested, than CPUs this process may run on, or than ranges of
    MIN_WORDS_PER_PROCESS indices each. One range where os.fork is
    missing."""
    if not hasattr(os, "fork"):
        return [(0, total)]
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    parts = max(1, min(workers, cpus, total // MIN_WORDS_PER_PROCESS))
    step = -(-total // parts)
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _fork_counter(code, start: int, stop: int, guard) -> tuple[int, int]:
    """Fork a child that counts words start..stop-1 and exits; return its
    pid and the read end of the pipe it answers on. The child writes its
    counts as a JSON list and exits 0, or writes the exception it raised,
    pickled, and exits 1. The CLI starts no threads, so the child inherits
    no lock held by another thread."""
    from .codes import rank_counts
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    status = 2  # nothing sent: the parent reports the status
    try:
        os.close(read)
        try:
            body, sent = json.dumps(
                rank_counts(code, start, stop, guard)).encode(), 0
        except BaseException as exc:  # re-raised by the parent
            import pickle
            body, sent = pickle.dumps(exc), 1
        with open(write, "wb") as pipe:
            pipe.write(body)
        status = sent
    finally:
        os._exit(status)  # never return into the parent's stack


def _child_counts(pid: int, read: int) -> list[int]:
    """Read a child's answer to EOF, reap it, and return its counts or
    raise the exception it sent; CheckFailed if it sent neither."""
    with open(read, "rb", closefd=False) as pipe:
        body = pipe.read()
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status == 0:
        return json.loads(body)
    if status == 1:
        import pickle
        raise pickle.loads(body)
    how = f"signal {-status}" if status < 0 else f"exit code {status}"
    raise CheckFailed(f"--workers process {pid} ended by {how} and sent "
                      "no counts")


def _weight_distribution(code, args):
    """weight_distribution, split by index range over --workers processes:
    one child is forked per range after the first, before counting
    starts, and this process counts the first range itself."""
    from .codes import WeightDistribution, rank_counts
    (lo, hi), *rest = _index_ranges(code.size, args.workers)
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        for start, stop in rest:
            children.append(_fork_counter(code, start, stop, args.guard))
        parts = [rank_counts(code, lo, hi, args.guard)]
        parts += [_child_counts(pid, read) for pid, read in children]
    finally:
        # On every exit path: kill and reap each child not reaped yet.
        for pid, read in children:
            os.close(read)
            with contextlib.suppress(ChildProcessError):  # reaped already
                if os.waitpid(pid, os.WNOHANG) == (0, 0):
                    import signal
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
    counts = tuple(sum(column) for column in zip(*parts))
    return WeightDistribution(code.field.q, code.t, code.k, counts)


# ------------------------------------------------------------- commands

def cmd_count(args) -> int:
    from .codes import dual_code, make_code
    from .fields import make_field
    from .negq import NegQContext, xi
    t = _matrix_size(args.t)
    ctx = NegQContext(args.q, args.guard)
    field = make_field(*ctx.prime_parts)
    # refuse before the t^2 unit matrices, the zero code's dual, are built
    check_power_guard(field.q, t * t, "matrices", args.guard)
    full_space = dual_code(make_code(field, t, []))
    counts = list(_weight_distribution(full_space, args).counts)
    closed = [xi(ctx, t, h) for h in range(t + 1)]
    match = counts == closed
    payload = {"q": field.q, "t": t, "counts": counts,
               "closed_form": closed, "match": match}
    lines = [f"rank census, q={field.q} t={t} ({full_space.size} matrices)"]
    lines += [f"  rank {r}: {c}" for r, c in enumerate(counts)]
    lines.append(f"closed form: {closed}")
    lines.append("MATCH" if match else "MISMATCH")
    emit(payload, args.format, lines)
    return 0 if match else 1


def cmd_eigen(args) -> int:
    from .macwilliams import build_eigen_table_C, build_eigen_table_recurrence
    from .negq import NegQContext
    t = _matrix_size(args.t)
    ctx = NegQContext(args.q, args.guard)
    check_guard(output_digits(ctx.q, t, (t + 1) ** 2),
                "estimated output digits", args.guard)
    table = build_eigen_table_recurrence(ctx, t)
    alt = build_eigen_table_C(ctx, t)
    for x in range(t + 1):
        for k in range(t + 1):
            if table.values[x][k] != alt.values[x][k]:
                raise CheckFailed(
                    f"eigen routes differ at x={x} k={k}: "
                    f"{table.values[x][k]} vs {alt.values[x][k]}")
    del alt
    # Only the chosen format is rendered; the lines are made as emit prints
    # them. Entries pass 4300 digits from about q=2, t=120.
    if args.format == "json":
        with _all_digits():
            payload = table.to_jsonable()
    else:
        payload = None
    emit(payload, args.format, _eigen_lines(table))
    return 0


def _eigen_lines(table):
    yield f"eigenvalue table, q={table.q} t={table.t} (both routes agree)"
    for row in table.values:
        yield "  " + " ".join(f"{v:>10}" for v in row)


def _load_code(path: str):
    from .codes import code_from_jsonable
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        return code_from_jsonable(obj)
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        raise UsageError(f"cannot read code from {path}: {exc}") from exc


def _weight_distribution_via_dual(code, args):
    """Count the words of the trace dual and map the counts back: the dual
    of the dual is the code, so one MacWilliams step gives its distribution.
    The eigen and transform routes must agree on it."""
    from .codes import WeightDistribution, dual_code
    from .macwilliams import macwilliams_eigen, macwilliams_transform
    from .negq import NegQContext
    dual = dual_code(code)
    dual_counts = _weight_distribution(dual, args).counts
    ctx = NegQContext(code.field.q)
    eigen = macwilliams_eigen(ctx, dual_counts, dual.size, code.t)
    transform = macwilliams_transform(ctx, dual_counts, dual.size, code.t)
    if eigen != transform:
        raise CheckFailed(f"routes disagree: {eigen} vs {transform}")
    return WeightDistribution(code.field.q, code.t, code.k, eigen)


def cmd_wd(args) -> int:
    code = _load_code(args.input)
    # enumerate whichever of C and its dual has fewer words
    count = (_weight_distribution_via_dual if code.t * code.t - code.k < code.k
             else _weight_distribution)
    wd = count(code, args).to_jsonable()
    lines = [f"weight distribution, q={wd['q']} t={wd['t']} k={wd['k']}",
             "  " + " ".join(str(c) for c in wd["counts"])]
    emit(wd, args.format, lines)
    return 0


def cmd_dual(args) -> int:
    from .codes import dual_code, weight_distribution
    from .macwilliams import (
        macwilliams_eigen, macwilliams_transform, moment_q, moment_qinv)
    from .negq import NegQContext
    code = _load_code(args.input)
    guard = args.guard
    ctx = NegQContext(code.field.q)
    t = code.t
    # refuse before the dual's t^2 - k generators are built, not after
    check_power_guard(ctx.q, code.k, "codewords", guard)
    check_power_guard(ctx.q, t * t - code.k, "dual codewords", guard)
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
    emit(payload, args.format, lines)
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


def cmd_macwilliams(args) -> int:
    from .macwilliams import macwilliams_eigen, macwilliams_transform
    from .negq import NegQContext
    t = _matrix_size(args.t)
    ctx = NegQContext(args.q, args.guard)
    check_guard(output_digits(ctx.q, t, t + 1), "estimated output digits",
                args.guard)
    check_guard(value_words(ctx.q, t, (t + 1) ** 2),
                "estimated words memoised by the transform", args.guard)
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
    emit(payload, args.format, lines)
    return 0


def cmd_mhrd(args) -> int:
    from .macwilliams import mhrd_distribution
    from .negq import NegQContext
    t = _matrix_size(args.t)
    ctx = NegQContext(args.q, args.guard)
    check_guard(output_digits(ctx.q, t, t + 1), "estimated output digits",
                args.guard)
    if not 1 <= args.d <= t:  # before q^(t(d-1)) is computed for any d
        raise UsageError(f"--d must be in 1..{t}, got {args.d}")
    # Gaussian rows and terms of the sum: at d = 1 as many values as the
    # transform's (t + 1)^2, so q=2 accepts the t that macwilliams does
    check_guard(value_words(ctx.q, t, (t - args.d + 2) * (t + 1)),
                "estimated words summed by the closed form", args.guard)
    dual_size = args.q ** (t * (args.d - 1))
    counts = mhrd_distribution(ctx, t, args.d, dual_size)
    payload = {"q": args.q, "t": args.t, "d": args.d,
               "dual_size": dual_size, "counts": list(counts)}
    with _all_digits():
        lines = [f"maximal-code distribution, q={args.q} t={args.t} d={args.d}",
                 f"  {list(counts)}"]
    emit(payload, args.format, lines)
    return 0


def cmd_verify(args) -> int:
    from .fields import make_field
    from .negq import NegQContext
    from .verify import run_verification
    t = _matrix_size(args.t)
    field = make_field(*NegQContext(args.q, args.guard).prime_parts)
    results = run_verification(field, t, args.trials, args.seed, args.guard)
    all_ok = all(r.ok for r in results)
    payload = {
        "q": args.q, "t": args.t, "trials": args.trials,
        "seed": args.seed,
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
    emit(payload, args.format, lines)
    return 0 if all_ok else 1


# ------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrmc",
        description="Exact computations for Hermitian rank-metric codes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, seed=False, workers=False):
        p.add_argument("--guard", type=int, default=None,
                       help="cap on objects enumerated, cells per word, "
                            "trial divisions, and estimated output digits "
                            "and big-int words (default: HRMC_GUARD or 2^24)")
        p.add_argument("--format", choices=("table", "json"), default="table")
        if workers:
            p.add_argument("--workers", type=int, default=1)
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("count", help="rank census of all Hermitian matrices")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    common(p, workers=True)

    p = sub.add_parser("eigen", help="eigenvalue table by two routes")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    common(p)

    p = sub.add_parser("wd", help="weight distribution of a code")
    p.add_argument("--input", required=True, help="code JSON file")
    common(p, workers=True)

    p = sub.add_parser("dual", help="dual distribution by three routes")
    p.add_argument("--input", required=True, help="code JSON file")
    p.add_argument("--phi", type=int, default=None,
                   help="restrict the moment table to one phi")
    common(p)

    p = sub.add_parser("macwilliams", help="transform a raw distribution")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--dist", required=True, help="comma-separated counts")
    p.add_argument("--size", type=int, required=True, help="code size")
    common(p)

    p = sub.add_parser("mhrd", help="closed-form maximal-code distribution")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--d", type=int, required=True, help="minimum distance (odd)")
    common(p)

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
    args = build_parser().parse_args(argv)
    try:
        args.guard = enumeration_guard(args.guard)
        if "workers" in args and args.workers < 1:
            raise UsageError(
                f"--workers must be at least 1, got {args.workers}")
        return _COMMANDS[args.command](args)
    except HrmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end: the parser, the dispatch and the output.

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

The body of subcommand NAME is the ``run`` function of the module
``hrmc.cmd_NAME``, imported only when NAME runs, so a process compiles
only the code on its command's path (start-up is most of a small
command's time, and without a bytecode cache most of start-up is
compiling). ``run`` returns the exit code, the payload and the table
lines, and :func:`emit` prints the one the format asks for. No command
module imports this one: under ``python -m hrmc.cli`` this module is
``__main__``, and importing ``hrmc.cli`` would compile it again.

Exit codes: 0 on success; 1 when independently computed routes disagree,
a verification suite fails or another ``CheckFailed`` is raised, or when
the output cannot be written (a reader that closes the pipe early gets
no message, any other write error one ``error:`` line); 130 on SIGINT
and 143 on SIGTERM, after any forked counter is killed and reaped; 2 for
every ``UsageError``, that is input that cannot be used: a q that is not
a prime power, ``--t`` below 1, ``--d`` outside 1..t or even, ``--phi``
outside 0..t, ``--size`` below 1, negative ``--trials``, a malformed code
file or one with a non-Hermitian generator, a ``--dist`` that is not the
distribution of any code, or work or output that :mod:`hrmc.cost`
estimates above the guard. The class of the error, fixed where it is
raised, alone decides between 1 and 2; either way stderr gets one
``error:`` line. JSON output is canonical (sorted keys, no whitespace)
with every number rendered as a decimal string, so repeated runs and
different worker counts produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
from importlib import import_module

from .cost import enumeration_guard
from .errors import HrmcError, UsageError


# ------------------------------------------------------------- output

def _stringify(obj):
    """Render every number (however large) as a decimal string: an int in
    full, and a Fraction, the rare legitimately rational value, as "p/q"
    (or as its integer, when whole)."""
    if isinstance(obj, (list, tuple)):
        return [_stringify(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _stringify(v) for k, v in obj.items()}
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    return str(obj)


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


# ------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrmc",
        description="Exact computations for Hermitian rank-metric codes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, seed=False, workers=False):
        p.add_argument("--guard", type=int, default=None,
                       help="cap on objects enumerated, cells per word, "
                            "trial divisions, characters of a code file, "
                            "and estimated output digits and big-int words "
                            "(default: HRMC_GUARD or 2^24)")
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


def main(argv=None) -> int:
    """Run one command and return its exit code. While it runs, SIGTERM
    takes the path of SIGINT: Python's SIGINT handler raises
    KeyboardInterrupt where the program is, every ``finally`` runs (the
    forked counters are killed and reaped), and the command ends with one
    ``error:`` line and exit code 143 (130 for SIGINT). The caller's
    SIGTERM handler is restored after."""
    terminated = []

    def interrupt(signum, frame):
        terminated.append(signum)
        signal.default_int_handler(signum, frame)

    previous = signal.signal(signal.SIGTERM, interrupt)
    try:
        args = build_parser().parse_args(argv)
        args.guard = enumeration_guard(args.guard)
        if "workers" in args and args.workers < 1:
            raise UsageError(
                f"--workers must be at least 1, got {args.workers}")
        if "t" in args and args.t < 1:
            raise UsageError(f"--t must be at least 1, got {args.t}")
        command = import_module(f".cmd_{args.command}", __package__)
        code, payload, lines = command.run(args)
        try:
            emit(payload, args.format, lines)
            sys.stdout.flush()
        except OSError as exc:
            with open(os.devnull, "wb") as devnull:  # for the final flush
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            if not isinstance(exc, BrokenPipeError):  # a reader that quit
                print(f"error: cannot write the output: {exc.strerror}",
                      file=sys.stderr)
            return 1
        return code
    except HrmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1
    except KeyboardInterrupt:
        if terminated:
            print("error: terminated", file=sys.stderr)
            return 143
        print("error: interrupted", file=sys.stderr)
        return 130
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())

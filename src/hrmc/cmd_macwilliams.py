"""``hrmc macwilliams``: the dual of a distribution given on the command
line, by the eigen route and the transform route, which must agree."""

from __future__ import annotations

from . import macwilliams
from .cost import check_guard, output_digits, value_words
from .errors import CheckFailed, NonIntegralDual, UsageError, shown
from .negq import NegQContext


def run(args):
    t = args.t
    ctx = NegQContext(args.q, args.guard)
    check_guard(output_digits(ctx.q, t, t + 1), "estimated output digits",
                args.guard)
    check_guard(value_words(ctx.q, t, (t + 1) ** 2),
                "estimated big-int words of (t+1)^2 closed-form values",
                args.guard)
    counts = _parse_dist(args.dist)
    if len(counts) != t + 1:
        raise UsageError(
            f"need {t + 1} comma-separated counts, got {len(counts)}")
    _check_dist(args, counts)
    try:
        eigen = macwilliams.macwilliams_eigen(ctx, counts, args.size, t)
    except NonIntegralDual as exc:
        # the counts come from the caller, so no code has them: bad input
        raise UsageError(
            f"--dist {args.dist} with --size {args.size} is not the "
            f"distribution of a code ({exc})") from exc
    transform = macwilliams.macwilliams_transform(ctx, counts, args.size, t)
    if eigen != transform:
        raise CheckFailed(
            f"routes disagree: {shown(eigen)} vs {shown(transform)}")
    payload = {"q": args.q, "t": args.t, "size": args.size,
               "input": counts, "dual": list(eigen)}
    return 0, payload, _lines(args, eigen)


def _lines(args, dual):
    yield f"dual distribution, q={args.q} t={args.t} |C|={args.size}"
    yield f"  {list(dual)} (both routes agree)"


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
        fault = f"the counts sum to {shown(sum(counts))}"
    else:
        return
    raise UsageError(f"--dist {args.dist} with --size {args.size} is not "
                     f"the distribution of a code ({fault})")

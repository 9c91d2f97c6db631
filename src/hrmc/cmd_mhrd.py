"""``hrmc mhrd``: the closed-form rank distribution of a maximal code of
odd minimum distance."""

from __future__ import annotations

from . import moments
from .cost import check_guard, output_digits, value_words
from .errors import UsageError
from .negq import NegQContext


def run(args):
    t = args.t
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
    counts = moments.mhrd_distribution(ctx, t, args.d, dual_size)
    payload = {"q": args.q, "t": args.t, "d": args.d,
               "dual_size": dual_size, "counts": list(counts)}
    return 0, payload, _lines(args, counts)


def _lines(args, counts):
    yield f"maximal-code distribution, q={args.q} t={args.t} d={args.d}"
    yield f"  {list(counts)}"

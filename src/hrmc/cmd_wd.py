"""``hrmc wd``: the rank-weight distribution of a code file, counted on
whichever of the code and its trace dual has fewer words."""

from __future__ import annotations

from . import codes, workers
from .codefile import read_code
from .errors import CheckFailed, shown


def run(args):
    code = read_code(args.input, args.guard)
    count = _via_dual if code.t * code.t - code.k < code.k else _direct
    wd = count(code, args).to_jsonable()
    lines = [f"weight distribution, q={wd['q']} t={wd['t']} k={wd['k']}",
             "  " + " ".join(str(c) for c in wd["counts"])]
    return 0, wd, lines


def _direct(code, args):
    return workers.weight_distribution(code, args.workers, args.guard)


def _via_dual(code, args):
    """Count the words of the trace dual and map the counts back: the dual
    of the dual is the code, so one MacWilliams step gives its distribution.
    The eigen and transform routes must agree on it. Only this path loads
    the routes."""
    from . import macwilliams
    from .negq import NegQContext
    dual = codes.dual_code(code)
    dual_counts = _direct(dual, args).counts
    ctx = NegQContext(code.field.q)
    eigen = macwilliams.macwilliams_eigen(ctx, dual_counts, dual.size, code.t)
    transform = macwilliams.macwilliams_transform(ctx, dual_counts,
                                                  dual.size, code.t)
    if eigen != transform:
        raise CheckFailed(
            f"routes disagree: {shown(eigen)} vs {shown(transform)}")
    return codes.WeightDistribution(code.field.q, code.t, code.k, eigen)

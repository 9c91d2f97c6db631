"""``hrmc count``: the rank census of every Hermitian matrix, enumerated
and compared with the closed form."""

from __future__ import annotations

from . import codes, workers
from .cost import check_power_guard
from .fields import make_field
from .negq import NegQContext, xi


def run(args):
    t = args.t
    ctx = NegQContext(args.q, args.guard)
    field = make_field(*ctx.prime_parts)
    # refuse before the t^2 unit matrices, the zero code's dual, are built
    check_power_guard(field.q, t * t, "matrices", args.guard)
    full_space = codes.dual_code(codes.LinearCode(field, t, []))
    counts = list(workers.weight_distribution(full_space, args.workers,
                                              args.guard).counts)
    closed = [xi(ctx, t, h) for h in range(t + 1)]
    match = counts == closed
    payload = {"q": field.q, "t": t, "counts": counts,
               "closed_form": closed, "match": match}
    lines = [f"rank census, q={field.q} t={t} ({full_space.size} matrices)"]
    lines += [f"  rank {r}: {c}" for r, c in enumerate(counts)]
    lines.append(f"closed form: {closed}")
    lines.append("MATCH" if match else "MISMATCH")
    return 0 if match else 1, payload, lines

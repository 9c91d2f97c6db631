"""``hrmc dual``: a code's dual distribution by enumeration, by the eigen
route and by the transform route, and both moment identities."""

from __future__ import annotations

from . import codes, macwilliams, moments
from .codefile import read_code
from .cost import check_power_guard
from .negq import NegQContext


def run(args):
    guard = args.guard
    code = read_code(args.input, guard)
    ctx = NegQContext(code.field.q)
    t = code.t
    # refuse before the dual's t^2 - k generators are built, not after
    check_power_guard(ctx.q, code.k, "codewords", guard)
    check_power_guard(ctx.q, t * t - code.k, "dual codewords", guard)
    if args.phi is not None:  # refuse before either side is counted
        moments.check_phi(t, args.phi)
    primal = codes.weight_distribution(code, guard)
    dual = codes.dual_code(code)
    brute = codes.weight_distribution(dual, guard)
    eigen = macwilliams.macwilliams_eigen(ctx, primal.counts, code.size, t)
    transform = macwilliams.macwilliams_transform(ctx, primal.counts,
                                                  code.size, t)
    match = eigen == brute.counts == transform
    phis = [args.phi] if args.phi is not None else list(range(t + 1))
    sizes = (code.size, dual.size)
    table = []
    moments_ok = True
    for phi in phis:
        m1 = moments.moment_q(ctx, primal.counts, brute.counts, sizes, t, phi)
        m2 = moments.moment_qinv(ctx, primal.counts, brute.counts, sizes, t,
                                 phi)
        ok = m1["lhs"] == m1["rhs"] and m2["lhs"] == m2["rhs"]
        moments_ok = moments_ok and ok
        table.append({"phi": phi, "q_lhs": m1["lhs"], "q_rhs": m1["rhs"],
                      "qinv_lhs": m2["lhs"], "qinv_rhs": m2["rhs"],
                      "match": ok})
    payload = {
        "code": primal.to_jsonable(),
        "dual_brute": brute.to_jsonable(),
        "dual_eigen": list(eigen),
        "dual_transform": list(transform),
        "match": match,
        "moments": table,
    }
    lines = [
        f"code: q={ctx.q} t={t} k={code.k} counts={list(primal.counts)}",
        f"dual (enumerated): k={dual.k} counts={list(brute.counts)}",
        f"dual (eigen route): {list(eigen)}",
        f"dual (transform route): {list(transform)}",
        "PASS" if match else "FAIL",
    ]
    for m in table:
        lines.append(
            f"moment phi={m['phi']}: q {m['q_lhs']} = {m['q_rhs']}, "
            f"reciprocal {m['qinv_lhs']} = {m['qinv_rhs']} "
            f"[{'ok' if m['match'] else 'MISMATCH'}]")
    return 0 if match and moments_ok else 1, payload, lines

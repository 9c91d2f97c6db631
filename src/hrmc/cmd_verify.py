"""``hrmc verify``: run the identity suites and report per-suite counts."""

from __future__ import annotations

from . import verify
from .fields import make_field
from .negq import NegQContext


def run(args):
    field = make_field(*NegQContext(args.q, args.guard).prime_parts)
    results = verify.run_verification(field, args.t, args.trials, args.seed,
                                      args.guard)
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
    return 0 if all_ok else 1, payload, lines

"""``hrmc eigen``: the eigenvalue table from the three-term recurrence,
checked entry by entry against the table of the C closed form."""

from __future__ import annotations

from . import eigen
from .cost import check_guard, output_digits
from .errors import CheckFailed, shown
from .negq import NegQContext


def run(args):
    t = args.t
    ctx = NegQContext(args.q, args.guard)
    check_guard(output_digits(ctx.q, t, (t + 1) ** 2),
                "estimated output digits", args.guard)
    table = eigen.build_eigen_table_recurrence(ctx, t)
    alt = eigen.build_eigen_table_C(ctx, t)
    for x in range(t + 1):
        for k in range(t + 1):
            rec, closed = table.values[x][k], alt.values[x][k]
            if rec != closed:
                raise CheckFailed(f"eigen routes differ at x={x} k={k}: "
                                  f"{shown(rec)} vs {shown(closed)}")
    del alt
    # The payload of table.to_jsonable(), with the entries left as ints
    # for the output to render: they pass 4300 digits from about q=2,
    # t=120. Only the chosen format is rendered, the lines as they print.
    payload = {"q": table.q, "t": table.t, "rows": table.values}
    return 0, payload, _lines(table)


def _lines(table):
    yield f"eigenvalue table, q={table.q} t={table.t} (both routes agree)"
    for row in table.values:
        yield "  " + " ".join(f"{v:>10}" for v in row)

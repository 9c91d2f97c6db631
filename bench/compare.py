"""Compare benchmark runs of a parent and a change (report only).

Usage: python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds run records appended by bench/run.py (one line per run).
Untraced, full-size records are grouped by workload; for every end-to-end
metric in BENCHMARK.json the per-run values of each side are summarised
by median and quartiles, and the pairing is marked:

* worse: the change's median is worse than the parent's by more than the
  metric's bound;
* better: the medians differ by more than the parent's quartile spread
  and the change wins at least 9 in 10 pairs (runs paired by seed);
* unresolved: the parent's own spread exceeds the bound, and neither side
  beats the other in every run;
* within bound: none of these.

It gates nothing; the exit code is 0 whatever the verdicts.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("trace") == 0 and not rec.get("quick"):
            by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[tuple], change: list[tuple], better: str,
            bound: float) -> tuple[str, float]:
    """Verdict and the change's relative worsening (negative: better).

    parent and change are (seed, value) pairs."""
    sign = 1 if better == "lower" else -1
    p_vals = [v for _, v in parent]
    c_vals = [v for _, v in change]
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_med = statistics.median(c_vals)
    scale = abs(p_med) or 1.0
    worse = sign * (c_med - p_med) / scale
    spread = (p_q3 - p_q1) / scale
    all_better = all(sign * c < sign * p for c in c_vals for p in p_vals)
    all_worse = all(sign * c > sign * p for c in c_vals for p in p_vals)
    if spread > bound and not (all_better or all_worse):
        return "unresolved", worse
    if worse > bound:
        return "worse", worse
    p_by_seed = dict(parent)
    pairs = [(p_by_seed[s], v) for s, v in change if s in p_by_seed]
    if not pairs:
        pairs = list(zip(p_vals, c_vals))
    wins = sum(sign * c < sign * p for p, c in pairs)
    if -worse > spread and wins >= 0.9 * len(pairs):
        return "better", worse
    return "within bound", worse


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    print(f"{'workload':<11} {'metric':<12} {'parent median [q1, q3] n':>36} "
          f"{'change median [q1, q3] n':>36} {'gain':>8}  verdict")
    for workload in sorted(set(parent) & set(change)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sides = []
            for recs in (parent[workload], change[workload]):
                sides.append([(r["seed"], r["metrics"][name]["value"])
                              for r in recs if name in r["metrics"]])
            if not all(sides):
                continue
            cells = []
            for side in sides:
                q1, med, q3 = quartiles([v for _, v in side])
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {len(side)}")
            mark, worse = verdict(sides[0], sides[1], metric["better"],
                                  metric["bound"])
            print(f"{workload:<11} {name:<12} {cells[0]:>36} {cells[1]:>36} "
                  f"{-worse:>+8.1%}  {mark}")
    only = sorted(set(parent) ^ set(change))
    if only:
        print(f"workloads on one side only: {', '.join(only)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

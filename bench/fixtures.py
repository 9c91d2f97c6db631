"""Build a workload's seeded inputs with the hrmc public API.

Usage: python bench/fixtures.py --workload NAME --seed N --dir DIR [--quick]

Writes each code of the workload's fixture plan (workloads.CODE_PLAN) to
DIR as code JSON and prints one JSON object: q, t, k, |C| and file of each
code, plus the closed-form full-space census that ``identities`` feeds to
``macwilliams``. Run with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

import hrmc
import workloads


def _random_hermitian(field, t: int, rng: random.Random):
    subfield = field.subfield_elements()
    grid = [[field.zero()] * t for _ in range(t)]
    for i in range(t):
        grid[i][i] = subfield[rng.randrange(field.q)]
        for j in range(i + 1, t):
            x = field.from_index(rng.randrange(field.order))
            grid[i][j] = x
            grid[j][i] = x.conj()
    return hrmc.HermitianMatrix(field, t, tuple(tuple(r) for r in grid))


def seeded_code(p: int, t: int, k: int, seed: int):
    """A code of dimension exactly k in the t x t Hermitian matrices over
    GF(p^2), drawn from seed.

    Random Hermitian generators are added one at a time; one that does not
    raise the dimension is dropped, so every seed gives the same k.
    """
    rng = random.Random(f"hrmc-bench:{seed}:{p}:{t}:{k}")
    field = hrmc.make_field(p, 1)
    code = hrmc.make_code(field, t, [])
    while code.k < k:
        candidate = hrmc.make_code(
            field, t, list(code.generators) + [_random_hermitian(field, t, rng)])
        if candidate.k > code.k:
            code = candidate
    return code


def build(name: str, seed: int, quick: bool, out_dir: Path) -> dict:
    codes = {}
    for label, p, t, k in workloads.CODE_PLAN[name](quick):
        code = seeded_code(p, t, k, seed)
        for fx_label, fx in ((label, code), (f"{label}_dual", hrmc.dual_code(code))):
            path = out_dir / f"{fx_label}.json"
            path.write_text(json.dumps(fx.to_jsonable(), sort_keys=True))
            codes[fx_label] = {"q": fx.field.q, "t": fx.t, "k": fx.k,
                               "size": fx.size, "file": str(path)}
    full = []
    if name == "identities":
        q, t = workloads.identities_size(quick)
        full = hrmc.full_space_distribution(hrmc.NegQContext(q), t)
    return {"codes": codes, "full_space": [str(c) for c in full]}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    args.dir.mkdir(parents=True, exist_ok=True)
    print(json.dumps(build(args.workload, args.seed, args.quick, args.dir)))


if __name__ == "__main__":
    main()

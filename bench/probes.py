"""Direct probes of the hot per-call costs, on fixed seeded inputs.

Usage: python bench/probes.py ops|make_field [--quick]

Calls of about 100 ns cannot be timed through a tracing wrapper without
measuring the wrapper, so field operations, matrix decode, rank and
codeword decode are timed here in tight loops over inputs drawn from a
fixed seed, independent of the workload seed. ``make_field`` times each
field's construction on the cold cache of a fresh interpreter. Prints one
JSON object of metric values. Run with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import time

import hrmc
import hrmc.codes
from fixtures import seeded_code

PROBE_SEED = 20230614
FIELDS = {"q2": (2, 1), "q3": (3, 1), "q13": (13, 1), "q251": (251, 1)}


def _per_call_ns(loop, baseline, n: int, repeats: int = 5) -> float:
    """Median over repeats of (loop - empty loop) / n."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        loop()
        mid = time.perf_counter_ns()
        baseline()
        end = time.perf_counter_ns()
        samples.append(((mid - start) - (end - mid)) / n)
    return statistics.median(samples)


def field_ops(n: int) -> dict[str, float]:
    out = {}
    for name in ("q2", "q3"):
        field = hrmc.make_field(*FIELDS[name])
        rng = random.Random(f"{PROBE_SEED}:{name}")
        pairs = [(rng.randrange(field.order), rng.randrange(1, field.order))
                 for _ in range(n)]
        ops = {"add": field.add, "sub": field.sub, "mul": field.mul}
        unary = {"inv": field.inv, "conj": field.conj_index}

        def empty2():
            for a, b in pairs:
                pass

        def empty1():
            for _, b in pairs:
                pass

        for op, fn in ops.items():
            def loop(fn=fn):
                for a, b in pairs:
                    fn(a, b)
            out[f"fields.{op}_ns.{name}"] = _per_call_ns(loop, empty2, n)
        for op, fn in unary.items():
            def loop(fn=fn):
                for _, b in pairs:
                    fn(b)
            out[f"fields.{op}_ns.{name}"] = _per_call_ns(loop, empty1, n)
    return out


def make_field_ms() -> dict[str, float]:
    out = {}
    for name, (p, m) in FIELDS.items():
        start = time.perf_counter_ns()
        hrmc.make_field(p, m)
        out[f"fields.make_field_ms.{name}"] = (time.perf_counter_ns() - start) / 1e6
    return out


def hermitian_ops(n: int) -> dict[str, float]:
    out = {}
    for name, (p, t) in {"q2t4": (2, 4), "q3t3": (3, 3)}.items():
        field = hrmc.make_field(p, 1)
        rng = random.Random(f"{PROBE_SEED}:{name}")
        total = hrmc.total_hermitian(field, t)
        indices = [rng.randrange(total) for _ in range(n)]
        decode = hrmc.hermitian_from_index
        start = time.perf_counter_ns()
        matrices = [decode(field, t, i) for i in indices]
        mid = time.perf_counter_ns()
        for m in matrices:
            hrmc.rank(m)
        end = time.perf_counter_ns()
        out[f"hermitian.hermitian_from_index_us.{name}"] = (mid - start) / n / 1e3
        out[f"hermitian.rank_us.{name}"] = (end - mid) / n / 1e3
    return out


def codeword_ops(code, n: int) -> dict[str, float]:
    rng = random.Random(f"{PROBE_SEED}:k{code.k}")
    indices = [rng.randrange(code.size) for _ in range(n)]
    decode = hrmc.codes.codeword_from_index
    start = time.perf_counter_ns()
    for i in indices:
        decode(code, i)
    end = time.perf_counter_ns()
    return {"codes.codeword_from_index_us.k13": (end - start) / n / 1e3}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("probe", choices=("ops", "make_field"))
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    if args.probe == "make_field":
        out = make_field_ms()
    else:
        n = 1000 if args.quick else 10000
        out = field_ops(n)
        out.update(hermitian_ops(n))
        code = seeded_code(2, 4, 13, PROBE_SEED)
        out.update(codeword_ops(code, 200 if args.quick else 2000))
    print(json.dumps(out))


if __name__ == "__main__":
    main()

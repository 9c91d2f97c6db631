"""Run one hrmc CLI command in-process, optionally tracing its layers.

Usage: python bench/trace_child.py --traced 0|1 [--spans FILE] [--run-id ID]
       -- <hrmc cli arguments>

The command's stdout is passed through unchanged, so the same output
checks apply as to ``python -m hrmc.cli``. The last line on stderr is a
JSON object with the wall time of ``hrmc.cli.main`` and, when traced, the
calls, total and self time of every wrapped public function.

Tracing replaces each function named in TRACE_METRICS by a wrapper in
every hrmc module that bound it (modules use ``from .x import y``, so
``rank`` is bound in ``hermitian``, ``codes`` and ``cli``). Spans (run id, span id,
parent, name, start, end) are kept in memory and written to FILE when the
command ends. Self time is a span's duration minus that of its direct
children. Spans recorded inside ``--workers`` pool processes stay in those
processes and are not collected; ``cli.pool_map`` times ``Pool.map`` from
the parent instead.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import io
import json
import multiprocessing.pool
import sys
import time
from pathlib import Path

# Public functions timed, as module.function, and the per-layer metrics
# kept from each. A generator function gets one span per resumption and
# one call per generator created.
BOTH = ("calls", "self_s")
TRACE_METRICS = {
    "hermitian.hermitian_from_index": BOTH,
    "hermitian.rank": BOTH,
    "codes.enumerate_codewords": BOTH,
    "codes.weight_distribution": BOTH,
    "codes.make_code": BOTH,
    "codes.dual_code": BOTH,
    "codes.code_from_jsonable": ("self_s",),
    "negq.gauss": BOTH,
    "negq.gamma_fn": BOTH,
    "negq.xi": ("self_s",),
    "polynomials.negq_product": ("calls",),
    "polynomials.concretize": ("self_s",),
    "macwilliams.build_eigen_table": ("self_s",),
    "macwilliams.krawtchouk_C": BOTH,
    "macwilliams.macwilliams_eigen": ("self_s",),
    "macwilliams.macwilliams_transform": ("self_s",),
    "macwilliams.mhrd_distribution": ("self_s",),
    "macwilliams.moment_q": ("self_s",),
    "macwilliams.moment_qinv": ("self_s",),
    "verify.sample_codes": ("self_s",),
    **{f"verify.suite_{s}": ("self_s",) for s in (
        "gaussian", "gamma_beta", "eigen", "powers", "leibniz", "evaluation",
        "product_lemmas", "delta_epsilon", "inversion", "routes", "moments",
        "mhrd")},
    "cli.main": ("self_s",),
    "cli.emit": ("self_s",),
}
POOL_MAP = "cli.pool_map"


class Tracer:
    """Span recorder; one per traced command."""

    def __init__(self) -> None:
        self.spans: list = []   # (name, start_ns, end_ns, parent) by span id
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.missing: list[str] = []

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: int) -> None:
        end = time.perf_counter_ns()
        self.stack.pop()
        self.spans[sid] = (name, start, end, self.stack[-1] if self.stack else -1)

    def wrap(self, name: str, fn):
        self.calls.setdefault(name, 0)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    sid = self._open()
                    start = time.perf_counter_ns()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(sid, name, start)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            sid = self._open()
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, name, start)
        return wrapper

    def install(self) -> None:
        import hrmc  # noqa: F401  (imports every hrmc module)
        modules = [m for n, m in sys.modules.items()
                   if n == "hrmc" or n.startswith("hrmc.")]
        for name in TRACE_METRICS:
            mod_name, func = name.split(".")
            original = getattr(sys.modules.get(f"hrmc.{mod_name}"), func, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        pool_cls = multiprocessing.pool.Pool
        pool_cls.map = self.wrap(POOL_MAP, pool_cls.map)

    def summary(self) -> dict:
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, int] = {n: 0 for n in self.calls}
        own: dict[str, int] = {n: 0 for n in self.calls}
        for sid, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[sid]
        return {"calls": self.calls,
                "total_s": {n: v / 1e9 for n, v in total.items()},
                "self_s": {n: v / 1e9 for n, v in own.items()},
                "missing": self.missing}

    def write(self, path: Path, run_id: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run_id\tspan_id\tparent\tname\tstart_ns\tend_ns\n")
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{run_id}\t{sid}\t{parent}\t{name}\t{start}\t{end}\n")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--run-id", default="0")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import hrmc.cli
    tracer = Tracer()
    if args.traced:
        tracer.install()
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            rc = hrmc.cli.main(cli_args)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    wall = time.perf_counter() - start
    sys.stdout.write(buf.getvalue())
    sys.stdout.flush()
    report = {"wall_s": wall, "rc": rc}
    if args.traced:
        report.update(tracer.summary())
        if args.spans is not None:
            tracer.write(args.spans, args.run_id)
    print(json.dumps(report), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())

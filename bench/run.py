"""hrmc benchmark driver (standard library only).

    python3 bench/run.py --workload census|codes|parallel|identities|all
                         --seed N --seconds S --trace 0|1 [--quick]
    python3 bench/run.py --write-reference

Run it from a source checkout; every command runs from the checkout root
with ``PYTHONPATH=src``, so the package need not be installed.

Untraced runs (``--trace 0``) are a closed loop with one client: this
single-threaded process sends the workload's commands one at a time, each
a fresh ``python -m hrmc.cli ... --format json`` interpreter started
after the previous one exited (by bench/launcher.py, see there why).
Passes over the command list repeat until the next pass would overrun
``--seconds``; each end-to-end metric is the median over passes, and
``setup_s`` the median over repeated set-ups. Times are scaled to a
reference machine speed: bench/calib.py, fixed pure-Python work, runs
after every command and set-up group, and the seconds of each are
multiplied by CAL_REF_S over the mean of the calibrations just before and
after it. Unscaled seconds are printed too and kept in the run record.

Traced runs (``--trace 1``) alternate an untraced and a traced pass, both
calling ``hrmc.cli.main`` in a fresh interpreter (bench/trace_child.py),
then probe per-call costs directly (bench/probes.py). They report the
per-layer metrics only; end-to-end metrics come from untraced runs.

Every output is checked (bench/workloads.py). Outputs for the default
seed, and seed-independent outputs for every seed, must also match the
SHA-256 digests in bench/reference.json. The last line of stdout is the
result JSON; the run record, with every sample, is appended to
bench/out/runs.jsonl (or --out).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from trace_child import POOL_MAP, TRACE_METRICS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path("bench")
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
SRC = "src"
SETUP_GROUPS = 4
SETUP_GROUP_SIZE = 3
# Seconds bench/calib.py takes on the reference machine. Every reported
# time is scaled to that machine: measured seconds * CAL_REF_S / the
# calibration seconds measured just before and after it. On a shared
# 2-vCPU VM, Python throughput drifts by 20% and more within minutes, in
# calibration and commands alike; scaling removes most of that drift.
CAL_REF_S = 0.25
MAKE_FIELD_REPEATS = 3

END_TO_END = {"wall_s": "s", "work_per_s": "1/s", "setup_s": "s",
              "cpu_s": "s", "peak_rss_mb": "MB", "ok_frac": "fraction"}

PROBES = {
    **{f"fields.{op}_ns.{q}": "ns" for op in ("add", "sub", "mul", "inv", "conj")
       for q in ("q2", "q3")},
    **{f"fields.make_field_ms.{q}": "ms" for q in ("q2", "q3", "q13", "q251")},
    **{f"hermitian.{f}_us.{s}": "us" for f in ("hermitian_from_index", "rank")
       for s in ("q2t4", "q3t3")},
    "codes.codeword_from_index_us.k13": "us",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    units = {f"{span}.{kind}": "count" if kind == "calls" else "s"
             for span, kinds in TRACE_METRICS.items() for kind in kinds}
    units["cli.pool_map_s"] = "s"
    units["trace.overhead_frac"] = "fraction"
    return {**units, **PROBES}


# ------------------------------------------------------------ child runs

@dataclass
class ChildRun:
    rc: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    out: bytes
    err: bytes


class Launcher:
    """Runs commands one at a time through bench/launcher.py."""

    def __init__(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.env.pop("HRMC_GUARD", None)
        self.io = OUT / "io"
        self.io.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=self.env,
            text=True)

    def run(self, argv: list[str]) -> ChildRun:
        out, err = self.io / "stdout", self.io / "stderr"
        request = {"argv": argv, "stdout": str(out), "stderr": str(err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher exited")
        reply = json.loads(line)
        return ChildRun(reply["rc"], reply["wall_s"], reply["cpu_s"],
                        reply["maxrss_kb"], out.read_bytes(), err.read_bytes())

    def json_of(self, argv: list[str]) -> dict:
        """Run a helper that prints one JSON object; fail loudly."""
        run = self.run(argv)
        if run.rc != 0:
            raise RuntimeError(f"{argv[1]} failed: {run.err.decode()[-400:]}")
        return json.loads(run.out)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=30)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "hrmc.cli", *args]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------- checks

def check_pass(wl: workloads.Workload, runs: list[ChildRun],
               refs: dict[str, list[str]]) -> tuple[list, int]:
    """Per-command error (or None), and the work the passing answers cover."""
    seen: dict[str, dict] = {}
    errors, work = [], 0
    for cmd, run in zip(wl.commands, runs):
        err = None
        if run.rc != 0:
            tail = run.err.decode(errors="replace").strip().splitlines()[-1:]
            err = f"exit code {run.rc} {tail}"
        elif any(digest(run.out) != ref for ref in refs.get(cmd.label, ())):
            err = "output bytes differ from the reference"
        else:
            try:
                obj = json.loads(run.out)
                seen[cmd.label] = obj
                err = cmd.check(obj, seen)
                if err is None:
                    work += cmd.work(obj)
            except (KeyError, TypeError, ValueError) as exc:
                err = f"malformed output: {exc!r}"
        errors.append(err)
    return errors, work


def load_references(launcher: Launcher, wl: workloads.Workload, seed: int,
                    quick: bool) -> dict[str, list[str]]:
    """Stored digests (seeded commands: default seed only), plus the live
    one-worker output of each command that must reproduce it."""
    refs: dict[str, list[str]] = {c.label: [] for c in wl.commands}
    if not quick:
        stored = json.loads(REFERENCE.read_text())
        for cmd in wl.commands:
            key = f"{wl.name}/{cmd.label}"
            if key in stored["digests"] and (not cmd.seeded
                                             or seed == stored["seed"]):
                refs[cmd.label].append(stored["digests"][key])
    for cmd in wl.commands:
        if cmd.ref_argv is not None and (cmd.seeded or quick):
            run = launcher.run(cli_argv(cmd.ref_argv))
            if run.rc != 0:
                raise RuntimeError(f"reference run failed: {cmd.ref_argv}")
            refs[cmd.label].append(digest(run.out))
    return refs


def build_workload(launcher: Launcher, name: str, seed: int,
                   quick: bool) -> workloads.Workload:
    fixture_dir = OUT / "fixtures" / f"{name}-{seed}{'-quick' if quick else ''}"
    argv = [sys.executable, str(BENCH / "fixtures.py"), "--workload", name,
            "--seed", str(seed), "--dir", str(fixture_dir)]
    inputs = launcher.json_of(argv + (["--quick"] if quick else []))
    return workloads.build(name, seed, quick, inputs)


def write_references(launcher: Launcher) -> None:
    digests = {}
    for name in workloads.NAMES:
        wl = build_workload(launcher, name, workloads.DEFAULT_SEED, False)
        runs = [launcher.run(cli_argv(c.ref_argv or c.argv)) for c in wl.commands]
        errors, _ = check_pass(wl, runs, {})
        if any(errors):
            raise SystemExit(f"{name}: reference outputs fail checks: {errors}")
        for cmd, run in zip(wl.commands, runs):
            digests[f"{name}/{cmd.label}"] = digest(run.out)
            print(f"{name}/{cmd.label}: {len(run.out)} bytes")
    REFERENCE.write_text(json.dumps(
        {"seed": workloads.DEFAULT_SEED, "digests": digests}, indent=1,
        sort_keys=True) + "\n")


# ---------------------------------------------------------------- passes

def calibrate(launcher: Launcher) -> float:
    """Seconds bench/calib.py takes now, in a fresh interpreter."""
    run = launcher.run([sys.executable, str(BENCH / "calib.py")])
    if run.rc != 0:
        raise RuntimeError(f"calibration failed: {run.err.decode()[-400:]}")
    return run.wall_s


def setup_argv(wl: workloads.Workload) -> list[str]:
    """Fresh interpreter: import hrmc.cli and build every field it uses."""
    return [sys.executable, "-c",
            "import hrmc.cli\nfrom hrmc.fields import make_field\n"
            f"for p, m in {wl.fields!r}:\n"
            "    make_field(p, m).subfield_indices()\n"]


def setup_group(launcher: Launcher, wl, n: int) -> list[float]:
    samples = []
    for _ in range(n):
        run = launcher.run(setup_argv(wl))
        if run.rc != 0:
            raise RuntimeError(f"set-up failed: {run.err.decode()[-400:]}")
        samples.append(run.wall_s)
    return samples


def untraced_pass(launcher: Launcher, wl, refs, cal: float) -> tuple[dict, float]:
    """One pass, with a calibration after every command. A command's
    seconds are scaled by the calibrations just before and after it; the
    last calibration is returned for the next pass."""
    runs, scales, cals = [], [], []
    for cmd in wl.commands:
        runs.append(launcher.run(cli_argv(cmd.argv)))
        nxt = calibrate(launcher)
        scales.append(CAL_REF_S / ((cal + nxt) / 2))
        cals.append(nxt)
        cal = nxt
    errors, work = check_pass(wl, runs, refs)
    wall = sum(r.wall_s * k for r, k in zip(runs, scales))
    return {"errors": errors,
            "command_wall_s": [r.wall_s for r in runs],
            "calib_s": cals,
            "raw_wall_s": sum(r.wall_s for r in runs),
            "raw_cpu_s": sum(r.cpu_s for r in runs),
            "wall_s": wall,
            "work_per_s": work / wall,
            "cpu_s": sum(r.cpu_s * k for r, k in zip(runs, scales)),
            "peak_rss_mb": max(r.maxrss_kb for r in runs) / 1024,
            "ok_frac": errors.count(None) / len(errors)}, cal


def child_pass(launcher: Launcher, wl, refs, traced: bool, pass_no: int) -> dict:
    runs, reports = [], []
    for i, cmd in enumerate(wl.commands):
        spans = OUT / "spans" / f"{wl.name}-{i}.tsv"
        argv = [sys.executable, str(BENCH / "trace_child.py"),
                "--traced", str(int(traced)), "--spans", str(spans),
                "--run-id", f"{pass_no}.{i}", "--", *cmd.argv]
        run = launcher.run(argv)
        runs.append(run)
        lines = run.err.decode(errors="replace").strip().splitlines()
        try:
            reports.append(json.loads(lines[-1]))
        except (IndexError, ValueError):
            reports.append({"wall_s": run.wall_s})
    errors, _ = check_pass(wl, runs, refs)
    return {"errors": errors, "reports": reports,
            "main_wall_s": sum(r["wall_s"] for r in reports)}


def layer_values(traced: dict) -> dict[str, float]:
    sums: dict[str, dict[str, float]] = {"calls": {}, "self_s": {}, "total_s": {}}
    for rep in traced["reports"]:
        for kind, acc in sums.items():
            for name, v in rep.get(kind, {}).items():
                acc[name] = acc.get(name, 0) + v
    out = {f"{span}.{kind}": sums[kind].get(span, 0)
           for span, kinds in TRACE_METRICS.items() for kind in kinds}
    out["cli.pool_map_s"] = sums["total_s"].get(POOL_MAP, 0.0)
    return out


def probe_values(launcher: Launcher, quick: bool) -> dict[str, float]:
    probe = [sys.executable, str(BENCH / "probes.py")]
    quick_flag = ["--quick"] if quick else []
    values = launcher.json_of(probe + ["ops"] + quick_flag)
    fields = [launcher.json_of(probe + ["make_field"])
              for _ in range(1 if quick else MAKE_FIELD_REPEATS)]
    for name in fields[0]:
        values[name] = statistics.median(f[name] for f in fields)
    return values


def measure(args, launcher: Launcher, wl, refs):
    """Measure until the next pass would overrun --seconds.

    Returns per-metric samples, raw (unscaled) time samples, the passes,
    and the per-layer metrics not measured.
    """
    samples: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    passes: list[dict] = []

    def add(into, values):
        for name, value in values.items():
            into.setdefault(name, []).append(value)

    start = time.perf_counter()
    if args.trace == 0:
        setup_group(launcher, wl, 1)  # fills the bytecode cache; not kept
        cal = calibrate(launcher)
        add(raw, {"calib_s": cal})
        for _ in range(1 if args.quick else SETUP_GROUPS):
            group = setup_group(launcher, wl, SETUP_GROUP_SIZE)
            nxt = calibrate(launcher)
            scale = CAL_REF_S / ((cal + nxt) / 2)
            cal = nxt
            for value in group:
                add(samples, {"setup_s": value * scale})
                add(raw, {"setup_s": value})
            add(raw, {"calib_s": cal})
    while True:
        t0 = time.perf_counter()
        if args.trace == 0:
            p, cal = untraced_pass(launcher, wl, refs, cal)
            passes.append(p)
            add(raw, {"wall_s": p["raw_wall_s"], "cpu_s": p["raw_cpu_s"]})
            raw["calib_s"] += p["calib_s"]
            add(samples, {n: p[n] for n in END_TO_END if n != "setup_s"})
        else:
            plain = child_pass(launcher, wl, refs, False, len(passes))
            traced = child_pass(launcher, wl, refs, True, len(passes))
            passes += [plain, traced]
            add(samples, layer_values(traced))
            add(samples, {"trace.overhead_frac":
                          traced["main_wall_s"] / plain["main_wall_s"] - 1})
        now = time.perf_counter()
        if args.quick or (now - start) + (now - t0) > args.seconds:
            break
    dropped = []
    if args.trace == 1:
        for name, value in probe_values(launcher, args.quick).items():
            samples[name] = [value]
        missing = {n for r in traced["reports"] for n in r.get("missing", ())}
        dropped = sorted(n for n in per_layer_units()
                         if n.rsplit(".", 1)[0] in missing)
        dropped.append("spans inside --workers pool processes (not collected)")
    return samples, raw, passes, dropped


# ---------------------------------------------------------------- record

def run_info(args, workload: str) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"workload": workload, "seed": args.seed, "trace": args.trace,
            "quick": args.quick, "seconds": args.seconds,
            "commit": commit_id(), "python": platform.python_version(),
            "platform": platform.platform(), "cpu_count": os.cpu_count(),
            "cpu_model": model,
            "invocation": f"PYTHONPATH={SRC} {sys.executable} -m hrmc.cli"}


def commit_id() -> str:
    """HEAD of the checkout's own .git, if it has one (no parent search)."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(wl, info, samples, raw, units, dropped, failures) -> dict:
    print(f"hrmc benchmark: workload={wl.name} seed={info['seed']} "
          f"trace={info['trace']} seconds={info['seconds']:g}"
          f"{' quick' if info['quick'] else ''}")
    print(f"  {workloads.WHY[wl.name]}")
    for key in ("invocation", "python", "platform", "cpu_count", "cpu_model",
                "commit"):
        print(f"  {key}: {info[key]}")
    for fx in wl.fixtures:
        print(f"  fixture {fx['name']}: q={fx['q']} t={fx['t']} k={fx['k']} "
              f"|C|={fx['size']}")
    for cmd in wl.commands:
        text = " ".join(cmd.argv)
        print(f"  {cmd.label}: {text if len(text) < 100 else text[:96] + ' ...'}")
    summary = {name: {"value": statistics.median(samples[name]), "unit": unit,
                      "n": len(samples[name])} for name, unit in units.items()}
    print(f"{'metric':<44} {'median':>13} {'min':>13} {'max':>13} {'n':>3}  unit")
    for name, m in summary.items():
        vals = samples[name]
        print(f"{name:<44} {m['value']:>13.6g} {min(vals):>13.6g} "
              f"{max(vals):>13.6g} {m['n']:>3}  {m['unit']}")
    for name, vals in raw.items():
        print(f"{name + ' (unscaled)':<44} {statistics.median(vals):>13.6g} "
              f"{min(vals):>13.6g} {max(vals):>13.6g} {len(vals):>3}  s")
    print("  n: passes, set-ups or probe runs; under 11 samples, so no tail "
          "percentile is given")
    if raw:
        print(f"  times are scaled to a machine where bench/calib.py takes "
              f"{CAL_REF_S} s")
    if dropped:
        print(f"  dropped: {'; '.join(dropped)}")
    for pass_no, label, err in failures:
        print(f"  FAILED pass {pass_no} {label}: {err}")
    return summary


# ------------------------------------------------------------------ main

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="hrmc benchmark driver")
    parser.add_argument("--workload", choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one pass at reduced sizes (the benchmark's own tests)")
    parser.add_argument("--out", type=Path, default=OUT / "runs.jsonl",
                        help="run record file to append to")
    parser.add_argument("--write-reference", action="store_true",
                        help=f"record default-seed output digests in {REFERENCE}")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    return args


def run_workload(args, launcher: Launcher, name: str) -> dict:
    """Set up, measure, check and report one workload; returns its result."""
    info = run_info(args, name)
    wl = build_workload(launcher, name, args.seed, args.quick)
    refs = load_references(launcher, wl, args.seed, args.quick)
    samples, raw, passes, dropped = measure(args, launcher, wl, refs)
    units = END_TO_END if args.trace == 0 else per_layer_units()
    failures = [(i, cmd.label, err) for i, p in enumerate(passes)
                for cmd, err in zip(wl.commands, p["errors"]) if err]
    attempted = sum(len(p["errors"]) for p in passes)
    summary = report(wl, info, samples, raw, units, dropped, failures)
    record = {**info, "fixtures": wl.fixtures,
              "commands": {c.label: c.argv for c in wl.commands},
              "passes": len(passes), "attempted": attempted,
              "command_wall_s": [p.get("command_wall_s") for p in passes],
              "calib_s": [p.get("calib_s") for p in passes],
              "failed": len(failures), "metrics": summary,
              "samples": samples, "raw_samples": raw, "dropped": dropped,
              "failures": [list(f) for f in failures]}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": summary}


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    if not (Path(SRC) / "hrmc" / "cli.py").is_file():
        print(f"error: no hrmc source under {ROOT / SRC}", file=sys.stderr)
        return 2
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    launcher = Launcher()
    try:
        if args.write_reference:
            write_references(launcher)
            return 0
        names = workloads.NAMES if args.workload == "all" else [args.workload]
        results = {name: run_workload(args, launcher, name) for name in names}
    finally:
        launcher.close()

    if len(results) == 1:
        result = results[args.workload]
    else:
        # One result for every workload: metric names take the workload as
        # a prefix.
        print(f"{'workload.metric':<44} {'median':>13} {'n':>3}  unit")
        metrics = {}
        for name, res in results.items():
            for metric, m in res["metrics"].items():
                metrics[f"{name}.{metric}"] = m
                print(f"{name + '.' + metric:<44} {m['value']:>13.6g} "
                      f"{m['n']:>3}  {m['unit']}")
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": metrics}
    result["metrics"] = {n: {"value": m["value"], "unit": m["unit"]}
                         for n, m in result["metrics"].items()}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

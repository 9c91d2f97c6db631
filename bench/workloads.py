"""The four benchmark workloads: the CLI commands each runs, the seeded
code fixtures those commands read, and the checks on every output.

Every command is a real ``python -m hrmc.cli ... --format json`` run. Its
work count is the nominal number of objects its answer covers (q^(t^2)
matrices for a census, q^k codewords per enumerated code, both sides for
``dual``) or, on ``identities``, the identity instances it checks. Counts
are fixed by the inputs, not by what the program visits, so an
algorithmic saving shows as throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

DEFAULT_SEED = 0

# Why each workload exists; BENCHMARK.json carries the same text.
WHY = {
    "census": "full rank census of q=2 t=4, q=3 t=3, q=13 t=2: Hermitian "
              "decode plus rank over three field sizes, one worker",
    "codes": "weight and dual distributions of seeded codes (q=2 t=4 k=13 "
             "and its k=3 dual, q=3 t=3 k=7): codeword enumeration",
    "parallel": "census and wd with --workers 2: the chunk kernels and "
                "multiprocessing pool, output equal to one worker",
    "identities": "verify suites, eigen, macwilliams and mhrd at q=3 t=40: "
                  "closed forms with huge integers, many tiny codes",
}


@dataclass
class Command:
    """One CLI run of a pass, and what its answer must satisfy."""

    label: str
    argv: list[str]
    work: Callable[[dict], int]
    # The output depends on the workload seed (fixture or --seed).
    seeded: bool = False
    # A one-worker command whose bytes this output must reproduce.
    ref_argv: list[str] | None = None
    # Semantic check on the parsed output, given every output of the pass
    # by label; returns an error message or None.
    check: Callable[[dict, dict[str, dict]], str | None] = lambda o, s: None


@dataclass
class Workload:
    name: str
    fields: list[tuple[int, int]]
    commands: list[Command]
    fixtures: list[dict] = field(default_factory=list)


def _json_cmd(*argv) -> list[str]:
    return [str(a) for a in argv] + ["--format", "json"]


def _ints(values) -> list[int]:
    return [int(v) for v in values]


# ----------------------------------------------------------------- fixtures

# Seeded codes per workload, (label, p, t, k); bench/fixtures.py writes
# each code and its trace dual (label + "_dual"). Dimensions are fixed for
# every seed, so the work of a pass does not depend on the seed.
CODE_PLAN = {
    "census": lambda quick: [],
    "codes": lambda quick: ([("C", 2, 3, 6), ("C3", 3, 2, 2)] if quick
                            else [("C", 2, 4, 13), ("C3", 3, 3, 7)]),
    "parallel": lambda quick: [("C", 2, 3, 6)] if quick else [("C", 2, 4, 13)],
    "identities": lambda quick: [],
}


def identities_size(quick: bool) -> tuple[int, int]:
    """(q, t) of the closed-form commands in ``identities``."""
    return (3, 8) if quick else (3, 40)


# ------------------------------------------------------------------- checks

def _sums_to(values, total: int, what: str) -> str | None:
    got = sum(_ints(values))
    return None if got == total else f"{what} sums to {got}, not {total}"


def _check_count(obj: dict, seen) -> str | None:
    if obj.get("match") is not True:
        return "count does not match the closed form"
    q, t = int(obj["q"]), int(obj["t"])
    return _sums_to(obj["counts"], q ** (t * t), "census")


def _check_wd(obj: dict, seen) -> str | None:
    return _sums_to(obj["counts"], int(obj["q"]) ** int(obj["k"]),
                    "weight distribution")


def _check_dual(dual_label: str | None):
    def check(obj: dict, seen) -> str | None:
        if obj.get("match") is not True:
            return "dual routes disagree"
        if not all(m.get("match") is True for m in obj["moments"]):
            return "a moment identity fails"
        code, brute = obj["code"], obj["dual_brute"]
        q, t = int(code["q"]), int(code["t"])
        dual_size = q ** (t * t - int(code["k"]))
        for what, values, total in (
                ("code", code["counts"], q ** int(code["k"])),
                ("dual_brute", brute["counts"], dual_size),
                ("dual_eigen", obj["dual_eigen"], dual_size),
                ("dual_transform", obj["dual_transform"], dual_size)):
            err = _sums_to(values, total, what)
            if err:
                return err
        if dual_label is not None and dual_label in seen:
            if _ints(brute["counts"]) != _ints(seen[dual_label]["counts"]):
                return f"dual_brute differs from {dual_label}"
        return None
    return check


def _check_verify(obj: dict, seen) -> str | None:
    return None if obj.get("ok") is True else "a verify suite fails"


def _verify_checks(obj: dict) -> int:
    return sum(int(s["passed"]) + int(s["failed"]) for s in obj["suites"])


# ---------------------------------------------------------------- workloads

def _census(quick: bool) -> list[Command]:
    sizes = [(2, 3), (3, 2), (13, 1)] if quick else [(2, 4), (3, 3), (13, 2)]
    return [Command(f"count-q{q}-t{t}", _json_cmd("count", "--q", q, "--t", t),
                    work=lambda o, q=q, t=t: q ** (t * t), check=_check_count)
            for q, t in sizes]


def _codes(codes: dict) -> list[Command]:
    def wd(label):
        return Command(f"wd-{label}", _json_cmd("wd", "--input", codes[label]["file"]),
                       work=lambda o: codes[label]["size"], seeded=True,
                       check=_check_wd)

    def dual(label, check):
        return Command(f"dual-{label}",
                       _json_cmd("dual", "--input", codes[label]["file"]),
                       work=lambda o: (codes[label]["size"]
                                       + codes[f"{label}_dual"]["size"]),
                       seeded=True, check=check)

    return [wd("C"), wd("C_dual"), dual("C", _check_dual("wd-C_dual")),
            wd("C3"), dual("C3", _check_dual(None))]


def _parallel(codes: dict) -> list[Command]:
    c = codes["C"]
    count = ["count", "--q", "2", "--t", str(c["t"])]
    wd = ["wd", "--input", c["file"]]
    workers = ["--workers", "2"]
    return [
        Command(f"count-q2-t{c['t']}-w2", _json_cmd(*count, *workers),
                work=lambda o: 2 ** (c["t"] ** 2), ref_argv=_json_cmd(*count),
                check=_check_count),
        Command("wd-C-w2", _json_cmd(*wd, *workers), work=lambda o: c["size"],
                seeded=True, ref_argv=_json_cmd(*wd), check=_check_wd),
    ]


def _identities(seed: int, quick: bool, full: list[int]) -> list[Command]:
    q, t = identities_size(quick)
    d = 5
    trials2, trials3, t2 = (3, 2, 2) if quick else (20, 10, 3)

    def check_eigen(obj, seen):
        rows = obj["rows"]
        if len(rows) != t + 1 or any(len(r) != t + 1 for r in rows):
            return "eigen table has the wrong shape"
        if _ints(rows[0]) != full:
            return "eigen row 0 differs from the closed-form census"
        if any(r[0] != "1" for r in rows):
            return "eigen column 0 is not all ones"
        return None

    def check_macwilliams(obj, seen):
        if _ints(obj["dual"]) != [1] + [0] * t:
            return "dual of the full space is not (1, 0, ..., 0)"
        return None

    def check_mhrd(obj, seen):
        return _sums_to(obj["counts"], q ** (t * (t - d + 1)), "mhrd")

    def verify(vq, vt, trials):
        return Command(f"verify-q{vq}-t{vt}",
                       _json_cmd("verify", "--q", vq, "--t", vt, "--trials",
                                 trials, "--seed", seed),
                       work=_verify_checks, seeded=True, check=_check_verify)

    # verify samples codes of random dimension; at q=3 only t=2 keeps the
    # pass time independent of the seed (t=3 takes 1.3 to 4.3 s by seed).
    return [
        verify(2, t2, trials2),
        verify(3, 2, trials3),
        Command(f"eigen-q{q}-t{t}", _json_cmd("eigen", "--q", q, "--t", t),
                work=lambda o: (t + 1) ** 2, check=check_eigen),
        Command(f"macwilliams-q{q}-t{t}",
                _json_cmd("macwilliams", "--q", q, "--t", t,
                          "--dist", ",".join(map(str, full)),
                          "--size", q ** (t * t)),
                work=lambda o: t + 1, check=check_macwilliams),
        Command(f"mhrd-q{q}-t{t}-d{d}",
                _json_cmd("mhrd", "--q", q, "--t", t, "--d", d),
                work=lambda o: 0, check=check_mhrd),
    ]


NAMES = ("census", "codes", "parallel", "identities")
# (p, m) of every field a workload's commands build.
FIELDS = {"census": [(2, 1), (3, 1), (13, 1)], "codes": [(2, 1), (3, 1)],
          "parallel": [(2, 1)], "identities": [(2, 1), (3, 1)]}


def build(name: str, seed: int, quick: bool, inputs: dict) -> Workload:
    """The workload's commands, given what bench/fixtures.py built."""
    fixtures = [{"name": label, **info} for label, info in inputs["codes"].items()]
    if name == "census":
        cmds = _census(quick)
    elif name == "codes":
        cmds = _codes(inputs["codes"])
    elif name == "parallel":
        cmds = _parallel(inputs["codes"])
    elif name == "identities":
        cmds = _identities(seed, quick, _ints(inputs["full_space"]))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, FIELDS[name], cmds, fixtures)

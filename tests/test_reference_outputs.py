"""Every benchmark command prints the bytes whose digests
bench/reference.json records, so a change in what count, wd, dual,
verify, eigen, macwilliams or mhrd print fails here, before the benchmark
runs. Below them, ``verify --format json`` is pinned on a small grid of
its own, so a faster suite cannot drop a check or change a count
unnoticed.

The commands and their inputs are the benchmark's own, at its reference
seed: bench/workloads.py builds the commands, bench/fixtures.py writes
the seeded code files of the codes and parallel workloads (here into a
temporary directory), and bench/reference.json holds the digests. The
bench files are only read.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from hrmc.cli import main
from hrmc.eigen import full_space_distribution
from hrmc.negq import NegQContext

BENCH = Path(__file__).resolve().parents[1] / "bench"
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def _load(name, **imports):
    """bench/<name>.py as a module, with ``imports`` standing in for the
    bench modules it imports by name."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    with mock.patch.dict(sys.modules, imports):
        spec.loader.exec_module(module)
    return module


_WORKLOADS = _load("workloads")
_FIXTURES = _load("fixtures", workloads=_WORKLOADS)


def _placeholders(name):
    """The inputs bench/fixtures.py reports for the workload, with
    "@<label>" for the path of each code file, which the tests write."""
    codes = {}
    for label, p, t, k in _WORKLOADS.CODE_PLAN[name](False):
        for fx_label, fx_k in ((label, k), (f"{label}_dual", t * t - k)):
            codes[fx_label] = {"q": p, "t": t, "k": fx_k, "size": p ** fx_k,
                               "file": f"@{fx_label}"}
    return codes


def _commands(name):
    """(workload, digest key, argv) of each command of the full-size
    workload. Census and identities read no code; identities feeds the
    closed-form full-space census to macwilliams."""
    full = []
    if name == "identities":
        q, t = _WORKLOADS.identities_size(False)
        full = [str(c) for c in full_space_distribution(NegQContext(q), t)]
    workload = _WORKLOADS.build(name, REFERENCE["seed"], False,
                                {"codes": _placeholders(name),
                                 "full_space": full})
    return [(name, f"{name}/{cmd.label}", cmd.argv)
            for cmd in workload.commands]


CASES = [case for name in _WORKLOADS.NAMES for case in _commands(name)]


@pytest.fixture(scope="session")
def code_files(tmp_path_factory):
    """Per workload, the path of each "@<label>" placeholder: the code
    files bench/fixtures.py writes at the reference seed."""
    files = {}
    for name in _WORKLOADS.NAMES:
        out = tmp_path_factory.mktemp(name)
        built = _FIXTURES.build(name, REFERENCE["seed"], False, out)
        files[name] = {f"@{label}": info["file"]
                       for label, info in built["codes"].items()}
    return files


def test_every_command_has_a_reference():
    assert len(CASES) == len(REFERENCE["digests"]) == 15
    assert {key for _, key, _ in CASES} == set(REFERENCE["digests"])


@pytest.mark.parametrize("name,key,argv", CASES,
                         ids=[key for _, key, _ in CASES])
def test_output_matches_the_bench_reference(capsys, code_files, name, key,
                                            argv):
    argv = [code_files[name].get(arg, arg) for arg in argv]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() \
        == REFERENCE["digests"][key], key


# sha256 of ``verify --q Q --t T --trials N --seed S --format json``'s
# stdout, (Q, T, N, S) -> digest, recorded before the Leibniz sums left out
# their zero terms
VERIFY_DIGESTS = {
    (2, 1, 0, 0):
        "d302b63063a8796d46e40a709e012c3875a0ecb3bd0642b3e0ed80989bdfc771",
    (2, 3, 5, 1):
        "36a166bb011a7f565b9e1a4759768486f3d31571d38e72b421edaebdaf8e3d1c",
    (3, 2, 5, 0):
        "17c48c265ea0d5f8263d0306270cddb416a7aadd4600b6298a22e694ce94d411",
    (4, 2, 3, 2):
        "5120571c8e8c46ef2579062b953895149ecb3ca40b0c93adb7639a0558c5d12a",
    (5, 1, 2, 3):
        "04efe07d2d54f3863015e7de39aa9829b6c59f66d4c59fb55a788cfd093f34e3",
    (9, 1, 1, 0):
        "ac0053cd8ce6239fe9df917d127f3d92097e6d5efbf07572a908e5c33b6347c6",
}


@pytest.mark.parametrize("q,t,trials,seed", VERIFY_DIGESTS)
def test_verify_json_matches_its_recorded_digest(capsys, q, t, trials,
                                                 seed):
    argv = ["verify", "--q", str(q), "--t", str(t), "--trials", str(trials),
            "--seed", str(seed), "--format", "json"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() \
        == VERIFY_DIGESTS[q, t, trials, seed]

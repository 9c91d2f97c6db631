"""Every benchmark command prints the bytes whose digests
bench/reference.json records, so a change in what count, wd, dual,
verify, eigen, macwilliams or mhrd print fails here, before the benchmark
runs.

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

"""The benchmark's census and identities commands print the bytes whose
digests bench/reference.json records, so a change in what count, verify,
eigen, macwilliams or mhrd print fails here, before the benchmark runs.

The commands and their inputs are the benchmark's own, at its reference
seed: bench/workloads.py builds them and bench/reference.json holds the
digests. Both files are only read.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from hrmc.cli import main
from hrmc.macwilliams import full_space_distribution
from hrmc.negq import NegQContext

BENCH = Path(__file__).resolve().parents[1] / "bench"
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _commands(workloads, name):
    """(digest key, argv) of each command of the full-size workload. The
    fixtures of census and identities hold no code; identities feeds the
    closed-form full-space census to macwilliams."""
    full = []
    if name == "identities":
        q, t = workloads.identities_size(False)
        full = [str(c) for c in full_space_distribution(NegQContext(q), t)]
    workload = workloads.build(name, REFERENCE["seed"], False,
                               {"codes": {}, "full_space": full})
    return [(f"{name}/{cmd.label}", cmd.argv) for cmd in workload.commands]


_WORKLOADS = _load_workloads()
CASES = _commands(_WORKLOADS, "census") + _commands(_WORKLOADS, "identities")


def test_every_command_has_a_reference():
    assert len(CASES) == 8
    assert all(key in REFERENCE["digests"] for key, _ in CASES)


@pytest.mark.parametrize("key,argv", CASES, ids=[key for key, _ in CASES])
def test_output_matches_the_bench_reference(capsys, key, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() \
        == REFERENCE["digests"][key], key

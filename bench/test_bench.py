"""Tests of the benchmark itself, at reduced sizes.

Run from the repository root: python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_quick_run_emits_every_metric(workload, trace):
    proc = _run(["--quick", "--workload", workload, "--seed", "5",
                 "--seconds", "1", "--trace", str(trace),
                 "--out", "bench/out/test-runs.jsonl"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY


def test_without_source_exits_nonzero_and_prints_no_result():
    bare = BENCH / "out" / "no-source"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "census", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("parent, change, better, expected", [
    ([1.0, 1.01, 0.99, 1.0], [1.3, 1.31, 1.29, 1.3], "lower", "worse"),
    ([1.0, 1.01, 0.99, 1.0], [0.7, 0.71, 0.69, 0.7], "lower", "better"),
    ([1.0, 1.01, 0.99, 1.0], [1.02, 1.0, 1.01, 0.99], "lower", "within bound"),
    ([1.0, 1.01, 0.99, 1.0], [1.3, 1.31, 1.29, 1.3], "higher", "better"),
    ([1.0, 2.0, 0.5, 1.5], [1.1, 0.6, 1.9, 1.2], "lower", "unresolved"),
])
def test_compare_verdicts(parent, change, better, expected):
    mark, _ = compare.verdict(list(enumerate(parent)), list(enumerate(change)),
                              better, 0.1)
    assert mark == expected

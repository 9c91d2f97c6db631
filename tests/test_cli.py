"""End-to-end runs of the command-line interface through main(argv)."""

import json
import time

import pytest

from hrmc.cli import _index_ranges, main


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_code_file(tmp_path, code, name="code.json"):
    path = tmp_path / name
    path.write_text(json.dumps(code.to_jsonable()))
    return str(path)


@pytest.fixture
def two_cpus(monkeypatch):
    """Let --workers 2 start a real pool of two on any host."""
    monkeypatch.setattr("os.cpu_count", lambda: 2)


def test_count_json_deterministic_across_workers(capsys, two_cpus):
    rc1, out1, _ = run(capsys, ["count", "--q", "2", "--t", "2",
                                "--format", "json", "--workers", "1"])
    rc2, out2, _ = run(capsys, ["count", "--q", "2", "--t", "2",
                                "--format", "json", "--workers", "2"])
    assert rc1 == rc2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["counts"] == ["1", "5", "10"]
    assert payload["closed_form"] == ["1", "5", "10"]
    assert payload["match"] is True


def test_count_table_output(capsys):
    rc, out, _ = run(capsys, ["count", "--q", "3", "--t", "2"])
    assert rc == 0
    assert "rank 2: 60" in out
    assert "MATCH" in out


def test_count_rejects_non_prime_power(capsys):
    rc, _, err = run(capsys, ["count", "--q", "6", "--t", "2"])
    assert rc == 2
    assert "prime power" in err


def test_count_guard_flag(capsys):
    rc, _, err = run(capsys, ["count", "--q", "2", "--t", "3", "--guard", "100"])
    assert rc == 2
    assert "guard" in err


def test_count_guard_env(capsys, monkeypatch):
    monkeypatch.setenv("HRMC_GUARD", "10")
    rc, _, err = run(capsys, ["count", "--q", "2", "--t", "2"])
    assert rc == 2
    assert "guard" in err
    # an explicit flag overrides the environment
    rc, _, _ = run(capsys, ["count", "--q", "2", "--t", "2", "--guard", "100"])
    assert rc == 0


@pytest.mark.parametrize("argv,env", [
    (["count", "--q", "2", "--t", "0"], None),
    (["count", "--q", "2", "--t", "-1"], None),
    (["verify", "--q", "2", "--t", "0"], None),
    (["count", "--q", "2", "--t", "2", "--workers", "0"], None),
    (["wd", "--input", "CODE", "--workers", "-3"], None),
    (["count", "--q", "2", "--t", "2", "--guard", "-1"], None),
    (["count", "--q", "2", "--t", "2"], "abc"),
    (["verify", "--q", "2", "--t", "2"], "1e6"),
])
def test_unusable_input_exits_2(capsys, monkeypatch, tmp_path, example_code,
                                argv, env):
    if env is not None:
        monkeypatch.setenv("HRMC_GUARD", env)
    path = write_code_file(tmp_path, example_code)
    rc, out, err = run(capsys, [path if a == "CODE" else a for a in argv])
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_eigen(capsys):
    rc, out, _ = run(capsys, ["eigen", "--q", "2", "--t", "3",
                              "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["rows"][0] == ["1", "21", "210", "280"]
    assert payload["rows"][1][1] == "-11"
    rc, out, _ = run(capsys, ["eigen", "--q", "2", "--t", "3"])
    assert rc == 0
    assert "both routes agree" in out


def test_wd(capsys, tmp_path, example_code, code_corpus, two_cpus):
    path = write_code_file(tmp_path, example_code)
    rc, out, _ = run(capsys, ["wd", "--input", path, "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["counts"] == ["1", "0", "3", "4"]
    assert payload["k"] == "3"
    rc2, out2, _ = run(capsys, ["wd", "--input", path, "--format", "json",
                                "--workers", "2"])
    assert rc2 == 0 and out2 == out
    # q = 3: the two index ranges have different lengths
    code3 = max((s.code for s in code_corpus[(3, 2)]), key=lambda c: c.k)
    assert code3.size % 2 == 1
    path3 = write_code_file(tmp_path, code3, "code3.json")
    rc, out, _ = run(capsys, ["wd", "--input", path3, "--format", "json"])
    rc2, out2, _ = run(capsys, ["wd", "--input", path3, "--format", "json",
                                "--workers", "2"])
    assert rc == rc2 == 0 and out2 == out
    assert sum(map(int, json.loads(out)["counts"])) == code3.size


@pytest.mark.parametrize("total,workers,cpus,parts", [
    (10, 100000, 4, 4),      # capped by the CPU count
    (3, 8, 16, 3),           # capped by the number of indices
    (9, 2, 8, 2),            # as requested
    (65536, 2, None, 1),     # CPU count unknown
    (1, 1, 1, 1),
])
def test_index_ranges_cap(monkeypatch, total, workers, cpus, parts):
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    ranges = _index_ranges(total, workers)
    assert len(ranges) == parts
    assert ranges[0][0] == 0 and ranges[-1][1] == total
    assert all(lo < hi for lo, hi in ranges)
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))


def test_wd_missing_file(capsys, tmp_path):
    rc, _, err = run(capsys, ["wd", "--input", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "cannot read" in err


def test_wd_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"t\": 3}")
    rc, _, err = run(capsys, ["wd", "--input", str(path)])
    assert rc == 2


def test_dual_routes_and_moments(capsys, tmp_path, example_code):
    path = write_code_file(tmp_path, example_code)
    rc, out, _ = run(capsys, ["dual", "--input", path])
    assert rc == 0
    assert "PASS" in out
    assert "[1, 3, 24, 36]" in out
    rc, out, _ = run(capsys, ["dual", "--input", path, "--format", "json"])
    payload = json.loads(out)
    assert payload["dual_eigen"] == ["1", "3", "24", "36"]
    assert payload["dual_transform"] == ["1", "3", "24", "36"]
    assert payload["dual_brute"]["counts"] == ["1", "3", "24", "36"]
    assert payload["match"] is True
    assert len(payload["moments"]) == 4
    assert all(m["match"] is True for m in payload["moments"])


def test_dual_single_phi(capsys, tmp_path, example_code):
    path = write_code_file(tmp_path, example_code)
    rc, out, _ = run(capsys, ["dual", "--input", path, "--phi", "2",
                              "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert len(payload["moments"]) == 1
    assert payload["moments"][0]["phi"] == "2"
    assert payload["moments"][0]["q_lhs"] == "3"


def test_macwilliams(capsys):
    rc, out, _ = run(capsys, ["macwilliams", "--q", "2", "--t", "3",
                              "--dist", "1,0,3,4", "--size", "8",
                              "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["dual"] == ["1", "3", "24", "36"]


def test_macwilliams_bad_dist(capsys):
    rc, _, err = run(capsys, ["macwilliams", "--q", "2", "--t", "3",
                              "--dist", "1,x,3,4", "--size", "8"])
    assert rc == 2
    rc, _, err = run(capsys, ["macwilliams", "--q", "2", "--t", "3",
                              "--dist", "1,0,3", "--size", "8"])
    assert rc == 2
    assert "comma-separated" in err


def test_macwilliams_non_integral_dual(capsys):
    # not the distribution of any code, so the routes produce fractions
    rc, _, err = run(capsys, ["macwilliams", "--q", "2", "--t", "3",
                              "--dist", "1,1,0,0", "--size", "8"])
    assert rc == 1


def test_mhrd(capsys):
    rc, out, _ = run(capsys, ["mhrd", "--q", "2", "--t", "3", "--d", "3",
                              "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["counts"] == ["1", "0", "0", "7"]
    assert payload["dual_size"] == "64"


def test_mhrd_even_distance_is_usage_error(capsys):
    rc, _, err = run(capsys, ["mhrd", "--q", "2", "--t", "3", "--d", "2"])
    assert rc == 2
    assert "odd" in err


def test_verify_runs_and_is_deterministic(capsys):
    start = time.perf_counter()
    rc, out1, _ = run(capsys, ["verify", "--q", "2", "--t", "3",
                               "--trials", "20", "--seed", "7",
                               "--format", "json"])
    elapsed = time.perf_counter() - start
    assert rc == 0
    assert elapsed < 60.0
    payload = json.loads(out1)
    assert payload["ok"] is True
    assert len(payload["suites"]) == 12
    assert all(s["failed"] == "0" for s in payload["suites"])
    rc, out2, _ = run(capsys, ["verify", "--q", "2", "--t", "3",
                               "--trials", "20", "--seed", "7",
                               "--format", "json"])
    assert out2 == out1


def test_verify_table_lines(capsys):
    rc, out, _ = run(capsys, ["verify", "--q", "2", "--t", "2",
                              "--trials", "5", "--seed", "1"])
    assert rc == 0
    assert "ALL SUITES PASSED" in out
    assert len([ln for ln in out.splitlines() if " passed " in ln]) == 12

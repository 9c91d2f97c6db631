"""End-to-end runs of the command-line interface through main(argv)."""

import contextlib
import copy
import io
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hrmc import cli, codes
from hrmc.cli import RunConfig, _all_digits, _index_ranges, emit, main
from hrmc.codes import dual_code, weight_distribution
from hrmc.errors import EnumerationTooLarge
from hrmc.macwilliams import EigenTable, full_space_distribution
from hrmc.negq import NegQContext
from hrmc.verify import sample_codes


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_json(tmp_path, obj, name="code.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def write_code_file(tmp_path, code, name="code.json"):
    return write_json(tmp_path, code.to_jsonable(), name)


def assert_one_error_line(out, err):
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.fixture
def one_word_per_process(monkeypatch):
    """Let a range of any size have a process of its own, so tiny codes
    still exercise the pool."""
    monkeypatch.setattr(cli, "MIN_WORDS_PER_PROCESS", 1)


@pytest.fixture
def two_cpus(monkeypatch, one_word_per_process):
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


@pytest.mark.parametrize("q,t", [(3, 2), (13, 1)])
def test_count_workers_split_projective_groups(capsys, two_cpus, q, t):
    """Two workers split the kernel's index range inside a group of q - 1
    multiples (13 words at q=13, t=1 split 7 + 6); the output is the same
    bytes as one worker's."""
    argv = ["count", "--q", str(q), "--t", str(t), "--format", "json"]
    rc1, out1, _ = run(capsys, argv + ["--workers", "1"])
    rc2, out2, _ = run(capsys, argv + ["--workers", "2"])
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert json.loads(out1)["match"] is True


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


def test_count_refuses_before_building_the_space(capsys, monkeypatch):
    def unreachable(field, t):
        raise AssertionError("basis built before the guard check")
    monkeypatch.setattr("hrmc.cli.standard_basis", unreachable)
    rc, out, err = run(capsys, ["count", "--q", "2", "--t", "100"])
    assert rc == 2
    assert "guard" in err
    # q^(t^2) has more digits than str() converts
    rc, out, err = run(capsys, ["count", "--q", "2", "--t", "120"])
    assert rc == 2
    assert_one_error_line(out, err)
    assert "at least 2^14400 matrices" in err


def test_dual_refuses_before_building_the_dual(capsys, tmp_path,
                                               monkeypatch, example_code):
    def unreachable(code):
        raise AssertionError("dual built before the guard check")
    monkeypatch.setattr("hrmc.cli.dual_code", unreachable)
    path = write_json(tmp_path, {**example_code.to_jsonable(), "t": 30,
                                 "generators": []})
    rc, out, err = run(capsys, ["dual", "--input", path])
    assert rc == 2
    assert_one_error_line(out, err)
    assert "at least 2^900 dual codewords" in err


def test_count_guard_env(capsys, monkeypatch):
    monkeypatch.setenv("HRMC_GUARD", "10")
    rc, _, err = run(capsys, ["count", "--q", "2", "--t", "2"])
    assert rc == 2
    assert "guard" in err
    # an explicit flag overrides the environment
    rc, _, _ = run(capsys, ["count", "--q", "2", "--t", "2", "--guard", "100"])
    assert rc == 0


def _non_hermitian(obj):
    obj["generators"][0]["rows"][0][1] = [1, 0]  # its mirror stays 1 + a
    return obj


def _generator_t_differs(obj):
    obj["t"] = 2
    return obj


def _infinite_t(obj):
    obj["t"] = float("inf")  # written as Infinity, which json.load accepts
    return obj


def _empty_with_t_0(obj):
    return {**obj, "t": 0, "generators": []}


FILES = {"CODE": lambda obj: obj, "NONHERM": _non_hermitian,
         "BADT": _generator_t_differs, "INFT": _infinite_t,
         "T0": _empty_with_t_0}


@pytest.mark.parametrize("argv,env", [
    (["count", "--q", "2", "--t", "0"], None),
    (["count", "--q", "2", "--t", "-1"], None),
    (["verify", "--q", "2", "--t", "0"], None),
    (["count", "--q", "2", "--t", "2", "--workers", "0"], None),
    (["wd", "--input", "CODE", "--workers", "-3"], None),
    (["count", "--q", "2", "--t", "2", "--guard", "-1"], None),
    (["count", "--q", "2", "--t", "2"], "abc"),
    (["verify", "--q", "2", "--t", "2"], "1e6"),
    (["eigen", "--q", "2", "--t", "-1"], None),
    (["eigen", "--q", "2", "--t", "0"], None),
    (["macwilliams", "--q", "2", "--t", "0", "--dist", "1", "--size", "1"],
     None),
    (["mhrd", "--q", "2", "--t", "-2", "--d", "1"], None),
    (["eigen", "--q", "6", "--t", "2"], None),
    (["macwilliams", "--q", "6", "--t", "1", "--dist", "1,1", "--size", "2"],
     None),
    (["mhrd", "--q", "6", "--t", "3", "--d", "3"], None),
    (["mhrd", "--q", "2", "--t", "3", "--d", "0"], None),
    (["mhrd", "--q", "2", "--t", "3", "--d", "5"], None),
    (["macwilliams", "--q", "2", "--t", "1", "--dist", "1,1", "--size", "0"],
     None),
    (["dual", "--input", "CODE", "--phi", "99"], None),
    (["dual", "--input", "CODE", "--phi", "-1"], None),
    (["verify", "--q", "2", "--t", "2", "--trials", "-1"], None),
    (["wd", "--input", "NONHERM"], None),
    (["wd", "--input", "BADT"], None),
    (["wd", "--input", "INFT"], None),
    (["wd", "--input", "T0"], None),
])
def test_unusable_input_exits_2(capsys, monkeypatch, tmp_path, example_code,
                                argv, env):
    if env is not None:
        monkeypatch.setenv("HRMC_GUARD", env)
    argv = [write_json(tmp_path, FILES[a](example_code.to_jsonable()))
            if a in FILES else a for a in argv]
    rc, out, err = run(capsys, argv)
    assert rc == 2
    assert_one_error_line(out, err)


def _command(name, **flags):
    # --flag=value, so that values such as -1 or -3,4 reach the flag
    return [name] + [f"--{k}={v}" for k, v in flags.items()]


_Q, _T = st.integers(-2, 20), st.integers(-3, 4)
_CASES = st.one_of(   # (argv, mutation of the example code or None)
    st.tuples(st.builds(lambda q, t: _command("eigen", q=q, t=t), _Q, _T),
              st.none()),
    st.tuples(st.builds(lambda q, t, size, dist: _command(
        "macwilliams", q=q, t=t, size=size, dist=",".join(map(str, dist))),
        _Q, _T, st.integers(-2, 70),
        st.lists(st.integers(-3, 40), min_size=1, max_size=6)), st.none()),
    st.tuples(st.builds(lambda q, t, d: _command("mhrd", q=q, t=t, d=d),
                        _Q, _T, st.integers(-2, 6)), st.none()),
    st.tuples(st.builds(lambda phi: _command("dual", input="CODE", phi=phi),
                        st.integers(-3, 6)), st.none()),
    st.tuples(st.just(_command("wd", input="CODE")), st.tuples(
        st.sampled_from(["drop", "retype", "flip", "t"]),
        st.integers(0, 1000),
        st.sampled_from(["x", None, [], {}, 1.5, True, -1, 65537]),
        st.integers(-2, 6))),
)


def _paths(obj, path=()):
    yield path
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _mutate(obj, op, pick, junk, number):
    """Drop one key or entry, give one value a wrong type, change one int,
    or change the code's t."""
    if op == "t":
        obj["t"] = number
        return obj
    paths = list(_paths(obj))
    if op == "flip":
        paths = [p for p in paths if type(_at(obj, p)) is int]
    elif op == "drop":
        paths = paths[1:]
    path = paths[pick % len(paths)]
    if not path:
        return copy.deepcopy(junk)
    parent = _at(obj, path[:-1])
    if op == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = number if op == "flip" else copy.deepcopy(junk)
    return obj


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs")


@settings(max_examples=200, deadline=None)
@given(case=_CASES)
def test_main_exits_0_or_2_with_one_error_line(case, example_code,
                                               scratch_dir):
    argv, mutation = case
    code = example_code.to_jsonable()
    if mutation is not None:
        code = _mutate(code, *mutation)
    path = write_json(scratch_dir, code)
    argv = [a.replace("=CODE", "=" + path) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2), (argv, err.getvalue())
    if rc == 2:
        assert_one_error_line(out.getvalue(), err.getvalue())


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


def _via_dual(code):
    """Whether ``wd`` counts the words of the dual rather than the code."""
    return code.t * code.t - code.k < code.k


def test_wd(capsys, tmp_path, example_code, code_corpus, two_cpus):
    assert not _via_dual(example_code)
    path = write_code_file(tmp_path, example_code)
    rc, out, _ = run(capsys, ["wd", "--input", path, "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["counts"] == ["1", "0", "3", "4"]
    assert payload["k"] == "3"
    rc2, out2, _ = run(capsys, ["wd", "--input", path, "--format", "json",
                                "--workers", "2"])
    assert rc2 == 0 and out2 == out
    # q = 3: the two index ranges have different lengths, on the code
    # itself (k = 2, a tie) and on its 3-word dual (k = 3)
    for k, via_dual in ((2, False), (3, True)):
        code3 = next(s.code for s in code_corpus[(3, 2)] if s.code.k == k)
        assert _via_dual(code3) is via_dual
        path3 = write_code_file(tmp_path, code3, "code3.json")
        rc, out, _ = run(capsys, ["wd", "--input", path3, "--format", "json"])
        rc2, out2, _ = run(capsys, ["wd", "--input", path3, "--format",
                                    "json", "--workers", "2"])
        assert rc == rc2 == 0 and out2 == out
        assert sum(map(int, json.loads(out)["counts"])) == code3.size


def _canonical(payload):
    return json.dumps(cli._stringify(payload), sort_keys=True,
                      separators=(",", ":")) + "\n"


def test_wd_equals_enumeration_on_both_sides(capsys, tmp_path, code_corpus):
    """Counted directly or through the dual, ``wd`` prints the enumerated
    distribution byte for byte."""
    routes = set()
    for samples in code_corpus.values():
        for s in samples:
            for code in (s.code, s.dual):
                path = write_code_file(tmp_path, code)
                rc, out, _ = run(capsys, ["wd", "--input", path,
                                          "--format", "json"])
                assert rc == 0
                assert out == _canonical(
                    weight_distribution(code).to_jsonable())
                routes.add(_via_dual(code))
    assert routes == {False, True}


def test_wd_guard_applies_to_the_enumerated_side(capsys, tmp_path,
                                                  example_code):
    code = dual_code(example_code)  # 64 words whose dual has 8
    guard = code.t * code.t  # no fewer than the cells of one word
    assert _via_dual(code) and example_code.size <= guard < code.size
    path = write_code_file(tmp_path, code)
    rc, out, _ = run(capsys, ["wd", "--input", path, "--format", "json",
                              "--guard", str(guard)])
    assert rc == 0
    assert json.loads(out)["counts"] == ["1", "3", "24", "36"]
    with pytest.raises(EnumerationTooLarge):
        weight_distribution(code, guard=guard)
    rc, out, err = run(capsys, ["wd", "--input", path,
                                "--guard", str(example_code.size - 1)])
    assert rc == 2
    assert_one_error_line(out, err)


def _diagonal_off_subfield(obj):
    obj["generators"][0]["rows"][0][0] = [0, 1]  # a, moved by conjugation
    return obj


def _generator_without_rows(obj):
    del obj["generators"][-1]["rows"]
    return obj


@pytest.mark.parametrize("mutate", [_diagonal_off_subfield,
                                    _generator_without_rows,
                                    _generator_t_differs])
def test_wd_refuses_unusable_files_on_the_dual_path(capsys, tmp_path,
                                                    example_code, mutate):
    code = dual_code(example_code)
    assert _via_dual(code)
    path = write_json(tmp_path, mutate(code.to_jsonable()))
    rc, out, err = run(capsys, ["wd", "--input", path])
    assert rc == 2
    assert_one_error_line(out, err)


def test_wd_refuses_words_of_more_cells_than_the_guard(capsys, tmp_path,
                                                       example_code):
    path = write_json(tmp_path, {**example_code.to_jsonable(), "t": 11,
                                 "generators": []})
    rc, out, err = run(capsys, ["wd", "--input", path, "--guard", "100"])
    assert rc == 2
    assert_one_error_line(out, err)
    assert "121 cells per codeword" in err
    rc, out, _ = run(capsys, ["wd", "--input", path, "--guard", "121",
                              "--format", "json"])
    assert rc == 0
    assert json.loads(out)["counts"] == ["1"] + ["0"] * 11


@pytest.fixture
def enumerated(monkeypatch):
    """The (code, start, stop) of every call of the counting kernel."""
    calls = []
    kernel = codes.rank_counts

    def recording(code, start, stop, *rest):
        calls.append((code, start, stop))
        return kernel(code, start, stop, *rest)

    monkeypatch.setattr("hrmc.codes.rank_counts", recording)
    monkeypatch.setattr("hrmc.cli.rank_counts", recording)
    return calls


def _words_counted(calls):
    return sum(stop - start for _, start, stop in calls)


def test_shortcut_stays_out_of_the_cross_checks(capsys, tmp_path,
                                                example_code, enumerated):
    """``count``, ``dual`` and ``verify`` enumerate every side they compare
    with a closed form; only ``wd`` takes the smaller side."""
    rc, _, _ = run(capsys, ["count", "--q", "2", "--t", "3"])
    assert rc == 0 and _words_counted(enumerated) == 2 ** 9

    dual = dual_code(example_code)
    enumerated.clear()
    path = write_code_file(tmp_path, example_code)
    rc, _, _ = run(capsys, ["dual", "--input", path])
    assert rc == 0
    assert enumerated == [(example_code, 0, 8), (dual, 0, 64)]
    enumerated.clear()
    path = write_code_file(tmp_path, dual)  # the larger side first
    rc, _, _ = run(capsys, ["dual", "--input", path])
    assert rc == 0
    assert enumerated == [(dual, 0, 64), (example_code, 0, 8)]

    samples = sample_codes(example_code.field, 2, 20, 0)
    enumerated.clear()
    rc, _, _ = run(capsys, ["verify", "--q", "2", "--t", "2"])
    assert rc == 0
    assert enumerated == [side for s in samples
                          for side in ((s.code, 0, s.code.size),
                                       (s.dual, 0, s.dual.size))]

    enumerated.clear()
    rc, _, _ = run(capsys, ["wd", "--input", path])
    assert rc == 0 and enumerated == [(example_code, 0, 8)]


def test_wd_via_dual_needs_both_routes_to_agree(capsys, tmp_path,
                                                 monkeypatch, example_code):
    monkeypatch.setattr("hrmc.cli.macwilliams_transform",
                        lambda ctx, counts, size, t: (1, 1, 24, 38))
    path = write_code_file(tmp_path, dual_code(example_code))
    rc, out, err = run(capsys, ["wd", "--input", path])
    assert rc == 1
    assert_one_error_line(out, err)
    assert "routes disagree" in err


BIG = 10 ** 5000  # past Python's 4300-digit int-to-str limit


def _digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _str_big(value):
    with _all_digits():
        return str(value)


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_emit_renders_integers_past_the_str_limit(capsys, fmt):
    """The limit is lifted while output is rendered, then put back, so
    input parsing keeps Python's guard."""
    before = _digit_limit()
    emit({"n": BIG, "rows": [[BIG, -BIG]]}, RunConfig(output_format=fmt),
         (f"n = {v}" for v in (BIG,)))
    out = capsys.readouterr().out
    if fmt == "json":
        assert json.loads(out) == {"n": _str_big(BIG),
                                   "rows": [[_str_big(BIG), _str_big(-BIG)]]}
    else:
        assert out == f"n = {_str_big(BIG)}\n"
    assert _digit_limit() == before
    if before:
        with pytest.raises(ValueError):
            int("1" * (before + 1))


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_eigen_prints_entries_past_the_str_limit(capsys, monkeypatch, fmt):
    """eigen renders its table (to_jsonable and the table lines) with the
    limit lifted; before, q=2 t=120 ended in a ValueError traceback."""
    table = EigenTable(2, 1, ((1, BIG), (1, -BIG)))
    monkeypatch.setattr(cli, "build_eigen_table", lambda ctx, t: table)
    monkeypatch.setattr(cli, "build_eigen_table_C", lambda ctx, t: table)
    before = _digit_limit()
    rc, out, err = run(capsys, ["eigen", "--q", "2", "--t", "1",
                                "--format", fmt])
    assert (rc, err) == (0, "")
    assert _str_big(-BIG) in out
    assert _digit_limit() == before


@pytest.mark.parametrize("total,workers,cpus,parts", [
    (10, 100000, 4, 4),      # capped by the CPU count
    (3, 8, 16, 3),           # capped by the number of indices
    (9, 2, 8, 2),            # as requested
    (65536, 2, None, 1),     # CPU count unknown
    (1, 1, 1, 1),
])
def test_index_ranges_cap(monkeypatch, one_word_per_process, total, workers,
                          cpus, parts):
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    ranges = _index_ranges(total, workers)
    assert len(ranges) == parts
    assert ranges[0][0] == 0 and ranges[-1][1] == total
    assert all(lo < hi for lo, hi in ranges)
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))


def test_tiny_enumerations_start_no_pool(capsys, monkeypatch, tmp_path,
                                        example_code):
    """Under the default MIN_WORDS_PER_PROCESS, a code too small to pay for
    a process of its own is counted in-process, with the one-worker bytes;
    the 65536 matrices of q=2, t=4 still split over two processes."""
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    words = cli.MIN_WORDS_PER_PROCESS
    assert len(_index_ranges(2 * words - 1, 2)) == 1
    assert len(_index_ranges(2 * words, 2)) == 2
    path = write_code_file(tmp_path, example_code)
    argv = ["wd", "--input", path, "--format", "json"]
    rc1, out1, _ = run(capsys, argv)
    real_pool = multiprocessing.Pool

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    rc2, out2, err2 = run(capsys, argv + ["--workers", "2"])
    assert (rc1, rc2, err2) == (0, 0, "")
    assert out2 == out1
    started = []

    def counting_pool(processes):
        started.append(processes)
        return real_pool(processes=processes)
    monkeypatch.setattr(multiprocessing, "Pool", counting_pool)
    rc, out, _ = run(capsys, ["count", "--q", "2", "--t", "4", "--workers",
                              "2", "--format", "json"])
    assert rc == 0 and started == [2]
    assert json.loads(out)["match"] is True


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


# Closed-form commands at q=2, t=5: what computes their output, the
# payload key holding it, and its estimate: q^25 has at most
# 25*20/64 + 1 = 8 digits (2^64 has 20), times (t+1)^2 eigenvalues or t+1
# counts.
_CLOSED_FORMS = [
    (["eigen", "--q", "2", "--t", "5"], "build_eigen_table", "rows", 36 * 8),
    (["macwilliams", "--q", "2", "--t", "5", "--dist", "1,0,0,0,0,0",
      "--size", "1"], "macwilliams_eigen", "dual", 6 * 8),
    (["mhrd", "--q", "2", "--t", "5", "--d", "3"], "mhrd_distribution",
     "counts", 6 * 8),
]


@pytest.mark.parametrize("argv,compute,key,estimate", _CLOSED_FORMS)
def test_closed_forms_refuse_outputs_over_the_guard(capsys, monkeypatch, argv,
                                                     compute, key, estimate):
    """The output estimate is refused one below, before anything is
    computed, and accepted at it; the real output is no longer."""
    rc, out, _ = run(capsys, argv + ["--guard", str(estimate),
                                     "--format", "json"])
    assert rc == 0
    values = json.loads(out)[key]
    flat = [v for row in values for v in row] if key == "rows" else values
    assert sum(len(v.lstrip("-")) for v in flat) <= estimate

    def unreachable(*args):
        raise AssertionError("computed before the guard check")
    monkeypatch.setattr(f"hrmc.cli.{compute}", unreachable)
    rc, out, err = run(capsys, argv + ["--guard", str(estimate - 1)])
    assert rc == 2
    assert_one_error_line(out, err)
    assert f"{estimate} estimated output digits" in err
    monkeypatch.setenv("HRMC_GUARD", "10")
    rc, out, err = run(capsys, argv)
    assert rc == 2
    assert_one_error_line(out, err)


def test_macwilliams_refuses_transforms_over_the_guard(capsys, monkeypatch):
    """The transform's memo is estimated as (t+1)^2 values as long as
    q^(t^2), in 30-bit words, and refused one below the estimate before
    any product is built. At q=2, t=10: q^100 has at most 100*65/64 + 1 =
    102 bits, 4 words, so 121 * 4 = 484 words, above the 11 * 32 = 352
    estimated output digits."""
    argv = ["macwilliams", "--q", "2", "--t", "10",
            "--dist", "1" + ",0" * 10, "--size", "1"]
    rc, out, _ = run(capsys, argv + ["--guard", "484", "--format", "json"])
    assert rc == 0
    # the zero code's dual is the whole space
    assert json.loads(out)["dual"] == [
        str(c) for c in full_space_distribution(NegQContext(2), 10)]

    def unreachable(*args):
        raise AssertionError("computed before the guard check")
    for name in ("hrmc.cli.macwilliams_eigen", "hrmc.cli.macwilliams_transform",
                 "hrmc.polynomials.negq_product"):
        monkeypatch.setattr(name, unreachable)
    rc, out, err = run(capsys, argv + ["--guard", "483"])
    assert rc == 2
    assert_one_error_line(out, err)
    assert "484 estimated words memoised by the transform" in err
    # the default guard refuses q=2, t=160 and accepts the bench's q=3, t=40
    monkeypatch.delenv("HRMC_GUARD", raising=False)
    rc, out, err = run(capsys, ["macwilliams", "--q", "2", "--t", "160",
                                "--dist", "1" + ",0" * 160, "--size", "1"])
    assert rc == 2
    assert_one_error_line(out, err)
    assert "estimated words memoised by the transform" in err
    cli._check_transform_words(3, 40, RunConfig())


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
    # not the distribution of any code, so the routes produce fractions:
    # the input is at fault, not a route
    rc, out, err = run(capsys, ["macwilliams", "--q", "2", "--t", "3",
                                "--dist", "1,1,0,0", "--size", "8"])
    assert rc == 2
    assert_one_error_line(out, err)
    assert "--dist" in err


@pytest.mark.parametrize("dist, size, fault", [
    ("0,0", 1, "the zero word is counted 0 times, not once"),
    ("1,-1,4", 4, "a count is negative"),
    ("2,0", 2, "the zero word is counted 2 times, not once"),
    ("1,0,3", 3, "the counts sum to 4"),
])
def test_macwilliams_refuses_a_dist_no_code_has(capsys, monkeypatch, dist,
                                                size, fault):
    """Counts that no code has are refused before either route runs, even
    where both routes would give an integral dual."""
    def unreachable(*args):
        raise AssertionError("transformed a --dist that no code has")
    for name in ("hrmc.cli.macwilliams_eigen",
                 "hrmc.cli.macwilliams_transform"):
        monkeypatch.setattr(name, unreachable)
    t = dist.count(",")
    rc, out, err = run(capsys, ["macwilliams", "--q", "2", "--t", str(t),
                                "--dist", dist, "--size", str(size)])
    assert rc == 2
    assert_one_error_line(out, err)
    assert f"--dist {dist} with --size {size}" in err and fault in err


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


# Runs hrmc.cli.main on each argv list in a fresh interpreter and reports
# which of the watched modules the package loaded; "1" as the second
# argument does in-process what the two_cpus fixture does.
_IMPORT_PROBE = """
import contextlib, io, json, os, sys
before = set(sys.modules)
from hrmc import cli
if sys.argv[2] == "1":
    os.cpu_count = lambda: 2
    cli.MIN_WORDS_PER_PROCESS = 1
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
watched = ("dataclasses", "multiprocessing", "hrmc.verify")
print(json.dumps({"rc": codes, "loaded": [
    m for m in watched if m in sys.modules and m not in before]}))
"""


def _modules_loaded_by(argvs, two_cpus=False):
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs),
         "1" if two_cpus else "0"],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    report = json.loads(proc.stdout)
    assert report["rc"] == [0] * len(argvs)
    return report["loaded"]


def test_each_command_loads_only_what_it_runs(tmp_path, example_code):
    """Start-up is most of a small command's time, so no command loads
    dataclasses, and only the commands that use them load multiprocessing
    (a pool of workers) or hrmc.verify (the verify suites)."""
    code = write_code_file(tmp_path, example_code)
    dual = write_code_file(tmp_path, dual_code(example_code), "dual.json")
    assert _modules_loaded_by([
        ["count", "--q", "2", "--t", "2"],
        ["wd", "--input", code],
        ["wd", "--input", dual, "--workers", "2"],
        ["dual", "--input", code],
        ["eigen", "--q", "2", "--t", "3"],
        ["macwilliams", "--q", "2", "--t", "3", "--dist", "1,0,3,4",
         "--size", "8"],
        ["mhrd", "--q", "2", "--t", "3", "--d", "3"],
    ]) == []
    assert _modules_loaded_by(
        [["verify", "--q", "2", "--t", "2", "--trials", "2"]]) \
        == ["hrmc.verify"]
    assert _modules_loaded_by(
        [["count", "--q", "2", "--t", "4", "--workers", "2"]],
        two_cpus=True) == ["multiprocessing"]

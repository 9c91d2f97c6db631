"""End-to-end runs of the command-line interface through main(argv)."""

import contextlib
import copy
import io
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hrmc import cli, codefile, codes, eigen, negq, workers
from hrmc.cli import _all_digits, emit, main
from hrmc.codes import dual_code, rank_counts, weight_distribution
from hrmc.cost import DEFAULT_GUARD, check_guard, value_words
from hrmc.errors import (
    CheckFailed,
    EnumerationTooLarge,
    NotHermitian,
    UsageError,
    shown,
)
from hrmc.eigen import EigenTable, full_space_distribution
from hrmc.fields import make_field
from hrmc.negq import NegQContext
from hrmc.verify import SuiteResult, random_code, sample_codes
from hrmc.workers import _index_ranges


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
    still fork a child."""
    monkeypatch.setattr(workers, "MIN_WORDS_PER_PROCESS", 1)


@pytest.fixture
def two_cpus(monkeypatch, one_word_per_process):
    """Let --workers 2 fork a real child on any host with os.fork."""
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1},
                        raising=False)


def assert_no_child_left():
    """Every child forked so far has been reaped: none runs, no zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


@pytest.mark.parametrize("q,t", [(2, 3), (4, 2), (2, 4)])
def test_workers_split_the_coset_walk(capsys, tmp_path, two_cpus, q, t):
    """Two workers cut the kernel order in the middle of its walk: in the
    census, and in ``wd`` on a q=3, t=3 code of four unit generators, two
    with a nonzero first row and two, E among them, spanning K, its words
    whose first row is zero. The output is the same bytes as one
    worker's."""
    argv = ["count", "--q", str(q), "--t", str(t), "--format", "json"]
    rc1, out1, _ = run(capsys, argv + ["--workers", "1"])
    rc2, out2, _ = run(capsys, argv + ["--workers", "2"])
    assert rc1 == rc2 == 0 and out1 == out2
    assert json.loads(out1)["match"] is True
    field = make_field(3, 1)
    theta = codes._theta_index(field)
    # coordinates 5 and 8 are the lower diagonal entries, 1 and 3 lie in
    # the first row
    code = codes.make_code(field, 3, [
        codes.devectorize(field, 3, [int(c == pos) for c in range(9)], theta)
        for pos in (1, 3, 5, 8)])
    assert [any(x.index for x in g.entries[0])
            for g in code.generators] == [True, True, False, False]
    path = write_code_file(tmp_path, code)
    argv = ["wd", "--input", path, "--format", "json"]
    rc1, out1, _ = run(capsys, argv + ["--workers", "1"])
    rc2, out2, _ = run(capsys, argv + ["--workers", "2"])
    assert rc1 == rc2 == 0 and out1 == out2
    assert sum(map(int, json.loads(out1)["counts"])) == 81


@pytest.mark.parametrize("q,t", [(13, 2), (3, 3), (4, 2)])
def test_workers_split_a_group(capsys, two_cpus, q, t):
    """Two workers cut the census inside a coset of W, the matrices on
    the last row and column (2t - 1 dimensions), whose q^(2t-1) points
    the kernel counts at once when a range holds them whole: the last
    point of the first range and the first point of the second lie in
    one such coset, and the cosets of W are the first points of the
    kernel order, q^(2t-1) to each point of the (t-1)-blocks. The output
    is the same bytes as one worker's."""
    m, size = q - 1, q ** (2 * t - 1)
    total = q ** (t * t)
    (_, cut), _ = _index_ranges(total, 2)
    last, first = (cut - 2) // m, (cut - 1) // m  # points either side
    cosets = (q ** ((t - 1) ** 2) - 1) // m
    assert last // size == first // size and first < cosets * size
    argv = ["count", "--q", str(q), "--t", str(t), "--format", "json"]
    rc1, out1, _ = run(capsys, argv + ["--workers", "1"])
    rc2, out2, _ = run(capsys, argv + ["--workers", "2"])
    assert rc1 == rc2 == 0 and out1 == out2
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
    def unreachable(code):
        raise AssertionError("space built before the guard check")
    monkeypatch.setattr("hrmc.codes.dual_code", unreachable)
    rc, out, err = run(capsys, ["count", "--q", "2", "--t", "100"])
    assert rc == 2
    assert "guard" in err
    # q^(t^2) has more digits than str() converts
    rc, out, err = run(capsys, ["count", "--q", "2", "--t", "120"])
    assert rc == 2
    assert_one_error_line(out, err)
    assert "at least 2^14400 matrices" in err
    # refused from the exponent: building 3^(3000^2) alone takes seconds
    start = time.perf_counter()
    rc, out, err = run(capsys, ["count", "--q", "3", "--t", "3000"])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert_one_error_line(out, err)
    assert "at least 2^9000000 matrices" in err


def test_dual_refuses_before_building_the_dual(capsys, tmp_path,
                                               monkeypatch, example_code):
    def unreachable(code):
        raise AssertionError("dual built before the guard check")
    monkeypatch.setattr("hrmc.codes.dual_code", unreachable)
    path = write_json(tmp_path, {**example_code.to_jsonable(), "t": 30,
                                 "generators": []})
    rc, out, err = run(capsys, ["dual", "--input", path])
    assert rc == 2
    assert_one_error_line(out, err)
    assert "at least 2^900 dual codewords" in err
    # refused from the exponent: building 3^(3000^2) alone takes seconds
    path = write_json(tmp_path, {"field": {"p": 3, "m": 1,
                                           "modulus_poly": [1, 0, 1]},
                                 "t": 3000, "generators": []})
    start = time.perf_counter()
    rc, out, err = run(capsys, ["dual", "--input", path])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert_one_error_line(out, err)
    assert "at least 2^9000000 dual codewords" in err


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


# 2^61 - 1 is prime, so trial division would take 1.5e9 steps: a --q or a
# field p this large is refused before any of them
_PRIME_2_61 = 2 ** 61 - 1


def _large_prime_p(obj):
    return {**obj, "field": {**obj["field"], "p": _PRIME_2_61}}


def _small_prime_factors(n, _factors=negq.prime_factors):
    assert n < 2 ** 32, f"trial division of {n}"
    return _factors(n)


def _with(value, *path):
    """Put the value at the path of the code file."""
    def mutate(obj):
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return obj
    return mutate


# int() would read each of these as the integer of the example code, so
# the file loaded as that code: a float or a bool where an integer belongs
_DIGIT = ("generators", 0, "rows", 0, 0, 0)
NOT_INTS = {"TFLOAT": _with(3.7, "t"), "PFLOAT": _with(2.5, "field", "p"),
            "MFLOAT": _with(1.0, "field", "m"),
            "MODFLOAT": _with(1.0, "field", "modulus_poly", 2),
            "DIGITFLOAT": _with(1.5, *_DIGIT),
            "DIGITBOOL": _with(True, *_DIGIT),
            "GENTFLOAT": _with(3.2, "generators", 0, "t")}
FILES = {"CODE": lambda obj: obj, "NONHERM": _non_hermitian,
         "BADT": _generator_t_differs, "INFT": _infinite_t,
         "T0": _empty_with_t_0, "BIGP": _large_prime_p, **NOT_INTS}
_BIGQ = str(_PRIME_2_61)


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
    (["count", "--q", _BIGQ, "--t", "1"], None),
    (["eigen", "--q", _BIGQ, "--t", "1"], None),
    (["macwilliams", "--q", _BIGQ, "--t", "1", "--dist", "1,0", "--size",
      "1"], None),
    (["mhrd", "--q", _BIGQ, "--t", "1", "--d", "1"], None),
    (["verify", "--q", _BIGQ, "--t", "1"], None),
    (["wd", "--input", "BIGP"], None),
    (["dual", "--input", "BIGP"], None),
    *((["wd", "--input", name], None) for name in NOT_INTS),
])
def test_unusable_input_exits_2(capsys, monkeypatch, tmp_path, example_code,
                                argv, env):
    if env is not None:
        monkeypatch.setenv("HRMC_GUARD", env)
    argv = [write_json(tmp_path, FILES[a](example_code.to_jsonable()))
            if a in FILES else a for a in argv]
    monkeypatch.setattr("hrmc.negq.prime_factors", _small_prime_factors)
    monkeypatch.setattr("hrmc.fields.prime_factors", _small_prime_factors)
    start = time.perf_counter()
    rc, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert_one_error_line(out, err)


def test_count_refuses_a_prime_power_with_a_long_root(capsys, monkeypatch):
    """(2^61 - 1)^2 is found a square, and its root would take 1.5e9
    trial divisions: the one error: line is that estimate's refusal."""
    monkeypatch.setattr("hrmc.negq.prime_factors", _small_prime_factors)
    rc, out, err = run(capsys, ["count", "--q", str(_PRIME_2_61 ** 2),
                                "--t", "1"])
    assert rc == 2
    assert_one_error_line(out, err)
    assert err.startswith("error: 1518500248 trial divisions to test q for "
                          "a prime power exceed the enumeration guard")


@pytest.mark.parametrize("digit", [5, 2, -1, "-1", "7", 2 ** 70])
def test_wd_refuses_digits_outside_the_prime_field(capsys, tmp_path,
                                                   example_code, digit):
    """Over GF(4) the cells [5, 0] and [-1, 0] loaded as [1, 0], a code
    the file does not name, since Field.element takes digits mod p."""
    path = write_json(tmp_path,
                      _with(digit, *_DIGIT)(example_code.to_jsonable()))
    rc, out, err = run(capsys, ["wd", "--input", path])
    assert rc == 2
    assert_one_error_line(out, err)
    assert (f"generators[0].rows[0][0][0]: entry digit {shown(int(digit))} "
            "outside 0..1") in err


def test_wd_refuses_a_file_nested_too_deeply(capsys, tmp_path):
    """100 000 nested arrays made json.load raise RecursionError, which
    ended in a traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    rc, out, err = run(capsys, ["wd", "--input", str(path)])
    assert rc == 2
    assert_one_error_line(out, err)
    assert "cannot read code from" in err


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
@pytest.mark.parametrize("command", ["wd", "dual"])
def test_code_file_reading_stops_at_the_guard(command):
    """An endless input was read until memory ran out, ending in a
    MemoryError traceback; the reading now stops one character past the
    guard or DEFAULT_GUARD, whichever is larger, and refuses the file."""
    proc = subprocess.run(
        [sys.executable, "-m", "hrmc.cli", command, "--input", "/dev/zero",
         "--guard", "1000"], capture_output=True, text=True,
        env=_src_env(), timeout=60)
    assert proc.returncode == 2
    assert_one_error_line(proc.stdout, proc.stderr)
    assert proc.stderr == ("error: cannot read code from /dev/zero: "
                           f"{DEFAULT_GUARD + 1} characters of a code file "
                           f"exceed the enumeration guard {DEFAULT_GUARD}\n")


def test_a_refused_code_file_keeps_its_error_class(monkeypatch, tmp_path):
    """read_code names the file in a refusal but keeps the class it was
    raised with, so a library caller can catch it by name: a cell that is
    not the conjugate of its mirror is NotHermitian, and a file longer
    than the read bound is EnumerationTooLarge."""
    obj = dual_code(codes.LinearCode(make_field(2, 1), 2, [])).to_jsonable()
    rows = obj["generators"][0]["rows"]
    rows[0][1], rows[1][0] = [1, 0], [0, 1]
    path = write_json(tmp_path, obj)
    with pytest.raises(NotHermitian) as info:
        codefile.read_code(path)
    assert str(info.value) == (
        f"cannot read code from {path}: generators[0].rows[1][0]: not the "
        "conjugate of generators[0].rows[0][1]")
    monkeypatch.setattr(codefile, "DEFAULT_GUARD", 100)
    path = write_json(tmp_path, {"padding": " " * 100}, "long.json")
    with pytest.raises(EnumerationTooLarge) as info:
        codefile.read_code(path, 10)
    assert str(info.value) == (
        f"cannot read code from {path}: 101 characters of a code file "
        "exceed the enumeration guard 100")


@pytest.mark.parametrize("via_env", [False, True])
@pytest.mark.parametrize("command", ["wd", "dual"])
def test_code_file_reading_takes_a_guard_past_the_read_size(
        capsys, monkeypatch, tmp_path, example_code, command, via_env):
    """A guard of 2^63 or more, larger than a read size can be, reads
    the file as the default guard does."""
    path = write_code_file(tmp_path, example_code)
    rc, expected, _ = run(capsys, [command, "--input", path])
    assert rc == 0
    guard = ["--guard", str(2 ** 70)]
    if via_env:
        monkeypatch.setenv("HRMC_GUARD", str(2 ** 63))
        guard = []
    rc, out, err = run(capsys, [command, "--input", path, *guard])
    assert (rc, out, err) == (0, expected, "")


@pytest.mark.parametrize("limit", [None, 0])  # 0: no limit, as Python 3.10
@pytest.mark.parametrize("quote", ["", '"'])
@pytest.mark.parametrize("path", [("t",), _DIGIT])
def test_code_file_integers_past_the_digit_limit_name_their_path(
        capsys, tmp_path, example_code, path, quote, limit):
    """A 5000-digit JSON number printed json.load's own text, without its
    path, and the same digits as a string were called not a decimal
    integer. Either is now refused at its path, whatever Python's own
    int-conversion limit is, as converting it costs quadratic time."""
    obj = _with("LONG", *path)(example_code.to_jsonable())
    text = json.dumps(obj).replace('"LONG"', quote + "1" * 5000 + quote)
    file = tmp_path / "long.json"
    file.write_text(text)
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is not None and get_limit is not None:
        previous = get_limit()
        sys.set_int_max_str_digits(limit)
    try:
        rc, out, err = run(capsys, ["wd", "--input", str(file)])
    finally:
        if limit is not None and get_limit is not None:
            sys.set_int_max_str_digits(previous)
    assert rc == 2
    assert_one_error_line(out, err)
    assert err == (f"error: cannot read code from {file}: "
                   f"{_json_path(path)}: integer of 5000 characters, more "
                   "than 4300\n")


def _drop(*path):
    """Delete the key or entry at the path of the code file."""
    def mutate(obj):
        del _at(obj, path[:-1])[path[-1]]
        return obj
    return mutate


def _unknown_keys(obj):
    obj["note"] = obj["field"]["note"] = obj["generators"][0]["note"] = "x"
    return obj


_CELL = ("generators", 0, "rows", 0, 0)  # a diagonal cell, [1, 0]
_ROWS = ("generators", 0, "rows")
# (name, mutation of the example code, the JSON path its refusal names,
# or None where the mutant loads the example code by a documented rule)
_PROBES = [
    ("generators-object", _with({}, "generators"), "generators"),
    ("cell-object-0", _with({"0": 1}, *_CELL), "generators[0].rows[0][0]"),
    ("cell-object-1", _with({"1": 0}, *_CELL), "generators[0].rows[0][0]"),
    ("cell-string", _with("1", *_CELL), "generators[0].rows[0][0]"),
    ("cell-null", _with(None, *_CELL), "generators[0].rows[0][0]"),
    ("rows-object", lambda obj: _with(dict(zip("012", _at(obj, _ROWS))),
                                      *_ROWS)(obj), "generators[0].rows"),
    ("generator-without-t", _drop("generators", 0, "t"), "generators[0].t"),
    ("generator-t-differs", _with(2, "generators", 0, "t"),
     "generators[0].t"),
    ("modulus-digit-p", _with([3, 1, 1], "field", "modulus_poly"),
     "field.modulus_poly[0]"),
    ("modulus-digit-negative", _with([1, -1, 1], "field", "modulus_poly"),
     "field.modulus_poly[1]"),
    ("modulus-string", _with("111", "field", "modulus_poly"),
     "field.modulus_poly"),
    ("field-list", _with([2, 1, [1, 1, 1]], "field"), "field"),
    ("field-missing", _drop("field"), "field"),
    ("field-not-prime", _with(4, "field", "p"), "field"),
    ("t-string", _with("x", "t"), "t"),
    ("t-zero", _with(0, "t"), "t"),
    ("top-level-list", lambda obj: [obj], "top level"),
    ("generator-list", _with([], "generators", 0), "generators[0]"),
    ("rows-short", _drop(*_ROWS, 2), "generators[0].rows"),
    ("row-short", _drop(*_ROWS, 0, 2), "generators[0].rows[0]"),
    ("cell-long", _with([1, 0, 0], *_CELL), "generators[0].rows[0][0]"),
    ("digit-string", _with("x", *_DIGIT), "generators[0].rows[0][0][0]"),
    ("not-hermitian", _non_hermitian, "generators[0].rows[1][0]"),
    ("diagonal-outside-subfield", _with([0, 1], *_CELL),
     "generators[0].rows[0][0]"),
    ("digit-decimal-string", _with("1", *_DIGIT), None),
    ("t-decimal-string", _with("3", "t"), None),
    ("cell-short", _with([1], *_CELL), None),
    ("cell-empty", _with([], *_ROWS, 0, 2), None),
    ("unknown-keys", _unknown_keys, None),
]


@pytest.mark.parametrize("mutate,path", [
    pytest.param(mutate, path, id=name) for name, mutate, path in _PROBES])
def test_code_file_mutants_load_by_rule_or_name_their_path(
        capsys, tmp_path, example_code, mutate, path):
    """Before the reader checked each type, shape and digit, the object
    generators loaded as the zero code, the object cells loaded another
    code, a string cell loaded and the modulus digits were taken mod p;
    a null cell, rows written as an object and a generator without t
    printed Python's own error text. Each mutant now either loads the
    example code by a documented rule or makes wd exit 2 with one error
    line naming the JSON path of the bad value."""
    file = write_json(tmp_path, mutate(example_code.to_jsonable()))
    rc, out, err = run(capsys, ["wd", "--input", file])
    if path is None:
        assert rc == 0 and codefile.read_code(file) == example_code
    else:
        assert rc == 2
        assert_one_error_line(out, err)
        assert err.startswith(f"error: cannot read code from {file}: "
                              f"{path}: "), err


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
    assert_exits_0_or_2(argv)


def assert_exits_0_or_2(argv):
    """main(argv) exits 0, or exits 2 with one error line; run without
    capsys, which hypothesis does not reset between examples. Returns the
    exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2), (argv, err.getvalue())
    if rc == 2:
        assert_one_error_line(out.getvalue(), err.getvalue())
    return rc, err.getvalue()


def _kind_at(path):
    """The JSON type the code-file format names at a path: dict for an
    object, list, or int for an integer (an int or a decimal string)."""
    if path == ("field",) or path[0] == "generators" and len(path) == 2:
        return dict
    if path[-1] in ("modulus_poly", "generators", "rows"):
        return list
    if path[0] == "generators" and len(path) > 3:  # a row, cell or digit
        return (list, list, int)[len(path) - 4]
    return int


def _json_path(path):
    """A path as a refusal names it, for example generators[0].rows[1]."""
    return "".join(f"[{k}]" if type(k) is int else f".{k}"
                   for k in path)[1:]


_RESIZE = ("shorten", "lengthen")


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]),
       t=st.integers(1, 3), seed=st.integers(0, 2 ** 16),
       op=st.sampled_from(["replace", "drop", *_RESIZE]),
       pick=st.integers(0, 1000),
       junk=st.sampled_from([65537, -1, 1.5, True, None, "x", [0], {}]))
def test_code_files_round_trip_and_mutants_exit_0_or_2(
        scratch_dir, field, t, seed, op, pick, junk):
    """A random code's file loads to the code itself. The file with one
    value replaced by an out-of-range or negative int or a value of
    another type, one key or entry dropped, or one list shortened or
    lengthened by its last entry, makes ``wd`` exit 0 or exit 2 with one
    error line. A value of another JSON type than the format names there
    makes it exit 2, naming the value's path."""
    code = random_code(make_field(*field), t, random.Random(seed))
    obj = code.to_jsonable()
    assert codefile.read_code(write_json(scratch_dir, obj)) == code
    paths = list(_paths(obj))[1:]
    if op in _RESIZE:
        paths = [p for p in paths if isinstance(_at(obj, p), list)
                 and _at(obj, p)]
    path = paths[pick % len(paths)]
    parent = _at(obj, path[:-1])
    if op == "replace":
        parent[path[-1]] = junk
    elif op == "drop":
        del parent[path[-1]]
    else:
        value = parent[path[-1]]
        parent[path[-1]] = (value[:-1] if op == "shorten"
                            else value + value[-1:])
    file = write_json(scratch_dir, obj)
    rc, err = assert_exits_0_or_2(["wd", "--input", file])
    if op == "replace" and type(junk) is not _kind_at(path):
        assert rc == 2 and err.startswith(
            f"error: cannot read code from {file}: {_json_path(path)}: "
            "must be "), err


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


def test_eigen_exits_1_on_a_remainder_in_the_recurrence(capsys, monkeypatch):
    """A remainder in the recurrence table's exact division is a
    CheckFailed: exit 1 and one error line, never a truncated table."""
    monkeypatch.setattr(eigen, "divmod", lambda n, d: (n // d, 1),
                        raising=False)
    with pytest.raises(CheckFailed, match="remainder at x=0 k=1"):
        eigen.build_eigen_table_recurrence(NegQContext(2), 3)
    rc, out, err = run(capsys, ["eigen", "--q", "2", "--t", "3"])
    assert rc == 1
    assert_one_error_line(out, err)
    assert "eigen recurrence leaves a remainder" in err


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


def test_dual_exits_1_when_the_trace_system_loses_rank(capsys, tmp_path,
                                                       monkeypatch,
                                                       example_code):
    """Only the dual loses a dimension, in the reduction LinearCode makes
    of the rows dual_code builds: the code file reduces as usual."""
    path = write_code_file(tmp_path, example_code)
    rref = codes._rref

    def lossy_in_dual_code(field, rows):
        reduced, pivots = rref(field, rows)
        if sys._getframe(2).f_code is codes.dual_code.__code__:
            return reduced[:-1], pivots[:-1]
        return reduced, pivots

    monkeypatch.setattr(codes, "_rref", lossy_in_dual_code)
    rc, out, err = run(capsys, ["dual", "--input", path])
    assert rc == 1
    assert_one_error_line(out, err)
    assert "the dual has 5 dimensions, not t^2 - k = 6" in err


def test_wd_via_dual_needs_both_routes_to_agree(capsys, tmp_path,
                                                 monkeypatch, example_code):
    monkeypatch.setattr("hrmc.macwilliams.macwilliams_transform",
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
    emit({"n": BIG, "rows": [[BIG, -BIG]]}, fmt,
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


@pytest.mark.parametrize("payload", [
    {"n": BIG, "rows": [[BIG, -BIG], []], "ok": True, "none": None},
    {"z": [{"b": 1, "a": [2, (3, BIG)]}], "a": "text", "f": "1/2"},
    {},
])
def test_emit_json_equals_json_dumps(capsys, payload):
    """emit writes the JSON as it encodes it; the bytes are those of one
    json.dumps of the stringified payload, plus a newline."""
    emit(payload, "json", ())
    with _all_digits():
        want = json.dumps(cli._stringify(payload), sort_keys=True,
                          separators=(",", ":"))
    assert capsys.readouterr().out == want + "\n"


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_eigen_prints_entries_past_the_str_limit(capsys, monkeypatch, fmt):
    """eigen renders its table (to_jsonable and the table lines) with the
    limit lifted; before, q=2 t=120 ended in a ValueError traceback."""
    table = EigenTable(2, 1, ((1, BIG), (1, -BIG)))
    monkeypatch.setattr(eigen, "build_eigen_table_recurrence",
                        lambda ctx, t: table)
    monkeypatch.setattr(eigen, "build_eigen_table_C",
                        lambda ctx, t: table)
    before = _digit_limit()
    rc, out, err = run(capsys, ["eigen", "--q", "2", "--t", "1",
                                "--format", fmt])
    assert (rc, err) == (0, "")
    assert _str_big(-BIG) in out
    assert _digit_limit() == before


def _eigen_tables_differ_by_big(monkeypatch, tmp_path, example_code):
    monkeypatch.setattr(eigen, "build_eigen_table_recurrence",
                        lambda ctx, t: EigenTable(2, 1, ((1, BIG),
                                                         (1, -BIG))))
    monkeypatch.setattr(eigen, "build_eigen_table_C",
                        lambda ctx, t: EigenTable(2, 1, ((1, BIG + 1),
                                                         (1, -BIG))))
    return ["eigen", "--q", "2", "--t", "1"]


def _macwilliams_routes_differ_by_big(monkeypatch, tmp_path, example_code):
    monkeypatch.setattr("hrmc.macwilliams.macwilliams_transform",
                        lambda ctx, counts, size, t: (1, 3, 24, BIG))
    return ["macwilliams", "--q", "2", "--t", "3", "--dist", "1,0,3,4",
            "--size", "8"]


def _wd_routes_differ_by_big(monkeypatch, tmp_path, example_code):
    monkeypatch.setattr("hrmc.macwilliams.macwilliams_transform",
                        lambda ctx, counts, size, t: (1, 3, 24, -BIG))
    return ["wd", "--input", write_code_file(tmp_path,
                                             dual_code(example_code))]


def _mhrd_sum_is_big(monkeypatch, tmp_path, example_code):
    monkeypatch.setattr("hrmc.moments.gauss", lambda ctx, x, k: BIG)
    return ["mhrd", "--q", "2", "--t", "3", "--d", "3"]


@pytest.mark.parametrize("inject", [
    _eigen_tables_differ_by_big, _macwilliams_routes_differ_by_big,
    _wd_routes_differ_by_big, _mhrd_sum_is_big])
def test_failed_checks_name_values_past_the_str_limit(capsys, monkeypatch,
                                                      tmp_path, example_code,
                                                      inject):
    """A failed check whose message names an int of more than 4300
    digits is one error line and exit 1, not a ValueError traceback: the
    value is named by its power of two."""
    argv = inject(monkeypatch, tmp_path, example_code)
    rc, out, err = run(capsys, argv)
    assert rc == 1
    assert_one_error_line(out, err)
    assert re.search(r"at (least |most -)2\^\d+", err)


@pytest.mark.parametrize("total,workers,cpus,parts", [
    (10, 100000, 4, 4),      # capped by the CPUs this process may use
    (3, 8, 16, 3),           # capped by the number of indices
    (9, 2, 8, 2),            # as requested
    (65536, 2, None, 1),     # CPU count unknown
    (65536, 2, 1, 1),        # pinned to one CPU of the machine's 64
    (1, 1, 1, 1),
])
def test_index_ranges_cap(monkeypatch, one_word_per_process, total, workers,
                          cpus, parts):
    """cpus is the size of the affinity set; the machine has 64 CPUs, or
    an unknown number and no affinity call when cpus is None."""
    if cpus is None:
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: None)
    else:
        monkeypatch.setattr("os.sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 64)
    ranges = _index_ranges(total, workers)
    assert len(ranges) == parts
    assert ranges[0][0] == 0 and ranges[-1][1] == total
    assert all(lo < hi for lo, hi in ranges)
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))


def test_index_ranges_without_affinity(monkeypatch, one_word_per_process):
    """Where the affinity call is missing, the CPU count caps the ranges."""
    monkeypatch.delattr("os.sched_getaffinity", raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    assert _index_ranges(10, 100000) == [(0, 4), (4, 8), (8, 10)]


def _count_forks(monkeypatch):
    """Count os.fork calls in this process; each still forks."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()
    monkeypatch.setattr("os.fork", counting_fork)
    return forks


def test_tiny_enumerations_start_no_pool(capsys, monkeypatch, tmp_path,
                                        example_code):
    """Under the default MIN_WORDS_PER_PROCESS, a code too small to pay for
    a process of its own is counted in-process, with the one-worker bytes,
    and so are the 28 561 matrices of q=13, t=2, which the kernel ranks
    in about 1.5 ms; the 65536 matrices of q=2, t=4 still fork one
    child."""
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    words = workers.MIN_WORDS_PER_PROCESS
    assert len(_index_ranges(2 * words - 1, 2)) == 1
    assert len(_index_ranges(2 * words, 2)) == 2
    path = write_code_file(tmp_path, example_code)
    argv = ["wd", "--input", path, "--format", "json"]
    rc1, out1, _ = run(capsys, argv)
    forks = _count_forks(monkeypatch)
    rc2, out2, err2 = run(capsys, argv + ["--workers", "2"])
    assert (rc1, rc2, err2) == (0, 0, "")
    assert out2 == out1 and forks == []
    rc, out, _ = run(capsys, ["count", "--q", "13", "--t", "2", "--workers",
                              "2", "--format", "json"])
    assert rc == 0 and forks == [] and json.loads(out)["match"] is True
    rc, out, _ = run(capsys, ["count", "--q", "2", "--t", "4", "--workers",
                              "2", "--format", "json"])
    assert rc == 0 and forks == [1]
    assert json.loads(out)["match"] is True
    assert_no_child_left()


def test_workers_without_fork(capsys, monkeypatch, two_cpus):
    """Where os.fork is missing, --workers 2 counts in one range in this
    process and prints the one-worker bytes."""
    argv = ["count", "--q", "3", "--t", "2", "--format", "json"]
    rc1, out1, _ = run(capsys, argv)
    monkeypatch.delattr("os.fork")
    assert _index_ranges(81, 2) == [(0, 81)]
    rc2, out2, err2 = run(capsys, argv + ["--workers", "2"])
    assert (rc1, rc2, err2) == (0, 0, "")
    assert out2 == out1
    assert_no_child_left()


def _fail_in(monkeypatch, where, exc):
    """Make codes.rank_counts raise exc in every process (where="all"), or
    only in a forked child (where="child")."""
    parent = os.getpid()

    def failing(code, start, stop, guard=None):
        if where == "all" or os.getpid() != parent:
            raise exc
        return rank_counts(code, start, stop, guard)
    monkeypatch.setattr(codes, "rank_counts", failing)


@pytest.mark.parametrize("exc,rc", [
    (CheckFailed("ranks disagree in a child"), 1),
    (UsageError("a child refused its range"), 2),
])
def test_child_error_is_one_error_line(capsys, monkeypatch, two_cpus, exc,
                                       rc):
    """An error raised in a forked child reaches the CLI as the same class
    and message a one-worker run raises: one error line, the same exit
    code, and no child left behind."""
    argv = ["count", "--q", "2", "--t", "2"]
    _fail_in(monkeypatch, "all", exc)
    one = run(capsys, argv + ["--workers", "1"])
    _fail_in(monkeypatch, "child", exc)
    forks = _count_forks(monkeypatch)
    two = run(capsys, argv + ["--workers", "2"])
    assert forks == [1]
    assert two == one == (rc, "", f"error: {exc}\n")
    assert_no_child_left()


def test_child_killed_is_one_error_line(capsys, monkeypatch, two_cpus):
    """A child that dies without an answer gives one error line and exit 1
    (the failed check is that every range was counted). That holds for
    SIGTERM too: the child does not keep the handler main installs."""
    parent = os.getpid()
    for signum in (signal.SIGKILL, signal.SIGTERM):
        def killed(code, start, stop, guard=None, signum=signum):
            if os.getpid() != parent:
                os.kill(os.getpid(), signum)
            return rank_counts(code, start, stop, guard)
        monkeypatch.setattr(codes, "rank_counts", killed)
        rc, out, err = run(capsys, ["count", "--q", "2", "--t", "2",
                                    "--workers", "2"])
        assert rc == 1
        assert_one_error_line(out, err)
        assert f"ended by signal {int(signum)} and sent no counts" in err
        assert_no_child_left()


def test_interrupt_in_parent_kills_child(capsys, monkeypatch, two_cpus):
    """A KeyboardInterrupt in the parent's own range kills and reaps the
    child, which would otherwise sleep for a minute, and main ends with
    one error: line and exit code 130."""
    parent = os.getpid()

    def interrupted(code, start, stop, guard=None):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt
    monkeypatch.setattr(codes, "rank_counts", interrupted)
    forks = _count_forks(monkeypatch)
    began = time.monotonic()
    assert main(["count", "--q", "2", "--t", "2", "--workers", "2"]) == 130
    assert forks == [1] and time.monotonic() - began < 30
    out, err = capsys.readouterr()
    assert_one_error_line(out, err)
    assert err == "error: interrupted\n"
    assert_no_child_left()


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


@pytest.mark.parametrize("phi", ["99", "-1"])
def test_dual_refuses_phi_before_counting(capsys, monkeypatch, tmp_path,
                                          example_code, phi):
    """A --phi outside 0..t is refused before either side is counted:
    with counting made to fail, the one error: line is still phi's."""
    def counting(*args, **kwargs):
        raise AssertionError("a side was counted")

    monkeypatch.setattr(codes, "weight_distribution", counting)
    path = write_code_file(tmp_path, example_code)
    rc, out, err = run(capsys, ["dual", "--input", path, "--phi", phi])
    assert rc == 2
    assert out == ""
    assert err == f"error: need 0 <= phi <= t, got phi={phi} t=3\n"


# Closed-form commands at q=2, t=5: what computes their output, the
# payload key holding it, and its estimate: q^25 has at most
# 25*20/64 + 1 = 8 digits (2^64 has 20), times (t+1)^2 eigenvalues or t+1
# counts.
_CLOSED_FORMS = [
    (["eigen", "--q", "2", "--t", "5"], "build_eigen_table_recurrence", "rows",
     36 * 8),
    (["macwilliams", "--q", "2", "--t", "5", "--dist", "1,0,0,0,0,0",
      "--size", "1"], "macwilliams_eigen", "dual", 6 * 8),
    (["mhrd", "--q", "2", "--t", "5", "--d", "3"], "mhrd_distribution",
     "counts", 6 * 8),
    # q^64 = 2^14336 has 4316 digits, more than str() converts
    (["eigen", "--q", str(2 ** 224), "--t", "1"],
     "build_eigen_table_recurrence", "rows", 4 * 68),
]


# The module that defines each function the closed-form commands compute by.
_MODULE_OF = {"build_eigen_table_recurrence": "eigen",
              "macwilliams_eigen": "macwilliams",
              "macwilliams_transform": "macwilliams",
              "mhrd_distribution": "moments"}


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
    monkeypatch.setattr(f"hrmc.{_MODULE_OF[compute]}.{compute}", unreachable)
    rc, out, err = run(capsys, argv + ["--guard", str(estimate - 1)])
    assert rc == 2
    assert_one_error_line(out, err)
    assert f"{estimate} estimated output digits" in err
    monkeypatch.setenv("HRMC_GUARD", "10")
    rc, out, err = run(capsys, argv)
    assert rc == 2
    assert_one_error_line(out, err)


# Closed-form commands whose big-int work is estimated as values as long
# as q^(t^2), in 30-bit words: what computes it, the estimate and its
# name. At q=2, t=10, q^100 has at most 100*65/64 + 1 = 102 bits, 4
# words. macwilliams estimates (t+1)^2 = 121 values, 484 words, and mhrd
# at d=3 sums (t-d+2)(t+1) = 99 values, 396 words; both are above the
# 11 * 32 = 352 estimated output digits.
_CLOSED_FORM_WORK = [
    (["macwilliams", "--q", "2", "--t", "10", "--dist", "1" + ",0" * 10,
      "--size", "1"], ("macwilliams_eigen", "macwilliams_transform"), 484,
     "estimated big-int words of (t+1)^2 closed-form values"),
    (["mhrd", "--q", "2", "--t", "10", "--d", "3"], ("mhrd_distribution",),
     396, "estimated words summed by the closed form"),
]


def _unreachable(*args):
    raise AssertionError("computed before the guard check")


@pytest.mark.parametrize("argv,computes,estimate,what", _CLOSED_FORM_WORK)
def test_closed_forms_refuse_work_over_the_guard(capsys, monkeypatch, argv,
                                                 computes, estimate, what):
    """Refused one below the estimate, before any product is built, and
    accepted at it."""
    rc, out, _ = run(capsys, argv + ["--guard", str(estimate),
                                     "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    if argv[0] == "macwilliams":  # the zero code's dual is the whole space
        assert payload["dual"] == [
            str(c) for c in full_space_distribution(NegQContext(2), 10)]
    else:  # a maximal code of distance 3 has q^(t(t-2)) words
        assert sum(map(int, payload["counts"])) == 2 ** 80

    for name in computes:
        monkeypatch.setattr(f"hrmc.{_MODULE_OF[name]}.{name}", _unreachable)
    monkeypatch.setattr("hrmc.polynomials.negq_product", _unreachable)
    monkeypatch.setattr("hrmc.negq._gauss_row", _unreachable)
    monkeypatch.setattr("hrmc.negq._gamma_row", _unreachable)
    rc, out, err = run(capsys, argv + ["--guard", str(estimate - 1)])
    assert rc == 2
    assert_one_error_line(out, err)
    assert f"{estimate} {what}" in err


def test_macwilliams_refuses_transforms_over_the_guard(capsys, monkeypatch):
    """The default guard refuses q=2, t=160 and accepts the bench's q=3,
    t=40; at q=2, t=148 is the largest t it accepts."""
    monkeypatch.delenv("HRMC_GUARD", raising=False)
    what = "estimated big-int words of (t+1)^2 closed-form values"
    rc, out, err = run(capsys, ["macwilliams", "--q", "2", "--t", "160",
                                "--dist", "1" + ",0" * 160, "--size", "1"])
    assert rc == 2
    assert_one_error_line(out, err)
    assert what in err
    check_guard(value_words(3, 40, 41 ** 2), what, DEFAULT_GUARD)
    check_guard(value_words(2, 148, 149 ** 2), what, DEFAULT_GUARD)
    with pytest.raises(EnumerationTooLarge):
        check_guard(value_words(2, 149, 150 ** 2), what, DEFAULT_GUARD)


def test_mhrd_refuses_sums_over_the_default_guard(capsys, monkeypatch):
    """At d=1 mhrd estimates the transform's (t+1)^2 values, so q=2
    accepts t up to 148 as macwilliams does. Runs that took 14 s to over
    300 s are refused at once; t=300, d=299 still runs."""
    monkeypatch.delenv("HRMC_GUARD", raising=False)
    rc, out, _ = run(capsys, ["mhrd", "--q", "2", "--t", "300", "--d", "299",
                              "--format", "json"])
    assert rc == 0
    assert sum(map(int, json.loads(out)["counts"])) == 2 ** 600
    monkeypatch.setattr("hrmc.moments.mhrd_distribution",
                        lambda ctx, t, d, dual_size: (1,) + (0,) * t)
    for q, t, d in [(2, 148, 1), (3, 40, 5)]:
        rc, out, _ = run(capsys, ["mhrd", "--q", str(q), "--t", str(t),
                                  "--d", str(d)])
        assert rc == 0
    monkeypatch.setattr("hrmc.moments.mhrd_distribution", _unreachable)
    for q, t, d in [(2, 149, 1), (2, 300, 1), (2, 376, 319), (2, 250, 151),
                    (2147483647, 121, 1)]:
        start = time.perf_counter()
        rc, out, err = run(capsys, ["mhrd", "--q", str(q), "--t", str(t),
                                    "--d", str(d)])
        assert time.perf_counter() - start < 1.0
        assert rc == 2
        assert_one_error_line(out, err)
        assert "estimated words summed by the closed form" in err


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


def test_macwilliams_dual_with_a_fraction_is_a_usage_error(capsys):
    """Counts that pass the input checks but have a dual that is not whole
    are no code's distribution: one error: line naming the dual count, and
    exit 2."""
    rc, out, err = run(capsys, ["macwilliams", "--q", "2", "--t", "1",
                                "--dist", "1,2", "--size", "3"])
    assert (rc, out) == (2, "")
    assert err == ("error: --dist 1,2 with --size 3 is not the distribution "
                   "of a code (dual count 1 came out -1/3)\n")


def test_macwilliams_table(capsys):
    """The zero code's dual at q=2, t=2 is the whole space's census."""
    rc, out, _ = run(capsys, ["macwilliams", "--q", "2", "--t", "2",
                              "--dist", "1,0,0", "--size", "1"])
    assert rc == 0
    assert out == ("dual distribution, q=2 t=2 |C|=1\n"
                   "  [1, 5, 10] (both routes agree)\n")


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
    for name in ("hrmc.macwilliams.macwilliams_eigen",
                 "hrmc.macwilliams.macwilliams_transform"):
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


def test_verify_refuses_before_drawing_a_code(capsys, monkeypatch):
    """A code or its dual has at least q^ceil(t^2/2) words, so above the
    guard every sample would be refused."""
    def unreachable(field, t, rng):
        raise AssertionError("a code was drawn")
    monkeypatch.setattr("hrmc.verify.random_code", unreachable)
    for argv, shown in [(["--t", "12"], "at least 2^72 codewords"),
                        (["--t", "2", "--guard", "3"], "4 codewords")]:
        rc, out, err = run(capsys, ["verify", "--q", "2", "--trials", "1",
                                    *argv])
        assert rc == 2
        assert_one_error_line(out, err)
        assert f"{shown} exceed the enumeration guard" in err


def test_verify_refuses_more_sampled_words_than_the_guard(capsys,
                                                        monkeypatch):
    """trials x q^ceil(t^2/2) words are counted before a code is drawn; a
    billion trials at q=2, t=2 ran until killed."""
    def unreachable(field, t, rng):
        raise AssertionError("a code was drawn")
    monkeypatch.setattr("hrmc.verify.random_code", unreachable)
    start = time.perf_counter()
    rc, out, err = run(capsys, ["verify", "--q", "2", "--t", "2",
                                "--trials", "1000000000"])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert_one_error_line(out, err)
    assert "4000000000 sampled codewords exceed the enumeration guard" in err


def test_verify_refuses_the_exact_sampled_words_before_counting(
        capsys, monkeypatch):
    """Every sample and its dual are drawn first, and their exact sizes
    summed and refused before any is enumerated: with a guard between the
    lower bound, trials x q^ceil(t^2/2), and that sum, nothing is counted.
    At q=251, t=2 verify refused only after 9.3 s of counting. A guard of
    exactly the sum runs, with the bytes of a run under the default."""
    q, t, trials, seed = 2, 2, 3, 0
    field = make_field(2, 1)
    total = 0
    for i in range(trials):
        code = random_code(field, t, random.Random(f"{seed}:{q}:{t}:{i}"))
        total += code.size + dual_code(code).size
    assert trials * q ** ((t * t + 1) // 2) < total - 1
    argv = ["verify", "--q", str(q), "--t", str(t), "--trials", str(trials),
            "--seed", str(seed), "--format", "json"]
    rc, want, _ = run(capsys, argv)
    assert rc == 0

    def unreachable(*args):
        raise AssertionError("a word was counted")

    with monkeypatch.context() as patch:
        patch.setattr("hrmc.codes.rank_counts", unreachable)
        rc, out, err = run(capsys, argv + ["--guard", str(total - 1)])
    assert rc == 2
    assert_one_error_line(out, err)
    assert (f"{total} sampled codewords exceed the enumeration guard "
            f"{total - 1}") in err
    rc, out, _ = run(capsys, argv + ["--guard", str(total)])
    assert rc == 0 and out == want


def test_verify_refuses_a_full_space_row_over_the_guard(capsys, monkeypatch):
    """The mhrd suite's full-space row is estimated as mhrd at d=1 is, and
    refused before any suite runs; at t=300 it took 2.8 s."""
    monkeypatch.delenv("HRMC_GUARD", raising=False)
    monkeypatch.setattr("hrmc.verify.suite_gaussian", _unreachable)
    monkeypatch.setattr("hrmc.verify.mhrd_distribution", _unreachable)
    start = time.perf_counter()
    rc, out, err = run(capsys, ["verify", "--q", "2", "--t", "300",
                                "--trials", "0"])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert_one_error_line(out, err)
    assert "estimated words summed by the closed form" in err


def test_verify_takes_no_workers_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--q", "2", "--t", "2", "--workers", "2"])
    assert info.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_verify_leibniz_weights_stay_exact(capsys):
    """The q-rule weight b^((phi - l)(r_f - l)) has a negative exponent
    when l > r_f; as a float it made leibniz fail twice at q=251."""
    rc, out, _ = run(capsys, ["verify", "--q", "251", "--t", "1",
                              "--trials", "5", "--seed", "0",
                              "--format", "json"])
    assert rc == 0
    suites = {s["name"]: s for s in json.loads(out)["suites"]}
    assert (suites["leibniz"]["passed"], suites["leibniz"]["failed"]) \
        == ("50", "0")


def test_verify_table_lines(capsys):
    rc, out, _ = run(capsys, ["verify", "--q", "2", "--t", "2",
                              "--trials", "5", "--seed", "1"])
    assert rc == 0
    assert "ALL SUITES PASSED" in out
    assert len([ln for ln in out.splitlines() if " passed " in ln]) == 12


def test_verify_table_lists_a_failing_suites_labels(capsys, monkeypatch):
    """A failing suite's line ends in FAIL and its labels follow it,
    indented; the table ends with SUITE FAILURES, and verify exits 1."""
    def failing(ctx):
        res = SuiteResult("gaussian-identities")
        res.check(True, "fine")
        res.check(False, "first label")
        res.check(False, "second label")
        return res

    monkeypatch.setattr("hrmc.verify.suite_gaussian", failing)
    rc, out, _ = run(capsys, ["verify", "--q", "2", "--t", "2",
                              "--trials", "1"])
    assert rc == 1
    lines = out.splitlines()
    at = next(n for n, ln in enumerate(lines)
              if ln.startswith("gaussian-identities "))
    assert lines[at].split()[1:] == ["1", "passed", "2", "failed", "FAIL"]
    assert lines[at + 1:at + 3] == ["    first label", "    second label"]
    assert not lines[at + 3].startswith(" ")
    assert lines[-1] == "SUITE FAILURES"


# Standard modules no command needs (a wd that counts the code itself
# needs no fractions either); each is reported when loaded.
_WATCHED = ("dataclasses", "fractions", "multiprocessing")

# Runs hrmc.cli.main on each argv list in a fresh interpreter and reports
# the hrmc and watched modules it loaded; "1" as the second argument does
# in-process what the two_cpus fixture does.
_IMPORT_PROBE = """
import contextlib, io, json, os, sys
before = set(sys.modules)
from hrmc import cli
if sys.argv[2] == "1":
    from hrmc import workers
    os.sched_getaffinity = lambda pid: {0, 1}
    workers.MIN_WORDS_PER_PROCESS = 1
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"rc": codes, "loaded": sorted(
    m for m in set(sys.modules) - before
    if m.startswith("hrmc") or m in %r)}))
""" % (_WATCHED,)


def _src_env():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path
                                              else ""))


def _modules_loaded_by(argvs, two_cpus=False):
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs),
         "1" if two_cpus else "0"],
        capture_output=True, text=True, env=_src_env(), timeout=120,
        check=True)
    report = json.loads(proc.stdout)
    assert report["rc"] == [0] * len(argvs)
    return set(report["loaded"])


# Loaded through PYTHONPATH at start-up as sitecustomize: at exit, writes
# the hrmc and watched modules of sys.modules to stderr as its last line.
_EXIT_PROBE = """
import atexit, sys

def report():
    loaded = sorted(m for m in sys.modules
                    if m.startswith("hrmc") or m in %r)
    sys.stderr.write(" ".join(loaded) + "\\n")

atexit.register(report)
""" % (_WATCHED,)


def _modules_at_exit(tmp_path, args):
    """The hrmc and watched modules loaded when ``python args...`` exits,
    by its own interpreter: the entry that users and the benchmark run."""
    probe = tmp_path / "probe"
    probe.mkdir(exist_ok=True)
    (probe / "sitecustomize.py").write_text(_EXIT_PROBE)
    env = _src_env()
    env["PYTHONPATH"] = os.pathsep.join([str(probe), env["PYTHONPATH"]])
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-400:]
    return set(proc.stderr.splitlines()[-1].split())


# The hrmc modules each command loads beyond hrmc, hrmc.cli, its own
# hrmc.cmd_<name>, hrmc.cost and hrmc.errors.
_FIELD = {"hrmc._value", "hrmc.fields"}
_ENUMERATION = _FIELD | {"hrmc.codes"}
_NEGQ = {"hrmc._value", "hrmc.negq"}
_TRANSFORM = _NEGQ | {"fractions", "hrmc.macwilliams", "hrmc.polynomials"}
_CODE_FILE = _ENUMERATION | {"hrmc.codefile"}


def test_each_command_loads_only_what_it_runs(tmp_path, example_code):
    """Start-up is most of a small command's time, and without a bytecode
    cache most of start-up is compiling, so each command loads only the
    modules on its route: the enumeration layers (fields, codes) and the
    forked counting (workers) where it counts words, the code-file reader
    (codefile) only in wd and dual, which read a file, the eigenvalue
    tables for eigen, the moments for mhrd and dual, the two MacWilliams
    routes and the polynomial algebra where it transforms, and the
    calculus and the suites for verify. Only the commands that hold a
    value that is not whole load fractions: count, eigen, mhrd and a wd
    that counts the code itself do not, and that wd loads no negq
    either. No command builds a matrix object, since a code file is read
    straight to coordinates, so none loads hermitian; and none loads
    dataclasses, multiprocessing or the object route of hermitian_space.
    The same holds through ``python -m hrmc.cli``, where the module is
    __main__ and no command module imports hrmc.cli again; and for the
    benchmark's set-up, which imports hrmc.cli and builds fields."""
    code = write_code_file(tmp_path, example_code)
    dual = write_code_file(tmp_path, dual_code(example_code), "dual.json")
    cases = [
        (["count", "--q", "2", "--t", "2"],
         _ENUMERATION | _NEGQ | {"hrmc.workers"}),
        (["wd", "--input", code],  # the smaller side: the code itself
         _CODE_FILE | {"hrmc.workers"}),
        (["eigen", "--q", "2", "--t", "3"], _NEGQ | {"hrmc.eigen"}),
        (["mhrd", "--q", "2", "--t", "3", "--d", "3"],
         _NEGQ | {"hrmc.moments"}),
        (["macwilliams", "--q", "2", "--t", "3", "--dist", "1,0,3,4",
          "--size", "8"], _TRANSFORM),
        (["wd", "--input", dual, "--workers", "2"],
         _CODE_FILE | _TRANSFORM | {"hrmc.workers"}),
        (["dual", "--input", code],
         _CODE_FILE | _TRANSFORM | {"hrmc.moments"}),
        (["verify", "--q", "2", "--t", "2", "--trials", "2"],
         _ENUMERATION | _TRANSFORM | {"hrmc.moments", "hrmc.eigen",
                                      "hrmc.calculus", "hrmc.verify"}),
    ]
    for argv, loaded in cases:
        base = {"hrmc", "hrmc.cost", "hrmc.errors", f"hrmc.cmd_{argv[0]}"}
        assert _modules_loaded_by([argv]) == base | {"hrmc.cli"} | loaded, argv
        assert _modules_at_exit(tmp_path, ["-m", "hrmc.cli", *argv]) \
            == base | loaded, argv
    assert _modules_loaded_by(
        [["count", "--q", "2", "--t", "4", "--workers", "2"]],
        two_cpus=True) == {"hrmc", "hrmc.cli", "hrmc.cost", "hrmc.errors",
                           "hrmc.cmd_count", "hrmc.workers"} \
        | _ENUMERATION | _NEGQ
    setup = ("import hrmc.cli\nfrom hrmc.fields import make_field\n"
             "make_field(2, 1).subfield_indices()\n")
    assert _modules_at_exit(tmp_path, ["-c", setup]) == {
        "hrmc", "hrmc.cli", "hrmc.cost", "hrmc.errors"} | _FIELD


def test_a_reader_that_closes_the_pipe_early_ends_the_run_quietly():
    """A reader that stops after 20 bytes of an output larger than any
    pipe buffer ends the run with exit 1 and nothing on stderr; so does a
    pipe with no reader, where a small output fails only when flushed."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "hrmc.cli", "eigen", "--q", "2", "--t", "60"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env())
    assert proc.stdout.read(20) == b"eigenvalue table, q="
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, b"")

    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hrmc.cli", "count", "--q", "2", "--t",
             "2"], stdout=write, stderr=subprocess.PIPE,
            env=_buffered_env(), timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


# Runs hrmc.cli.main on argv in a fresh interpreter, as the two_cpus
# fixture would: --workers 2 forks one child on any host with os.fork.
# The parent prints the child's pid when it forks. Python's SIGINT handler
# is put back, since a shell that starts jobs in the background leaves
# SIGINT ignored in them.
_SIGNAL_DRIVER = """
import os, signal, sys
from hrmc import cli
signal.signal(signal.SIGINT, signal.default_int_handler)
os.sched_getaffinity = lambda pid: {0, 1}
fork = os.fork

def announced_fork():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid

os.fork = announced_fork
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
@pytest.mark.parametrize("signum, code, message", [
    (signal.SIGINT, 130, "interrupted"), (signal.SIGTERM, 143, "terminated")])
def test_a_signal_ends_a_forked_count_with_one_line(signum, code, message):
    """SIGINT or SIGTERM to the parent of a two-process count, which would
    run for seconds, ends it with exit 130 or 143 and one error: line, and
    its forked child is killed and reaped: no process with the child's pid
    is left once the parent has exited."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _SIGNAL_DRIVER, "count", "--q", "2", "--t",
         "6", "--guard", "100000000000", "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_src_env())
    child = None
    try:
        child = int(proc.stdout.readline())
        time.sleep(0.5)  # both processes are counting
        proc.send_signal(signum)
        assert proc.wait(timeout=60) == code
        with pytest.raises(ProcessLookupError):
            os.kill(child, 0)
        assert proc.communicate(timeout=60) == ("", f"error: {message}\n")
    finally:
        for pid in (proc.pid, child):
            if pid is not None:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        proc.wait()


@pytest.mark.skipif(not hasattr(os, "waitid"), reason="no os.waitid")
def test_a_killed_child_ends_the_count_while_the_parent_counts():
    """SIGKILL to the forked child of a two-process count, which would run
    for seconds, ends the parent with exit 1 and one error: line within
    5 s, before it has counted its own range, and no process is left."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _SIGNAL_DRIVER, "count", "--q", "2", "--t",
         "6", "--guard", "100000000000", "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_src_env())
    child = None
    try:
        child = int(proc.stdout.readline())
        time.sleep(0.5)  # both processes are counting
        os.kill(child, signal.SIGKILL)
        start = time.perf_counter()
        assert proc.wait(timeout=60) == 1
        assert time.perf_counter() - start < 5
        with pytest.raises(ProcessLookupError):
            os.kill(child, 0)
        assert proc.communicate(timeout=60) == (
            "", f"error: --workers process {child} ended by signal 9 and "
            "sent no counts\n")
    finally:
        for pid in (proc.pid, child):
            if pid is not None:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        proc.wait()


def test_main_restores_the_callers_sigterm_handler(capsys):
    """main handles SIGTERM only while it runs: after a run that succeeds
    and one that is refused, the caller's handler is back."""
    def mine(signum, frame):
        pass

    previous = signal.signal(signal.SIGTERM, mine)
    try:
        assert main(["eigen", "--q", "2", "--t", "1"]) == 0
        assert main(["eigen", "--q", "6", "--t", "1"]) == 2
        assert signal.getsignal(signal.SIGTERM) is mine
    finally:
        signal.signal(signal.SIGTERM, previous)


def _buffered_env():
    """_src_env with stdout block-buffered, as it is by default, so that
    a small output is written only when flushed."""
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_a_full_device_is_one_error_line(fmt):
    """Output that cannot be written is one error: line and exit 1, with
    no traceback from the write or from the interpreter's final flush."""
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "hrmc.cli", "count", "--q", "2", "--t",
             "4", "--format", fmt],
            stdout=full, stderr=subprocess.PIPE, text=True,
            env=_buffered_env(), timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == ("error: cannot write the output: "
                           "No space left on device\n")

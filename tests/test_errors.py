"""The error taxonomy: two bases under HrmcError decide every exit code."""

import ast
import builtins
from pathlib import Path

import hrmc
from hrmc import errors
from hrmc.errors import CheckFailed, HrmcError, UsageError

SRC = Path(hrmc.__file__).parent


def test_two_bases():
    assert set(HrmcError.__subclasses__()) == {UsageError, CheckFailed}
    assert issubclass(UsageError, ValueError)
    assert not issubclass(CheckFailed, ValueError)


def test_every_exported_error_has_one_base():
    exported = [obj for obj in (getattr(hrmc, n) for n in dir(hrmc))
                if isinstance(obj, type) and issubclass(obj, BaseException)
                and obj not in (HrmcError, UsageError, CheckFailed)]
    assert len(exported) == 16
    for cls in exported:
        assert issubclass(cls, UsageError) != issubclass(cls, CheckFailed), cls


def _raised_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield node.lineno, exc.id


def test_library_raises_only_hrmc_errors():
    """Every deliberate raise names an HrmcError; AssertionError is left
    for internal invariants."""
    seen = 0
    for path in sorted(SRC.glob("*.py")):
        for line, name in _raised_names(ast.parse(path.read_text())):
            cls = getattr(errors, name, None) or getattr(builtins, name, None)
            assert cls is AssertionError or (
                isinstance(cls, type) and issubclass(cls, HrmcError)), \
                f"{path.name}:{line} raises {name}"
            seen += 1
    assert seen > 50


def test_refusal_policy_lives_in_cost():
    """Only cost.py reads HRMC_GUARD or refuses work above the guard;
    every other module calls it."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        keys = {node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant)}
        raised = {name for _, name in _raised_names(tree)}
        owner = path.name == "cost.py"
        assert ("HRMC_GUARD" in keys) == owner, path.name
        assert ("EnumerationTooLarge" in raised) == owner, path.name
    hermitian = ast.parse((SRC / "hermitian.py").read_text())
    assert not any(alias.name == "os" for node in ast.walk(hermitian)
                   if isinstance(node, ast.Import) for alias in node.names)

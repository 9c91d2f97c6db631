"""The package's value classes: construction, validation, equality,
hashing and pickling, as callers rely on."""

import pickle

import pytest

from hrmc.codes import LinearCode, WeightDistribution
from hrmc.errors import ContextMismatch, DimensionMismatch, UsageError
from hrmc.fields import FieldElement
from hrmc.hermitian import HermitianMatrix
from hrmc.calculus import poly_add
from hrmc.eigen import EigenTable
from hrmc.negq import NegQContext
from hrmc.polynomials import ConcretePoly, LambdaPoly
from hrmc.verify import CodeSample, SuiteResult


def _grid(field, rows):
    return tuple(tuple(field.from_index(x) for x in r) for r in rows)


@pytest.fixture
def values(fields, example_code):
    """name -> (class, positional arguments, keyword names, a variant of
    the arguments that differs in one field)."""
    f4, f9 = fields[2], fields[3]
    rows = _grid(f4, [[1, 2], [3, 0]])
    ctx = NegQContext(2)
    return {
        "FieldElement": (FieldElement, (f4, 2), ("field", "index"),
                         (f4, 3)),
        "HermitianMatrix": (HermitianMatrix, (f4, 2, rows),
                            ("field", "t", "entries"),
                            (f4, 2, _grid(f4, [[1, 2], [3, 1]]))),
        "LinearCode": (LinearCode, (example_code.field, 3,
                                    example_code.basis),
                       ("field", "t", "basis"),
                       (example_code.field, 3, example_code.basis[:2])),
        "WeightDistribution": (WeightDistribution, (2, 3, 3, (1, 0, 3, 4)),
                               ("q", "t", "k", "counts"),
                               (2, 3, 3, (1, 0, 4, 3))),
        "EigenTable": (EigenTable, (2, 1, ((1, 3), (1, -1))),
                       ("q", "t", "values"), (3, 1, ((1, 3), (1, -1)))),
        "NegQContext": (NegQContext, (9,), ("q",), (3,)),
        "ConcretePoly": (ConcretePoly, (ctx, 1, (1, -3)),
                         ("ctx", "degree", "coefficients"),
                         (NegQContext(3), 1, (1, -3))),
        "SuiteResult": (SuiteResult, ("leibniz", 3, 1, ["q-rule"]),
                        ("name", "passed", "failed", "failures"),
                        ("leibniz", 3, 1, [])),
        "CodeSample": (CodeSample, (example_code, (1, 0, 3, 4),
                                    example_code, (1, 0, 3, 4)),
                       ("code", "counts", "dual", "dual_counts"),
                       (example_code, (1, 0, 3, 4), example_code,
                        (1, 0, 4, 3))),
        "f9": f9,
    }


_VALUE_CLASSES = ["FieldElement", "HermitianMatrix", "LinearCode",
                  "WeightDistribution", "EigenTable", "NegQContext",
                  "ConcretePoly", "SuiteResult", "CodeSample"]
_MUTABLE = {"SuiteResult", "CodeSample"}


@pytest.mark.parametrize("name", _VALUE_CLASSES)
def test_keyword_and_positional_construction_agree(values, name):
    cls, args, names, _ = values[name]
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    mixed = cls(args[0], **dict(zip(names[1:], args[1:])))
    for obj in (by_position, by_keyword, mixed):
        assert [getattr(obj, n) for n in names] == list(args)
    assert by_position == by_keyword == mixed


@pytest.mark.parametrize("name", _VALUE_CLASSES)
def test_equality_and_hash_follow_the_values(values, name):
    cls, args, _, variant = values[name]
    a, b, other = cls(*args), cls(*args), cls(*variant)
    assert a is not b and a == b and not a != b
    assert a != other and not a == other
    assert a != args and a != object()
    if name in _MUTABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(tuple(args))
        assert len({a, b, other}) == 2


def test_lambda_polys_are_equal_only_to_themselves():
    ctx = NegQContext(3)
    coeff = lambda i, lam: 1  # noqa: E731
    a = LambdaPoly(ctx, 2, coeff)
    b = LambdaPoly(ctx=ctx, degree=2, coeff=coeff)
    assert (a.ctx, a.degree, a.coeff) == (b.ctx, b.degree, b.coeff)
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b, a}) == 2


def test_defaults():
    first, second = SuiteResult("a"), SuiteResult("a")
    assert (first.passed, first.failed, first.failures) == (0, 0, [])
    first.check(False, "x")
    assert first.failures == ["x"] and second.failures == []


def test_validation_keeps_its_classes_messages_and_order(values):
    f4, f9 = values["FieldElement"][1][0], values["f9"]
    cases = [
        # several faults at once: the first check listed still decides
        (lambda: WeightDistribution(2, 3, 3, (0, 1)), UsageError,
         "need one count per rank 0..t"),
        (lambda: WeightDistribution(2, 1, 1, (0, 5)), UsageError,
         "the zero word is always present"),
        (lambda: WeightDistribution(2, 1, 1, (1, 2)), UsageError,
         "counts must sum to the code size"),
        (lambda: HermitianMatrix(f4, 0, ((1,),)), UsageError,
         "matrix size must be positive, got t=0"),
        (lambda: HermitianMatrix(f4, 2, _grid(f9, [[1, 2, 0], [1, 2, 0]])),
         UsageError, "entries must form a t x t grid"),
        (lambda: HermitianMatrix(f4, 2, _grid(f9, [[1, 2], [1, 2]])),
         DimensionMismatch, "entry from a different field"),
        (lambda: NegQContext(6), UsageError,
         "q must be a prime power >= 2, got 6"),
        (lambda: NegQContext(q=1), UsageError,
         "q must be a prime power >= 2, got 1"),
        (lambda: ConcretePoly(NegQContext(2), 2, (1, 2)), UsageError,
         "need degree+1 coefficients"),
    ]
    for build, cls, message in cases:
        with pytest.raises(cls) as info:
            build()
        assert type(info.value) is cls and str(info.value) == message


def test_mixed_contexts_are_named_in_the_error():
    one = LambdaPoly(NegQContext(2), 0, lambda i, lam: 1)
    other = LambdaPoly(NegQContext(3), 0, lambda i, lam: 1)
    with pytest.raises(ContextMismatch) as info:
        poly_add(one, other)
    assert str(info.value) == \
        "mixed parameters NegQContext(q=2) and NegQContext(q=3)"


@pytest.mark.parametrize("name", ["LinearCode", "WeightDistribution",
                                  "FieldElement", "HermitianMatrix"])
@pytest.mark.parametrize("protocol", [pickle.DEFAULT_PROTOCOL,
                                      pickle.HIGHEST_PROTOCOL])
def test_pickle_round_trip(values, name, protocol):
    cls, args, names, _ = values[name]
    obj = cls(*args)
    back = pickle.loads(pickle.dumps(obj, protocol))
    assert type(back) is cls and back == obj and hash(back) == hash(obj)
    assert [getattr(back, n) for n in names] == list(args)

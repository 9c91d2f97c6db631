"""The package's public surface, resolved lazily from its modules."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hrmc

# The names the package exported when it imported every module at once,
# less those deleted since.
EXPORTS = [
    "CheckFailed", "ConcretePoly", "ContextMismatch", "DimensionMismatch",
    "DivisionByZero", "EigenTable", "EnumerationTooLarge",
    "EvenMinimumDistance", "Field", "FieldElement", "FieldMismatch",
    "HermitianMatrix", "HrmcError", "IndexOutOfRange", "LambdaPoly",
    "LengthMismatch", "LinearCode", "MixedDimensions", "NegQContext",
    "NonIntegralDual", "NonIntegralResult", "NonPrimeModulus",
    "NotHermitian", "ReducibleModulus", "UnsupportedSize", "UsageError",
    "WeightDistribution", "ZeroCode", "beta_fn",
    "build_eigen_table", "build_eigen_table_C", "code_from_jsonable",
    "concretize", "delta_fn", "dual_code", "enumerate_codewords",
    "enumerate_hermitian", "epsilon_fn", "evaluate",
    "full_space_distribution", "gamma_fn", "gauss", "hermitian_from_index",
    "inner_product", "is_hermitian", "krawtchouk_C", "krawtchouk_Q",
    "macwilliams_eigen", "macwilliams_transform", "make_code", "make_field",
    "mhrd_distribution", "min_distance", "moment_q", "moment_qinv",
    "mu_poly", "negq_derivative", "negq_inv_derivative", "negq_power",
    "negq_product", "negq_transform", "nu_poly", "rank", "rank_counts",
    "sequence_forward", "sequence_inversion", "singleton_check",
    "total_hermitian", "weight_distribution", "xi", "zero_matrix",
]

# Imports the package in a fresh interpreter and reports what it loaded,
# what it lists, and whether each name is the object its module defines.
_PROBE = """
import json, sys
before = set(sys.modules)
import hrmc
loaded = sorted(m for m in sys.modules if m.startswith("hrmc.")
                and m not in before)
listed = sorted(dir(hrmc))
star = {}
exec("from hrmc import *", star)
print(json.dumps({
    "loaded": loaded,
    "all": sorted(hrmc.__all__),
    "dir": listed,
    "star": sorted(n for n in star if n != "__builtins__"),
    "foreign": [n for n in hrmc.__all__ if getattr(hrmc, n) is not getattr(
        sys.modules[getattr(hrmc, n).__module__], n)],
}))
"""


def test_the_package_loads_no_module_and_exports_every_name():
    src = str(Path(hrmc.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    report = json.loads(proc.stdout)
    assert report["loaded"] == []
    assert report["all"] == EXPORTS
    assert set(EXPORTS) <= set(report["dir"])
    assert report["star"] == EXPORTS
    assert report["foreign"] == []


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        hrmc.nothing  # noqa: B018

"""Exact tools for Hermitian rank-metric codes over GF(q^2).

The package computes rank-weight distributions of additive Hermitian
matrix codes and their trace-duals by several independent routes (direct
enumeration, eigenvalue tables, twisted polynomial transforms) entirely
in exact integer arithmetic, along with the base -q combinatorial
identities those routes are built from.

Importing the package loads none of its modules: each exported name is
resolved from its module on first access, so a command that runs one
route compiles only the modules that route needs.
"""

import sys

__version__ = "0.1.0"

# The module that defines each exported name.
_MODULE_OF = {name: module for module, names in {
    "errors": (
        "CheckFailed", "ContextMismatch", "DimensionMismatch",
        "DivisionByZero", "EnumerationTooLarge", "EvenMinimumDistance",
        "FieldMismatch", "HrmcError", "IndexOutOfRange", "LengthMismatch",
        "MixedDimensions", "NonIntegralDual", "NonIntegralResult",
        "NonPrimeModulus", "NotHermitian", "ReducibleModulus",
        "UnsupportedSize", "UsageError", "ZeroCode"),
    "fields": ("Field", "FieldElement", "make_field"),
    "hermitian": ("HermitianMatrix", "is_hermitian", "zero_matrix"),
    "hermitian_space": (
        "enumerate_hermitian", "hermitian_from_index", "inner_product",
        "rank", "total_hermitian"),
    "codes": (
        "LinearCode", "WeightDistribution", "dual_code",
        "enumerate_codewords", "make_code", "min_distance", "rank_counts",
        "singleton_check", "weight_distribution"),
    "codefile": ("code_from_jsonable",),
    "negq": ("NegQContext", "gamma_fn", "gauss", "xi"),
    "eigen": (
        "EigenTable", "build_eigen_table", "build_eigen_table_C",
        "full_space_distribution", "krawtchouk_C", "krawtchouk_Q"),
    "macwilliams": ("macwilliams_eigen", "macwilliams_transform"),
    "moments": ("mhrd_distribution", "moment_q", "moment_qinv"),
    "polynomials": (
        "ConcretePoly", "LambdaPoly", "concretize", "mu_poly", "negq_power",
        "negq_product", "negq_transform", "nu_poly"),
    "calculus": (
        "beta_fn", "delta_fn", "epsilon_fn", "evaluate", "negq_derivative",
        "negq_inv_derivative", "sequence_forward", "sequence_inversion"),
}.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        # the plain lookup again, which raises the usual AttributeError
        return object.__getattribute__(sys.modules[__name__], name)
    from importlib import import_module
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

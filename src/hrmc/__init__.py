"""Exact tools for Hermitian rank-metric codes over GF(q^2).

The package computes rank-weight distributions of additive Hermitian
matrix codes and their trace-duals by several independent routes (direct
enumeration, eigenvalue tables, twisted polynomial transforms) entirely
in exact integer arithmetic, along with the base -q combinatorial
identities those routes are built from.
"""

import sys

from .errors import (
    CheckFailed,
    ContextMismatch,
    DimensionMismatch,
    DivisionByZero,
    EnumerationTooLarge,
    EvenMinimumDistance,
    FieldMismatch,
    HrmcError,
    IndexOutOfRange,
    LengthMismatch,
    MixedDimensions,
    NonIntegralDual,
    NonIntegralResult,
    NonPrimeModulus,
    NotHermitian,
    ReducibleModulus,
    UnsupportedSize,
    UsageError,
    ZeroCode,
)
from .fields import Field, FieldElement, arith, conj, make_field
from .hermitian import (
    HermitianMatrix,
    enumerate_hermitian,
    hermitian_from_index,
    inner_product,
    is_hermitian,
    rank,
    total_hermitian,
    zero_matrix,
)
from .codes import (
    LinearCode,
    WeightDistribution,
    code_from_jsonable,
    dual_code,
    enumerate_codewords,
    make_code,
    min_distance,
    rank_counts,
    singleton_check,
    weight_distribution,
)
from .negq import (
    NegQContext,
    beta_fn,
    gamma_fn,
    gauss,
    sequence_forward,
    sequence_inversion,
    xi,
)
from .macwilliams import (
    EigenTable,
    build_eigen_table,
    build_eigen_table_C,
    delta_fn,
    epsilon_fn,
    full_space_distribution,
    krawtchouk_C,
    krawtchouk_Q,
    macwilliams_eigen,
    macwilliams_transform,
    mhrd_distribution,
    moment_q,
    moment_qinv,
)

__version__ = "0.1.0"

# Names of hrmc.polynomials, resolved on first access by __getattr__: only
# the transform route and verify run the algebra, and the other commands
# start faster without compiling it.
_POLYNOMIAL_NAMES = frozenset({
    "ConcretePoly",
    "LambdaPoly",
    "concretize",
    "evaluate",
    "mu_poly",
    "negq_derivative",
    "negq_inv_derivative",
    "negq_power",
    "negq_product",
    "negq_transform",
    "nu_poly",
})


def __getattr__(name: str):
    if name not in _POLYNOMIAL_NAMES:
        # the plain lookup again, which raises the usual AttributeError
        return object.__getattribute__(sys.modules[__name__], name)
    from . import polynomials
    return getattr(polynomials, name)

"""Exception types raised across the package.

Every error the library raises deliberately derives from :class:`HrmcError`,
so callers (including the CLI) can catch one base class and map it to an
exit code. Programming mistakes (wrong argument types, contract violations
that indicate a bug in the caller) still surface as ValueError/TypeError.
"""


class HrmcError(Exception):
    """Base class for all library-specific errors."""


# --- finite field construction and arithmetic ---

class NonPrimeModulus(HrmcError):
    """The requested characteristic p is not a prime number."""


class ReducibleModulus(HrmcError):
    """A supplied modulus polynomial factors over the prime field."""


class UnsupportedSize(HrmcError):
    """The requested field is larger than the supported table sizes."""


class DivisionByZero(HrmcError):
    """Multiplicative inverse of the zero element was requested."""


class FieldMismatch(HrmcError):
    """Two elements from different fields were combined."""


# --- matrices ---

class DimensionMismatch(HrmcError):
    """Matrices of different sizes (or over different fields) were mixed."""


class EnumerationTooLarge(HrmcError):
    """An exhaustive enumeration would exceed the configured guard."""


# --- codes ---

class NotHermitian(HrmcError):
    """A generator matrix is not equal to its conjugate transpose."""


class MixedDimensions(HrmcError):
    """Code generators disagree on matrix size or base field."""


class ZeroCode(HrmcError):
    """The zero code has no nonzero word, so no minimum distance."""


class BoundViolated(HrmcError):
    """A code exceeded the size bound; indicates an internal bug."""


# --- exact combinatorics ---

class NonIntegralResult(HrmcError):
    """A quantity that must be an integer came out fractional."""


class LengthMismatch(HrmcError):
    """A sequence argument has the wrong number of entries."""


# --- polynomial algebra ---

class ContextMismatch(HrmcError):
    """Two polynomials built over different base parameters were combined."""


# --- dual-distribution computations ---

class IndexOutOfRange(HrmcError):
    """An eigenvalue index lies outside the valid 0..t range."""


class NonIntegralDual(HrmcError):
    """A transformed weight distribution has a fractional entry."""


class NonIntegralCount(HrmcError):
    """A closed-form rank count came out fractional or negative."""


class EvenMinimumDistance(HrmcError):
    """The closed-form distribution only covers odd minimum distance."""


# --- command line ---

class RouteMismatch(HrmcError):
    """Two independent computation routes disagreed."""


class UnsupportedField(HrmcError):
    """The requested field order cannot be realised by this build."""


class ParseError(HrmcError):
    """Malformed input file, distribution string or setting."""

"""Exception types raised across the package.

Every error the library raises on purpose derives from :class:`HrmcError`
through exactly one of two bases, and the base says what the caller
should do about it:

* :class:`UsageError` -- fix the input. An argument, file, setting or
  parameter cannot be used (not a prime power, out of range, not
  Hermitian, estimated above the guard, ...). It is also a ``ValueError``.
  The CLI exits with 2.
* :class:`CheckFailed` -- two computations that must agree did not, or an
  exact quantity that must be an integer came out fractional. With valid
  input that points at a bug. The CLI exits with 1.

The class is fixed where the error is raised. The leaves below exist
because callers catch them by name; anywhere else a site raises one of
the two bases directly. ``AssertionError`` is kept for internal
invariants that no input can break.

A message names a value through :func:`shown`, since ``str()`` refuses
ints of more than 4300 digits and would turn the error into a
``ValueError``.
"""


def shown(value) -> str:
    """An int, a Fraction or a tuple of them as message text. An int of
    2^64 or more in size is named by its power of two, "at least 2^N" or
    "at most -2^N"; a Fraction is numerator/denominator."""
    if isinstance(value, tuple):
        return f"({', '.join(map(shown, value))})"
    num, den = value.numerator, value.denominator
    if den != 1:
        return f"{shown(num)}/{shown(den)}"
    if -(1 << 64) < num < 1 << 64:
        return str(num)
    power = f"2^{abs(num).bit_length() - 1}"
    return f"at least {power}" if num > 0 else f"at most -{power}"


class HrmcError(Exception):
    """Base class for all library-specific errors."""


class UsageError(HrmcError, ValueError):
    """The input cannot be used; the caller has to change it."""


class CheckFailed(HrmcError):
    """Two computations that must agree did not."""


# --- finite fields ---

class NonPrimeModulus(UsageError):
    """The requested characteristic p is not a prime number."""


class ReducibleModulus(UsageError):
    """A supplied modulus polynomial factors over the prime field."""


class UnsupportedSize(UsageError):
    """The requested field is larger than the supported table sizes."""


class DivisionByZero(UsageError):
    """Multiplicative inverse of the zero element was requested."""


class FieldMismatch(UsageError):
    """Two elements from different fields were combined."""


# --- matrices and codes ---

class DimensionMismatch(UsageError):
    """Matrices of different sizes (or over different fields) were mixed."""


class EnumerationTooLarge(UsageError):
    """Work or output estimated above the guard: an enumeration, trial
    divisions, or a closed form's output or big-int words."""


class NotHermitian(UsageError):
    """A generator matrix is not equal to its conjugate transpose."""


class MixedDimensions(UsageError):
    """Code generators disagree on matrix size or base field."""


class ZeroCode(UsageError):
    """The zero code has no nonzero word, so no minimum distance."""


# --- exact combinatorics and dual distributions ---

class LengthMismatch(UsageError):
    """A sequence argument has the wrong number of entries."""


class ContextMismatch(UsageError):
    """Two polynomials built over different base parameters were combined."""


class IndexOutOfRange(UsageError):
    """An index such as x, k or phi lies outside the valid 0..t range."""


class EvenMinimumDistance(UsageError):
    """The closed-form distribution only covers odd minimum distance."""


class NonIntegralResult(CheckFailed):
    """A quantity that must be an integer came out fractional."""


class NonIntegralDual(CheckFailed):
    """A transformed weight distribution has a fractional or negative entry."""

"""The refusal policy: the guard, and the estimates compared with it.

Work or output estimated above the guard is refused before any of it is
built, with :class:`~hrmc.errors.EnumerationTooLarge`, a ``UsageError``
(exit 2 in the CLI). The guard is an explicit value, else the
``HRMC_GUARD`` environment variable, else :data:`DEFAULT_GUARD`.

:func:`prime_factors`, the trial division whose work ``NegQContext``
checks against the guard, is here too, so that ``fields`` can use it
without loading ``negq``.
"""

from __future__ import annotations

import os

from .errors import EnumerationTooLarge, UsageError, shown

DEFAULT_GUARD = 1 << 24


def enumeration_guard(guard: int | None = None) -> int:
    """Resolve the guard: explicit arg, else env, else default.

    Raises UsageError when HRMC_GUARD is not an integer or the guard is
    negative.
    """
    if guard is None:
        env = os.environ.get("HRMC_GUARD")
        try:
            guard = int(env) if env else DEFAULT_GUARD
        except ValueError:
            raise UsageError(f"HRMC_GUARD={env!r} is not an integer") from None
    if guard < 0:
        raise UsageError(f"the enumeration guard must be >= 0, got {guard}")
    return guard


def check_guard(count: int, what: str, guard: int | None = None) -> None:
    """Refuse ``count`` of ``what`` above the guard."""
    limit = enumeration_guard(guard)
    if count > limit:
        raise EnumerationTooLarge(
            f"{shown(count)} {what} exceed the enumeration guard {limit}")


def check_power_guard(q: int, n: int, what: str,
                      guard: int | None = None) -> None:
    """Refuse q^n objects above the guard. Once n * floor(log2 q) reaches
    64 and the guard's bit length, q^n is refused without being built,
    naming that power of two: exact when q is a power of two, a lower
    bound otherwise. Below that, check_guard decides on q^n, so the
    message is the same as its own."""
    limit = enumeration_guard(guard)
    low = n * (q.bit_length() - 1)  # q^n >= 2^low
    if low >= max(64, limit.bit_length()):
        raise EnumerationTooLarge(
            f"at least 2^{low} {what} exceed the enumeration guard {limit}")
    check_guard(q ** n, what, limit)


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division.

    Empty for n < 2; ``[n]`` exactly when n is prime. Its callers bound
    the divisions first: ``NegQContext`` by the guard, ``make_field`` by
    the largest field order.
    """
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def sampled_words(q: int, t: int, trials: int) -> int:
    """Fewest words that ``trials`` sampled codes of t x t matrices over
    GF(q^2) enumerate: each is enumerated with its dual, and one of the
    two has at least q^ceil(t^2/2) words."""
    return trials * q ** ((t * t + 1) // 2)


# Closed-form values (eigenvalues, counts, transform coefficients) are
# taken to be as long as q^(t^2), which bounds every eigenvalue and count.
# q^64 has d digits and c bits, so q^(t^2) has at most t^2*d/64 + 1
# digits and t^2*c/64 + 1 bits.

def output_digits(q: int, t: int, values: int) -> int:
    """Decimal digits of ``values`` closed-form values."""
    return values * (t * t * _decimal_digits(q ** 64) // 64 + 1)


def value_words(q: int, t: int, values: int) -> int:
    """30-bit words (CPython's int digits) of ``values`` closed-form
    values. For the transform's (t+1)^2 values this overstates what it
    holds: by Horner's rule it keeps one G row and one nu-power row,
    O(t) values, at a time."""
    bits = t * t * (q ** 64).bit_length() // 64 + 1
    return values * -(-bits // 30)


def _decimal_digits(n: int) -> int:
    """len(str(n)) for n >= 1, which str() refuses past 4300 digits."""
    digits = (n.bit_length() - 1) * 30102 // 100000 + 1  # never too many
    while n >= 10 ** digits:
        digits += 1
    return digits

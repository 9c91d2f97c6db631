"""Finite fields GF(p^(2m)) with the order-q conjugation, q = p^m.

The field of order q^2 carries the involution x -> x^q whose fixed points
form the subfield of order q. Elements are stored as integer indices: the
index encodes the 2m base-p coefficients of the residue polynomial,
little-endian, so index = c0 + c1*p + c2*p^2 + ... . Multiplication runs
through exp/log tables built once per field from a generator g of the
multiplicative group. Addition runs through a Zech-logarithm table of the
same size: zech[i] is the log of 1 + g^i (or -1 when that sum is zero),
so g^a + g^b = g^(a + zech[b - a]). The table is built once from the
digitwise addition of 1 mod p, and no table grows with the square of the
order.

Conjugation is computed as a genuine power x^q by square-and-multiply on
purpose, so the Frobenius tests in the suite exercise real arithmetic
rather than a second table that could hide a table-building bug.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterator

from ._value import Value
from .cost import prime_factors
from .errors import (
    DivisionByZero,
    FieldMismatch,
    NonPrimeModulus,
    ReducibleModulus,
    UnsupportedSize,
    UsageError,
)

MAX_EXTENSION_DEGREE = 8     # 2m may not exceed this
MAX_FIELD_ORDER = 1 << 16    # p^(2m) may not exceed this


# ----------------------------------------------------------------------
# Polynomial helpers over F_p. Polynomials are little-endian int tuples
# with no trailing zeros (the zero polynomial is the empty tuple).

def _trim(poly: tuple[int, ...]) -> tuple[int, ...]:
    i = len(poly)
    while i > 0 and poly[i - 1] == 0:
        i -= 1
    return poly[:i]


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(tuple(out))


def _poly_mod(a: tuple[int, ...], mod: tuple[int, ...], p: int) -> tuple[int, ...]:
    a = list(a)
    d = len(mod) - 1
    while len(a) > d:
        if a[-1] != 0:
            f = a[-1]  # mod is monic, so the factor is the leading digit
            shift = len(a) - 1 - d
            for i, c in enumerate(mod):
                a[shift + i] = (a[shift + i] - f * c) % p
        a.pop()
    return _trim(tuple(a))


def _int_to_poly(value: int, p: int) -> tuple[int, ...]:
    digits = []
    while value:
        digits.append(value % p)
        value //= p
    return tuple(digits)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Exhaustive trial division by every monic polynomial of degree <= d/2."""
    d = len(poly) - 1
    if d < 1 or poly[-1] == 0:
        return False
    if d == 1:
        return True
    if poly[0] == 0:  # divisible by z
        return False
    for deg in range(1, d // 2 + 1):
        for low in range(p ** deg):
            body = _int_to_poly(low, p)
            trial = body + (0,) * (deg - len(body)) + (1,)
            if not _poly_mod(poly, trial, p):
                return False
    return True


@lru_cache(maxsize=None)
def _smallest_irreducible(p: int, degree: int) -> tuple[int, ...]:
    """Monic irreducible of the given degree with the smallest digit value."""
    for low in range(p ** degree):
        body = _int_to_poly(low, p)
        candidate = body + (0,) * (degree - len(body)) + (1,)
        if _is_irreducible(candidate, p):
            return candidate
    raise AssertionError(f"no irreducible of degree {degree} over GF({p})")


# ----------------------------------------------------------------------

class Field:
    """GF(p^(2m)) together with its conjugation-fixed subfield GF(p^m).

    Do not call the constructor directly; use :func:`make_field`, which
    validates the parameters and caches instances.
    """

    def __init__(self, p: int, m: int, modulus_poly: tuple[int, ...]):
        self.p = p
        self.m = m
        self.modulus_poly = modulus_poly
        self.q = p ** m
        self.order = p ** (2 * m)
        # product gives each index's digits most significant first
        self._digits = [digits[::-1]
                        for digits in product(range(p), repeat=2 * m)]
        self._build_tables()
        self._subfield: tuple[int, ...] | None = None

    # -- construction internals --

    def _mul_poly(self, a: int, b: int) -> int:
        prod = _poly_mul(_trim(self._digits[a]), _trim(self._digits[b]), self.p)
        prod = _poly_mod(prod, self.modulus_poly, self.p)
        return sum(c * self.p ** i for i, c in enumerate(prod))

    def _build_tables(self) -> None:
        n = self.order - 1
        factors = prime_factors(n)

        def pow_poly(a: int, e: int) -> int:
            acc, base = 1, a
            while e:
                if e & 1:
                    acc = self._mul_poly(acc, base)
                base = self._mul_poly(base, base)
                e >>= 1
            return acc

        p = self.p
        gen = None
        # an index below p is in GF(p), of an order dividing p - 1 < n
        for g in range(p, self.order):
            if all(pow_poly(g, n // f) != 1 for f in factors):
                gen = g
                break
        assert gen is not None, "multiplicative group of a field is cyclic"
        # Only the first w = n / (p - 1) powers are stepped by gen. c = g^w
        # generates GF(p)*, and g^(r + w s) is g^r with each digit times
        # c^s mod p. So along column r (g^r, g^(r + w), g^(r + 2w), ...)
        # a digit d = c^l of g^r runs through c^l, c^(l + 1), ...: the
        # powers of c turned to start at l.
        w = n // (p - 1)
        exp = [1] * n
        for i in range(1, w):
            exp[i] = self._mul_poly(exp[i - 1], gen)
        if p > 2:  # else w = n, and the table is full
            c = self._mul_poly(exp[w - 1], gen)
            powers = [1] * (p - 1)
            for s in range(1, p - 1):
                powers[s] = powers[s - 1] * c % p
            place = {v: s for s, v in enumerate(powers)}
            zeros = [0] * (p - 1)
            for r in range(w):
                column = zeros
                for d in reversed(self._digits[exp[r]]):
                    s = place.get(d)
                    turned = zeros if s is None else powers[s:] + powers[:s]
                    column = [x * p + y for x, y in zip(column, turned)]
                exp[r::w] = column
        log = [0] * self.order
        for i, v in enumerate(exp):
            log[v] = i
        # adding 1 raises the constant digit mod p and leaves the rest
        zech = [log[s] if s else -1
                for s in (v - (p - 1) if v % p == p - 1 else v + 1
                          for v in exp)]
        self._exp = exp
        self._log = log
        self._zech = zech
        self._neg_one = log[p - 1]  # -1 is the constant digit p - 1

    # -- index-level arithmetic --

    def add(self, a: int, b: int) -> int:
        if a == 0:
            return b
        if b == 0:
            return a
        n = self.order - 1
        la = self._log[a]
        z = self._zech[(self._log[b] - la) % n]
        return 0 if z < 0 else self._exp[(la + z) % n]

    def neg(self, a: int) -> int:
        if a == 0:
            return 0
        return self._exp[(self._log[a] + self._neg_one) % (self.order - 1)]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        n = self.order - 1
        return self._exp[(self._log[a] + self._log[b]) % n]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("zero has no multiplicative inverse")
        n = self.order - 1
        return self._exp[(n - self._log[a]) % n]

    def pow(self, a: int, e: int) -> int:
        """a**e by square-and-multiply; negative e inverts first."""
        if e < 0:
            a, e = self.inv(a), -e
        acc, base = 1, a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def conj_index(self, a: int) -> int:
        """The conjugation x -> x^q, computed as an honest power."""
        return self.pow(a, self.q)

    def subfield_indices(self) -> tuple[int, ...]:
        """Indices fixed by conjugation, ascending. Exactly q of them.

        The fixed points of x -> x^q are 0 and the powers g^(j(q+1)) of the
        generator, which form the subgroup of order q - 1.
        """
        if self._subfield is None:
            fixed = tuple(sorted([0, *self._exp[::self.q + 1]]))
            assert len(fixed) == self.q
            assert all(self.conj_index(i) == i for i in fixed)
            self._subfield = fixed
        return self._subfield

    # -- element-level API --

    def from_index(self, index: int) -> "FieldElement":
        if not 0 <= index < self.order:
            raise UsageError(f"element index {index} out of range")
        return FieldElement(self, index)

    def element(self, coeffs: list[int] | tuple[int, ...]) -> "FieldElement":
        if len(coeffs) > 2 * self.m:
            raise UsageError(f"at most {2 * self.m} coefficients expected")
        index = 0
        weight = 1
        for c in coeffs:
            index += (int(c) % self.p) * weight
            weight *= self.p
        return FieldElement(self, index)

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def elements(self) -> Iterator["FieldElement"]:
        for i in range(self.order):
            yield FieldElement(self, i)

    def subfield_elements(self) -> tuple["FieldElement", ...]:
        return tuple(FieldElement(self, i) for i in self.subfield_indices())

    # -- identity --

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Field)
                and (self.p, self.m, self.modulus_poly)
                == (other.p, other.m, other.modulus_poly))

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus_poly))

    def __repr__(self) -> str:
        return f"Field(p={self.p}, m={self.m}, order={self.order})"

    def __reduce__(self):
        # pickled by parameters; unpickling returns the cached field
        return make_field, (self.p, self.m, self.modulus_poly)

    def to_jsonable(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus_poly": list(self.modulus_poly)}


class FieldElement(Value):
    """One element of a :class:`Field`, identified by its integer index."""

    __slots__ = ("field", "index")

    def __init__(self, field: Field, index: int) -> None:
        self.field = field
        self.index = index

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Base-p digits of the index, little-endian, exactly 2m of them."""
        return self.field._digits[self.index]

    def _same_field(self, other: "FieldElement") -> None:
        if self.field != other.field:
            raise FieldMismatch(f"cannot combine {self.field} with {other.field}")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._same_field(other)
        return FieldElement(self.field, self.field.add(self.index, other.index))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._same_field(other)
        return FieldElement(self.field, self.field.sub(self.index, other.index))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._same_field(other)
        return FieldElement(self.field, self.field.mul(self.index, other.index))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._same_field(other)
        return FieldElement(self.field,
                            self.field.mul(self.index, self.field.inv(other.index)))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, self.field.neg(self.index))

    def __pow__(self, e: int) -> "FieldElement":
        return FieldElement(self.field, self.field.pow(self.index, e))

    def __bool__(self) -> bool:
        return self.index != 0

    def conj(self) -> "FieldElement":
        return FieldElement(self.field, self.field.conj_index(self.index))

    def inv(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.index))

    def to_jsonable(self) -> list[int]:
        return list(self.coeffs)

    def __repr__(self) -> str:
        return f"FieldElement({self.index} of GF({self.field.order}))"


_FIELD_CACHE: dict[tuple[int, int, tuple[int, ...]], Field] = {}


def make_field(p: int, m: int, modulus_poly: list[int] | tuple[int, ...] | None = None) -> Field:
    """Construct (or fetch from cache) GF(p^(2m)).

    The modulus must be a monic irreducible of degree 2m over GF(p), given
    little-endian with 2m+1 coefficients. When omitted, the monic
    irreducible of that degree with the smallest digit value is used.
    """
    if not isinstance(p, int) or not isinstance(m, int) or m < 1:
        raise UsageError("p and m must be integers with m >= 1")
    degree = 2 * m
    # the size first, so that p is trial-divided only up to 2^8
    if degree > MAX_EXTENSION_DEGREE or p ** degree > MAX_FIELD_ORDER:
        raise UnsupportedSize(
            f"GF({p}^{degree}) exceeds the supported size "
            f"(degree <= {MAX_EXTENSION_DEGREE}, order <= {MAX_FIELD_ORDER})")
    if prime_factors(p) != [p]:
        raise NonPrimeModulus(f"{p} is not prime")
    if modulus_poly is None:
        modulus = _smallest_irreducible(p, degree)
    else:
        modulus = tuple(int(c) % p for c in modulus_poly)
        if len(modulus) != degree + 1 or modulus[-1] != 1:
            raise UsageError(
                f"modulus must be monic of degree {degree} "
                f"({degree + 1} little-endian coefficients)")
        if not _is_irreducible(modulus, p):
            raise ReducibleModulus(f"{list(modulus)} factors over GF({p})")
    key = (p, m, modulus)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = Field(p, m, modulus)
    return _FIELD_CACHE[key]


"""Exact arithmetic in small finite fields GF(p) and GF(p^k).

Extension elements are coefficient vectors over GF(p), reduced by a fixed
monic irreducible modulus. Everything is immutable and hashable so field
specs and elements can be shared and used as dict keys. All arithmetic is
exact integer arithmetic; there is no floating point anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import (
    FieldMismatchError,
    MissingModulusError,
    NotPrimeError,
    ReducibleModulusError,
    WrongFieldError,
)

# Monic irreducible moduli (ascending coefficients, constant term first) for
# the extensions small enough to ship without asking the caller.
_BUILTIN_MODULI = {
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),  # x^4 + x + 1
    (3, 2): (1, 0, 1),        # x^2 + 1
}


def is_prime(n: int) -> bool:
    """Deterministic trial division; fine at the scales this package targets."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A finite field GF(p^k); the handle every element carries.

    Two specs compare equal iff they have the same p, k, and modulus, and
    elements of equal specs interoperate freely.
    """

    p: int
    k: int
    modulus: tuple | None  # ascending int coefficients, length k+1; None iff k == 1
    q: int

    def element(self, value) -> "FieldElement":
        """Build an element from an int (prime-subfield embed) or coefficient seq."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatchError("element belongs to a different field")
            return value
        if isinstance(value, int):
            coeffs = (value % self.p,) + (0,) * (self.k - 1)
            return FieldElement(self, coeffs)
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) > self.k:
            raise ValueError("coefficient vector longer than extension degree")
        coeffs = coeffs + (0,) * (self.k - len(coeffs))
        return FieldElement(self, coeffs)

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.k)

    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.k - 1))

    def gen(self) -> "FieldElement":
        """The residue of x, written `a`; only extensions have one."""
        if self.k == 1:
            raise WrongFieldError("prime fields have no generator symbol")
        return FieldElement(self, (0, 1) + (0,) * (self.k - 2))

    def elements(self) -> Iterator["FieldElement"]:
        """All q elements, lexicographic on coefficient tuples, zero first."""
        for coeffs in itertools.product(range(self.p), repeat=self.k):
            yield FieldElement(self, coeffs)

    def __str__(self):
        return f"GF({self.q})"


class FieldElement:
    """One element of a FieldSpec, stored as a reduced coefficient tuple."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatchError(
                    f"mixed fields: {self.field} and {other.field}")
            return other
        if isinstance(other, int):
            return self.field.element(other)
        raise TypeError(f"cannot combine field element with {type(other).__name__}")

    def __add__(self, other):
        other = self._coerce(other)
        p = self.field.p
        return FieldElement(self.field, tuple(
            (a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        F = self.field
        if F.k == 1:
            return FieldElement(F, ((self.coeffs[0] * other.coeffs[0]) % F.p,))
        prod = [0] * (2 * F.k - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] = (prod[i + j] + a * b) % F.p
        return FieldElement(F, _reduce_by_modulus(prod, F))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        F = self.field
        if F.k == 1:
            return FieldElement(F, (pow(self.coeffs[0], F.p - 2, F.p),))
        return self ** (F.q - 2)

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, exp: int):
        if not isinstance(exp, int):
            raise TypeError("field exponent must be an int")
        if exp < 0:
            return self.inverse() ** (-exp)
        result = self.field.one()
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.element(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.coeffs))

    def __str__(self):
        F = self.field
        if F.k == 1:
            return str(self.coeffs[0])
        parts = []
        for j in range(F.k - 1, -1, -1):
            c = self.coeffs[j]
            if not c:
                continue
            if j == 0:
                parts.append(str(c))
            else:
                var = "a" if j == 1 else f"a^{j}"
                parts.append(var if c == 1 else f"{c}*{var}")
        return "+".join(parts) if parts else "0"

    def __repr__(self):
        return f"<{self} in {self.field}>"


def _reduce_by_modulus(coeffs: list, F: FieldSpec) -> tuple:
    """Reduce an ascending coefficient list mod the (monic) field modulus."""
    p, k, mod = F.p, F.k, F.modulus
    for i in range(len(coeffs) - 1, k - 1, -1):
        c = coeffs[i] % p
        if c:
            coeffs[i] = 0
            for j in range(k):
                coeffs[i - k + j] = (coeffs[i - k + j] - c * mod[j]) % p
    return tuple(c % p for c in coeffs[:k])


# --- univariate polynomials over a FieldSpec (ascending element tuples) ---
# Used for modulus validation and for the irreducible polynomials that drive
# the spread construction. Divisors are assumed monic.

def upoly_rem(num: Sequence[FieldElement], den: Sequence[FieldElement],
              F: FieldSpec) -> tuple:
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            num[i] = F.zero()
            for j in range(dd):
                num[i - dd + j] = num[i - dd + j] - c * den[j]
    rem = num[:dd]
    while rem and not rem[-1]:
        rem.pop()
    return tuple(rem)


def upoly_is_irreducible(coeffs: Sequence[FieldElement], F: FieldSpec) -> bool:
    """Exhaustive trial division by monic polynomials up to half the degree."""
    k = len(coeffs) - 1
    if k < 1:
        return False
    if k == 1:
        return True
    one = F.one()
    for d in range(1, k // 2 + 1):
        for tail in itertools.product(list(F.elements()), repeat=d):
            den = list(tail) + [one]
            if not upoly_rem(coeffs, den, F):
                return False
    return True


def find_irreducible(F: FieldSpec, degree: int) -> tuple:
    """First monic irreducible of the given degree in enumeration order."""
    one = F.one()
    for tail in itertools.product(list(F.elements()), repeat=degree):
        cand = tuple(tail) + (one,)
        if upoly_is_irreducible(cand, F):
            return cand
    raise ValueError(f"no irreducible of degree {degree} over {F}")  # unreachable


def _parse_modulus_text(text: str, p: int) -> tuple:
    """Parse `x^2+x+1` style modulus text into ascending int coefficients."""
    s = text.replace(" ", "").replace("**", "^")
    if not s:
        raise ValueError("empty modulus")
    terms = s.replace("-", "+-").split("+")
    coeffs: dict[int, int] = {}
    for term in terms:
        if not term:
            continue
        sign = 1
        if term.startswith("-"):
            sign = -1
            term = term[1:]
        if not term:
            raise ValueError(f"dangling sign in modulus {text!r}")
        coeff_txt, _, rest = term.partition("x")
        coeff_txt = coeff_txt.rstrip("*")
        if coeff_txt and not coeff_txt.isdigit():
            raise ValueError(f"bad modulus term {term!r}")
        coeff = int(coeff_txt) if coeff_txt else 1
        if _ == "":  # no x: pure constant
            exp = 0
        elif rest == "":
            exp = 1
        elif rest.startswith("^") and rest[1:].isdigit():
            exp = int(rest[1:])
        else:
            raise ValueError(f"bad modulus term {term!r}")
        coeffs[exp] = (coeffs.get(exp, 0) + sign * coeff) % p
    deg = max((e for e, c in coeffs.items() if c), default=0)
    return tuple(coeffs.get(e, 0) for e in range(deg + 1))


def make_field(p: int, k: int = 1, modulus=None) -> FieldSpec:
    """Construct GF(p^k).

    `modulus` (text like "x^2+x+1", or an ascending int sequence) is required
    for k > 1 unless a built-in is available; it must be monic of degree
    exactly k and irreducible over GF(p).
    """
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrimeError(f"characteristic must be prime, got {p}")
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"extension degree must be a positive int, got {k}")
    if k == 1:
        if modulus is not None:
            raise ValueError("prime fields take no modulus")
        return FieldSpec(p, 1, None, p)
    if modulus is None:
        coeffs = _BUILTIN_MODULI.get((p, k))
        if coeffs is None:
            raise MissingModulusError(
                f"no built-in modulus for GF({p}^{k}); supply one")
    elif isinstance(modulus, str):
        coeffs = _parse_modulus_text(modulus, p)
    else:
        coeffs = tuple(int(c) % p for c in modulus)
    if len(coeffs) != k + 1 or coeffs[-1] != 1:
        raise ValueError(
            f"modulus must be monic of degree {k}, got coefficients {coeffs}")
    base = FieldSpec(p, 1, None, p)
    wrapped = tuple(base.element(c) for c in coeffs)
    if not upoly_is_irreducible(wrapped, base):
        raise ReducibleModulusError(
            f"modulus {coeffs} is reducible over GF({p})")
    return FieldSpec(p, k, tuple(coeffs), p ** k)


def prime_power(q: int) -> tuple | None:
    """(p, k) with q = p^k and p prime, or None when q is not a prime power.
    The smallest factor of q is prime, so no primality test is needed."""
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        p = q
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    return (p, k) if m == 1 else None


def field_from_order(q: int, modulus=None) -> FieldSpec:
    """GF(q) from the order alone; factors q as a prime power."""
    if q < 2:
        raise NotPrimeError(f"field order must be a prime power >= 2, got {q}")
    pk = prime_power(q)
    if pk is None:
        raise NotPrimeError(f"{q} is not a prime power")
    return make_field(*pk, modulus)

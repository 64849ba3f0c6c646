"""Exact arithmetic in small finite fields GF(p) and GF(p^k).

Every field element is a plain int in range(q). A prime-field element is its
residue mod p. An extension element with coefficient vector (c0, ..., c_{k-1})
over GF(p), reduced by a fixed monic irreducible modulus, is the base-p
packing sum_i c_i * p^i: so 1 is one, p is the generator `a`, and the prime
subfield is 0..p-1. `FieldSpec` is the one place that knows this format. Its
add, sub, neg, mul, inv and pow do the arithmetic (prime fields with `% p`,
extensions through exp, log and Zech-logarithm tables of size O(q), built
once per field), and `coeffs` and `text` are the one boundary to coefficient
vectors and printed text. All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .errors import (
    BudgetExceededError,
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
EXTENSION_ORDER_CAP = 2 ** 16  # the largest order of an extension built


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin. A number at or above _MR_EXACT_BELOW that
    every base passes raises BudgetExceededError instead of being guessed."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while not d % 2:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_BELOW:
        raise BudgetExceededError(
            f"{n} passes Miller-Rabin to bases 2..41, which proves primality "
            f"only below {_MR_EXACT_BELOW}")
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A finite field GF(p^k) and the arithmetic on its int elements.

    Two specs compare equal iff they have the same p, k, and modulus. For
    k > 1, `_exp` holds g^i for a primitive element g and i < 2(q-1),
    `_log` the inverse map (None at 0), and `_zech[i]` the log of 1 + g^i
    (None where that is 0), so a + b = a * (1 + b/a) is table lookups.
    """

    p: int
    k: int
    modulus: tuple | None  # ascending int coefficients, length k+1; None iff k == 1
    q: int
    _exp: list = field(default=None, init=False, repr=False, compare=False)
    _log: list = field(default=None, init=False, repr=False, compare=False)
    _zech: list = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k > 1:
            exp, log, zech = _log_tables(self.p, self.k, self.modulus)
            object.__setattr__(self, "_exp", exp)
            object.__setattr__(self, "_log", log)
            object.__setattr__(self, "_zech", zech)

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if not a:
            return b
        if not b:
            return a
        la = self._log[a]
        z = self._zech[self._log[b] - la]  # a negative index wraps mod q-1
        return 0 if z is None else self._exp[la + z]

    def neg(self, a: int) -> int:
        if self.k == 1:
            return -a % self.p
        if not a or self.p == 2:
            return a
        return self._exp[self._log[a] + (self.q - 1) // 2]  # -1 = g^((q-1)/2)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        if not a or not b:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        if self.k == 1:
            return pow(a, -1, self.p)
        return self._exp[self.q - 1 - self._log[a]]

    def pow(self, a: int, e: int) -> int:
        if not a:
            if e < 0:
                raise ZeroDivisionError("inverse of zero field element")
            return 0 if e else 1
        if self.k == 1:
            return pow(a, e, self.p)
        return self._exp[self._log[a] * e % (self.q - 1)]

    def log_exp(self) -> tuple:
        """(log, exp) of an extension field, for code that works on whole
        columns of elements: log[a] is the discrete log of a != 0 (None at
        0), and exp[i] = g^i for 0 <= i < 2(q - 1)."""
        return self._log, self._exp

    def digit_code(self, base: int) -> list:
        """code[a]: the coefficient vector of a, as `coeffs` gives it, read
        as the digits of an int in base `base` >= p, for code that adds
        whole columns of elements as plain ints. A sum of codes adds the
        vectors digit by digit, with no carry while each digit sum stays
        below base, and only 0 has code 0. The table has q entries."""
        weights = [base ** i for i in range(self.k)]
        return [sum(c * w for c, w in zip(self.coeffs(a), weights))
                for a in range(self.q)]

    def gen(self) -> int:
        """The residue of x, written `a`; only extensions have one."""
        if self.k == 1:
            raise WrongFieldError("prime fields have no generator symbol")
        return self.p

    def elements(self) -> Iterator[int]:
        """All q elements, lexicographic on coefficient tuples, zero first."""
        weights = [self.p ** i for i in range(self.k)]
        for coeffs in itertools.product(range(self.p), repeat=self.k):
            yield sum(c * w for c, w in zip(coeffs, weights))

    def coeffs(self, a: int) -> tuple:
        """The coefficient vector (c0, ..., c_{k-1}) over GF(p) of a."""
        return tuple(a // self.p ** i % self.p for i in range(self.k))

    def text(self, a: int) -> str:
        """a as the parser reads it: a residue, or a sum of powers of `a`."""
        if self.k == 1:
            return str(a)
        coeffs = self.coeffs(a)
        parts = []
        for j in range(self.k - 1, -1, -1):
            c = coeffs[j]
            if not c:
                continue
            if j == 0:
                parts.append(str(c))
            else:
                var = "a" if j == 1 else f"a^{j}"
                parts.append(var if c == 1 else f"{c}*{var}")
        return "+".join(parts) if parts else "0"

    def __str__(self):
        return f"GF({self.q})"


def _log_tables(p: int, k: int, modulus: tuple) -> tuple:
    """(exp, log, zech) of GF(p^k) for its first primitive element in
    packed order. A candidate g is primitive when g^((q-1)/r) != 1 for each
    prime r dividing q - 1, each power taken by square-and-multiply; then
    the powers of g alone are walked, one schoolbook multiplication each.
    Elements are coefficient tuples until they are packed."""
    q = p ** k
    weights = [p ** i for i in range(k)]
    one = (1,) + (0,) * (k - 1)

    def mul(x, y):
        prod = [0] * (2 * k - 1)
        ys = [(j, b) for j, b in enumerate(y) if b]
        for i, a in enumerate(x):
            if a:
                for j, b in ys:
                    prod[i + j] += a * b
        return _reduce_by_modulus(prod, p, k, modulus)

    def power(x, e):
        out = one
        while e:
            if e & 1:
                out = mul(out, x)
            x, e = mul(x, x), e >> 1
        return out

    cofactors, m, r = [], q - 1, 2
    while r * r <= m:
        if not m % r:
            cofactors.append((q - 1) // r)
            while not m % r:
                m //= r
        r += 1
    if m > 1:
        cofactors.append((q - 1) // m)
    for g in range(p, q):
        gc = tuple(g // w % p for w in weights)
        if all(power(gc, c) != one for c in cofactors):
            break
    else:
        raise ValueError(f"modulus {modulus} has no primitive element")
    exp, x = [1], one
    for _ in range(q - 2):
        x = mul(x, gc)
        exp.append(sum(c * w for c, w in zip(x, weights)))
    log = [None] * q
    for i, v in enumerate(exp):
        log[v] = i
    # 1 + v changes only the constant coefficient v % p
    zech = [log[v - v % p + (v % p + 1) % p] for v in exp]
    return exp + exp, log, zech


def _reduce_by_modulus(coeffs: list, p: int, k: int, mod: tuple) -> tuple:
    """Reduce an ascending coefficient list mod the (monic) field modulus."""
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

def upoly_rem(num: Sequence[int], den: Sequence[int], F: FieldSpec) -> tuple:
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            num[i] = 0
            for j in range(dd):
                num[i - dd + j] = F.sub(num[i - dd + j], F.mul(c, den[j]))
    rem = num[:dd]
    while rem and not rem[-1]:
        rem.pop()
    return tuple(rem)


def upoly_is_irreducible(coeffs: Sequence[int], F: FieldSpec) -> bool:
    """Exhaustive trial division by monic polynomials up to half the degree."""
    k = len(coeffs) - 1
    if k < 1:
        return False
    if k == 1:
        return True
    for d in range(1, k // 2 + 1):
        for tail in itertools.product(list(F.elements()), repeat=d):
            if not upoly_rem(coeffs, tail + (1,), F):
                return False
    return True


def find_irreducible(F: FieldSpec, degree: int) -> tuple:
    """First monic irreducible of the given degree in enumeration order."""
    for tail in itertools.product(list(F.elements()), repeat=degree):
        cand = tail + (1,)
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
    exactly k and irreducible over GF(p). An extension of order over
    EXTENSION_ORDER_CAP raises BudgetExceededError before any table is built.
    """
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrimeError(f"characteristic must be prime, got {p}")
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"extension degree must be a positive int, got {k}")
    if k == 1:
        if modulus is not None:
            raise ValueError("prime fields take no modulus")
        return FieldSpec(p, 1, None, p)
    if k > 16 or p ** k > EXTENSION_ORDER_CAP:  # k > 16 needs no power
        raise BudgetExceededError(f"GF({p}^{k}) is over the extension "
                                  f"order cap of {EXTENSION_ORDER_CAP}")
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
    if not upoly_is_irreducible(coeffs, FieldSpec(p, 1, None, p)):
        raise ReducibleModulusError(
            f"modulus {coeffs} is reducible over GF({p})")
    return FieldSpec(p, k, tuple(coeffs), p ** k)


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power(q: int) -> tuple | None:
    """(p, k) with q = p^k and p prime, or None when q is not a prime power.
    Only the largest k with q = r^k can give a prime r, so k runs down from
    log2(q) to the first integer k-th root; k = 1 always has one."""
    if q < 2:
        return None
    for k in range(q.bit_length() - 1, 0, -1):
        r = _iroot(q, k)
        if r ** k == q:
            return (r, k) if is_prime(r) else None


def field_from_order(q: int) -> FieldSpec:
    """GF(q) from the order alone; factors q as a prime power."""
    if q < 2:
        raise NotPrimeError(f"field order must be a prime power >= 2, got {q}")
    pk = prime_power(q)
    if pk is None:
        raise NotPrimeError(f"{q} is not a prime power")
    return make_field(*pk)

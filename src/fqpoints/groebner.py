"""Groebner bases and Hilbert functions for homogeneous ideals.

Buchberger's algorithm with the product and chain criteria produces a
reduced monic basis. Inside `buchberger` and `normal_form` a monomial is one
int (Monagan and Pearce 2007): int order is the term order and a product is
a sum. With B = 2^(w+1), GREVLEX packs x^e as deg(e)*B^n - sum e_i*B^i and
LEX as sum e_i*B^(n-1-i), where w is the bit length of max(input degree,
DEGREE_CAP). Bit w of each field is a guard bit: with M their mask, v
divides u iff ((vec(u) | M) - vec(v)) & M == M. Each multiple of a reducer
is checked against the guard bits first, and one that would set one raises
BudgetExceededError. A reduction works in place over a max-heap of keys,
with the first basis element whose leading monomial divides. Dimension and
degree come from the Hilbert series N(z)/(1-z)^nvars of the initial ideal,
with N from an exact recursion on monomial ideals (Bayer and Stillman
1992): the Hilbert polynomial is sum_j N_j * C(t - j + nvars - 1, nvars -
1), in exact rationals. `HilbertData.values` holds h(0..T), T = max(T0,
deg N), where T0 = (largest leading-monomial degree) + max(nvars, 4) +
nvars. An ideal whose T0 or leading-monomial lcm degree exceeds 1000 raises
BudgetExceededError.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import BudgetExceededError, NotHomogeneousError
from .gf import FieldSpec
from .mpoly import DEGREE_CAP, GREVLEX, LEX, Order, Polynomial

# Most S-pairs one buchberger() call handles before it gives up.
MAX_PAIRS = 200_000


@dataclass(frozen=True)
class Ideal:
    """A homogeneous ideal given by nonzero generators in a shared ring."""

    field: FieldSpec
    nvars: int
    gens: tuple

    def __post_init__(self):
        for g in self.gens:
            if g.is_zero():
                raise ValueError("ideal generators must be nonzero")
            if g.field != self.field or g.nvars != self.nvars:
                raise ValueError("generator outside the ideal's ring")

    @classmethod
    def of(cls, gens: Sequence[Polynomial]) -> "Ideal":
        gens = tuple(gens)
        if not gens:
            raise ValueError("need at least one generator")
        return cls(gens[0].field, gens[0].nvars, gens)

    def plus(self, extra: Polynomial) -> "Ideal":
        return Ideal(self.field, self.nvars, self.gens + (extra,))


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced monic basis, sorted by leading monomial (ascending)."""

    ideal: Ideal
    order: Order
    basis: tuple

    def leading_monomials(self) -> list:
        return [g.leading_monomial(self.order) for g in self.basis]


class _Packing:
    """One call's packed monomials, as in the module docstring. `vec(key)`
    is the exponent vector of a key, with its guard bits clear."""

    def __init__(self, nvars: int, order: Order, degree: int):
        if order is not LEX and order is not GREVLEX:
            raise ValueError("term order must be LEX or GREVLEX")
        self.lex = order is LEX
        w = max(degree, DEGREE_CAP).bit_length()
        self.cap = (1 << w) - 1  # the largest exponent a field holds
        self.shifts = [(w + 1) * (nvars - 1 - i if self.lex else i)
                       for i in range(nvars)]
        self.top = (w + 1) * nvars
        self.guard = sum(1 << (s + w) for s in self.shifts)

    def key(self, exps: tuple) -> int:
        vec = sum(e << s for e, s in zip(exps, self.shifts))
        return vec if self.lex else (sum(exps) << self.top) - vec

    def vec(self, key: int) -> int:
        return key if self.lex else -key & ((1 << self.top) - 1)

    def exps(self, key: int) -> tuple:
        return tuple(self.vec(key) >> s & self.cap for s in self.shifts)

    def divides(self, dv: int, key: int) -> bool:
        return ((self.vec(key) | self.guard) - dv) & self.guard == self.guard

    def pack(self, f: Polynomial) -> dict:
        return {self.key(e): c for e, c in f.terms.items()}

    def reducer(self, g: dict, F: FieldSpec) -> tuple:
        """(lm, vec(lm), spread, tail) of the nonzero g: the tail is g's
        other terms times -1/lc, and spread the vector of g's largest
        exponent of each variable."""
        lm = max(g)
        m = F.neg(F.inv(g[lm]))
        vecs = [self.vec(k) for k in g]
        spread = sum(max(v >> s & self.cap for v in vecs) << s
                     for s in self.shifts)
        return (lm, self.vec(lm), spread,
                [(k, F.mul(c, m)) for k, c in g.items() if k != lm])

    def fit(self, t: int, spread: int):
        """Refuse x^t times a reducer with this spread past the width."""
        if (self.vec(t) + spread) & self.guard:
            raise BudgetExceededError(
                f"a reduction needs an exponent over the cap {self.cap}")


def _monic(g: dict, F: FieldSpec) -> dict:
    inv = F.inv(g[max(g)])
    return {k: F.mul(c, inv) for k, c in g.items()}


def _reduce(f: dict, reducers: list, P: _Packing, F: FieldSpec) -> dict:
    """Fully reduce the packed f in place and return the remainder. Each
    key a step adds is below the one it reduces, so none is pushed twice; a
    cancelled term stays in f as a zero until its key comes off the heap."""
    add, mul, guard = F.add, F.mul, P.guard
    sign = 1 if P.lex else -1  # sign * key has vec(key) as its low bits
    heap = [-k for k in f]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        key = -heapq.heappop(heap)
        c = f.pop(key)
        if not c:
            continue
        u = sign * key | guard
        for lm, dv, spread, tail in reducers:
            if (u - dv) & guard == guard:
                t = key - lm
                P.fit(t, spread)
                for k, a in tail:
                    k += t
                    x = f.get(k)
                    if x is None:
                        heapq.heappush(heap, -k)
                        x = 0
                    f[k] = add(x, mul(c, a))
                break
        else:
            remainder[key] = c
    return remainder


def normal_form(f: Polynomial, basis: Sequence[Polynomial],
                order: Order = GREVLEX) -> Polynomial:
    """Fully reduce f: no remainder monomial is divisible by any basis LM.
    The first basis element whose LM divides reduces; once `basis` is a
    Groebner basis any choice gives the same remainder. A basis element
    from another ring raises FieldMismatchError or DimensionMismatchError."""
    for g in basis:
        f._check(g)
    basis = [g for g in basis if g]
    P = _Packing(f.nvars, order, max(g.degree() for g in [f, *basis]))
    reducers = [P.reducer(P.pack(g), f.field) for g in basis]
    remainder = _reduce(P.pack(f), reducers, P, f.field)
    return Polynomial(f.field, f.nvars,
                      {P.exps(k): c for k, c in remainder.items()})


def _interreduce(G: list, P: _Packing, F: FieldSpec) -> list:
    """Minimalize the leading monomials of the monic G, then fully reduce
    each tail; the output is monic and ascending by leading monomial."""
    minimal, red = [], []
    for g in sorted(G, key=max):
        if not any(P.divides(h[1], max(g)) for h in red):
            minimal.append(g)
            red.append(P.reducer(g, F))
    return [_reduce(dict(g), red[:i] + red[i + 1:], P, F)
            for i, g in enumerate(minimal)]


def buchberger(ideal: Ideal, order: Order = GREVLEX) -> GroebnerBasis:
    """Buchberger with normal pair selection plus product and chain
    criteria; pairs come off a heap by (deg lcm, lcm, i, j)."""
    F, nvars = ideal.field, ideal.nvars
    P = _Packing(nvars, order, max(g.degree() for g in ideal.gens))
    G, red, lms, pairs, pending = [], [], [], [], set()

    def admit(g: dict):
        G.append(g)
        red.append(P.reducer(g, F))
        lms.append(P.exps(red[-1][0]))
        new = len(G) - 1
        for t in range(new):
            lcm = tuple(map(max, lms[t], lms[new]))
            heapq.heappush(pairs, (sum(lcm), P.key(lcm), t, new))
            pending.add((t, new))

    for g in ideal.gens:
        g = _monic(P.pack(g), F)
        if g not in G:
            admit(g)
    handled = 0
    while pairs:
        handled += 1
        if handled > MAX_PAIRS:
            raise BudgetExceededError(
                f"S-pair budget {MAX_PAIRS} exhausted ({len(G)} basis elements)")
        _, lcm, i, j = heapq.heappop(pairs)
        pending.remove((i, j))
        (li, _, si, ti), (lj, _, sj, tj) = red[i], red[j]
        if lcm == li + lj:
            continue  # coprime leading monomials reduce to zero
        if any(k != i and k != j and P.divides(red[k][1], lcm)
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending
               for k in range(len(G))):
            continue  # the chain criterion
        P.fit(lcm - li, si)
        P.fit(lcm - lj, sj)
        s = {lcm - li + k: a for k, a in ti}  # minus the S-polynomial
        for k, a in tj:
            k += lcm - lj
            s[k] = F.sub(s.get(k, 0), a)
        r = _reduce(s, red, P, F)
        if r:
            admit(_monic(r, F))
    return GroebnerBasis(ideal, order, tuple(
        Polynomial(F, nvars, {P.exps(k): c for k, c in g.items()})
        for g in _interreduce(G, P, F)))


# --- Hilbert series numerator for monomial ideals ---

def _minimalize(gens: list) -> list:
    out = []
    for g in sorted(set(gens), key=lambda m: (sum(m), m)):
        if not any(all(a <= b for a, b in zip(h, g)) for h in out):
            out.append(g)
    return out


def hilbert_numerator(gens: Sequence[tuple]) -> list:
    """Numerator of sum_t dim_t z^t over the standard (1-z)^-nvars factor,
    for the quotient by a monomial ideal. Ascending integer coefficients."""
    gens = _minimalize(list(gens))
    if not gens:
        return [1]
    nvars = len(gens[0])
    share = [sum(1 for g in gens if g[w]) for w in range(nvars)]
    if max(share, default=0) <= 1:  # pairwise coprime: prod (1 - z^deg g)
        out = [1]
        for d in map(sum, gens):  # times (1 - z^d)
            out = [c - (out[i - d] if i >= d else 0)
                   for i, c in enumerate(out + [0] * d)]
        return out
    # pivot on the variable most generators share, the first of those
    v = max(range(nvars), key=lambda w: (share[w], -w))
    pivot = tuple(1 if i == v else 0 for i in range(nvars))
    with_pivot = _minimalize([pivot] + [g for g in gens if g[v] == 0])
    colon = _minimalize([
        tuple(e - 1 if i == v and e else e for i, e in enumerate(g))
        for g in gens])
    return [a + b for a, b in itertools.zip_longest(
        hilbert_numerator(with_pivot), [0] + hilbert_numerator(colon),
        fillvalue=0)]


@dataclass(frozen=True)
class HilbertData:
    """Hilbert function values, the Hilbert polynomial (exact rational
    coefficients, ascending), and the dimension/degree they imply.

    `values` is h(0..T) for T = max(T0, deg N) as in the module docstring,
    at most t = 1000; from t = deg N - nvars + 1 on, h equals the polynomial.
    dim is the projective dimension of the vanishing locus; the empty scheme
    reports dim -1 and degree 0 rather than raising.
    """

    values: tuple
    poly_coeffs: tuple
    dim: int
    degree: int

    @property
    def empty(self) -> bool:
        return self.dim == -1

    def poly_at(self, t: int) -> Fraction:
        return sum((c * t ** i for i, c in enumerate(self.poly_coeffs)),
                   Fraction(0))

    def to_json_dict(self) -> dict:
        return {
            "values": list(self.values),
            "poly": [[c.numerator, c.denominator] for c in self.poly_coeffs],
            "dim": self.dim,
            "degree": self.degree,
            "empty": self.empty,
        }


def hilbert(gb: GroebnerBasis) -> HilbertData:
    """Hilbert function, polynomial, dimension, and degree from a basis.

    Requires every basis element homogeneous. The quotient's Hilbert function
    equals that of the initial ideal, so only leading monomials enter. Their
    lcm bounds deg N, so the cap is checked before any numerator work.
    """
    for g in gb.basis:
        if not g.homogeneous:
            raise NotHomogeneousError("Hilbert data needs a homogeneous ideal")
    nvars = gb.ideal.nvars
    lms = gb.leading_monomials()
    t0 = max(map(sum, lms), default=0) + max(nvars, 4) + nvars
    reach = max(t0, sum(map(max, zip(*lms))))  # the degree of their lcm
    if reach > DEGREE_CAP:
        raise BudgetExceededError(
            f"Hilbert function range t = 0..{reach} is over the cap "
            f"t = {DEGREE_CAP}")
    num = hilbert_numerator(lms)
    deg_num = max((j for j, c in enumerate(num) if c), default=0)
    values = [sum(c * math.comb(t - j + nvars - 1, nvars - 1)
                  for j, c in enumerate(num[:t + 1]) if c)
              for t in range(max(t0, deg_num) + 1)]
    return _finish_hilbert(values, _hilbert_polynomial(num, nvars))


def _hilbert_polynomial(num: list, nvars: int) -> list:
    """Ascending Fraction coefficients of sum_j N_j * C(t - j + nvars - 1,
    nvars - 1), trailing zeros trimmed; built over the integers, scaled by
    (nvars - 1)!, and divided once at the end."""
    total = [0] * nvars
    for j, c in enumerate(num):
        if not c:
            continue
        term = [c]
        for i in range(1, nvars):  # times (t - j + i)
            term = [a * (i - j) + b for a, b in zip(term + [0], [0] + term)]
        for k, a in enumerate(term):
            total[k] += a
    scale = math.factorial(nvars - 1)
    coeffs = [Fraction(a, scale) for a in total]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _finish_hilbert(values: list, coeffs: list) -> HilbertData:
    if len(coeffs) == 1 and coeffs[0] == 0:
        return HilbertData(tuple(values), (Fraction(0),), -1, 0)
    dim = len(coeffs) - 1
    lead = coeffs[-1] * math.factorial(dim)
    if lead.denominator != 1 or lead <= 0:
        raise ArithmeticError(f"leading term {coeffs[-1]} is not a valid degree")
    return HilbertData(tuple(values), tuple(coeffs), dim, int(lead))


def hilbert_of_ideal(ideal: Ideal, order: Order = GREVLEX) -> HilbertData:
    return hilbert(buchberger(ideal, order))


def hyperplane_section(ideal: Ideal, form: Polynomial,
                       order: Order = GREVLEX):
    """(ideal + (form), HilbertData of the section). `form` must be a
    nonzero homogeneous linear polynomial in the same ring."""
    if form.is_zero() or form.degree() != 1 or not form.homogeneous:
        raise ValueError("section needs a nonzero linear form")
    bigger = ideal.plus(form)
    return bigger, hilbert_of_ideal(bigger, order)

"""Groebner bases and Hilbert functions for homogeneous ideals.

Buchberger's algorithm with the product and chain criteria produces a
reduced monic basis. Dimension and degree come from the Hilbert series
N(z)/(1-z)^nvars of the initial ideal, with N from an exact recursion on
monomial ideals (Bayer and Stillman 1992): the Hilbert polynomial is
sum_j N_j * C(t - j + nvars - 1, nvars - 1), in exact rationals.
`HilbertData.values` holds h(0..T), T = max(T0, deg N), where T0 = (largest
leading-monomial degree) + max(nvars, 4) + nvars. An ideal whose T0 or
leading-monomial lcm degree exceeds 1000 raises BudgetExceededError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import BudgetExceededError, NotHomogeneousError
from .gf import FieldSpec
from .mpoly import (
    DEGREE_CAP,
    GREVLEX,
    Order,
    Polynomial,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

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


def spoly(f: Polynomial, g: Polynomial, order: Order = GREVLEX) -> Polynomial:
    lf, lg = f.leading_monomial(order), g.leading_monomial(order)
    lcm = mono_lcm(lf, lg)
    F = f.field
    return (f.times_term(F.inv(f.terms[lf]), mono_div(lcm, lf))
            - g.times_term(F.inv(g.terms[lg]), mono_div(lcm, lg)))


def normal_form(f: Polynomial, basis: Sequence[Polynomial],
                order: Order = GREVLEX) -> Polynomial:
    """Fully reduce f: no remainder monomial is divisible by any basis LM.
    The first basis element whose LM divides reduces; once `basis` is a
    Groebner basis any choice gives the same remainder."""
    F = f.field
    basis = [g for g in basis if not g.is_zero()]
    lms = [g.leading_monomial(order) for g in basis]
    remainder = Polynomial.zero(f.field, f.nvars)
    p = f
    while p:
        lm = p.leading_monomial(order)
        i = next((i for i, m in enumerate(lms) if mono_divides(m, lm)), None)
        if i is not None:
            g = basis[i]
            c = F.mul(p.terms[lm], F.inv(g.terms[lms[i]]))
            p = p - g.times_term(c, mono_div(lm, lms[i]))
        else:
            lt = Polynomial(f.field, f.nvars, {lm: p.terms[lm]})
            remainder = remainder + lt
            p = p - lt
    return remainder


def _interreduce(polys: list, order: Order) -> list:
    """Minimalize leading monomials, then fully reduce each tail; monic output."""
    polys = [g.monic(order) for g in polys if not g.is_zero()]
    minimal = []
    for g in sorted(polys, key=lambda g: order(g.leading_monomial(order))):
        lm = g.leading_monomial(order)
        if not any(mono_divides(h.leading_monomial(order), lm) for h in minimal):
            minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = normal_form(g, others, order)
        reduced.append(r.monic(order))
    reduced.sort(key=lambda g: order(g.leading_monomial(order)))
    return reduced


def buchberger(ideal: Ideal, order: Order = GREVLEX) -> GroebnerBasis:
    """Buchberger with normal pair selection plus product and chain criteria."""
    G = []
    for g in ideal.gens:
        g = g.monic(order)
        if g not in G:
            G.append(g)
    lm = [g.leading_monomial(order) for g in G]
    pairs = {(i, j) for j in range(len(G)) for i in range(j)}
    handled = 0
    while pairs:
        handled += 1
        if handled > MAX_PAIRS:
            raise BudgetExceededError(
                f"S-pair budget {MAX_PAIRS} exhausted ({len(G)} basis elements)")
        i, j = min(pairs, key=lambda ij: (
            mono_degree(mono_lcm(lm[ij[0]], lm[ij[1]])),
            order(mono_lcm(lm[ij[0]], lm[ij[1]])), ij))
        pairs.remove((i, j))
        lcm_ij = mono_lcm(lm[i], lm[j])
        if lcm_ij == mono_mul(lm[i], lm[j]):
            continue  # coprime leading monomials reduce to zero
        chain = False
        for k in range(len(G)):
            if k in (i, j) or not mono_divides(lm[k], lcm_ij):
                continue
            if (tuple(sorted((i, k))) not in pairs
                    and tuple(sorted((j, k))) not in pairs):
                chain = True
                break
        if chain:
            continue
        r = normal_form(spoly(G[i], G[j], order), G, order)
        if r.is_zero():
            continue
        r = r.monic(order)
        G.append(r)
        lm.append(r.leading_monomial(order))
        new = len(G) - 1
        pairs.update((t, new) for t in range(new))
    return GroebnerBasis(ideal, order, tuple(_interreduce(G, order)))


# --- Hilbert series numerator for monomial ideals ---

def _minimalize(gens: list) -> list:
    out = []
    for g in sorted(set(gens), key=lambda m: (mono_degree(m), m)):
        if not any(mono_divides(h, g) for h in out):
            out.append(g)
    return out


def _supports_disjoint(gens: list) -> bool:
    seen: set = set()
    for g in gens:
        sup = {i for i, e in enumerate(g) if e}
        if sup & seen:
            return False
        seen |= sup
    return True


def _poly_add(a: list, b: list) -> list:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def _poly_mul_1mz(coeffs: list, d: int) -> list:
    """Multiply an integer z-polynomial by (1 - z^d)."""
    out = coeffs + [0] * d
    for i, c in enumerate(coeffs):
        out[i + d] -= c
    return out


def hilbert_numerator(gens: Sequence[tuple]) -> list:
    """Numerator of sum_t dim_t z^t over the standard (1-z)^-nvars factor,
    for the quotient by a monomial ideal. Ascending integer coefficients."""
    gens = _minimalize(list(gens))
    if not gens:
        return [1]
    if _supports_disjoint(gens):
        out = [1]
        for g in gens:
            out = _poly_mul_1mz(out, mono_degree(g))
        return out
    # pivot on a variable of a non-pure-power generator, highest occurrence
    nvars = len(gens[0])
    mixed_vars = set()
    for g in gens:
        if sum(1 for e in g if e) >= 2:
            mixed_vars.update(i for i, e in enumerate(g) if e)
    v = max(mixed_vars, key=lambda w: (sum(1 for g in gens if g[w]), -w))
    pivot = tuple(1 if i == v else 0 for i in range(nvars))
    with_pivot = _minimalize([pivot] + [g for g in gens if g[v] == 0])
    colon = _minimalize([
        tuple(e - 1 if i == v and e else e for i, e in enumerate(g))
        for g in gens])
    return _poly_add(hilbert_numerator(with_pivot),
                     [0] + hilbert_numerator(colon))


def _values_from_numerator(num: list, nvars: int, tmax: int) -> list:
    return [sum(c * math.comb(t - j + nvars - 1, nvars - 1)
                for j, c in enumerate(num[:t + 1]) if c)
            for t in range(tmax + 1)]


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
    t0 = (max((mono_degree(m) for m in lms), default=0)
          + max(nvars, 4) + nvars)
    reach = max(t0, mono_degree(functools.reduce(mono_lcm, lms, (0,) * nvars)))
    if reach > DEGREE_CAP:
        raise BudgetExceededError(
            f"Hilbert function range t = 0..{reach} is over the cap "
            f"t = {DEGREE_CAP}")
    num = hilbert_numerator(lms)
    deg_num = max((j for j, c in enumerate(num) if c), default=0)
    values = _values_from_numerator(num, nvars, max(t0, deg_num))
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

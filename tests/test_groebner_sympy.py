"""Reduced Groebner bases against sympy's, on seeded homogeneous ideals.

sympy is a test-only reference here: the package itself has no runtime
dependencies. Both bases are made monic and compared as sets of term maps,
in grevlex and in lex, each with x0 > x1 > ...
"""

import random

import pytest

from fqpoints.gf import make_field
from fqpoints.groebner import GREVLEX, LEX, Ideal, buchberger
from fqpoints.mpoly import Polynomial, monomials_of_degree

sympy = pytest.importorskip("sympy")


def random_ideal(rng, F, nvars_choices=(3, 4)):
    nvars = rng.choice(nvars_choices)
    gens = []
    for _ in range(rng.choice((2, 3))):
        monos = monomials_of_degree(nvars, rng.choice((2, 3)))
        picked = rng.sample(monos, rng.randint(2, 4))
        gens.append(Polynomial.from_terms(
            F, nvars, [(m, rng.randrange(1, F.q)) for m in picked]))
    return Ideal.of(gens)


def sympy_basis(ideal, p, order="grevlex"):
    xs = sympy.symbols(f"x0:{ideal.nvars}")
    exprs = [sum(c * sympy.prod(x ** e for x, e in zip(xs, exps))
                 for exps, c in g.terms.items()) for g in ideal.gens]
    out = set()
    for g in sympy.groebner(exprs, *xs, modulus=p, order=order).polys:
        inv = pow(int(g.LC(order=order)), -1, p)
        out.add(frozenset((m, int(c) * inv % p) for m, c in g.terms()))
    return out


@pytest.mark.parametrize("p", [7, 101, 32003])
@pytest.mark.parametrize("seed", range(5))
def test_reduced_basis_matches_sympy(p, seed):
    F = make_field(p)
    ideal = random_ideal(random.Random(1000 * p + seed), F)
    ours = {frozenset(g.terms.items())
            for g in buchberger(ideal, GREVLEX).basis}
    assert ours == sympy_basis(ideal, p)


@pytest.mark.parametrize("p", [7, 101, 32003])
@pytest.mark.parametrize("seed", range(5))
def test_reduced_lex_basis_matches_sympy(p, seed):
    """Lex bases of these ideals in 4 variables take sympy seconds each, so
    the lex cases use 3."""
    F = make_field(p)
    ideal = random_ideal(random.Random(2000 * p + seed), F, (3,))
    ours = {frozenset(g.terms.items())
            for g in buchberger(ideal, LEX).basis}
    assert ours == sympy_basis(ideal, p, "lex")

"""The column evaluation kernel against per-point `Polynomial.evaluate`.

`variety._zero_mask_kernel` evaluates every polynomial on a block of points
at once, as coordinate columns: integer products mod p over a prime field,
log-domain terms added by XOR or as sums of digit codes over an extension.
The oracle here is the per-point `evaluate`, which walks each term with the
field's own mul, pow and add.

Seeded random documents over GF(2, 3, 4, 5, 7, 8, 9, 16) in P^1 to P^4, of
1 to 2 components with 1 to 2 generators of degree 0 to 4, are checked on
counts, `rational_points` order, census pencil valencies and `affine_chart`
section counts. Fixed cases add exponents at and past q, a form of degree
above q that vanishes everywhere, a union larger than one block, an empty
block, and one small case each over GF(101) and GF(2^12). Sums of up to
25 terms over GF(9), GF(25) and GF(27), whose digit sums would carry in
base 2p - 1, and a count and census over GF(3^10) that bound the
kernel's time and memory, check the odd-characteristic path.
"""

import random
import time
import tracemalloc

import pytest

from fqpoints.gf import field_from_order, make_field
from fqpoints.groebner import Ideal
from fqpoints.incidence import census_through_point
from fqpoints.mpoly import Polynomial, monomials_of_degree, parse_poly
from fqpoints.projgeom import (LinearSubspace, enumerate_hyperplanes,
                               enumerate_points, nullspace, pi)
from fqpoints.variety import (BLOCK, _union_points, _zero_mask_kernel,
                              _zero_tally, affine_chart, count_points,
                              load_variety, rational_points)

QS = (2, 3, 4, 5, 7, 8, 9, 16)
# ambient dimensions per q, small enough for the per-point oracle
DIMS = {2: (1, 2, 3, 4), 3: (1, 2, 3, 4), 4: (1, 2, 3), 5: (1, 2, 3),
        7: (1, 2), 8: (1, 2), 9: (1, 2), 16: (1, 2)}


def oracle_points(F, n, gens_per_component):
    """The union's points in enumeration order, one evaluate per test."""
    return [P for P in enumerate_points(n, F)
            if any(all(not g.evaluate(P) for g in gens)
                   for gens in gens_per_component)]


def random_form(rng, F, nvars, degree):
    """A form of the given degree with 1 to 4 terms; nonzero."""
    monos = monomials_of_degree(nvars, degree)
    els = list(F.elements())[1:]
    terms = {rng.choice(monos): rng.choice(els)
             for _ in range(rng.randint(1, 4))}
    return Polynomial(F, nvars, terms)


def random_document(rng, q):
    """(document text, n): 1-2 components of 1-2 generators each."""
    F = field_from_order(q)
    n = rng.choice(DIMS[q])
    lines = [f"field p={F.p} k={F.k}", f"space n={n}"]
    for i in range(rng.randint(1, 2)):
        lines.append(f"component name=c{i}")
        for _ in range(rng.randint(1, 2)):
            f = random_form(rng, F, n + 1, rng.randint(0, 4))
            lines.append(f"  poly {f}")
    return "\n".join(lines) + "\n", n


def documents(q, count=12):
    rng = random.Random(9000 + q)
    return [random_document(rng, q) for _ in range(count)]


@pytest.mark.parametrize("q", QS)
def test_documents_match_the_per_point_oracle(q):
    """rational_points in order, count_points, and each affine chart's
    section count, on seeded documents."""
    for text, n in documents(q):
        X = load_variety(text)
        want = oracle_points(X.field, n, [c.ideal.gens for c in X.components])
        assert rational_points(X) == want, text
        assert count_points(X).value == len(want)
        h = parse_poly(f"x0 + x{n}", X.field, n + 1)
        chart = affine_chart(X, h)
        assert chart.section_count == sum(1 for P in want
                                          if not h.evaluate(P)), text


@pytest.mark.parametrize("q", QS)
def test_pencil_valencies_match_contains(q):
    """Each census valency equals the number of V1 points that
    LinearSubspace.contains puts on the pencil member, a subspace built
    from the member's dual form by nullspace."""
    for text, n in documents(q):
        X = load_variety(text)
        pts = rational_points(X)
        if not pts:
            continue
        P = pts[-1]
        census = census_through_point(X, P)
        v1 = [Q for Q in pts if Q != P]
        members = [LinearSubspace(X.field, n,
                                  tuple(nullspace([w], X.field, n + 1)))
                   for w in enumerate_hyperplanes(n, X.field, through=P)]
        want = [sum(1 for Q in v1 if H.contains(Q)) for H in members]
        assert [v for _, v in census.valencies] == want, text


@pytest.mark.parametrize("q", QS)
def test_union_points_with_constants_and_high_exponents(q):
    """Generators of any degree, not homogeneous, with exponents up to
    2q + 1, and nonzero constants, through _union_points and count_points."""
    F = field_from_order(q)
    rng = random.Random(q)
    els = list(F.elements())
    for _ in range(6):
        n = rng.choice(DIMS[q])
        comps = []
        for _ in range(rng.randint(1, 2)):
            gens = []
            for _ in range(rng.randint(1, 2)):
                terms = {tuple(rng.randint(0, 2 * q + 1)
                               for _ in range(n + 1)): rng.choice(els[1:])
                         for _ in range(rng.randint(1, 3))}
                gens.append(Polynomial(F, n + 1, terms))
            comps.append(gens)
        assert _union_points(F, n, comps, 10 ** 7) == oracle_points(F, n, comps)
    const = Polynomial.constant(F, 3, els[-1])
    assert _union_points(F, 2, [[const]], 10 ** 7) == []
    ideal = Ideal(F, 3, (const,))
    assert count_points(ideal).value == 0


@pytest.mark.parametrize("q", (2, 3, 4, 5, 8, 9))
def test_degree_above_q_vanishing_everywhere(q):
    """x0^q*x1 - x0*x1^q is zero at every point of P^2(F_q)."""
    F = field_from_order(q)
    f = parse_poly(f"x0^{q}*x1 - x0*x1^{q}", F, 3)
    assert count_points(Ideal(F, 3, (f,))).value == pi(2, q)
    g = parse_poly(f"x0^{q}*x1 - x0*x1^{q} + x2^{2 * q}", F, 3)
    assert (_union_points(F, 2, [[g]], 10 ** 7)
            == oracle_points(F, 2, [[g]]))


def test_empty_block_and_single_point_census():
    F = field_from_order(9)
    polys = [parse_poly("x0 + a*x1", F, 2), parse_poly("x0^2", F, 2)]
    assert list(_zero_mask_kernel(F)([], polys)) == [[], []]
    assert _zero_tally(F, [], polys) == [0, 0]
    X = load_variety("field p=3 k=2\nspace n=2\ncomponent name=pt\n"
                     "  poly x1\n  poly x2\n")
    census = census_through_point(X, (1, 0, 0))
    assert census.ok and census.v1_size == 0 and census.edge_count == 0
    assert [v for _, v in census.valencies] == [0] * pi(1, 9)


@pytest.mark.parametrize("q, n, text", [
    (16, 3, "x0^3 + x1^3 + x2^3 + x3^3 + a*x0*x1*x2"),
    (8, 4, "x0*x1 + a*x2^2 + x3*x4"),
    (9, 4, "x0^2 + a*x1^2 + x2*x3 + x4^2"),
])
def test_union_larger_than_one_block(q, n, text):
    F = field_from_order(q)
    assert pi(n, q) > BLOCK
    f = parse_poly(text, F, n + 1)
    comps = [[f], [parse_poly("x0", F, n + 1), parse_poly("x1", F, n + 1)]]
    assert _union_points(F, n, comps, 10 ** 7) == oracle_points(F, n, comps)


def test_large_prime_field():
    """GF(101): no table of size p per exponent, and exponents past p."""
    F = make_field(101)
    f = parse_poly("x0^103 - x0^3 + 5*x1^2 - 7*x2^2 + x0*x1", F, 3)
    assert _union_points(F, 2, [[f]], 10 ** 7) == oracle_points(F, 2, [[f]])


def test_gf4096():
    """GF(2^12): log-domain terms added by XOR, over more than one block."""
    F = make_field(2, 12, "x^12+x^6+x^4+x+1")
    f = parse_poly("x0^2 + a*x0*x1 + (a^5+1)*x1^2", F, 2)
    g = parse_poly("x0^4097 + a^7*x1^4096", F, 2)
    comps = [[f], [g]]
    assert _union_points(F, 1, comps, 10 ** 7) == oracle_points(F, 1, comps)


def product_of_linear_factors(F, roots):
    """prod (x0 - r x1) over the roots: one term per degree, zero exactly
    at (r:1) for each root and nowhere else."""
    f = Polynomial.constant(F, 2, 1)
    for r in roots:
        f = f * Polynomial(F, 2, {(1, 0): 1, (0, 1): F.neg(r)})
    return f


@pytest.mark.parametrize("p, k, modulus", [
    (3, 2, None), (5, 2, "x^2+2"), (3, 3, "x^3+2*x+1")])
def test_odd_extension_sums_of_many_terms(p, k, modulus):
    """Sums of up to 25 terms over odd extensions, whose digit sums pass
    2p - 1, against the oracle."""
    F = make_field(p, k, modulus)
    rng = random.Random(F.q)
    els = list(F.elements())
    f = product_of_linear_factors(F, els[1:6])
    assert count_points(Ideal(F, 2, (f,))).value == 5
    monos = monomials_of_degree(3, 6)  # 28 monomials
    for _ in range(4):
        g = Polynomial(F, 3, {u: rng.choice(els[1:])
                              for u in rng.sample(monos, 25)})
        h = g * parse_poly("x0 - x1", F, 3)
        comps = [[g], [h, parse_poly("x2", F, 3)]]
        assert (_union_points(F, 2, comps, 10 ** 7)
                == oracle_points(F, 2, comps))


def test_large_odd_extension_counts_in_bounded_time_and_memory():
    """GF(3^10), q = 59049: the kernel's tables have O(q) entries, so a
    count and a census on P^1 take about a second and a few MB. Tables of
    (2p - 1)^k entries would take 5^10 of them, hundreds of MB."""
    X = load_variety(
        "field p=3 k=10 modulus=x^10+2*x^8+1\nspace n=1\n"
        "component name=sub\n  poly x0^243*x1 - x0*x1^243\n")
    F = X.field
    roots = [F.pow(F.gen(), 7 * i) for i in range(1, 8)]
    f = product_of_linear_factors(F, roots)
    start = time.perf_counter()
    pts = rational_points(X)  # P^1 over the subfield GF(3^5)
    census = census_through_point(X, pts[0])
    count = count_points(Ideal(F, 2, (f,))).value
    seconds = time.perf_counter() - start
    assert len(pts) == 244 and census.ok and count == 7
    assert pts == [P for P in enumerate_points(1, F)
                   if not X.components[0].ideal.gens[0].evaluate(P)]
    assert seconds < 10
    _zero_mask_kernel.cache_clear()  # build the tables again, traced
    tracemalloc.start()
    try:
        assert len(rational_points(X)) == 244
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_counts_and_census_make_no_per_point_evaluate(monkeypatch):
    """The kernel, not Polynomial.evaluate, serves count_points, the
    census and the affine chart's section count."""
    X = load_variety("field p=3 k=2\nspace n=3\ncomponent name=q\n"
                     "  poly x0*x1 - x2*x3\n")

    def forbidden(*args, **kwargs):
        raise AssertionError("per-point evaluate called")

    monkeypatch.setattr(Polynomial, "evaluate", forbidden)
    assert count_points(X).value == 100
    census = census_through_point(X, (0, 0, 0, 1))
    assert census.ok and census.v1_size == 99
    assert affine_chart(X, parse_poly("x0", X.field, 4)).section_count == 19

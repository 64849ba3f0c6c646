"""Buchberger, normal forms, and Hilbert data, cross-checked by brute force."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from fqpoints import groebner
from fqpoints.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    FieldMismatchError,
    NotHomogeneousError,
)
from fqpoints.gf import field_from_order, make_field
from fqpoints.groebner import (
    GroebnerBasis,
    HilbertData,
    Ideal,
    buchberger,
    hilbert,
    hilbert_numerator,
    hilbert_of_ideal,
    hyperplane_section,
    normal_form,
)
from fqpoints.mpoly import (
    DEGREE_CAP,
    GREVLEX,
    LEX,
    Polynomial,
    monomials_of_degree,
    parse_poly,
)
from fqpoints.projgeom import enumerate_points

GF2 = make_field(2)
GF3 = make_field(3)
GF4 = make_field(2, 2)


# Tuple-level monomials and S-polynomials: the oracles that the packed
# arithmetic inside groebner is checked against.

def mono_mul(u, v):
    return tuple(a + b for a, b in zip(u, v))


def mono_div(u, v):
    """u / v, assuming v divides u."""
    return tuple(a - b for a, b in zip(u, v))


def mono_lcm(u, v):
    return tuple(map(max, u, v))


def mono_divides(u, v):
    return all(a <= b for a, b in zip(u, v))


def times_term(f, coeff, exps):
    """f * coeff * x^exps."""
    return Polynomial(f.field, f.nvars, {mono_mul(e, exps): f.field.mul(c, coeff)
                                         for e, c in f.terms.items()})


def spoly(f, g, order):
    lf, lg = f.leading_monomial(order), g.leading_monomial(order)
    lcm = mono_lcm(lf, lg)
    F = f.field
    return (times_term(f, F.inv(f.terms[lf]), mono_div(lcm, lf))
            - times_term(g, F.inv(g.terms[lg]), mono_div(lcm, lg)))


def twisted_cubic_ideal(F):
    gens = [parse_poly(t, F, 4) for t in
            ("x0*x2-x1^2", "x0*x3-x1*x2", "x1*x3-x2^2")]
    return Ideal.of(gens)


def standard_monomial_count(lms, nvars, t):
    """Brute-force count of degree-t monomials outside the monomial ideal."""
    return sum(1 for m in monomials_of_degree(nvars, t)
               if not any(mono_divides(g, m) for g in lms))


def values_of(gens, nvars, tmax):
    """h(0..tmax) of the quotient by a monomial ideal, expanded from its
    Hilbert numerator N: h(t) = sum_{j <= t} N_j C(t - j + nvars - 1,
    nvars - 1)."""
    num = hilbert_numerator(gens)
    return [sum(c * math.comb(t - j + nvars - 1, nvars - 1)
                for j, c in enumerate(num[:t + 1]))
            for t in range(tmax + 1)]


def is_groebner(gb: GroebnerBasis) -> bool:
    """Buchberger's criterion, applied from scratch on tuples as an oracle:
    every S-pair reduces to zero, whatever reducer each step picks."""
    basis, rng = list(gb.basis), random.Random(1)
    return all(reduce_randomly(spoly(f, g, gb.order), basis, gb.order, rng)
               .is_zero() for f, g in itertools.combinations(basis, 2))


def test_twisted_cubic_basis():
    gb = buchberger(twisted_cubic_ideal(GF2))
    assert len(gb.basis) == 3
    assert set(gb.leading_monomials()) == {
        (0, 2, 0, 0), (0, 1, 1, 0), (0, 0, 2, 0)}
    assert is_groebner(gb)
    for g in twisted_cubic_ideal(GF2).gens:
        assert normal_form(g, gb.basis, gb.order).is_zero()


def test_buchberger_trivial_cases():
    x0 = parse_poly("x0", GF2, 2)
    gb = buchberger(Ideal.of([x0, x0]))
    assert gb.basis == (x0,)
    gb2 = buchberger(Ideal.of([parse_poly("x0+x1", GF2, 2),
                               parse_poly("x1", GF2, 2)]))
    assert set(gb2.basis) == {parse_poly("x0", GF2, 2), parse_poly("x1", GF2, 2)}


def test_basis_is_reduced_and_monic():
    gb = buchberger(twisted_cubic_ideal(GF3))
    lms = gb.leading_monomials()
    for g, lm in zip(gb.basis, lms):
        assert g.terms[lm] == 1
        for mono in g.terms:
            if mono != lm:
                assert not any(mono_divides(m, mono) for m in lms)
    # deterministic reconstruction
    again = buchberger(twisted_cubic_ideal(GF3))
    assert again.basis == gb.basis


def test_normal_form_examples():
    g = parse_poly("x0*x2+x1^2", GF2, 3)  # minus is plus over GF(2)
    assert normal_form(parse_poly("x1^2", GF2, 3), [g]) == parse_poly("x0*x2", GF2, 3)
    basis = [parse_poly("x0", GF2, 3), parse_poly("x1", GF2, 3)]
    assert normal_form(parse_poly("x0*x1+x2", GF2, 3), basis) == parse_poly("x2", GF2, 3)
    assert normal_form(parse_poly("x2^2", GF2, 3), basis) == parse_poly("x2^2", GF2, 3)


def reduce_randomly(f, basis, order, rng):
    """Full reduction of f that picks a random reducer among those whose
    leading monomial divides the current one."""
    F = f.field
    lms = [g.leading_monomial(order) for g in basis]
    remainder, p = Polynomial.zero(F, f.nvars), f
    while p:
        lm = p.leading_monomial(order)
        candidates = [i for i, m in enumerate(lms) if mono_divides(m, lm)]
        if candidates:
            i = rng.choice(candidates)
            c = F.mul(p.terms[lm], F.inv(basis[i].terms[lms[i]]))
            p = p - times_term(basis[i], c, mono_div(lm, lms[i]))
        else:
            lt = Polynomial(F, f.nvars, {lm: p.terms[lm]})
            remainder, p = remainder + lt, p - lt
    return remainder


def test_normal_form_is_confluent_on_groebner_bases():
    gb = buchberger(twisted_cubic_ideal(GF3))
    rng = random.Random(20240817)
    probes = [parse_poly(t, GF3, 4) for t in
              ("x0^2*x3+x1*x2^2", "x0*x1*x2+2*x3^3", "x1^2*x3^2+x0^3*x2",
               "x0^4+x1^4+x2^4+x3^4")]
    for f in probes:
        baseline = normal_form(f, gb.basis, gb.order)
        for _ in range(20):
            assert reduce_randomly(f, gb.basis, gb.order, rng) == baseline


def test_spoly_cancels_leading_terms():
    f = parse_poly("x0*x2+x1^2", GF3, 3)
    g = parse_poly("x0^2+x1*x2", GF3, 3)
    s = spoly(f, g, GREVLEX)
    lcm = mono_lcm(f.leading_monomial(GREVLEX), g.leading_monomial(GREVLEX))
    assert all(GREVLEX(m) < GREVLEX(lcm) for m in s.terms)


def test_packing_agrees_with_tuple_monomials():
    """Every monomial of degree <= 4 in 3 variables, under both orders:
    pack/unpack round-trips, int order is the term order, the packed
    product is the sum, and the guard-bit test is componentwise <=."""
    assert mono_mul((1, 0), (0, 2)) == (1, 2)
    assert mono_divides((1, 0), (1, 2)) and not mono_divides((2, 0), (1, 2))
    assert mono_div((3, 2), (1, 2)) == (2, 0)
    assert mono_lcm((3, 0), (1, 2)) == (3, 2)
    monos = [m for d in range(5) for m in monomials_of_degree(3, d)]
    for order in (LEX, GREVLEX):
        P = groebner._Packing(3, order, 4)
        keys = {m: P.key(m) for m in monos}
        assert all(P.exps(keys[m]) == m for m in monos)
        for u, v in itertools.product(monos, repeat=2):
            assert (keys[u] < keys[v]) == (order(u) < order(v))
            assert keys[u] + keys[v] == P.key(mono_mul(u, v))
            assert P.divides(P.vec(keys[u]), keys[v]) == mono_divides(u, v)


def test_normal_form_refuses_a_basis_from_another_ring():
    f = parse_poly("x0*x1+x2^2", GF3, 3)
    with pytest.raises(FieldMismatchError):
        normal_form(f, [parse_poly("x0", GF2, 3)])
    with pytest.raises(DimensionMismatchError):
        normal_form(f, [parse_poly("x0", GF3, 4)])


def test_grevlex_reduction_past_the_degree_cap_is_exact():
    """The parser allows a monomial of degree above DEGREE_CAP; the packing
    widens for it, and the answer is the tuple reference's."""
    gb = buchberger(twisted_cubic_ideal(GF3))
    f = parse_poly("x0^5000*x1+2*x1^2*x3^4999+x2^5001", GF3, 4)
    assert f.degree() > DEGREE_CAP
    expected = reduce_randomly(f, gb.basis, gb.order, random.Random(7))
    assert normal_form(f, gb.basis, gb.order) == expected


def test_lex_reduction_past_the_width_is_refused():
    """x0 - x1^3 turns x0^e into x1^(3e) under LEX. The width comes from
    max(input degree, DEGREE_CAP), so e = 300 fits and e = 600 does not."""
    cap = 2 ** DEGREE_CAP.bit_length() - 1
    g = parse_poly("x0-x1^3", GF3, 2)
    assert (normal_form(parse_poly("x0^300", GF3, 2), [g], LEX)
            == parse_poly("x1^900", GF3, 2))
    with pytest.raises(BudgetExceededError, match=f"cap {cap}"):
        normal_form(parse_poly("x0^600", GF3, 2), [g], LEX)
    with pytest.raises(BudgetExceededError, match=f"cap {cap}"):
        buchberger(Ideal.of([g, parse_poly("x0^600+x1", GF3, 2)]), LEX)


def test_hilbert_single_quadric_in_three_vars():
    hd = hilbert_of_ideal(Ideal.of([parse_poly("x0*x1", GF2, 3)]))
    assert hd.values[:4] == (1, 3, 5, 7)
    assert hd.dim == 1 and hd.degree == 2 and not hd.empty
    assert hd.poly_coeffs == (Fraction(1), Fraction(2))


def test_hilbert_twisted_cubic():
    hd = hilbert_of_ideal(twisted_cubic_ideal(GF2))
    assert hd.dim == 1 and hd.degree == 3
    assert hd.poly_coeffs == (Fraction(1), Fraction(3))
    assert hd.values[:4] == (1, 4, 7, 10)


def test_twisted_cubic_point_counts_match_dimension_story():
    # an exact nonformula cross-check: q + 1 points for q = 2, 3, 4
    for F in (GF2, GF3, GF4):
        gens = twisted_cubic_ideal(F).gens
        hits = [P for P in enumerate_points(3, F)
                if all(g.evaluate(P) == 0 for g in gens)]
        assert len(hits) == F.q + 1


def test_hilbert_linear_subspace_cases():
    hd = hilbert_of_ideal(Ideal.of([parse_poly("x0", GF2, 3)]))
    assert (hd.dim, hd.degree) == (1, 1)
    hd2 = hilbert_of_ideal(Ideal.of([parse_poly("x0", GF2, 3),
                                     parse_poly("x1", GF2, 3)]))
    assert (hd2.dim, hd2.degree) == (0, 1)
    assert hd2.values[:3] == (1, 1, 1)


def test_hilbert_empty_scheme_reports_values_not_an_error():
    hd = hilbert_of_ideal(Ideal.of([parse_poly(t, GF2, 3)
                                    for t in ("x0", "x1", "x2")]))
    assert hd.empty and hd.dim == -1 and hd.degree == 0
    assert hd.values[0] == 1 and all(v == 0 for v in hd.values[1:])


def test_hilbert_requires_homogeneous():
    gb = buchberger(Ideal.of([parse_poly("x0^2+x1", GF2, 3)]))
    with pytest.raises(NotHomogeneousError):
        hilbert(gb)


def test_hilbert_numerator_base_cases():
    assert hilbert_numerator([]) == [1]
    assert hilbert_numerator([(2, 0)]) == [1, 0, -1]
    # pairwise coprime: product of (1 - z^d)
    assert hilbert_numerator([(1, 0, 0), (0, 2, 0)]) == [1, -1, -1, 1]


def test_hilbert_values_match_standard_monomial_enumeration():
    rng = random.Random(4242)
    for _ in range(50):
        nvars = rng.randint(2, 4)
        gens = []
        for _ in range(rng.randint(1, 5)):
            exps = [0] * nvars
            for _ in range(rng.randint(1, 4)):
                exps[rng.randrange(nvars)] += 1
            gens.append(tuple(exps))
        vals = values_of(gens, nvars, 8)
        for t in range(9):
            assert vals[t] == standard_monomial_count(gens, nvars, t)


def test_hilbert_respects_order_choice():
    for F, texts in [(GF2, ("x0*x2-x1^2", "x0*x3-x1*x2", "x1*x3-x2^2")),
                     (GF3, ("x0^2+x1*x2", "x1^2+2*x0*x2")),
                     (GF2, ("x0*x1+x2^2",))]:
        nvars = 4 if len(texts) == 3 else 3
        ideal = Ideal.of([parse_poly(t, F, nvars) for t in texts])
        by_grevlex, by_lex = buchberger(ideal, GREVLEX), buchberger(ideal, LEX)
        assert is_groebner(by_grevlex) and is_groebner(by_lex)
        a, b = hilbert(by_grevlex), hilbert(by_lex)
        assert (a.dim, a.degree) == (b.dim, b.degree)


def test_hyperplane_section_examples():
    cubic = twisted_cubic_ideal(GF2)
    _, hd = hyperplane_section(cubic, parse_poly("x3", GF2, 4))
    assert (hd.dim, hd.degree) == (0, 3)
    line = Ideal.of([parse_poly("x0", GF2, 4), parse_poly("x1", GF2, 4)])
    _, hd2 = hyperplane_section(line, parse_poly("x2", GF2, 4))
    assert (hd2.dim, hd2.degree) == (0, 1)
    # cutting a point with a form that misses it empties the scheme
    pt = Ideal.of([parse_poly("x0", GF2, 3), parse_poly("x1", GF2, 3)])
    _, hd_empty = hyperplane_section(pt, parse_poly("x2", GF2, 3))
    assert hd_empty.empty
    plane = Ideal.of([parse_poly("x0", GF2, 3)])
    _, hd3 = hyperplane_section(plane, parse_poly("x0", GF2, 3))
    assert (hd3.dim, hd3.degree) == (1, 1)


def test_hyperplane_section_rejects_nonlinear():
    with pytest.raises(ValueError):
        hyperplane_section(twisted_cubic_ideal(GF2), parse_poly("x0^2", GF2, 4))


def test_section_recurrence_for_prime_ideals():
    """For h outside a prime ideal, the section Hilbert polynomial is the
    first difference P(t) - P(t-1), and (dim, degree) drop to (d-1, same)."""
    rng = random.Random(99)
    cases = [
        (twisted_cubic_ideal(GF2), 4, GF2),
        (Ideal.of([parse_poly("x0*x3-x1*x2", GF2, 4)]), 4, GF2),
        (Ideal.of([parse_poly("x0*x2-x1^2", GF3, 3)]), 3, GF3),
        (Ideal.of([parse_poly("x0", GF2, 4)]), 4, GF2),
    ]
    for ideal, nvars, F in cases:
        gb = buchberger(ideal)
        hd = hilbert(gb)
        els = list(F.elements())
        tried = 0
        while tried < 5:
            coeffs = [rng.choice(els) for _ in range(nvars)]
            if not any(coeffs):
                continue
            h = Polynomial.from_terms(
                F, nvars,
                [(tuple(1 if j == i else 0 for j in range(nvars)), c)
                 for i, c in enumerate(coeffs)])
            if normal_form(h, gb.basis, gb.order).is_zero():
                continue
            tried += 1
            _, sec = hyperplane_section(ideal, h)
            assert sec.dim == hd.dim - 1
            assert sec.degree == hd.degree
            for t in range(1, 6):
                assert sec.poly_at(t) == hd.poly_at(t) - hd.poly_at(t - 1)


def test_budget_guards(monkeypatch):
    with monkeypatch.context() as m, pytest.raises(BudgetExceededError):
        m.setattr(groebner, "MAX_PAIRS", 0)
        buchberger(twisted_cubic_ideal(GF2))
    # x0^61 in one variable: the exact answer, well inside the t cap
    hd = hilbert_of_ideal(Ideal.of([parse_poly("x0^61", GF2, 1)]))
    assert (hd.dim, hd.degree) == (-1, 0)
    assert len(hd.values) > 61
    assert hd.values == (1,) * 61 + (0,) * (len(hd.values) - 61)
    # the lcm x0^600*x1^600 has degree 1200, past the cap, although the
    # largest generator degree alone (600) is not
    past_cap = Ideal.of([parse_poly("x0^600", GF2, 2),
                         parse_poly("x1^600", GF2, 2)])
    with pytest.raises(BudgetExceededError, match="over the cap"):
        hilbert_of_ideal(past_cap)


def test_budget_is_checked_before_the_numerator(monkeypatch):
    def refuse(gens):
        raise AssertionError("numerator computed past the cap")

    monkeypatch.setattr("fqpoints.groebner.hilbert_numerator", refuse)
    with pytest.raises(BudgetExceededError):
        hilbert_of_ideal(Ideal.of([parse_poly("x0^1001", GF2, 2)]))


def test_values_reach_past_the_numerator_degree():
    # N = (1 - z^5)^3 has degree 15, past T0 = 5 + 4 + 3 = 12
    gens = [parse_poly(f"x{i}^5", GF2, 3) for i in range(3)]
    hd = hilbert_of_ideal(Ideal.of(gens))
    assert hd.empty
    assert hd.values == tuple(_ci_series(3, [5, 5, 5], 16))
    assert hd.values[12:] == (1, 0, 0, 0)


def test_quadric_in_p29():
    nvars = 30
    hd = hilbert_of_ideal(Ideal.of([parse_poly("x0^2+x1*x2", GF3, nvars)]))
    assert (hd.dim, hd.degree) == (28, 2)
    assert len(hd.values) == 63  # t = 0..2 + 30 + 30
    for t, v in enumerate(hd.values):
        assert v == math.comb(t + 29, 29) - math.comb(t + 27, 29)


def _ci_series(nvars, degrees, count):
    """First `count` coefficients of prod(1 - z^d) / (1 - z)^nvars."""
    series = [1] + [0] * (count - 1)
    for d in degrees:
        series = [c - (series[t - d] if t >= d else 0)
                  for t, c in enumerate(series)]
    for _ in range(nvars):
        series = list(itertools.accumulate(series))
    return series


def _triangular_ci(rng, F, nvars, degrees):
    """g_i = x_i^(d_i) + terms in x_i..x_n of x_i-degree below d_i, then
    x_j <- x_j + (random combination of x_0..x_(j-1)). Each g_i is monic in
    x_i over k[x_(i+1)..x_n], so the g_i are a complete intersection, and a
    unitriangular change of coordinates keeps them one."""
    els = list(F.elements())
    gens = []
    for i, d in enumerate(degrees):
        lead = tuple(d if j == i else 0 for j in range(nvars))
        tails = [m for m in monomials_of_degree(nvars, d)
                 if not any(m[:i]) and m[i] < d]
        picked = rng.sample(tails, min(6, len(tails)))
        terms = [(lead, 1)] + [(m, rng.choice(els)) for m in picked]
        gens.append(Polynomial.from_terms(F, nvars, terms))
    rows = [[1 if m == j else (rng.choice(els) if m < j else 0)
             for m in range(nvars)] for j in range(nvars)]
    return [g.compose_linear(rows, nvars) for g in gens]


CI_DEGREES = [(2,), (3,), (1, 2), (2, 2), (2, 3), (3, 3), (1, 1, 2), (1, 2, 2),
              (1, 2, 3), (2, 2, 2)]


@pytest.mark.parametrize("q, n", [(q, n) for q in (2, 3, 4, 7)
                                  for n in range(3, 7)])
def test_complete_intersections_match_the_series_formula(q, n):
    rng = random.Random(100 * q + n)
    F = field_from_order(q)
    degrees = rng.choice(CI_DEGREES)
    hd = hilbert_of_ideal(Ideal.of(_triangular_ci(rng, F, n + 1, degrees)))
    assert hd.dim == n - len(degrees)
    assert hd.degree == math.prod(degrees)
    assert list(hd.values) == _ci_series(n + 1, degrees, len(hd.values))
    # deg N = sum(d_i), so h is the Hilbert polynomial from t = sum(d_i) - n on
    for t in range(max(sum(degrees) - n, 0), len(hd.values)):
        assert hd.poly_at(t) == hd.values[t]


def test_hilbert_data_serialization():
    hd = hilbert_of_ideal(Ideal.of([parse_poly("x0*x1", GF2, 3)]))
    d = hd.to_json_dict()
    assert d["dim"] == 1 and d["degree"] == 2 and d["empty"] is False
    assert d["poly"] == [[1, 1], [2, 1]]


def test_ideal_validation():
    with pytest.raises(ValueError):
        Ideal.of([parse_poly("2*x0", GF2, 3)])  # canonical zero generator
    with pytest.raises(ValueError):
        Ideal.of([])

"""Polynomial arithmetic, parsing, orders, and chart transforms."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqpoints.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    NotHomogeneousError,
    ParseError,
    UnknownVariableError,
    WrongFieldError,
)
from fqpoints.gf import make_field
from fqpoints.mpoly import (
    GREVLEX,
    LEX,
    NESTING_CAP,
    TERM_WORK_CAP,
    Polynomial,
    dehomogenize,
    form_vector,
    linear_form,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
    parse_poly,
)

GF2 = make_field(2)
GF3 = make_field(3)
GF4 = make_field(2, 2)
GF5 = make_field(5)


def test_parse_homogeneous_quadric():
    f = parse_poly("x0^2+x1*x2", GF2, 3)
    assert f.homogeneous and f.degree() == 2
    assert f.terms == {(2, 0, 0): 1, (0, 1, 1): 1}


def test_parse_with_negative_coefficients():
    f = parse_poly("x0^3 - x1*x2^2", GF3, 3)
    expected = Polynomial.from_terms(GF3, 3, [((3, 0, 0), 1), ((0, 1, 2), 2)])
    assert f == expected and f.homogeneous


def test_parse_canonical_zero():
    f = parse_poly("2*x0", GF2, 3)
    assert f.is_zero() and f.degree() == -1


def test_parse_generator_coefficient():
    f = parse_poly("a*x0+x1", GF4, 2)
    assert f.terms[(1, 0)] == GF4.gen()
    g = parse_poly("(a+1)*x0^2", GF4, 2)
    assert g.terms[(2, 0)] == GF4.add(GF4.gen(), 1)


def test_parse_errors():
    with pytest.raises(UnknownVariableError):
        parse_poly("x5+x0", GF2, 3)
    with pytest.raises(WrongFieldError):
        parse_poly("a*x0", GF2, 2)
    with pytest.raises(ParseError):
        parse_poly("x0 + + x1", GF2, 2)
    with pytest.raises(ParseError):
        parse_poly("", GF2, 2)
    with pytest.raises(ParseError):
        parse_poly("2x0", GF2, 2)
    with pytest.raises(ParseError):
        parse_poly("x0 x1", GF2, 2)


def test_parse_caps_expanded_powers():
    # a power of a sum expands; over the degree cap it is refused unexpanded
    with pytest.raises(BudgetExceededError, match="over the cap 1000"):
        parse_poly("(x0+x1)^1001", GF2, 2)
    with pytest.raises(BudgetExceededError):
        parse_poly("((x0+x1)^40)^30", GF3, 2)
    assert parse_poly("(x0+x1)^1000", GF2, 2).degree() == 1000
    # a monomial's power is one term at any degree
    assert parse_poly("x0^300000", GF2, 2).terms == {(300000, 0): 1}


def test_parse_caps_term_work():
    # each multiplication is refused before it starts past TERM_WORK_CAP
    # coefficient products, in products and in a power's steps alike; over
    # GF(32003) no multinomial coefficient of degree <= 1000 vanishes
    GF32003 = make_field(32003)
    assert TERM_WORK_CAP == 300_000
    with pytest.raises(BudgetExceededError,
                       match=r"product of 601 by 601 terms in "):
        parse_poly("(x0+x1)^600*(x0+x1)^600", GF32003, 2)
    # its largest step multiplies 489 by 513 terms
    assert len(parse_poly("(x0+x1)^1000", GF32003, 2).terms) == 1001
    with pytest.raises(BudgetExceededError,
                       match=r"product of 561 by 561 terms in "
                             r"'\(x0\+x1\+x2\)\^1000'"):
        parse_poly("(x0+x1+x2)^1000", GF32003, 3)


def test_parse_caps_nesting():
    # parentheses and unary minus signs nest up to NESTING_CAP levels; past
    # it the parser refuses with a ParseError, never a RecursionError
    assert NESTING_CAP == 100
    assert parse_poly("(" * 100 + "x0" + ")" * 100, GF3, 2) == \
        parse_poly("x0", GF3, 2)
    assert parse_poly("-" * 100 + "x0", GF3, 2) == parse_poly("x0", GF3, 2)
    assert parse_poly("-(" * 50 + "x1" + ")" * 50, GF3, 2) == \
        parse_poly("x1", GF3, 2)
    for text in ("(" * 101 + "x0" + ")" * 101, "-" * 101 + "x0",
                 "(" * 10_000 + "1" + ")" * 10_000, "-" * 10_000 + "1",
                 "x0*(" + "-(" * 10_000 + "x1" + ")" * 10_001):
        with pytest.raises(ParseError, match="nested deeper than 100 levels"):
            parse_poly(text, GF3, 2)


def test_evaluate_examples():
    f = parse_poly("x0*x1+x2^2", GF3, 3)
    assert f.evaluate([1, 2, 1]) == 0
    assert f.evaluate([1, 1, 1]) == 2
    with pytest.raises(DimensionMismatchError):
        f.evaluate([1, 2])


def test_evaluate_zero_power_convention():
    f = parse_poly("x0^2", GF2, 2)
    assert f.evaluate([0, 1]) == 0
    g = parse_poly("1", GF2, 2)
    assert g.evaluate([0, 0]) == 1


def test_monomial_helpers():
    assert mono_mul((1, 0), (0, 2)) == (1, 2)
    assert mono_divides((1, 0), (1, 2)) and not mono_divides((2, 0), (1, 2))
    assert mono_div((3, 2), (1, 2)) == (2, 0)
    assert mono_lcm((3, 0), (1, 2)) == (3, 2)
    assert mono_degree((3, 2)) == 5


def test_leading_monomials_differ_by_order():
    f = parse_poly("x0*x2+x1^2", GF2, 3)
    assert f.leading_monomial(GREVLEX) == (0, 2, 0)
    assert f.leading_monomial(LEX) == (1, 0, 1)


def test_order_axioms_exhaustive():
    """Totality, multiplicativity, and graded/constant-minimal facts for
    every monomial pair of degree <= 4 in 3 variables."""
    monos = [m for d in range(5) for m in monomials_of_degree(3, d)]
    shifts = [m for d in range(3) for m in monomials_of_degree(3, d)]
    for order in (LEX, GREVLEX):
        keys = {m: order(m) for m in monos}
        for u, v in itertools.product(monos, repeat=2):
            assert (keys[u] < keys[v]) + (keys[u] == keys[v]) + (keys[u] > keys[v]) == 1
            if keys[u] < keys[v]:
                for w in shifts:
                    assert order(mono_mul(u, w)) < order(mono_mul(v, w))
        const = (0, 0, 0)
        for m in monos:
            if m != const:
                assert keys[const] < keys[m]
    # grevlex is graded: degree decides first
    for u, v in itertools.product(monos, repeat=2):
        if mono_degree(u) < mono_degree(v):
            assert GREVLEX(u) < GREVLEX(v)


def homogenize(g, i):
    """Insert a fresh variable at position i, padding every term of g to
    its total degree: the inverse of `dehomogenize(f, i)` when x_i does
    not divide the homogeneous f."""
    d = g.degree()
    return Polynomial.from_terms(
        g.field, g.nvars + 1,
        ((exps[:i] + (d - sum(exps),) + exps[i:], c)
         for exps, c in g.terms.items()))


def test_dehomogenize_and_roundtrip():
    f = parse_poly("x0*x2+x1^2", GF2, 3)
    g = dehomogenize(f, 0)
    assert g == parse_poly("x1+x0^2", GF2, 2)
    assert homogenize(g, 0) == f


def test_homogenize_appends_when_index_is_nvars():
    g = parse_poly("x1+x0^2", GF2, 2)
    h = homogenize(g, 2)
    assert h == parse_poly("x1*x2+x0^2", GF2, 3)
    assert h.homogeneous
    assert dehomogenize(h, 2) == g


def test_roundtrip_on_nontrivial_chart():
    f = parse_poly("x1*x3+x2^2", GF3, 4)
    for i in (0, 1, 3):
        g = dehomogenize(f, i)
        assert homogenize(g, i) == f


def test_dehomogenize_requires_homogeneous():
    with pytest.raises(NotHomogeneousError):
        dehomogenize(parse_poly("x0^2+x1", GF2, 2), 0)
    with pytest.raises(DimensionMismatchError):
        dehomogenize(parse_poly("x0^2", GF2, 2), 2)


def test_str_parse_roundtrip_examples():
    for text, F, n in [("x0^2+x1*x2", GF2, 3),
                       ("x0^3+2*x1*x2^2", GF3, 3),
                       ("a*x0^2+(a+1)*x1^2+x0*x1", GF4, 2)]:
        f = parse_poly(text, F, n)
        assert parse_poly(str(f), F, n) == f


def test_compose_linear_identity_and_swap():
    f = parse_poly("x0^2+x1*x2", GF3, 3)
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert f.compose_linear(ident, 3) == f
    swap01 = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert f.compose_linear(swap01, 3) == parse_poly("x1^2+x0*x2", GF3, 3)


def test_linear_form_and_form_vector_are_inverse():
    for F in (GF3, GF4):
        for vec in itertools.product(F.elements(), repeat=3):
            f = linear_form(F, vec)
            assert form_vector(f) == vec
            assert f.is_zero() or (f.degree() == 1 and f.homogeneous)
            point = (1, parse_poly("2", F, 1).evaluate((0,)), 0)
            assert f.evaluate(point) == F.add(vec[0],
                                              F.mul(vec[1], point[1]))


def test_monomials_of_degree_counts():
    # stars and bars: C(d + n - 1, n - 1)
    import math
    for n in (1, 2, 3, 4):
        for d in (0, 1, 2, 3, 4):
            monos = monomials_of_degree(n, d)
            assert len(monos) == math.comb(d + n - 1, n - 1)
            assert len(set(monos)) == len(monos)
            assert all(sum(m) == d for m in monos)


FIELDS = [GF2, GF3, GF4, GF5]


@st.composite
def field_poly_pairs(draw):
    F = draw(st.sampled_from(FIELDS))
    nvars = draw(st.integers(min_value=2, max_value=4))
    els = list(F.elements())

    def poly():
        items = []
        for _ in range(draw(st.integers(0, 5))):
            exps = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
            items.append((exps, draw(st.sampled_from(els))))
        return Polynomial.from_terms(F, nvars, items)

    point = [draw(st.sampled_from(els)) for _ in range(nvars)]
    return F, nvars, poly(), poly(), point


@settings(max_examples=60, deadline=None)
@given(field_poly_pairs())
def test_evaluation_is_a_ring_homomorphism(data):
    F, nvars, f, g, point = data
    assert (f + g).evaluate(point) == F.add(f.evaluate(point), g.evaluate(point))
    assert (f * g).evaluate(point) == F.mul(f.evaluate(point), g.evaluate(point))
    assert (f - g).evaluate(point) == F.sub(f.evaluate(point), g.evaluate(point))


@settings(max_examples=60, deadline=None)
@given(field_poly_pairs())
def test_print_parse_roundtrip(data):
    F, nvars, f, _, _ = data
    if f.is_zero():
        return
    assert parse_poly(str(f), F, nvars) == f


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_homogeneous_scaling(data):
    F = data.draw(st.sampled_from(FIELDS))
    nvars = data.draw(st.integers(2, 3))
    d = data.draw(st.integers(1, 3))
    els = list(F.elements())
    monos = monomials_of_degree(nvars, d)
    items = [(m, data.draw(st.sampled_from(els))) for m in monos]
    f = Polynomial.from_terms(F, nvars, items)
    lam = data.draw(st.sampled_from([e for e in els if e]))
    point = [data.draw(st.sampled_from(els)) for _ in range(nvars)]
    scaled = [F.mul(lam, c) for c in point]
    assert f.evaluate(scaled) == F.mul(F.pow(lam, d), f.evaluate(point))

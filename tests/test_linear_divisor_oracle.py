"""The linear-divisor search against a full normal_form scan.

`variety._linear_factor_sweep` answers "which normalized linear form first
divides f?" by a point test on the zero set of f when deg f <= q, and by
normal_form when deg f > q. The reference here tries every normalized form
of P^n in the same order with one `normal_form` each, the search the point
test replaces, so the two must agree form for form.

Seeded forms cover products l*g, which have a linear divisor, and random
forms of 3 to 6 terms, of which about a third have none, over GF(2, 3, 4,
5, 7, 8, 9), in P^1 to P^4, with degrees on both sides of q: 288 forms.
"""

import functools
import random

import pytest

from fqpoints import variety
from fqpoints.errors import BudgetExceededError
from fqpoints.gf import field_from_order
from fqpoints.groebner import normal_form
from fqpoints.mpoly import (GREVLEX, Polynomial, linear_form,
                            monomials_of_degree, parse_poly)
from fqpoints.projgeom import _normalized_tuples
from fqpoints.variety import (_linear_factor_sweep, classify_components,
                              load_variety)

# ambient dimensions per q, kept small enough that the reference scan of
# pi(n) normal_form calls per form stays cheap
DIMS = {2: (1, 2, 3, 4), 3: (1, 2, 3, 4), 4: (1, 2, 3), 5: (1, 2),
        7: (1, 2), 8: (1, 2), 9: (1, 2)}


def reference(f):
    """The first normalized linear form dividing f, by normal_form."""
    for w in _normalized_tuples(f.field, f.nvars):
        ell = linear_form(f.field, w)
        if normal_form(f, [ell], GREVLEX).is_zero():
            return ell
    return None


def random_form(rng, F, nvars, degree, terms):
    monos = monomials_of_degree(nvars, degree)
    nonzero = list(F.elements())[1:]
    return Polynomial.from_terms(F, nvars, [
        (m, rng.choice(nonzero))
        for m in rng.sample(monos, min(terms, len(monos)))])


@functools.lru_cache(maxsize=None)
def seeded_cases(q):
    """(f, reference(f)) for products l*g and random forms, with degrees
    <= q and > q; shared by the tests below."""
    F = field_from_order(q)
    rng = random.Random(f"linear-divisor/{q}")
    els = list(F.elements())
    forms = []
    for n in DIMS[q]:
        nvars = n + 1
        for degree in sorted({1, 2, min(q, 3), q + 1}):
            for _ in range(2):
                w = [0] * nvars
                while not any(w):
                    w = [rng.choice(els) for _ in range(nvars)]
                g = random_form(rng, F, nvars, degree - 1, rng.randint(1, 3))
                forms.append(linear_form(F, w) * g)
                forms.append(random_form(rng, F, nvars, degree,
                                         rng.randint(3, 6)))
    return tuple((f, reference(f)) for f in forms)


@pytest.mark.parametrize("q", sorted(DIMS))
def test_divisor_search_matches_normal_form_scan(q):
    outcomes = {True: 0, False: 0}
    for f, want in seeded_cases(q):
        assert _linear_factor_sweep(f) == want, str(f)
        if f.degree() <= q:
            outcomes[want is not None] += 1
    # both answers come up on the point-test path
    assert all(outcomes.values()), outcomes


@pytest.mark.parametrize("q", sorted(DIMS))
def test_classification_matches_reference(q):
    """A one-generator component of degree >= 2 is contained exactly when
    the reference finds a divisor, with that divisor as the witness."""
    F = field_from_order(q)
    for f, want in seeded_cases(q):
        if f.degree() < 2:
            continue  # degree-one generators take the degree_one_slice path
        X = load_variety(f"field p={F.p} k={F.k}\nspace n={f.nvars - 1}\n"
                         f"component name=C\n  poly {f}\n")
        c = classify_components(X).components[0]
        assert c.method == "linear_factor_sweep"
        if want is None:
            assert (c.hyperplane_status, c.witness) == ("clear_verified", None)
        else:
            assert (c.hyperplane_status, c.witness) == ("contained", str(want))


def test_degree_at_most_q_makes_no_normal_form_call(monkeypatch):
    """The hyperbolic quadric over GF(9) that census jobs classify."""
    X = load_variety("field p=3 k=2\nspace n=3\ncomponent name=Q\n"
                     "  poly x0*x1 - x2*x3\n")

    def forbidden(*args, **kwargs):
        raise AssertionError("normal_form called on the point-test path")

    monkeypatch.setattr(variety, "normal_form", forbidden)
    cls = classify_components(X)
    assert (cls.regime, cls.spanning_quality) == ("spanning", "verified")
    assert cls.components[0].hyperplane_status == "clear_verified"
    f = parse_poly("(x1 + a*x2)*(x0 + x3)", field_from_order(9), 4)
    assert str(_linear_factor_sweep(f)) == "x0+x3"


def test_degree_above_q_still_divides(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return normal_form(*args, **kwargs)

    monkeypatch.setattr(variety, "normal_form", counting)
    f = parse_poly("(x1 + x2 + x3)*(x0^2 + x0*x1 + x1^2)",
                   field_from_order(2), 4)
    assert str(_linear_factor_sweep(f)) == "x1+x2+x3"
    assert calls


@pytest.mark.parametrize("text", ["x0*x1 + x2*x3", "x0^3 + x1*x2*x3"])
def test_divisor_search_is_budgeted(monkeypatch, text):
    """pi(3) = 15 forms over GF(2) against a budget of 14: both the point
    test (degree 2) and the normal_form scan (degree 3) refuse up front."""
    f = parse_poly(text, field_from_order(2), 4)

    def forbidden(*args, **kwargs):
        raise AssertionError("scan started over budget")

    monkeypatch.setattr(variety, "DEFAULT_BUDGET", 14)
    monkeypatch.setattr(variety, "normal_form", forbidden)
    monkeypatch.setattr(variety, "_union_points", forbidden)
    with pytest.raises(BudgetExceededError):
        _linear_factor_sweep(f)

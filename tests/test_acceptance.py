"""Acceptance gate: ten exact end-to-end checks, one printed line each.

Every check compares machine-built data against an independent route
(enumeration vs formula, pipeline vs brute force, bound vs constructed
witness) at exact integer equality. A FAIL line names the criterion whose
data disagreed.
"""

import itertools
import math
import random

from fqpoints.bounds import (
    bound_equidimensional,
    bound_linear_arrangement,
    bound_projective,
    restriction_margin,
)
from fqpoints.sweeps import sweep_rows
from fqpoints.constructions import (
    build_extremal_arrangement,
    build_flower,
    build_partial_spread,
)
from fqpoints.gf import make_field
from fqpoints.groebner import (
    buchberger,
    hilbert,
    hilbert_numerator,
    hyperplane_section,
    normal_form,
)
from fqpoints.incidence import census_through_point
from fqpoints.mpoly import (GREVLEX, LEX, Polynomial, linear_form,
                            monomials_of_degree)
from fqpoints.projgeom import enumerate_hyperplanes, enumerate_points, pi
from fqpoints.variety import (
    affine_chart,
    count_points,
    load_variety,
    rational_points,
)

QS_SMALL = (2, 3, 4, 5)
QS_WIDE = (2, 3, 4, 5, 7, 8, 9)

CUBIC_TEMPLATE = """
field p={p} k={k}
space n=3
component name=curve dim=1 deg=3 irreducible=yes
poly x0*x2-x1^2
poly x0*x3-x1*x2
poly x1*x3-x2^2
"""


def _verdict(num: int, name: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"criterion {num} ({name}): {status}")
    assert not failures, f"criterion {num} ({name}): {failures[:5]}"


def _suite_varieties():
    import conftest
    docs = (conftest.TWISTED_CUBIC_DOC, conftest.SKEW_LINES_DOC,
            conftest.PLANE_LINE_DOC, conftest.QUADRIC_DOC,
            conftest.CONIC_IN_PLANE_DOC, conftest.LINE_AND_CUBIC_DOC)
    return [load_variety(doc) for doc in docs]


def test_criterion_1_pi_table_vs_enumeration():
    failures = []
    for q in QS_SMALL:
        field = make_field(2, 2) if q == 4 else make_field(q)
        for j in range(0, 5):
            brute = sum(1 for _ in enumerate_points(j, field))
            if pi(j, q) != brute:
                failures.append((j, q, pi(j, q), brute))
    _verdict(1, "pi table vs enumeration", failures)


def test_criterion_2_pi_identities():
    failures = []
    for q in QS_WIDE:
        for k in range(0, 13):
            if pi(k, q) != q * pi(k - 1, q) + 1:
                failures.append(("recursion", k, q))
            for el in range(0, k + 1):
                lhs = pi(k, q) - pi(el, q)
                rhs = q * (pi(k - 1, q) - pi(el - 1, q))
                if lhs != rhs:
                    failures.append(("difference", k, el, q))
    _verdict(2, "pi identities", failures)


def test_criterion_3_hypersurface_sweeps():
    failures = []
    cubics, bad1 = sweep_rows("all_hypersurfaces", n=2, degree=3, qs=(2,))
    quadrics, bad2 = sweep_rows("all_hypersurfaces", n=3, degree=2, qs=(2,))
    conics, bad3 = sweep_rows("all_hypersurfaces", n=2, degree=2, qs=(3,))
    if len(cubics) != 1023 or any(r["count"] > 7 for r in cubics):
        failures.append(("cubics/P2/q2", len(cubics)))
    if len(quadrics) != 1023 or any(r["count"] > 11 for r in quadrics):
        failures.append(("quadrics/P3/q2", len(quadrics)))
    if len(conics) != 364 or any(r["count"] > 7 for r in conics):
        failures.append(("conics/P2/q3", len(conics)))
    failures.extend(bad1 + bad2 + bad3)
    _verdict(3, "hypersurface count sweeps", failures)


def test_criterion_4_tight_constructions():
    failures = []
    for q, want in ((2, 19), (3, 37)):
        field = make_field(q)
        flower = build_flower(4, 2, 3, field)
        pts = set()
        for petal in flower.members:
            pts.update(petal.points())
        cap = bound_equidimensional(4, q, 2, 3).total
        if not (len(pts) == flower.point_count() == want == cap):
            failures.append(("flower", q, len(pts), want, cap))
    spread = build_partial_spread(3, 1, 5, make_field(2))
    pts = set()
    for m in spread.members:
        pts.update(m.points())
    cap = bound_equidimensional(3, 2, 1, 5).total
    if not (len(pts) == spread.point_count() == 15 == pi(3, 2) == cap):
        failures.append(("spread", 2, len(pts), cap))
    _verdict(4, "constructions meet bounds exactly", failures)


def test_criterion_5_twisted_cubic_end_to_end():
    failures = []
    rng = random.Random(423)
    for p, k, q in ((2, 1, 2), (3, 1, 3), (2, 2, 4)):
        X = load_variety(CUBIC_TEMPLATE.format(p=p, k=k))
        curve = X.component("curve")
        if (curve.dim, curve.degree) != (1, 3):
            failures.append(("dim/deg", q, curve.dim, curve.degree))
        got = count_points(X).value
        cap = bound_projective([(1, 3)], 3, q).total
        if got != q + 1 or got > cap or cap != 3 * (q + 1):
            failures.append(("count", q, got, cap))
        if q in (3, 4):  # 10 + 10 random section checks
            pool = list(enumerate_hyperplanes(3, X.field))
            for w in rng.sample(pool, 10):
                form = linear_form(X.field, w)
                if not normal_form(form, list(curve.gb.basis)):
                    failures.append(("hyperplane contains curve", q))
                    continue
                _, section = hyperplane_section(curve.ideal, form)
                if (section.dim, section.degree) != (0, 3):
                    failures.append(
                        ("section", q, str(form), section.dim, section.degree))
    _verdict(5, "twisted cubic end to end", failures)


def test_criterion_6_margin_grids():
    failures = []
    for q in QS_WIDE:
        for d in range(1, 7):
            for n in range(d + 1, 9):
                for delta in range(2, 11):
                    m = restriction_margin(n, q, d, delta)
                    if m.margin < 0 or m.affine_margin < 0:
                        failures.append((n, q, d, delta, m.margin,
                                         m.affine_margin))
    _verdict(6, "restriction and affine margins nonnegative", failures)


def test_criterion_7_incidence_census():
    failures = []
    cubic = load_variety(CUBIC_TEMPLATE.format(p=2, k=1))
    cases = [(cubic, rational_points(cubic)[0])]
    rng = random.Random(2026)
    field = make_field(2)
    degrees = (1, 2, 2, 3, 3)
    accepted = 0
    while accepted < 100:
        deg = degrees[rng.randrange(len(degrees))]
        monos = monomials_of_degree(4, deg)
        coeffs = [rng.randrange(2) for _ in monos]
        if not any(coeffs):
            continue
        f = Polynomial.from_terms(
            field, 4, [(m, c) for m, c in zip(monos, coeffs) if c])
        doc = f"field p=2 k=1\nspace n=3\ncomponent name=S\npoly {f}\n"
        X = load_variety(doc)
        pts = rational_points(X)
        if not pts:
            continue
        accepted += 1
        cases.append((X, pts[0]))
    for X, P in cases:
        census = census_through_point(X, P)
        count = census.v1_size + 1
        if census.edge_count != (count - 1) * pi(X.n - 2, X.q):
            failures.append(("edge identity", str(P), census.edge_count))
        if census.violations:
            failures.append(("valency cap", str(P), census.violations[:2]))
        if not census.ok:
            failures.append(("census checks", str(P)))
    _verdict(7, "incidence census identities", failures)


def test_criterion_8_arrangements_and_gap():
    failures = []
    for q in (2, 3):
        field = make_field(q)
        for dims, n in (([2, 1], 3), ([2, 2], 4)):
            spec = build_extremal_arrangement(dims, n, field)
            rep = bound_linear_arrangement(dims, n, q)
            if spec.point_count() != rep.total:
                failures.append(("equality", dims, n, q, spec.point_count(),
                                 rep.total))
            gap = rep.extra["gap_below_projective"]
            distinct = len(set(dims)) > 1
            if (gap > 0) != distinct:
                failures.append(("gap sign", dims, n, q, gap))
    _verdict(8, "extremal arrangements and bound gap", failures)


def test_criterion_9_hilbert_oracle_equivalence():
    failures = []
    rng = random.Random(9)
    for trial in range(50):
        nvars = rng.randrange(2, 5)
        gens = {tuple(rng.randrange(0, 3) for _ in range(nvars))
                for _ in range(rng.randrange(1, 5))}
        gens = [g for g in gens if sum(g) > 0] or [(1,) * nvars]
        gens = [g for g in gens if sum(g) <= 4]
        if not gens:
            continue
        tmax = 8
        num = hilbert_numerator(gens)
        pipeline = [sum(c * math.comb(t - j + nvars - 1, nvars - 1)
                        for j, c in enumerate(num[:t + 1]))
                    for t in range(tmax + 1)]
        for t in range(tmax + 1):
            brute = sum(
                1 for mono in monomials_of_degree(nvars, t)
                if not any(all(mono[i] >= g[i] for i in range(nvars))
                           for g in gens))
            if pipeline[t] != brute:
                failures.append((trial, t, pipeline[t], brute))
    for X in _suite_varieties():
        for comp in X.components:
            by_lex = hilbert(buchberger(comp.ideal, order=LEX))
            by_grevlex = hilbert(buchberger(comp.ideal, order=GREVLEX))
            if (by_lex.dim, by_lex.degree) != (by_grevlex.dim,
                                               by_grevlex.degree):
                failures.append((comp.name, by_lex.dim, by_grevlex.dim))
    _verdict(9, "hilbert pipeline vs direct enumeration", failures)


def test_criterion_10_affine_chart_identity():
    failures = []
    for X in _suite_varieties():
        whole = count_points(X).value
        for w in enumerate_hyperplanes(X.n, X.field):
            chart = affine_chart(X, linear_form(X.field, w))
            if chart.projective_count != chart.section_count + chart.affine_count:
                failures.append(("split", str(w), whole))
            cap = sum(comp.degree * X.q ** comp.dim
                      for comp in chart.components_off if comp.dim >= 0)
            if chart.affine_count > cap:
                failures.append(("affine bound", chart.affine_count, cap))
    _verdict(10, "affine chart splitting and bound", failures)

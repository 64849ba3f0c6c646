"""Variety loading, counting, classification, and affine charts."""

import pytest

from fqpoints.errors import (
    BudgetExceededError,
    DeclarationMismatchError,
    DegenerateComponentError,
    NotHomogeneousError,
    ParseError,
)
from fqpoints.gf import make_field
from fqpoints.groebner import Ideal
from fqpoints.mpoly import parse_poly
from fqpoints.projgeom import enumerate_hyperplanes, pi
from fqpoints.variety import (
    affine_chart,
    classify_components,
    count_points,
    dimension_degree_sequences,
    load_variety,
    rational_points,
)

from conftest import (
    CONIC_IN_PLANE_DOC,
    PLANE_LINE_DOC,
    SKEW_LINES_DOC,
    TWISTED_CUBIC_DOC,
)

GF2 = make_field(2)


def test_load_twisted_cubic(twisted_cubic):
    X = twisted_cubic
    assert X.n == 3 and X.q == 2
    assert len(X.components) == 1
    c = X.components[0]
    assert c.name == "curve" and (c.dim, c.degree) == (1, 3)
    assert c.irreducible_declared and not c.is_linear
    assert c.hyperplane_forms == ()
    assert X.irredundancy == "verified"


def test_component_accessor(twisted_cubic):
    assert twisted_cubic.component("curve").degree == 3
    with pytest.raises(KeyError):
        twisted_cubic.component("missing")


def test_count_examples(twisted_cubic, skew_lines, plane_line, quadric,
                        conic_in_plane):
    assert count_points(twisted_cubic).value == 3
    assert count_points(skew_lines).value == 6
    assert count_points(plane_line).value == 9
    assert count_points(quadric).value == 9
    assert count_points(conic_in_plane).value == 3
    pc = count_points(twisted_cubic)
    assert pc.method == "enumeration" and (pc.n, pc.q) == (3, 2)


def test_count_on_raw_ideal():
    ideal = Ideal.of([parse_poly("x0", GF2, 4)])
    assert count_points(ideal).value == pi(2, 2) == 7
    empty = Ideal.of([parse_poly(t, GF2, 4) for t in ("x0", "x1", "x2", "x3")])
    assert count_points(empty).value == 0


def test_rational_points_are_distinct_and_on_x(twisted_cubic):
    pts = rational_points(twisted_cubic)
    assert len(pts) == len(set(pts)) == 3
    for P in pts:
        assert all(g.evaluate(P) == 0
                   for g in twisted_cubic.components[0].ideal.gens)


def test_budget_guard(twisted_cubic):
    with pytest.raises(BudgetExceededError):
        rational_points(twisted_cubic, budget=3)


def test_union_is_deduplicated(plane_line):
    # plane has 7 points, line 3, and they share exactly one
    assert count_points(plane_line).value == 7 + 3 - 1


def test_declared_dimension_mismatch_raises():
    doc = TWISTED_CUBIC_DOC.replace("dim=1", "dim=2")
    with pytest.raises(DeclarationMismatchError):
        load_variety(doc)
    doc2 = TWISTED_CUBIC_DOC.replace("deg=3", "deg=2")
    with pytest.raises(DeclarationMismatchError):
        load_variety(doc2)


def test_degenerate_component_rejected():
    doc = """
field p=2 k=1
space n=2
component name=nothing
  poly 2*x0
"""
    with pytest.raises(DegenerateComponentError):
        load_variety(doc)


def test_inhomogeneous_generator_rejected():
    doc = """
field p=2 k=1
space n=2
component name=c
  poly x0^2+x1
"""
    with pytest.raises(NotHomogeneousError):
        load_variety(doc)


def test_parse_errors():
    with pytest.raises(ParseError):
        load_variety("space n=2\ncomponent name=c\n  poly x0\n")  # no field
    with pytest.raises(ParseError):
        load_variety("field p=2 k=1\ncomponent name=c\n  poly x0\n")  # no space
    with pytest.raises(ParseError):
        load_variety("field p=2 k=1\nspace n=2\n  poly x0\n")  # poly first
    with pytest.raises(ParseError):
        load_variety("field p=2 k=1\nspace n=2\nwhat now\n")
    with pytest.raises(ParseError):
        load_variety(
            "field p=2 k=1\nspace n=2\n"
            "component name=c\n  poly x0\ncomponent name=c\n  poly x1\n")
    with pytest.raises(ParseError):
        load_variety("field p=2 k=1\nspace n=2\n")  # no components


def test_comments_and_blank_lines_ignored():
    doc = """
# header comment
field p=2 k=1   # trailing comment

space n=2
component name=c  # the only one
  poly x0  # a plane... in P^2, a line
"""
    X = load_variety(doc)
    assert count_points(X).value == pi(1, 2) == 3


def test_extension_field_document():
    doc = """
field p=2 k=2
space n=2
component name=pt
  poly x0 - a*x2
  poly x1
"""
    X = load_variety(doc)
    assert X.q == 4
    assert count_points(X).value == 1


def test_containment_screen_flags_redundant_decomposition():
    doc = """
field p=2 k=1
space n=3
component name=plane
  poly x0
component name=line
  poly x0
  poly x1
"""
    X = load_variety(doc)
    assert X.irredundancy == "violated"
    assert ("line", "plane") in X.containments


def test_irredundancy_of_linear_decompositions(skew_lines, plane_line):
    assert skew_lines.irredundancy == "verified"
    assert skew_lines.containments == ()
    assert plane_line.irredundancy == "verified"


def test_mixed_decomposition_is_unverified(line_and_cubic):
    assert line_and_cubic.irredundancy == "unverified"
    assert count_points(line_and_cubic).value == 4  # 3 + 3 sharing two points


def test_classification_spanning_verified_for_hypersurface(quadric):
    cls = classify_components(quadric)
    assert cls.regime == "spanning" and cls.spanning_quality == "verified"
    c = cls.components[0]
    assert c.hyperplane_status == "clear_verified"
    assert c.method == "linear_factor_sweep"


def test_classification_spanning_declared_for_cubic(twisted_cubic):
    cls = classify_components(twisted_cubic)
    assert cls.regime == "spanning" and cls.spanning_quality == "declared"
    assert cls.components[0].hyperplane_status == "clear_declared"


def test_classification_catches_reducible_hypersurface():
    doc = """
field p=2 k=1
space n=3
component name=pair
  poly x0*x1 + x0*x3
"""
    X = load_variety(doc)
    cls = classify_components(X)
    assert cls.components[0].hyperplane_status == "contained"
    assert cls.components[0].witness == "x0"
    assert cls.regime == "general"  # contained but not linear


def test_classification_linear_components(skew_lines, conic_in_plane):
    cls = classify_components(skew_lines)
    assert cls.regime == "linear_exceptions"
    assert all(c.hyperplane_status == "contained" and c.is_linear
               for c in cls.components)
    cls2 = classify_components(conic_in_plane)
    assert cls2.regime == "general"
    assert cls2.components[0].witness == "x3"


def test_affine_chart_of_cubic(twisted_cubic):
    chart = affine_chart(twisted_cubic, parse_poly("x0", GF2, 4))
    assert chart.projective_count == 3
    assert chart.section_count == 1
    assert chart.affine_count == 2
    assert chart.components_on == ()
    comp = chart.components_off[0]
    assert (comp.dim, comp.degree) == (1, 3)  # chart keeps dimension and degree
    assert chart.count_affine_by_chart() == 2  # independent affine recount


def test_affine_chart_component_inside_hyperplane(plane_line):
    chart = affine_chart(plane_line, parse_poly("x0", GF2, 4))
    assert chart.components_on == ("plane",)
    assert [c.name for c in chart.components_off] == ["line"]
    assert chart.section_count == 7  # plane plus the line's meeting point
    assert chart.affine_count == 2
    assert chart.count_affine_by_chart() == 2


def test_affine_chart_over_gf3():
    doc = """
field p=3 k=1
space n=3
component name=L
  poly x0
  poly x1
"""
    X = load_variety(doc)
    chart = affine_chart(X, parse_poly("x3", make_field(3), 4))
    assert chart.projective_count == pi(1, 3) == 4
    assert chart.section_count == 1
    assert chart.affine_count == 3 == 3 ** 1  # affine line
    assert chart.count_affine_by_chart() == 3


def test_affine_chart_identity_across_all_hyperplanes(
        twisted_cubic, skew_lines, quadric, conic_in_plane):
    for X in (twisted_cubic, skew_lines, quadric, conic_in_plane):
        for H in enumerate_hyperplanes(3, GF2):
            chart = affine_chart(X, H)
            assert chart.projective_count == chart.section_count + chart.affine_count
            assert chart.affine_count == chart.count_affine_by_chart()


def test_affine_chart_rejects_bad_input(twisted_cubic):
    with pytest.raises(ValueError):
        affine_chart(twisted_cubic, parse_poly("x0^2", GF2, 4))
    with pytest.raises(ValueError):
        affine_chart(twisted_cubic, parse_poly("2*x0", GF2, 4))


def test_frobenius_permutes_points_of_subfield_variety():
    doc = TWISTED_CUBIC_DOC.replace("field p=2 k=1", "field p=2 k=2")
    X = load_variety(doc)
    pts = set(rational_points(X))
    assert len(pts) == 5  # q + 1 over GF(4)
    from fqpoints.projgeom import normalize_point
    for P in pts:
        image = normalize_point(X.field, [X.field.mul(c, c) for c in P])
        assert image in pts


def test_dimension_degree_sequences(line_and_cubic, skew_lines):
    seq, hyp = dimension_degree_sequences(line_and_cubic)
    assert seq == [("curve", 1, 3), ("L", 1, 1)]
    assert hyp["irredundant"] == "unverified"
    seq2, hyp2 = dimension_degree_sequences(skew_lines)
    assert seq2 == [("L1", 1, 1), ("L2", 1, 1)]
    assert hyp2["irredundant"] == "verified"


def test_empty_component_is_flagged():
    doc = """
field p=2 k=1
space n=2
component name=nowhere
  poly x0
  poly x1
  poly x2
component name=line
  poly x0
"""
    X = load_variety(doc)
    assert X.component("nowhere").empty
    assert X.irredundancy == "violated"
    seq, hyp = dimension_degree_sequences(X)
    assert seq == [("line", 1, 1)]
    assert hyp["empty_components"] == "nowhere"

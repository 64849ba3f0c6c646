"""Incidence censuses replayed on enumerated varieties."""

import contextlib
import dataclasses
import io
import json
from pathlib import Path

import pytest

import fqpoints.incidence
import fqpoints.projgeom
from fqpoints import variety
from fqpoints.cli import main
from fqpoints.errors import (
    ComponentIsHyperplaneError,
    NotLinearError,
    PointNotOnComponentError,
    PointNotOnVarietyError,
)
from fqpoints.incidence import census_linear_component, census_through_point
from fqpoints.projgeom import pi, point_from_text
from fqpoints.variety import load_variety, rational_points

SINGLE_POINT_DOC = """
field p=2 k=1
space n=3
component name=pt dim=0 deg=1 irreducible=yes
poly x1
poly x2
poly x3
"""

SINGLE_LINE_DOC = """
field p=2 k=1
space n=3
component name=L dim=1 deg=1 irreducible=yes
poly x2
poly x3
"""


def pt(text, X):
    return point_from_text(text, X.field, X.n)


def test_cubic_census_matches_frozen_numbers(twisted_cubic):
    X = twisted_cubic
    P = pt("(1:0:0:0)", X)
    census = census_through_point(X, P)
    assert (census.v1_size, census.v2_size) == (2, 7)
    assert census.edge_count == 6 == census.v1_size * pi(1, 2)
    assert census.per_point_valency == pi(1, 2)
    assert census.ok and not census.violations
    assert census.extra["classification"] == "spanning"
    assert census.section_bound == 3
    assert all(v <= 2 for _, v in census.valencies)
    assert census.identities["derived_bound_covers_count"]


def test_census_from_every_cubic_point(twisted_cubic):
    X = twisted_cubic
    for P in rational_points(X):
        census = census_through_point(X, P)
        assert census.edge_count == census.v1_size * pi(1, 2)
        assert census.ok


def test_single_point_census_is_degenerate():
    X = load_variety(SINGLE_POINT_DOC)
    census = census_through_point(X, pt("(1:0:0:0)", X))
    assert census.v1_size == 0 and census.edge_count == 0
    assert census.v2_size == pi(2, 2)
    assert census.ok
    assert census.section_bound is None  # a point lives inside hyperplanes


def test_quadric_census_edges(quadric):
    X = quadric
    P = pt("(1:0:0:0)", X)
    census = census_through_point(X, P)
    count = census.v1_size + 1
    assert census.edge_count == (count - 1) * pi(1, 2)
    assert census.section_bound == 5
    assert census.ok
    assert census.extra["derived_count_bound"] >= count


def test_census_rejects_point_off_variety(twisted_cubic):
    with pytest.raises(PointNotOnVarietyError):
        census_through_point(twisted_cubic,
                             pt("(0:1:0:0)", twisted_cubic))


def test_linear_census_skew_lines(skew_lines):
    X = skew_lines
    P = pt("(0:0:1:0)", X)  # on L2 = V(x0, x1)
    census = census_linear_component(X, "L2", P)
    assert census.v1_size == 3
    assert census.v2_size == pi(2, 2) - pi(1, 2) == 4
    assert census.per_point_valency == pi(1, 2) - pi(0, 2) == 2
    assert census.edge_count == 6
    assert census.ok


def test_linear_census_line_and_cubic(line_and_cubic):
    X = line_and_cubic
    P = pt("(1:0:0:0)", X)
    census = census_linear_component(X, "L", P)
    assert census.v2_size == pi(2, 2) - pi(1, 2) == 4
    assert census.v1_size == 1  # only (1:1:1:1) lies off the line
    assert census.edge_count == census.v1_size * census.per_point_valency
    assert census.ok


def test_linear_census_on_bare_line_is_empty():
    X = load_variety(SINGLE_LINE_DOC)
    census = census_linear_component(X, "L", pt("(1:0:0:0)", X))
    assert census.v1_size == 0 and census.edge_count == 0
    assert census.v2_size == 4


def test_linear_census_error_cases(quadric, plane_line, skew_lines):
    with pytest.raises(NotLinearError):
        census_linear_component(quadric, "quadric",
                                pt("(1:0:0:0)", quadric))
    with pytest.raises(ComponentIsHyperplaneError):
        census_linear_component(plane_line, "plane",
                                pt("(0:1:0:0)", plane_line))
    with pytest.raises(PointNotOnComponentError):
        census_linear_component(skew_lines, "L2",
                                pt("(1:0:0:0)", skew_lines))


def test_census_serialization_and_trace(twisted_cubic):
    census = census_through_point(twisted_cubic,
                                  pt("(0:0:0:1)", twisted_cubic))
    blob = json.dumps(census.to_json_dict(), sort_keys=True)
    data = json.loads(blob)
    assert data["ok"] is True
    assert data["edge_count"] == 6
    assert len(data["valencies"]) == 7
    lines = census.trace()
    assert any("edges = 6" in line for line in lines)
    assert any("section bound" in line for line in lines)
    assert not any("FAILED" in line or "VIOLATION" in line for line in lines)


def test_valencies_over_the_section_bound_exit_1(monkeypatch):
    # the section bound lowered by one: every valency at the old cap is a
    # violation, the census is not ok, and the CLI exits 1
    doc = Path(__file__).resolve().parent / "golden/inputs/gf5_quadric.var"
    argv = ["census", "--variety", str(doc), "--point", "1:0:0:0", "--trace"]
    real = fqpoints.incidence.bound_projective

    def lowered(*args, **kwargs):
        rep = real(*args, **kwargs)
        return dataclasses.replace(rep, total=rep.total - 1)

    monkeypatch.setattr(fqpoints.incidence, "bound_projective", lowered)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 1
    head, _, tail = out.getvalue().partition("}\n")
    data = json.loads(head + "}")
    cap = data["section_bound"] - 1
    over = [(form, v) for form, v in data["valencies"] if v > cap]
    assert data["ok"] is False and over
    assert [tuple(v) for v in data["violations"]] == [
        (form, v, cap) for form, v in over]
    violations = [line for line in tail.splitlines()
                  if line.startswith("VIOLATION ")]
    assert len(violations) == len(over)


@pytest.mark.parametrize("doc, point, once", [
    ("field p=3 k=2\nspace n=3\ncomponent name=q\npoly x0*x1 - x2*x3\n",
     "0:0:0:1", True),
    ("field p=2 k=1\nspace n=3\ncomponent name=a\npoly x0*x1 - x2*x3\n"
     "component name=b\npoly x0\npoly x1\n", "0:0:0:1", False),
])
def test_census_enumerates_a_hypersurface_once(monkeypatch, doc, point,
                                               once):
    """A one-form variety's points serve as the divisor search's zero set;
    a union's component is still searched on its own zero set."""
    X = load_variety(doc)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = variety._union_points
    monkeypatch.setattr(variety, "_union_points", counted)
    census = census_through_point(X, pt(point, X))
    assert census.ok
    assert len(calls) == (1 if once else 2)
    assert (variety.classify_components(X)
            == variety.classify_components(X, _points=rational_points(X)))


def test_census_through_a_point_solves_no_linear_system(monkeypatch):
    """Pencil members are dual-form tuples: a census through a point of a
    one-quadric variety reaches neither rref nor nullspace."""
    X = load_variety("field p=3 k=2\nspace n=3\ncomponent name=q\n"
                     "poly x0*x1 - x2*x3\n")
    P = pt("0:0:0:1", X)
    want = census_through_point(X, P)

    def refused(*args):
        raise AssertionError("rref called during a census through a point")

    monkeypatch.setattr(fqpoints.projgeom, "rref", refused)
    got = census_through_point(X, P)
    assert got.ok and got.valencies == want.valencies

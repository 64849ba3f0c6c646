"""Bound evaluators: frozen examples, identities, and grid invariants."""

import itertools

import pytest

from fqpoints.bounds import (
    CSV_FIELDS,
    bound_affine,
    bound_conjectural,
    bound_equidimensional,
    bound_linear_arrangement,
    bound_projective,
    bound_serre,
    csv_row,
    restriction_margin,
    tubular_count,
    tubular_report,
)
from fqpoints.errors import (
    BadSequenceError,
    DimensionTooLargeError,
    TooFewComponentsError,
)
from fqpoints.projgeom import pi
from fqpoints.variety import count_points, dimension_degree_sequences

QS = (2, 3, 4, 5)


def test_affine_bound_examples():
    assert bound_affine([(1, 1)], 2, 2).total == 2
    assert bound_affine([(1, 2), (0, 3)], 2, 3).total == 9
    assert bound_affine([(2, 3)], 3, 2).total == 12
    rep = bound_affine([(1, 2), (0, 3)], 2, 3)
    assert [t.term for t in rep.per_component] == [6, 3] and rep.tail == 0


def test_projective_bound_examples():
    assert bound_projective([(1, 3)], 3, 2).total == 9
    assert bound_projective([(2, 3)], 4, 2).total == 19
    assert bound_projective([(1, 1), (1, 1)], 3, 2).total == 6
    rep = bound_projective([(2, 1), (1, 1)], 3, 2)
    assert rep.total == 10 and rep.tail == pi(1, 2) == 3
    assert [t.term for t in rep.per_component] == [4, 3]


def test_section_bound_examples():
    assert bound_projective([(1, 3)], 3, 2, mode="section").total == 3
    assert bound_projective([(2, 2)], 3, 2, mode="section").total == 5
    rep = bound_projective([(2, 3)], 4, 2, mode="section")
    assert rep.total == 9 and rep.tail == 0  # tail index 2D-n-1 drops below 0


def test_serre_examples_and_hypersurface_consistency():
    assert bound_serre(3, 2, 2) == 11
    assert bound_serre(2, 3, 3) == 10
    assert bound_serre(2, 1, 2) == pi(1, 2)
    for q in QS:
        for n in range(1, 9):
            for delta in range(1, 11):
                assert (bound_serre(n, delta, q)
                        == bound_projective([(n - 1, delta)], n, q).total)


def test_equidimensional_matches_single_pair():
    for q in QS:
        for n in range(2, 7):
            for d in range(0, n):
                for delta in (1, 2, 3, 5):
                    rep = bound_equidimensional(n, q, d, delta)
                    assert rep.total == bound_projective(
                        [(d, delta)], n, q).total
                    assert rep.kind == "equidimensional"


def test_linear_arrangement_examples():
    assert bound_linear_arrangement([2, 1], 3, 2).total == 9
    assert bound_linear_arrangement([1, 1], 3, 2).total == 6
    assert bound_linear_arrangement([2, 2], 4, 2).total == 13
    assert bound_linear_arrangement([1, 1, 1], 3, 2).total == 9
    rep = bound_linear_arrangement([2, 1], 3, 2)
    assert rep.extra["gap_below_projective"] == 1
    assert rep.extra["projective_bound"] == 10
    assert rep.total + rep.extra["gap_below_projective"] == 10


def test_linear_arrangement_sorts_and_is_permutation_invariant():
    a = bound_linear_arrangement([1, 2, 1], 4, 3)
    b = bound_linear_arrangement([2, 1, 1], 4, 3)
    c = bound_linear_arrangement([1, 1, 2], 4, 3)
    assert a.total == b.total == c.total
    assert a.dims() == [2, 1, 1]
    assert a.extra["input_order"] == "1,0,2"


def test_linear_arrangement_gap_matches_projective():
    for q in (2, 3):
        for n in (2, 3, 4, 5):
            for dims in itertools.product(range(n), repeat=3):
                rep = bound_linear_arrangement(list(dims), n, q)
                proj = bound_projective([(d, 1) for d in dims], n, q).total
                assert rep.total + rep.extra["gap_below_projective"] == proj
                assert rep.extra["gap_below_projective"] >= 0
                d1 = max(dims)
                expect_zero = all(d == d1 or d + d1 < n
                                  for d in sorted(dims, reverse=True)[1:])
                assert (rep.extra["gap_below_projective"] == 0) == expect_zero


def test_conjectural_bound_examples_and_status():
    rep = bound_conjectural([(2, 1), (1, 1)], 3, 2)
    assert rep.total == 9
    assert rep.hypotheses["status"] == "conjectural"
    assert rep.extra["projective_bound"] == 10
    assert rep.extra["slack_below_projective"] == 1


def test_conjectural_never_exceeds_projective_and_ties_on_equidimensional():
    for q in (2, 3):
        for n in (2, 3, 4):
            for dims in itertools.product(range(n), repeat=2):
                for degs in ((1, 1), (2, 1), (3, 2)):
                    comps = list(zip(dims, degs))
                    con = bound_conjectural(comps, n, q).total
                    proj = bound_projective(comps, n, q).total
                    assert con <= proj
                    if dims[0] == dims[1]:
                        assert con == proj


def test_tubular_examples():
    assert tubular_count(1, 3, 2) == 7
    assert tubular_count(2, 3, 2) == 15
    assert tubular_count(2, 1, 3) == 13 == pi(2, 3)  # a single subspace
    rep = tubular_report(4, 2, 2, 3)
    assert rep.total == 15
    assert rep.extra["equidimensional_bound"] == 19
    assert rep.extra["slack_below_bound"] == 4


def test_tubular_stays_below_equidimensional_bound():
    for q in (2, 3, 4):
        for n in (2, 3, 4, 5):
            for d in range(0, n):
                for delta in (1, 2, 3, 4):
                    rep = tubular_report(n, q, d, delta)
                    slack = rep.extra["slack_below_bound"]
                    assert slack == (delta - 1) * (pi(d - 1, q) - pi(2 * d - n, q))
                    assert slack >= 0


def test_restriction_margin_examples():
    m = restriction_margin(3, 2, 1, 2)
    assert (m.margin, m.affine_margin) == (1, 1)
    m2 = restriction_margin(4, 2, 2, 3)
    assert m2.margin == 3
    m3 = restriction_margin(6, 2, 2, 5)
    assert m3.margin == 0  # both shifted indices negative
    m4 = restriction_margin(3, 2, 2, 2)
    assert m4.affine_margin == 0  # pi(2) - pi(1) = q^2 exactly


def test_margin_grid_nonnegative_with_closed_forms():
    for q in QS:
        for n in range(2, 9):
            for d in range(1, n):
                for delta in range(2, 7):
                    m = restriction_margin(n, q, d, delta)
                    assert m.margin >= 0
                    assert m.affine_margin >= 0
                    s = 2 * d - n
                    if s + 1 < 0:
                        assert m.margin == 0
                    else:
                        assert m.margin == (delta - 1) * q ** (s + 1) - pi(s, q)


def test_scale_identity_exhaustive_grid():
    for q in (2, 3, 4):
        for n in range(1, 6):
            dims = range(n)
            for r in (1, 2, 3):
                for combo in itertools.product(dims, repeat=r):
                    comps = [(d, 1 + (i % 3)) for i, d in enumerate(combo)]
                    ambient = bound_projective(comps, n, q).total
                    section = bound_projective(comps, n, q, "section").total
                    # ambient = q * section + adjustment: one per degree
                    # unit of a component with 2d < n, plus one when the
                    # top dimension D has 2D >= n
                    adjustment = sum(delta for d, delta in comps
                                     if 2 * d < n)
                    adjustment += 2 * max(combo) >= n
                    assert ambient == q * section + adjustment
                    assert ambient >= q * section + 1
                    if section >= pi(n - 1, q):
                        assert ambient >= pi(n, q)


def test_monotonicity_in_degree_and_dimension():
    for q in (2, 3):
        for n in range(2, 7):
            for d in range(0, n - 1):
                for delta in range(1, 5):
                    base = bound_projective([(d, delta)], n, q).total
                    assert bound_projective([(d, delta + 1)], n, q).total > base
                    assert bound_projective([(d + 1, delta)], n, q).total > base


def test_projective_total_is_permutation_invariant():
    comps = [(2, 3), (1, 1), (2, 1)]
    totals = {bound_projective(list(p), 4, 2).total
              for p in itertools.permutations(comps)}
    assert len(totals) == 1


def test_bounds_dominate_enumerated_counts(twisted_cubic, skew_lines,
                                           plane_line, quadric):
    for X in (twisted_cubic, skew_lines, plane_line, quadric):
        seq, hyp = dimension_degree_sequences(X)
        rep = bound_projective(seq, X.n, X.q, hypotheses=hyp)
        assert count_points(X).value <= rep.total
    # exactness cases
    assert count_points(skew_lines).value == bound_linear_arrangement(
        [1, 1], 3, 2).total
    assert count_points(plane_line).value == bound_linear_arrangement(
        [2, 1], 3, 2).total


def test_validation_errors():
    with pytest.raises(BadSequenceError):
        bound_projective([(1, 0)], 3, 2)
    with pytest.raises(BadSequenceError):
        bound_projective([(-1, 1)], 3, 2)
    with pytest.raises(DimensionTooLargeError):
        bound_projective([(3, 1)], 3, 2)
    with pytest.raises(BadSequenceError):
        bound_projective([(1, 1)], 3, 6)  # not a prime power
    with pytest.raises(BadSequenceError):
        bound_projective([(1, 1)], 3, 1)
    with pytest.raises(TooFewComponentsError):
        bound_projective([], 3, 2)
    with pytest.raises(TooFewComponentsError):
        bound_linear_arrangement([2], 3, 2)
    with pytest.raises(BadSequenceError):
        bound_serre(0, 1, 2)
    with pytest.raises(BadSequenceError):
        tubular_count(-1, 1, 2)
    with pytest.raises(BadSequenceError):
        restriction_margin(3, 2, 1, 1)  # margin needs degree >= 2
    with pytest.raises(BadSequenceError):
        restriction_margin(3, 2, 0, 2)


def test_named_components_flow_into_report():
    rep = bound_projective([("curve", 1, 3), ("L", 1, 1)], 3, 2)
    assert [t.name for t in rep.per_component] == ["curve", "L"]
    assert rep.to_json_dict()["per_component"][0]["name"] == "curve"


def test_csv_row_schema():
    rep = bound_projective([(2, 1), (1, 1)], 3, 2,
                           hypotheses={"irredundant": "verified"})
    row = csv_row(rep, count=9, tight=False)
    assert list(row) == CSV_FIELDS
    assert row["dims"] == "2;1" and row["degs"] == "1;1"
    assert row["bound"] == 10 and row["count"] == 9 and row["tight"] is False
    assert row["hypotheses"] == "irredundant=verified"

"""Projective enumeration, subspace algebra, and the pi identities."""

import itertools

import pytest

from fqpoints.errors import InconsistentFiltersError
from fqpoints.gf import make_field
from fqpoints.projgeom import (
    LinearSubspace,
    enumerate_hyperplanes,
    enumerate_points,
    normalize_point,
    nullspace,
    pi,
    point_from_text,
    point_text,
    rank,
    rref,
)

GF2 = make_field(2)
GF3 = make_field(3)
GF4 = make_field(2, 2)


def test_pi_values_against_enumeration():
    for q, F in [(2, GF2), (3, GF3), (4, GF4)]:
        for n in range(4):
            assert pi(n, q) == len(list(enumerate_points(n, F)))
    assert pi(-1, 5) == 0 and pi(-3, 2) == 0
    assert pi(3, 2) == 15 and pi(2, 3) == 13


def test_pi_rejects_bad_q():
    with pytest.raises(ValueError):
        pi(2, 1)


def test_pi_recurrence_and_difference_scaling():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(0, 13):
            assert pi(n, q) == q * pi(n - 1, q) + 1
        for k in range(0, 13):
            for m in range(0, k + 1):
                assert pi(k, q) - pi(m, q) == q * (pi(k - 1, q) - pi(m - 1, q))


def test_point_enumeration_order_p1_f2():
    pts = [point_text(GF2, P) for P in enumerate_points(1, GF2)]
    assert pts == ["(1:0)", "(1:1)", "(0:1)"]


def test_point_enumeration_distinct_and_normalized():
    pts = list(enumerate_points(2, GF4))
    assert len(pts) == len(set(pts)) == pi(2, 4) == 21
    for P in pts:
        lead = next(c for c in P if c)
        assert lead == 1


def test_point_normalization_and_equality():
    P = normalize_point(GF3, [2, 1, 0])
    Q = normalize_point(GF3, [1, 2, 0])
    assert P == Q and point_text(GF3, P) == "(1:2:0)"
    with pytest.raises(ValueError):
        normalize_point(GF3, [0, 0, 0])


def test_point_from_text():
    P = point_from_text("(1:0:1)", GF2, 2)
    assert P == (1, 0, 1)
    assert point_from_text("1,0,1", GF2, 2) == P
    Q = point_from_text("(a:1)", GF4, 1)
    assert Q == normalize_point(GF4, [GF4.gen(), 1])
    with pytest.raises(ValueError):
        point_from_text("(1:0)", GF2, 2)


def test_rref_and_rank():
    rows = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    red, pivots = rref(rows, GF2)
    assert len(red) == 2 and pivots == [0, 1]
    assert rank(rows, GF2) == 2
    ns = nullspace(rows, GF2, 3)
    assert len(ns) == 1
    v = ns[0]
    for row in rows:
        assert _dot(row, v, GF2) == 0


def test_subspace_canonical_equality():
    a = LinearSubspace.from_spanning(GF2, [[1, 0, 0, 0], [0, 1, 0, 0]])
    b = LinearSubspace.from_spanning(GF2, [[1, 1, 0, 0], [0, 1, 0, 0]])
    assert a == b and hash(a) == hash(b) and a.dim == 1
    c = LinearSubspace.from_spanning(GF2, [[1, 0, 0, 0], [0, 0, 1, 0]])
    assert a != c


def test_subspace_points_and_membership():
    line = LinearSubspace.from_spanning(GF3, [[1, 0, 0], [0, 1, 0]])
    pts = list(line.points())
    assert len(pts) == len(set(pts)) == pi(1, 3) == 4
    for P in pts:
        assert line.contains(P)
    off = normalize_point(GF3, [0, 0, 1])
    assert not line.contains(off)


def test_dual_forms_vanish_exactly_on_subspace():
    sub = LinearSubspace.from_spanning(GF2, [[1, 0, 1, 0], [0, 1, 1, 1]])
    forms = sub.dual_forms()
    assert len(forms) == 4 - len(sub.rows)
    on = set(sub.points())
    for P in enumerate_points(3, GF2):
        vanishes = all(
            not _dot(w, P, GF2) for w in forms)
        assert vanishes == (P in on)


def _dot(w, coords, F):
    acc = 0
    for a, b in zip(w, coords):
        acc = F.add(acc, F.mul(a, b))
    return acc


def test_intersection_and_span():
    plane = LinearSubspace.from_spanning(GF2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    line = LinearSubspace.from_spanning(GF2, [[0, 0, 1, 0], [0, 0, 0, 1]])
    meet = plane.intersection(line)
    assert meet is not None and meet.dim == 0
    assert meet.rows[0] == (0, 0, 1, 0)
    skew1 = LinearSubspace.from_spanning(GF2, [[1, 0, 0, 0], [0, 1, 0, 0]])
    skew2 = LinearSubspace.from_spanning(GF2, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert skew1.intersection(skew2) is None


def test_hyperplane_enumeration_counts():
    # all hyperplanes of P^3 over GF(2): pi(3) of them
    all_h = list(enumerate_hyperplanes(3, GF2))
    assert len(all_h) == pi(3, 2) == 15
    assert len(set(all_h)) == 15
    assert all(h.dim == 2 for h in all_h)
    P = normalize_point(GF2, [1, 0, 0, 0])
    through = list(enumerate_hyperplanes(3, GF2, through=P))
    assert len(through) == pi(2, 2) == 7
    assert all(h.contains(P) for h in through)


def test_hyperplane_filters_containing_and_excluding():
    line = LinearSubspace.from_spanning(GF2, [[1, 0, 0, 0], [0, 1, 0, 0]])
    # hyperplanes through a line of P^3: pi(1) of them
    containing = [h for h in enumerate_hyperplanes(3, GF2)
                  if h.contains_subspace(line)]
    assert len(containing) == pi(1, 2) == 3
    P = normalize_point(GF2, [1, 0, 0, 0])
    excl = list(enumerate_hyperplanes(3, GF2, through=P, excluding_containing=line))
    assert len(excl) == pi(2, 2) - pi(1, 2) == 4
    assert all(h.contains(P) and not h.contains_subspace(line) for h in excl)


def test_inconsistent_filters_raise():
    line = LinearSubspace.from_spanning(GF2, [[1, 0, 0, 0], [0, 1, 0, 0]])
    off = normalize_point(GF2, [0, 0, 1, 0])
    with pytest.raises(InconsistentFiltersError):
        list(enumerate_hyperplanes(3, GF2, through=off, excluding_containing=line))


def test_double_counting_points_and_hyperplanes():
    """Through a fixed point P: every other point lies on exactly pi(n-2)
    of the pi(n-1) hyperplanes through P, so the incidence total is
    (pi(n) - 1) * pi(n-2)."""
    for F, q in [(GF2, 2), (GF3, 3)]:
        n = 3
        P = next(enumerate_points(n, F))
        hyps = list(enumerate_hyperplanes(n, F, through=P))
        assert len(hyps) == pi(n - 1, q)
        per_point = {}
        for h in hyps:
            w = h.dual_forms()[0]
            for Q in enumerate_points(n, F):
                if Q == P:
                    continue
                if not _dot(w, Q, F):
                    per_point[Q] = per_point.get(Q, 0) + 1
        assert all(v == pi(n - 2, q) for v in per_point.values())
        assert sum(per_point.values()) == (pi(n, q) - 1) * pi(n - 2, q)


def test_hyperplane_from_dual_form_roundtrip():
    for w_ints in [[1, 0, 0, 0], [1, 1, 0, 1], [0, 0, 1, 1]]:
        h = LinearSubspace.from_dual_form(GF2, w_ints)
        assert h.dim == 2
        w = h.dual_forms()
        assert len(w) == 1
        got = LinearSubspace.from_dual_form(GF2, w[0])
        assert got == h


def test_form_polynomials_match_membership():
    sub = LinearSubspace.from_spanning(GF3, [[1, 0, 2, 0], [0, 1, 1, 1]])
    polys = sub.form_polynomials()
    for P in enumerate_points(3, GF3):
        vanishes = all(f.evaluate(P) == 0 for f in polys)
        assert vanishes == sub.contains(P)

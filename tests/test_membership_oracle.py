"""Point-subspace membership and census valencies against a rank oracle.

`LinearSubspace.contains` evaluates the subspace's dual forms at the point.
The oracle here asks instead whether adding the point's coordinates to the
spanning rows leaves the rank unchanged; it goes through `rref` and shares
no code with the dual-form evaluation.
"""

import random

import pytest

from fqpoints.gf import make_field
from fqpoints.incidence import census_linear_component, census_through_point
from fqpoints.projgeom import (
    LinearSubspace,
    enumerate_points,
    nullspace,
    point_from_text,
    rank,
)
from fqpoints.variety import load_variety

FIELDS = {2: make_field(2), 3: make_field(3), 4: make_field(2, 2),
          5: make_field(5)}


def on(sub, coords, F):
    return rank(list(sub.rows) + [tuple(coords)], F) == len(sub.rows)


def random_subspace(rng, F, n):
    els = list(F.elements())
    while True:
        rows = [[rng.choice(els) for _ in range(n + 1)]
                for _ in range(rng.randrange(1, n + 1))]
        if any(any(row) for row in rows):
            return LinearSubspace.from_spanning(F, rows)


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_contains_matches_rank_oracle(q):
    F = FIELDS[q]
    rng = random.Random(q)
    for n in (2, 3):
        points = list(enumerate_points(n, F))
        for _ in range(6):
            sub = random_subspace(rng, F, n)
            for P in points:
                assert sub.contains(P) == on(sub, P, F), (sub, P)


# A hyperbolic quadric surface and a line that meets it in two points.
CENSUS_DOC = """\
field p={p} k={k}
space n=3
component name=S
  poly x0*x1 - x2*x3
component name=L
  poly x0
  poly x1
"""


def oracle_valencies(X, P, L=None):
    """(form text, valency) over the pencil through P (minus those holding
    L), counting the points of X other than P (off L) by rank alone."""
    F, n = X.field, X.n
    pts = [Q for Q in enumerate_points(n, F)
           if any(all(not g.evaluate(Q) for g in c.ideal.gens)
                  for c in X.components)]
    if L is None:
        v1 = [Q for Q in pts if Q != P]
    else:
        v1 = [Q for Q in pts if not on(L, Q, F)]
    out = []
    for w in enumerate_points(n, F):  # normalized dual vectors
        H = LinearSubspace(F, n, tuple(nullspace([w], F, n + 1)))
        if not on(H, P, F):
            continue
        if L is not None and all(on(H, row, F) for row in L.rows):
            continue
        out.append((str(H.form_polynomials()[0]),
                    sum(1 for Q in v1 if on(H, Q, F))))
    return tuple(out)


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_census_valencies_match_rank_oracle(q):
    F = FIELDS[q]
    X = load_variety(CENSUS_DOC.format(p=F.p, k=F.k))
    P = point_from_text("0:0:0:1", F, 3)
    census = census_through_point(X, P)
    assert census.ok
    assert census.valencies == oracle_valencies(X, P)
    L = X.component("L").subspace()
    census = census_linear_component(X, "L", P)
    assert census.ok
    assert census.valencies == oracle_valencies(X, P, L)

"""The paper's equidimensional bound checked on curves and surfaces cut
out by two quadrics, and its projective bound on mixed-dimension unions.

For X equidimensional of dimension d and degree delta in P^n, the bound
is delta (pi(d) - pi(2d - n)) + pi(2d - n) (Ghorpade and Lachaud). Two
quadrics with no common factor meet in a complete intersection of degree
4, so |V(f, g)| <= 4 pi(1) = 12 for curves in P^3(F_2), 16 in P^3(F_3),
and 4 (pi(2) - pi(0)) + pi(0) = 25 for surfaces in P^4(F_2). Over F_q two
distinct quadrics (up to scalars) can only share a linear factor.

Each quadric is held as the bitmask of its zeros on the points of P^n,
computed here from exponent vectors and nothing else: |V(f, g)| is the
popcount of mask(f) & mask(g). For delta = 2 <= q, a linear form l
divides f exactly when f vanishes on every point of {l = 0}, since
otherwise f would restrict to a nonzero form of degree delta <= q on that
hyperplane vanishing at all its points, past Serre's bound. So l | f is a
subset test on masks, and so is a line lying on a quadric. All 521,178
curves of P^3(F_2) are checked; over F_3 and in P^4 a seeded sample is,
half of its quadrics products of two linear forms, which reach the most
points. Sampled pairs are recounted by `count_points` and classified by
`hilbert_of_ideal`.
"""

import functools
import itertools
import math
import operator
import random

from fqpoints.bounds import bound_equidimensional, bound_projective
from fqpoints.gf import make_field
from fqpoints.groebner import Ideal, hilbert_of_ideal
from fqpoints.mpoly import Polynomial
from fqpoints.variety import count_points

GF2 = make_field(2)
POINTS = [v for v in itertools.product((0, 1), repeat=4) if any(v)]
MONOS = [tuple(c.count(i) for i in range(4))
         for c in itertools.combinations_with_replacement(range(4), 2)]


def mask_of(vanishes):
    return sum(1 << i for i, P in enumerate(POINTS) if vanishes(P))


def monomial_value(u, P):
    return all(x or not e for x, e in zip(P, u))  # 0^0 = 1 over F_2


# a quadric is its coefficient vector over MONOS, every nonzero one
FORMS = [c for c in itertools.product((0, 1), repeat=len(MONOS)) if any(c)]
MASKS = [mask_of(lambda P, c=c: not sum(
    ci and monomial_value(u, P) for ci, u in zip(c, MONOS)) % 2)
    for c in FORMS]
PLANES = [mask_of(lambda P, w=w: not sum(a * x for a, x in zip(w, P)) % 2)
          for w in POINTS]
# bit j of LINEAR[i]: the j-th linear form divides the i-th quadric
LINEAR = [sum(1 << j for j, h in enumerate(PLANES) if h & m == h)
          for m in MASKS]


def as_poly(coeffs):
    return Polynomial(GF2, 4, {u: 1 for u, c in zip(MONOS, coeffs) if c})


def test_every_curve_of_two_quadrics_is_within_the_bound():
    assert len(FORMS) == 1023 and len(set(MASKS)) == 1023
    cap = bound_equidimensional(3, 2, 1, 4).total
    assert cap == 12
    pairs, top = 0, 0
    for i, (mi, li) in enumerate(zip(MASKS, LINEAR)):
        counts = [(mi & mj).bit_count()
                  for mj, lj in zip(MASKS[i + 1:], LINEAR[i + 1:])
                  if not li & lj]
        pairs += len(counts)
        top = max(top, max(counts, default=0))
    assert pairs == 521_178
    assert top == 9 <= cap  # no such curve reaches the bound


def test_sampled_pairs_match_count_points_and_hilbert():
    # about 1 pair in 330 shares a linear factor; take 30 of each kind
    rng = random.Random(20261018)
    sample = {False: [], True: []}
    while min(map(len, sample.values())) < 30:
        i, j = rng.sample(range(len(FORMS)), 2)
        kind = sample[bool(LINEAR[i] & LINEAR[j])]
        if len(kind) < 30:
            kind.append((i, j))
    for shares, pairs in sample.items():
        for i, j in pairs:
            ideal = Ideal.of([as_poly(FORMS[i]), as_poly(FORMS[j])])
            assert count_points(ideal).value == \
                (MASKS[i] & MASKS[j]).bit_count()
            hd = hilbert_of_ideal(ideal)
            if shares:
                assert hd.dim == 2
            else:
                assert (hd.dim, hd.degree) == (1, 4)


def quadric_world(n, q):
    """(points, monomials, mask, hyperplanes) for the quadrics of P^n(F_q):
    the normalized points, the degree-2 exponent vectors, mask(c) the zero
    mask of the quadric with coefficients c over them, and the zero masks
    of the hyperplanes."""
    points = [v for v in itertools.product(range(q), repeat=n + 1)
              if any(v) and next(x for x in v if x) == 1]
    monos = [tuple(c.count(i) for i in range(n + 1)) for c in
             itertools.combinations_with_replacement(range(n + 1), 2)]
    table = [[math.prod(x ** e for x, e in zip(P, u)) % q for u in monos]
             for P in points]

    def mask(c):
        return sum(1 << i for i, row in enumerate(table)
                   if not sum(a * b for a, b in zip(c, row)) % q)

    planes = [sum(1 << i for i, P in enumerate(points)
                  if not sum(a * x for a, x in zip(w, P)) % q)
              for w in points]
    return points, monos, mask, planes


def sampled_pairs(n, q, count, seed):
    """`count` seeded pairs of distinct quadrics of P^n(F_q), up to
    scalars, with no common linear factor: (coefficients of f, of g, mask
    of f, mask of g). Half of the quadrics are products of two linear
    forms."""
    points, monos, mask, planes = quadric_world(n, q)
    rng = random.Random(seed)

    def quadric():
        if rng.random() < 0.5:
            a, b = rng.choice(points), rng.choice(points)
            c = [0] * len(monos)
            for i, j in itertools.product(range(n + 1), repeat=2):
                u = tuple((k == i) + (k == j) for k in range(n + 1))
                c[monos.index(u)] += a[i] * b[j]
        else:
            c = [rng.randrange(q) for _ in monos]
        if not any(x % q for x in c):
            return quadric()
        lead = pow(next(x for x in c if x % q), -1, q)
        return tuple(x * lead % q for x in c)

    out = []
    while len(out) < count:
        f, g = quadric(), quadric()
        mf, mg = mask(f), mask(g)
        if f != g and not any(h & mf == h == h & mg for h in planes):
            out.append((f, g, mf, mg))
    return out, monos, points, planes


def check_against_count_points(field, nvars, monos, pairs):
    for f, g, mf, mg in pairs:
        ideal = Ideal.of([Polynomial(field, nvars, {u: c for u, c in
                                                    zip(monos, h) if c})
                          for h in (f, g)])
        assert count_points(ideal).value == (mf & mg).bit_count()
        hd = hilbert_of_ideal(ideal)
        assert (hd.dim, hd.degree) == (nvars - 3, 4)


def test_sampled_curves_of_two_quadrics_over_f3_are_within_the_bound():
    pairs, monos, _, _ = sampled_pairs(3, 3, 1500, 3)
    cap = bound_equidimensional(3, 3, 1, 4).total
    assert cap == 16
    counts = [(mf & mg).bit_count() for _, _, mf, mg in pairs]
    # the most seen is 4q + 1, as four concurrent lines have: not tight
    assert max(counts) == 13 < cap
    check_against_count_points(make_field(3), 4, monos, pairs[:8])


def test_sampled_surfaces_of_two_quadrics_in_p4_are_within_the_bound():
    pairs, monos, _, _ = sampled_pairs(4, 2, 1500, 4)
    cap = bound_equidimensional(4, 2, 2, 4).total
    assert cap == 4 * (7 - 1) + 1 == 25
    counts = [(mf & mg).bit_count() for _, _, mf, mg in pairs]
    assert max(counts) == 19 < cap
    check_against_count_points(GF2, 5, monos, pairs[:8])


def test_mixed_unions_with_a_line_or_a_point_are_within_the_bound():
    """A sampled curve of P^3 or surface of P^4 of two quadrics, plus a
    line not on it or a point off it: |X| <= bound_projective."""
    rng = random.Random(5)
    seen = {}
    for n, q in ((3, 2), (3, 3), (4, 2)):
        pairs, _, points, planes = sampled_pairs(n, q, 600, n * q)
        for _, _, mf, mg in pairs:
            body = mf & mg
            line = functools.reduce(operator.and_, rng.sample(planes, n - 1))
            point = 1 << rng.randrange(len(points))
            for dim, extra in ((1, line), (0, point)):
                if extra.bit_count() != q ** dim + dim or not extra & ~body:
                    continue  # not a line, or on the body: redundant
                count = (body | extra).bit_count()
                cap = bound_projective([(n - 2, 4), (dim, 1)], n, q).total
                assert count <= cap
                seen[n, q, dim] = max(seen.get((n, q, dim), 0), count)
    # the most points seen, against caps of 15, 13; 20, 17; 28, 26
    assert seen == {(3, 2, 1): 11, (3, 2, 0): 10, (3, 3, 1): 17,
                    (3, 3, 0): 14, (4, 2, 1): 21, (4, 2, 0): 20}

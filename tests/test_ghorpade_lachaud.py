"""The paper's equidimensional bound checked on every curve V(f, g) cut
out by two quadrics of P^3(F_2).

For X equidimensional of dimension d and degree delta in P^n, the bound
is delta (pi(d) - pi(2d - n)) + pi(2d - n) (Ghorpade and Lachaud). Two
quadrics with no common factor meet in a curve of degree 4, so
|V(f, g)| <= 4 pi(1) = 12 over F_2. Over F_2 two distinct quadrics can
only share a linear factor.

Each of the 1,023 quadrics is held as the 15-bit mask of its zeros on the
points of P^3(F_2), computed here from exponent vectors and nothing else:
|V(f, g)| is the popcount of mask(f) & mask(g). For delta = 2 <= q, a
linear form l divides f exactly when f vanishes on every point of
{l = 0}, since otherwise f would restrict to a nonzero form of degree
delta <= q on that plane vanishing at all its points, past Serre's bound.
So l | f is a subset test on masks. A seeded sample of pairs is then
recounted by `count_points` and classified by `hilbert_of_ideal`.
"""

import itertools
import random

from fqpoints.bounds import bound_equidimensional
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

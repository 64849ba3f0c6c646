"""Point counts of random forms against the Ax-Katz theorem.

For a form f of degree d in N variables over GF(q), q^(ceil(N/d) - 1)
divides the number of zeros of f in GF(q)^N. That number is
1 + (q - 1) * |V(f)(F_q)|, with the projective count by `count_points`, so
the theorem is a check on the count that uses no second enumeration.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fqpoints.gf import field_from_order
from fqpoints.groebner import Ideal
from fqpoints.mpoly import Polynomial, monomials_of_degree
from fqpoints.variety import count_points

FIELDS = {q: field_from_order(q) for q in (2, 3, 4, 5, 7, 8, 9)}


@st.composite
def forms(draw):
    F = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    d = draw(st.integers(1, 3))
    nvars = draw(st.integers(d + 1, 4))
    monos = monomials_of_degree(nvars, d)
    coeffs = draw(st.lists(st.integers(0, F.q - 1), min_size=len(monos),
                           max_size=len(monos)))
    assume(any(coeffs))
    return F, nvars, d, Polynomial.from_terms(
        F, nvars, [(m, c) for m, c in zip(monos, coeffs) if c])


@settings(max_examples=60, deadline=None)
@given(forms())
def test_affine_zero_count_is_divisible_by_the_ax_katz_power(case):
    F, nvars, d, f = case
    count = count_points(Ideal.of([f])).value
    affine_zeros = 1 + (F.q - 1) * count
    assert affine_zeros % F.q ** (math.ceil(nvars / d) - 1) == 0

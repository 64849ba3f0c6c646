"""Linear configurations that meet their point-count bounds exactly.

Three construction families:

  * partial spreads: pairwise disjoint d-planes in P^n.  For n = 2d+1
    a full spread of q^(d+1) + 1 members partitions the point set.
  * flowers: d-planes through a common core of dimension 2d - n, any
    two meeting exactly in the core.
  * mixed-dimension arrangements: subspaces of prescribed dimensions
    d_1 >= d_2 >= ... with every later member meeting the first in the
    smallest dimension the ambient space allows, and all the overlaps
    stacked inside the first member.

Each builder returns a spec carrying its members plus a validate()
method that recertifies every claimed intersection from rank
computations, and each union is recounted point by point against the
matching bound.
"""

from fqpoints.bounds import (
    bound_equidimensional, bound_linear_arrangement, bound_projective)
from fqpoints.constructions import (
    build_extremal_arrangement, build_flower, build_partial_spread)
from fqpoints.errors import InfeasibleError
from fqpoints.gf import make_field
from fqpoints.projgeom import pi
from fqpoints.variety import count_points, load_variety

F2 = make_field(2)
F3 = make_field(3)


def main():
    # a full line spread of P^3(F_2): five lines, no two meeting,
    # covering all fifteen points
    spread = build_partial_spread(3, 1, 5, F2)
    spread.validate()
    print(f"spread of {len(spread.members)} lines in P^3(F_2), "
          f"{spread.point_count()} points = pi(3) = {pi(3, 2)}")
    bound = bound_equidimensional(3, 2, 1, 5)
    assert spread.point_count() == bound.total == pi(3, 2)

    # same game over F_3: ten lines, forty points
    spread3 = build_partial_spread(3, 1, 10, F3)
    spread3.validate()
    print(f"spread of {len(spread3.members)} lines in P^3(F_3), "
          f"{spread3.point_count()} points = pi(3) = {pi(3, 3)}")

    # asking for an eleventh line fails, and the error reports how far
    # a greedy extension got
    try:
        build_partial_spread(3, 1, 11, F3)
    except InfeasibleError as e:
        print(f"11 disjoint lines in P^3(F_3): infeasible ({e})")

    # flowers: three planes in P^4 through a common point (2d - n = 0)
    for field in (F2, F3):
        flower = build_flower(4, 2, 3, field)
        flower.validate()
        n, q = 4, field.q
        count = flower.point_count()
        bound = bound_equidimensional(n, q, 2, 3).total
        print(f"flower of 3 planes in P^4(F_{q}): {count} points, "
              f"bound {bound}, core dim {flower.core.dim}")
        assert count == bound

    # mixed dimensions: a plane and a line in P^3, arranged extremally
    arr = build_extremal_arrangement([2, 1], 3, F2)
    arr.validate()
    target = bound_linear_arrangement([2, 1], 3, 2)
    print(f"arrangement dims [2, 1] in P^3(F_2): {arr.point_count()} points, "
          f"bound {target.total}, gap below the general bound "
          f"{target.extra['gap_below_projective']}")
    assert arr.point_count() == target.total

    # the same arrangement is loadable as a variety document and the
    # point count survives the round trip
    X = load_variety(arr.to_variety_doc())
    assert count_points(X).value == arr.point_count()
    print("variety-document round trip recounts the same total. ok")

    # concurrent lines in the plane: q + 1 of them through one point
    # exhaust P^2
    pencil = build_extremal_arrangement([1, 1, 1], 2, F2)
    print(f"3 concurrent lines in P^2(F_2): {pencil.point_count()} "
          f"= pi(2) = {pi(2, 2)}")
    try:
        build_extremal_arrangement([1, 1, 1, 1], 2, F2)
    except InfeasibleError as e:
        print(f"4 such lines: infeasible ({e})")

    # print one document in full so the format is visible
    print()
    print(spread.to_variety_doc(), end="")


if __name__ == "__main__":
    main()

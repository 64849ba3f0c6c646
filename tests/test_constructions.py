"""Spread/flower/arrangement builders and their exact-count certificates."""

import itertools

import pytest

from fqpoints.bounds import (
    bound_equidimensional,
    bound_linear_arrangement,
)
from fqpoints.constructions import (
    LinearUnion,
    build_extremal_arrangement,
    build_flower,
    build_partial_spread,
    enumerate_subspaces,
)
from fqpoints.errors import InfeasibleError, InvalidSpecError
from fqpoints.gf import make_field
from fqpoints.projgeom import LinearSubspace, pi
from fqpoints.variety import count_points, load_variety

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)


def union_size(members) -> int:
    pts = set()
    for m in members:
        pts.update(m.points())
    return len(pts)


def test_full_line_spread_partitions_p3_f2():
    spec = build_partial_spread(3, 1, 5, F2)
    assert len(spec.members) == 5
    assert spec.point_count() == 15 == pi(3, 2)
    pts = set()
    for m in spec.members:
        these = set(m.points())
        assert len(these) == 3 and not (pts & these)
        pts |= these
    assert len(pts) == 15  # a partition of the whole space


def test_small_spreads_and_counts():
    two = build_partial_spread(3, 1, 2, F2)
    assert union_size(two.members) == 6 == two.point_count()
    greedy = build_partial_spread(4, 1, 3, F2)
    assert union_size(greedy.members) == 9 == greedy.point_count()
    pts = build_partial_spread(1, 0, 3, F2)  # all of P^1
    assert union_size(pts.members) == 3


def test_spread_capacity_and_infeasible():
    with pytest.raises(InfeasibleError) as err:
        build_partial_spread(3, 1, 6, F2)
    assert err.value.achieved == 5
    full = build_partial_spread(3, 1, 10, F3)
    assert len(full.members) == 10 == 3 ** 2 + 1
    assert union_size(full.members) == pi(3, 3)


def test_spread_parameter_validation():
    with pytest.raises(InvalidSpecError):
        build_partial_spread(2, 1, 1, F2)  # 2d = n
    with pytest.raises(InvalidSpecError):
        build_partial_spread(3, 1, 0, F2)


def test_spread_over_gf4():
    spec = build_partial_spread(3, 1, 5, F4)
    assert spec.point_count() == 5 * pi(1, 4) == 25
    assert union_size(spec.members) == 25


def test_flower_of_planes_through_point():
    spec = build_flower(4, 2, 3, F2)
    assert spec.core.dim == 0
    assert spec.point_count() == 19
    assert union_size(spec.members) == 19
    assert spec.point_count() == bound_equidimensional(4, 2, 2, 3).total


def test_flower_examples_more_fields():
    two = build_flower(3, 2, 2, F2)  # two hyperplanes sharing a line
    assert two.point_count() == 11
    assert union_size(two.members) == 11
    big = build_flower(4, 2, 3, F3)
    assert big.point_count() == 37
    assert union_size(big.members) == 37


def test_flower_capacity_and_validation():
    with pytest.raises(InfeasibleError) as err:
        build_flower(4, 2, 6, F2)  # quotient spread caps at q^2+1 = 5
    assert err.value.achieved == 5
    assert len(build_flower(4, 2, 5, F2).members) == 5
    with pytest.raises(InvalidSpecError):
        build_flower(4, 1, 2, F2)  # n > 2d
    with pytest.raises(InvalidSpecError):
        build_flower(4, 2, 1, F2)


def test_flower_petals_meet_exactly_in_core():
    spec = build_flower(5, 3, 4, F2)
    for a, b in itertools.combinations(spec.members, 2):
        inter = a.intersection(b)
        assert inter is not None and inter.rows == spec.core.rows
    assert union_size(spec.members) == spec.point_count()


def test_tight_against_equidimensional_bound():
    cases = [build_partial_spread(3, 1, 4, F2), build_flower(3, 2, 2, F2),
             build_flower(4, 2, 4, F3), build_partial_spread(5, 2, 3, F2)]
    for spec in cases:
        r = len(spec.members)
        value = spec.point_count()
        assert value == bound_equidimensional(spec.n, spec.q, spec.dims[0],
                                              r).total


def test_arrangement_examples():
    a = build_extremal_arrangement([2, 1], 3, F2)
    assert a.point_count() == 9 == union_size(a.members)
    b = build_extremal_arrangement([2, 2], 4, F2)
    assert b.point_count() == 13
    c = build_extremal_arrangement([1, 1], 3, F2)
    assert c.point_count() == 6
    assert [m.dim for m in c.members] == [1, 1] and len(c.members) == 2


def test_arrangement_meets_bound_on_grid():
    for q, field in ((2, F2), (3, F3)):
        for n in (2, 3, 4):
            for r in (2, 3):
                for dims in itertools.product(range(n), repeat=r):
                    want = bound_linear_arrangement(list(dims), n, q).total
                    if want > pi(n, q):
                        continue  # cannot fit, covered by infeasible test
                    spec = build_extremal_arrangement(list(dims), n, field)
                    assert spec.point_count() == want
                    first = spec.members[0]
                    for m in spec.members[1:]:
                        inter = first.intersection(m)
                        got = -1 if inter is None else inter.dim
                        assert got >= first.dim + m.dim - n


def test_arrangement_concurrent_lines_fill_plane():
    spec = build_extremal_arrangement([1, 1, 1], 2, F2)
    assert spec.point_count() == 7 == pi(2, 2)
    with pytest.raises(InfeasibleError) as err:
        build_extremal_arrangement([1, 1, 1, 1], 2, F2)
    assert err.value.achieved == 3


def test_arrangement_validation():
    with pytest.raises(InvalidSpecError):
        build_extremal_arrangement([2], 3, F2)
    with pytest.raises(InvalidSpecError):
        build_extremal_arrangement([3, 1], 3, F2)
    spec = build_extremal_arrangement([2, 1], 3, F2)
    bad = LinearUnion("arrangement", 3, spec.members[::-1])
    with pytest.raises(InvalidSpecError):
        bad.validate()


def test_spec_validate_rejects_tampering():
    spec = build_partial_spread(3, 1, 2, F2)
    overlapping = LinearUnion(
        "spread", 3, (spec.members[0], spec.members[0]))
    with pytest.raises(InvalidSpecError):
        overlapping.validate()
    flower = build_flower(4, 2, 3, F2)
    crooked = LinearUnion("flower", 4, flower.members,
                          core=flower.members[0])
    with pytest.raises(InvalidSpecError):
        crooked.validate()
    for kind in ("spread", "flower", "arrangement"):
        with pytest.raises(InvalidSpecError):
            LinearUnion(kind, 3, ()).validate()


def test_enumerate_subspaces_counts():
    # lines in P^3 over GF(2): the Gaussian binomial [4 choose 2]_2
    lines = list(enumerate_subspaces(3, 1, F2))
    assert len(lines) == 35
    assert len({l.rows for l in lines}) == 35
    planes = list(enumerate_subspaces(3, 2, F3))
    assert len(planes) == 40  # [4 choose 3]_3 = (3^4-1)/(3-1) dual count


def test_variety_doc_roundtrip():
    spread = build_partial_spread(3, 1, 5, F2)
    X = load_variety(spread.to_variety_doc())
    assert X.irredundancy == "verified"
    assert count_points(X).value == 15
    flower = build_flower(4, 2, 3, F2)
    Y = load_variety(flower.to_variety_doc())
    assert count_points(Y).value == 19
    arr = build_extremal_arrangement([2, 1], 3, F2)
    Z = load_variety(arr.to_variety_doc())
    assert count_points(Z).value == 9
    assert [c.dim for c in Z.components] == [2, 1]


def test_variety_doc_roundtrip_extension_field():
    spread = build_partial_spread(3, 1, 3, F4)
    X = load_variety(spread.to_variety_doc())
    assert X.q == 4
    assert count_points(X).value == 3 * pi(1, 4)


def test_json_serialization_is_plain_data():
    import json
    spread = build_partial_spread(3, 1, 2, F2)
    blob = json.dumps(spread.to_json_dict(), sort_keys=True)
    assert json.loads(blob)["count"] == 6
    flower = build_flower(4, 2, 3, F4)
    blob2 = json.dumps(flower.to_json_dict(), sort_keys=True)
    assert json.loads(blob2)["kind"] == "flower"
    arr = build_extremal_arrangement([1, 1], 3, F2)
    assert json.loads(json.dumps(arr.to_json_dict()))["dims"] == [1, 1]

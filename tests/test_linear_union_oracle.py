"""The paper's bound checked on every small union of linear subspaces.

The points of P^n are indexed, and each subspace is stored as the int
bitmask of its points, so a union's point count is a popcount and an
intersection is an `&`. None of this goes through `LinearUnion`, so the
masks are an independent check of its `validate()` and `point_count()`.

For every irredundant union (no member inside another) the tests assert:

- its count is at most `bound_projective`;
- when the masks show the arrangement configuration (each later member
  meets the first, largest one in pi(d0 + di - n) points, and later members
  meet only inside the first), its count equals `bound_linear_arrangement`
  and `LinearUnion("arrangement", ...).point_count()`;
- `LinearUnion.validate()` accepts exactly the unions in configuration.

`bound_conjectural` is only a conjecture and is not asserted.
"""

import functools
import itertools
import random

import pytest

from fqpoints.bounds import bound_linear_arrangement, bound_projective
from fqpoints.constructions import LinearUnion, enumerate_subspaces
from fqpoints.errors import InvalidSpecError
from fqpoints.gf import field_from_order
from fqpoints.projgeom import enumerate_points, pi


def masked_subspaces(n, field):
    """(subspace, point bitmask) for every subspace of dimension 0..n-1,
    largest dimension first, so any combination of them comes sorted."""
    index = {p: i for i, p in enumerate(enumerate_points(n, field))}
    return [(sub, sum(1 << index[p] for p in sub.points()))
            for dim in range(n - 1, -1, -1)
            for sub in enumerate_subspaces(n, dim, field)]


@functools.lru_cache(maxsize=None)
def projective_bound(dims, n, q):
    return bound_projective([(d, 1) for d in dims], n, q).total


@functools.lru_cache(maxsize=None)
def arrangement_bound(dims, n, q):
    return bound_linear_arrangement(list(dims), n, q).total


def irredundant(masks):
    return all(a & b != a for a, b in itertools.permutations(masks, 2))


def in_configuration(dims, masks, n, q):
    first = masks[0]
    return (all((first & m).bit_count() == pi(dims[0] + d - n, q)
                for d, m in zip(dims[1:], masks[1:]))
            and all(not a & b & ~first
                    for a, b in itertools.combinations(masks[1:], 2)))


def check_union(picked, n, q, validate):
    """Assert the bound facts for one irredundant union; return
    (count meets the projective bound, union is in configuration)."""
    subs = tuple(s for s, _ in picked)
    masks = [m for _, m in picked]
    dims = tuple(s.dim for s in subs)
    count = functools.reduce(int.__or__, masks).bit_count()
    cap = projective_bound(dims, n, q)
    assert count <= cap, (dims, count, cap)
    spec = LinearUnion("arrangement", n, subs)
    configured = in_configuration(dims, masks, n, q)
    if configured:
        assert count == spec.point_count()
        if len(dims) >= 2:
            assert count == arrangement_bound(dims, n, q)
    if validate:
        try:
            spec.validate()
            accepted = True
        except InvalidSpecError:
            accepted = False
        assert accepted == configured, (dims, count)
    return count == cap, configured


def test_every_union_of_at_most_three_subspaces_of_p3_f2():
    table = masked_subspaces(3, field_from_order(2))
    assert len(table) == 15 + 35 + 15
    rng = random.Random(0)
    unions = tight = configured = validated = 0
    for r in (1, 2, 3):
        for picked in itertools.combinations(table, r):
            if not irredundant([m for _, m in picked]):
                continue
            # validate() is slower than the masks; r = 3 checks a sample
            validate = r < 3 or rng.random() < 0.1
            meets, config = check_union(picked, 3, 2, validate)
            unions += 1
            tight += meets
            configured += config and r > 1  # the arrangement bound's r >= 2
            validated += validate
    assert (unions, tight, configured) == (28_605, 7_815, 14_470)
    assert validated > 4_000


@pytest.mark.parametrize("n, q, r, samples", [
    (4, 2, 3, 1_500),
    (3, 4, 2, 1_000),
    (3, 4, 3, 1_000),
])
def test_sampled_unions(n, q, r, samples):
    table = masked_subspaces(n, field_from_order(q))
    rng = random.Random(n * 100 + q * 10 + r)
    seen = configured = 0
    while seen < samples:
        picked = sorted(rng.sample(range(len(table)), r))
        picked = [table[i] for i in picked]
        if not irredundant([m for _, m in picked]):
            continue
        seen += 1
        configured += check_union(picked, n, q, validate=True)[1]
    assert configured > 0  # the equality branch is exercised

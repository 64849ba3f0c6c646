"""Extension-field arithmetic against a schoolbook reference.

The reference multiplies coefficient lists over GF(p) and reduces the
product mod the field's modulus, so it shares nothing with the exp, log and
Zech tables of `FieldSpec`. Every pair of elements is checked.
"""

import itertools

import pytest

from fqpoints.gf import make_field

FIELDS = [
    ("GF(4)", 2, 2, None),
    ("GF(8)", 2, 3, None),
    ("GF(9)", 3, 2, None),  # x^2 + 1: the generator is not primitive
    ("GF(16)", 2, 4, None),
    ("GF(25)", 5, 2, "x^2+2"),  # a has order 8, not 24
    ("GF(27)", 3, 3, "x^3+2*x+1"),
]


def schoolbook_mul(a, b, p, modulus):
    """Product of two coefficient tuples over GF(p), reduced mod modulus."""
    k = len(modulus) - 1
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for i in range(2 * k - 2, k - 1, -1):
        c = prod[i] % p
        for j in range(k + 1):
            prod[i - k + j] -= c * modulus[j]
    return tuple(c % p for c in prod[:k])


def packed(coeffs, p):
    return sum(c * p ** i for i, c in enumerate(coeffs))


@pytest.mark.parametrize("name,p,k,modulus", FIELDS,
                         ids=[f[0] for f in FIELDS])
def test_arithmetic_matches_schoolbook(name, p, k, modulus):
    F = make_field(p, k, modulus)
    assert F.q == p ** k
    one = (1,) + (0,) * (k - 1)
    vec = {x: F.coeffs(x) for x in range(F.q)}
    for x, c in vec.items():
        assert len(c) == k and all(0 <= d < p for d in c)
        assert packed(c, p) == x
        if x:
            assert schoolbook_mul(c, vec[F.inv(x)], p, F.modulus) == one
    for x, y in itertools.product(range(F.q), repeat=2):
        cx, cy = vec[x], vec[y]
        assert vec[F.add(x, y)] == tuple((s + t) % p for s, t in zip(cx, cy))
        assert vec[F.sub(x, y)] == tuple((s - t) % p for s, t in zip(cx, cy))
        assert vec[F.mul(x, y)] == schoolbook_mul(cx, cy, p, F.modulus)


@pytest.mark.parametrize("name,p,k,modulus", FIELDS,
                         ids=[f[0] for f in FIELDS])
def test_elements_are_lexicographic_on_coefficients(name, p, k, modulus):
    F = make_field(p, k, modulus)
    els = list(F.elements())
    assert sorted(els) == list(range(F.q))
    assert [F.coeffs(x) for x in els] == sorted(
        itertools.product(range(p), repeat=k))
    assert F.gen() == packed((0, 1), p)

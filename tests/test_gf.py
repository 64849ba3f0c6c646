"""Field construction and arithmetic, checked exhaustively at small orders."""

import itertools

import pytest

from fqpoints.errors import (
    FieldMismatchError,
    MissingModulusError,
    NotPrimeError,
    ReducibleModulusError,
    WrongFieldError,
)
from fqpoints.gf import (
    FieldSpec,
    field_from_order,
    find_irreducible,
    is_prime,
    make_field,
    prime_power,
    upoly_is_irreducible,
)


def test_make_prime_field():
    F = make_field(2, 1)
    assert F.q == 2 and F.p == 2 and F.k == 1 and F.modulus is None


def test_make_gf4_with_explicit_modulus():
    F = make_field(2, 2, "x^2+x+1")
    assert F.q == 4
    assert F.modulus == (1, 1, 1)
    # independent irreducibility evidence: no root in GF(2)
    for c in (0, 1):
        assert (c * c + c + 1) % 2 == 1


def test_nonprime_characteristic_rejected():
    with pytest.raises(NotPrimeError):
        make_field(4, 1)
    with pytest.raises(NotPrimeError):
        make_field(1, 1)


def test_builtin_moduli_cover_the_small_extensions():
    for p, k, q in [(2, 2, 4), (2, 3, 8), (3, 2, 9), (2, 4, 16)]:
        F = make_field(p, k)
        assert F.q == q
        assert len(list(F.elements())) == q


def test_reducible_modulus_rejected():
    # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(ReducibleModulusError):
        make_field(2, 2, "x^2+1")


def test_missing_modulus_without_builtin():
    with pytest.raises(MissingModulusError):
        make_field(2, 5)


def test_prime_field_refuses_modulus():
    with pytest.raises(ValueError):
        make_field(2, 1, "x+1")


def test_gf4_generator_arithmetic():
    F = make_field(2, 2)
    a = F.gen()
    assert a * (a + F.one()) == F.one()  # a^2 = a + 1, so a*(a+1) = a^2 + a = 1
    assert a ** 3 == F.one()


def test_prime_field_arith_examples():
    F5 = make_field(5)
    assert F5.element(3) + F5.element(4) == F5.element(2)
    F7 = make_field(7)
    assert F7.element(3) ** 6 == F7.element(1)


def test_enumeration_order_and_determinism():
    F = make_field(2)
    assert [e.coeffs for e in F.elements()] == [(0,), (1,)]
    G = make_field(2, 2)
    seen = [e.coeffs for e in G.elements()]
    assert seen == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert seen == [e.coeffs for e in make_field(2, 2).elements()]


def test_division_by_zero():
    F = make_field(3)
    with pytest.raises(ZeroDivisionError):
        F.element(1) / F.element(0)
    with pytest.raises(ZeroDivisionError):
        F.zero().inverse()


def test_field_mismatch_detected():
    a = make_field(2).element(1)
    b = make_field(3).element(1)
    with pytest.raises(FieldMismatchError):
        a + b


def test_prime_field_has_no_generator():
    with pytest.raises(WrongFieldError):
        make_field(5).gen()


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (2, 2), (7, 1),
                                 (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)])
def test_field_axioms_exhaustive(p, k):
    """Full associativity/commutativity/distributivity sweep for q <= 16."""
    F = make_field(p, k)
    els = list(F.elements())
    assert len(els) == len(set(els)) == F.q
    zero, one = F.zero(), F.one()
    for x in els:
        assert x + zero == x and x * one == x and x * zero == zero
        assert x + (-x) == zero
        assert x ** F.q == x  # Frobenius fixes the whole field
        if x:
            assert x * x.inverse() == one
    for x, y in itertools.product(els, repeat=2):
        assert x + y == y + x and x * y == y * x
    for x, y, z in itertools.product(els, repeat=3):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_gf9_frobenius_and_modulus():
    F = make_field(3, 2)
    assert F.modulus == (1, 0, 1)
    for e in F.elements():
        assert e ** 9 == e


def test_element_printing():
    F = make_field(2, 3)
    a = F.gen()
    assert str(a * a + a + F.one()) == "a^2+a+1"
    assert str(F.zero()) == "0"
    assert str(make_field(5).element(3)) == "3"


def test_element_from_int_embeds_prime_subfield():
    F = make_field(3, 2)
    assert F.element(5) == F.element((2, 0))
    assert F.element(5) + 1 == F.element(0)


def test_field_from_order():
    assert field_from_order(8).q == 8
    assert field_from_order(7).k == 1
    with pytest.raises(NotPrimeError):
        field_from_order(6)
    with pytest.raises(NotPrimeError):
        field_from_order(12)


def test_prime_power_against_trial_factoring():
    for q in range(-2, 600):
        want = None
        for p in range(2, max(q, 2) + 1):
            k = 1
            while p ** k < q:
                k += 1
            if p ** k == q and is_prime(p):
                want = (p, k)
                break
        assert prime_power(q) == want


def test_is_prime_small_table():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_find_irreducible_matches_exhaustive_check():
    for p, k in [(2, 1), (3, 1)]:
        F = make_field(p, k)
        for m in (1, 2, 3):
            poly = find_irreducible(F, m)
            assert len(poly) == m + 1 and poly[-1] == F.one()
            assert upoly_is_irreducible(poly, F)


def test_spec_identity_and_equality():
    assert make_field(2, 2) == make_field(2, 2, "x^2+x+1")
    assert make_field(2, 2) != make_field(2, 3)
    assert isinstance(make_field(2, 2), FieldSpec)

"""Field construction and arithmetic, checked exhaustively at small orders."""

import itertools

import pytest

from fqpoints.errors import (
    BudgetExceededError,
    FieldMismatchError,
    MissingModulusError,
    NotPrimeError,
    ReducibleModulusError,
    WrongFieldError,
)
from fqpoints import gf
from fqpoints.gf import (
    FieldSpec,
    field_from_order,
    find_irreducible,
    is_prime,
    make_field,
    prime_power,
    upoly_is_irreducible,
)
from fqpoints.mpoly import parse_poly


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
    assert F.mul(a, F.add(a, 1)) == 1  # a^2 = a + 1, so a*(a+1) = a^2 + a = 1
    assert F.pow(a, 3) == 1


def test_prime_field_arith_examples():
    F5 = make_field(5)
    assert F5.add(3, 4) == 2
    F7 = make_field(7)
    assert F7.pow(3, 6) == 1


def test_enumeration_order_and_determinism():
    F = make_field(2)
    assert [F.coeffs(e) for e in F.elements()] == [(0,), (1,)]
    G = make_field(2, 2)
    seen = [G.coeffs(e) for e in G.elements()]
    assert seen == [(0, 0), (0, 1), (1, 0), (1, 1)]
    H = make_field(2, 2)
    assert seen == [H.coeffs(e) for e in H.elements()]


def test_division_by_zero():
    F = make_field(3)
    with pytest.raises(ZeroDivisionError):
        F.pow(0, -1)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_field_mismatch_detected():
    a = parse_poly("x0", make_field(2), 1)
    b = parse_poly("x0", make_field(3), 1)
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
    add, mul = F.add, F.mul
    for x in els:
        assert add(x, 0) == x and mul(x, 1) == x and mul(x, 0) == 0
        assert add(x, F.neg(x)) == 0
        assert F.pow(x, F.q) == x  # Frobenius fixes the whole field
        if x:
            assert mul(x, F.inv(x)) == 1
    for x, y in itertools.product(els, repeat=2):
        assert add(x, y) == add(y, x) and mul(x, y) == mul(y, x)
    for x, y, z in itertools.product(els, repeat=3):
        assert add(add(x, y), z) == add(x, add(y, z))
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))


def test_gf9_frobenius_and_modulus():
    F = make_field(3, 2)
    assert F.modulus == (1, 0, 1)
    for e in F.elements():
        assert F.pow(e, 9) == e


def test_element_printing():
    F = make_field(2, 3)
    a = F.gen()
    assert F.text(F.add(F.mul(a, a), F.add(a, 1))) == "a^2+a+1"
    assert F.text(0) == "0"
    assert make_field(5).text(3) == "3"


def test_element_from_int_embeds_prime_subfield():
    F = make_field(3, 2)
    five = parse_poly("5", F, 1).evaluate((0,))
    assert F.coeffs(five) == (2, 0)
    assert F.add(five, 1) == 0


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


@pytest.mark.parametrize("n, want", [
    (2 ** 61 - 1, True),
    (1_000_000_000_000_000_003, True),
    (3_215_031_751, False),  # strong pseudoprime to bases 2, 3, 5, 7
    (3_825_123_056_546_413_051, False),  # to every prime base up to 31
    (3 * (2 ** 89 - 1), False),  # composite past the exact bound
])
def test_is_prime_on_large_inputs(n, want):
    assert is_prime(n) is want


def test_is_prime_refuses_a_probable_prime_past_the_exact_bound():
    with pytest.raises(BudgetExceededError):
        is_prime(2 ** 89 - 1)


@pytest.mark.parametrize("q, want", [
    ((2 ** 31 - 1) ** 2, (2 ** 31 - 1, 2)),
    (3 ** 40, (3, 40)),
    ((2 ** 31 - 1) * (2 ** 61 - 1), None),
    (2 ** 64, (2, 64)),
    (6 ** 20, None),
])
def test_prime_power_on_large_inputs(q, want):
    assert prime_power(q) == want


def test_log_tables_walk_one_candidate(monkeypatch):
    """x is not primitive mod x^10 + 2x^8 + 1 over GF(3), and neither are
    the next candidates; the order test rejects them without walking their
    powers, so building the tables costs about q reductions, not q per
    candidate tried."""
    calls = []
    real = gf._reduce_by_modulus

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(gf, "_reduce_by_modulus", counted)
    F = make_field(3, 10, "x^10+2*x^8+1")
    assert F.log_exp()[1][1] != F.gen()
    assert len(calls) < 2 * F.q


@pytest.mark.parametrize("p, k, modulus", [
    (2, 17, "x^17+x^3+1"), (2, 20, "x^20+x^3+1"), (257, 2, "x^2+3"),
    (2, 10 ** 9, None), (1000000007, 2, None)])
def test_extension_order_over_the_cap_is_refused_first(monkeypatch,
                                                        p, k, modulus):
    # refused before the modulus is parsed or tested
    monkeypatch.setattr(gf, "upoly_is_irreducible", None)
    with pytest.raises(BudgetExceededError, match=r"extension order cap"):
        make_field(p, k, modulus)
    assert gf.EXTENSION_ORDER_CAP == 2 ** 16


def test_find_irreducible_matches_exhaustive_check():
    for p, k in [(2, 1), (3, 1)]:
        F = make_field(p, k)
        for m in (1, 2, 3):
            poly = find_irreducible(F, m)
            assert len(poly) == m + 1 and poly[-1] == 1
            assert upoly_is_irreducible(poly, F)


def test_spec_identity_and_equality():
    assert make_field(2, 2) == make_field(2, 2, "x^2+x+1")
    assert make_field(2, 2) != make_field(2, 3)
    assert isinstance(make_field(2, 2), FieldSpec)

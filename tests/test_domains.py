import numpy as np
import pytest

from symsub import (
    ComplexNumbers,
    DomainError,
    PrimeField,
    characteristic,
    domain_from_name,
    field_inverse,
    square_root_in_field,
)
from symsub.domains import MAX_PRIME


def test_domain_from_name():
    assert domain_from_name("F2") == PrimeField(2)
    assert domain_from_name("F17") == PrimeField(17)
    assert domain_from_name("C") == ComplexNumbers()
    with pytest.raises(DomainError):
        domain_from_name("F4")
    with pytest.raises(DomainError):
        domain_from_name("R")
    with pytest.raises(DomainError):
        domain_from_name(f"F{MAX_PRIME + 10}")


def test_characteristic():
    assert characteristic(PrimeField(7)) == 7
    assert characteristic(ComplexNumbers()) == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_prime_field_arithmetic(p):
    F = PrimeField(p)
    for a in range(p):
        for b in range(p):
            assert F.add(a, b) == (a + b) % p
            assert F.mul(a, b) == (a * b) % p
            assert F.sub(a, b) == (a - b) % p
        assert F.neg(a) == (-a) % p
        if a:
            assert F.mul(a, F.inverse(a)) == 1
            assert field_inverse(F, a) == F.inverse(a)
    with pytest.raises(DomainError):
        F.inverse(0)


def test_prime_field_reduce_normalizes_negatives():
    F = PrimeField(5)
    arr = F.reduce(np.array([[-1, 7], [10, -6]]))
    assert arr.tolist() == [[4, 2], [0, 4]]
    assert F.asarray([[-1]]).tolist() == [[4]]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 29, 31])
def test_square_roots_cover_all_residues(p):
    """sqrt returns a root exactly on the quadratic residues."""
    F = PrimeField(p)
    residues = {a * a % p for a in range(p)}
    for a in range(p):
        r = square_root_in_field(F, a)
        if a in residues:
            assert r is not None and r * r % p == a
        else:
            assert r is None


def test_square_root_complex_principal():
    C = ComplexNumbers()
    assert square_root_in_field(C, -1) == pytest.approx(1j)
    assert square_root_in_field(C, 4) == pytest.approx(2)
    z = square_root_in_field(C, 3 - 4j)
    assert z * z == pytest.approx(3 - 4j)


@pytest.mark.parametrize("p,k", [(5, 3), (7, 3), (7, 5), (11, 4), (13, 6)])
def test_kth_root_field(p, k):
    F = PrimeField(p)
    for a in range(p):
        r = F.kth_root(a, k)
        if r is not None:
            assert pow(r, k, p) == a
    # every k-th power must have a reported root
    for a in range(p):
        assert F.kth_root(pow(a, k, p), k) is not None


def test_complex_eq_uses_tolerance():
    C = ComplexNumbers()
    assert C.eq(1.0, 1.0 + 1e-12)
    assert not C.eq(1.0, 1.0 + 1e-6)
    assert C.is_zero(1e-10)
    loose = ComplexNumbers(tol=1e-3)
    assert loose.eq(1.0, 1.0005)

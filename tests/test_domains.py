import numpy as np
import pytest

from symsub import (
    ComplexNumbers,
    DomainError,
    PrimeField,
    domain_from_name,
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


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_prime_field_arithmetic(p):
    F = PrimeField(p)
    for a in range(1, p):
        assert a * F.inverse(a) % p == 1
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
        r = F.sqrt(a)
        if a in residues:
            assert r is not None and r * r % p == a
        else:
            assert r is None


def test_square_root_complex_principal():
    C = ComplexNumbers()
    assert C.sqrt(-1) == pytest.approx(1j)
    assert C.sqrt(4) == pytest.approx(2)
    z = C.sqrt(3 - 4j)
    assert z * z == pytest.approx(3 - 4j)


def test_complex_eq_uses_tolerance():
    C = ComplexNumbers()
    assert C.arrays_equal(np.array(1.0), np.array(1.0 + 1e-12))
    assert not C.arrays_equal(np.array(1.0), np.array(1.0 + 1e-6))
    assert C.is_zero(1e-10)


def test_prime_field_accepts_numpy_integers_only_as_integers():
    assert PrimeField(np.int64(7)) == PrimeField(7)
    assert PrimeField(np.int64(7)).p.__class__ is int
    for bad in (7.0, "7", np.float64(7.0), np.int64(8)):
        with pytest.raises(DomainError, match="not a prime"):
            PrimeField(bad)


@pytest.mark.parametrize("p", [2, 3, 7, 65521])
def test_nonzero_matches_the_prime_field_masks_it_replaces(p):
    """Given unreduced entries, ``nonzero`` is the ``arr % p != 0`` mask of
    ``support`` and ``tensor_to_json``, the negation of ``block == 0`` on
    the reduced block, and its ``any()`` the negation of the old
    ``arrays_equal(arr, zeros)`` test."""
    F = PrimeField(p)
    arr = np.array([0, p, -1, p - 1, 2 * p, -p], dtype=np.int64)
    mask = F.nonzero(arr)
    assert mask.tolist() == [False, False, True, p > 1, False, False]
    assert mask.tolist() == (arr % p != 0).tolist()
    assert mask.tolist() == (~(F.reduce(arr) == 0)).tolist()
    for i in range(len(arr)):
        assert bool(mask[i:i + 1].any()) == (not F.arrays_equal(arr[i:i + 1], F.zeros(1)))
    assert not F.nonzero(F.zeros((0, 3))).any()


def test_nonzero_matches_the_complex_masks_it_replaces():
    """Over C ``nonzero`` is ``abs(arr) > tol``: an entry of modulus exactly
    tol is zero, one a hair above is not; -0.0 and 1e-300 are zero."""
    C = ComplexNumbers()
    arr = np.array([1e-9, 1e-9 * (1 + 1e-12), -0.0, 1e-300, -1e-9j, 2e-9j], dtype=np.complex128)
    mask = C.nonzero(arr)
    assert mask.tolist() == [False, True, False, False, False, True]
    assert mask.tolist() == (np.abs(arr) > C.tol).tolist()
    for i in range(len(arr)):
        assert bool(mask[i:i + 1].any()) == (not C.arrays_equal(arr[i:i + 1], C.zeros(1)))
    assert not C.nonzero(C.zeros((0, 3))).any()



# (value, PrimeField's message, domain_from_name's message)
_DOMAIN_CHECKS = [
    (0, "not a prime: 0", "unknown domain tag: 0"),
    (1, "not a prime: 1", "unknown domain tag: 1"),
    (4, "not a prime: 4", "unknown domain tag: 4"),
    (65537, "prime too large: 65537 >= 2**16", "unknown domain tag: 65537"),
    (7.0, "not a prime: 7.0", "unknown domain tag: 7.0"),
    ("7", "not a prime: '7'", "unknown domain tag: '7'"),
    ("F4", "not a prime: 'F4'", "not a prime: 4"),
    ("G7", "not a prime: 'G7'", "unknown domain tag: 'G7'"),
    (7, None, "unknown domain tag: 7"),
]


def test_there_is_one_domain_check():
    """PrimeField and domain_from_name share _common's check: one DomainError
    class, and the same messages for every value."""
    import symsub._common
    import symsub.domains

    assert symsub.domains.DomainError is symsub._common.DomainError
    assert symsub.domains.MAX_PRIME is symsub._common.MAX_PRIME
    for value, field_message, tag_message in _DOMAIN_CHECKS:
        if field_message is None:
            assert PrimeField(value).p == value
        else:
            with pytest.raises(DomainError) as err:
                PrimeField(value)
            assert str(err.value) == field_message
        with pytest.raises(DomainError) as err:
            domain_from_name(value)
        assert str(err.value) == tag_message


def test_prime_field_accepts_a_numpy_integer():
    F = PrimeField(np.int64(7))
    assert F == PrimeField(7) and type(F.p) is int
    assert domain_from_name("F7") == F

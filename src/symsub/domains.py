"""Scalar domains: exact prime fields F_p and tolerance-based complex numbers.

Every other module computes over one of two scalar domains:

* :class:`PrimeField` -- integers mod a prime ``p < 2**16``, exact arithmetic,
  residues stored as machine integers (numpy ``int64`` in bulk).
* :class:`ComplexNumbers` -- finite ``complex128`` floating point with an
  absolute comparison/pivot tolerance ``tol``, fixed at ``1e-9`` (a class
  constant, not a parameter), so every ℂ domain is equal.

Domains are small immutable value objects, compared by value.  Each carries
only the arithmetic the package calls, and one bulk zero test, ``nonzero``.
The domain check (a tag, the prime test, the 2**16 limit) and
:class:`DomainError` live in the numpy-free ``_common``, which the JSON reader
shares; they are re-exported here.
"""

from __future__ import annotations

import cmath
from typing import Optional, Union

import numpy as np

from ._common import MAX_PRIME, DomainError, check_prime, domain_prime

__all__ = [
    "MAX_PRIME",
    "DomainError",
    "PrimeField",
    "ComplexNumbers",
    "Domain",
    "domain_from_name",
]


class PrimeField:
    """The field F_p for a prime p, with p < 2**16 (``_common.check_prime``)."""

    __slots__ = ("p",)

    dtype = np.int64

    def __init__(self, p: int):
        self.p = check_prime(p)

    # -- identity / representation -------------------------------------------

    @property
    def name(self) -> str:
        return f"F{self.p}"

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    # -- scalar arithmetic ----------------------------------------------------

    def normalize(self, v) -> int:
        return int(v) % self.p

    def is_zero(self, v) -> bool:
        return int(v) % self.p == 0

    def inverse(self, a) -> int:
        a = int(a) % self.p
        if a == 0:
            raise DomainError(f"not invertible: 0 in {self.name}")
        return pow(a, self.p - 2, self.p)

    def sqrt(self, a) -> Optional[int]:
        """A square root of ``a`` in F_p, or None for a quadratic non-residue."""
        p = self.p
        a = int(a) % p
        if a == 0:
            return 0
        if p == 2:
            return a
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        if p % 4 == 3:
            return pow(a, (p + 1) // 4, p)
        return self._tonelli_shanks(a)

    def _tonelli_shanks(self, a: int) -> int:
        # p ≡ 1 (mod 4); a is a known residue.  Standard Tonelli–Shanks.
        p = self.p
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c = s, pow(z, q, p)
        t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            t2, i = t, 0
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return r

    # -- bulk array support ---------------------------------------------------

    def asarray(self, data) -> np.ndarray:
        return np.asarray(data, dtype=np.int64) % self.p

    def reduce(self, arr: np.ndarray) -> np.ndarray:
        return arr % self.p

    def nonzero(self, arr: np.ndarray) -> np.ndarray:
        """The mask of entries that are nonzero mod p (given unreduced)."""
        return arr % self.p != 0

    def arrays_equal(self, a: np.ndarray, b: np.ndarray) -> bool:
        return bool(np.array_equal(a % self.p, b % self.p))

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.int64)


class ComplexNumbers:
    """Floating-point complex scalars with absolute tolerance ``tol``."""

    __slots__ = ()

    dtype = np.complex128
    name = "C"
    p = None
    tol = 1e-9

    def __repr__(self) -> str:
        return "ComplexNumbers()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ComplexNumbers)

    def __hash__(self) -> int:
        return hash("ComplexNumbers")

    def normalize(self, v) -> complex:
        return complex(v)

    def is_zero(self, v) -> bool:
        return abs(complex(v)) <= self.tol

    def inverse(self, a) -> complex:
        a = complex(a)
        if abs(a) <= self.tol:
            raise DomainError("not invertible: zero within tolerance in C")
        return 1.0 / a

    def sqrt(self, a) -> complex:
        return cmath.sqrt(complex(a))

    def asarray(self, data) -> np.ndarray:
        """The entries as complex128; NaN and ±inf are refused, since every
        zero test would read them as zero."""
        arr = np.asarray(data, dtype=np.complex128)
        if not np.isfinite(arr).all():
            raise DomainError("complex entry is not finite")
        return arr

    def reduce(self, arr: np.ndarray) -> np.ndarray:
        return arr

    def nonzero(self, arr: np.ndarray) -> np.ndarray:
        """The mask of entries of modulus above the tolerance."""
        return np.abs(arr) > self.tol

    def arrays_equal(self, a: np.ndarray, b: np.ndarray) -> bool:
        if a.shape != b.shape:
            return False
        if a.size == 0:
            return True
        return bool(np.max(np.abs(a - b)) <= self.tol)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.complex128)


Domain = Union[PrimeField, ComplexNumbers]


def domain_from_name(name: str) -> Domain:
    """The domain of a tag: "C" or "F<p>" (as used in all JSON formats),
    checked by ``_common.domain_prime``."""
    p = domain_prime(name)
    return ComplexNumbers() if p is None else PrimeField(p)

"""Scalar domains: exact prime fields F_p and tolerance-based complex numbers.

Every other module computes over one of two scalar domains:

* :class:`PrimeField` -- integers mod a prime ``p < 2**16``, exact arithmetic,
  residues stored as machine integers (numpy ``int64`` in bulk).
* :class:`ComplexNumbers` -- ``complex128`` floating point with an absolute
  comparison/pivot tolerance ``tol`` (default ``1e-9``).

Domains are small immutable value objects; they are compared by value and are
safe to share between workers.
"""

from __future__ import annotations

import cmath
import math
from typing import List, Optional, Union

import numpy as np

__all__ = [
    "DomainError",
    "PrimeField",
    "ComplexNumbers",
    "Domain",
    "domain_from_name",
    "characteristic",
    "field_inverse",
    "square_root_in_field",
    "pack_bits",
    "unpack_bits",
    "parity",
]

MAX_PRIME = 1 << 16


class DomainError(ValueError):
    """Invalid domain construction, domain mismatch, or unsupported scalar op."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class PrimeField:
    """The field F_p for a prime p, with p < 2**16 (checked by trial division)."""

    __slots__ = ("p",)

    kind = "prime-field"
    dtype = np.int64

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise DomainError(f"not a prime: {p!r}")
        if p >= MAX_PRIME:
            raise DomainError(f"prime too large: {p} >= 2**16")
        self.p = p

    # -- identity / representation -------------------------------------------

    @property
    def char(self) -> int:
        return self.p

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

    def eq(self, a, b) -> bool:
        return (int(a) - int(b)) % self.p == 0

    def add(self, a, b) -> int:
        return (int(a) + int(b)) % self.p

    def sub(self, a, b) -> int:
        return (int(a) - int(b)) % self.p

    def mul(self, a, b) -> int:
        return (int(a) * int(b)) % self.p

    def neg(self, a) -> int:
        return (-int(a)) % self.p

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

    def kth_root(self, a, k: int) -> Optional[int]:
        """Some x with x**k = a, or None.  Enumerative (p < 2**16)."""
        p = self.p
        a = int(a) % p
        for x in range(p):
            if pow(x, k, p) == a:
                return x
        return None

    # -- bulk array support ---------------------------------------------------

    def asarray(self, data) -> np.ndarray:
        return np.asarray(data, dtype=np.int64) % self.p

    def reduce(self, arr: np.ndarray) -> np.ndarray:
        return arr % self.p

    def arrays_equal(self, a: np.ndarray, b: np.ndarray) -> bool:
        return bool(np.array_equal(a % self.p, b % self.p))

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.int64)


class ComplexNumbers:
    """Floating-point complex scalars with absolute tolerance ``tol``."""

    __slots__ = ("tol",)

    kind = "complex"
    char = 0
    dtype = np.complex128
    name = "C"
    p = None

    def __init__(self, tol: float = 1e-9):
        if not tol > 0:
            raise DomainError(f"tolerance must be positive, got {tol}")
        self.tol = float(tol)

    def __repr__(self) -> str:
        return f"ComplexNumbers(tol={self.tol})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ComplexNumbers) and other.tol == self.tol

    def __hash__(self) -> int:
        return hash(("ComplexNumbers", self.tol))

    def normalize(self, v) -> complex:
        return complex(v)

    def is_zero(self, v) -> bool:
        return abs(complex(v)) <= self.tol

    def eq(self, a, b) -> bool:
        return abs(complex(a) - complex(b)) <= self.tol

    def add(self, a, b) -> complex:
        return complex(a) + complex(b)

    def sub(self, a, b) -> complex:
        return complex(a) - complex(b)

    def mul(self, a, b) -> complex:
        return complex(a) * complex(b)

    def neg(self, a) -> complex:
        return -complex(a)

    def inverse(self, a) -> complex:
        a = complex(a)
        if abs(a) <= self.tol:
            raise DomainError("not invertible: zero within tolerance in C")
        return 1.0 / a

    def sqrt(self, a) -> complex:
        return cmath.sqrt(complex(a))

    def kth_root(self, a, k: int) -> complex:
        """Principal k-th root."""
        a = complex(a)
        if a == 0:
            return 0j
        r, phi = cmath.polar(a)
        return cmath.rect(r ** (1.0 / k), phi / k)

    def asarray(self, data) -> np.ndarray:
        return np.asarray(data, dtype=np.complex128)

    def reduce(self, arr: np.ndarray) -> np.ndarray:
        return arr

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
    """Parse a domain tag: "C" or "F<p>" (as used in all JSON formats)."""
    if name == "C":
        return ComplexNumbers()
    if isinstance(name, str) and name.startswith("F"):
        try:
            p = int(name[1:])
        except ValueError:
            raise DomainError(f"unknown domain tag: {name!r}") from None
        return PrimeField(p)
    raise DomainError(f"unknown domain tag: {name!r}")


def characteristic(domain: Domain) -> int:
    """0 for the complex numbers, p for F_p."""
    return domain.char


def field_inverse(domain: Domain, a):
    """The multiplicative inverse of ``a``; raises DomainError on zero."""
    return domain.inverse(a)


def square_root_in_field(domain: Domain, a):
    """A square root of ``a`` or None (None only over prime fields)."""
    return domain.sqrt(a)


# ---------------------------------------------------------------------------
# F2 bit-packed vectors (used by the exhaustive-search module)
# ---------------------------------------------------------------------------

def pack_bits(bits) -> int:
    """Pack a 0/1 vector into an int, bit i = coordinate i."""
    word = 0
    for i, b in enumerate(bits):
        if int(b) & 1:
            word |= 1 << i
    return word


def unpack_bits(word: int, n: int) -> List[int]:
    """Inverse of :func:`pack_bits` for an n-coordinate vector."""
    return [(word >> i) & 1 for i in range(n)]


def parity(word: int) -> int:
    """Parity of the popcount of ``word`` (dot products mod 2)."""
    return word.bit_count() & 1

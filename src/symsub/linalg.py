"""Gaussian elimination over a scalar domain (internal helper module).

Two kernels, each taking plain numpy arrays plus a domain object from
:mod:`symsub.domains`:

* :func:`row_reduce` brings one matrix to reduced row echelon form over
  F_p or C, with the invertible P that does it, by one array update per
  pivot; :func:`rank` runs the same elimination, unreduced, on the matrix
  alone, with no identity block, except over F2, where rows packed into
  ints are reduced instead.
* :func:`solve_stack` solves a stack of systems over F_p at once.

Prime-field elimination is exact on integer residues; complex elimination
uses partial pivoting with the domain's absolute tolerance, as fixed by
the scalar contract.
"""

from __future__ import annotations

import functools
from typing import List, Tuple

import numpy as np

from .domains import Domain, PrimeField

__all__ = ["row_reduce", "rank", "solve_stack"]


def _f2_rank(M: np.ndarray) -> int:
    """Rank over F2, each row packed into an int: a basis keyed by leading
    bit absorbs the rows one by one."""
    basis = {}
    for packed in np.packbits(np.asarray(M) % 2, axis=1):
        row = int.from_bytes(packed.tobytes(), "big")
        while row and (top := row.bit_length()) in basis:
            row ^= basis[top]
        if row:
            basis[top] = row
    return len(basis)


def row_reduce(A: np.ndarray, domain: Domain) -> Tuple[np.ndarray, List[int], np.ndarray]:
    """Row reduce A.  Returns (R, pivots, P) with R = P @ A (mod p for fields).

    R is in reduced row echelon form with unit pivots; P is invertible,
    read off the one array [A | I] that :func:`_eliminate` reduces.
    """
    A = domain.asarray(A)
    n, m = A.shape
    M = np.eye(n, m + n, m, dtype=A.dtype)  # [0 | I]: no second n x n array
    M[:, :m] = A
    pivots = _eliminate(M, m, domain, True)
    return M[:, :m], pivots, M[:, m:]


def _eliminate(M: np.ndarray, m: int, domain: Domain, reduced: bool) -> List[int]:
    """Bring M's first m columns to (reduced) row echelon form with unit
    pivots in place; the pivot columns.  Per pivot (the first nonzero entry
    over F_p, the largest over C), its column, zeroed at the pivot row, above
    it unless ``reduced`` and at modulus <= tol over C, gives the factors:
    one update subtracts factors x pivot row from all of M if at least half
    the rows change, else from the changed rows."""
    n = len(M)
    field = isinstance(domain, PrimeField)
    pivots: List[int] = []
    for col in range(m):
        if (r := len(pivots)) >= n:
            break
        factors = M[:, col].copy()  # one strided read of the column
        if field:
            live = factors[r:].nonzero()[0]
            if not live.size:
                continue
            i = r + int(live[0])
        else:
            mags = np.abs(factors)
            i = r + int(mags[r:].argmax())
            if mags[i] <= domain.tol:
                continue
            factors[mags <= domain.tol] = 0
        if i != r:
            M[[r, i]] = M[[i, r]]
            factors[[r, i]] = factors[[i, r]]
        M[r] = domain.reduce(M[r] * domain.inverse(M[r, col]))
        factors[r if reduced else 0:r + 1] = 0
        changed = factors.nonzero()[0]
        if 2 * len(changed) >= n:  # in place, no new array
            M -= factors[:, None] * M[r]
            if field:
                M %= domain.p
        elif changed.size:
            M[changed] = domain.reduce(M[changed] - factors[changed, None] * M[r])
        pivots.append(col)
    return pivots


def rank(A: np.ndarray, domain: Domain) -> int:
    """Rank of A.  Over F_p, of A or A^T, whichever has fewer rows: the two
    ranks agree exactly (over C the tolerance can tell them apart)."""
    if isinstance(domain, PrimeField):
        A = np.asarray(A)
        A = A.T if A.shape[0] > A.shape[1] else A
        if domain.p == 2:
            return _f2_rank(A)
    return len(_eliminate(domain.asarray(A).copy(), np.shape(A)[1], domain, False))


@functools.lru_cache(maxsize=16)
def _inverse_table(p: int) -> np.ndarray:
    """a -> 1/a mod p for a in 0..p-1 (0 -> 0); shared by callers, so read-only."""
    table = np.array([0] + [pow(a, -1, p) for a in range(1, p)], dtype=np.uint32)
    table.setflags(write=False)
    return table


def solve_stack(
    T: np.ndarray, G: np.ndarray, domain: PrimeField
) -> Tuple[np.ndarray, np.ndarray]:
    """(ok, X): ok[s] iff T[s] @ X[s] = G[s] has a solution, for a stack T of
    (S, n, m) and G of (S, n, e) or one (n, e); X[s] has the free variables
    0, read from the reduced echelon form.  One Gauss-Jordan pass per column
    over the whole stack: the pivot is the first unused nonzero row, scaled
    by an inverse table, never swapped.  Entries stay below p^2 <= 2^32.
    """
    p = domain.p
    S, n, m = np.shape(T)
    M = np.empty((S, n, m + np.shape(G)[-1]), dtype=np.uint32)
    M[:, :, :m] = np.asarray(T) % p
    M[:, :, m:] = np.asarray(G) % p
    inv = _inverse_table(p)
    used = np.zeros((S, n), dtype=bool)
    pivots = np.zeros((S, m, n), dtype=np.uint32)  # one-hot pivot row per column
    for c in range(m):
        if used.all():  # no matrix can gain a pivot
            break
        col = M[:, :, c]
        live = (col != 0) & ~used
        first = live & (np.arange(n) == live.argmax(axis=1)[:, None])
        pivots[:, c] = first
        row = np.matmul(pivots[:, c, None], M)[:, 0]  # zero where no pivot
        row = row * inv[row[:, c]][:, None] % p
        # the pivot row becomes the scaled row: M_r - (M_rc - 1) * row
        M += (np.uint32(p) - col + first)[:, :, None] * row[:, None, :]
        M %= p
        used |= first
    ok = ~(M[:, :, m:].any(axis=2) & ~used).any(axis=1)
    return ok, np.matmul(pivots, M[:, :, m:]).astype(np.int64)

"""Gaussian elimination over a scalar domain (internal helper module).

All routines take plain numpy arrays plus a domain object from
:mod:`symsub.domains`.  Prime-field elimination is exact on int64 residues;
complex elimination uses partial pivoting with the domain's absolute
tolerance, as fixed by the scalar contract.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .domains import ComplexNumbers, Domain, PrimeField

__all__ = [
    "row_reduce",
    "rank",
    "solve",
    "invert",
    "equivalence_diagonalize",
    "columns_contained",
]


# ---------------------------------------------------------------------------
# GF(2) fast path: rows as int bitsets (bit c = column c)
# ---------------------------------------------------------------------------

def _f2_pack_rows(M: np.ndarray) -> List[int]:
    bits = np.asarray(M) % 2
    m = bits.shape[1]
    if m <= 62:  # one int64 product
        return (bits @ (np.int64(1) << np.arange(m, dtype=np.int64))).tolist()
    return [int("".join(map(str, row[::-1])), 2) for row in bits.tolist()]


def _f2_rank(rows: List[int], m: int) -> int:
    rows = list(rows)
    n = len(rows)
    r = 0
    for col in range(m):
        piv = None
        for i in range(r, n):
            if (rows[i] >> col) & 1:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, n):
            if (rows[i] >> col) & 1:
                rows[i] ^= rows[r]
        r += 1
    return r


def _f2_solve(A: np.ndarray, B: np.ndarray) -> Optional[np.ndarray]:
    """Solve A X = B over F_2 (free variables 0), or None if inconsistent."""
    n, m = A.shape
    q = B.shape[1]
    arows = _f2_pack_rows(A)
    brows = _f2_pack_rows(B)
    aug = [arows[i] | (brows[i] << m) for i in range(n)]
    r = 0
    piv_cols = []
    for col in range(m):
        piv = None
        for i in range(r, n):
            if (aug[i] >> col) & 1:
                piv = i
                break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        for i in range(n):
            if i != r and (aug[i] >> col) & 1:
                aug[i] ^= aug[r]
        piv_cols.append(col)
        r += 1
    amask = (1 << m) - 1
    for i in range(r, n):
        if aug[i] & ~amask:
            return None
    X = np.zeros((m, q), dtype=np.int64)
    for i, col in enumerate(piv_cols):
        rhs = aug[i] >> m
        for j in range(q):
            X[col, j] = (rhs >> j) & 1
    return X


def _pivot_row(M: np.ndarray, col: int, start: int, domain: Domain) -> Optional[int]:
    """Pick a pivot row index >= start in the given column, or None."""
    if isinstance(domain, PrimeField):
        for i in range(start, M.shape[0]):
            if M[i, col] % domain.p != 0:
                return i
        return None
    col_abs = np.abs(M[start:, col])
    if col_abs.size == 0:
        return None
    i = int(np.argmax(col_abs))
    if col_abs[i] <= domain.tol:
        return None
    return start + i


def row_reduce(
    A: np.ndarray, domain: Domain, reduced: bool = True
) -> Tuple[np.ndarray, List[int], np.ndarray]:
    """Row reduce A.  Returns (R, pivots, P) with R = P @ A (mod p for fields).

    R is in (reduced) row echelon form with unit pivots; P is invertible.
    """
    M = domain.asarray(A).copy()
    n, m = M.shape
    P = np.eye(n, dtype=M.dtype)
    pivots: List[int] = []
    r = 0
    for col in range(m):
        if r >= n:
            break
        i = _pivot_row(M, col, r, domain)
        if i is None:
            continue
        if i != r:
            M[[r, i]] = M[[i, r]]
            P[[r, i]] = P[[i, r]]
        inv = domain.inverse(M[r, col])
        M[r] = domain.reduce(M[r] * inv)
        P[r] = domain.reduce(P[r] * inv)
        rows = range(n) if reduced else range(r + 1, n)
        for j in rows:
            if j == r:
                continue
            factor = M[j, col]
            if domain.is_zero(factor):
                continue
            M[j] = domain.reduce(M[j] - factor * M[r])
            P[j] = domain.reduce(P[j] - factor * P[r])
        pivots.append(col)
        r += 1
    return M, pivots, P


def rank(A: np.ndarray, domain: Domain) -> int:
    if isinstance(domain, PrimeField) and domain.p == 2:
        A = np.asarray(A)
        return _f2_rank(_f2_pack_rows(A), A.shape[1])
    _, pivots, _ = row_reduce(A, domain, reduced=False)
    return len(pivots)


def solve(A: np.ndarray, B: np.ndarray, domain: Domain) -> Optional[np.ndarray]:
    """One solution X of A @ X = B (free variables set to 0), or None."""
    A = domain.asarray(A)
    B = domain.asarray(B)
    single = B.ndim == 1
    if single:
        B = B[:, None]
    n, m = A.shape
    if isinstance(domain, PrimeField) and domain.p == 2:
        X = _f2_solve(A, B)
        if X is None:
            return None
        return X[:, 0] if single else X
    aug = np.concatenate([A, B], axis=1)
    R, pivots, _ = row_reduce(aug, domain, reduced=True)
    pivots = [c for c in pivots if c < m]
    r = len(pivots)
    # Rows past the last A-pivot have zero A-part; any nonzero right-hand
    # side there (including a pivot that fell in the B block) is inconsistent.
    if not _all_zero(R[r:, m:], domain):
        return None
    X = domain.zeros((m, B.shape[1]))
    for i, c in enumerate(pivots):
        X[c] = R[i, m:]
    return X[:, 0] if single else X


def _all_zero(block: np.ndarray, domain: Domain) -> bool:
    if block.size == 0:
        return True
    if isinstance(domain, PrimeField):
        return bool(np.all(block % domain.p == 0))
    return bool(np.max(np.abs(block)) <= domain.tol)


def columns_contained(T: np.ndarray, G: np.ndarray, domain: Domain) -> bool:
    """True iff every column of G lies in the column space of T.

    Single elimination of [T | G]: containment holds iff no pivot lands in
    the G block.
    """
    m = T.shape[1]
    if isinstance(domain, PrimeField) and domain.p == 2:
        T = np.asarray(T)
        G = np.asarray(G)
        trows = _f2_pack_rows(T)
        grows = _f2_pack_rows(G)
        aug = [trows[i] | (grows[i] << m) for i in range(len(trows))]
        width = m + G.shape[1]
        n = len(aug)
        r = 0
        for col in range(width):
            piv = None
            for i in range(r, n):
                if (aug[i] >> col) & 1:
                    piv = i
                    break
            if piv is None:
                continue
            if col >= m:
                return False
            aug[r], aug[piv] = aug[piv], aug[r]
            for i in range(r + 1, n):
                if (aug[i] >> col) & 1:
                    aug[i] ^= aug[r]
            r += 1
        return True
    stacked = np.concatenate([domain.asarray(T), domain.asarray(G)], axis=1)
    _, pivots, _ = row_reduce(stacked, domain, reduced=False)
    return all(c < m for c in pivots)


def invert(A: np.ndarray, domain: Domain) -> Optional[np.ndarray]:
    """Inverse of a square matrix, or None if singular."""
    A = domain.asarray(A)
    n, m = A.shape
    if n != m:
        raise ValueError(f"not square: {A.shape}")
    R, pivots, P = row_reduce(A, domain, reduced=True)
    if len(pivots) < n:
        return None
    return P


def equivalence_diagonalize(
    A: np.ndarray, domain: Domain
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Invertible (P, Q) and r with P @ A @ Q = I_r (+) 0 (rank normal form)."""
    A = domain.asarray(A)
    n, m = A.shape
    R, pivots, P = row_reduce(A, domain, reduced=True)
    r = len(pivots)
    # Column permutation bringing pivot columns to the front.
    perm = pivots + [c for c in range(m) if c not in pivots]
    C1 = domain.zeros((m, m))
    for new, old in enumerate(perm):
        C1[old, new] = 1
    N1 = domain.reduce(R @ C1)
    # N1 = [I_r, B; 0, 0]; clear B with column operations.
    C2 = np.eye(m, dtype=C1.dtype)
    if r < m and r > 0:
        C2[:r, r:] = domain.reduce(-N1[:r, r:])
    Q = domain.reduce(C1 @ C2)
    return P, Q, r

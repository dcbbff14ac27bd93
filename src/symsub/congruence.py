"""Constructive matrix congruence.

Centerpiece is a constructive form of Ballantine's theorem (1968): every
square matrix over a field with at least three elements that is not a
nonzero skew matrix with zero diagonal is congruent (B f B^T) to a lower
triangular matrix with exactly rank(f) nonzero diagonal entries.  The
classical proof is nonconstructive for our purposes, so the reduction here
is its own pivot-projection algorithm: one deterministic pass, with the
same pivot candidates in every field (basis vectors, then pairwise sums),
whose output contract is verified after the fact.  Over F_p a broken
contract is an internal error (RuntimeError); over C, where every zero is
decided by the absolute 1e-9 rule of ``Domain.nonzero``, it is a
CongruenceError: that tolerance cannot decide the input.

On top of it: symmetric diagonalization to I_r (+) 0, from the Ballantine
form over F_p (square roots permitting) and from one Takagi eigensolve
over C; exact-or-bounded matrix symmetric subrank; and the diagonal
principal-subtensor certificate for powers of triangular matrices.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import linalg
from .domains import ComplexNumbers, Domain, PrimeField
from .restrict import (
    DEFAULT_BUDGET,
    Certificate,
    SearchInfeasibleError,
    _certified,
    symsubrank_exact,
)
from .tensors import (
    _BLOCK_ENTRIES,
    LinearMap,
    Tensor,
    is_symmetric,
    map_to_json,
    matrix_rank,
    unit_tensor,
)

__all__ = [
    "CongruenceError",
    "SkewInputError",
    "DomainTooSmallError",
    "MissingSquareRootError",
    "CongruenceResult",
    "is_skew_zero_diag",
    "ballantine_reduce",
    "SymDiagResult",
    "sym_diagonalize",
    "MatrixSymsubrankResult",
    "matrix_symsubrank",
    "PowerDiagResult",
    "power_diag_certificate",
    "congruence_result_to_json",
]

MAX_STEPS_FACTOR = 8  # step cap of the pass: 8*d + 16


class CongruenceError(ValueError):
    pass


class SkewInputError(CongruenceError):
    """Nonzero skew matrix with zero diagonal: excluded by the theorem."""


class DomainTooSmallError(CongruenceError):
    """F_2 has too few elements for the congruence constructions."""


class MissingSquareRootError(CongruenceError):
    """A diagonal entry has no square root in the field.

    Carries the partial result: ``partial_B`` and ``partial_D`` give the
    diagonal congruence form reached before scaling failed, and
    ``failed_indices`` lists the diagonal positions without a root.
    """

    def __init__(self, msg: str, partial_B: np.ndarray, partial_D: np.ndarray,
                 failed_indices: List[int]):
        super().__init__(msg)
        self.partial_B = partial_B
        self.partial_D = partial_D
        self.failed_indices = failed_indices


@dataclass(frozen=True)
class CongruenceResult:
    """B f B^T = L with B invertible, L lower triangular."""

    B: LinearMap
    L: Tensor
    diag_nonzeros: int


def congruence_result_to_json(res: CongruenceResult) -> dict:
    from .tensors import tensor_to_json

    return {
        "B": map_to_json(res.B),
        "L": tensor_to_json(res.L),
        "diagNonzeros": res.diag_nonzeros,
    }


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def _require_square(f: Tensor) -> int:
    if f.order != 2 or f.dims[0] != f.dims[1]:
        raise ValueError(f"need a square matrix, got dims {f.dims}")
    return f.dims[0]


def is_skew_zero_diag(f: Tensor) -> bool:
    """True iff f has zero diagonal and f_ij = -f_ji everywhere."""
    _require_square(f)
    arr, domain = f.array, f.domain
    return not domain.nonzero(np.diagonal(arr)).any() and domain.arrays_equal(arr, -arr.T)


# ---------------------------------------------------------------------------
# Ballantine reduction
# ---------------------------------------------------------------------------

def ballantine_reduce(f: Tensor, seed: int = 0) -> CongruenceResult:
    """Congruence-triangularize f: find invertible B with B f B^T lower
    triangular and exactly rank(f) nonzero diagonal entries.

    Pivot strategy: the remaining space is the rows z of a matrix Z, and
    each step computes one Gram matrix Q = Z f Z^T.  A candidate
    u = z_i + c z_j (basis vectors, c = 0, then pairwise sums, c = 1, in
    every field) has quadratic value q(u) = (Q_ii + c^2 Q_jj) + c (Q_ij +
    Q_ji) and pairing f(u, z_k) = Q_ik + c Q_jk; pick u with q(u) != 0 (the
    first over F_p, the largest |q| over C), annihilate its pairing with
    the rest of the space by one rank-one update z <- z - (f(u,z)/q(u)) u;
    recurse.  No scaled sum is needed (see :func:`_find_pivot`).  A
    remainder on which q vanishes identically is a skew block; it is
    broken by mixing the last processed pivot back in (q(w + c p) =
    c f(w,p) + c^2 q(p) is nonzero for c = 1 or 2: if q(w + p) = 0 then
    q(w + 2p) = 2 q(p) != 0), demoting that pivot into the space.  One pass
    reduces f itself, and its output contract is verified once (see
    :func:`_validated`).

    Over F_p, p odd, one pass suffices: a remainder on which q vanishes but
    f does not is alternating, and mixing finds a pivot.  Every other step
    takes a pivot, at most rank f of them; a mixing step keeps the count,
    and with no bound proved on how many can follow each other the cap of
    8d + 16 steps stays (at most 2d were seen: every 2x2 and 3x3 matrix
    over F3, every 2x2 over F5 and F7, skew blocks plus one diagonal entry
    up to d = 48).  Over C every zero the pass decides, pivot values and the
    diagonal count alike, is ``Domain.nonzero``'s absolute 1e-9 rule, the
    one ``matrix_rank`` pivots by.  Failures are raised as :func:`_refuse`
    says.  ``seed`` is ignored, kept only because the benchmark workloads
    still pass it.
    """
    _require_square(f)
    domain = f.domain
    if isinstance(domain, PrimeField) and domain.p == 2:
        raise DomainTooSmallError("domain too small: congruence needs |F| >= 3")
    if is_skew_zero_diag(f) and domain.nonzero(f.array).any():
        raise SkewInputError("skew input: nonzero skew matrix with zero diagonal")
    B = _reduce_pass(f.array, domain)
    return _validated(f, B, _product3(B, f.array, B.T, domain), domain)


def _refuse(domain: Domain, reason: str) -> Exception:
    """The one error of a reduction that breaks its contract: over F_p an
    internal error, since the pass cannot fail there; over C an invalid
    input, one the 1e-9 zero tolerance cannot decide."""
    if isinstance(domain, PrimeField):
        return RuntimeError(f"internal error: {reason}")
    return CongruenceError(f"not reducible at the complex zero tolerance 1e-9: {reason}")


def _product3(a: np.ndarray, m: np.ndarray, b: np.ndarray, domain: Domain) -> np.ndarray:
    """a @ m @ b, reduced between the two products.

    Unreduced, the entries reach d^2 p^3, past int64 once d > ~180 at p
    near 2^16; reduced in between they stay below d p^2.
    """
    return domain.reduce(domain.reduce(a @ m) @ b)


def _validated(f: Tensor, B: np.ndarray, L: np.ndarray, domain: Domain) -> CongruenceResult:
    """The result for B f B^T = L; a B or L that breaks the contract is
    refused (:func:`_refuse`).

    Over F_p, L with nz nonzero diagonal entries must be zero above the
    diagonal and on its trailing (d - nz) x (d - nz) block: then rank L = nz
    (its first nz columns hold an invertible triangle, the rest are zero),
    which B of rank d makes rank f, with no elimination of f.  Over C, nz
    counts the diagonal entries ``Domain.nonzero`` keeps and must equal
    ``matrix_rank(f)``, decided by the same rule; L_ij above the diagonal
    is rounding, at most 100 tol max(1, max|f|) max(1, |b_i| |b_j|), where
    |b| is the largest entry of that row of B, and is then cleared.
    """
    d = B.shape[0]
    if isinstance(domain, PrimeField):
        nonzero = domain.nonzero(L)
        nz = int(nonzero.diagonal().sum())
        if np.triu(nonzero, 1).any() or nonzero[nz:, nz:].any():
            raise _refuse(domain, "B f B^T breaks the rank proof")
    else:
        rows = np.abs(B).max(axis=1, initial=0)
        cut = 100 * domain.tol * max(1.0, float(np.abs(f.array).max(initial=0)))
        if (np.abs(np.triu(L, 1)) > cut * np.maximum(1.0, np.outer(rows, rows))).any():
            raise _refuse(domain, "B f B^T is not lower triangular")
        L = np.tril(L)  # clean numeric dust strictly above the diagonal
        nz, r = int(domain.nonzero(np.diagonal(L)).sum()), matrix_rank(f)
        if nz != r:
            raise _refuse(domain, f"{nz} nonzero diagonal entries for rank {r}")
    if linalg.rank(B, domain) != d:
        raise _refuse(domain, "B is singular")
    return CongruenceResult(
        B=LinearMap(domain, B), L=Tensor(domain, L), diag_nonzeros=nz
    )


def _reduce_pass(farr: np.ndarray, domain: Domain) -> np.ndarray:
    """The one reduction pass over the space Z (its rows), each step reading
    every value it tests and every pairing it annihilates from one Gram
    matrix Q = Z f Z^T.  Returns the rows of B (pivots then remainder)."""
    d = farr.shape[0]
    Z = np.eye(d, dtype=domain.dtype)
    pivots: List[np.ndarray] = []
    cap, steps = MAX_STEPS_FACTOR * d + 16, 0
    while len(Z):
        if steps == cap:
            raise _refuse(domain, f"no triangular form within {cap} steps")
        steps += 1
        Q = _product3(Z, farr, Z.T, domain)
        pick = _find_pivot(Q, domain)
        if pick is None:
            # Q is the pairing block of a skew remainder; break it by mixing
            # the last pivot p back in: u = w + c p for a paired w, scored
            # from the Gram matrix of the space with p appended
            w = next((i for i, row in enumerate(Q) if domain.nonzero(row).any()), None)
            if w is None:
                break  # trailing zero block; remaining rows go in as-is
            c = None
            if pivots:  # over C none may be left: the skew test has a tolerance
                Z = np.concatenate((Z, [pivots.pop()]))
                Q = _product3(Z, farr, Z.T, domain)
                # q(w) = 0, so if q(w + p) = 0 then q(w + 2p) = 2 q(p) != 0
                c = next((c for c in (1, 2) if not domain.is_zero(_score(Q, w, -1, c))), None)
            if c is None:
                raise _refuse(domain, "no pivot breaks a skew remainder")
            pick = w, -1, c
        # u = z_i + c z_j carries z_i, which leaves the space; every other z
        # is left-annihilated against u: z <- z - (f(u, z) / q(u)) u, with
        # f(u, z_k) = Q_ik + c Q_jk
        i, j, c = pick
        u = domain.reduce(Z[i] + c * Z[j])
        coeffs = domain.reduce((Q[i] + c * Q[j]) * domain.inverse(_score(Q, i, j, c)))
        if isinstance(domain, ComplexNumbers):
            coeffs[~domain.nonzero(coeffs)] = 0
        Z = domain.reduce(Z - coeffs[:, None] * u)
        Z = np.concatenate((Z[:i], Z[i + 1:]))
        pivots.append(u)
    return np.vstack(pivots + [Z])


def _score(Q: np.ndarray, i, j, c):
    """q(z_i + c z_j) = (Q_ii + c^2 Q_jj) + c (Q_ij + Q_ji) from the Gram
    matrix Q = Z f Z^T, unreduced; i, j and c may be arrays."""
    return (Q[i, i] + c * c * Q[j, j]) + c * (Q[i, j] + Q[j, i])


@functools.lru_cache(maxsize=32)
def _candidates(n: int) -> np.ndarray:
    """The rows (I, J, c) of the candidates z_I + c z_J that
    :func:`_find_pivot` scores over n rows, in its order: the basis vectors
    (I = J, c = 0), then the pairwise sums (I < J row-major, c = 1).  One
    table per size for every field, built once and shared, so read-only."""
    k = np.arange(n)
    i, j = np.triu_indices(n, 1)
    table = np.array([np.concatenate([k, i]), np.concatenate([k, j]),
                      np.repeat([0, 1], [n, len(i)])])
    table.setflags(write=False)
    return table


def _find_pivot(Q, domain) -> Optional[Tuple[int, int, int]]:
    """First (prime fields) or largest-|q| (complex) z_i + c z_j with q != 0,
    scored from the Gram matrix Q = Z f Z^T of the rows z of Z: basis
    vectors (c = 0), then pairwise sums (i < j, c = 1); an exact tie goes to
    the first in that order.  Over C, q != 0 is ``Domain.nonzero``'s
    |q| > 1e-9.  Returns (i, j, c).

    No other candidate is needed, in any field: if q vanishes on z_i, z_j
    and z_i + z_j, then Q_ij + Q_ji = 0 and q(z_i + c z_j) = 0 for every c.
    Over C a scaled sum z_i + 2 z_j could still outscore the plain sums,
    its Q_jj term weighted by |c|^2 = 4, but the pivot it takes grows the
    rows of Z.
    """
    n = len(Q)
    I, J, c = _candidates(n)
    if isinstance(domain, PrimeField):
        hit = Q.diagonal().nonzero()[0]
        if hit.size:
            return hit[0], hit[0], 0
        hit = domain.reduce(_score(Q, I[n:], J[n:], 1)).nonzero()[0]
        return (I[n + hit[0]], J[n + hit[0]], 1) if hit.size else None
    scores = np.abs(_score(Q, I, J, c))
    best = int(np.argmax(scores))
    return (I[best], J[best], c[best]) if domain.nonzero(scores[best]) else None


# ---------------------------------------------------------------------------
# symmetric diagonalization
# ---------------------------------------------------------------------------

def _pivot_roots(f: Tensor) -> Tuple[CongruenceResult, Dict[int, object]]:
    """:func:`ballantine_reduce` of f, and for each nonzero diagonal entry
    L_ii of its L, in order, 1 / sqrt(L_ii) (None where the field has no
    square root)."""
    res = ballantine_reduce(f)
    domain, L = f.domain, res.L.array
    return res, {i: domain.sqrt(domain.inverse(L[i, i]))
                 for i in range(len(L)) if not domain.is_zero(L[i, i])}


@dataclass(frozen=True)
class SymDiagResult:
    """B f B^T = I_r (+) 0 for a symmetric matrix f of rank r."""

    B: LinearMap
    D: Tensor
    rank: int


def sym_diagonalize(f: Tensor, seed: int = 0) -> SymDiagResult:
    """Congruence-diagonalize a symmetric matrix to I_r (+) 0.

    Over C (Takagi), one eigh of the real symmetric M = [[Re f, Im f],
    [Im f, -Re f]] gives for each eigenpair (s, [x; y]), s > 0 a Takagi
    value of f, z = x + iy with f conj(z) = s z, orthonormal even where s
    repeats.  The rows of B are s^(-1/2) z^H for the r = matrix_rank(f)
    largest s, refined once with an extended-precision residual, then an
    orthonormal basis of {b : b f = 0}, by pivoted Gram-Schmidt on the z^H
    of M's kernel block.  f is refused unless exactly r values s exceed
    tol and B B^H, scaled to a unit diagonal, is invertible by Gershgorin's
    theorem.  Over F_p each nonzero entry of the Ballantine form, diagonal
    since f is symmetric, is scaled by an inverse square root
    (MissingSquareRootError carries the form where one is missing) and
    moved to the front.  A form that misses I_r (+) 0 is refused as
    :func:`_refuse` says; over C each entry must lie within 1e-9 of it, the
    rule the certificate of :func:`matrix_symsubrank` is checked by.
    ``seed`` is ignored, as in :func:`ballantine_reduce`.
    """
    d = _require_square(f)
    if not is_symmetric(f):
        raise CongruenceError("not symmetric")
    domain = f.domain
    if isinstance(domain, ComplexNumbers):
        r, farr = matrix_rank(f), f.array
        M = np.array([[farr.real, farr.imag], [farr.imag, -farr.real]])
        s, V = np.linalg.eigh(M.transpose(0, 2, 1, 3).reshape(2 * d, 2 * d))
        if (above := int((s > domain.tol).sum())) != r:  # s ascends: -s, kernel block, s
            raise _refuse(domain, f"{above} Takagi values above the tolerance for rank {r}")
        Z = (V[:d] - 1j * V[d:]).T.copy()  # row k is z_k^H; C order, as map_to_json needs
        wide = (Z[::-1][:r] / np.sqrt(s[::-1][:r, None])).astype(np.clongdouble)
        B2 = (wide - (wide @ farr @ wide.T - np.eye(r)) @ wide / 2).astype(domain.dtype)
        left = Z[r:2 * d - r]
        for _ in range(d - r):
            norms = np.linalg.norm(left, axis=1)
            B2 = np.vstack([B2, left[norms.argmax()] / norms.max()])
            left = left - np.outer(left @ B2[-1].conj(), B2[-1])
        U = B2 / np.linalg.norm(B2, axis=1)[:, None]
        if (np.abs(U @ U.conj().T).sum(axis=1) >= 2).any():  # off-diagonal row sums reach 1
            raise _refuse(domain, "B is singular")
    else:
        res, roots = _pivot_roots(f)
        failed = [i for i, root in roots.items() if root is None]
        if failed:
            diag = np.diagonal(res.L.array)
            raise MissingSquareRootError(
                "missing square root: cannot normalize diagonal entries "
                f"{[domain.normalize(diag[i]) for i in failed]}",
                partial_B=res.B.array,
                partial_D=domain.reduce(np.diag(diag)),
                failed_indices=failed,
            )
        scales = np.ones(d, dtype=domain.dtype)
        scales[list(roots)] = list(roots.values())
        order = list(roots) + [i for i in range(d) if i not in roots]
        B2 = domain.reduce((scales[:, None] * res.B.array)[order])
        r = len(roots)
    D = _product3(B2, f.array, B2.T, domain)
    target = np.zeros((d, d), dtype=domain.dtype)
    target[:r, :r] = np.eye(r, dtype=domain.dtype)
    if not domain.arrays_equal(D, target):
        raise _refuse(domain, "diagonal form not reached")
    if isinstance(domain, ComplexNumbers):
        D = target  # exact I_r (+) 0; the comparison bounded the error
    return SymDiagResult(B=LinearMap(domain, B2), D=Tensor(domain, D), rank=r)


# ---------------------------------------------------------------------------
# matrix symmetric subrank
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixSymsubrankResult:
    """Exact value or bounds for the symmetric subrank of a matrix.

    ``mode`` is "exact" (value set, lower == upper) or "bounds".  The
    certificate, when present, witnesses <lower> <=_s f.
    """

    mode: str
    lower: int
    upper: int
    value: Optional[int]
    certificate: Optional[Certificate]
    method: str


def matrix_symsubrank(
    f: Tensor, budget: int = DEFAULT_BUDGET
) -> MatrixSymsubrankResult:
    """Symmetric subrank of a square matrix, exact where a decision
    procedure applies and two-sided bounds otherwise.

    Exact cases: nonzero-skew/zero matrices (value 0); complex symmetric
    matrices (value rank, via diagonalization); prime fields whenever
    :func:`symsubrank_exact` fits the budget.  Otherwise the lower bound
    comes from a greedy identity block inside the triangular congruence
    form and the upper bound is the rank of f, and at most d - 1 when f is
    not symmetric.
    """
    d = _require_square(f)
    domain = f.domain
    if is_skew_zero_diag(f):
        cert = _certified(
            "symmetric-restriction", [domain.zeros((0, d))], unit_tensor(0, 2, domain), f
        )
        return MatrixSymsubrankResult(
            mode="exact", lower=0, upper=0, value=0,
            certificate=cert, method="skew-zero-diagonal",
        )
    symmetric = is_symmetric(f)
    if isinstance(domain, ComplexNumbers) and symmetric:
        res = sym_diagonalize(f)
        r = res.rank
        cert = _certified(
            "symmetric-restriction", [res.B.array[:r]], unit_tensor(r, 2, domain), f
        )
        return MatrixSymsubrankResult(
            mode="exact", lower=r, upper=r, value=r,
            certificate=cert, method="symmetric-diagonalization",
        )
    if isinstance(domain, PrimeField):
        with contextlib.suppress(SearchInfeasibleError):
            value, cert = symsubrank_exact(f, budget)
            return MatrixSymsubrankResult(
                mode="exact", lower=value, upper=value, value=value,
                certificate=cert, method="exhaustive-search",
            )
    lower, cert = _greedy_identity_block(f)
    upper = min(d if symmetric else d - 1, matrix_rank(f))
    return MatrixSymsubrankResult(
        mode="bounds", lower=lower, upper=upper, value=None,
        certificate=cert, method="triangular-block",
    )


def _greedy_identity_block(f: Tensor) -> Tuple[int, Certificate]:
    """Lower bound: a subset S of triangular-form pivots that pair to zero
    with each other and admit inverse square roots gives <|S|> <=_s f."""
    domain = f.domain
    d = f.dims[0]
    if isinstance(domain, PrimeField) and domain.p == 2:
        # not skew over F_2: either some diagonal entry is nonzero, or the
        # matrix is asymmetric and e_i + e_j works where f_ij != f_ji
        rows = np.zeros((1, d), dtype=np.int64)
        diag = domain.nonzero(f.array.diagonal())
        if diag.any():
            rows[0, int(np.argmax(diag))] = 1
        else:
            i, j = np.argwhere(domain.nonzero(f.array + f.array.T))[0]
            rows[0, int(i)] = rows[0, int(j)] = 1
        return 1, _certified("symmetric-restriction", [rows], unit_tensor(1, 2, domain), f)
    res, roots = _pivot_roots(f)
    Larr = res.L.array
    chosen: List[int] = []
    for i, root in roots.items():
        if root is not None and all(domain.is_zero(Larr[i, j]) for j in chosen):
            chosen.append(i)
    rows = domain.reduce(
        np.array([roots[i] for i in chosen], dtype=domain.dtype)[:, None] * res.B.array[chosen]
    ) if chosen else np.zeros((0, d), dtype=domain.dtype)
    target = unit_tensor(len(chosen), 2, domain)
    return len(chosen), _certified("symmetric-restriction", [rows], target, f)


# ---------------------------------------------------------------------------
# diagonal principal subtensors of powers of triangular matrices
# ---------------------------------------------------------------------------

MAX_POWER_ARRANGEMENTS = 8


@dataclass(frozen=True)
class PowerDiagResult:
    """A diagonal principal subtensor of L^(tensor n) of multinomial size.

    ``tuples`` lists the index tuples (0-based) of the balanced
    arrangements of the r triangular pivots, each used n/r times;
    ``merged_indices`` are their row-major positions in the n-th power.
    """

    pivots: List[int]
    tuples: List[Tuple[int, ...]]
    merged_indices: List[int]
    size: int
    diag_values: List


def power_diag_certificate(L: Tensor, n: int) -> PowerDiagResult:
    """Certify <size> <= L^(tensor n) by locating a diagonal principal
    subtensor: entries of the power at balanced pivot arrangements.

    For lower triangular L, the entry of the power at (T1, T2) is
    prod_t L[T1_t, T2_t], which vanishes unless T1_t >= T2_t for every t;
    two distinct arrangements of the same multiset always violate this in
    one coordinate, so the extracted block is diagonal with nonzero
    diagonal.  Every pair is checked by the product formula directly,
    without materializing the power: one row block at a time, as the
    entrywise product of the n gathered blocks L[T1_t, T2_t].  A block
    that breaks this is refused as :func:`_refuse` says: over C a product
    of entries read as nonzero (or as zero) may cross the 1e-9 rule.
    """
    d = _require_square(L)
    domain = L.domain
    arr = L.array
    if domain.nonzero(np.triu(arr, 1)).any():
        raise CongruenceError("matrix is not lower triangular")
    if n < 1:
        raise ValueError(f"need a positive power, got n={n}")
    if n > MAX_POWER_ARRANGEMENTS:
        raise ValueError(
            f"arrangement enumeration gated at n <= {MAX_POWER_ARRANGEMENTS}"
        )
    pivots = [i for i in range(d) if not domain.is_zero(arr[i, i])]
    r = len(pivots)
    if r == 0:
        raise CongruenceError("no nonzero diagonal entries")
    if n % r != 0:
        raise CongruenceError(f"diagonal count {r} does not divide the power {n}")
    base = tuple(p for p in pivots for _ in range(n // r))
    tuples = sorted(set(itertools.permutations(base)))
    size = math.factorial(n) // math.factorial(n // r) ** r
    if len(tuples) != size:
        raise RuntimeError("internal error: arrangement count mismatch")
    T = np.array(tuples, dtype=np.int64)
    step = max(1, _BLOCK_ENTRIES // size)
    diag_values = []
    for lo in range(0, size, step):
        rows = T[lo:lo + step]
        block = arr[np.ix_(rows[:, 0], T[:, 0])]
        for t in range(1, n):
            block = domain.reduce(block * arr[np.ix_(rows[:, t], T[:, t])])
        on_diag = np.arange(lo, lo + len(rows))
        bad = domain.nonzero(block) != (on_diag[:, None] == np.arange(size))
        if bad.any():  # the first bad pair in row-major order names the fault
            i, j = np.argwhere(bad)[0]
            raise _refuse(domain, "zero on the extracted diagonal" if lo + i == j
                          else "extracted subtensor is not diagonal")
        diag_values += [domain.normalize(v) for v in block[np.arange(len(rows)), on_diag]]
    # Python ints: d^n may pass int64, where np.ravel_multi_index refuses
    merged = (T.astype(object) @ [d ** (n - 1 - t) for t in range(n)]).tolist()
    return PowerDiagResult(
        pivots=pivots,
        tuples=tuples,
        merged_indices=merged,
        size=size,
        diag_values=diag_values,
    )

import tracemalloc

import numpy as np
import pytest

from conftest import C, F2, F3, F5, F7
from symsub.domains import PrimeField

F101 = PrimeField(101)
F65521 = PrimeField(65521)
from symsub import linalg


@pytest.mark.parametrize("domain", [F2, F5, F7, C])
def test_row_reduce_factorization(domain):
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, m = rng.integers(1, 6, size=2)
        if domain is C:
            A = rng.normal(size=(n, m))
        else:
            A = rng.integers(0, domain.p, size=(n, m))
        R, pivots, P = linalg.row_reduce(A, domain)
        assert R.shape == (n, m) and P.shape == (n, n)
        assert domain.arrays_equal(R, domain.reduce(P @ domain.asarray(A)))
        # unit pivots, zeros above and below
        for row, col in enumerate(pivots):
            assert domain.is_zero(R[row, col] - 1)
            others = [R[i, col] for i in range(n) if i != row]
            assert all(domain.is_zero(v) for v in others)


@pytest.mark.parametrize("domain", [F2, F5, C])
def test_rank_known_matrices(domain):
    assert linalg.rank(domain.asarray([[1, 1], [1, 1]]), domain) == 1
    assert linalg.rank(domain.asarray(np.eye(4, dtype=np.int64)), domain) == 4
    assert linalg.rank(domain.zeros((3, 2)), domain) == 0


def solve_stack_one(T, G, domain):
    """linalg.solve_stack on a stack of one: (consistent, X)."""
    ok, X = linalg.solve_stack(np.asarray(T)[None], np.asarray(G)[None], domain)
    return bool(ok[0]), X[0]


@pytest.mark.parametrize("domain", [F2, F5, F7])
def test_solve_and_residual(domain):
    rng = np.random.default_rng(7)
    for _ in range(30):
        n, m, q = rng.integers(1, 5, size=3)
        A = rng.integers(0, domain.p, size=(n, m))
        B = A @ rng.integers(0, domain.p, size=(m, q)) % domain.p
        ok, X = solve_stack_one(A, B, domain)
        assert ok  # consistent by construction
        assert np.array_equal(A @ X % domain.p, B)


def test_solve_reports_inconsistency():
    A = np.array([[1, 0], [1, 0]])
    assert not solve_stack_one(A, np.array([[1], [2]]), F5)[0]
    assert not solve_stack_one(A % 2, np.array([[1], [0]]), F2)[0]


@pytest.mark.parametrize("domain", [F2, F5])
def test_solve_stack_finds_the_inverse(domain):
    """A X = I is consistent exactly when A is invertible, and X is A^-1."""
    rng = np.random.default_rng(2)
    found = 0
    while found < 10:
        A = rng.integers(0, domain.p, size=(4, 4))
        ok, X = solve_stack_one(A, np.eye(4, dtype=np.int64), domain)
        if not ok:
            assert linalg.rank(A, domain) < 4
            continue
        assert np.array_equal(X @ A % domain.p, np.eye(4))
        found += 1


def test_solve_stack_column_containment():
    T = np.array([[1, 0], [0, 1], [0, 0]])
    inside = np.array([[3], [1], [0]])
    outside = np.array([[0], [0], [1]])
    assert solve_stack_one(T, inside, F5)[0]
    assert not solve_stack_one(T, outside, F5)[0]
    assert solve_stack_one(T % 2, inside % 2, F2)[0]
    assert not solve_stack_one(T % 2, outside % 2, F2)[0]


def echelon_solution(T, G, domain):
    """The reference for linalg.solve_stack: None when a pivot of the reduced
    echelon form of [T | G] lies in G, else X read from its pivot rows with
    the free variables 0."""
    m = T.shape[1]
    R, pivots, _ = linalg.row_reduce(np.concatenate([T, G], axis=1), domain)
    if any(c >= m for c in pivots):
        return None
    X = np.zeros((m, G.shape[1]), dtype=np.int64)
    for i, c in enumerate(pivots):
        X[c] = R[i, m:]
    return X


@pytest.mark.parametrize("domain", [F2, F3, F5, F65521])
def test_solve_stack_matches_the_echelon_form(domain):
    """Full-rank, rank-deficient and inconsistent stacks, 0 rows and more
    than 62 columns: each entry's verdict and X are those of the generic
    elimination."""
    rng = np.random.default_rng(domain.p)
    p = domain.p
    verdicts = set()
    for n, m, e in [(3, 3, 2), (6, 4, 1), (4, 6, 3), (0, 3, 2), (5, 0, 1), (7, 70, 2)]:
        S = 12
        T = rng.integers(0, p, size=(S, n, m))
        if n > 2:  # rank-deficient entries: the last row depends on two others
            T[::2, -1] = (2 * T[::2, 0] + T[::2, 1]) % p
        G = rng.integers(0, p, size=(S, n, e))
        G[::3] = T[::3] @ rng.integers(0, p, size=(m, e)) % p  # consistent
        ok, X = linalg.solve_stack(T, G, domain)
        assert ok.shape == (S,) and X.shape == (S, m, e)
        # one right-hand side shared by the stack
        ok1, X1 = linalg.solve_stack(T, G[0], domain)
        for s in range(S):
            for verdict, got, rhs in ((ok[s], X[s], G[s]), (ok1[s], X1[s], G[0])):
                want = echelon_solution(T[s], rhs, domain)
                assert verdict == (want is not None), (n, m, e, s)
                assert want is None or np.array_equal(got, want)
                verdicts.add(bool(verdict))
    assert verdicts == {True, False}


@pytest.mark.parametrize("width", [0, 3, 62, 63, 130])
def test_f2_kernels_on_wide_matrices(width):
    """F2 rows are packed into ints; past 62 columns the packing changes."""
    rng = np.random.default_rng(width)
    A = rng.integers(0, 2, size=(6, width))
    # the generic elimination is the reference for the bit-packed rank
    assert linalg.rank(A, F2) == len(linalg.row_reduce(A, F2)[1])
    B = (A @ rng.integers(0, 2, size=(width, 2))) % 2
    ok, X = solve_stack_one(A, B, F2)
    assert ok and np.array_equal((A @ X) % 2, B)
    # rank-deficient: row 5 is the sum of rows 0 and 1, so every y in the
    # column space has y[5] = y[0] + y[1] and e_5 lies outside it
    D = A.copy()
    D[5] = (D[0] + D[1]) % 2
    inside = (D @ rng.integers(0, 2, size=(width, 2))) % 2
    outside = inside.copy()
    outside[:, 1] = 0
    outside[5, 1] = 1
    for rhs, consistent in ((inside, True), (outside, False)):
        R, pivots, _ = linalg.row_reduce(np.concatenate([D, rhs], axis=1), F2)
        assert all(c < width for c in pivots) == consistent
        assert linalg.rank(D, F2) == len(linalg.row_reduce(D, F2)[1]) < 6
        assert solve_stack_one(D, rhs, F2)[0] == consistent
        if not consistent:
            continue
        # free variables are 0, so X is read off the reduced echelon form
        want = np.zeros((width, 2), dtype=np.int64)
        for i, c in enumerate(pivots):
            want[c] = R[i, width:]
        assert np.array_equal(solve_stack_one(D, rhs, F2)[1], want)


def test_prime_field_rank_reduces_the_shorter_side():
    """rank(A) = rank(A^T) exactly over F_p, so a tall matrix is reduced as
    its transpose: [A | I] would otherwise carry an n x n identity block."""
    A = np.random.default_rng(0).integers(0, 3, size=(1024, 32))
    tracemalloc.start()
    try:
        assert linalg.rank(A, F3) == 32
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_complex_rank_of_a_tall_matrix_carries_no_identity_block():
    """Over C a tall n x 4 matrix is eliminated alone: [A | I_n] would hold
    n^2 complex entries, 268 MB at n = 4097.  One column is a combination
    of two others, so the rank is 3."""
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4097, 4)) + 1j * rng.normal(size=(4097, 4))
    A[:, 3] = A[:, 0] - 2j * A[:, 1]
    tracemalloc.start()
    try:
        assert linalg.rank(A, C) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20
    assert linalg.rank(A[:, :3], C) == 3 and linalg.rank(A[:5], C) == 3


@pytest.mark.parametrize("domain", [F2, F3, F65521])
@pytest.mark.parametrize("shape", [(40, 6), (6, 40), (9, 9)])
def test_rank_agrees_with_the_transpose(domain, shape):
    rng = np.random.default_rng(shape[0])
    for inner in range(min(shape) + 1):
        A = rng.integers(0, domain.p, size=(shape[0], inner)) @ rng.integers(
            0, domain.p, size=(inner, shape[1])) % domain.p
        want = len(linalg._eliminate(domain.asarray(A), A.shape[1], domain, False))  # A's rows
        assert linalg.rank(A, domain) == linalg.rank(A.T, domain) == want


def eliminate(A, domain):
    """row_reduce's (R, pivots, P), unreduced: linalg._eliminate on [A | I]
    with no entry cleared above a pivot."""
    A = domain.asarray(A)
    n, m = A.shape
    M = np.eye(n, m + n, m, dtype=A.dtype)
    M[:, :m] = A
    pivots = linalg._eliminate(M, m, domain, False)
    return M[:, :m], pivots, M[:, m:]


def per_row_reduce(A, domain, reduced=True):
    """The reference for linalg.row_reduce: the same pivots and arithmetic,
    each target row of a pivot updated by its own row operation."""
    A = domain.asarray(A)
    n, m = A.shape
    M = np.eye(n, m + n, m, dtype=A.dtype)
    M[:, :m] = A
    field = isinstance(domain, PrimeField)
    pivots = []
    r = 0
    for col in range(m):
        if r >= n:
            break
        if field:
            live = M[:, col].nonzero()[0].tolist()
            i = next((j for j in live if j >= r), None)
            if i is None:
                continue
            targets = [j for j in live if j != i and (reduced or j > i)]
        else:
            mags = np.abs(M[:, col])
            i = r + int(mags[r:].argmax())
            if mags[i] <= domain.tol:
                continue
            mags[i], mags[r] = mags[r], 0
            targets = [j for j in np.flatnonzero(mags > domain.tol) if reduced or j > r]
        if i != r:
            M[[r, i]] = M[[i, r]]
        M[r] = domain.reduce(M[r] * domain.inverse(M[r, col]))
        for j in targets:
            M[j] = domain.reduce(M[j] - M[j, col] * M[r])
        pivots.append(col)
        r += 1
    return M[:, :m], pivots, M[:, m:]


def _sweep_inputs(domain, rng):
    """Every shape from 0 x 0 to 8 x 8: dense, with zero columns, with
    repeated rows, of low rank, sparse, and the identity and a row
    permutation of it; over C also entries at and below the tolerance."""
    for n in range(9):
        for m in range(9):
            def draw(shape):
                if domain is C:
                    return rng.normal(size=shape) + 1j * rng.normal(size=shape)
                return rng.integers(0, domain.p, size=shape)
            dense = draw((n, m))
            yield dense
            zero_cols = dense.copy()
            zero_cols[:, rng.random(m) < 0.4] = 0
            yield zero_cols
            if n:
                yield dense[rng.integers(0, n, size=n)]  # repeated rows
            inner = min(n, m) // 2
            low = draw((n, inner)) @ draw((inner, m))
            yield low if domain is C else low % domain.p
            sparse = dense.copy()
            sparse[rng.random((n, m)) < 0.8] = 0
            yield sparse
            eye = np.eye(n, m, dtype=np.int64)
            yield eye
            yield eye[rng.permutation(n)]
            if domain is C and n and m:
                tiny = dense.copy()
                tiny[rng.random((n, m)) < 0.3] = 1e-12
                tiny[rng.random((n, m)) < 0.2] = -0.0
                yield tiny


@pytest.mark.parametrize("domain", [F2, F3, F7, F101, F65521, C], ids=lambda d: d.name)
def test_row_reduce_matches_the_per_row_kernel(domain):
    """One update per pivot, over the whole array or the changed rows,
    gives what a row operation per target row gives: byte for byte over
    F_p, and up to the sign of a zero over C (a row whose factor is 0 is
    rewritten as itself minus 0 x the pivot row)."""
    rng = np.random.default_rng(domain.p or 0)
    count = 0
    for A in _sweep_inputs(domain, rng):
        for reduced in (True, False):
            got = linalg.row_reduce(A, domain) if reduced else eliminate(A, domain)
            want = per_row_reduce(A, domain, reduced=reduced)
            assert got[1] == want[1], (A, reduced)
            for g, w in ((got[0], want[0]), (got[2], want[2])):
                assert g.dtype == w.dtype and g.shape == w.shape
                if domain is C:
                    assert np.array_equal(g, w), (A, reduced)
                else:
                    assert g.tobytes() == w.tobytes(), (A, reduced)
            count += 1
    assert count >= 2 * 81 * 6

import numpy as np
import pytest

from conftest import C, F2, F5, F7
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
            assert domain.eq(R[row, col], 1)
            others = [R[i, col] for i in range(n) if i != row]
            assert all(domain.is_zero(v) for v in others)


@pytest.mark.parametrize("domain", [F2, F5, C])
def test_rank_known_matrices(domain):
    assert linalg.rank(domain.asarray([[1, 1], [1, 1]]), domain) == 1
    assert linalg.rank(domain.asarray(np.eye(4, dtype=np.int64)), domain) == 4
    assert linalg.rank(domain.zeros((3, 2)), domain) == 0


@pytest.mark.parametrize("domain", [F2, F5, F7, C])
def test_solve_and_residual(domain):
    rng = np.random.default_rng(7)
    hits = 0
    for _ in range(30):
        n, m, q = rng.integers(1, 5, size=3)
        if domain is C:
            A = rng.normal(size=(n, m))
            X0 = rng.normal(size=(m, q))
        else:
            A = rng.integers(0, domain.p, size=(n, m))
            X0 = rng.integers(0, domain.p, size=(m, q))
        B = domain.reduce(domain.asarray(A) @ domain.asarray(X0))
        X = linalg.solve(A, B, domain)
        assert X is not None  # consistent by construction
        assert domain.arrays_equal(domain.reduce(domain.asarray(A) @ X), B)
        hits += 1
    assert hits == 30


def test_solve_reports_inconsistency():
    A = np.array([[1, 0], [1, 0]])
    b = np.array([1, 2])
    assert linalg.solve(A, b, F5) is None
    assert linalg.solve(A % 2, np.array([1, 0]), F2) is None


@pytest.mark.parametrize("domain", [F2, F5, C])
def test_invert(domain):
    rng = np.random.default_rng(2)
    found = 0
    while found < 10:
        A = (
            rng.normal(size=(4, 4))
            if domain is C
            else rng.integers(0, domain.p, size=(4, 4))
        )
        inv = linalg.invert(A, domain)
        if inv is None:
            assert linalg.rank(A, domain) < 4
            continue
        assert domain.arrays_equal(
            domain.reduce(inv @ domain.asarray(A)), domain.asarray(np.eye(4))
        )
        found += 1
    with pytest.raises(ValueError):
        linalg.invert(np.zeros((2, 3)), F5)


@pytest.mark.parametrize("domain", [F5, C])
def test_equivalence_diagonalize(domain):
    rng = np.random.default_rng(9)
    for _ in range(15):
        n, m = rng.integers(1, 6, size=2)
        A = (
            rng.normal(size=(n, m))
            if domain is C
            else rng.integers(0, domain.p, size=(n, m))
        )
        P, Q, r = linalg.equivalence_diagonalize(A, domain)
        D = domain.reduce(P @ domain.asarray(A) @ Q)
        want = domain.zeros((n, m))
        want[:r, :r] = np.eye(r)
        assert domain.arrays_equal(D, want)
        assert r == linalg.rank(A, domain)


def test_columns_contained():
    T = np.array([[1, 0], [0, 1], [0, 0]])
    inside = np.array([[3], [1], [0]])
    outside = np.array([[0], [0], [1]])
    assert linalg.columns_contained(T, inside, F5)
    assert not linalg.columns_contained(T, outside, F5)
    assert linalg.columns_contained(T % 2, inside % 2, F2)
    assert not linalg.columns_contained(T % 2, outside % 2, F2)


@pytest.mark.parametrize("width", [0, 3, 62, 63, 130])
def test_f2_kernels_on_wide_matrices(width):
    """F2 rows are packed into ints; past 62 columns the packing changes."""
    rng = np.random.default_rng(width)
    A = rng.integers(0, 2, size=(6, width))
    # the generic elimination is the reference for the bit-packed rank
    assert linalg.rank(A, F2) == len(linalg.row_reduce(A, F2)[1])
    B = (A @ rng.integers(0, 2, size=(width, 2))) % 2
    X = linalg.solve(A, B, F2)
    assert X is not None and np.array_equal((A @ X) % 2, B)
    assert linalg.columns_contained(A, B, F2)
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
        assert linalg.columns_contained(D, rhs, F2) == consistent
        X = linalg.solve(D, rhs, F2)
        if not consistent:
            assert X is None
            continue
        # free variables are 0, so X is read off the reduced echelon form
        want = np.zeros((width, 2), dtype=np.int64)
        for i, c in enumerate(pivots):
            want[c] = R[i, width:]
        assert np.array_equal(X, want)

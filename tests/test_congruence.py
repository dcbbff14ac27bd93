import hashlib
import itertools

import numpy as np
import pytest

from conftest import (
    C,
    F2,
    F3,
    F5,
    F7,
    brute_symrestricts,
    c5_matrix,
    random_tensor,
    skew_matrix,
)
from symsub import (
    CongruenceError,
    LinearMap,
    MissingSquareRootError,
    SkewInputError,
    Tensor,
    ballantine_reduce,
    congruence_result_to_json,
    domain_from_name,
    is_skew_zero_diag,
    linalg,
    matrix_rank,
    matrix_symsubrank,
    power_diag_certificate,
    sym_diagonalize,
    verify_certificate,
)
from symsub import congruence
from symsub.congruence import _find_pivot, _product3, _score

F1009 = domain_from_name("F1009")
F65521 = domain_from_name("F65521")


def test_is_skew_zero_diag():
    assert is_skew_zero_diag(skew_matrix(4, C))
    assert is_skew_zero_diag(skew_matrix(2, F5))
    assert not is_skew_zero_diag(Tensor(F5, [[1, 0], [0, 1]]))
    # zero diagonal alone is not enough: the matrix must also be skew
    assert not is_skew_zero_diag(Tensor(F5, [[0, 1], [2, 0]]))
    # over F2, symmetric with zero diagonal counts (skew = symmetric there)
    assert is_skew_zero_diag(Tensor(F2, [[0, 1], [1, 0]]))


def test_ballantine_rejects_skew_and_small_fields():
    with pytest.raises(SkewInputError):
        ballantine_reduce(skew_matrix(2, F5))
    with pytest.raises(CongruenceError):
        ballantine_reduce(Tensor(F2, [[1, 1], [0, 1]]))


@pytest.mark.parametrize("domain", [F3, F5, F7, C, F1009, F65521])
def test_ballantine_random_matrices(domain):
    rng = np.random.default_rng(17)
    done = 0
    while done < 25:
        d = 2 + done % 5
        f = random_tensor(rng, (d, d), domain)
        if is_skew_zero_diag(f):
            continue
        _check_ballantine(f)
        done += 1
    for d in range(2, 7):
        upper = np.triu(random_tensor(rng, (d, d), domain).array, 1)
        # zero-diagonal symmetric: every pivot is a pairwise sum
        _check_ballantine(Tensor(domain, upper + upper.T))
        # a skew block beside one diagonal entry: over F_p the skew
        # remainder left after that pivot is broken by the mixing step
        block = upper - upper.T
        block[-1, :] = 0
        block[:, -1] = 0
        block[-1, -1] = 1
        _check_ballantine(Tensor(domain, block))


def _check_ballantine(f):
    domain = f.domain
    d = f.dims[0]
    res = ballantine_reduce(f)
    L = res.B.array @ f.array @ res.B.array.T
    if domain is C:
        assert np.abs(np.triu(L, 1)).max() < 1e-8
        nz = int((np.abs(np.diagonal(L)) > 1e-8).sum())
    else:
        L = L % domain.p
        assert not np.triu(L, 1).any()
        nz = int((np.diagonal(L) != 0).sum())
    assert linalg.rank(res.B.array, domain) == d
    assert nz == res.diag_nonzeros == matrix_rank(f)


@pytest.mark.parametrize("domain", [F3, F1009, F65521, C])
def test_gram_scores_pick_the_pivot_a_loop_over_products_picks(domain):
    """Every candidate value read from Q = Z f Z^T equals q(u) = u f u^T by
    its own product, and the pivot is the one a scan over those products
    picks: the first nonzero over F_p, the first largest |q| over C, where
    q != 0 is the absolute |q| > 1e-9 of ``Domain.nonzero``.  Every field
    has the same candidates: basis vectors, then pairwise sums."""
    rng = np.random.default_rng(9)
    for n, d in [(1, 1), (2, 3), (3, 3), (4, 5), (6, 6)] * 4:
        f = random_tensor(rng, (d, d), domain).array
        if rng.integers(2):  # zero diagonal on unit rows: only sums qualify
            f = f * (1 - np.eye(d, dtype=int))
            Z = np.eye(d, dtype=domain.dtype)[rng.permutation(d)[:n]]
        else:
            Z = random_tensor(rng, (n, d), domain).array
        cands = [(i, i, 0) for i in range(n)]
        cands += [(i, j, 1) for i in range(n) for j in range(i + 1, n)]
        U = [domain.reduce(Z[i] + c * Z[j]) for i, j, c in cands]
        direct = [domain.normalize(_product3(u, f, u, domain)) for u in U]
        Q = _product3(Z, f, Z.T, domain)
        scored = [domain.normalize(_score(Q, i, j, c)) for i, j, c in cands]
        if domain is C:
            assert np.allclose(scored, direct, rtol=1e-12, atol=1e-12)
            best = int(np.argmax(np.abs(direct)))
            want = cands[best] if abs(direct[best]) > domain.tol else None
        else:
            assert scored == direct
            want = next((cand for cand, q in zip(cands, direct) if q), None)
        got = _find_pivot(Q, domain)
        assert (got if got is None else tuple(got)) == want


def test_complex_pivot_tie_goes_to_the_first_candidate_in_scan_order():
    """f = e_11 + S with S skew, so q(v) = v_1^2 exactly: z_1, z_0 + z_1
    and z_1 + z_2 tie at 1, the largest |q|, and the basis vector z_1 wins,
    first in scan order though z_0 + z_1 has the lower first index."""
    s01, s02, s12 = -0.3 + 0.4j, 0.5 + 0.2j, -0.9 - 0.7j
    f = Tensor(C, [[0, s01, s02], [-s01, 1, s12], [-s02, -s12, 0]])
    I, J, c = congruence._candidates(3)
    assert np.abs(_score(f.array, I, J, c)).tolist() == [0, 1, 0, 1, 0, 1]
    assert tuple(_find_pivot(f.array, C)) == (1, 1, 0)
    assert np.array_equal(ballantine_reduce(f).B.array[0], [0, 1, 0])
    _check_ballantine(f)


def test_one_read_only_candidate_table_per_size_for_every_field(monkeypatch):
    """``_candidates(n)`` takes only the size and returns one shared,
    read-only table (I, J, c): basis vectors, then pairwise sums i < j in
    row-major order, the candidates a pivot search scores in every field."""
    for n in range(1, 6):
        table = congruence._candidates(n)
        assert table is congruence._candidates(n)
        assert not table.flags.writeable
        want = [(i, i, 0) for i in range(n)]
        want += [(i, j, 1) for i in range(n) for j in range(i + 1, n)]
        assert [tuple(col) for col in table.T.tolist()] == want
    real, tables = congruence._candidates, []
    monkeypatch.setattr(congruence, "_candidates", lambda n: tables.append(real(n)) or tables[-1])
    assert _find_pivot(np.zeros((3, 3), dtype=np.int64), F5) is None
    assert _find_pivot(np.zeros((3, 3), dtype=complex), C) is None
    assert len(tables) == 2 and tables[0] is tables[1]


def _rng_matrix(seed, d):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def _skew_plus_corner(seed, d, corner):
    G = _rng_matrix(seed, d)
    M = G - G.T
    M[0, 0] = corner
    return M


def _sweep_matrix(kind, i):
    """Input i of one kind of the seeded complex sweep, d from 2 to 8."""
    rng = np.random.default_rng([kind, i])
    d = 2 + i % 7
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    if kind == 0:  # skew plus a 1e-6 corner
        G = G - G.T
        G[0, 0] = 1e-6
    elif kind == 1:  # rank r plus 1e-8 noise
        r = int(rng.integers(1, d))
        U, V = (rng.normal(size=s) + 1j * rng.normal(size=s) for s in ((d, r), (r, d)))
        G = U @ V + 1e-8 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    elif kind == 2:  # scaled by 10^-9 to 10^9
        G = G * 10.0 ** rng.uniform(-9, 9)
    elif kind == 4:  # symmetric
        G = G + G.T
    elif kind == 5:  # symmetric rank r plus symmetric noise of 10^-10 to 10^-6
        r = int(rng.integers(1, d))
        U, N = (rng.normal(size=s) + 1j * rng.normal(size=s) for s in ((d, r), (d, d)))
        G = U @ U.T + 10.0 ** rng.uniform(-10, -6) * (N + N.T)
    return G  # kind 3: plain


@pytest.mark.parametrize("M, nz", [
    (_rng_matrix(7, 4) * 1e-6, 4),
    (_skew_plus_corner(31, 3, 1e-3), 3),
    (_rng_matrix(7, 4) * 1e-9, 3),
    (_sweep_matrix(5, 42), None),
], ids=["rng7-1e-6", "rng31-skew-1e-3", "rng7-1e-9", "sym-rank1+noise-42"])
def test_complex_matrices_reduce_in_one_pass_or_are_refused(M, nz):
    """Inputs that took 6 and 4 attempts when a failed check restarted the
    reduction from a random congruent matrix reduce in the one pass, with
    as many nonzero diagonal entries as ``matrix_rank`` counts, and so does
    the first at 1e-9 scale, where no retry reduced it.  A rank-one 2x2
    plus noise, its smallest singular value 5e-10, is an input the 1e-9
    zero rule cannot decide: it is refused as invalid, not as an internal
    error."""
    f = Tensor(C, M)
    if nz is None:
        with pytest.raises(CongruenceError, match="complex zero tolerance 1e-9"):
            ballantine_reduce(f)
        return
    res = ballantine_reduce(f)
    assert res.diag_nonzeros == matrix_rank(f) == nz
    assert linalg.rank(res.B.array, C) == len(M)
    L = res.L.array
    assert np.array_equal(L, np.tril(L))
    assert int(C.nonzero(np.diagonal(L)).sum()) == nz


@pytest.mark.parametrize("kind", range(6), ids=[
    "skew+1e-6", "rank+1e-8", "scaled", "plain", "symmetric", "sym-rank+noise"])
def test_every_complex_matrix_reduces_or_is_refused(kind):
    """60 seeded matrices of each kind: each reduces, with diag_nonzeros
    equal to ``matrix_rank`` (both read at the 1e-9 rule), or raises
    CongruenceError, the CLI's invalid input; no input ends in an internal
    RuntimeError.  Kinds 0 to 4 all reduce.  Of the symmetric rank-r inputs
    with noise near the tolerance 41 reduce; the floor of 36 leaves room
    for rounding that differs between BLAS builds."""
    reduced = 0
    for i in range(60):
        f = Tensor(C, _sweep_matrix(kind, i))
        try:
            res = ballantine_reduce(f)
        except CongruenceError as exc:
            assert "complex zero tolerance 1e-9" in str(exc)
            continue
        assert res.diag_nonzeros == matrix_rank(f)
        assert linalg.rank(res.B.array, C) == f.dims[0]
        reduced += 1
    assert reduced == 60 if kind < 5 else reduced >= 36


def test_congruence_product_is_exact_at_large_p_and_d():
    """B f B^T and u f v at p = 65521, d = 200, against Python ints: with
    residues near p, an unreduced B @ f @ B.T leaves int64 (d^2 p^3 > 2^63)."""
    p, d = 65521, 200
    rng = np.random.default_rng(0)
    B, f = (rng.integers(p - 64, p, (d, d)) for _ in range(2))
    Bo, fo = B.astype(object), f.astype(object)
    want = (Bo @ fo @ Bo.T) % p
    assert np.array_equal(_product3(B, f, B.T, F65521), want.astype(np.int64))
    assert _product3(B[0], f, B[1], F65521) == (Bo[0] @ fo @ Bo[1]) % p


def test_congruence_result_json():
    res = ballantine_reduce(Tensor(F5, [[1, 2], [2, 0]]))
    obj = congruence_result_to_json(res)
    assert set(obj) == {"B", "L", "diagNonzeros"}
    assert obj["diagNonzeros"] == 2


def test_sym_diagonalize_properties():
    rng = np.random.default_rng(23)
    for i in range(20):
        d = int(rng.integers(1, 7))
        r = int(rng.integers(0, d + 1))
        V = rng.normal(size=(r, d)) + 1j * rng.normal(size=(r, d))
        f = Tensor(C, V.T @ V)
        res = sym_diagonalize(f)
        assert res.rank == r
        got = res.B.array @ f.array @ res.B.array.T
        want = np.zeros((d, d), dtype=complex)
        want[:r, :r] = np.eye(r)
        assert np.abs(got - want).max() < 1e-8


def _gram(rank, d, seed):
    rng = np.random.default_rng(seed)
    V = rng.normal(size=(rank, d)) + 1j * rng.normal(size=(rank, d))
    return V.T @ V


def _check_diagonal_form(f, res):
    """rank = matrix_rank(f), B invertible, and B f B^T within 1e-9 of I_r (+) 0."""
    d, r = f.dims[0], res.rank
    assert r == matrix_rank(f)
    assert linalg.rank(res.B.array, C) == d
    want = np.zeros((d, d), dtype=complex)
    want[:r, :r] = np.eye(r)
    got = _product3(res.B.array, f.array, res.B.array.T, C)
    assert np.abs(got - want).max(initial=0) <= 1e-9
    assert np.array_equal(res.D.array, want)


@pytest.mark.parametrize("M", [
    np.zeros((0, 0)),
    [[0]],
    1j * np.eye(3),
    1j * np.diag([1, 1, 2]),
    [[0, 1], [1, 0]],
    [[2, 1, 0], [1, -1, 3], [0, 3, 0]],
    _gram(3, 5, 41),
], ids=["0x0", "1x1-zero", "i*I3", "i*diag(1,1,2)", "swap", "real-indefinite", "gram-rank-d-2"])
def test_sym_diagonalize_complex_cases(M):
    """Empty and zero matrices, repeated Takagi values (i I_3, i diag(1, 1,
    2)), a matrix with zero diagonal, a real indefinite one (congruent to
    I over C, as -1 = i^2) and a Gram matrix of rank d - 2, whose rows
    {b : b f = 0} are two of B's."""
    f = Tensor(C, np.asarray(M, dtype=complex))
    _check_diagonal_form(f, sym_diagonalize(f))


def test_sym_diagonalize_complex_sweep():
    """The first 60 inputs of sweep kinds 4 (symmetric) and 5 (symmetric
    rank r plus symmetric noise of 10^-10 to 10^-6): every kind-4 input
    is diagonalized, and 13 kind-5 inputs are, as many as the Ballantine
    pass diagonalized before the Takagi eigensolve replaced it (13 of the
    60 there too; over all 300 inputs 85 here against its 78).  The count
    was measured where numpy's longdouble is the 80-bit x87 type, which
    the one refinement step computes its residual in; where longdouble is
    double that step gives 12.  Every refusal is a CongruenceError."""
    for kind, want in ((4, 60), (5, 13)):
        done = 0
        for i in range(60):
            f = Tensor(C, _sweep_matrix(kind, i))
            try:
                res = sym_diagonalize(f)
            except CongruenceError as exc:
                assert "complex zero tolerance 1e-9" in str(exc)
                continue
            _check_diagonal_form(f, res)
            done += 1
        assert done == want if kind == 4 else done >= want


def test_sym_diagonalize_refuses_what_the_tolerance_cannot_decide(monkeypatch):
    """Kind 5 #42 has Takagi values 3.9 and 5.1e-10, where elimination
    keeps two pivots above 1e-9: refused for the rank mismatch.  A B made
    singular on purpose (two equal eigenvectors) fails Gershgorin's bound
    and is refused before any form check."""
    with pytest.raises(CongruenceError, match="1 Takagi values above the tolerance for rank 2$"):
        sym_diagonalize(Tensor(C, _sweep_matrix(5, 42)))
    real = np.linalg.eigh

    def eigh(M):
        s, V = real(M)
        V[:, -2] = V[:, -1]
        return s, V

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    with pytest.raises(CongruenceError, match="complex zero tolerance 1e-9: B is singular$"):
        sym_diagonalize(Tensor(C, np.eye(2)))


def test_sym_diagonalize_over_prime_fields():
    """Over F_p the form I_r (+) 0 is exact, or MissingSquareRootError carries
    the diagonal form reached: diag(1, 2) over F5 needs a root of 1/2 = 3,
    which is no square mod 5."""
    f = Tensor(F5, [[1, 0], [0, 2]])
    with pytest.raises(MissingSquareRootError) as info:
        sym_diagonalize(f)
    assert info.value.failed_indices == [1]
    B = info.value.partial_B
    assert np.array_equal(_product3(B, f.array, B.T, F5), info.value.partial_D)
    rng = np.random.default_rng(29)
    outcomes = set()
    for i in range(20):
        V = rng.integers(0, 7, size=(3, 3))
        f = Tensor(F7, V.T @ V % 7)  # a Gram matrix: sometimes every root exists
        try:
            res = sym_diagonalize(f)
        except MissingSquareRootError as exc:
            B, D = exc.partial_B, exc.partial_D
            assert linalg.rank(B, F7) == 3
            assert np.array_equal(_product3(B, f.array, B.T, F7), D)
            assert np.array_equal(D, np.diag(np.diagonal(D)))
            outcomes.add("missing")
            continue
        r = matrix_rank(f)
        want = np.zeros((3, 3), dtype=np.int64)
        want[:r, :r] = np.eye(r, dtype=np.int64)
        assert res.rank == r
        assert np.array_equal(_product3(res.B.array, f.array, res.B.array.T, F7), want)
        assert np.array_equal(res.D.array, want)
        outcomes.add("diagonal")
    assert outcomes == {"missing", "diagonal"}


# sha256 (first 16 hex digits) over every matrix in row-major order of the
# entries: b"skew" for a refused input, else the little-endian int64 bytes
# of B and then L; recorded before the F_p rank proof replaced the
# elimination of f
BALLANTINE_DIGESTS = {
    (3, 2): ("ae9164b5130bf238", 2),
    (3, 3): ("77efdbe08db6b48a", 26),
    (5, 2): ("a4a7125b7e979e75", 4),
    (7, 2): ("333657959befb417", 6),
}


@pytest.mark.parametrize("p, d", sorted(BALLANTINE_DIGESTS), ids=lambda v: str(v))
def test_ballantine_rank_proof_on_every_small_matrix(p, d):
    """Every d x d matrix over F_p: skew inputs are refused, and every
    other gets diag_nonzeros = rank f, read off L without an elimination of
    f, and the (B, L) recorded before that change."""
    domain = domain_from_name(f"F{p}")
    digest = hashlib.sha256()
    refused = 0
    for entries in itertools.product(range(p), repeat=d * d):
        f = Tensor(domain, np.array(entries).reshape(d, d))
        try:
            res = ballantine_reduce(f)
        except SkewInputError:
            refused += 1
            digest.update(b"skew")
            continue
        assert res.diag_nonzeros == matrix_rank(f), entries
        digest.update(res.B.array.astype("<i8").tobytes() + res.L.array.astype("<i8").tobytes())
    assert (digest.hexdigest()[:16], refused) == BALLANTINE_DIGESTS[p, d]


@pytest.mark.parametrize("f, B", [
    # lower triangular with one nonzero diagonal entry, but a nonzero
    # trailing block: rank 2
    ([[1, 0, 0], [0, 0, 0], [0, 1, 0]], np.eye(3)),
    # diagonal of rank 1, but its nonzero entry is not the first
    ([[0, 0], [0, 1]], np.eye(2)),
    # rank 1, first diagonal entry nonzero, but not lower triangular
    ([[1, 1], [0, 0]], np.eye(2)),
    # L = diag(1, 0) has the form, but B is singular and f has rank 2
    ([[1, 0], [0, 1]], [[1, 0], [0, 0]]),
], ids=["trailing-block", "zero-first-diagonal", "upper-entry", "singular-B"])
def test_a_form_that_breaks_the_rank_proof_is_never_returned(monkeypatch, f, B):
    """The pass reaches this B and L = B f B^T; each such result, with as
    many nonzero diagonal entries as f has rank in two of them, fails the
    F_p rank proof, so the reduction ends in an internal RuntimeError,
    while the valid form diag(1, 0) with B = I is returned."""
    B = np.array(B, dtype=np.int64)
    monkeypatch.setattr(congruence, "_reduce_pass", lambda farr, domain: B)
    with pytest.raises(RuntimeError, match="internal error"):
        ballantine_reduce(Tensor(F5, f))
    B = np.eye(2, dtype=np.int64)  # read by the patched _reduce_pass
    res = ballantine_reduce(Tensor(F5, [[1, 0], [0, 0]]))
    assert res.diag_nonzeros == 1 and np.array_equal(res.L.array, [[1, 0], [0, 0]])


def test_sym_diagonalize_rejects_asymmetric():
    with pytest.raises(CongruenceError):
        sym_diagonalize(Tensor(C, [[0, 1], [2, 0]]))


def test_matrix_symsubrank_skew_is_zero():
    res = matrix_symsubrank(skew_matrix(4, C))
    assert res.mode == "exact" and res.value == 0
    assert res.certificate.target.dims == (0, 0)


def test_matrix_symsubrank_complex_symmetric_is_rank():
    rng = np.random.default_rng(5)
    V = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    f = Tensor(C, V.T @ V)
    res = matrix_symsubrank(f)
    assert res.mode == "exact" and res.value == 2
    assert verify_certificate(res.certificate, f)
    assert res.method == "symmetric-diagonalization"


def test_matrix_symsubrank_exhaustive_f2():
    res = matrix_symsubrank(c5_matrix())
    assert res.mode == "exact" and res.value == 2
    assert res.method == "exhaustive-search"
    assert verify_certificate(res.certificate, c5_matrix())


def test_matrix_symsubrank_bounds_mode():
    """Fields too large to enumerate fall back to certified bounds."""
    f = Tensor(F7, np.eye(5, dtype=np.int64))
    res = matrix_symsubrank(f, budget=1000)
    assert res.mode == "bounds"
    assert res.value is None
    assert 0 <= res.lower <= res.upper <= 5
    if res.certificate is not None and res.lower > 0:
        assert verify_certificate(res.certificate, f)
    # over F2 the greedy block is one row: a nonzero diagonal entry, or e_i + e_j
    # where f_ij != f_ji
    for arr, row, upper in (([[0, 1], [1, 1]], [0, 1], 2), ([[0, 1], [0, 0]], [1, 1], 1)):
        f = Tensor(F2, arr)
        res = matrix_symsubrank(f, budget=1)
        assert (res.mode, res.lower, res.upper, res.method) == ("bounds", 1, upper,
                                                                "triangular-block")
        assert res.certificate.maps[0].array.tolist() == [row]
        assert verify_certificate(res.certificate, f)


def test_matrix_symsubrank_searches_whenever_the_search_fits():
    """3^25 maps exceed the budget, but the search from the rank enumerates
    C(121, 2) = 7,260 row pairs: a rank-2 5x5 matrix over F3 gets its exact
    value, not the bounds 0 <= value <= 4."""
    f = Tensor(F3, [[2, 0, 0, 2, 2], [1, 0, 0, 1, 0], [1, 0, 0, 1, 2],
                    [2, 0, 0, 2, 0], [0, 0, 0, 0, 2]])
    res = matrix_symsubrank(f)
    assert (res.mode, res.value, res.method) == ("exact", 2, "exhaustive-search")
    assert verify_certificate(res.certificate, f)
    assert brute_symrestricts(f, 2)  # and <3> is ruled out by rank 2
    # over budget the bounds remain, the upper one capped at the rank
    res = matrix_symsubrank(f, budget=1000)
    assert (res.mode, res.lower, res.upper) == ("bounds", 0, 2)


def test_power_diag_multinomial_sizes():
    L = Tensor(F5, [[1, 0], [3, 2]])
    for n, size in ((2, 2), (4, 6), (6, 20)):
        res = power_diag_certificate(L, n)
        assert res.size == size
        assert len(res.tuples) == size == len(res.merged_indices)
    with pytest.raises(CongruenceError):
        power_diag_certificate(L, 3)  # 2 pivots cannot split an odd power
    with pytest.raises(CongruenceError):
        power_diag_certificate(Tensor(F5, [[1, 2], [0, 1]]), 2)  # not triangular


def _pair_value(L, T1, T2, domain):
    """The entry of L^(tensor n) at (T1, T2) by the product formula."""
    if domain is C:
        return complex(np.prod([L[a, b] for a, b in zip(T1, T2)]))
    return int(np.prod([int(L[a, b]) for a, b in zip(T1, T2)], dtype=object)) % domain.p


@pytest.mark.parametrize("domain", [F3, F7, F1009, C])
def test_power_diag_matches_the_pairwise_product_formula(domain):
    rng = np.random.default_rng(19)
    for trial in range(6):
        d = 2 + trial % 2
        if domain is C:
            L = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        else:
            L = rng.integers(0, domain.p, size=(d, d))
            L[np.diag_indices(d)] = rng.integers(1, domain.p, size=d)
        L = np.tril(L)
        if trial >= 4:
            L[1, 1] = 0  # one pivot fewer
        r = d - (trial >= 4)
        for n in range(r, 7, r):
            res = power_diag_certificate(Tensor(domain, L), n)
            assert res.merged_indices == [
                sum(t * d ** (n - 1 - pos) for pos, t in enumerate(T)) for T in res.tuples
            ]
            for i, T1 in enumerate(res.tuples):
                want = _pair_value(L, T1, T1, domain)
                assert res.diag_values[i] == pytest.approx(want, rel=1e-12, abs=0)
                for T2 in res.tuples:
                    if T2 != T1:
                        assert domain.is_zero(_pair_value(L, T1, T2, domain))
            power = np.ones((1, 1), dtype=L.dtype)
            for _ in range(n):
                power = np.kron(power, L)
            sub = power[np.ix_(res.merged_indices, res.merged_indices)]
            if domain is C:
                assert np.allclose(sub, np.diag(res.diag_values), rtol=0, atol=1e-9)
            else:
                assert np.array_equal(sub % domain.p, np.diag(res.diag_values))


def test_power_diag_spanning_several_row_blocks():
    """r = 4, n = 8: 2,520 arrangements, about 26 rows per checked block."""
    L = np.tril(np.random.default_rng(23).integers(1, 1009, size=(5, 5)))
    L[2, 2] = 0
    res = power_diag_certificate(Tensor(F1009, L), 8)
    assert res.size == len(res.tuples) == 2520 and res.pivots == [0, 1, 3, 4]
    assert res.diag_values == [_pair_value(L, T, T, F1009) for T in res.tuples]
    rng = np.random.default_rng(29)
    for i, j in rng.integers(0, res.size, size=(200, 2)):
        want = _pair_value(L, res.tuples[i], res.tuples[j], F1009)
        assert (want == 0) == (i != j)


def test_power_diag_reports_a_degenerate_complex_block():
    """Within the tolerance an upper entry reads as zero and a pivot as
    nonzero, while their products may not: both faults are raised as
    inputs the 1e-9 zero rule cannot decide, not as internal errors."""
    refused = "^not reducible at the complex zero tolerance 1e-9: "
    tiny = Tensor(C, [[1e-5, 0], [0, 1e-5]])
    with pytest.raises(CongruenceError, match=refused + "zero on the extracted diagonal$"):
        power_diag_certificate(tiny, 2)
    leaky = Tensor(C, [[1, 1e-10], [1e5, 1]])
    with pytest.raises(CongruenceError, match=refused + "extracted subtensor is not diagonal$"):
        power_diag_certificate(leaky, 2)


@pytest.mark.parametrize("block, message", [
    (np.zeros, "zero on the extracted diagonal"),
    (np.ones, "extracted subtensor is not diagonal"),
], ids=["zero", "offdiag"])
def test_power_diag_faults_over_prime_fields_are_internal_errors(monkeypatch, block, message):
    """Over F_p the block check cannot fail; with the field's nonzero mask
    broken on purpose for every block read after the upper-triangle check,
    each fault is an internal error in the same words as before."""
    real, reads = type(F5).nonzero, []

    def nonzero(self, a):
        reads.append(a)
        return real(self, a) if len(reads) == 1 else block(np.shape(a), dtype=bool)

    monkeypatch.setattr(type(F5), "nonzero", nonzero)
    with pytest.raises(RuntimeError, match=f"^internal error: {message}$"):
        power_diag_certificate(Tensor(F5, [[1, 0], [2, 3]]), 2)

"""Acceptance suite: one test per shipped guarantee, at the stated tolerances.

Each test is self-contained and prints as a single pass/fail line under
``pytest -v``.  Two tests are expected failures (strict): the k!-scaled
symmetrization identity and the fourth-power chain target; each sits next
to a passing sibling that pins down the behavior the library actually
delivers.  The whole file is budgeted to run in well under five minutes.
"""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import (
    C,
    F2,
    F3,
    F5,
    F7,
    c5_directed,
    c5_matrix,
    random_symmetric,
    random_tensor,
    random_unit_tensor,
    skew_matrix,
    tight_tensor,
    w_tensor,
)
from symsub import (
    Certificate,
    Hypergraph,
    LinearMap,
    MissingKthRootError,
    OptimizerOptions,
    Tensor,
    alpha_chain_check,
    apply,
    apply_sym,
    apply_sym_power,
    ballantine_reduce,
    create_t,
    directional_derivative_check,
    flattening_rank,
    fully_symmetric,
    independence_number,
    induced_matching_number,
    is_skew_zero_diag,
    is_symmetric,
    linalg,
    make_sym,
    marginal_equality_check,
    matrix_rank,
    matrix_symsubrank,
    power_diag_certificate,
    restriction_exists,
    sandwich_check,
    selection_map,
    subrank_exact,
    sym_diagonalize,
    sym_quantum_functional,
    symmetrize_certificate,
    symrestriction_exists,
    symsubrank_exact,
    tensor_power,
    tensor_product,
    tensors_equal,
    uniform_quantum_functional,
    unit_tensor,
    verify_certificate,
    waring_h,
    waring_reconstruct,
)

W_VALUE = 3 / 2 ** (2 / 3)


def test_criterion_01_pentagon_matrix_parameters():
    start = time.perf_counter()
    f = c5_matrix()
    value, cert = symsubrank_exact(f)
    assert value == 2
    assert verify_certificate(cert, f)
    # exhaustive refutation one rank at a time, not just monotonicity
    for r in (3, 4, 5):
        assert symrestriction_exists(unit_tensor(r, 2, F2), f) is None
    assert matrix_rank(f) == 4
    assert independence_number(c5_directed())[0] == 2
    assert induced_matching_number(c5_directed())[0] == 3
    assert time.perf_counter() - start < 10


def test_criterion_02_tight_tensor_gap():
    start = time.perf_counter()
    f = tight_tensor()
    assert is_symmetric(f)
    sym_value, sym_cert = symsubrank_exact(f)
    assert sym_value == 1
    assert verify_certificate(sym_cert, f)
    value, cert = subrank_exact(f)
    assert value == 2
    assert verify_certificate(cert, f)
    assert time.perf_counter() - start < 30


def test_criterion_03_skew_matrices_and_their_even_powers():
    for domain in (C, F5):
        for d in (2, 4):
            f = skew_matrix(d, domain)
            res = matrix_symsubrank(f)
            assert res.mode == "exact" and res.value == 0
            value, cert = subrank_exact(f)
            assert value == d
            assert verify_certificate(cert, f)
    square = tensor_product(skew_matrix(2, C), skew_matrix(2, C))
    assert is_symmetric(square)
    res = matrix_symsubrank(square)
    assert res.value == 4
    assert verify_certificate(res.certificate, square)


def test_criterion_04_ballantine_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for domain in (F3, F5, F7, C):
        done = 0
        while done < 200:
            d = 2 + done % 5
            f = random_tensor(rng, (d, d), domain)
            if is_skew_zero_diag(f):
                continue
            res = ballantine_reduce(f, seed=done)
            B = res.B.array
            L = B @ f.array @ B.T
            if domain is C:
                assert np.abs(np.triu(L, 1)).max() < 1e-8
                nz = int((np.abs(np.diagonal(L)) > 1e-8).sum())
            else:
                L = L % domain.p
                assert not np.triu(L, 1).any()
                nz = int((np.diagonal(L) != 0).sum())
            assert linalg.rank(B, domain) == d
            assert nz == res.diag_nonzeros == matrix_rank(f)
            done += 1
    assert time.perf_counter() - start < 60


def test_criterion_05_symmetric_diagonalization_over_c():
    start = time.perf_counter()
    rng = np.random.default_rng(9)
    for i in range(100):
        d = int(rng.integers(1, 9))
        r = int(rng.integers(0, d + 1))
        V = rng.normal(size=(r, d)) + 1j * rng.normal(size=(r, d))
        f = Tensor(C, V.T @ V)
        res = sym_diagonalize(f, seed=i)
        assert res.rank == r
        got = res.B.array @ f.array @ res.B.array.T
        want = np.zeros((d, d), dtype=complex)
        want[:r, :r] = np.eye(r)
        assert np.abs(got - want).max() <= 1e-8
        if i % 10 == 0:  # and therefore the symmetric subrank is the rank
            assert matrix_symsubrank(f).value == r
    assert time.perf_counter() - start < 30


@pytest.mark.parametrize(
    "k,domain",
    [(2, C), (2, F3), (2, F5), (2, F7), (3, C), (3, F5), (3, F7),
     (4, C), (4, F5), (4, F7), (5, C), (5, F7)],
    ids=lambda v: getattr(v, "name", v),
)
def test_criterion_06_waring_identity(k, domain):
    dec = waring_h(k, domain)
    assert len(dec.coefficients) == 2 ** (k - 1)
    assert tensors_equal(waring_reconstruct(dec), fully_symmetric(k, domain))


def _restriction_instances(count):
    """Random plain restrictions with symmetric endpoints, two map families."""
    rng = np.random.default_rng(33)
    produced = 0
    while produced < count:
        domain = (F5, F7, C)[produced % 3]
        k = 2 + produced % 2
        d = 2 + (produced // 3) % 2
        f = random_symmetric(rng, d, k, domain)
        if domain is C:
            A = LinearMap(domain, rng.normal(size=(d, d)))
        else:
            A = LinearMap(domain, rng.integers(0, domain.p, (d, d)))
        if produced % 2:
            maps = tuple(LinearMap(domain, (j + 1) * A.array) for j in range(k))
        else:
            maps = (A,) * k
        g = apply(maps, f)
        if not is_symmetric(g) or not np.abs(np.asarray(g.array)).max():
            continue
        yield domain, k, f, maps, g
        produced += 1


@pytest.mark.xfail(
    strict=True,
    reason="the symmetrizing map carries f(x)h to exactly g(x)h; a k!-scaled "
    "right-hand side fails in every domain where k! != 1",
)
def test_criterion_07_make_sym_reaches_the_factorial_multiple():
    for domain, k, f, maps, g in _restriction_instances(100):
        scale = math.factorial(k)
        if domain is not C and scale % domain.p == 1:
            continue  # both sides coincide; nothing to distinguish
        cert = make_sym(maps, f, g)
        h = fully_symmetric(k, domain)
        fh = tensor_product(f, h)
        gh_scaled = Tensor(domain, domain.reduce(scale * np.asarray(tensor_product(g, h).array)))
        assert tensors_equal(apply_sym(cert.maps[0], fh), gh_scaled)


def test_criterion_07_make_sym_reaches_the_plain_product():
    for domain, k, f, maps, g in _restriction_instances(100):
        cert = make_sym(maps, f, g)
        assert cert.kind == "symmetric-restriction"
        h = fully_symmetric(k, domain)
        fh = tensor_product(f, h)
        gh = tensor_product(g, h)
        assert tensors_equal(apply_sym(cert.maps[0], fh), gh)
        assert verify_certificate(cert, fh)


def test_criterion_08_create_t_certificates():
    cert = create_t(w_tensor(C))
    assert cert.y == (2, 1)
    assert cert.c == 3
    S = selection_map(cert)
    assert tensors_equal(
        apply_sym(S, tensor_power(w_tensor(C), 3)), fully_symmetric(3, C)
    )

    rng = np.random.default_rng(21)
    done = 0
    while done < 50:
        domain = C if done % 2 else F5
        d = 2 + done % 2
        f = random_symmetric(rng, d, 3, domain)
        if max(flattening_rank(f, [j]) for j in range(3)) < 2:
            continue
        try:
            cert = create_t(f)
        except MissingKthRootError:
            continue  # reported finite-field obstruction; draw again
        got = apply_sym_power(selection_map(cert), f, cert.c)
        assert tensors_equal(got, fully_symmetric(3, domain))
        done += 1


@pytest.mark.xfail(
    strict=True,
    reason="the chain turns an n-copy plain witness into an (n+3)-copy "
    "symmetric one, so the fourth power needs n = 1; exhaustive search "
    "refutes a single-copy restriction of the two-term unit tensor, and the "
    "smallest chain output is the fifth power",
)
def test_criterion_09_symmetrization_chain_reaches_the_fourth_power():
    W = w_tensor(F5)
    rc = restriction_exists(unit_tensor(2, 3, F5), W)
    assert rc is not None
    res = symmetrize_certificate(W, rc)
    assert verify_certificate(res.certificate, tensor_power(W, 4))


def test_criterion_09_fourth_power_by_direct_construction():
    """A closed-form shared map puts the two-term unit inside the fourth power."""
    lam = complex(-1 / 18) ** (1 / 3)
    two = np.vstack([lam * np.kron([1, 1], [1, -2]), lam * np.kron([1, -2], [1, 1])])
    one = ((1 / 9) ** (1 / 3) * np.kron([1.0, 1], [1, 1])).reshape(1, 4)
    cert = Certificate(
        kind="symmetric-restriction",
        maps=(LinearMap(C, np.kron(two, one)),),
        target=unit_tensor(2, 3, C),
    )
    assert verify_certificate(cert, tensor_power(w_tensor(C), 4))


def test_criterion_09_chain_from_a_two_copy_witness():
    W = w_tensor(F5)
    A = LinearMap(F5, [[2, 1, 2, 1], [2, 2, 1, 1]])
    rc = Certificate(kind="restriction", maps=(A, A, A), target=unit_tensor(2, 3, F5))
    assert verify_certificate(rc, tensor_power(W, 2))
    res = symmetrize_certificate(W, rc)
    assert (res.n, res.c) == (2, 3)
    assert verify_certificate(res.certificate, tensor_power(W, 5))


def test_criterion_10_power_diagonal_certificates():
    L = Tensor(F5, [[1, 0], [3, 2]])
    for n, size in ((2, 2), (4, 6), (6, 20)):
        res = power_diag_certificate(L, n)
        assert res.size == size == math.comb(n, n // 2)
        power = L.array
        for _ in range(n - 1):
            power = np.kron(power, L.array) % 5
        sub = power[np.ix_(res.merged_indices, res.merged_indices)]
        assert (np.diagonal(sub) != 0).all()
        assert not (sub - np.diag(np.diagonal(sub))).any()


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [2, 3])
def test_criterion_11_functional_normalization(r, k):
    res = sym_quantum_functional(unit_tensor(r, k, C), OptimizerOptions(restarts=2))
    assert abs(res.value - r) <= 1e-6


def test_criterion_12_w_tensor_value():
    start = time.perf_counter()
    for fn in (sym_quantum_functional, uniform_quantum_functional):
        res = fn(w_tensor(C))
        assert abs(res.value - W_VALUE) <= 1e-2
        assert res.restarts <= 20
    assert time.perf_counter() - start < 120


def test_criterion_13_pointwise_sandwich():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        k = int(rng.integers(2, 4))
        d = int(rng.integers(2, 5))
        rep = sandwich_check(random_unit_tensor(rng, (d,) * k))
        assert rep.concavity_slack >= -1e-9
        assert rep.upper_slack >= -1e-9
    checked = 0
    while checked < 100:
        f = random_symmetric(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)), C)
        if not np.abs(np.asarray(f.array)).max():
            continue
        assert marginal_equality_check(f) <= 1e-12
        checked += 1


def test_criterion_14_moment_map_gradient():
    rng = np.random.default_rng(19)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, 4))
        f = random_unit_tensor(rng, (d,) * k)
        H = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        H = (H + H.conj().T) / 2
        H = H / max(np.abs(np.linalg.eigvalsh(H)))
        analytic, numeric = directional_derivative_check(f, H)
        assert abs(numeric - analytic) <= 1e-5 * max(1.0, abs(analytic))


def test_criterion_15_hypergraph_chains():
    proper = [e for e in itertools.product((1, 2), repeat=3) if len(set(e)) > 1]
    for mask in range(64):
        edges = [proper[i] for i in range(6) if mask >> i & 1]
        rep = alpha_chain_check(Hypergraph(2, 3, edges), F2)
        assert rep.ok, dict(rep.inequalities)

    rng = np.random.default_rng(15)
    separations = 0
    for _ in range(50):
        edges = [
            (i, j)
            for i in range(1, 6)
            for j in range(1, 6)
            if i != j and rng.random() < 0.35
        ]
        rep = alpha_chain_check(Hypergraph(5, 2, edges), F2)
        assert rep.ok, dict(rep.inequalities)
        separations += bool(rep.separation)
    assert separations == 3

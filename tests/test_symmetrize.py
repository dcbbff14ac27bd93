import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import C, F3, F5, F7, random_symmetric, w_tensor
from symsub import (
    Certificate,
    DomainError,
    LinearMap,
    MissingKthRootError,
    Tensor,
    TensorSizeError,
    apply,
    apply_sym,
    apply_sym_power,
    create_t,
    domain_from_name,
    flattening_rank,
    fully_symmetric,
    is_symmetric,
    make_sym,
    remove_powers,
    restriction_exists,
    selection_map,
    symmetrize_certificate,
    symrank_upper,
    tensor_power,
    tensor_product,
    tensors_equal,
    unit_tensor,
    verify_certificate,
    waring_h,
    waring_reconstruct,
)
from symsub import linalg, restrict, symmetrize

F11 = domain_from_name("F11")


def test_fully_symmetric_support():
    h = fully_symmetric(3, F5)
    assert h.dims == (3, 3, 3)
    assert is_symmetric(h)
    assert h.array[0, 1, 2] == 1 and h.array[2, 1, 0] == 1
    assert h.array[0, 0, 1] == 0 and h.array[0, 0, 0] == 0


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_waring_h_complex(k):
    dec = waring_h(k, C)
    assert len(dec.coefficients) == 2 ** (k - 1)
    assert tensors_equal(waring_reconstruct(dec), fully_symmetric(k, C))


def test_h_of_large_order_is_gated_before_allocation():
    """h of order 9 would take 9^9 entries (3.1 GB as int64)."""
    tracemalloc.start()
    try:
        for build in (waring_h, fully_symmetric):
            with pytest.raises(TensorSizeError, match="9\\^9 entries"):
                build(9, F7 if build is fully_symmetric else C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_waring_h_holds_no_dense_term_per_power():
    """The order-7 check holds h and the reconstruction (7^7 complex entries
    each) plus two half-leg tables, not a dense 7^7 term beside the total."""
    tracemalloc.start()
    try:
        waring_h(7, C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 7**7 * 16


def test_waring_h_checks_h_one_block_of_rows_at_a_time():
    """h of order 8 and the sum of its 128 terms take 8^8 complex entries
    (256 MiB) each; the check holds one block of their rows at a time."""
    tracemalloc.start()
    try:
        dec = waring_h(8, C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20
    assert len(dec.coefficients) == len(dec.vectors) == 128


@pytest.mark.parametrize("k,domain", [(3, F7), (7, F11), (7, C)])
def test_waring_h_rejects_a_wrong_sum(k, domain, monkeypatch):
    """One term with the wrong sign fails the check, in one block (k = 3)
    or in the first of several (k = 7)."""
    right = symmetrize._waring_terms(k, domain)
    coefficients = (domain.normalize(-right.coefficients[0]),) + right.coefficients[1:]
    wrong = dataclasses.replace(right, coefficients=coefficients)
    monkeypatch.setattr(symmetrize, "_waring_terms", lambda k, domain: wrong)
    with pytest.raises(RuntimeError, match="failed to reconstruct"):
        waring_h(k, domain)


def test_waring_h_characteristic_guard():
    with pytest.raises(DomainError):
        waring_h(3, F3)
    with pytest.raises(DomainError):
        waring_h(5, F5)
    assert waring_h(4, F5) is not None  # p > k is enough


def test_make_sym_interleaves_to_the_unit_constant():
    """A plain restriction f >= g lifts to f(x)h >=_s g(x)h, scale one."""
    rng = np.random.default_rng(31)
    for i in range(12):
        domain = (F5, F7, C)[i % 3]
        k = 2 + i % 2
        f = random_symmetric(rng, 2, k, domain)
        A = LinearMap(
            domain,
            rng.normal(size=(2, 2)) if domain is C else rng.integers(0, domain.p, (2, 2)),
        )
        maps = tuple(LinearMap(domain, (j + 1) * A.array) for j in range(k))
        g = apply(maps, f)
        if not is_symmetric(g):
            continue
        cert = make_sym(maps, f, g)
        assert cert.kind == "symmetric-restriction"
        fh = tensor_product(f, fully_symmetric(k, domain))
        gh = tensor_product(g, fully_symmetric(k, domain))
        assert tensors_equal(apply_sym(cert.maps[0], fh), gh)
        assert verify_certificate(cert, fh)


def test_make_sym_needs_symmetric_endpoints():
    f = Tensor(F5, np.arange(8).reshape(2, 2, 2) % 5)
    A = LinearMap(F5, np.eye(2, dtype=np.int64))
    with pytest.raises(ValueError):
        make_sym((A, A, A), f, f)


def test_remove_powers_clears_low_diagonal():
    rng = np.random.default_rng(41)
    hits = 0
    while hits < 10:
        f = random_symmetric(rng, 3, 3, C)
        A, g = remove_powers(f)
        assert g.array[(0,) * 3] == pytest.approx(0, abs=1e-9)
        assert g.array[(1,) * 3] == pytest.approx(0, abs=1e-9)
        assert tensors_equal(g, apply_sym(A, f))
        hits += 1


def test_remove_powers_clears_every_index_in_one_pass_over_f7():
    """Clearing index i moves coordinate i only, so one pass in decreasing
    order leaves every diagonal entry but the last zero."""
    rng = np.random.default_rng(42)
    cleared = 0
    for _ in range(30):
        f = random_symmetric(rng, 4, 3, F7)
        try:
            A, g = remove_powers(f)
        except MissingKthRootError as exc:
            failed = [i for i, _ in exc.failed]
            assert failed == sorted(set(failed), reverse=True)
            continue
        assert all(g.array[(i,) * 3] == 0 for i in range(3))
        assert tensors_equal(g, apply_sym(A, f))
        cleared += 1
    assert cleared >= 5


def test_remove_powers_field_obstruction_is_reported():
    rng = np.random.default_rng(43)
    saw_failure = False
    for _ in range(60):
        f = random_symmetric(rng, 3, 3, F5)
        try:
            remove_powers(f)
        except MissingKthRootError as exc:
            assert exc.failed  # which indices could not be cleared
            saw_failure = True
            break
    assert saw_failure


def test_create_t_on_w():
    cert = create_t(w_tensor(C))
    assert cert.y == (2, 1)
    assert cert.c == 3
    S = selection_map(cert)
    assert tensors_equal(apply_sym(S, tensor_power(w_tensor(C), 3)), fully_symmetric(3, C))


def test_create_t_checks_a_power_over_the_cap_by_its_support():
    """h^6 has 3^18 entries, over the dense cap: create_t's check reads the
    selection on h's 27 entries, and the support of h^6 confirms it."""
    h = fully_symmetric(3, F5)
    cert = create_t(h)
    assert (cert.c, cert.y) == (6, (1, 1, 1))
    assert tensors_equal(apply_sym_power(selection_map(cert), h, 6), h)


def test_create_t_needs_flattening_rank_two():
    rank_one = Tensor(C, np.einsum("i,j,k->ijk", [1.0, 2], [1.0, 2], [1.0, 2]))
    with pytest.raises(ValueError):
        create_t(rank_one)


def test_create_t_random_f5_certificates_materialize():
    rng = np.random.default_rng(47)
    done = 0
    while done < 8:
        f = random_symmetric(rng, 2, 3, F5)
        if max(flattening_rank(f, [j]) for j in range(3)) < 2:
            continue
        try:
            cert = create_t(f)
        except MissingKthRootError:
            continue  # documented finite-field obstruction
        got = apply_sym_power(selection_map(cert), f, cert.c)
        assert tensors_equal(got, fully_symmetric(3, F5))
        done += 1


def test_symmetrize_certificate_chain_over_f5():
    """A plain <2> <= W^2 witness becomes a symmetric one on W^5."""
    W = w_tensor(F5)
    A = LinearMap(F5, [[2, 1, 2, 1], [2, 2, 1, 1]])
    rc = Certificate(kind="restriction", maps=(A, A, A), target=unit_tensor(2, 3, F5))
    assert verify_certificate(rc, tensor_power(W, 2))
    res = symmetrize_certificate(W, rc)
    assert (res.n, res.c) == (2, 3)
    assert res.certificate.kind == "symmetric-restriction"
    assert verify_certificate(res.certificate, tensor_power(W, 5))


def test_symrank_upper_polarizes_a_rank_witness():
    u = unit_tensor(2, 3, C)
    eye = LinearMap(C, np.eye(2))
    witness = Certificate(kind="restriction", maps=(eye, eye, eye), target=u)
    res = symrank_upper(u, witness)
    assert res.bound == 2 * 2 ** 2
    assert len(res.decomposition.coefficients) == 8
    assert tensors_equal(waring_reconstruct(res.decomposition), u)


def test_symrank_upper_maps_the_terms_of_h():
    """Each rank-one term a_1 (x) a_2 (x) a_3 of the witness turns h's term
    c v^{(x)3} into (c/3!) (A v)^{(x)3}, with A = (a_1 a_2 a_3)."""
    rng = np.random.default_rng(44)
    cols = [rng.integers(0, 7, (2, 2)) for _ in range(3)]
    # f = sum over the 3! orders of the legs of a rank-2 tensor: symmetric
    orders = list(itertools.permutations(range(3)))
    maps = tuple(LinearMap(F7, np.hstack([cols[o[leg]] for o in orders])) for leg in range(3))
    f = apply(maps, unit_tensor(12, 3, F7))
    assert is_symmetric(f)
    res = symrank_upper(f, Certificate(kind="restriction", maps=maps, target=f))
    assert res.bound == 12 * 4
    h = waring_h(3, F7)
    inv = pow(6, -1, 7)
    assert res.decomposition.coefficients == tuple(c * inv % 7 for c in h.coefficients) * 12
    A = np.stack([m.array for m in maps], axis=-1)  # A[:, i] = (a_1i a_2i a_3i)
    want = np.concatenate([h.vectors @ A[:, i].T % 7 for i in range(12)])
    assert np.array_equal(res.decomposition.vectors, want)
    assert tensors_equal(waring_reconstruct(res.decomposition), f)


def test_symrank_upper_shortcut_on_the_gadget():
    """For h itself the direct 2^{k-1}-term decomposition wins."""
    h = fully_symmetric(3, C)
    dec = waring_h(3, C)
    rows = dec.vectors * np.asarray(dec.coefficients)[:, None] ** (1 / 3)
    maps = tuple(LinearMap(C, rows.T) for _ in range(3))
    witness = Certificate(kind="restriction", maps=maps, target=h)
    assert verify_certificate(witness, unit_tensor(4, 3, C))
    res = symrank_upper(h, witness)
    assert res.bound == 4
    assert tensors_equal(waring_reconstruct(res.decomposition), h)


def test_symmetrize_chain_gate_counts_the_chained_map():
    """The gate counts the r x d^(n+c) entries of the chained map, here
    2 x 64^3; a dense I (x) M, d^n k x d^(n+c) = 2^25, would be over the cap."""
    d = 64
    arr = np.zeros((d, d), dtype=np.int64)
    arr[0, 1] = arr[1, 0] = 1
    f = Tensor(F5, arr)
    A = np.zeros((2, d), dtype=np.int64)
    A[:, :2] = [[1, 3], [2, 4]]  # 2 u0 u1 = 1 on each row, u0 v1 + u1 v0 = 0
    rc = Certificate(kind="symmetric-restriction", maps=(LinearMap(F5, A),),
                     target=unit_tensor(2, 2, F5))
    res = symmetrize_certificate(f, rc)
    assert (res.n, res.c) == (1, 2)
    assert res.certificate.maps[0].array.shape == (2, d ** 3)
    assert tensors_equal(apply_sym_power(res.certificate.maps[0], f, 3), unit_tensor(2, 2, F5))


@pytest.mark.parametrize("name", ["remove_powers", "make_sym", "symmetrize_certificate",
                                  "symrank_upper"])
def test_order_zero_tensors_are_rejected(name):
    """An order-0 tensor is symmetric but has no leg to read a dimension from."""
    f = Tensor(F3, np.array(1))
    witness = Certificate(kind="restriction", maps=(), target=f)
    args = {"remove_powers": (f,), "make_sym": ([], f, f),
            "symmetrize_certificate": (f, witness), "symrank_upper": (f, witness)}[name]
    with pytest.raises(ValueError, match=f"^{name} needs order >= 1$"):
        getattr(symmetrize, name)(*args)


@pytest.mark.parametrize("chain", [True, False])
def test_witness_maps_are_counted_alike(chain):
    """symmetrize_certificate and symrank_upper read a witness the same way."""
    u = unit_tensor(2, 3, F5)
    eye = LinearMap(F5, np.eye(2, dtype=np.int64))
    witness = Certificate(kind="restriction", maps=(eye, eye), target=u)
    with pytest.raises(ValueError, match="^witness has 2 maps, expected 3$"):
        (symmetrize_certificate if chain else symrank_upper)(u, witness)


def test_symmetrize_certificate_builds_the_witness_power_once(monkeypatch):
    """The premise check and the chain's check share one f^{(x)n}; neither
    create_t nor the chain forms another power of f."""
    calls = []

    def counted(f, n):
        calls.append(n)
        return tensor_power(f, n)

    monkeypatch.setattr(symmetrize, "tensor_power", counted)
    W = w_tensor(F5)
    A = LinearMap(F5, [[2, 1, 2, 1], [2, 2, 1, 1]])
    res = symmetrize_certificate(W, Certificate(kind="restriction", maps=(A, A, A),
                                                target=unit_tensor(2, 3, F5)))
    assert (res.n, res.c) == (2, 3)
    assert calls == [2]  # the witness's power


def _w_chain_witness():
    """<2> <= W^{(x)2} over F5, the same map on every leg."""
    A = LinearMap(F5, [[2, 1, 2, 1], [2, 2, 1, 1]])
    return Certificate(kind="restriction", maps=(A, A, A), target=unit_tensor(2, 3, F5))


def test_a_chain_over_the_old_support_budget_is_confirmed_by_an_independent_sum():
    """f = V^{(x)3}<5> over F13 with the witness V^{-1} (n = 1, c = 3): f^{(x)4}
    = (V^{(x)4})^{(x)3}<625> has 5^12 entries, so A^{(x)3} f^{(x)4} is read as
    the sum of u^{(x)3} over the columns u of A V^{(x)4}, outside the library."""
    p, d = 13, 5
    F13 = domain_from_name("F13")
    rng = np.random.default_rng(0)
    V = rng.integers(0, p, (d, d))
    while linalg.rank(V, F13) < d:
        V = rng.integers(0, p, (d, d))
    _, _, inverse = linalg.row_reduce(V, F13)
    f = apply([LinearMap(F13, V)] * 3, unit_tensor(d, 3, F13))
    rc = Certificate(kind="restriction", maps=(LinearMap(F13, inverse),) * 3,
                     target=unit_tensor(d, 3, F13))
    res = symmetrize_certificate(f, rc)
    assert (res.n, res.c) == (1, 3)
    V4 = V
    for _ in range(3):
        V4 = np.kron(V4, V) % p
    U = res.certificate.maps[0].array @ V4 % p  # 5 x 625: column u per unit entry
    got = np.einsum("iu,ju,ku->ijk", U, U, U) % p
    assert np.array_equal(got, unit_tensor(d, 3, F13).array)


def test_the_chain_check_catches_a_changed_entry_of_the_map(monkeypatch):
    check = symmetrize._check_chain

    def corrupted(A, *rest):
        A = A.copy()
        A.flat[1] = (A.flat[1] + 1) % 5
        return check(A, *rest)

    monkeypatch.setattr(symmetrize, "_check_chain", corrupted)
    with pytest.raises(RuntimeError, match="^internal error: the chained map is not"):
        symmetrize_certificate(w_tensor(F5), _w_chain_witness())


@pytest.mark.parametrize("field", ["scale", "pre_map"])
def test_the_selection_check_catches_a_changed_scale_or_basis_change(field):
    W = w_tensor(F5)
    cert = create_t(W)
    symmetrize._check_selection(cert, W)
    if field == "scale":
        bad = dataclasses.replace(cert, scale=(cert.scale + 1) % 5)
    else:
        arr = cert.pre_map.array.copy()
        arr[0, 0] = (arr[0, 0] + 1) % 5
        bad = dataclasses.replace(cert, pre_map=LinearMap(F5, arr))
    with pytest.raises(RuntimeError, match="^internal error: the selection does not extract h$"):
        symmetrize._check_selection(bad, W)


def test_the_chain_checks_symmetry_on_f_alone(monkeypatch):
    """A power of a symmetric f is symmetric, and <r> is checked to be the
    unit tensor, so no symmetry test sees f^{(x)n} or <r>."""
    seen = []

    def counted(t):
        seen.append(t.array.size)
        return is_symmetric(t)

    for module in (symmetrize, restrict):
        monkeypatch.setattr(module, "is_symmetric", counted)
    W = w_tensor(F5)
    symmetrize_certificate(W, _w_chain_witness())
    assert seen and max(seen) <= W.array.size


def test_create_t_checks_h_of_order_seven_in_blocks():
    """The order-7 W over F11 (ones where one index is 1) selects h of order
    7, whose 7^7 entries the check reads in 13 blocks of 2^16 tuples."""
    arr = np.zeros((2,) * 7, dtype=np.int64)
    for leg in range(7):
        arr[(0,) * leg + (1,) + (0,) * (6 - leg)] = 1
    cert = create_t(Tensor(F11, arr))
    assert (cert.c, cert.y) == (7, (6, 1))

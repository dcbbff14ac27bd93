import itertools

import numpy as np
import pytest

from conftest import C, F2, F3, F5, F7, c5_matrix, tight_tensor, w_tensor
from symsub import (
    Certificate,
    DomainError,
    LinearMap,
    SearchInfeasibleError,
    Tensor,
    certificate_from_json,
    certificate_to_json,
    reconstruct_waring,
    restriction_exists,
    subrank_exact,
    symrank_small,
    symrestriction_exists,
    symsubrank_exact,
    tensors_equal,
    unit_tensor,
    verify_certificate,
)
from symsub.restrict import _frames, _root_orbit_leads, _row, _row_codes
from symsub.symmetrize import fully_symmetric


def test_certificate_kind_validation():
    A = LinearMap(F5, [[1, 0]])
    u = unit_tensor(1, 2, F5)
    with pytest.raises(ValueError):
        Certificate(kind="mystery", maps=(A,), target=u)
    with pytest.raises(ValueError):
        Certificate(kind="symmetric-restriction", maps=(A, A), target=u)


def test_verify_certificate_both_kinds():
    f = Tensor(F5, [[2, 0], [0, 3]])
    # plain: independent maps scale the two axes separately
    A = LinearMap(F5, [[3, 0]])  # 3*2=6=1
    B = LinearMap(F5, [[1, 0]])
    plain = Certificate(kind="restriction", maps=(A, B), target=unit_tensor(1, 2, F5))
    assert verify_certificate(plain, f)
    wrong = Certificate(kind="restriction", maps=(B, B), target=unit_tensor(1, 2, F5))
    assert not verify_certificate(wrong, f)
    # symmetric: the shared map scales by 2*2*2 = 8 = 3 mod 5, not 1
    S = LinearMap(F5, [[2, 0]])
    sym = Certificate(kind="symmetric-restriction", maps=(S,), target=unit_tensor(1, 2, F5))
    assert not verify_certificate(sym, f)


def test_certificate_json_roundtrip():
    cert = Certificate(
        kind="restriction",
        maps=(LinearMap(F5, [[1, 2]]), LinearMap(F5, [[3, 4]])),
        target=unit_tensor(1, 2, F5),
    )
    again = certificate_from_json(certificate_to_json(cert))
    assert again.kind == cert.kind
    assert [m.array.tolist() for m in again.maps] == [[[1, 2]], [[3, 4]]]
    assert tensors_equal(again.target, cert.target)


def test_symrestriction_search_small():
    f = Tensor(F2, np.eye(3, dtype=np.int64))
    cert = symrestriction_exists(unit_tensor(3, 2, F2), f)
    assert cert is not None and verify_certificate(cert, f)
    assert symrestriction_exists(unit_tensor(4, 2, F2), Tensor(F2, np.eye(4, dtype=np.int64))) is not None


def test_symrestriction_needs_prime_field():
    with pytest.raises(DomainError):
        symrestriction_exists(unit_tensor(1, 2, C), Tensor(C, np.eye(2)))


def test_search_budget_raises_with_details():
    f = Tensor(F7, np.eye(5, dtype=np.int64))
    with pytest.raises(SearchInfeasibleError) as info:
        symrestriction_exists(unit_tensor(4, 2, F7), f, budget=100)
    assert info.value.budget == 100
    assert info.value.required > 100


def test_symsubrank_c5():
    value, cert = symsubrank_exact(c5_matrix())
    assert value == 2
    assert cert.kind == "symmetric-restriction"
    assert verify_certificate(cert, c5_matrix())


def test_subrank_tight_tensor():
    value, cert = subrank_exact(tight_tensor())
    assert value == 2
    assert verify_certificate(cert, tight_tensor())


def test_symsubrank_of_unit_is_full():
    u = unit_tensor(2, 3, F3)
    value, cert = symsubrank_exact(u)
    assert value == 2 and verify_certificate(cert, u)


def test_symrank_h3_over_f7():
    res = symrank_small(fully_symmetric(3, F7))
    assert res.value == 4
    assert res.lower_bound <= 4
    assert res.vectors is not None and len(res.vectors) == 4
    assert reconstruct_waring(res.vectors, fully_symmetric(3, F7))


def test_symrank_diagonal_is_dimension():
    u = unit_tensor(2, 3, F5)
    res = symrank_small(u)
    assert res.value == 2
    assert reconstruct_waring(res.vectors, u)


def test_symrank_budget_exhaustion_returns_bounds():
    res = symrank_small(fully_symmetric(3, F7), budget=4)
    assert res.value is None
    assert res.lower_bound >= 1
    assert res.vectors is None


def test_symrank_preconditions():
    with pytest.raises(DomainError):
        symrank_small(w_tensor(C))
    with pytest.raises(ValueError):
        symrank_small(Tensor(F5, np.arange(8).reshape(2, 2, 2)))


def test_restriction_exists_matrix_shortcut():
    """Order-2 restrictions are found constructively over any domain."""
    f = Tensor(C, [[0, 1], [-1, 0]])
    cert = restriction_exists(unit_tensor(2, 2, C), f)
    assert cert is not None and verify_certificate(cert, f)
    assert restriction_exists(unit_tensor(3, 2, C), f) is None


# ---------------------------------------------------------------------------
# the unit-target quotient against brute force
# ---------------------------------------------------------------------------

def all_maps(e, d, p):
    """Every e x d map over F_p, stacked along the first axis."""
    grid = itertools.product(range(p), repeat=e * d)
    return np.array(list(grid), dtype=np.int64).reshape(-1, e, d)


def brute_restricts(f, e):
    """<e> <= f for an order-3 tensor: every pair of maps on the first two
    legs, and every row of the third map (its rows act independently)."""
    p = f.domain.p
    unit = unit_tensor(e, 3, f.domain).array.reshape(e * e, e)
    A, B = (all_maps(e, d, p) for d in f.dims[:2])
    part = np.einsum("aix,bjy,xyz->abijz", A, B, f.array) % p
    part = part.reshape(-1, e * e, f.dims[2])
    rows = all_maps(1, f.dims[2], p)[:, 0, :]
    image = (part @ rows.T) % p  # [pair, (i, j), third-leg row]
    found = [np.any(np.all(image == unit[:, i, None], axis=1), axis=1) for i in range(e)]
    return bool(np.any(np.logical_and.reduce(found)))


def brute_symrestricts(f, e):
    """<e> <=_s f for an order-2 or order-3 tensor, trying every map."""
    p = f.domain.p
    A = all_maps(e, f.dims[0], p)
    if f.order == 2:
        image = np.einsum("aix,xy,ajy->aij", A, f.array, A)
    else:
        image = np.einsum("aix,ajy,akz,xyz->aijk", A, A, A, f.array)
    unit = unit_tensor(e, f.order, f.domain).array
    return bool(np.any(np.all(image % p == unit, axis=tuple(range(1, f.order + 1)))))


def every_tensor(domain, shape):
    for entries in itertools.product(range(domain.p), repeat=int(np.prod(shape))):
        yield Tensor(domain, np.array(entries, dtype=np.int64).reshape(shape))


def sampled_tensors(domain, shape, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield Tensor(domain, rng.integers(0, domain.p, size=shape))


def test_quotiented_searches_match_brute_force_2x2x2():
    cases = [*every_tensor(F2, (2, 2, 2)), *sampled_tensors(F3, (2, 2, 2), 40, seed=3)]
    for f in cases:
        g = unit_tensor(2, 3, f.domain)
        plain = restriction_exists(g, f)
        assert (plain is not None) == brute_restricts(f, 2), f.array.tolist()
        assert plain is None or verify_certificate(plain, f)
        sym = symrestriction_exists(g, f)
        assert (sym is not None) == brute_symrestricts(f, 2), f.array.tolist()
        assert sym is None or verify_certificate(sym, f)


def test_quotiented_symmetric_searches_over_roots_of_unity():
    """Nontrivial roots of unity: cube roots in F7 (k = 3), square roots in F3
    (k = 2), and the bit-packed F2 matrix path."""
    cases = [
        *sampled_tensors(F7, (2, 2, 2), 30, seed=7),
        *every_tensor(F3, (2, 2)),
        *every_tensor(F2, (3, 3)),
    ]
    for f in cases:
        cert = symrestriction_exists(unit_tensor(2, f.order, f.domain), f)
        assert (cert is not None) == brute_symrestricts(f, 2), f.array.tolist()
        assert cert is None or verify_certificate(cert, f)


def test_required_counts_the_enumerated_representatives():
    rng = np.random.default_rng(0)
    f = Tensor(F3, rng.integers(0, 3, size=(3, 2, 3)))
    g = unit_tensor(2, 3, F3)
    with pytest.raises(SearchInfeasibleError) as info:
        restriction_exists(g, f, budget=1)
    leg1 = sum(1 for _ in _frames(2, 3, 3, ascending=True))
    leg2 = sum(1 for _ in _frames(2, 2, 3, ascending=False))
    assert (leg1, leg2) == (26 * 24 // (2 * 2 * 2), 8 * 6 // (2 * 2))
    assert info.value.required == leg1 * leg2
    restriction_exists(g, f, budget=leg1 * leg2)  # fits exactly

    # symmetric, k = 3 over F7: one row per orbit of the cube roots {1, 2, 4}
    def orbit(v):
        return frozenset(tuple(z * x % 7 for x in v) for z in (1, 2, 4))

    rows = [_row(code, 7, 2) for code in _row_codes(7, 2, _root_orbit_leads(7, 3))]
    orbits = {orbit(v) for v in itertools.product(range(7), repeat=2) if any(v)}
    assert len(rows) == len(orbits) == 16
    assert {orbit(v) for v in rows} == orbits
    assert rows == sorted(rows)
    f7 = Tensor(F7, rng.integers(0, 7, size=(2, 2, 2)))
    with pytest.raises(SearchInfeasibleError) as info:
        symrestriction_exists(unit_tensor(2, 3, F7), f7, budget=1)
    assert info.value.required == 16 * 15 // 2

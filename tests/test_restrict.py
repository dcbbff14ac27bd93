import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    C,
    F2,
    F3,
    F5,
    F7,
    all_maps,
    brute_symrestricts,
    c5_matrix,
    random_symmetric,
    tight_tensor,
    w_tensor,
)
from symsub import (
    DEFAULT_BUDGET,
    Certificate,
    DomainError,
    Hypergraph,
    LinearMap,
    SearchInfeasibleError,
    Tensor,
    adjacency_tensor,
    alpha_chain_check,
    apply,
    certificate_from_json,
    certificate_to_json,
    domain_from_name,
    flattening_rank,
    is_symmetric,
    linalg,
    make_sym,
    matrix_symsubrank,
    restriction_exists,
    subrank_exact,
    symrank_small,
    symrestriction_exists,
    symsubrank_exact,
    tensors_equal,
    unit_tensor,
    verify_certificate,
)
from symsub.restrict import (
    _images,
    _least_flattening_rank,
    _maps,
    _pair_rows,
    _root_orbit_leads,
    _row_blocks,
    _sym_dfs,
    _unit_maps,
    subranks,
)
from symsub.symmetrize import WaringDecomposition, fully_symmetric, waring_reconstruct

F65521 = domain_from_name("F65521")


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


@pytest.mark.parametrize("domain", [C, F5], ids=["C", "F5"])
@pytest.mark.parametrize("shape", [(), (3,)], ids=["order0", "order1"])
def test_subrank_exact_refuses_orders_below_two_over_every_domain(domain, shape):
    """Order 0 and 1 are refused for their order, also over C, where the
    prime-field refusal of order >= 3 must not answer first."""
    with pytest.raises(ValueError, match="restriction search needs order >= 2") as info:
        subrank_exact(Tensor(domain, np.ones(shape, dtype=domain.dtype)))
    assert info.type is ValueError


def seeded(domain, shape, seed=0):
    return Tensor(domain, np.random.default_rng(seed).integers(0, domain.p, shape))


def scaled_unit(k, domain=F3):
    return Tensor(domain, 2 * unit_tensor(2, k, domain).array)


def zero_target(k):
    return Tensor(F2, np.zeros((1,) * k, dtype=np.int64))


PLAIN, SYM = "restriction search", "symmetric restriction search"


def refusal_cases():
    """(name, (search, g, f, error, message)) for targets other than <e>."""
    for what, search, orders in ((PLAIN, restriction_exists, (3, 4)),
                                 (SYM, symrestriction_exists, (2, 3))):
        for k in orders:
            cases = {"2<2>/F3": (scaled_unit(k), seeded(F3, (2,) * k)),
                     "zero 1^k/F2": (zero_target(k), seeded(F2, (2,) * k))}
            if search is restriction_exists:  # not cubical, which the symmetric search refuses
                cases["random (1, 2, ...)/F2"] = (seeded(F2, (1,) + (2,) * (k - 1), 1),
                                                  seeded(F2, (2,) * k))
            for name, (g, f) in cases.items():
                yield (f"{what} k={k} {name}",
                       (search, g, f, ValueError, f"^{what} takes only unit targets <e>$"))


# name -> (search, g, f, error, message): a target other than <e> is refused
# by name, and the order, domain and cubical checks still answer first
TARGET_CHECKS = {
    **dict(refusal_cases()),
    f"{PLAIN} 2<2>/C": (restriction_exists, scaled_unit(3, C), Tensor(C, np.ones((2, 2, 2))),
                        DomainError, f"^{PLAIN} runs over prime fields only$"),
    f"{SYM} 2<2>/C": (symrestriction_exists, scaled_unit(3, C), Tensor(C, np.ones((2, 2, 2))),
                      DomainError, f"^{SYM} runs over prime fields only$"),
    f"{PLAIN} order mismatch": (restriction_exists, scaled_unit(2), seeded(F3, (2, 2, 2)),
                                ValueError, "^order mismatch: 2 vs 3$"),
    f"{SYM} order mismatch": (symrestriction_exists, scaled_unit(2), seeded(F3, (2, 2, 2)),
                              ValueError, "^order mismatch: 2 vs 3$"),
    f"{SYM} not cubical": (symrestriction_exists, seeded(F2, (1, 2, 2), 1),
                           seeded(F2, (2, 2, 2)), ValueError, f"^{SYM} needs cubical tensors$"),
}


@pytest.mark.parametrize("budget", [DEFAULT_BUDGET, 0], ids=["default", "budget0"])
@pytest.mark.parametrize("name", sorted(TARGET_CHECKS))
def test_non_unit_targets_are_refused_after_the_earlier_checks(name, budget):
    """The plain search above order 2 and the symmetric search at every order
    refuse a target that is not <e> with a ValueError naming the search, also
    at budget 0, so before the budget gate; the order, domain and cubical
    checks come first."""
    search, g, f, error, message = TARGET_CHECKS[name]
    with pytest.raises(error, match=message) as info:
        search(g, f, budget)
    assert info.type is error


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


def test_symsubrank_rejects_by_flattening_rank_before_the_budget():
    # <2> padded into 6x6x6 over F3: r = 6 would need 2e14 candidates, but
    # every r > 2 is refuted by flattening rank before the budget is asked
    arr = np.zeros((6, 6, 6), dtype=np.int64)
    arr[0, 0, 0] = arr[1, 1, 1] = 1
    f = Tensor(F3, arr)
    value, cert = symsubrank_exact(f)
    assert value == 2
    assert verify_certificate(cert, f)
    assert symrestriction_exists(unit_tensor(0, 3, F3), f) is not None


@pytest.mark.parametrize("k,d", [(3, 3), (3, 6), (4, 3)])
def test_empty_target_gets_the_verified_empty_certificate(k, d):
    f = Tensor(F3, np.random.default_rng(d).integers(0, 3, size=(d,) * k))
    empty = unit_tensor(0, k, F3)
    plain = restriction_exists(empty, f)
    sym = symrestriction_exists(empty, f)
    assert plain.kind == "restriction"
    assert [m.array.shape for m in plain.maps] == [(0, d)] * k
    assert sym.kind == "symmetric-restriction"
    assert sym.maps[0].array.shape == (0, d)
    assert verify_certificate(plain, f) and verify_certificate(sym, f)


def test_symrank_h3_over_f7():
    res = symrank_small(fully_symmetric(3, F7))
    assert res.value == 4
    assert res.lower_bound <= 4
    assert res.vectors is not None and len(res.vectors) == 4
    dec = WaringDecomposition(F7, 3, (1,) * 4, res.vectors)
    assert tensors_equal(waring_reconstruct(dec), fully_symmetric(3, F7))


def test_symrank_diagonal_is_dimension():
    u = unit_tensor(2, 3, F5)
    res = symrank_small(u)
    assert res.value == 2
    assert tensors_equal(waring_reconstruct(WaringDecomposition(F5, 3, (1, 1), res.vectors)), u)


def test_symrank_budget_exhaustion_returns_bounds():
    res = symrank_small(fully_symmetric(3, F7), budget=4)
    assert res.value is None
    assert res.lower_bound >= 1
    assert res.vectors is None


@pytest.mark.parametrize("domain", [F3, F7])
def test_symrank_of_a_vector_is_one(domain):
    """A nonzero vector is its own first power; the zero vector has rank 0."""
    v = Tensor(domain, [1, 2, 0])
    res = symrank_small(v)
    assert (res.value, res.lower_bound) == (1, 1)
    assert res.vectors.tolist() == [[1, 2, 0]]
    assert symrank_small(Tensor(domain, [0, 0, 0])).value == 0


def test_symrank_checks_its_decomposition(monkeypatch):
    """A multiset whose powers miss f is an internal error, not an answer."""
    monkeypatch.setattr("symsub.restrict._mitm_decompose", lambda t, pw, r, a, p: (0,) * r)
    with pytest.raises(RuntimeError, match="internal error"):
        symrank_small(w_tensor(F3))


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
# matrices: certificates read off one reduced echelon form per matrix
# ---------------------------------------------------------------------------

def matrix_of_rank_at_most(domain, rng, n, m, r):
    """An n x m matrix over ``domain``, a product through r columns."""
    if domain is C:
        return Tensor(C, rng.normal(size=(n, r)) @ rng.normal(size=(r, m)))
    p = domain.p
    return Tensor(domain, rng.integers(0, p, (n, r)) @ rng.integers(0, p, (r, m)) % p)


@pytest.mark.parametrize("domain", [F5, C, F2, F65521])
def test_unit_maps_give_the_identity(domain):
    """P[:r] f S^T = I_r for r the rank of f, with S picking r columns."""
    rng = np.random.default_rng(9)
    for _ in range(30):
        n, m = rng.integers(0, 6, size=2)
        f = matrix_of_rank_at_most(domain, rng, n, m, int(rng.integers(0, min(n, m) + 1)))
        P, S = _unit_maps(f)
        r = linalg.rank(f.array, domain)
        assert P.shape == (r, n) and S.shape == (r, m)
        assert domain.arrays_equal(domain.reduce(P @ f.array @ S.T), domain.asarray(np.eye(r)))
        assert np.array_equal(S.sum(axis=1), np.ones(r)) and set(S.ravel().tolist()) <= {0, 1}


@pytest.mark.parametrize("domain", [F2, F3, F65521, C])
def test_matrix_restriction_is_decided_by_rank(domain):
    """g <= f for matrices exactly when rank g <= rank f, and the returned
    maps carry f to g; rank-deficient matrices and empty shapes included."""
    rng = np.random.default_rng(31)
    verdicts = set()
    for _ in range(80):
        (a, b), (n, m) = rng.integers(0, 5, size=(2, 2))
        g = matrix_of_rank_at_most(domain, rng, a, b, int(rng.integers(0, min(a, b) + 1)))
        f = matrix_of_rank_at_most(domain, rng, n, m, int(rng.integers(0, min(n, m) + 1)))
        cert = restriction_exists(g, f)
        fits = linalg.rank(g.array, domain) <= linalg.rank(f.array, domain)
        assert (cert is not None) == fits
        if cert is not None:
            assert [mp.array.shape for mp in cert.maps] == [(a, n), (b, m)]
            assert verify_certificate(cert, f)
        verdicts.add(fits)
    assert verdicts == {True, False}


@pytest.mark.parametrize("domain", [F3, C])
@pytest.mark.parametrize("g_shape,f_shape,maps", [
    ((0, 3), (2, 3), [(0, 2), (3, 3)]),
    ((2, 2), (0, 0), [(2, 0), (2, 0)]),
    ((2, 0), (3, 0), [(2, 3), (0, 0)]),
    ((3, 2), (0, 4), [(3, 0), (2, 4)]),
])
def test_matrix_restriction_of_empty_shapes(domain, g_shape, f_shape, maps):
    """A zero g restricts from f of any rank, by maps of these shapes."""
    f = Tensor(domain, np.ones(f_shape))
    cert = restriction_exists(Tensor(domain, np.zeros(g_shape)), f)
    assert [mp.array.shape for mp in cert.maps] == maps
    assert verify_certificate(cert, f)
    if 0 not in g_shape:  # a nonzero g needs f of rank 1 at least
        assert restriction_exists(Tensor(domain, np.ones(g_shape)), f) is None


# (field, f, g) -> subrank_exact(f) and restriction_exists(g, f) maps, recorded
# when the matrix maps came from two rank normal forms and two inverses
PINNED_MATRIX_CERTIFICATES = [
    (F3, [[1, 2, 0, 1], [2, 1, 0, 2], [0, 1, 1, 1]], [[2, 1, 1], [1, 2, 2]],
     [[[1, 0, 1], [0, 0, 1]], [[1, 0, 0, 0], [0, 1, 0, 0]]],
     [[[2, 0, 2], [1, 0, 1]], [[1, 0, 0, 0], [2, 0, 0, 0], [2, 0, 0, 0]]]),
    (F3, [[0, 0, 1], [0, 2, 2], [1, 1, 0]], [[1, 2], [2, 0]],
     [[[1, 1, 1], [2, 2, 0], [1, 0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]],
     [[[2, 2, 1], [2, 2, 2]], [[1, 0, 0], [0, 1, 0]]]),
    (F65521, [[7, 65520, 3], [14, 65519, 6], [1, 2, 3]], [[5, 9], [10, 18]],
     [[[56785, 0, 61153], [4368, 0, 34945]], [[1, 0, 0], [0, 1, 0]]],
     [[[21841, 0, 43681], [43682, 0, 21841]], [[1, 0, 0], [13106, 0, 0]]]),
    (F65521, [[0, 40000, 1, 2], [3, 0, 0, 65520]], [[123, 456], [789, 1011]],
     [[[0, 43681], [5109, 0]], [[1, 0, 0, 0], [0, 1, 0, 0]]],
     [[[36469, 41], [54561, 263]], [[1, 0, 0, 0], [0, 1, 0, 0]]]),
]


@pytest.mark.parametrize("case", range(len(PINNED_MATRIX_CERTIFICATES)))
def test_matrix_certificates_are_pinned(case):
    domain, f, g, sub_maps, res_maps = PINNED_MATRIX_CERTIFICATES[case]
    f = Tensor(domain, f)
    value, cert = subrank_exact(f)
    assert value == len(sub_maps[0])
    assert [mp.array.tolist() for mp in cert.maps] == sub_maps
    cert = restriction_exists(Tensor(domain, g), f)
    assert [mp.array.tolist() for mp in cert.maps] == res_maps


# ---------------------------------------------------------------------------
# the unit-target quotient against brute force
# ---------------------------------------------------------------------------

def invertible_maps(e, d, p):
    """Every invertible e x e map over F_p (d = e), by determinant."""
    A = all_maps(e, d, p)
    return A[np.round(np.linalg.det(A)).astype(np.int64) % p != 0]


def brute_restricts(f, e, maps=all_maps):
    """<e> <= f for a tensor of order >= 3: every tuple of maps from
    ``maps(e, d, p)`` on all legs but the last, and every row of the last
    map (its rows act independently)."""
    p = f.domain.p
    part = f.array[None]  # [map tuple, legs left..., legs mapped...]
    for d in f.dims[:-1]:
        part = np.einsum("aix,nx...->na...i", maps(e, d, p), part)
        part = part.reshape(-1, *part.shape[2:]) % p
    part = part.reshape(len(part), f.dims[-1], -1).transpose(0, 2, 1)
    rows = all_maps(1, f.dims[-1], p)[:, 0, :]
    image = (part @ rows.T) % p  # [map tuple, mapped legs' index, last-leg row]
    unit = unit_tensor(e, f.order, f.domain).array.reshape(-1, e)
    found = [np.any(np.all(image == unit[:, i, None], axis=1), axis=1) for i in range(e)]
    return bool(np.any(np.logical_and.reduce(found)))


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


def planted_units(e, k, count, seed):
    """<e> moved by random invertible maps on each of its k legs, over F2:
    tensors that <e> restricts to."""
    rng = np.random.default_rng(seed)
    inv = invertible_maps(e, e, 2)
    for _ in range(count):
        maps = [LinearMap(F2, A) for A in inv[rng.integers(0, len(inv), k)]]
        yield apply(maps, unit_tensor(e, k, F2))


@pytest.mark.parametrize(
    "shape, e, maps, random, planted",
    [((2, 2, 2, 2), 2, all_maps, 24, 8), ((3, 3, 3), 3, invertible_maps, 6, 3)],
    ids=["order4-2x2x2x2", "3x3x3"],
)
def test_restriction_matches_brute_force_beyond_2x2x2(shape, e, maps, random, planted):
    """Finds and refutations of <e> <= f over F2: order 4 with two middle
    legs, and e = 3.  For e = d every map of a restriction onto <e> is
    invertible (each flattening of <e> has rank e), so the 3x3x3 brute force
    runs over GL_3(F2) alone."""
    k = len(shape)
    cases = [
        *sampled_tensors(F2, shape, random, seed=11),
        *planted_units(e, k, planted, seed=12),
    ]
    answers = []
    for f in cases:
        cert = restriction_exists(unit_tensor(e, k, F2), f)
        assert (cert is not None) == brute_restricts(f, e, maps), f.array.tolist()
        assert cert is None or verify_certificate(cert, f)
        answers.append(cert is not None)
    assert answers[random:] == [True] * planted
    assert not all(answers[:random])


def test_quotiented_symmetric_searches_over_roots_of_unity():
    """Nontrivial roots of unity: cube roots in F7 (k = 3), square roots in F3
    (k = 2), and every 3x3 matrix over F2."""
    cases = [
        *sampled_tensors(F7, (2, 2, 2), 30, seed=7),
        *every_tensor(F3, (2, 2)),
        *every_tensor(F2, (3, 3)),
    ]
    for f in cases:
        cert = symrestriction_exists(unit_tensor(2, f.order, f.domain), f)
        assert (cert is not None) == brute_symrestricts(f, 2), f.array.tolist()
        assert cert is None or verify_certificate(cert, f)


def every_symmetric_tensor(domain, d, k):
    """Every symmetric tensor of order k over F_p^d: one entry per sorted
    index tuple."""
    classes = list(itertools.combinations_with_replacement(range(d), k))
    for entries in itertools.product(range(domain.p), repeat=len(classes)):
        value = dict(zip(classes, entries))
        arr = np.zeros((d,) * k, dtype=np.int64)
        for idx in itertools.product(range(d), repeat=k):
            arr[idx] = value[tuple(sorted(idx))]
        yield Tensor(domain, arr)


def unit_hits(maps, f):
    """Indices of the maps A in the stack ``maps`` (m x r x d) with
    A^{(x)k} f = <r>, for f of any order k."""
    p, k, r = f.domain.p, f.order, maps.shape[1]
    image = np.broadcast_to(f.array, (len(maps),) + f.dims)
    for _ in range(k):  # contract the leading leg, its image goes last
        image = np.einsum("aix,ax...->a...i", maps, image) % p
    unit = unit_tensor(r, k, f.domain).array
    return np.flatnonzero(np.all(image == unit, axis=tuple(range(1, k + 1))))


def first_unit_rows(f, r):
    """The lexicographically first ascending r rows, each the least in its
    orbit under the k-th roots of unity, with A^{(x)k} f = <r>; None if
    there are none."""
    p, d, k = f.domain.p, f.dims[0], f.order
    roots = [z for z in range(1, p) if pow(z, k, p) == 1]
    rows = [
        v for v in itertools.product(range(p), repeat=d)
        if any(v) and all(v <= tuple(z * x % p for x in v) for z in roots)
    ]
    maps = np.array(list(itertools.combinations(rows, r)), dtype=np.int64).reshape(-1, r, d)
    hits = unit_hits(maps, f)
    return maps[hits[0]].tolist() if len(hits) else None


def is_concise(f):
    """Every one-leg flattening of the cubical f has full rank."""
    return all(flattening_rank(f, [leg]) == f.dims[0] for leg in range(f.order))


def concise_tensors(domain, shape, count, seed):
    """The first ``count`` concise tensors a seeded generator draws."""
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        f = Tensor(domain, rng.integers(0, domain.p, size=shape))
        if is_concise(f):
            found.append(f)
    return found


@pytest.mark.parametrize(
    "cases",
    [
        lambda: every_tensor(F2, (2, 2)),
        lambda: every_tensor(F2, (3, 3)),
        lambda: every_tensor(F3, (2, 2)),
        lambda: every_tensor(F5, (2, 2)),
        lambda: every_tensor(F2, (2, 2, 2)),
        lambda: every_symmetric_tensor(F3, 2, 3),
        lambda: (random_symmetric(np.random.default_rng(seed), 3, 3, F3) for seed in range(8)),
        lambda: concise_tensors(F2, (3, 3, 3), 12, seed=26),
        lambda: concise_tensors(F3, (3, 3, 3), 4, seed=26),
    ],
    ids=["all-2x2-F2", "all-3x3-F2", "all-2x2-F3", "all-2x2-F5", "all-2x2x2-F2",
         "all-symmetric-2x2x2-F3", "seeded-symmetric-3x3x3-F3", "seeded-concise-3x3x3-F2",
         "seeded-concise-3x3x3-F3"],
)
def test_symsubrank_matches_brute_force(cases):
    """The value is the largest e with <e> <=_s f over every map, and the
    certificate is the lexicographically first ascending representative.
    No map reaches <d> from a concise f that is not symmetric, which is why
    the search starts at d - 1 there."""
    for f in cases():
        value, cert = symsubrank_exact(f)
        assert value == 0 or brute_symrestricts(f, value), f.array.tolist()
        assert value == f.dims[0] or not brute_symrestricts(f, value + 1), f.array.tolist()
        rows = cert.maps[0].array.tolist()
        assert rows == (first_unit_rows(f, value) if value else []), f.array.tolist()
        if is_concise(f) and not is_symmetric(f):
            assert not brute_symrestricts(f, f.dims[0]), f.array.tolist()


def pairwise_but_not_triple():
    """<3> of order 3 over F2 plus a 1 at (0, 1, 2): every two of e_0, e_1,
    e_2 map it onto <2>, but the three together do not map it onto <3>."""
    arr = unit_tensor(3, 3, F2).array.copy()
    arr[0, 1, 2] = 1
    return Tensor(F2, arr)


@pytest.mark.parametrize(
    "cases",
    [
        lambda: every_symmetric_tensor(F2, 2, 4),
        lambda: every_symmetric_tensor(F3, 2, 4),
        lambda: [pairwise_but_not_triple()],
    ],
    ids=["all-symmetric-2x2x2x2-F2", "all-symmetric-2x2x2x2-F3", "pairwise-not-triple-3x3x3-F2"],
)
def test_symsubrank_matches_brute_force_beyond_pairs(cases):
    """For k >= 3 rows that are pairwise compatible need not be compatible
    together: the value is the largest e reached by some map, no map
    reaches e + 1, and the certificate is the first representative."""
    for f in cases():
        p, d = f.domain.p, f.dims[0]
        value, cert = symsubrank_exact(f)
        assert cert.maps[0].array.tolist() == (first_unit_rows(f, value) if value else [])
        assert value == d or not len(unit_hits(all_maps(value + 1, d, p), f)), f.array.tolist()


def test_pairwise_compatible_rows_need_not_form_a_unit():
    f = pairwise_but_not_triple()
    assert len(unit_hits(np.eye(3, dtype=np.int64)[[[0, 1], [0, 2], [1, 2]]], f)) == 3
    assert symsubrank_exact(f)[0] == 2
    assert symrestriction_exists(unit_tensor(3, 3, F2), f) is None


def test_symsubrank_budget_gate_counts_the_least_flattening_rank():
    """One gate, at r0 = 5 rows out of N = (7^5 - 1) / 2 representatives."""
    f = Tensor(F7, np.eye(5, dtype=np.int64))
    with pytest.raises(SearchInfeasibleError) as info:
        symsubrank_exact(f, budget=1000)
    required = math.comb(8403, 5)
    assert info.value.required == required
    assert str(info.value) == (
        f"search-infeasible: map search over F_7^(5x5) needs {required} candidates, "
        "budget is 1000"
    )


def test_symsubrank_budget_gate_counts_the_search_below_a_non_symmetric_top():
    """A concise f that is not symmetric starts one step lower, and the gate
    counts that search: r0 - 1 = 4 rows out of N = (7^5 - 1) / 2."""
    arr = np.eye(5, dtype=np.int64)
    arr[0, 1] = 1
    f = Tensor(F7, arr)
    with pytest.raises(SearchInfeasibleError) as info:
        symsubrank_exact(f, budget=1000)
    required = math.comb(8403, 4)
    assert info.value.required == required
    assert str(info.value) == (
        f"search-infeasible: map search over F_7^(4x5) needs {required} candidates, "
        "budget is 1000"
    )


def test_a_concise_non_symmetric_top_is_refuted_without_a_search(monkeypatch):
    """<d> <=_s f has no witness when f is d x ... x d, concise and not
    symmetric, so symrestriction_exists answers None without calling
    _sym_dfs, at every budget: no search is counted; symsubrank_exact
    searches once, from d - 1."""
    calls = []

    def counted(*args):
        calls.append(args[0].shape[0])
        return _sym_dfs(*args)

    monkeypatch.setattr("symsub.restrict._sym_dfs", counted)
    rng = np.random.default_rng(0)
    for d, domain in ((3, F3), (3, F5), (4, F2)):
        f = Tensor(domain, rng.integers(0, domain.p, (d,) * 3))
        assert _least_flattening_rank(f) == d and not is_symmetric(f)
        for budget in (DEFAULT_BUDGET, 1):
            assert symrestriction_exists(unit_tensor(d, 3, domain), f, budget) is None
        assert calls == []
        assert symsubrank_exact(f)[0] < d
        assert calls == [d - 1]
        calls.clear()


def test_sym_dfs_rows_do_not_depend_on_the_start():
    """From every start e between its answer and r0, the search returns the
    same rows, the lexicographically first largest set: so starting below a
    top step that cannot be reached changes no certificate."""
    rng = np.random.default_rng(26)
    below = 0
    for k, domain, d in itertools.product((2, 3, 4), (F2, F3, F5), (1, 2, 3, 4)):
        p = domain.p
        for f in (Tensor(domain, rng.integers(0, p, size=(d,) * k)),
                  random_symmetric(rng, d, k, domain),
                  Tensor(domain, (rng.random((d,) * k) < 0.3) * rng.integers(1, p, size=(d,) * k))):
            r0 = _least_flattening_rank(f)
            if not r0:
                continue
            rows = _sym_dfs(unit_tensor(r0, k, domain).array, f.array, p, 0).tolist()
            for e in range(max(len(rows), 1), r0):
                assert _sym_dfs(unit_tensor(e, k, domain).array, f.array, p, 0).tolist() == rows
                below += 1
    assert below


# symsubrank_exact certificate rows, recorded before the batched search
# replaced the search from d down; a change to the search must keep them
PINNED_SYMSUBRANK_ROWS = {
    "c5": [[0, 0, 0, 0, 1], [0, 0, 1, 0, 0]],
    "tight": [[1, 0, 0]],
    "randsym3/F3/0": [[0, 1, 2], [2, 0, 0]],
    "randsym3/F3/1": [[0, 2, 1], [2, 1, 2]],
    "randsym3/F3/2": [[0, 1, 0], [2, 0, 0]],
    "randsym3/F3/3": [[0, 2, 0], [2, 0, 0]],
    "randsym3/F5/0": [[0, 0, 4], [3, 2, 0]],
    "randsym3/F5/1": [[0, 0, 1], [1, 2, 3]],
    "randsym3/F5/2": [[0, 2, 0], [2, 4, 4]],
    "randsym3/F5/3": [[0, 1, 2], [2, 2, 1]],
    "sym4/F3/0": [[1, 0, 0, 1], [1, 0, 0, 2], [1, 0, 1, 0]],
    "sym4/F3/1": [[0, 1, 0, 1], [0, 1, 1, 2], [0, 1, 2, 2]],
    "digraph15/0": [[0, 0, 0, 0, 1], [0, 0, 1, 0, 0], [0, 1, 0, 1, 1]],
    "digraph15/5": [[0, 0, 0, 0, 1], [0, 0, 1, 0, 0], [1, 1, 0, 0, 1]],
    "digraph15/11": [[0, 0, 0, 0, 1], [0, 0, 1, 1, 0], [1, 0, 0, 0, 0], [1, 1, 0, 1, 0]],
    "digraph15/17": [[0, 0, 0, 1, 0], [0, 1, 0, 0, 0], [0, 1, 0, 1, 1]],
    "digraph15/23": [[0, 0, 0, 0, 1], [0, 1, 0, 1, 1], [1, 0, 0, 0, 0], [1, 1, 0, 0, 1]],
    "digraph15/29": [[0, 0, 0, 0, 1], [0, 0, 1, 1, 1], [1, 0, 1, 0, 1]],
    "digraph15/35": [[0, 0, 1, 0, 0], [0, 1, 0, 0, 0], [1, 1, 0, 1, 1]],
    "digraph15/41": [[0, 0, 0, 0, 1], [1, 0, 1, 1, 0], [1, 1, 1, 0, 0]],
    "digraph15/47": [[0, 0, 0, 0, 1], [0, 1, 0, 1, 0], [0, 1, 1, 1, 1]],
}


def acceptance_digraph(i):
    """Digraph i of criterion 15's seeded sequence, as an F2 tensor."""
    rng = np.random.default_rng(15)
    for _ in range(i + 1):
        edges = [(a, b) for a in range(1, 6) for b in range(1, 6) if a != b and rng.random() < 0.35]
    return adjacency_tensor(Hypergraph(5, 2, edges), F2)


def pinned_instance(name):
    family, _, rest = name.partition("/")
    if family == "c5":
        return c5_matrix()
    if family == "tight":
        return tight_tensor()
    if family == "digraph15":
        return acceptance_digraph(int(rest))
    field, seed = rest.split("/")
    d, k = (3, 3) if family == "randsym3" else (4, 2)
    domain = {"F3": F3, "F5": F5}[field]
    return random_symmetric(np.random.default_rng(int(seed)), d, k, domain)


@pytest.mark.parametrize("name", sorted(PINNED_SYMSUBRANK_ROWS))
def test_symsubrank_certificates_are_pinned(name):
    f = pinned_instance(name)
    value, cert = symsubrank_exact(f)
    assert cert.maps[0].array.tolist() == PINNED_SYMSUBRANK_ROWS[name]
    assert value == len(PINNED_SYMSUBRANK_ROWS[name])


def lead_one_rows(d, p):
    """The rows of F_p^d whose first nonzero entry is 1, in lexicographic order."""
    rows = itertools.product(range(p), repeat=d)
    return [v for v in rows if any(v) and v[np.flatnonzero(v)[0]] == 1]


def test_required_counts_the_enumerated_representatives():
    rng = np.random.default_rng(0)
    f = Tensor(F3, rng.integers(0, 3, size=(3, 2, 3)))
    g = unit_tensor(2, 3, F3)
    with pytest.raises(SearchInfeasibleError) as info:
        restriction_exists(g, f, budget=1)

    def independent(rows):
        return linalg.rank(np.array(rows, dtype=np.int64), F3) == len(rows)

    leg1 = sum(map(independent, itertools.combinations(lead_one_rows(3, 3), 2)))
    leg2 = sum(map(independent, itertools.permutations(lead_one_rows(2, 3), 2)))
    assert (leg1, leg2) == (26 * 24 // (2 * 2 * 2), 8 * 6 // (2 * 2))
    assert info.value.required == leg1 * leg2 == 936
    restriction_exists(g, f, budget=leg1 * leg2)  # fits exactly

    # symmetric, k = 3 over F7: one row per orbit of the cube roots {1, 2, 4}
    def orbit(v):
        return frozenset(tuple(z * x % 7 for x in v) for z in (1, 2, 4))

    blocks = list(_row_blocks(7, 2, _root_orbit_leads(7, 3), size=5))
    rows = [tuple(v) for v in np.concatenate(blocks).tolist()]
    orbits = {orbit(v) for v in itertools.product(range(7), repeat=2) if any(v)}
    assert len(rows) == len(orbits) == 16
    assert {orbit(v) for v in rows} == orbits
    assert rows == sorted(rows)
    assert max(map(len, blocks)) <= 5
    f7 = random_symmetric(rng, 2, 3, F7)  # concise and symmetric: the search must run
    assert _least_flattening_rank(f7) == 2
    with pytest.raises(SearchInfeasibleError) as info:
        symrestriction_exists(unit_tensor(2, 3, F7), f7, budget=1)
    assert info.value.required == 16 * 15 // 2 == 120


def test_first_leg_rows_stream():
    """A 24 x 1 x 1 tensor has 2^24 - 1 candidate rows on its first leg; the
    search meets the certificate in the first block without listing them."""
    arr = np.zeros((24, 1, 1), dtype=np.int64)
    arr[23, 0, 0] = 1
    f = Tensor(F2, arr)
    row = [[0] * 23 + [1]]
    tracemalloc.start()
    try:
        cert = restriction_exists(unit_tensor(1, 3, F2), f)
        value, sub = subrank_exact(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 << 20
    assert value == 1
    for c in (cert, sub):
        assert [m.array.tolist() for m in c.maps] == [row, [[1]], [[1]]]
        assert verify_certificate(c, f)


def test_streamed_candidates_give_the_certificates_of_the_shared_stacks(monkeypatch):
    """With no shared stack of maps (``_leg_stack`` None), the symmetric
    search's root rows and the plain search's legs stream from ``_maps``:
    every certificate and refutation is the one the shared stacks give."""
    rng = np.random.default_rng(39)
    tensors = []
    for domain, (k, d) in itertools.product((F2, F3), ((3, 2), (3, 3), (4, 2))):
        tensors.append(Tensor(domain, rng.integers(0, domain.p, size=(d,) * k)))
        tensors.append(random_symmetric(rng, d, k, domain))

    def answers():
        out = []
        for f in tensors:
            out += [certificate_to_json(symsubrank_exact(f)[1]),
                    certificate_to_json(subrank_exact(f)[1])]
            for e in range(1, f.dims[0] + 1):
                cert = symrestriction_exists(unit_tensor(e, f.order, f.domain), f)
                out.append(cert and certificate_to_json(cert))
        return out

    shared = answers()
    streamed = []
    monkeypatch.setattr("symsub.restrict._leg_stack", lambda *args: streamed.append(args))
    assert answers() == shared
    assert {args[2] for args in streamed} == {1, 2, 3}  # one-row maps and e-row frames
    assert sum(cert is not None and cert["target"]["dims"][0] >= 2 for cert in shared) >= 10


def test_symrank_gate_comes_before_the_vectors():
    """The 18 x 18 identity over F2 needs r = 18, far beyond budget 1000:
    the answer is unknown without building the 2^18 vectors and powers."""
    f = Tensor(F2, np.eye(18, dtype=np.int64))
    tracemalloc.start()
    try:
        res = symrank_small(f, budget=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.value is None and res.vectors is None and res.lower_bound == 18
    assert peak < 10 << 20


def test_zero_dimension_legs():
    """An f with a leg of dimension 0 has flattening rank 0, so <1> does not
    restrict from it; the zero 1 x 1 x 1 target is not a unit tensor, and
    both searches refuse it."""
    zero = Tensor(F2, np.zeros((1, 1, 1), dtype=np.int64))
    plain_f = Tensor(F2, np.zeros((0, 2, 2), dtype=np.int64))
    sym_f = Tensor(F2, np.zeros((0, 0, 0), dtype=np.int64))
    with pytest.raises(ValueError, match="^restriction search takes only unit targets"):
        restriction_exists(zero, plain_f)
    with pytest.raises(ValueError, match="^symmetric restriction search takes only unit"):
        symrestriction_exists(zero, sym_f)
    assert restriction_exists(unit_tensor(1, 3, F2), plain_f) is None
    assert symrestriction_exists(unit_tensor(1, 3, F2), sym_f) is None
    assert [row.tolist() for row in _row_blocks(2, 0, None, size=4)] == [[[]]]
    assert list(_row_blocks(2, 0, (1,), size=4)) == []


# subrank_exact and restriction_exists certificate maps, recorded before the
# plain search drew its rows from _row_blocks; a change to the search must
# keep them
PINNED_RESTRICTION_MAPS = {
    "subrank/tight": [[[0, 0, 1], [0, 1, 0]], [[0, 1, 0], [1, 0, 0]], [[1, 0, 0], [0, 0, 1]]],
    "subrank/W/F3": [[[0, 1]], [[1, 0]], [[1, 0]]],
    "subrank/rand2x2x2/F3/0": [[[1, 0]], [[0, 1]], [[1, 0]]],
    "subrank/rand2x2x2/F3/1": [[[0, 1]], [[0, 1]], [[2, 0]]],
    "subrank/rand2x2x2/F3/3": [[[1, 0], [1, 2]], [[1, 1], [0, 1]], [[2, 2], [0, 2]]],
    "subrank/rand2x2x2/F3/4": [[[1, 1], [1, 2]], [[1, 0], [1, 2]], [[1, 0], [1, 2]]],
    "subrank/rand2x2x2/F3/5": [[[1, 1], [1, 2]], [[1, 1], [1, 0]], [[2, 1], [2, 2]]],
    "subrank/rand2x2x2/F3/6": [[[1, 0], [1, 2]], [[0, 1], [1, 2]], [[0, 1], [2, 1]]],
    "subrank/2v/5": [[[0, 1], [1, 1]], [[0, 1], [1, 0]], [[1, 1], [1, 0]]],
    "subrank/2v/9": [[[1, 0], [1, 1]], [[1, 1], [0, 1]], [[1, 0], [1, 1]]],
    "subrank/2v/21": [[[0, 1], [1, 1]], [[0, 1], [1, 1]], [[0, 1], [1, 0]]],
    "subrank/2v/42": [[[1, 0], [1, 1]], [[1, 0], [1, 1]], [[1, 0], [0, 1]]],
    "subrank/2v/59": [[[0, 1], [1, 1]], [[1, 0], [1, 1]], [[1, 0], [1, 1]]],
    "subrank/2v/63": [[[0, 1]], [[0, 1]], [[1, 0]]],
    "subrank/planted3/0": [[[0, 0, 1], [0, 1, 0], [1, 0, 1]], [[1, 1, 0], [1, 0, 0], [1, 1, 1]],
                           [[1, 1, 1], [1, 1, 0], [1, 0, 1]]],
    "subrank/planted3/1": [[[0, 1, 0], [0, 1, 1], [1, 0, 1]], [[0, 1, 0], [0, 1, 1], [1, 0, 0]],
                           [[0, 1, 1], [1, 0, 0], [1, 1, 0]]],
    "subrank/order4/0": [[[1, 0], [1, 1]], [[1, 1], [1, 0]], [[0, 1], [1, 1]], [[0, 1], [1, 1]]],
    "subrank/order4/1": [[[0, 1], [1, 0]], [[1, 1], [1, 0]], [[1, 1], [1, 0]], [[1, 1], [1, 0]]],
}


def two_vertex_tensor(mask):
    """The adjacency tensor over F2 of the two-vertex 3-uniform hypergraph
    whose edges are the proper triples picked by the bits of ``mask``."""
    proper = [e for e in itertools.product((1, 2), repeat=3) if len(set(e)) > 1]
    return adjacency_tensor(Hypergraph(2, 3, [proper[i] for i in range(6) if mask >> i & 1]), F2)


def pinned_restriction(name):
    """The tensor f of a pinned subrank_exact instance."""
    _, family, *rest = name.split("/")
    if family == "tight":
        return tight_tensor()
    if family == "W":
        return w_tensor(F3)
    if family == "rand2x2x2":
        return Tensor(F3, np.random.default_rng(int(rest[1])).integers(0, 3, (2, 2, 2)))
    if family == "2v":
        return two_vertex_tensor(int(rest[0]))
    e, k = (3, 3) if family == "planted3" else (2, 4)
    return list(planted_units(e, k, 3, seed=12))[int(rest[0])]


@pytest.mark.parametrize("name", sorted(PINNED_RESTRICTION_MAPS))
def test_restriction_certificates_are_pinned(name):
    f = pinned_restriction(name)
    value, cert = subrank_exact(f)
    assert value == len(PINNED_RESTRICTION_MAPS[name][0])
    assert [m.array.tolist() for m in cert.maps] == PINNED_RESTRICTION_MAPS[name]
    assert verify_certificate(cert, f)


def test_scaled_unit_target_is_refused():
    """2<2> over F3 is not a unit tensor, so both searches refuse it on every
    f, those whose flattening ranks already rule <2> out included, while
    <2> itself gets an answer."""
    g = Tensor(F3, 2 * unit_tensor(2, 3, F3).array)
    ranks = set()
    for f in sampled_tensors(F3, (2, 2, 2), 20, seed=22):
        with pytest.raises(ValueError, match="^restriction search takes only unit targets"):
            restriction_exists(g, f)
        with pytest.raises(ValueError, match="^symmetric restriction search takes only unit"):
            symrestriction_exists(g, f)
        unit = restriction_exists(unit_tensor(2, 3, F3), f)
        assert unit is None or verify_certificate(unit, f)
        ranks.add(_least_flattening_rank(f))
    assert min(ranks) < 2 <= max(ranks)


def first_certificate(g, f):
    """The reference for the plain search: map tuples in _maps order on legs
    1..k-1, one at a time, and the first whose last leg solves, by
    linalg.solve_stack on a stack of one (its maps as lists), or None."""
    p = f.domain.p
    legs = [np.concatenate(list(_maps(p, d, e, (1,), leg == 0, 64)))
            for leg, (e, d) in enumerate(zip(g.dims[:-1], f.dims[:-1]))]
    G = g.array.reshape(-1, g.dims[-1])
    for maps in itertools.product(*legs):
        t = f.array
        for leg, A in enumerate(maps):
            t = np.moveaxis(np.tensordot(A, t, axes=(1, leg)), 0, leg) % p
        ok, X = linalg.solve_stack(t.reshape(1, -1, f.dims[-1]), G[None], f.domain)
        if ok[0]:
            return [A.tolist() for A in maps] + [(X[0].T % p).tolist()]
    return None


def first_certificate_cases():
    """(<e>, f) pairs: e = 1..3, orders 3 and 4, over F2, F3 and F5; random
    f, and f planted as an image of <e>."""
    rng = np.random.default_rng(23)
    for domain, shape, es in [
        (F2, (2, 2, 2), (1, 2)), (F3, (2, 2, 2), (1, 2)), (F5, (2, 2, 2), (2,)),
        (F2, (3, 3, 3), (3,)), (F2, (2, 2, 2, 2), (1, 2)), (F3, (2, 2, 2, 2), (2,)),
    ]:
        p, k = domain.p, len(shape)
        for e in es:
            g = unit_tensor(e, k, domain)
            for planted in (False, True):
                f = Tensor(domain, rng.integers(0, p, shape))
                if planted:  # maps of rank e, so <e> <= f
                    maps = []
                    while len(maps) < k:
                        A = rng.integers(0, p, (shape[len(maps)], e))
                        if linalg.rank(A, domain) == e:
                            maps.append(LinearMap(domain, A))
                    f = apply(maps, g)
                yield g, f


def test_restriction_returns_the_first_certificate():
    """restriction_exists answers with the first tuple of maps whose last
    leg solves, as the one-tuple-at-a-time reference meets it, or None."""
    answers = []
    for g, f in first_certificate_cases():
        want = first_certificate(g, f)
        cert = restriction_exists(g, f)
        got = None if cert is None else [m.array.tolist() for m in cert.maps]
        assert got == want, (g.array.tolist(), f.array.tolist())
        answers.append(want is not None)
    assert any(answers) and not all(answers)


def test_cheap_refutations_are_pinned():
    """<2> <= W over F11 and <3> <= f for the default_rng(1) 3 x 3 x 3 f over
    F3 are refuted by exhaustion."""
    F11 = domain_from_name("F11")
    assert restriction_exists(unit_tensor(2, 3, F11), w_tensor(F11)) is None
    f = Tensor(F3, np.random.default_rng(1).integers(0, 3, (3, 3, 3)))
    assert restriction_exists(unit_tensor(3, 3, F3), f) is None


def pair_row_cases():
    """(rows, F, p): seeded tensors, none symmetric, with the rows c where
    F(c, ..., c) = 1 as the symmetric search keeps them, cut to 1, 2 and
    all of them."""
    rng = np.random.default_rng(18)
    for k, d in ((2, 4), (3, 3), (4, 2)):
        for domain in (F2, F3, F5):
            p = domain.p
            for _ in range(3):
                F = rng.integers(0, p, (d,) * k)
                rows = next(_row_blocks(p, d, None, p**d))[1:]
                rows = rows[(_images(rows[:, None], F, p) == 1)[:, 0]]
                for n in sorted({1, 2, len(rows)}) if len(rows) else ():
                    yield rows[:n], F, p


def test_pair_rows_match_the_images_of_every_pair():
    """Bit u of pair row v, for v < u, is set iff the two-row map
    (rows[v]; rows[u]) sends F to <2>; no bit u <= v is set.  Any ascending
    block of rows, gaps included, gives the same pair rows."""
    sizes, nonsymmetric = set(), 0
    for rows, F, p in pair_row_cases():
        n, k = len(rows), F.ndim
        unit2 = unit_tensor(2, k, domain_from_name(f"F{p}")).array.reshape(-1)
        want = [sum(1 << u for u in range(v + 1, n)
                    if (_images(rows[[v, u]][None], F, p)[0] == unit2).all())
                for v in range(n)]
        for block in (list(range(n)), list(range(n // 2, n)), list(range(1, n, 3))):
            if block:
                assert _pair_rows(rows, block, F, p) == [want[v] for v in block]
        assert [_pair_rows(rows, [v], F, p)[0] for v in range(n)] == want
        sizes.add(min(n, 3))
        nonsymmetric += not np.array_equal(F, F.T)
    assert sizes == {1, 2, 3} and nonsymmetric
    # no survivor, or one: the search asks for no pair row
    empty = Tensor(F3, np.zeros((3, 3, 3), dtype=np.int64))
    assert symsubrank_exact(empty)[0] == 0
    one = Tensor(F3, np.eye(1, 3**3, dtype=np.int64).reshape(3, 3, 3))
    assert symsubrank_exact(one)[0] == 1


def test_an_early_find_scores_few_pairs():
    """x^{(x)4} + y^{(x)4} over F2^10 keeps 512 rows at the root and meets
    <2> in the first pair row; the search holds a few rows' pairs at a time,
    not the 512 x 511 table (whose factors alone take 60 MiB)."""
    x, y = np.eye(10, dtype=np.int64)[:2]
    f = Tensor(F2, (np.einsum("a,b,c,d->abcd", x, x, x, x)
                    + np.einsum("a,b,c,d->abcd", y, y, y, y)))
    tracemalloc.start()
    try:
        value, cert = symsubrank_exact(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 2 and verify_certificate(cert, f)
    assert peak < 8 * 2**20


def maps_of(cert):
    return [m.array.tolist() for m in cert.maps]


def test_the_floor_certifies_the_symmetric_subrank_as_a_subrank():
    """Given Q_s and its map A, the subrank search of ``subranks`` stops
    above Q_s and, finding no larger <r>, answers Q_s with (A, ..., A),
    without the budget of the search at Q_s; so the chain on three isolated
    vertices answers."""
    a = adjacency_tensor(Hypergraph(3, 3, []), F2)
    floor = symsubrank_exact(a)
    assert floor[0] == 3
    with pytest.raises(SearchInfeasibleError, match="4704 candidates"):
        subrank_exact(a, 100)
    sym, (value, cert) = subranks(a, 100)
    assert sym[0] == 3 and maps_of(sym[1]) == maps_of(floor[1])
    assert value == 3 and cert.kind == "restriction" and verify_certificate(cert, a)
    assert maps_of(cert) == maps_of(floor[1]) * 3
    rep = alpha_chain_check(Hypergraph(3, 3, []), F2, budget=100)
    assert (rep.sym_subrank, rep.subrank) == (3, 3) and rep.ok
    # for a matrix the floor skips the normal form only when it is the rank;
    # the budget is the C(4, 2) = 6 representatives of the symmetric search
    m = adjacency_tensor(Hypergraph(2, 2, []), F3)
    sym, plain = subranks(m, 6)
    assert sym[0] == 2 and maps_of(sym[1]) == maps_of(symsubrank_exact(m)[1])
    assert maps_of(plain[1]) == maps_of(sym[1]) * 2
    m = adjacency_tensor(Hypergraph(2, 2, [(1, 2)]), F3)
    sym, plain = subranks(m, 6)
    assert sym[0] == 1 and subrank_exact(m)[0] == 2
    assert maps_of(plain[1]) == maps_of(subrank_exact(m)[1])


def identity(d, domain):
    return Tensor(domain, np.eye(d, dtype=np.int64))


CERTIFYING_CALLS = {
    "symrestriction e=0":
        lambda: symrestriction_exists(unit_tensor(0, 3, F3), unit_tensor(2, 3, F3)),
    "symrestriction e>0":
        lambda: symrestriction_exists(unit_tensor(1, 3, F5), unit_tensor(2, 3, F5)),
    "restriction k=2": lambda: restriction_exists(unit_tensor(1, 2, F5), identity(2, F5)),
    "restriction k=3": lambda: restriction_exists(unit_tensor(1, 3, F3), unit_tensor(2, 3, F3)),
    "subrank matrix": lambda: subrank_exact(c5_matrix()),
    "subrank tensor": lambda: subrank_exact(w_tensor(F3)),
    "subrank zero": lambda: subrank_exact(Tensor(F3, np.zeros((2, 2, 2), dtype=np.int64))),
    "symsubrank": lambda: symsubrank_exact(w_tensor(F5)),
    "subranks": lambda: subranks(w_tensor(F3)),
    "matrix skew": lambda: matrix_symsubrank(Tensor(F3, [[0, 1], [2, 0]])),
    "matrix complex": lambda: matrix_symsubrank(Tensor(C, np.eye(2))),
    "matrix search": lambda: matrix_symsubrank(identity(2, F3)),
    "matrix F2 bounds": lambda: matrix_symsubrank(identity(2, F2), budget=0),
    "matrix Fp bounds": lambda: matrix_symsubrank(identity(2, F3), budget=0),
    "make_sym": lambda: make_sym([LinearMap(F5, np.eye(2, dtype=np.int64))] * 2,
                                 identity(2, F5), identity(2, F5)),
}


@pytest.mark.parametrize("name", sorted(CERTIFYING_CALLS))
def test_every_certificate_is_checked_where_it_is_made(name, monkeypatch):
    """Each call answers with a certificate, and a certificate that fails its
    check is an internal error, under ``python -O`` as well."""
    call = CERTIFYING_CALLS[name]
    call()
    monkeypatch.setattr("symsub.restrict.verify_certificate", lambda cert, f: False)
    with pytest.raises(RuntimeError, match="internal error"):
        call()


def test_matrix_symsubrank_calls_reach_each_method():
    methods = {name: CERTIFYING_CALLS[name]().method
               for name in CERTIFYING_CALLS if name.startswith("matrix")}
    assert methods == {
        "matrix skew": "skew-zero-diagonal",
        "matrix complex": "symmetric-diagonalization",
        "matrix search": "exhaustive-search",
        "matrix F2 bounds": "triangular-block",
        "matrix Fp bounds": "triangular-block",
    }


def test_the_chain_floor_is_checked_where_it_is_made(monkeypatch):
    """The floor certificate (A, ..., A) of ``subranks`` is checked: only
    plain certificates fail here, and the symmetric one passes."""
    a = adjacency_tensor(Hypergraph(3, 3, []), F2)
    assert subranks(a, 100)[1][0] == symsubrank_exact(a)[0] == 3
    monkeypatch.setattr("symsub.restrict.verify_certificate",
                        lambda cert, f: cert.kind != "restriction")
    with pytest.raises(RuntimeError, match="internal error: restriction certificate"):
        subranks(a, 100)

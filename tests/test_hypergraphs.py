import itertools

import numpy as np
import pytest

from conftest import C, F2, F5, c5_directed
from symsub import (
    Hypergraph,
    HypergraphError,
    adjacency_tensor,
    alpha_chain_check,
    capacity_lower,
    capacity_upper_quantum,
    hypergraph_from_json,
    hypergraph_to_json,
    independence_number,
    induced_matching_number,
    is_symmetric,
    strong_power,
)
from symsub.hypergraphs import MATCHING_GATE, VERTEX_GATE


def undirected_c5():
    pairs = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    return Hypergraph(5, 2, [e for ab in pairs for e in (ab, ab[::-1])])


def test_hypergraph_validation():
    with pytest.raises(HypergraphError):
        Hypergraph(2, 2, [(1, 3)])
    with pytest.raises(HypergraphError):
        Hypergraph(2, 2, [(1,)])
    with pytest.raises(HypergraphError):
        Hypergraph(-1, 2, [])
    h = Hypergraph(3, 2, [(1, 2), (1, 2)])
    assert len(h.edges) == 1  # duplicates collapse


def test_phi_includes_the_diagonal():
    h = Hypergraph(2, 3, [(1, 1, 2)])
    assert (1, 1, 1) in h.phi and (2, 2, 2) in h.phi and (1, 1, 2) in h.phi
    assert len(h.phi) == 3


def test_json_roundtrip_keeps_one_based_vertices():
    h = c5_directed()
    obj = hypergraph_to_json(h)
    assert obj["n"] == 5 and obj["k"] == 2
    assert [1, 2] in obj["edges"]
    assert hypergraph_from_json(obj).edges == h.edges
    with pytest.raises(HypergraphError):
        hypergraph_from_json({"n": 2, "k": 2})


def test_adjacency_tensor_entries():
    a = adjacency_tensor(c5_directed(), F2)
    assert a.dims == (5, 5)
    assert a.array[0, 1] == 1  # edge (1,2)
    assert a.array[1, 0] == 0  # orientation matters
    assert all(a.array[i, i] == 1 for i in range(5))
    with pytest.raises(HypergraphError):
        adjacency_tensor(c5_directed(), F5, edge_values={(1, 2): 0})


def test_independence_c5():
    for h, alpha in ((c5_directed(), 2), (undirected_c5(), 2)):
        value, witness = independence_number(h)
        assert value == alpha
        assert len(witness) == alpha
        # the witness really is independent
        chosen = set(witness)
        assert not any(set(e) <= chosen for e in h.edges)


def test_independence_empty_and_complete():
    assert independence_number(Hypergraph(4, 2, []))[0] == 4
    complete = Hypergraph(3, 2, [(i, j) for i in range(1, 4) for j in range(1, 4) if i != j])
    assert independence_number(complete)[0] == 1


def test_independence_vertex_gate():
    with pytest.raises(HypergraphError, match="size gate"):
        independence_number(Hypergraph(VERTEX_GATE + 1, 2, []))


def test_induced_matching_c5():
    value, witness = induced_matching_number(c5_directed())
    assert value == 3
    assert len(witness) == 3
    assert len(set(witness)) == 3


def brute_force_beta(h):
    """Largest coordinate-disjoint, closed subset of Phi, by plain enumeration."""
    phi = h.phi
    for size in range(h.n, 0, -1):
        for m in itertools.combinations(phi, size):
            coords = [{t[j] for t in m} for j in range(h.k)]
            if any(len(c) < size for c in coords):
                continue
            inside = [t for t in phi if all(t[j] in coords[j] for j in range(h.k))]
            if set(inside) == set(m):
                return size
    return 0


def seed15_digraphs():
    """The 50 random digraphs of the acceptance suite's chain criterion."""
    rng = np.random.default_rng(15)
    for _ in range(50):
        yield Hypergraph(5, 2, [
            (i, j) for i in range(1, 6) for j in range(1, 6)
            if i != j and rng.random() < 0.35
        ])


def test_induced_matching_matches_brute_force():
    graphs = [c5_directed(), undirected_c5(), *seed15_digraphs()]
    for h in graphs:
        value, witness = induced_matching_number(h)
        assert value == brute_force_beta(h), sorted(h.edges)
        coords = [{t[j] for t in witness} for j in range(h.k)]
        assert all(len(c) == value for c in coords)
        assert {t for t in h.phi if all(t[j] in coords[j] for j in range(h.k))} == set(
            witness
        )
    # (5, 5) lies in the product of {(1, 5), (2, 3), (5, 4)}, so beta is 2
    assert induced_matching_number(undirected_c5())[0] == 2


def test_induced_matching_gate():
    edges = [(i, j) for i in range(1, 10) for j in range(1, 10) if i != j]
    assert len(edges) + 9 > MATCHING_GATE
    with pytest.raises(HypergraphError, match="size gate"):
        induced_matching_number(Hypergraph(9, 2, edges))


def test_strong_power_sizes():
    h = c5_directed()
    p2 = strong_power(h, 2)
    assert p2.n == 25 and p2.k == 2
    with pytest.raises(HypergraphError, match="size gate"):
        strong_power(h, 3)  # 125 vertices > 40


def test_capacity_lower_is_monotone_best():
    res = capacity_lower(undirected_c5(), 2)
    assert res.power == 2 and res.alpha == 5
    assert res.value == pytest.approx(np.sqrt(5))
    assert [row[1] for row in res.history] == [1, 2]
    resd = capacity_lower(c5_directed(), 2)
    assert resd.alpha == 7 and resd.value == pytest.approx(np.sqrt(7))


def test_alpha_chain_on_c5():
    rep = alpha_chain_check(c5_directed(), F2)
    assert (rep.alpha, rep.beta, rep.sym_subrank, rep.subrank) == (2, 3, 2, 4)
    assert rep.ok
    assert rep.separation  # symmetric subrank drops below beta
    labels = [name for name, _ in rep.inequalities]
    assert "alpha <= symsubrank" in labels and "beta <= subrank" in labels


def test_alpha_chain_exhaustive_two_vertices():
    tuples = [t for t in itertools.product((1, 2), repeat=3) if len(set(t)) > 1]
    for mask in range(0, 64, 7):  # sampled here; the full 64 run in acceptance
        edges = [t for j, t in enumerate(tuples) if mask >> j & 1]
        assert alpha_chain_check(Hypergraph(2, 3, edges), F2).ok


def test_capacity_upper_quantum_needs_symmetric_adjacency():
    with pytest.raises(HypergraphError, match="orientation"):
        capacity_upper_quantum(c5_directed())


def test_capacity_upper_quantum_sandwiches_undirected_c5():
    h = undirected_c5()
    assert is_symmetric(adjacency_tensor(h, C))
    res = capacity_upper_quantum(h)
    low = capacity_lower(h, 2).value
    assert low <= res.value + 1e-9
    assert res.value <= 5.0

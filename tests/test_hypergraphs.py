import copy
import itertools
import pickle

import numpy as np
import pytest

from conftest import C, F2, c5_directed
from symsub import (
    Hypergraph,
    HypergraphError,
    TensorSizeError,
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


def test_hypergraph_is_an_immutable_value():
    h = Hypergraph(3, 2, [(1, 2), (2, 3)])
    same = Hypergraph(3, 2, iter([[2, 3], (1, 2), (1, 2)]))
    assert h == same and hash(h) == hash(same) == hash((3, 2, h.edges))
    assert h != Hypergraph(3, 2, [(1, 2)]) and h != Hypergraph(4, 2, h.edges)
    assert h != Hypergraph(3, 1, [])  # differs in k alone
    assert h != (3, 2, h.edges)
    assert len({h, same, Hypergraph(3, 2, [(2, 3)])}) == 2
    assert repr(h) == "Hypergraph(n=3, k=2, |E|=2)"
    for name in ("n", "k", "edges", "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(h, name, 1)
        with pytest.raises(AttributeError):
            delattr(h, name)
    assert (h.n, h.k, h.edges) == (3, 2, frozenset({(1, 2), (2, 3)}))
    for twin in (pickle.loads(pickle.dumps(h)), copy.copy(h), copy.deepcopy(h)):
        assert twin == h and type(twin) is Hypergraph


def test_results_are_named_tuples():
    res = capacity_lower(undirected_c5(), 1)
    assert res == (2, 1, 2.0, ((2, 1, 2.0),))
    assert repr(res) == "CapacityLowerResult(alpha=2, power=1, value=2.0, history=((2, 1, 2.0),))"
    rep = alpha_chain_check(Hypergraph(1, 2, []), F2)
    assert repr(rep) == (
        "ChainReport(alpha=1, beta=1, sym_subrank=1, subrank=1, inequalities=("
        "('alpha <= symsubrank', True), ('symsubrank <= subrank', True), "
        "('alpha <= beta', True), ('beta <= subrank', True)), separation=False)")
    assert rep.ok and not rep._replace(inequalities=(("alpha <= beta", False),)).ok


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
    with pytest.raises(KeyError):  # as a tensor file's missing key
        hypergraph_from_json({"n": 2, "k": 2})


def test_adjacency_tensor_entries():
    a = adjacency_tensor(c5_directed(), F2)
    assert a.dims == (5, 5)
    assert a.array[0, 1] == 1  # edge (1,2)
    assert a.array[1, 0] == 0  # orientation matters
    assert all(a.array[i, i] == 1 for i in range(5))


def test_independence_c5():
    for h, alpha in ((c5_directed(), 2), (undirected_c5(), 2)):
        value, witness = independence_number(h)
        assert value == alpha
        assert len(witness) == alpha
        # the witness really is independent
        chosen = set(witness)
        assert not any(set(e) <= chosen for e in h.edges)


def test_independence_ignores_diagonal_loops():
    """Diagonal tuples carry no information: the adjacency tensor's diagonal
    is 1 regardless, and strong_power drops them too."""
    assert independence_number(Hypergraph(2, 3, [(1, 1, 1)])) == (2, (1, 2))
    loops = [(v,) * 2 for v in range(1, 6)]
    looped = Hypergraph(5, 2, list(undirected_c5().edges) + loops)
    assert independence_number(looped) == independence_number(undirected_c5())
    assert capacity_lower(looped, 1).alpha == 2
    assert strong_power(looped, 2).edges == strong_power(undirected_c5(), 2).edges
    # a tuple with two distinct vertices is an edge between them
    assert independence_number(Hypergraph(2, 3, [(1, 1, 2)]))[0] == 1


def test_independence_empty_and_complete():
    assert independence_number(Hypergraph(4, 2, []))[0] == 4
    complete = Hypergraph(3, 2, [(i, j) for i in range(1, 4) for j in range(1, 4) if i != j])
    assert independence_number(complete)[0] == 1


def test_independence_vertex_gate():
    with pytest.raises(TensorSizeError, match="size gate"):
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
    with pytest.raises(TensorSizeError, match="size gate"):
        induced_matching_number(Hypergraph(9, 2, edges))


def test_strong_power_sizes():
    h = c5_directed()
    p2 = strong_power(h, 2)
    assert p2.n == 25 and p2.k == 2
    with pytest.raises(TensorSizeError, match="size gate"):
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


def brute_force_alpha(h):
    """Largest vertex set containing no edge with two or more distinct
    vertices, by plain enumeration."""
    edges = [set(e) for e in h.edges if len(set(e)) > 1]
    for size in range(h.n, -1, -1):
        for s in itertools.combinations(range(1, h.n + 1), size):
            if not any(e <= set(s) for e in edges):
                return size
    return 0


def random_3_uniform(rng, n, loops):
    """A random 3-uniform hypergraph on n vertices, with or without diagonal
    loops, sparse enough for brute force over Phi."""
    density = rng.uniform(0.03, 0.35 if n == 3 else 0.2)
    edges = [t for t in itertools.product(range(1, n + 1), repeat=3)
             if len(set(t)) > 1 and rng.random() < density]
    if loops:
        edges += [(v,) * 3 for v in range(1, n + 1) if rng.random() < 0.5]
    return Hypergraph(n, 3, edges)


def test_alpha_and_beta_match_brute_force_on_3_uniform_hypergraphs():
    rng = np.random.default_rng(33)
    graphs = [Hypergraph(0, 3, [])]
    graphs += [random_3_uniform(rng, n, loops)
               for n in (3, 4) for loops in (False, True) for _ in range(12)]
    assert any(any(len(set(e)) == 1 for e in h.edges) for h in graphs)
    for h in graphs:
        alpha, witness = independence_number(h)
        assert alpha == brute_force_alpha(h) == len(witness), sorted(h.edges)
        assert not any(set(e) <= set(witness) for e in h.edges if len(set(e)) > 1)
        beta, matching = induced_matching_number(h)
        assert beta == brute_force_beta(h) == len(matching), sorted(h.edges)
        coords = [{t[j] for t in matching} for j in range(3)]
        assert all(len(c) == beta for c in coords)
        assert {t for t in h.phi if all(t[j] in coords[j] for j in range(3))} == set(matching)
    assert independence_number(graphs[0]) == (0, ())
    assert induced_matching_number(graphs[0]) == (0, ())


def test_power_counts_match_the_strong_power():
    """n^m vertices and |Phi|^m - n^m edges, diagonal loops included."""
    rng = np.random.default_rng(18)
    for _ in range(300):
        k, m = int(rng.integers(2, 4)), int(rng.integers(1, 4))
        n = int(rng.integers(0, min(6, int(VERTEX_GATE ** (1 / m))) + 1))
        tuples = list(itertools.product(range(1, n + 1), repeat=k))
        edges = [t for t in tuples if rng.random() < 0.3]
        h = Hypergraph(n, k, edges)
        power = strong_power(h, m)
        assert power.n == n**m
        assert len(power.edges) == len(h.phi) ** m - n**m

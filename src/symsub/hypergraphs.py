"""Directed uniform hypergraphs: independence, induced matchings, capacity.

A directed k-uniform hypergraph on vertices ``1..n`` has a set of edges,
each an ordered k-tuple.  Its adjacency tensor (diagonal forced to 1) links
the combinatorial quantities to the tensor parameters: the independence
number lower-bounds the symmetric subrank, the induced matching number
lower-bounds the subrank, and the Shannon capacity is upper-bounded by the
symmetric quantum functional of a symmetric adjacency tensor.

Both search routines here are exact branch-and-bound procedures behind hard
size gates; they never return heuristic values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .domains import Domain
from .restrict import DEFAULT_BUDGET, subrank_exact, symsubrank_exact
from .tensors import Tensor, is_symmetric

__all__ = [
    "VERTEX_GATE",
    "MATCHING_GATE",
    "HypergraphError",
    "Hypergraph",
    "hypergraph_to_json",
    "hypergraph_from_json",
    "adjacency_tensor",
    "independence_number",
    "induced_matching_number",
    "strong_power",
    "CapacityLowerResult",
    "capacity_lower",
    "ChainReport",
    "alpha_chain_check",
    "capacity_upper_quantum",
]

VERTEX_GATE = 40
MATCHING_GATE = 64


class HypergraphError(ValueError):
    """Invalid hypergraph data or an exceeded search gate."""


@dataclass(frozen=True)
class Hypergraph:
    """A directed k-uniform hypergraph on the vertex set {1, ..., n}.

    Edges are ordered k-tuples of vertices; duplicates collapse by set
    semantics.  Diagonal tuples (all coordinates equal) are allowed in
    ``edges`` but carry no information: the adjacency tensor fixes the
    diagonal to 1 regardless.
    """

    n: int
    k: int
    edges: FrozenSet[Tuple[int, ...]]

    def __init__(self, n: int, k: int, edges):
        if n < 0:
            raise HypergraphError(f"vertex count must be nonnegative, got {n}")
        if k < 1:
            raise HypergraphError(f"uniformity must be positive, got {k}")
        normalized = set()
        for e in edges:
            t = tuple(int(v) for v in e)
            if len(t) != k:
                raise HypergraphError(f"edge {t} is not a {k}-tuple")
            if any(v < 1 or v > n for v in t):
                raise HypergraphError(f"edge {t} leaves the vertex range 1..{n}")
            normalized.add(t)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "edges", frozenset(normalized))

    @property
    def diagonal(self) -> FrozenSet[Tuple[int, ...]]:
        return frozenset((v,) * self.k for v in range(1, self.n + 1))

    @property
    def phi(self) -> Tuple[Tuple[int, ...], ...]:
        """E together with the diagonal, sorted lexicographically."""
        return tuple(sorted(self.edges | self.diagonal))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, k={self.k}, |E|={len(self.edges)})"


def hypergraph_to_json(h: Hypergraph) -> Dict:
    return {"n": h.n, "k": h.k, "edges": [list(e) for e in sorted(h.edges)]}


def hypergraph_from_json(data: Mapping) -> Hypergraph:
    try:
        return Hypergraph(int(data["n"]), int(data["k"]), data["edges"])
    except KeyError as exc:
        raise HypergraphError(f"hypergraph JSON is missing key {exc}") from None


# ---------------------------------------------------------------------------
# adjacency
# ---------------------------------------------------------------------------

def adjacency_tensor(
    h: Hypergraph,
    domain: Domain,
    edge_values: Optional[Mapping[Tuple[int, ...], object]] = None,
) -> Tensor:
    """The order-k adjacency tensor: 1 on the diagonal and on every edge.

    ``edge_values`` optionally overrides the coefficient of individual edges
    (any nonzero scalar keeps the support, hence the combinatorial bounds).
    """
    arr = domain.zeros((h.n,) * h.k)
    for v in range(h.n):
        arr[(v,) * h.k] = 1
    for e in h.edges:
        value = 1
        if edge_values is not None and e in edge_values:
            value = edge_values[e]
        coerced = domain.asarray([value])[0]
        if coerced == 0:
            raise HypergraphError(f"edge coefficient for {e} must be nonzero")
        arr[tuple(v - 1 for v in e)] = coerced
    return Tensor(domain, arr)


# ---------------------------------------------------------------------------
# independence number
# ---------------------------------------------------------------------------

def independence_number(h: Hypergraph) -> Tuple[int, Tuple[int, ...]]:
    """Exact alpha(H) with a witness set: no edge lies entirely inside it.

    Branch and bound over vertices in decreasing degree order; a branch is
    cut when even taking every remaining vertex cannot beat the incumbent.
    """
    if h.n > VERTEX_GATE:
        raise HypergraphError(
            f"size gate: independence search handles at most {VERTEX_GATE} "
            f"vertices, got {h.n}"
        )
    edge_sets = {frozenset(e) for e in h.edges}
    at: Dict[int, List[FrozenSet[int]]] = {v: [] for v in range(1, h.n + 1)}
    for s in edge_sets:
        for v in s:
            at[v].append(s)
    order = sorted(range(1, h.n + 1), key=lambda v: (-len(at[v]), v))

    best_size = 0
    best: Tuple[int, ...] = ()
    chosen: set = set()
    picked: List[int] = []

    def walk(idx: int) -> None:
        nonlocal best_size, best
        if len(picked) > best_size:
            best_size = len(picked)
            best = tuple(sorted(picked))
        if idx == h.n or len(picked) + (h.n - idx) <= best_size:
            return
        v = order[idx]
        if not any(s <= chosen | {v} for s in at[v]):
            chosen.add(v)
            picked.append(v)
            walk(idx + 1)
            picked.pop()
            chosen.remove(v)
        walk(idx + 1)

    walk(0)
    return best_size, best


# ---------------------------------------------------------------------------
# induced matching number
# ---------------------------------------------------------------------------

def induced_matching_number(
    h: Hypergraph,
) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """Exact beta(H): the largest induced matching inside Phi = E u diagonal.

    A valid M is coordinate-disjoint (for every position j the j-th
    coordinates of its members are pairwise distinct) and closed: every
    member of Phi that lies in the coordinate product M_1 x ... x M_k must
    itself belong to M.

    The search walks Phi in lexicographic order.  Two prunes keep it exact
    and fast: excluding an element that already lies in the current product
    is fatal (products only grow), and including an element that would pull
    a previously excluded one into the product is fatal for the same reason.
    A partial matching counts only once no element of Phi still to be walked
    lies in its product: such an element can neither join (its coordinates
    are taken) nor be excluded.
    """
    phi = h.phi
    total = len(phi)
    if total > MATCHING_GATE:
        raise HypergraphError(
            f"size gate: induced matching search handles at most "
            f"{MATCHING_GATE} elements of Phi, got {total}"
        )
    k = h.k
    coords: List[set] = [set() for _ in range(k)]
    chosen: List[Tuple[int, ...]] = []
    excluded: List[int] = []
    best_size = 0
    best: Tuple[Tuple[int, ...], ...] = ()

    def in_product(t: Tuple[int, ...]) -> bool:
        return all(t[j] in coords[j] for j in range(k))

    def walk(i: int) -> None:
        nonlocal best_size, best
        if len(chosen) > best_size and not any(
            in_product(phi[later]) for later in range(i, total)
        ):
            best_size = len(chosen)
            best = tuple(chosen)
        if i == total:
            return
        room = min(h.n - len(coords[0]), total - i)
        if len(chosen) + room <= best_size:
            return
        t = phi[i]
        if all(t[j] not in coords[j] for j in range(k)):
            for j in range(k):
                coords[j].add(t[j])
            if not any(in_product(phi[e]) for e in excluded):
                chosen.append(t)
                walk(i + 1)
                chosen.pop()
            for j in range(k):
                coords[j].remove(t[j])
        if not in_product(t):
            excluded.append(i)
            walk(i + 1)
            excluded.pop()

    walk(0)
    return best_size, best


# ---------------------------------------------------------------------------
# strong powers and capacity
# ---------------------------------------------------------------------------

def strong_power(h: Hypergraph, m: int) -> Hypergraph:
    """The m-th strong power: the tensor power on the adjacency tensor.

    Vertices are m-tuples flattened to 1..n^m (first coordinate most
    significant); a k-tuple of distinct vertices is an edge exactly when
    each coordinate slice is an edge of H or constant.  Diagonal loops
    present in ``h.edges`` are absorbed into the diagonal and dropped.
    """
    if m < 1:
        raise HypergraphError(f"power must be positive, got {m}")
    size = h.n ** m
    if size > VERTEX_GATE:
        raise HypergraphError(
            f"size gate: strong power has {size} vertices, limit {VERTEX_GATE}"
        )

    def flat(w: Sequence[int]) -> int:
        index = 0
        for v in w:
            index = index * h.n + (v - 1)
        return index + 1

    phi = h.phi
    diag = h.diagonal
    edges = set()
    for combo in itertools.product(phi, repeat=m):
        if all(slice_ in diag for slice_ in combo):
            continue
        edges.add(tuple(flat([combo[j][i] for j in range(m)]) for i in range(h.k)))
    return Hypergraph(size, h.k, edges)


@dataclass(frozen=True)
class CapacityLowerResult:
    """Best Shannon-capacity lower bound alpha(H^m)^(1/m) seen up to m."""

    alpha: int
    power: int
    value: float
    history: Tuple[Tuple[int, int, float], ...]


def capacity_lower(h: Hypergraph, m: int) -> CapacityLowerResult:
    """Monotone best-so-far of alpha(strong_power(h, j))^(1/j) for j <= m."""
    if m < 1:
        raise HypergraphError(f"power must be positive, got {m}")
    history: List[Tuple[int, int, float]] = []
    best: Optional[Tuple[int, int, float]] = None
    for j in range(1, m + 1):
        power = h if j == 1 else strong_power(h, j)
        alpha, _ = independence_number(power)
        value = alpha ** (1.0 / j)
        history.append((alpha, j, value))
        if best is None or value > best[2]:
            best = (alpha, j, value)
    assert best is not None
    return CapacityLowerResult(
        alpha=best[0], power=best[1], value=best[2], history=tuple(history)
    )


# ---------------------------------------------------------------------------
# the combinatorics-to-tensor chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainReport:
    """alpha <= symsubrank <= subrank and alpha <= beta <= subrank, checked.

    ``separation`` flags instances where the symmetric subrank drops
    strictly below beta, the obstruction that keeps beta from lower-bounding
    the symmetric side.
    """

    alpha: int
    beta: int
    sym_subrank: int
    subrank: int
    inequalities: Tuple[Tuple[str, bool], ...]
    separation: bool

    @property
    def ok(self) -> bool:
        return all(holds for _, holds in self.inequalities)


def alpha_chain_check(
    h: Hypergraph, domain: Domain, budget: int = DEFAULT_BUDGET
) -> ChainReport:
    """Compute alpha, beta, symsubrank(A_H), subrank(A_H) and verify the chain."""
    alpha, _ = independence_number(h)
    beta, _ = induced_matching_number(h)
    a = adjacency_tensor(h, domain)
    sym_q, _ = symsubrank_exact(a, budget=budget)
    q, _ = subrank_exact(a, budget=budget)
    inequalities = (
        ("alpha <= symsubrank", alpha <= sym_q),
        ("symsubrank <= subrank", sym_q <= q),
        ("alpha <= beta", alpha <= beta),
        ("beta <= subrank", beta <= q),
    )
    return ChainReport(
        alpha=alpha,
        beta=beta,
        sym_subrank=sym_q,
        subrank=q,
        inequalities=inequalities,
        separation=sym_q < beta,
    )


def capacity_upper_quantum(h: Hypergraph, options=None):
    """Estimate the symmetric quantum functional of A_H over the complex numbers.

    The true functional upper-bounds the Shannon capacity of H; the returned
    number is the optimizer's lower estimate of that upper bound, so it
    carries optimizer metadata rather than a certificate.  Requires a
    symmetric adjacency tensor (undirected-style hypergraph).
    """
    from .domains import ComplexNumbers
    from .quantum import sym_quantum_functional

    a = adjacency_tensor(h, ComplexNumbers())
    if not is_symmetric(a):
        raise HypergraphError(
            "non-symmetric adjacency tensor: capacity_upper_quantum needs "
            "every edge orientation present"
        )
    return sym_quantum_functional(a, options)

"""Directed uniform hypergraphs: independence, induced matchings, capacity.

A directed k-uniform hypergraph on vertices ``1..n`` has a set of edges,
each an ordered k-tuple.  Its adjacency tensor (diagonal forced to 1) links
the combinatorial quantities to the tensor parameters: the independence
number lower-bounds the symmetric subrank, the induced matching number
lower-bounds the subrank, and the Shannon capacity is upper-bounded by the
symmetric quantum functional of a symmetric adjacency tensor.

Both search routines here are exact branch-and-bound procedures behind hard
size gates; they never return heuristic values.  They run on Python-int
bitsets, so this module loads numpy only inside the functions that build an
adjacency tensor.  Its classes are a ``__slots__`` value class and two
``NamedTuple`` results, not dataclasses, so importing it loads neither numpy
nor ``dataclasses`` (whose ``inspect`` import costs more than this module's).
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import (
    TYPE_CHECKING, Dict, FrozenSet, List, Mapping, NamedTuple, Sequence, Tuple,
)

from ._common import DEFAULT_BUDGET, TensorSizeError, json_int

if TYPE_CHECKING:
    from .domains import Domain
    from .tensors import Tensor

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
    """Invalid hypergraph data or parameters; an exceeded size gate raises
    ``TensorSizeError``."""


class Hypergraph:
    """A directed k-uniform hypergraph on the vertex set {1, ..., n}.

    Edges are ordered k-tuples of vertices; duplicates collapse by set
    semantics.  Diagonal tuples (all coordinates equal) are allowed in
    ``edges`` but carry no information: the adjacency tensor fixes the
    diagonal to 1 regardless.  Immutable; equal and hashed by
    ``(n, k, edges)``.
    """

    __slots__ = ("n", "k", "edges")

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

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> Tuple[int, int, FrozenSet[Tuple[int, ...]]]:
        return self.n, self.k, self.edges

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):  # pickle and copy through the constructor
        return Hypergraph, self._key()

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
    """Parse the hypergraph JSON format; a missing key raises KeyError."""

    def edges(rows):  # checked as the constructor walks them, after n and k
        for e in rows:
            yield [json_int(v, "edge coordinate") for v in e]

    n = json_int(data["n"], "vertex count n")
    k = json_int(data["k"], "uniformity k")
    return Hypergraph(n, k, edges(data["edges"]))


# ---------------------------------------------------------------------------
# adjacency
# ---------------------------------------------------------------------------

def adjacency_tensor(h: Hypergraph, domain: Domain) -> Tensor:
    """The order-k adjacency tensor: 1 on the diagonal and on every edge."""
    import numpy as np

    from .tensors import Tensor

    arr = domain.zeros((h.n,) * h.k)
    arr[(np.arange(h.n),) * h.k] = 1
    arr[tuple(np.array(list(h.edges), dtype=np.int64).reshape(-1, h.k).T - 1)] = 1
    return Tensor(domain, arr)


# ---------------------------------------------------------------------------
# independence number
# ---------------------------------------------------------------------------

def independence_number(h: Hypergraph) -> Tuple[int, Tuple[int, ...]]:
    """Exact alpha(H) with a witness set: no edge lies entirely inside it.

    Branch and bound over vertices in decreasing degree order; a branch is
    cut when even taking every remaining vertex cannot beat the incumbent.
    Vertex sets are int bitsets (bit v for vertex v): v may join ``chosen``
    unless some edge at v has all its other vertices in ``chosen``.
    """
    if h.n > VERTEX_GATE:
        raise TensorSizeError(
            f"size gate: independence search handles at most {VERTEX_GATE} "
            f"vertices, got {h.n}"
        )
    # each edge at v, as the bitset of its other vertices
    rests: Dict[int, List[int]] = {v: [] for v in range(1, h.n + 1)}
    for s in {frozenset(e) for e in h.edges if len(set(e)) > 1}:
        mask = sum(1 << v for v in s)
        for v in s:
            rests[v].append(mask ^ 1 << v)
    order = sorted(range(1, h.n + 1), key=lambda v: (-len(rests[v]), v))

    best_size = 0
    best = 0

    def walk(idx: int, chosen: int, size: int) -> None:
        nonlocal best_size, best
        if size > best_size:
            best_size, best = size, chosen
        if idx == h.n or size + (h.n - idx) <= best_size:
            return
        v = order[idx]
        if not any(rest & chosen == rest for rest in rests[v]):
            walk(idx + 1, chosen | 1 << v, size + 1)
        walk(idx + 1, chosen, size)

    walk(0, 0, 0)
    return best_size, tuple(v for v in range(1, h.n + 1) if best >> v & 1)


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
    are taken) nor be excluded.  A branch stops once it cannot beat the
    incumbent even by taking every later element whose coordinates are all
    still free.  Sets of elements are int bitsets over the indices of Phi, so
    each of these tests is one bit operation.
    """
    # |Phi| = n + the edges that are not constant, counted before Phi is built
    total = h.n + sum(len(set(t)) > 1 for t in h.edges)
    if total > MATCHING_GATE:
        raise TensorSizeError(
            f"size gate: induced matching search handles at most "
            f"{MATCHING_GATE} elements of Phi, got {total}"
        )
    phi = h.phi
    # members[j][v]: the bitset of elements of Phi whose j-th coordinate is v
    members: List[Dict[int, int]] = [{} for _ in range(h.k)]
    for i, t in enumerate(phi):
        for j, v in enumerate(t):
            members[j][v] = members[j].get(v, 0) | 1 << i
    takes = [tuple(members[j][v] for j, v in enumerate(t)) for t in phi]
    # the elements sharing a coordinate position with phi[i]
    clashes = [functools.reduce(operator.or_, take) for take in takes]
    n, best_size, best = h.n, 0, 0

    def walk(i: int, size: int, chosen: int, legs: Tuple[int, ...], prod: int,
             free: int, excluded: int) -> None:
        """``chosen``: M, of ``size`` elements; ``legs[j]``: the members of
        M's j-th coordinates, and ``prod`` their AND, the elements of the
        product M_1 x ... x M_k; ``free``: the elements whose coordinates are
        all untaken; ``excluded``: the elements left out of M."""
        nonlocal best_size, best
        if size > best_size and not prod >> i:
            best_size, best = size, chosen
        if i == total or n <= best_size or size + (free >> i).bit_count() <= best_size:
            return
        bit = 1 << i
        if free & bit:
            grown = tuple(map(operator.or_, legs, takes[i]))
            inside = functools.reduce(operator.and_, grown)
            if not inside & excluded:
                walk(i + 1, size + 1, chosen | bit, grown, inside, free & ~clashes[i], excluded)
        if not prod & bit:
            walk(i + 1, size, chosen, legs, prod, free, excluded | bit)

    walk(0, 0, 0, (0,) * h.k, 0, (1 << total) - 1, 0)
    return best_size, tuple(t for i, t in enumerate(phi) if best >> i & 1)


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
        raise TensorSizeError(
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


class CapacityLowerResult(NamedTuple):
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
    for j in range(1, m + 1):
        power = h if j == 1 else strong_power(h, j)
        alpha, _ = independence_number(power)
        history.append((alpha, j, alpha ** (1.0 / j)))
    best = max(history, key=lambda entry: entry[2])  # the first of the largest
    return CapacityLowerResult(
        alpha=best[0], power=best[1], value=best[2], history=tuple(history)
    )


# ---------------------------------------------------------------------------
# the combinatorics-to-tensor chain
# ---------------------------------------------------------------------------

class ChainReport(NamedTuple):
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
    """Compute alpha, beta, symsubrank(A_H), subrank(A_H) and verify the chain;
    both subranks come from one ``restrict.subranks`` call."""
    from .restrict import subranks

    alpha, _ = independence_number(h)
    beta, _ = induced_matching_number(h)
    (sym_q, _), (q, _) = subranks(adjacency_tensor(h, domain), budget)
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
    from .tensors import is_symmetric

    a = adjacency_tensor(h, ComplexNumbers())
    if not is_symmetric(a):
        raise HypergraphError(
            "non-symmetric adjacency tensor: capacity_upper_quantum needs "
            "every edge orientation present"
        )
    return sym_quantum_functional(a, options)

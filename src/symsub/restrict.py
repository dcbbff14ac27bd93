"""Decision procedures for restriction and symmetric restriction.

Everything here answers questions of the form "is g reachable from f by
linear maps on the legs?" and returns a re-verifiable :class:`Certificate`
(or a refutation by exhaustion).  Every certificate made here, in
:mod:`congruence` and by ``make_sym`` is made by :func:`_certified`, which
checks it against f once and raises RuntimeError on failure;
:func:`symrank_small` checks its Waring vectors likewise.
``symmetrize_certificate`` builds its own :class:`Certificate` once
``_check_chain`` has checked it through the chain's Kronecker structure,
as ``create_t`` checks its selection.
Exhaustive searches run over prime fields only and respect a hard candidate
budget: exceeding it raises :class:`SearchInfeasibleError`, never a silent
"no".

The exhaustive searches take only unit targets <e> (order-2 restriction,
decided by echelon forms, takes any target), and enumerate one
representative per orbit of the stabilizer of <e>.  A search raises when
the number of representatives it could enumerate,
:attr:`SearchInfeasibleError.required`, exceeds its budget.

Every search draws its rows from :func:`_row_blocks`.  The plain and the
symmetric search take them from one read-only stack of maps per leg
(:func:`_leg_stack`) when they fit in one, and stream them otherwise.  Such
stacks, the orbit leads and the unit tensors depend on no input, so each is
built once and shared read-only.  The symmetric search, :func:`_sym_dfs`,
is a branch and bound over int bitsets of the rows that pass the root: each
row's bitset of compatible later rows (its pair row) is computed once, a
child's candidates are its parent's ANDed with the chosen row's pair row,
and a branch stops once its rows plus candidates cannot beat the best set.
:func:`symsubrank_exact` runs it once, from the least flattening rank r0 of
f, or from r0 - 1 when f is r0 x ... x r0 and not symmetric.  The plain
search, :func:`_restriction_dfs`, solves the last leg for blocks of map
tuples at once, its first block sized by the work in it.  Once every leg
left has dimension e, it drops the partial tensors that do not vanish at
the prefixes that are not constant, as the maps left must be invertible.

Determinism: canonical representatives are enumerated in lexicographic order
of their rows, and the first certificate found is returned (for
:func:`symsubrank_exact`, the first of the largest size).  That first
certificate may differ from the one a full enumeration would meet first; it
re-verifies all the same.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from ._common import DEFAULT_BUDGET, read_certificate
from .domains import DomainError, PrimeField
from .tensors import (
    _BLOCK_ENTRIES,
    LinearMap,
    Tensor,
    _build_map,
    _build_tensor,
    _kron_rows,
    _rank_one_sum,
    apply,
    apply_sym,
    flattening_rank,
    is_symmetric,
    map_to_json,
    tensor_to_json,
    tensors_equal,
    unit_tensor,
)

__all__ = [
    "DEFAULT_BUDGET",
    "SearchInfeasibleError",
    "Certificate",
    "verify_certificate",
    "certificate_to_json",
    "certificate_from_json",
    "symrestriction_exists",
    "restriction_exists",
    "symsubrank_exact",
    "subrank_exact",
    "SymrankResult",
    "symrank_small",
]

_FIRST_CHUNK = 1 << 10  # entries of partial tensors in a leg's first chunk of prefixes


class SearchInfeasibleError(RuntimeError):
    """The exhaustive search would exceed the candidate budget.

    ``required`` is the exact number of canonical representatives the
    search for <e> can enumerate (for restriction, maps on all legs but the
    last, which is solved linearly).  The plain search also meets maps with
    dependent rows for e >= 3; their last-leg solve fails and ``required``
    does not count them.
    """

    def __init__(self, required: int, budget: int, what: str):
        super().__init__(
            f"search-infeasible: {what} needs {required} candidates, "
            f"budget is {budget}"
        )
        self.required = required
        self.budget = budget


@dataclass(frozen=True)
class Certificate:
    """A verified witness of g <= f (restriction) or g <=_s f (symmetric).

    For ``kind == "symmetric-restriction"`` there is exactly one map, applied
    to every leg; for ``kind == "restriction"`` there is one map per leg.
    """

    kind: str
    maps: Tuple[LinearMap, ...]
    target: Tensor

    def __post_init__(self):
        if self.kind not in ("restriction", "symmetric-restriction"):
            raise ValueError(f"unknown certificate kind: {self.kind!r}")
        if self.kind == "symmetric-restriction" and len(self.maps) != 1:
            raise ValueError("symmetric-restriction certificates carry one map")


def verify_certificate(cert: Certificate, f: Tensor) -> bool:
    """Re-apply the certificate's maps to f and compare with its target."""
    if cert.kind == "symmetric-restriction":
        result = apply_sym(cert.maps[0], f)
    else:
        result = apply(list(cert.maps), f)
    return tensors_equal(result, cert.target)


def _certified(kind: str, maps: Sequence[np.ndarray], target: Tensor, f: Tensor) -> Certificate:
    """The certificate carrying f by the map arrays ``maps`` to ``target``,
    checked against f; every certificate returned as a result is made here."""
    cert = Certificate(kind, tuple(LinearMap(f.domain, a) for a in maps), target)
    if not verify_certificate(cert, f):
        raise RuntimeError(f"internal error: {kind} certificate failed to verify")
    return cert


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "kind": cert.kind,
        "target": tensor_to_json(cert.target),
        "maps": [map_to_json(m) for m in cert.maps],
    }


def certificate_from_json(obj: dict) -> Certificate:
    """Parse the certificate JSON format: ``_common.read_certificate``
    checks every value, then the constructor checks the kind and map count."""
    return _build_certificate(read_certificate(obj))


def _build_certificate(read) -> Certificate:
    kind, target, maps = read
    target = _build_tensor(target)
    return Certificate(kind, tuple(_build_map(m) for m in maps), target)


# ---------------------------------------------------------------------------
# symmetric restriction: one map, batched branch and bound over its rows
# ---------------------------------------------------------------------------

def symrestriction_exists(
    g: Tensor, f: Tensor, budget: int = DEFAULT_BUDGET
) -> Optional[Certificate]:
    """Search for A with A^{(x)k} f = g for a unit tensor g = <e>; None after
    exhaustive refutation.

    Prime fields only; any other g is refused with a ValueError.  Rows of A
    are extended one at a time in lexicographic order (:func:`_sym_dfs`); a
    partial map survives only while every already-determined entry of the
    image matches <e>.  The rows are nonzero, strictly increasing, and each
    the least in its orbit under the k-th roots of unity:
    (P D A)^{(x)k} f = <e> whenever A^{(x)k} f = <e>, for a permutation P and
    a diagonal D with D^k = I.
    """
    _check_search(f, "symmetric restriction search", True, g)
    e, d = g.dims[0], f.dims[0]
    # Flattening ranks never increase under restriction; each of <e>'s is e.
    if e > _least_flattening_rank(f):
        return None
    _check_sym_budget(f, e, budget)
    if e == 0:
        return _certified("symmetric-restriction", [np.zeros((0, d), dtype=np.int64)], g, f)
    rows = _sym_dfs(g.array, f.array, f.domain.p, e - 1)
    return _certified("symmetric-restriction", [rows], g, f) if len(rows) else None


def _check_sym_budget(f: Tensor, e: int, budget: int) -> None:
    """Raise unless the e x d maps the search for <e> enumerates fit the budget."""
    p, d, k = f.domain.p, f.dims[0], f.order
    # the k-th roots of unity act freely on the nonzero rows
    required = math.comb((p**d - 1) // math.gcd(k, p - 1), e)
    if required > budget:
        raise SearchInfeasibleError(required, budget, f"map search over F_{p}^({e}x{d})")


@functools.lru_cache(maxsize=16)
def _root_orbit_leads(p: int, k: int) -> Tuple[int, ...]:
    """The least element of each orbit of F_p^* under the k-th roots of unity
    (at most 16 keys of at most p - 1 < 2^16 leads each)."""
    roots = [z for z in range(1, p) if pow(z, k, p) == 1]
    return tuple(a for a in range(1, p) if all(a <= a * z % p for z in roots))


def _row_blocks(p: int, d: int, leads: Optional[Sequence[int]], size: int):
    """Rows of F_p^d whose first nonzero entry is in ``leads`` (every row, zero
    included, when ``leads`` is None; for d = 0 the empty row), in lexicographic
    order and in stacks of at most ``size``."""
    # keep the rows whose first nonzero entry (0 for the zero row) is a lead
    lead = np.ones(p, dtype=bool) if leads is None else np.bincount(leads, minlength=p) > 0
    for lo in range(0, p**d, size):
        codes = np.arange(lo, min(lo + size, p**d), dtype=np.int64)
        # one more digit, that of p^d, is 0: the zero row's (and d = 0's) lead
        digits = codes[:, None] // p ** np.arange(d, -1, -1) % p
        rows = digits[lead[digits[np.arange(len(codes)), (digits != 0).argmax(axis=1)]], 1:]
        if len(rows):
            yield rows


def _check_search(f: Tensor, what: str, symmetric: bool, g: Optional[Tensor] = None) -> None:
    """Raise unless the search ``what`` can run on f (and its target g): one
    order and domain, order >= 2, cubical tensors for a symmetric search,
    and, unless it is a plain search on matrices, a prime field and a unit
    target <e>."""
    if g is not None and g.order != f.order:
        raise ValueError(f"order mismatch: {g.order} vs {f.order}")
    if g is not None and g.domain != f.domain:
        raise DomainError(f"domain mismatch: {g.domain.name} vs {f.domain.name}")
    if f.order < 2:
        raise ValueError(f"{what} needs order >= 2")
    if symmetric and not (f.is_cubical and (g is None or g.is_cubical)):
        raise ValueError(f"{what} needs cubical tensors")
    if not (symmetric or f.order > 2):  # a plain search on matrices
        return
    if not isinstance(f.domain, PrimeField):
        raise DomainError(f"{what} runs over prime fields only")
    if g is not None and not tensors_equal(g, unit_tensor(g.dims[0], g.order, g.domain)):
        raise ValueError(f"{what} takes only unit targets <e>")


def _sym_dfs(G: np.ndarray, F: np.ndarray, p: int, floor: int) -> np.ndarray:
    """Rows of A with A^{(x)k} F = G[:r, ..., :r] (G = <e>) for the largest r
    in (floor, e], by branch and bound; no rows when no such r has one.

    Rows strictly increase, each the least in its orbit under the k-th roots
    of unity.  The root keeps the rows c with F(c, ..., c) = 1 (the first
    such block when e = 1): per block of candidate rows, the image of F
    under the one-row maps (c), with no stack of maps copied.  The
    candidates are the plain search's shared stack of one-row maps
    (:func:`_leg_stack`), or stream from :func:`_row_blocks` when they do
    not fit in it.  Each survivor's pair row, the int bitset of the later
    survivors whose two-row image with it is <2>, is computed once, in
    blocks of rows that double (:func:`_pair_rows`).  A child's candidates
    are its parent's after the chosen row ANDed with that row's pair row, so
    for k = 2 this is a maximum-clique search; for k >= 3 a node with two
    rows or more also scores its candidates against G's leading block.  A
    branch stops once its rows and candidates cannot beat the largest set so
    far; the result is the lexicographically first largest set.
    """
    k, d, e = F.ndim, F.shape[0], G.shape[0]
    leads = _root_orbit_leads(p, k)
    size = max(1, _BLOCK_ENTRIES // max(1, e * d ** (k - 1)))
    stack = _leg_stack(p, d, 1, leads, False)
    if stack is None:
        blocks = (cand[:, None] for cand in _row_blocks(p, d, leads, size))
    else:
        blocks = (stack[lo:lo + size] for lo in range(0, len(stack), size))
    rows = np.zeros((0, d), dtype=np.int64)
    for maps in blocks:  # the one-row maps (c), whose image is F(c, ..., c)
        rows = np.concatenate((rows, maps[_images(maps, F, p)[:, 0] == 1, 0]))
        if e == 1 and len(rows):
            break
    n = len(rows)
    # read only by the scoring of nodes with two rows or more, which k = 2 skips
    leading = [G[(slice(0, i + 1),) * k].reshape(-1) % p for i in range(e)] if k > 2 else []
    pairs: Dict[int, int] = {}
    # rows in the next block of pair rows: first about 2^14 products, then doubling
    width = [max(1, _BLOCK_ENTRIES // (4 * (d + 1) ** k * max(1, n)))]
    best: List = [floor, []]

    def pair_row(v: int) -> int:
        if v not in pairs:
            todo = [w for w in range(v, min(n, v + width[0])) if w not in pairs]
            pairs.update(zip(todo, _pair_rows(rows, todo, F, p)))
            width[0] = min(2 * width[0], max(1, _BLOCK_ENTRIES // ((d + 1) ** k + n)))
        return pairs[v]

    def extend(chosen: List[int], found: int) -> bool:
        """Search below the survivors ``chosen``, whose candidates are the
        bits of ``found``; True once e rows are found."""
        i = len(chosen)
        if k > 2 and i >= 2:
            idx = np.flatnonzero(np.unpackbits(np.frombuffer(
                found.to_bytes((n + 7) // 8, "little"), dtype=np.uint8), bitorder="little"))
            keep = np.zeros(n, dtype=bool)
            for lo in range(0, len(idx), size):
                block = idx[lo:lo + size]
                maps = _stacked(rows[chosen], rows[block])
                keep[block[(_images(maps, F, p) == leading[i]).all(axis=1)]] = True
                if i + 1 == e and keep.any():
                    break
            found = _bitset(keep)
        while found and i + found.bit_count() > best[0]:
            j = (found & -found).bit_length() - 1
            found &= found - 1
            grown = chosen + [j]
            if i + 1 > best[0]:
                best[:] = [i + 1, grown]
                if i + 1 == e:
                    return True
            if found and extend(grown, found & pair_row(j)):
                return True
        return False

    extend([], (1 << n) - 1)
    return rows[best[1]]


def _stacked(rows: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """The maps (rows; c) for the candidate rows c, one stack.  Callers keep
    it in a local until the next block's is made: freed at once, it lets
    malloc trim the heap, and a long scan then page-faults about 5x as often."""
    maps = np.empty((len(cand), len(rows) + 1, cand.shape[1]), dtype=np.int64)
    maps[:, :-1] = rows
    maps[:, -1] = cand
    return maps


def _bitset(mask: np.ndarray) -> int:
    """The int whose bit u is mask[u]."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _pair_rows(rows: np.ndarray, vs: List[int], F: np.ndarray, p: int) -> List[int]:
    """For each v in the ascending ``vs``, the bitset of the later rows u
    with (rows[v]; rows[u])^{(x)k} F = <2>, given F(c, ..., c) = 1 for every
    row c.  Its mixed entry with v on legs T and u on the other m is F_T(v) .
    u^{(x)m}: per m, one product of the F_T(v) with the later rows' m-th
    Kronecker powers, a chunk of about _BLOCK_ENTRIES entries at a time."""
    (n, d), k, field, first = rows.shape, F.ndim, PrimeField(p), vs[0] + 1
    bad = np.zeros((len(vs), n - first), dtype=bool)
    for m in range(1, k):
        shared = math.comb(k, m) * d**k <= _BLOCK_ENTRIES
        splits = F.reshape(-1)[(_split_index if shared else _split_index.__wrapped__)(d, k, m)]
        left = _kron_rows([rows[vs]] * (k - m), field) @ splits % p
        left = left.reshape(-1, d**m)  # row (v, T) is F_T(v)
        step = max(1, _BLOCK_ENTRIES // (d**m + len(left)))
        for lo in range(first, n, step):
            hit = left @ _kron_rows([rows[lo:lo + step]] * m, field).T % p
            hit = hit.reshape(len(vs), math.comb(k, m), -1).any(axis=1)
            bad[:, lo - first:lo - first + step] |= hit
    packed = np.packbits(~bad, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") << first >> v + 1 << v + 1
            for v, row in zip(vs, packed)]


@functools.lru_cache(maxsize=16)
def _split_index(d: int, k: int, m: int) -> np.ndarray:
    """Where the flat array of an order-k, side-d F holds the matrix of its
    contractions F_T over the (k - m)-subsets T of legs, side by side in
    ``itertools.combinations`` order (T's legs index the rows, the other m
    the columns).  Read-only; :func:`_pair_rows` shares the ones of at most
    _BLOCK_ENTRIES entries, so the cache holds at most 16 such."""
    codes = np.arange(d**k).reshape((d,) * k)
    index = np.concatenate(
        [codes.transpose(T + tuple(sorted(set(range(k)) - set(T)))).reshape(-1, d**m)
         for T in itertools.combinations(range(k), k - m)], axis=1)
    index.setflags(write=False)
    return index


def _images(maps: np.ndarray, F: np.ndarray, p: int) -> np.ndarray:
    """A^{(x)k} F, flattened, for every map A in the stack ``maps`` (m x r x d).

    One batched matmul per leg; each leg's image moves to the end, so after
    k legs they stand in order.
    """
    k, (m, r, d) = F.ndim, maps.shape
    t = F[None]
    for leg in range(k):
        t = (maps @ t.reshape(len(t), d, d ** (k - 1 - leg) * r**leg) % p).swapaxes(1, 2)
    return t.reshape(m, r**k)


# ---------------------------------------------------------------------------
# restriction: independent maps, leg-by-leg DFS with a linear last leg
# ---------------------------------------------------------------------------

def restriction_exists(
    g: Tensor, f: Tensor, budget: int = DEFAULT_BUDGET
) -> Optional[Certificate]:
    """Search for per-leg maps with (A1 (x) ... (x) Ak) f = g.

    Order 2 is constructive over any domain and for any g (reduced echelon
    forms).  Higher orders take only a unit target g = <e> over a prime
    field (any other g is refused with a ValueError): they enumerate maps
    for legs 1..k-1 lexicographically and solve the last leg linearly, a
    block of tuples at a time (:func:`_restriction_dfs`).  Every map has
    independent rows, each with first nonzero entry 1, and the rows of A1
    strictly increase: (P D1 A1 (x) ... (x) P Dk Ak) f = <e> whenever
    (A1, ..., Ak) works, for a permutation P and diagonals with
    D1 ... Dk = I, and Dk absorbs the other legs' scaling.
    """
    _check_search(f, "restriction search", False, g)
    if f.order == 2:
        return _matrix_restriction(g, f)
    # Flattening ranks never increase under restriction; each of <e>'s is e.
    if g.dims[0] > _least_flattening_rank(f):
        return None
    return _restriction_search(g, f, budget)


def _restriction_search(g: Tensor, f: Tensor, budget: int) -> Optional[Certificate]:
    """The budget gate and the search of :func:`restriction_exists` for
    g = <e>, order >= 3."""
    p, e = f.domain.p, g.dims[0]
    required = _frame_count(p, f.dims[0], e) // math.factorial(e)
    for leg in range(1, f.order - 1):
        required *= _frame_count(p, f.dims[leg], e)
    if required > budget:
        raise SearchInfeasibleError(required, budget, "leg-by-leg map search")
    maps = _restriction_dfs(g, f)
    return None if maps is None else _certified("restriction", maps, g, f)


def _matrix_restriction(g: Tensor, f: Tensor) -> Optional[Certificate]:
    """Constructive matrix case from one reduced echelon form each: g is its
    pivot columns times its echelon rows, g = g[:, piv] R_g[:r_g], and
    P_f[:r_g] f S_f[:r_g]^T = I_{r_g} (:func:`_unit_maps`) fits in between."""
    domain = f.domain
    R, pivots, _ = linalg.row_reduce(g.array, domain)
    P, S = _unit_maps(f)
    r = len(pivots)
    if r > len(P):  # rank g > rank f
        return None
    A1 = domain.reduce(g.array[:, pivots] @ P[:r])
    A2 = domain.reduce(R[:r].T @ S[:r])
    return _certified("restriction", [A1, A2], g, f)


def _unit_maps(f: Tensor) -> Tuple[np.ndarray, np.ndarray]:
    """(P[:r], S) with P[:r] f S^T = I_r, r the rank of the matrix f: P f = R
    is its reduced echelon form and S the r x n selector of R's pivot
    columns."""
    _, pivots, P = linalg.row_reduce(f.array, f.domain)
    S = f.domain.zeros((len(pivots), f.dims[1]))
    S[np.arange(len(pivots)), pivots] = 1
    return P[:len(pivots)], S


def _frame_count(p: int, d: int, e: int) -> int:
    """Number of ordered e-tuples of independent projective points of F_p^d."""
    count = 1
    for i in range(e):
        count *= p**d - p**i
    return count // (p - 1) ** e


def _maps(p: int, d: int, e: int, leads: Sequence[int], ascending: bool, size: int):
    """e x d maps over F_p in lexicographic order of their rows, in stacks of
    at most ``size``: distinct rows of F_p^d whose first nonzero entry is in
    ``leads`` (:func:`_row_blocks`), strictly increasing when ``ascending``.
    For e = 1 the rows stream, as one leg can have more of them than fit in
    memory."""
    if e == 1:
        yield from (block[:, None] for block in _row_blocks(p, d, leads, size))
        return
    rows = np.concatenate(list(_row_blocks(p, d, leads, _BLOCK_ENTRIES // (d + 1))))
    if ascending:
        picks = itertools.combinations(range(len(rows)), e)
    else:
        picks = itertools.permutations(range(len(rows)), e)
    while len(pick := np.array(list(itertools.islice(picks, size)), dtype=np.int64)):
        yield rows[pick]


@functools.lru_cache(maxsize=16)
def _leg_stack(p: int, d: int, e: int, leads: Tuple[int, ...], ascending: bool):
    """Every map of :func:`_maps` in one read-only stack, shared by every
    search over the leg, the symmetric search's root included; None if they
    hold more than _BLOCK_ENTRIES entries.  The cache holds at most 16
    stacks, so at most 2^20 entries (8 MiB)."""
    size = _BLOCK_ENTRIES // max(1, e * d)
    stack = np.zeros((0, e, d), dtype=np.int64)
    for block in _maps(p, d, e, leads, ascending, size):
        if len(stack) + len(block) > size:
            return None
        stack = np.concatenate((stack, block))
    stack.setflags(write=False)
    return stack


def _restriction_dfs(g: Tensor, f: Tensor) -> Optional[List[np.ndarray]]:
    """The first map arrays, in :func:`_maps` order on legs 1..k-1, with
    (A1 (x) ... (x) Ak) f = g = <e>; the last leg is solved linearly.  A
    chunk of partial tensors meets all maps of the next leg in one matmul,
    prefix-major, and each block of whole tuples gets one batched solve
    (:func:`linalg.solve_stack`).  A leg's first chunk holds as many
    prefixes as give about _FIRST_CHUNK entries of the next partial tensors
    (at least one), so a small refutation makes at most one batched solve;
    chunks then double up to _BLOCK_ENTRIES entries a block, and a larger
    leg streams under one prefix.  The chunks change no answer, only how much is
    solved before an early find returns: <2> <= tight over F2 solves a first
    block of 84 tuples.
    Once every leg of f from leg j >= 2 on has dimension e, the maps on
    those legs are invertible (each flattening of <e> has rank e), so a
    partial tensor that reaches <e> vanishes at every prefix
    (i_0, ..., i_(j-1)) that is not constant: the others are dropped before
    leg j is enumerated or solved, and the indices of the rest map back, so
    the first find stays the first.
    Nothing else is pruned before the solve: one that succeeds puts g's
    columns in every partial tensor's span and needs independent rows.
    """
    domain = f.domain
    p, k = domain.p, f.order
    garr = g.array
    e = garr.shape[0]
    if e == 0:  # any maps of these shapes send f onto the empty g
        return [domain.zeros((0, d)) for d in f.dims]
    square = [e > 1 and leg >= 2 and set(f.dims[leg:]) == {e} for leg in range(k)]

    def walk(leg: int, partials: np.ndarray):
        """(i, maps on the legs from ``leg`` on) for the first entry i of the
        stack ``partials`` that reaches g, or None."""
        if not square[leg]:
            return descend(leg, partials)
        # residues are nonnegative: a zero weighted sum means zeros off the diagonal
        keep = np.flatnonzero(partials @ _off_diagonal(e, leg, k) == 0)
        found = descend(leg, partials[keep]) if len(keep) else None
        return None if found is None else (keep[found[0]], found[1])

    def descend(leg: int, partials: np.ndarray):
        """``walk`` on partial tensors that are not pruned at ``leg``."""
        if leg == k - 1:
            T = partials.reshape(len(partials), -1, f.dims[-1])
            ok, X = linalg.solve_stack(T, garr.reshape(-1, garr.shape[-1]), domain)
            return next(((i, [X[i].T]) for i in np.flatnonzero(ok)), None)
        d, before, after = f.dims[leg], e**leg, math.prod(f.dims[leg + 1:])
        size = max(1, _BLOCK_ENTRIES // max(e * d, before * e * after))  # maps per block
        stack = _leg_stack(p, d, e, (1,), leg == 0 and e > 1)  # one row: no order
        streamed = stack is None or len(stack) > size
        cap = 1 if streamed else max(1, size // max(1, len(stack)))
        # the first chunk holds about _FIRST_CHUNK entries of the next partials
        per_prefix = (1 if streamed else len(stack)) * before * e * after
        lo, step = 0, min(cap, max(1, _FIRST_CHUNK // max(1, per_prefix)))
        while lo < len(partials):
            chunk = partials[lo:lo + step]
            chunk = chunk.reshape(len(chunk), 1, before, d, after)
            for maps in _maps(p, d, e, (1,), leg == 0, size) if streamed else [stack]:
                # (prefix, map, legs before, this leg, legs after): prefix-major
                nxt = np.matmul(maps[:, None], chunk) % p
                found = walk(leg + 1, nxt.reshape(-1, before * e * after))
                if found is not None:
                    i, rest = found
                    return lo + i // len(maps), [maps[i % len(maps)]] + rest
            lo, step = lo + step, min(2 * step, cap)
        return None

    found = walk(0, f.array.reshape(1, -1) % p)
    return None if found is None else found[1]


@functools.lru_cache(maxsize=16)
def _off_diagonal(e: int, m: int, k: int) -> np.ndarray:
    """0/1 weights on a raveled e^k array: 1 at the entries whose prefix
    (i_0, ..., i_(m-1)) is not constant.  Read-only (at most 16 keys of e^k
    entries each)."""
    # (i, ..., i) sits at i (1 + e + ... + e^(m-1)), the multiples below e^m
    prefixes = np.arange(e**m) % sum(e**j for j in range(m)) != 0
    weights = np.repeat(prefixes, e ** (k - m)).astype(np.int64)
    weights.setflags(write=False)
    return weights


# ---------------------------------------------------------------------------
# subrank / symmetric subrank
# ---------------------------------------------------------------------------

def symsubrank_exact(
    f: Tensor, budget: int = DEFAULT_BUDGET
) -> Tuple[int, Certificate]:
    """Largest r with a verified <r> <=_s f certificate, by one search from
    r0, the least flattening rank of f, or from r0 - 1 when f is concise
    (every dimension r0) and not symmetric, as then no map reaches <r0>.
    The budget gate counts C(N, e) representatives for that start e: C(N, r)
    grows with r up to d <= (N + 1) / 2."""
    _check_search(f, "symmetric restriction search", True)
    return _symsubrank_from(f, _least_flattening_rank(f), budget)


def _least_flattening_rank(f: Tensor) -> int:
    """min over legs of the rank of f's one-leg flattening (one leg for a
    matrix, whose row and column ranks agree): a bound on both subranks."""
    return min(flattening_rank(f, [leg]) for leg in range(1 if f.order == 2 else f.order))


def _symsubrank_from(f: Tensor, r0: int, budget: int) -> Tuple[int, Certificate]:
    """:func:`symsubrank_exact` of a checked f whose least flattening rank is r0."""
    d, k, p = f.dims[0], f.order, f.domain.p
    rows = np.zeros((0, d), dtype=np.int64)
    # A witness A of <r0> <=_s f for a concise f (d = r0) is an invertible
    # r0 x r0 map, so f = (A^-1)^{(x)k} <r0> is symmetric: when f is not,
    # the search starts one step lower, and the gate counts that search.
    top = r0 - 1 if d == r0 and not is_symmetric(f) else r0
    if top:
        _check_sym_budget(f, top, budget)
        rows = _sym_dfs(unit_tensor(top, k, f.domain).array, f.array, p, floor=0)
    target = unit_tensor(len(rows), k, f.domain)
    return len(rows), _certified("symmetric-restriction", [rows], target, f)


def subrank_exact(f: Tensor, budget: int = DEFAULT_BUDGET) -> Tuple[int, Certificate]:
    """Largest r with a verified <r> <= f certificate: for a matrix its rank,
    from one reduced echelon form; otherwise searched from the least flattening
    rank of f down."""
    _check_search(f, "restriction search", False)
    if f.order == 2:
        return _matrix_subrank(f)
    return _subrank_from(f, _least_flattening_rank(f), budget)


def _matrix_subrank(f: Tensor) -> Tuple[int, Certificate]:
    """<r> <= f through the maps (P[:r], S) of :func:`_unit_maps`."""
    maps = _unit_maps(f)
    r = len(maps[0])
    return r, _certified("restriction", maps, unit_tensor(r, 2, f.domain), f)


def _subrank_from(f: Tensor, r0: int, budget: int,
                  floor: Optional[Tuple[int, Certificate]] = None) -> Tuple[int, Certificate]:
    """:func:`subrank_exact` of a checked f, over a prime field, whose least
    flattening rank is r0 (for a matrix, one reduced echelon form decides).
    ``floor``, (Q_s, its symmetric certificate), ends the search above Q_s
    and then certifies Q_s, as <r> <=_s f implies <r> <= f."""
    k = f.order
    low, sym = floor or (0, None)
    if k == 2 and low < r0:
        return _matrix_subrank(f)
    for r in range(r0, low, -1):
        cert = _restriction_search(unit_tensor(r, k, f.domain), f, budget)
        if cert is not None:
            return r, cert
    maps = [sym.maps[0].array] * k if sym else [np.zeros((0, dl), np.int64) for dl in f.dims]
    return low, _certified("restriction", maps, unit_tensor(low, k, f.domain), f)


# ---------------------------------------------------------------------------
# small symmetric (Waring) rank by meet-in-the-middle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymrankResult:
    """Outcome of the small symmetric-rank search.

    ``value`` is None when the budget ran out before a witness was found
    ("unknown" is a value, not an error); ``lower_bound`` always holds.
    """

    value: Optional[int]
    lower_bound: int
    vectors: Optional[np.ndarray]


def symrank_small(f: Tensor, budget: int = DEFAULT_BUDGET) -> SymrankResult:
    """Least r with f = sum of r k-th powers of vectors, by exhaustion.

    Searches r upward from the flattening-rank lower bound, enumerating
    multisets of vectors meet-in-the-middle (half-sums are hashed).  The
    half enumeration size p^(d * ceil(r/2)) must stay within budget.
    """
    if f.order < 1:
        raise ValueError("symmetric rank needs order >= 1")
    if not f.is_cubical:
        raise ValueError("symmetric rank needs a cubical tensor")
    if not is_symmetric(f):
        raise ValueError("symrank_small needs a symmetric tensor")
    if not isinstance(f.domain, PrimeField):
        raise DomainError("symrank_small runs over prime fields only")
    domain = f.domain
    p, d, k = domain.p, f.dims[0], f.order
    if not domain.nonzero(f.array).any():
        return SymrankResult(value=0, lower_bound=0, vectors=np.zeros((0, d), np.int64))
    lower = flattening_rank(f, [0]) if k > 1 else 1  # a vector is its own first power
    r = max(lower, 1)

    def fits(r: int) -> bool:
        return p ** (d * ((r + 1) // 2)) <= budget and r < p**d

    if fits(r):  # the gate comes first: the powers below hold p^d * d^k entries
        vectors = next(_row_blocks(p, d, None, p**d))[1:]  # drop the zero vector
        powers = _kron_rows([vectors] * k, domain)
        target = f.array.reshape(-1) % p
        while fits(r):
            found = _mitm_decompose(target, powers, r, (r + 1) // 2, p)
            if found is not None:
                witness = vectors[list(found)]
                total = _rank_one_sum([1] * r, [witness] * k, domain)
                if not domain.arrays_equal(total, f.array):
                    raise RuntimeError("internal error: Waring decomposition failed to verify")
                return SymrankResult(value=r, lower_bound=lower, vectors=witness)
            r += 1
    return SymrankResult(value=None, lower_bound=lower, vectors=None)


def _mitm_decompose(
    target: np.ndarray, powers: np.ndarray, r: int, a: int, p: int
) -> Optional[Tuple[int, ...]]:
    """Find r rows of ``powers`` (a multiset) summing to target, split a + (r-a):
    the first multiset of r - a rows per half-sum goes into a table, and the
    first multiset of a rows whose complement is in it wins."""
    sums_b: Dict[bytes, Tuple[int, ...]] = {}
    for combo, s in _half_sums(powers, r - a, p):
        sums_b.setdefault(s.tobytes(), combo)
    for combo, rest in _half_sums(powers, a, p, target):
        if (match := sums_b.get(rest.tobytes())) is not None:
            return combo + match
    return None


def _half_sums(powers: np.ndarray, size: int, p: int, target: Optional[np.ndarray] = None):
    """Every multiset of ``size`` rows of ``powers``, in
    ``combinations_with_replacement`` order, with its row sum mod p (or target
    minus it): one gather-sum per block of at most _BLOCK_ENTRIES entries."""
    combos = itertools.combinations_with_replacement(range(len(powers)), size)
    step = max(1, _BLOCK_ENTRIES // (max(1, size) * powers.shape[1]))
    while chunk := list(itertools.islice(combos, step)):
        sums = powers[np.array(chunk, dtype=np.int64).reshape(len(chunk), size)].sum(axis=1)
        yield from zip(chunk, (sums if target is None else target - sums) % p)

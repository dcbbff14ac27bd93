"""Decision procedures for restriction and symmetric restriction.

Everything here answers questions of the form "is g reachable from f by
linear maps on the legs?" and returns a re-verifiable :class:`Certificate`
(or a refutation by exhaustion).  Exhaustive searches run over prime fields
only and respect a hard candidate budget: exceeding it raises
:class:`SearchInfeasibleError`, never a silent "no".

When the target is a unit tensor <e>, the searches enumerate one
representative per orbit of the stabilizer of <e>; other targets enumerate
every map.  A search raises when the number of representatives (or maps)
it could enumerate, :attr:`SearchInfeasibleError.required`, exceeds its
budget.

Symmetric searches share one batched branch and bound, :func:`_sym_dfs`;
:func:`symsubrank_exact` runs it once, from the least flattening rank of f.

Determinism: canonical representatives are enumerated in lexicographic order
of their rows, and the first certificate found is returned (for
:func:`symsubrank_exact`, the first of the largest size).  That first
certificate may differ from the one a full enumeration would meet first; it
re-verifies all the same.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .domains import Domain, DomainError, PrimeField
from .tensors import (
    LinearMap,
    Tensor,
    _apply_leg,
    _power_sum,
    apply,
    apply_sym,
    flattening_rank,
    is_symmetric,
    map_from_json,
    map_to_json,
    matrix_rank,
    support,
    tensor_from_json,
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
    "reconstruct_waring",
]

DEFAULT_BUDGET = 1 << 26


class SearchInfeasibleError(RuntimeError):
    """The exhaustive search would exceed the candidate budget.

    ``required`` is the exact number of candidates the search can enumerate:
    canonical representatives for a unit target, every map otherwise (for
    restriction, maps on all legs but the last, which is solved linearly).
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


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "kind": cert.kind,
        "target": tensor_to_json(cert.target),
        "maps": [map_to_json(m) for m in cert.maps],
    }


def certificate_from_json(obj: dict) -> Certificate:
    return Certificate(
        kind=obj["kind"],
        target=tensor_from_json(obj["target"]),
        maps=tuple(map_from_json(m) for m in obj["maps"]),
    )


# ---------------------------------------------------------------------------
# symmetric restriction: one map, batched branch and bound over its rows
# ---------------------------------------------------------------------------

# About the most entries one batched contraction of :func:`_sym_dfs` holds.
_BLOCK_ENTRIES = 1 << 16


def symrestriction_exists(
    g: Tensor, f: Tensor, budget: int = DEFAULT_BUDGET
) -> Optional[Certificate]:
    """Search for A with A^{(x)k} f = g; None after exhaustive refutation.

    Prime fields only.  Rows of A are extended one at a time in lexicographic
    order (:func:`_sym_dfs`); a partial map survives only while every
    already-determined entry of the image matches g.  For g = <e> the rows
    are nonzero, strictly increasing, and each the least in its orbit under
    the k-th roots of unity: (P D A)^{(x)k} f = <e> whenever
    A^{(x)k} f = <e>, for a permutation P and a diagonal D with D^k = I.
    """
    _check_search_pair(g, f)
    k = f.order
    e, d = g.dims[0], f.dims[0]
    # Flattening ranks never increase under restriction.
    for leg in range(k):
        if flattening_rank(g, [leg]) > flattening_rank(f, [leg]):
            return None
    unit = _is_unit(g)
    _check_sym_budget(f, e, unit, budget)
    if e == 0:
        return _certified_sym(np.zeros((0, d), dtype=np.int64), g, f)
    leads = _root_orbit_leads(f.domain.p, k) if unit else None
    rows = _sym_dfs(g.array, f.array, f.domain.p, leads, floor=e - 1)
    return _certified_sym(rows, g, f) if len(rows) else None


def _check_sym_budget(f: Tensor, e: int, unit: bool, budget: int) -> None:
    """Raise unless the e x d maps the search enumerates fit the budget."""
    p, d, k = f.domain.p, f.dims[0], f.order
    if unit:
        # the k-th roots of unity act freely on the nonzero rows
        required = math.comb((p**d - 1) // math.gcd(k, p - 1), e)
    else:
        required = p ** (e * d)
    if required > budget:
        raise SearchInfeasibleError(required, budget, f"map search over F_{p}^({e}x{d})")


def _is_unit(g: Tensor) -> bool:
    """True iff g is the unit tensor <e> of its order over its domain."""
    return tensors_equal(g, unit_tensor(g.dims[0], g.order, g.domain))


def _root_orbit_leads(p: int, k: int) -> Tuple[int, ...]:
    """The least element of each orbit of F_p^* under the k-th roots of unity."""
    roots = [z for z in range(1, p) if pow(z, k, p) == 1]
    return tuple(a for a in range(1, p) if all(a <= a * z % p for z in roots))


def _row_codes(p: int, d: int, leads: Optional[Sequence[int]], start: int = 0):
    """Ascending codes >= start of rows in F_p^d whose first nonzero entry is
    in ``leads`` (every row, zero included, when ``leads`` is None).

    A row's code is its base-p value, first entry most significant, so
    ascending codes are rows in lexicographic order.
    """
    if leads is None:
        yield from range(start, p**d)
        return
    for j in range(d):
        step = p**j
        for a in leads:
            yield from range(max(start, a * step), (a + 1) * step)


def _row(code: int, p: int, d: int) -> List[int]:
    """The row of F_p^d with the given code."""
    row = [0] * d
    for i in range(d - 1, -1, -1):
        code, row[i] = divmod(code, p)
    return row


def _row_blocks(p: int, d: int, leads: Optional[Sequence[int]], size: int):
    """The rows of :func:`_row_codes` (start 0) in stacks of at most ``size``."""
    # keep the rows whose first nonzero entry (0 for the zero row) is a lead
    lead = np.ones(p, dtype=bool) if leads is None else np.bincount(leads, minlength=p) > 0
    for lo in range(0, p**d, size):
        codes = np.arange(lo, min(lo + size, p**d), dtype=np.int64)
        rows = codes[:, None] // p ** np.arange(d - 1, -1, -1) % p
        rows = rows[lead[rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]]]
        if len(rows):
            yield rows


def _check_search_pair(g: Tensor, f: Tensor) -> None:
    if g.order != f.order:
        raise ValueError(f"order mismatch: {g.order} vs {f.order}")
    if g.order < 2:
        raise ValueError("symmetric restriction search needs order >= 2")
    if g.domain != f.domain:
        raise DomainError(f"domain mismatch: {g.domain.name} vs {f.domain.name}")
    if not (f.is_cubical and g.is_cubical):
        raise ValueError("symmetric restriction needs cubical tensors")
    if not isinstance(f.domain, PrimeField):
        raise DomainError("exhaustive search runs over prime fields only")


def _certified_sym(rows: np.ndarray, g: Tensor, f: Tensor) -> Certificate:
    cert = Certificate(
        kind="symmetric-restriction",
        maps=(LinearMap(f.domain, rows),),
        target=g,
    )
    if not verify_certificate(cert, f):
        raise RuntimeError("internal error: search produced an invalid certificate")
    return cert


def _sym_dfs(
    G: np.ndarray, F: np.ndarray, p: int, leads: Optional[Sequence[int]], floor: int
) -> np.ndarray:
    """Rows of A with A^{(x)k} F = G[:r, ..., :r] for the largest r in
    (floor, len(G)], by branch and bound; no rows when no such r has one.

    A node keeps each candidate row under which the image equals G's
    leading block, scoring all candidates in batched contractions
    (:func:`_images`).  With ``leads`` (G = <e>) rows strictly increase, and
    as a row kept under rows 0..i is kept under rows 0..i-1, a child's
    candidates are its parent's survivors after the chosen row; a branch
    stops once it cannot beat the largest set so far, and the result is the
    lexicographically first largest set.
    """
    k, d, e = F.ndim, F.shape[0], G.shape[0]
    leading = [G[(slice(0, i + 1),) * k].reshape(-1) % p for i in range(e)]
    size = max(1, _BLOCK_ENTRIES // (e * d ** (k - 1)))
    best: List = [floor, np.zeros((0, d), dtype=np.int64)]

    def extend(rows: np.ndarray, blocks) -> bool:
        """Search below ``rows``; True once e rows are found."""
        i = len(rows)
        found = [np.zeros((0, d), dtype=np.int64)]
        for cand in blocks:
            maps = np.empty((len(cand), i + 1, d), dtype=np.int64)
            maps[:, :i] = rows
            maps[:, i] = cand
            found.append(cand[(_images(maps, F, p) == leading[i]).all(axis=1)])
            if i + 1 == e and len(found[-1]):
                break
        found = np.concatenate(found)
        for j in range(len(found)):
            if leads is not None and i + len(found) - j <= best[0]:
                break
            grown = np.concatenate((rows, found[j:j + 1]))
            if i + 1 > best[0]:
                best[:] = [i + 1, grown]
                if i + 1 == e:
                    return True
            if leads is None:
                rest = _row_blocks(p, d, None, size)
            else:
                rest = (found[lo:lo + size] for lo in range(j + 1, len(found), size))
            if extend(grown, rest):
                return True
        return False

    extend(np.zeros((0, d), dtype=np.int64), _row_blocks(p, d, leads, size))
    return best[1]


def _images(maps: np.ndarray, F: np.ndarray, p: int) -> np.ndarray:
    """A^{(x)k} F, flattened, for every map A in the stack ``maps`` (m x r x d).

    One batched matmul per leg; each leg's image moves to the end, so after
    k legs they stand in order.
    """
    t = F[None]
    for _ in range(F.ndim):
        t = (maps @ t.reshape(len(t), F.shape[0], -1) % p).swapaxes(1, 2)
    return t.reshape(len(maps), -1)


# ---------------------------------------------------------------------------
# restriction: independent maps, leg-by-leg DFS with a linear last leg
# ---------------------------------------------------------------------------

def restriction_exists(
    g: Tensor, f: Tensor, budget: int = DEFAULT_BUDGET
) -> Optional[Certificate]:
    """Search for per-leg maps with (A1 (x) ... (x) Ak) f = g.

    Order 2 is constructive over any domain (rank normal forms).  Higher
    orders enumerate maps for legs 1..k-1 lexicographically, prune by a
    column-space test on the partially applied tensor, and solve the last
    leg linearly.  For g = <e> every map has independent rows, each with
    first nonzero entry 1, and the rows of A1 strictly increase:
    (P D1 A1 (x) ... (x) P Dk Ak) f = <e> whenever (A1, ..., Ak) works, for a
    permutation P and diagonals with D1 ... Dk = I, and Dk absorbs the
    scaling of the other legs in the last-leg solve.
    """
    if g.order != f.order:
        raise ValueError(f"order mismatch: {g.order} vs {f.order}")
    if g.domain != f.domain:
        raise DomainError(f"domain mismatch: {g.domain.name} vs {f.domain.name}")
    k = f.order
    if k < 2:
        raise ValueError("restriction search needs order >= 2")
    if k == 2:
        return _matrix_restriction(g, f)
    if not isinstance(f.domain, PrimeField):
        raise DomainError(
            "exhaustive restriction search (order >= 3) runs over prime fields only"
        )
    for leg in range(k):
        if flattening_rank(g, [leg]) > flattening_rank(f, [leg]):
            return None
    return _restriction_search(g, f, _is_unit(g), budget)


def _restriction_search(
    g: Tensor, f: Tensor, unit: bool, budget: int
) -> Optional[Certificate]:
    """The budget gate and the search of :func:`restriction_exists`, order >= 3."""
    p = f.domain.p
    k = f.order
    if unit:
        e = g.dims[0]
        required = _frame_count(p, f.dims[0], e) // math.factorial(e)
        for leg in range(1, k - 1):
            required *= _frame_count(p, f.dims[leg], e)
    else:
        required = 1
        for leg in range(k - 1):
            required *= p ** (g.dims[leg] * f.dims[leg])
    if required > budget:
        raise SearchInfeasibleError(required, budget, "leg-by-leg map search")
    maps = _restriction_dfs(g, f, unit)
    if maps is None:
        return None
    cert = Certificate(kind="restriction", maps=tuple(maps), target=g)
    if not verify_certificate(cert, f):
        raise RuntimeError("internal error: search produced an invalid certificate")
    return cert


def _matrix_restriction(g: Tensor, f: Tensor) -> Optional[Certificate]:
    """Constructive matrix case via rank normal forms P M Q = I_r (+) 0."""
    domain = f.domain
    rg = matrix_rank(g)
    rf = matrix_rank(f)
    if rg > rf:
        return None
    Pf, Qf, _ = linalg.equivalence_diagonalize(f.array, domain)
    Pg, Qg, _ = linalg.equivalence_diagonalize(g.array, domain)
    Pg_inv = linalg.invert(Pg, domain)
    Qg_inv = linalg.invert(Qg, domain)
    assert Pg_inv is not None and Qg_inv is not None
    E1 = domain.zeros((g.dims[0], f.dims[0]))
    E2 = domain.zeros((f.dims[1], g.dims[1]))
    for i in range(rg):
        E1[i, i] = 1
        E2[i, i] = 1
    A1 = domain.reduce(Pg_inv @ E1 @ Pf)
    A2 = domain.reduce(Qf @ E2 @ Qg_inv).T
    cert = Certificate(
        kind="restriction",
        maps=(LinearMap(domain, A1), LinearMap(domain, A2)),
        target=g,
    )
    if not verify_certificate(cert, f):
        raise RuntimeError("internal error: rank-normal-form certificate failed")
    return cert


def _enumerate_maps(e: int, d: int, p: int):
    """All e x d maps over F_p in row-major lexicographic entry order."""
    for entries in itertools.product(range(p), repeat=e * d):
        yield np.array(entries, dtype=np.int64).reshape(e, d)


def _frame_count(p: int, d: int, e: int) -> int:
    """Number of ordered e-tuples of independent projective points of F_p^d."""
    count = 1
    for i in range(e):
        count *= p**d - p**i
    return count // (p - 1) ** e


def _frames(e: int, d: int, p: int, ascending: bool):
    """e x d maps over F_p with independent rows whose first nonzero entry is
    1, in lexicographic order of their rows; the rows strictly increase when
    ``ascending``.  There are :func:`_frame_count` of them, divided by e! when
    ``ascending``."""
    rows: List[List[int]] = []

    def extend(start: int, span: set):
        if len(rows) == e:
            yield np.array(rows, dtype=np.int64).reshape(e, d)
            return
        for code in _row_codes(p, d, (1,), start):
            row = _row(code, p, d)
            if tuple(row) in span:
                continue
            rows.append(row)
            wider = span if len(rows) == e else {  # the last span is never tested
                tuple((x + c * y) % p for x, y in zip(v, row))
                for v in span
                for c in range(p)
            }
            yield from extend(code + 1 if ascending else 0, wider)
            rows.pop()

    return extend(0, {(0,) * d})


def _restriction_dfs(g: Tensor, f: Tensor, unit: bool) -> Optional[List[LinearMap]]:
    domain = f.domain
    k = f.order
    garr = g.array
    if 0 in garr.shape:  # any maps of these shapes send f onto the empty g
        return [LinearMap(domain, domain.zeros((e, d))) for e, d in zip(garr.shape, f.dims)]

    def descend(leg: int, partial: np.ndarray) -> Optional[List[np.ndarray]]:
        if leg == k - 1:
            X = _solve_last_leg(garr, partial, domain)
            return None if X is None else [X]
        e, d = garr.shape[leg], f.dims[leg]
        if unit:
            maps = _frames(e, d, domain.p, ascending=leg == 0)
        else:
            maps = _enumerate_maps(e, d, domain.p)
        for A in maps:
            nxt = _apply_leg(A, partial, leg, domain)
            # prune: flatten fixed legs 0..leg as rows; g's columns must lie
            # in the span of the partial tensor's columns
            rows = int(np.prod(garr.shape[: leg + 1]))
            Tf = nxt.reshape(rows, -1)
            Gf = garr.reshape(rows, -1)
            if not linalg.columns_contained(Tf, Gf, domain):
                continue
            rest = descend(leg + 1, nxt)
            if rest is not None:
                return [A] + rest
        return None

    arrays = descend(0, f.array)
    if arrays is None:
        return None
    return [LinearMap(domain, a) for a in arrays]


def _solve_last_leg(
    garr: np.ndarray, partial: np.ndarray, domain: Domain
) -> Optional[np.ndarray]:
    """Solve for the final map X in (I (x) ... (x) X) t = g linearly."""
    k = garr.ndim
    e, d = garr.shape[k - 1], partial.shape[k - 1]
    T2 = partial.reshape(-1, d)
    G2 = garr.reshape(-1, e)
    Xt = linalg.solve(T2, G2, domain)
    if Xt is None:
        return None
    return domain.reduce(Xt.T)


# ---------------------------------------------------------------------------
# subrank / symmetric subrank
# ---------------------------------------------------------------------------

def symsubrank_exact(
    f: Tensor, budget: int = DEFAULT_BUDGET
) -> Tuple[int, Certificate]:
    """Largest r with a verified <r> <=_s f certificate, by one search from
    r0, the least flattening rank of f.  The budget gate counts C(N, r0)
    representatives: C(N, r) grows with r up to d <= (N + 1) / 2."""
    if not f.is_cubical:
        raise ValueError("symmetric subrank needs a cubical tensor")
    if not isinstance(f.domain, PrimeField):
        raise DomainError("symsubrank_exact runs over prime fields only")
    d, k, p = f.dims[0], f.order, f.domain.p
    if k < 2:
        raise ValueError("symmetric restriction search needs order >= 2")
    r0 = min(flattening_rank(f, [leg]) for leg in range(k))
    rows = np.zeros((0, d), dtype=np.int64)
    if r0:
        _check_sym_budget(f, r0, True, budget)
        rows = _sym_dfs(unit_tensor(r0, k, f.domain).array, f.array, p,
                        _root_orbit_leads(p, k), floor=0)
    return len(rows), _certified_sym(rows, unit_tensor(len(rows), k, f.domain), f)


def subrank_exact(f: Tensor, budget: int = DEFAULT_BUDGET) -> Tuple[int, Certificate]:
    """Largest r with a verified <r> <= f certificate, searched from the
    least flattening rank of f down."""
    k = f.order
    if k == 2:
        r = matrix_rank(f)
        cert = _matrix_restriction(unit_tensor(r, 2, f.domain), f)
        assert cert is not None
        return r, cert
    if not isinstance(f.domain, PrimeField):
        raise DomainError("subrank_exact (order >= 3) runs over prime fields only")
    if k < 2:
        raise ValueError("restriction search needs order >= 2")
    r0 = min(flattening_rank(f, [leg]) for leg in range(k))
    for r in range(r0, 0, -1):
        cert = _restriction_search(unit_tensor(r, k, f.domain), f, True, budget)
        if cert is not None:
            return r, cert
    maps = tuple(
        LinearMap(f.domain, np.zeros((0, dl), dtype=np.int64)) for dl in f.dims
    )
    cert = Certificate(kind="restriction", maps=maps, target=unit_tensor(0, k, f.domain))
    assert verify_certificate(cert, f)
    return 0, cert


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
    if not f.is_cubical:
        raise ValueError("symmetric rank needs a cubical tensor")
    if not is_symmetric(f):
        raise ValueError("symrank_small needs a symmetric tensor")
    if not isinstance(f.domain, PrimeField):
        raise DomainError("symrank_small runs over prime fields only")
    domain = f.domain
    p, d, k = domain.p, f.dims[0], f.order
    if not support(f):
        return SymrankResult(value=0, lower_bound=0, vectors=np.zeros((0, d), np.int64))
    lower = flattening_rank(f, [0])
    vectors = [
        np.array(v, dtype=np.int64)
        for v in itertools.product(range(p), repeat=d)
    ][1:]  # drop the zero vector
    powers = []
    for v in vectors:
        pw = v
        for _ in range(k - 1):
            pw = np.multiply.outer(pw, v) % p
        powers.append(pw.reshape(-1))
    target = f.array.reshape(-1) % p
    r = max(lower, 1)
    while True:
        half = (r + 1) // 2
        if p ** (d * half) > budget or r > len(vectors):
            return SymrankResult(value=None, lower_bound=lower, vectors=None)
        found = _mitm_decompose(target, powers, r, half, p)
        if found is not None:
            vecs = np.array([vectors[i] for i in found], dtype=np.int64)
            return SymrankResult(value=r, lower_bound=lower, vectors=vecs)
        r += 1


def reconstruct_waring(vectors: np.ndarray, f: Tensor) -> bool:
    """Check that the k-th powers of the given vectors sum to f exactly."""
    domain = f.domain
    vectors = domain.asarray(vectors).reshape(-1, f.dims[0])
    total = _power_sum([1] * len(vectors), vectors, f.order, domain)
    return domain.arrays_equal(total, f.array)


def _mitm_decompose(
    target: np.ndarray, powers: List[np.ndarray], r: int, a: int, p: int
) -> Optional[Tuple[int, ...]]:
    """Find r power indices (multiset) summing to target, split a + (r-a)."""

    def total(combo: Tuple[int, ...]) -> np.ndarray:
        s = np.zeros_like(target)
        for i in combo:
            s = (s + powers[i]) % p
        return s

    sums_b: Dict[bytes, Tuple[int, ...]] = {}
    for combo in itertools.combinations_with_replacement(range(len(powers)), r - a):
        sums_b.setdefault(total(combo).tobytes(), combo)
    for combo in itertools.combinations_with_replacement(range(len(powers)), a):
        match = sums_b.get(((target - total(combo)) % p).tobytes())
        if match is not None:
            return combo + match
    return None

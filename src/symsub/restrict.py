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

Determinism: canonical representatives are enumerated in lexicographic order
of their rows, and the first certificate found is returned.  That first
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
from .domains import Domain, DomainError, PrimeField, pack_bits
from .tensors import (
    LinearMap,
    Tensor,
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
    try:
        kind = obj["kind"]
        target = tensor_from_json(obj["target"])
        maps = tuple(map_from_json(m) for m in obj["maps"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed certificate JSON: {exc}") from exc
    return Certificate(kind=kind, maps=maps, target=target)


# ---------------------------------------------------------------------------
# symmetric restriction: one map, exhaustive DFS over its rows
# ---------------------------------------------------------------------------

def symrestriction_exists(
    g: Tensor, f: Tensor, budget: int = DEFAULT_BUDGET
) -> Optional[Certificate]:
    """Search for A with A^{(x)k} f = g; None after exhaustive refutation.

    Prime fields only.  Rows of A are extended one at a time in lexicographic
    order; a partial map survives only while every already-determined entry
    of the image matches g.  For g = <e> the rows are nonzero, strictly
    increasing, and each the least in its orbit under the k-th roots of
    unity: (P D A)^{(x)k} f = <e> whenever A^{(x)k} f = <e>, for a
    permutation P and a diagonal D with D^k = I.
    """
    _check_search_pair(g, f)
    domain = f.domain
    k = f.order
    e, d = g.dims[0], f.dims[0]
    p = domain.p
    unit = _is_unit(g)
    if unit:
        # the k-th roots of unity act freely on the nonzero rows
        required = math.comb((p**d - 1) // math.gcd(k, p - 1), e)
    else:
        required = p ** (e * d)
    if required > budget:
        raise SearchInfeasibleError(required, budget, f"map search over F_{p}^({e}x{d})")
    if e == 0:
        return _certified_sym(np.zeros((0, d), dtype=np.int64), g, f)
    # Flattening ranks never increase under restriction.
    for leg in range(k):
        if flattening_rank(g, [leg]) > flattening_rank(f, [leg]):
            return None
    leads = _root_orbit_leads(p, k) if unit else None
    if p == 2 and k == 2:
        rows = _sym_dfs_f2_matrix(g.array, f.array, e, d, leads)
    else:
        rows = _sym_dfs(g.array, f.array, e, d, domain, leads)
    if rows is None:
        return None
    return _certified_sym(np.array(rows, dtype=np.int64), g, f)


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
    G: np.ndarray,
    F: np.ndarray,
    e: int,
    d: int,
    domain: PrimeField,
    leads: Optional[Sequence[int]],
) -> Optional[List[List[int]]]:
    """Generic row-by-row DFS.  Accepted row i must satisfy every image
    entry whose index tuple has maximum coordinate i.  Rows are drawn from
    :func:`_row_codes` with ``leads``, strictly increasing when ``leads`` is
    given (the unit-target quotient)."""
    p = domain.p
    k = F.ndim
    chosen: List[int] = []
    arrs: List[np.ndarray] = []
    slices: List[np.ndarray] = []  # F contracted with each row on the last leg

    def value(jvec: Tuple[int, ...]) -> int:
        t = slices[jvec[k - 1]]
        for pos in range(k - 2, 0, -1):
            t = (t @ arrs[jvec[pos]]) % p
        return int((arrs[jvec[0]] @ t) % p)

    def extend(i: int) -> bool:
        start = chosen[-1] + 1 if leads is not None and chosen else 0
        for code in _row_codes(p, d, leads, start):
            cand = np.array(_row(code, p, d), dtype=np.int64)
            arrs.append(cand)
            slices.append(np.tensordot(F, cand, axes=([k - 1], [0])) % p)
            ok = all(
                value(jvec) == int(G[jvec]) % p
                for jvec in itertools.product(range(i + 1), repeat=k)
                if max(jvec) == i
            )
            if ok:
                chosen.append(code)
                if i + 1 == e or extend(i + 1):
                    return True
                chosen.pop()
            arrs.pop()
            slices.pop()
        return False

    return [_row(code, p, d) for code in chosen] if extend(0) else None


def _sym_dfs_f2_matrix(
    G: np.ndarray, F: np.ndarray, e: int, d: int, leads: Optional[Sequence[int]]
) -> Optional[List[List[int]]]:
    """Bit-packed DFS for the F_2 matrix case.  A row is its code (entry c in
    bit d-1-c, see :func:`_row_codes`) and image entries are parities.
    Candidates match :func:`_sym_dfs`."""
    # F @ row is looked up in two tables, over the row's low and high bits
    cols = [pack_bits(F[::-1, d - 1 - b] % 2) for b in range(d)]
    half = d // 2
    low, high = _xor_table(cols[:half]), _xor_table(cols[half:])
    gbits = (G % 2).tolist()
    chosen: List[Tuple[int, int]] = []  # (row, F @ row) per accepted row

    def extend(i: int) -> bool:
        start = chosen[-1][0] + 1 if leads is not None and chosen else 0
        for m in _row_codes(2, d, leads, start):
            fm = high[m >> half] ^ low[m & ((1 << half) - 1)]
            # parities inline: a call per test costs a third of the search
            if (m & fm).bit_count() & 1 != gbits[i][i]:
                continue
            if any(
                (mj & fm).bit_count() & 1 != gbits[j][i]
                or (m & fj).bit_count() & 1 != gbits[i][j]
                for j, (mj, fj) in enumerate(chosen)
            ):
                continue
            chosen.append((m, fm))
            if i + 1 == e or extend(i + 1):
                return True
            chosen.pop()
        return False

    return [_row(m, 2, d) for m, _ in chosen] if extend(0) else None


def _xor_table(words: Sequence[int]) -> List[int]:
    """Entry x is the XOR of the words at the set bits of x."""
    table = [0]
    for w in words:
        table += [x ^ w for x in table]
    return table


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
    p = f.domain.p
    unit = _is_unit(g)
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
            nxt = np.tensordot(A, partial, axes=([1], [leg]))
            nxt = domain.reduce(np.moveaxis(nxt, 0, leg))
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
    """Largest r with a verified <r> <=_s f certificate (search from d down)."""
    if not f.is_cubical:
        raise ValueError("symmetric subrank needs a cubical tensor")
    if not isinstance(f.domain, PrimeField):
        raise DomainError("symsubrank_exact runs over prime fields only")
    d = f.dims[0]
    k = f.order
    for r in range(d, 0, -1):
        cert = symrestriction_exists(unit_tensor(r, k, f.domain), f, budget)
        if cert is not None:
            return r, cert
    return 0, _certified_sym(
        np.zeros((0, d), dtype=np.int64), unit_tensor(0, k, f.domain), f
    )


def subrank_exact(f: Tensor, budget: int = DEFAULT_BUDGET) -> Tuple[int, Certificate]:
    """Largest r with a verified <r> <= f certificate."""
    k = f.order
    if k == 2:
        r = matrix_rank(f)
        cert = _matrix_restriction(unit_tensor(r, 2, f.domain), f)
        assert cert is not None
        return r, cert
    if not isinstance(f.domain, PrimeField):
        raise DomainError("subrank_exact (order >= 3) runs over prime fields only")
    for r in range(min(f.dims), 0, -1):
        cert = restriction_exists(unit_tensor(r, k, f.domain), f, budget)
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
        if p ** (d * half) > budget:
            return SymrankResult(value=None, lower_bound=lower, vectors=None)
        if r > len(vectors):
            return SymrankResult(value=None, lower_bound=lower, vectors=None)
        found = _mitm_decompose(target, powers, r, half, p)
        if found is not None:
            vecs = np.array([vectors[i] for i in found], dtype=np.int64)
            return SymrankResult(value=r, lower_bound=lower, vectors=vecs)
        r += 1


def reconstruct_waring(vectors: np.ndarray, f: Tensor) -> bool:
    """Check that the k-th powers of the given vectors sum to f exactly."""
    domain = f.domain
    k = f.order
    total = np.zeros_like(f.array)
    for v in vectors:
        pw = domain.asarray(v)
        for _ in range(k - 1):
            pw = domain.reduce(np.multiply.outer(pw, domain.asarray(v)))
        total = domain.reduce(total + pw)
    return domain.arrays_equal(total, f.array)


def _mitm_decompose(
    target: np.ndarray, powers: List[np.ndarray], r: int, a: int, p: int
) -> Optional[Tuple[int, ...]]:
    """Find r power indices (multiset) summing to target, split a + (r-a)."""
    b = r - a
    sums_b: Dict[bytes, Tuple[int, ...]] = {}
    if b == 0:
        sums_b[np.zeros_like(target).tobytes()] = ()
    else:
        for combo in itertools.combinations_with_replacement(range(len(powers)), b):
            s = np.zeros_like(target)
            for i in combo:
                s = (s + powers[i]) % p
            key = s.tobytes()
            if key not in sums_b:
                sums_b[key] = combo
    for combo in itertools.combinations_with_replacement(range(len(powers)), a):
        s = np.zeros_like(target)
        for i in combo:
            s = (s + powers[i]) % p
        need = (target - s) % p
        match = sums_b.get(need.tobytes())
        if match is not None:
            return combo + match
    return None

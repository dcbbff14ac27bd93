"""Reference checks that do not call symsub.

Every check takes plain numpy arrays (or Python ints) read out of symsub's
results and recomputes what they claim: leg contractions mod p, ranks by
exact elimination, subranks and symmetric subranks of small tensors by
brute force, entropies with numpy's eigen-solver.  A check returns None
when the claim holds and a one-line reason when it does not.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def contract(maps, arr, p):
    """(A1 (x) ... (x) Ak) arr, reduced mod p after every leg (p=0: complex)."""
    out = np.asarray(arr)
    for leg, m in enumerate(maps):
        m = np.asarray(m)
        out = np.moveaxis(np.tensordot(m, out, axes=([1], [leg])), 0, leg)
        if p:
            out = out % p
    return out


def unit(r, k, dtype=np.int64):
    out = np.zeros((r,) * k, dtype=dtype)
    for i in range(r):
        out[(i,) * k] = 1
    return out


def same(a, b, p, tol=1e-8):
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    if p:
        return bool(np.array_equal(a.astype(np.int64) % p, b.astype(np.int64) % p))
    return a.size == 0 or float(np.max(np.abs(a - b))) <= tol


def rank_mod_p(rows, p):
    """Rank of an integer matrix over F_p by elimination on Python ints."""
    m = [[int(v) % p for v in row] for row in np.asarray(rows).tolist()]
    rank, ncols = 0, len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [v * inv % p for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                c = m[i][col]
                m[i] = [(a - c * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def kron_power(arr, n, p):
    """arr^{(x)n} with legs merged first-factor-most-significant."""
    out = np.asarray(arr)
    k = out.ndim
    for _ in range(n - 1):
        outer = np.multiply.outer(out, arr)
        perm = [axis for j in range(k) for axis in (j, k + j)]
        shape = tuple(a * b for a, b in zip(out.shape, np.shape(arr)))
        out = outer.transpose(perm).reshape(shape)
        if p:
            out = out % p
    return out


def fully_symmetric(k):
    """Order-k, dimension-k tensor: 1 at every permutation of (0..k-1)."""
    out = np.zeros((k,) * k, dtype=np.int64)
    for perm in itertools.permutations(range(k)):
        out[perm] = 1
    return out


# ---------------------------------------------------------------------------
# certificates and exact values
# ---------------------------------------------------------------------------

def restriction_certificate(maps, kind, target, f, p, r):
    """maps carry f onto <r> (symmetric kind: one map on every leg)."""
    k = f.ndim
    legs = [maps[0]] * k if kind == "symmetric-restriction" else list(maps)
    if len(legs) != k:
        return f"certificate has {len(legs)} maps for order {k}"
    want = unit(r, k, np.complex128 if not p else np.int64)
    if not same(target, want, p):
        return f"certificate target is not <{r}>"
    if not same(contract(legs, f, p), want, p):
        return "certificate maps do not carry the tensor onto its target"
    return None


def rank_one_pair_codes(p):
    """Codes of the 2x2x2 tensors over F_p with subrank 2: a(x)b(x)c +
    a'(x)b'(x)c' with {a,a'}, {b,b'}, {c,c'} bases."""
    vecs = np.array([v for v in itertools.product(range(p), repeat=2) if any(v)])
    n = len(vecs)
    indep = (np.outer(vecs[:, 0], vecs[:, 1]) - np.outer(vecs[:, 1], vecs[:, 0])) % p != 0
    idx = np.array(list(itertools.product(range(n), repeat=3)))  # (T, 3)
    rank1 = np.einsum(
        "ti,tj,tk->tijk", vecs[idx[:, 0]], vecs[idx[:, 1]], vecs[idx[:, 2]]
    ).reshape(len(idx), 8)
    ok = np.ones((len(idx), len(idx)), dtype=bool)
    for leg in range(3):
        ok &= indep[np.ix_(idx[:, leg], idx[:, leg])]
    i, j = np.nonzero(ok)
    sums = (rank1[i] + rank1[j]) % p
    return set((sums @ (p ** np.arange(8))).tolist())


def subrank_2x2x2(arr, p, two_codes):
    arr = np.asarray(arr) % p
    if not arr.any():
        return 0
    return 2 if int(arr.ravel() @ (p ** np.arange(8))) in two_codes else 1


def vector_subrank(arr, p):
    """Largest r with A^{(x)k} arr = <r> for one r x d map A over F_p.

    The rows of A are vectors u_1..u_r with arr(u_a1, ..., u_ak) = 1 when
    all a_i agree and 0 otherwise, so this is a clique search over the
    nonzero vectors of F_p^d.
    """
    arr = np.asarray(arr) % p
    k, d = arr.ndim, arr.shape[0]
    vecs = np.array([v for v in itertools.product(range(p), repeat=d) if any(v)])
    val = arr
    for _ in range(k):
        val = np.tensordot(val, vecs.T, axes=([0], [0])) % p
    # val[i1..ik] = arr(v_i1, ..., v_ik)
    cand = [i for i in range(len(vecs)) if val[(i,) * k] == 1]
    best = 0

    def ok(chosen, w):
        pool = chosen + [w]
        for t in itertools.product(pool, repeat=k):
            if w in t and len(set(t)) > 1 and val[t] != 0:
                return False
        return True

    def grow(chosen, start):
        nonlocal best
        best = max(best, len(chosen))
        if len(chosen) == d:
            return
        for pos in range(start, len(cand)):
            w = cand[pos]
            if ok(chosen, w):
                grow(chosen + [w], pos + 1)
                if best == d:
                    return

    grow([], 0)
    return best


def _power(v, k, p):
    out = np.asarray(v, dtype=np.int64)
    for _ in range(k - 1):
        out = np.multiply.outer(out, np.asarray(v, dtype=np.int64)) % p
    return out


def power_sum_is(vectors, arr, p):
    """The k-th powers of ``vectors`` sum to arr over F_p."""
    arr = np.asarray(arr) % p
    total = np.zeros_like(arr)
    for v in vectors:
        total = (total + _power(v, arr.ndim, p)) % p
    return bool(np.array_equal(total, arr))


def symmetric_rank(arr, p, limit=8):
    """Fewest k-th powers of vectors over F_p that sum to arr, by brute force
    (None above ``limit``)."""
    arr = np.asarray(arr) % p
    pows = [_power(v, arr.ndim, p) for v in itertools.product(range(p), repeat=arr.shape[0])
            if any(v)]
    for s in range(limit + 1):
        for combo in itertools.combinations_with_replacement(range(len(pows)), s):
            acc = np.zeros_like(arr)
            for i in combo:
                acc = (acc + pows[i]) % p
            if np.array_equal(acc, arr):
                return s
    return None


def waring_terms(coefficients, vectors, k, p):
    """sum_i c_i v_i^{(x)k} on Python ints (object arrays) or complex."""
    d = len(vectors[0])
    total = np.zeros((d,) * k, dtype=object if p else np.complex128)
    for c, v in zip(coefficients, vectors):
        term = np.array(c if p else complex(c), dtype=object if p else np.complex128)
        vec = np.array([int(x) for x in v] if p else v, dtype=object if p else np.complex128)
        for _ in range(k):
            term = np.multiply.outer(term, vec)
        total = total + term
    return total % p if p else total


# ---------------------------------------------------------------------------
# congruence
# ---------------------------------------------------------------------------

def congruence_form(B, f, L, p, rank):
    """B f B^T = L, L lower triangular, B invertible, rank(f) nonzero pivots."""
    B = np.array(B, dtype=object) % p
    f = np.array(f, dtype=object) % p
    got = B.dot(f).dot(B.T) % p
    if not np.array_equal(got, np.array(L, dtype=object) % p):
        return "B f B^T differs from the reported L"
    if np.any(np.triu(got, 1) != 0):
        return "L is not lower triangular"
    if rank_mod_p(B, p) != B.shape[0]:
        return "B is singular"
    nz = int(np.count_nonzero(np.diagonal(got)))
    if nz != rank:
        return f"{nz} nonzero diagonal entries, rank is {rank}"
    return None


# ---------------------------------------------------------------------------
# hypergraphs
# ---------------------------------------------------------------------------

def adjacency(n, k, edges):
    arr = np.zeros((n,) * k, dtype=np.int64)
    for v in range(n):
        arr[(v,) * k] = 1
    for e in edges:
        arr[tuple(v - 1 for v in e)] = 1
    return arr


def independence_number(n, edges):
    sets = [set(e) for e in edges]
    for size in range(n, 0, -1):
        for chosen in itertools.combinations(range(1, n + 1), size):
            s = set(chosen)
            if not any(e <= s for e in sets):
                return size
    return 0


def induced_matching_number(n, k, edges):
    """Largest s with coordinate sets S_1..S_k of size s whose product meets
    E u diagonal in s coordinate-disjoint tuples."""
    phi = set(tuple(e) for e in edges) | {(v,) * k for v in range(1, n + 1)}
    for s in range(n, 0, -1):
        for sets in itertools.product(itertools.combinations(range(1, n + 1), s), repeat=k):
            inside = [t for t in phi if all(t[j] in sets[j] for j in range(k))]
            if len(inside) == s and all(
                len({t[j] for t in inside}) == s for j in range(k)
            ):
                return s
    return 0


# ---------------------------------------------------------------------------
# quantum
# ---------------------------------------------------------------------------

def marginals(arr):
    arr = np.asarray(arr, dtype=np.complex128)
    arr = arr / math.sqrt(float(np.sum(np.abs(arr) ** 2)))
    out = []
    for j in range(arr.ndim):
        m = np.moveaxis(arr, j, 0).reshape(arr.shape[j], -1)
        out.append(m @ m.conj().T)
    return out


def entropy_bits(rho):
    vals = np.linalg.eigvalsh(rho)
    vals = vals[vals > 1e-14]
    return float(max(-np.sum(vals * np.log2(vals)), 0.0))


def functional_value(arr, mode):
    """2^H(average marginal) (symmetric) or 2^(mean marginal entropy)."""
    rhos = marginals(arr)
    if mode == "sym":
        return 2.0 ** entropy_bits(sum(rhos) / len(rhos))
    return 2.0 ** (sum(entropy_bits(r) for r in rhos) / len(rhos))


def log_norm_derivative(arr, h):
    """d/dt 0.5 ln |e^{tH} (x) ... (x) e^{tH} f|^2 at t=0, central difference."""
    arr = np.asarray(arr, dtype=np.complex128)
    arr = arr / math.sqrt(float(np.sum(np.abs(arr) ** 2)))
    w, v = np.linalg.eigh(h)
    step = 1e-5

    def at(t):
        g = (v * np.exp(t * w)) @ v.conj().T
        image = contract([g] * arr.ndim, arr, 0)
        return 0.5 * math.log(float(np.sum(np.abs(image) ** 2)))

    return (at(step) - at(-step)) / (2 * step)

"""Turning plain restrictions into symmetric ones.

The route runs through the fully symmetric tensor h (the sum of
e_{pi(1)} (x) ... (x) e_{pi(k)} over all permutations pi):

* ``waring_h`` writes h as a signed sum of 2^{k-1} k-th powers;
* ``make_sym`` converts any restriction f >= g between symmetric tensors
  into a symmetric restriction f (x) h >=_s g (x) h by interleaving the k
  restriction maps along an auxiliary k-dimensional register;
* ``remove_powers`` and ``create_t`` produce, for any symmetric f with a
  flattening rank >= 2, a power c and a selection map with
  f^{(x)c} >=_s h, checked entry by entry on h without forming f^{(x)c};
* ``symmetrize_certificate`` chains the three into
  <r> <=_s f^{(x)(n+c)} from a plain witness <r> <= f^{(x)n}, checked
  through the chain's Kronecker structure on f^{(x)n} alone;
* ``symrank_upper`` turns a rank witness f <= <r> into an explicit
  Waring (symmetric) decomposition with r * 2^{k-1} terms.

All constructions need k! invertible, i.e. characteristic 0 or > k,
except ``remove_powers``/``create_t`` which only divide by field values.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import linalg
from .domains import ComplexNumbers, Domain, DomainError, PrimeField
from .restrict import Certificate, _certified, verify_certificate
from .tensors import (
    ENTRY_CAP,
    LinearMap,
    Tensor,
    TensorSizeError,
    _BLOCK_ENTRIES,
    _apply_leg,
    _kron_rows,
    _rank_one_sum,
    apply,
    apply_sym,
    flattening_rank,
    identity_map,
    is_symmetric,
    support,
    tensor_id,
    tensor_power,
    tensor_product,
    tensors_equal,
    unit_tensor,
)

__all__ = [
    "MissingKthRootError",
    "WaringDecomposition",
    "waring_reconstruct",
    "fully_symmetric",
    "waring_h",
    "make_sym",
    "remove_powers",
    "CreateTCertificate",
    "create_t",
    "selection_map",
    "SymmetrizeResult",
    "symmetrize_certificate",
    "SymrankUpperResult",
    "symrank_upper",
]

# candidate maps for a power are only materialized when the merged leg
# dimension d^c stays below 2^20 (c * log2(d) <= 20)
MAP_GATE_BITS = 20


class MissingKthRootError(ValueError):
    """A required root of the diagonal-clearing polynomial does not exist.

    ``failed`` lists (diagonal index, polynomial coefficients low-to-high)
    for each index that could not be cleared.
    """

    def __init__(self, msg: str, failed):
        super().__init__(msg)
        self.failed = failed


def _symmetric_dims(f: Tensor, what: str) -> Tuple[int, int]:
    """(d, k) of a symmetric f of order k >= 1 with legs of dimension d."""
    if not is_symmetric(f):
        raise ValueError(f"{what} needs a symmetric tensor")
    if f.order < 1:
        raise ValueError(f"{what} needs order >= 1")
    return f.dims[0], f.order


def _witness_maps(witness: Certificate, k: int) -> List[LinearMap]:
    """The k leg maps of a witness: its one map on every leg when symmetric."""
    if witness.kind == "symmetric-restriction":
        return [witness.maps[0]] * k
    if len(witness.maps) != k:
        raise ValueError(f"witness has {len(witness.maps)} maps, expected {k}")
    return list(witness.maps)


def _char_guard(domain: Domain, k: int) -> None:
    if isinstance(domain, PrimeField) and domain.p <= k:
        raise DomainError(
            f"characteristic too small: need characteristic 0 or > {k}, "
            f"got {domain.p}"
        )


# ---------------------------------------------------------------------------
# h and its Waring decomposition
# ---------------------------------------------------------------------------

def _h_gate(k: int) -> None:
    if k < 2:
        raise ValueError(f"need order >= 2, got {k}")
    # k^k entries; the float test is exact at the cap's edge, 8^8 = 2^24
    if k * math.log2(k) > math.log2(ENTRY_CAP):
        raise TensorSizeError(f"h of order {k} needs {k}^{k} entries, over the dense cap of 2**24")


def fully_symmetric(k: int, domain: Domain) -> Tensor:
    """The order-k dimension-k tensor with entry 1 on every permutation
    of (0, ..., k-1) and 0 elsewhere."""
    _h_gate(k)
    arr = np.zeros((k,) * k, dtype=domain.dtype)
    for perm in itertools.permutations(range(k)):
        arr[perm] = 1
    return Tensor(domain, arr)


@dataclass(frozen=True)
class WaringDecomposition:
    """f = sum_i coefficients[i] * vectors[i]^{(x)k}."""

    domain: Domain
    k: int
    coefficients: Tuple
    vectors: np.ndarray  # (terms, dim)


def waring_reconstruct(dec: WaringDecomposition) -> Tensor:
    arr = _rank_one_sum(dec.coefficients, [dec.vectors] * dec.k, dec.domain)
    return Tensor(dec.domain, arr)


def waring_h(k: int, domain: Domain) -> WaringDecomposition:
    """h as (1/2^{k-1}) sum over signs eps in {+-1}^{k-1} of
    (prod eps) (e_1 + eps_2 e_2 + ... + eps_k e_k)^{(x)k}, checked against
    h itself (gated on its k^k entries).

    The sum is the product left.T @ right of the tables of the first k // 2
    legs and of the rest, as in ``waring_reconstruct``, formed one block of
    output rows at a time; h's block is 1 exactly where the indices form a
    permutation, so neither array is ever held whole.
    """
    _char_guard(domain, k)
    _h_gate(k)
    dec = _waring_terms(k, domain)
    half = k // 2
    c = np.asarray(dec.coefficients, dtype=domain.dtype).reshape(-1, 1)
    left = _kron_rows([c] + [dec.vectors] * half, domain).T
    right = _kron_rows([dec.vectors] * (k - half), domain)
    # index i sets bit i: k indices form a permutation iff they set all k bits
    bits = [1 << np.arange(k)]
    lead = functools.reduce(np.bitwise_or.outer, bits * half).ravel()
    rest = functools.reduce(np.bitwise_or.outer, bits * (k - half)).ravel()
    step = max(1, _BLOCK_ENTRIES // len(rest))  # one block up to k = 6
    for lo in range(0, len(lead), step):
        h = (lead[lo:lo + step, None] | rest) == (1 << k) - 1
        # the identity is exact (dyadic coefficients), so compare bit-for-bit
        if not np.array_equal(domain.reduce(left[lo:lo + step] @ right), h):
            raise RuntimeError("internal error: decomposition failed to reconstruct")
    return dec


def _waring_terms(k: int, domain: Domain) -> WaringDecomposition:
    """The terms of :func:`waring_h`, unchecked."""
    inv = domain.inverse(domain.normalize(2 ** (k - 1)))
    signs = list(itertools.product((1, -1), repeat=k - 1))
    return WaringDecomposition(
        domain=domain,
        k=k,
        coefficients=tuple(domain.normalize(math.prod(s) * inv) for s in signs),
        vectors=domain.reduce(np.array([(1,) + s for s in signs], dtype=domain.dtype)),
    )


# ---------------------------------------------------------------------------
# make-sym
# ---------------------------------------------------------------------------

def make_sym(maps: Sequence[LinearMap], f: Tensor, g: Tensor) -> Certificate:
    """Lift a restriction (maps) f = g between symmetric tensors to a
    verified symmetric restriction f (x) h >=_s g (x) h.

    The single lifted map is B = sum_i A_i (x) e_i e_i^*, acting on leg
    indices merged as (tensor index) * k + (register index).  B^{(x)k}
    applied to f (x) h equals g (x) h on the nose; the k! the raw
    symmetrization argument suggests cancels against the h register.
    """
    k = f.order
    if len(maps) != k:
        raise ValueError(f"need {k} maps, got {len(maps)}")
    d, _ = _symmetric_dims(f, "make_sym")
    e, _ = _symmetric_dims(g, "make_sym")
    _char_guard(f.domain, k)
    domain = f.domain
    for i, m in enumerate(maps):
        if m.domain != domain:
            raise DomainError(f"map {i} lives over {m.domain.name}, tensor over {domain.name}")
        if m.rows != e or m.cols != d:
            raise ValueError(f"map {i} is {m.rows}x{m.cols}, expected {e}x{d}")
    if not tensors_equal(apply(list(maps), f), g):
        raise ValueError("premise fails: maps do not carry f to g")
    B = np.zeros((e * k, d * k), dtype=domain.dtype)
    for a, m in enumerate(maps):
        B[a::k, a::k] = m.array
    h = fully_symmetric(k, domain)
    return _certified("symmetric-restriction", [B], tensor_product(g, h), tensor_product(f, h))


# ---------------------------------------------------------------------------
# remove-powers
# ---------------------------------------------------------------------------

def remove_powers(f: Tensor) -> Tuple[LinearMap, Tensor]:
    """Invertible A with g = A^{(x)k} f free of diagonal support at every
    index except possibly the last.

    Adds a multiple of e_i to e_{d-1} per offending diagonal index i, with
    the multiple a root of the one-variable polynomial giving the new
    (i, ..., i) coefficient.  That step changes coordinate i only, so no
    other diagonal entry, nor any coefficient used to clear another index,
    moves: one pass over the indices, in decreasing order, is final.
    """
    d, k = _symmetric_dims(f, "remove_powers")
    domain = f.domain
    ident = identity_map(d, domain)
    if d < 2:
        return ident, f
    garr = f.array.copy()
    total = np.eye(d, dtype=domain.dtype)

    def diag(i):
        return domain.normalize(garr[(i,) * k])

    def apply_all_legs(M, arr):
        for leg in range(k):
            arr = _apply_leg(M, arr, leg, domain)
        return arr

    lead = d - 1
    if domain.is_zero(diag(lead)):
        candidates = [i for i in range(d - 1) if not domain.is_zero(diag(i))]
        if not candidates:
            return ident, f  # no diagonal support at all
        swap = max(candidates)
        P = np.eye(d, dtype=domain.dtype)
        P[[swap, lead]] = P[[lead, swap]]
        garr = apply_all_legs(P, garr)
        total = domain.reduce(P @ total)
    failed = []
    for i in range(d - 2, -1, -1):
        if domain.is_zero(diag(i)):
            continue
        # coefficient of eps^m in the new (i,...,i) entry
        coeffs = [
            domain.normalize(math.comb(k, m) * garr[(i,) * (k - m) + (lead,) * m])
            for m in range(k + 1)
        ]
        eps = _poly_root(coeffs, domain)
        if eps is None:
            failed.append((i, coeffs))
            continue
        E = np.eye(d, dtype=domain.dtype)
        E[i, lead] = eps
        garr = apply_all_legs(E, garr)
        if isinstance(domain, ComplexNumbers):
            garr[(i,) * k] = 0  # clear root-finding residue exactly
        total = domain.reduce(E @ total)
    if failed:
        raise MissingKthRootError(
            "missing k-th root: no field root clears diagonal indices "
            f"{[i for i, _ in failed]}",
            failed=failed,
        )
    if any(not domain.is_zero(diag(i)) for i in range(d - 1)):
        raise RuntimeError("internal error: diagonal support survived the pass")
    if linalg.rank(total, domain) != d:
        raise RuntimeError("internal error: transformation not invertible")
    return LinearMap(domain, total), Tensor(domain, garr)


def _poly_root(coeffs: List, domain: Domain):
    """A root of sum_m coeffs[m] x^m in the domain, or None.

    Prime fields enumerate 1..p-1 in order (0 never helps: coeffs[0] is the
    entry being cleared).  Complex takes numpy's roots, preferring real
    ones, then smaller modulus, breaking ties on the real and imaginary
    parts, so reruns pick the same root.
    """
    if isinstance(domain, PrimeField):
        p = domain.p
        for eps in range(1, p):
            if sum(c * pow(eps, m, p) for m, c in enumerate(coeffs)) % p == 0:
                return eps
        return None
    arr = np.array(coeffs[::-1], dtype=complex)
    nz = np.flatnonzero(domain.nonzero(arr))
    if nz.size == 0 or arr.size - (nz[0] + 1) < 1:
        return None  # zero or constant polynomial: no useful root
    roots = np.roots(arr[nz[0]:])
    key = lambda z: (abs(z.imag) > domain.tol, round(abs(z), 9),
                     round(z.real, 9), round(z.imag, 9))
    return min(roots, key=key)


# ---------------------------------------------------------------------------
# create-t
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CreateTCertificate:
    """Certificate that f^{(x)c} >=_s h by zeroing, for symmetric f.

    ``pre_map`` is the invertible single-leg basis change (diagonal
    cleanup composed with the coordinate relabeling); in the new basis,
    ``rows`` lists all index tuples of type ``y`` (the rows of the
    selection arrangement), ``columns`` its k columns read as c-tuples,
    and scaling the first selection row by ``scale`` makes the extracted
    tensor exactly h.  ``create_t`` checks that claim before it returns.
    """

    source_id: str
    domain: Domain
    dim: int
    order: int
    relabeling: Tuple[int, ...]
    y: Tuple[int, ...]
    rows: Tuple[Tuple[int, ...], ...]
    columns: Tuple[Tuple[int, ...], ...]
    c: int
    pre_map: LinearMap
    scale: object


def create_t(f: Tensor) -> CreateTCertificate:
    """Find c with f^{(x)c} >=_s h and check it on h's k^k entries.

    Requires some flattening rank >= 2.  After clearing diagonal support
    (remove_powers) and relabeling a coordinate of maximal bounded
    multiplicity to position 0, the rows are all arrangements of the
    chosen type y and the selection columns are provably scattered: any k
    columns whose coordinate slices all lie in the support are pairwise
    distinct.  :func:`_check_selection` confirms the result exactly.
    """
    d, k = _symmetric_dims(f, "create_t")
    domain = f.domain
    if all(
        flattening_rank(f, range(m)) <= 1 for m in range(1, k // 2 + 1)
    ):
        raise ValueError("all flattening ranks <= 1")
    pre, clean = remove_powers(f)
    supp = set(support(clean))
    # multiplicity profile per symbol; admissible symbols can head a type
    max_mult = {
        a: max((s.count(a) for s in supp), default=0) for a in range(d)
    }
    admissible = [a for a in range(d) if 1 <= max_mult[a] <= k - 1]
    if not admissible:
        raise RuntimeError("internal error: no admissible coordinate")
    best = max(max_mult[a] for a in admissible)
    a_star = min(a for a in admissible if max_mult[a] == best)
    relabeling = list(range(d))
    relabeling[0], relabeling[a_star] = relabeling[a_star], relabeling[0]
    P = np.zeros((d, d), dtype=domain.dtype)
    for old, new in enumerate(relabeling):
        P[new, old] = 1
    relabeled = apply_sym(LinearMap(domain, P), clean)
    types = {tuple(s.count(a) for a in range(d)) for s in support(relabeled)}
    y = min(t for t in types if t[0] == best)
    base = tuple(a for a in range(d) for _ in range(y[a]))
    rows = tuple(sorted(set(itertools.permutations(base))))
    c = len(rows)
    columns = tuple(tuple(rows[i][j] for i in range(c)) for j in range(k))
    value = relabeled.array[rows[0]]
    lam = value
    for _ in range(c - 1):
        lam = domain.normalize(lam * value)
    cert = CreateTCertificate(
        source_id=tensor_id(f),
        domain=domain,
        dim=d,
        order=k,
        relabeling=tuple(relabeling),
        y=y,
        rows=rows,
        columns=columns,
        c=c,
        pre_map=LinearMap(domain, domain.reduce(P @ pre.array)),
        scale=domain.inverse(lam),
    )
    _check_selection(cert, f)
    return cert


def selection_map(cert: CreateTCertificate) -> LinearMap:
    """The k x d^c map with apply_sym(map, f^{(x)c}) = h, materialized.

    Row j is the (scaled) row of the c-fold Kronecker power of the basis
    change picked out by column j; gated on d^c <= 2^20.
    """
    d, c, k = cert.dim, cert.c, cert.order
    if c * math.log2(max(d, 2)) > MAP_GATE_BITS:
        raise TensorSizeError(
            f"selection map needs {d}^{c} columns, over the 2^{MAP_GATE_BITS} gate"
        )
    domain = cert.domain
    pre = cert.pre_map.array
    M = _kron_rows([pre[[cert.columns[j][i] for j in range(k)]] for i in range(c)], domain)
    M[0] = domain.reduce(M[0] * cert.scale)
    return LinearMap(domain, M)


def _check_selection(cert: CreateTCertificate, f: Tensor) -> None:
    """Check that the selection map carries f^{(x)c} to h, building neither.

    Row j of the map is the Kronecker product over i < c of the rows
    columns[j][i] of ``pre_map``, row 0 times ``scale``.  So entry j (a
    k-tuple) of the image is T_j = scale^{#{l : j_l = 0}} times the product
    over i of g[columns[j_1][i], ..., columns[j_k][i]], g = pre_map^{(x)k} f.
    The k^k tuples go in blocks, each compared with h's block (1 exactly on
    the permutations); a tuple leaves once its running product is 0.
    """
    d, k, domain = cert.dim, cert.order, cert.domain
    _h_gate(k)
    g = apply_sym(cert.pre_map, f).array.ravel()
    symbols = np.array(cert.columns).T  # row i: the symbol each column puts in place i
    place = d ** np.arange(k - 1, -1, -1)
    digit = k ** np.arange(k - 1, -1, -1)
    powers = domain.asarray([domain.normalize(cert.scale ** m) for m in range(k + 1)])
    for lo in range(0, k ** k, _BLOCK_ENTRIES):
        choice = np.arange(lo, min(lo + _BLOCK_ENTRIES, k ** k))[:, None] // digit % k
        h = np.bitwise_or.reduce(1 << choice, axis=1) == (1 << k) - 1
        live = np.arange(len(choice))
        value = np.ones(len(choice), dtype=domain.dtype)
        for row in symbols:
            value = domain.reduce(value * g[row[choice[live]] @ place])
            keep = value != 0
            live, value = live[keep], value[keep]
        T = domain.zeros(len(choice))
        T[live] = domain.reduce(value * powers[(choice[live] == 0).sum(axis=1)])
        if not domain.arrays_equal(T, h.astype(domain.dtype)):
            raise RuntimeError("internal error: the selection does not extract h")


# ---------------------------------------------------------------------------
# the full chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetrizeResult:
    """<r> <=_s f^{(x)(n+c)} assembled from a plain witness <r> <= f^{(x)n}."""

    certificate: Certificate
    n: int
    c: int


def symmetrize_certificate(f: Tensor, rc: Certificate) -> SymmetrizeResult:
    """Chain <r> <= f^{(x)n} into a symmetric <r> <=_s f^{(x)(n+c)}.

    Composition per leg (right to left): select f^{(x)c} down to h inside
    f^{(x)(n+c)}, lift the witness maps A_a through the h register as
    make_sym does, then collapse <r> (x) h to <r> by summing the register
    against w = (1/k!, 1, ..., 1).  On indices merged as (f^{(x)n} index,
    f^{(x)c} index) the chained map is A = sum_a C_a (x) M_a, with
    C_a = w_a A_a and M_a row a of the selection map: one product C M,
    whose r x d^(n+c) entries are all that is materialized and all the gate
    counts.  Hence A^{(x)k} f^{(x)(n+c)} is the sum over j in [k]^k of
    T_j (C_{j_1} (x) ... (x) C_{j_k}) f^{(x)n}, with T = M^{(x)k} f^{(x)c},
    which ``create_t`` has checked to be h: only the k! permutations j
    count, and :func:`_check_chain` checks their sum on f^{(x)n}.
    """
    d, k = _symmetric_dims(f, "symmetrize_certificate")
    domain = f.domain
    _char_guard(domain, k)
    leg_maps = _witness_maps(rc, k)
    r = rc.target.dims[0] if rc.target.order else 0
    unit = unit_tensor(r, k, domain)
    if not tensors_equal(rc.target, unit):
        raise ValueError("witness target is not a unit tensor")
    cols = leg_maps[0].cols
    n = max(1, round(math.log(max(cols, 1), d))) if d > 1 else 1
    if d ** n != cols or any(m.cols != cols or m.rows != r for m in leg_maps):
        raise ValueError(
            f"witness maps are {leg_maps[0].rows}x{cols}, not r x d^n over d={d}"
        )
    power = tensor_power(f, n)
    if not verify_certificate(
        Certificate(kind="restriction", maps=tuple(leg_maps), target=rc.target), power
    ):
        raise ValueError("premise fails: witness does not verify")
    ct = create_t(f)
    M = selection_map(ct).array
    if r * d ** (n + ct.c) > ENTRY_CAP:
        raise TensorSizeError(f"chained map would need {r} x {d ** (n + ct.c)} entries")
    C = np.stack([m.array for m in leg_maps], axis=-1)  # (r, d^n, k): C[:, :, a] = w_a A_a
    C[:, :, 0] = domain.reduce(C[:, :, 0] * domain.inverse(domain.normalize(math.factorial(k))))
    A = domain.reduce(C @ M)
    _check_chain(A, C, M, power, unit)
    total_map = LinearMap(domain, A.reshape(r, d ** (n + ct.c)))
    cert = Certificate(kind="symmetric-restriction", maps=(total_map,), target=unit)
    return SymmetrizeResult(certificate=cert, n=n, c=ct.c)


def _check_chain(A: np.ndarray, C: np.ndarray, M: np.ndarray, power: Tensor,
                 unit: Tensor) -> None:
    """Check the chained map A, read as (r, d^n, d^c), against the Kronecker
    form sum_a C_a (x) M_a entry by entry, and the sum over the k!
    permutations pi of (C_{pi(1)} (x) ... (x) C_{pi(k)}) applied to
    ``power`` = f^{(x)n} against ``unit`` = <r>."""
    domain = power.domain
    k = C.shape[2]
    form = functools.reduce(np.add, (np.multiply.outer(C[:, :, a], M[a]) for a in range(k)))
    if not domain.arrays_equal(A, domain.reduce(form)):
        raise RuntimeError("internal error: the chained map is not its Kronecker form")
    maps = [LinearMap(domain, C[:, :, a]) for a in range(k)]
    image = functools.reduce(np.add, (apply([maps[a] for a in perm], power).array
                                      for perm in itertools.permutations(range(k))))
    if not domain.arrays_equal(domain.reduce(image), unit.array):
        raise RuntimeError("internal error: the chained map does not carry f^(n+c) to <r>")


# ---------------------------------------------------------------------------
# symmetric rank upper bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymrankUpperResult:
    bound: int
    decomposition: WaringDecomposition


def symrank_upper(f: Tensor, witness: Certificate) -> SymrankUpperResult:
    """Symmetric-rank bound r * 2^{k-1} from a rank witness f <= <r>.

    As f is symmetric, f = sum_i (1/k!) A_i^{(x)k} h, where A_i = (a_1i ...
    a_ki) holds the witness's i-th rank-one term; so h's Waring terms
    c v^{(x)k} give f's as (c/k!) (A_i v)^{(x)k}, and the assembled
    decomposition is checked against f.  When f is h itself, the direct
    2^{k-1}-term decomposition (``waring_h``) is smaller and returned instead.
    """
    d, k = _symmetric_dims(f, "symrank_upper")
    domain = f.domain
    _char_guard(domain, k)
    leg_maps = _witness_maps(witness, k)
    if not tensors_equal(witness.target, f):
        raise ValueError("invalid witness: target is not f")
    r = leg_maps[0].cols
    if any(m.cols != r or m.rows != d for m in leg_maps):
        raise ValueError("invalid witness: maps are not d x r")
    if not verify_certificate(
        Certificate(kind="restriction", maps=tuple(leg_maps), target=f),
        unit_tensor(r, k, domain),
    ):
        raise ValueError("invalid witness: maps do not produce f from <r>")
    inv = domain.inverse(domain.normalize(math.factorial(k)))
    terms = _waring_terms(k, domain)
    cols = [m.array.T[:, None, :] for m in leg_maps]  # (r, 1, d): the a_ji
    vec = cols[0]  # every v starts with 1
    for j in range(1, k):
        vec = vec + terms.vectors[:, j, None] * cols[j]
    dec = WaringDecomposition(
        domain=domain,
        k=k,
        coefficients=tuple(domain.normalize(c * inv) for c in terms.coefficients) * r,
        vectors=domain.reduce(vec.reshape(-1, d)),
    )
    if not tensors_equal(waring_reconstruct(dec), f):
        raise RuntimeError("internal error: polarized decomposition failed")
    bound = r * 2 ** (k - 1)
    if d == k and tensors_equal(f, fully_symmetric(k, domain)):
        direct = waring_h(k, domain)
        if 2 ** (k - 1) < bound:
            return SymrankUpperResult(bound=2 ** (k - 1), decomposition=direct)
    return SymrankUpperResult(bound=bound, decomposition=dec)

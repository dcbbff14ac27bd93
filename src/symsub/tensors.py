"""Dense order-k tensors over a scalar domain, and their basic algebra.

A :class:`Tensor` is an immutable dense array tagged with a domain; a
:class:`LinearMap` is a rectangular matrix over the same kind of domain.
Module functions implement the operations every higher layer builds on:
unit tensors, products, per-leg map application, symmetry tests, supports,
flattening ranks and matrix rank.
Every Kronecker power of rows (power sums, support powers, selection
rows) goes through one kernel, ``_kron_rows``, and every sum of rank-one
terms through ``_rank_one_sum``.

Conventions
-----------
* Indices are 0-based in code and 1-based in the JSON formats.
* ``tensor_product`` merges leg indices lexicographically:
  on leg ``j`` the pair ``(a, b)`` (0-based) maps to ``a * e_j + b`` where
  ``e_j`` is the second factor's dimension.  Certificates depend on this
  fixed merge order.
* Dense storage only; the total entry count is capped at 2**24.
* Complex JSON scalars are ``[re, im]``, with a signed zero written as 0.0.
"""

from __future__ import annotations

import cmath
import functools
import hashlib
import json
import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from . import linalg
from ._common import json_int
from .domains import Domain, DomainError, PrimeField, domain_from_name

__all__ = [
    "ENTRY_CAP",
    "TensorSizeError",
    "Tensor",
    "LinearMap",
    "unit_tensor",
    "tensor_product",
    "tensor_power",
    "apply",
    "apply_sym",
    "apply_sym_power",
    "is_symmetric",
    "support",
    "flattening_rank",
    "matrix_rank",
    "tensors_equal",
    "kron",
    "identity_map",
    "tensor_to_json",
    "tensor_from_json",
    "tensor_id",
    "map_to_json",
    "map_from_json",
]

ENTRY_CAP = 1 << 24
_BLOCK_ENTRIES = 1 << 16  # about the most entries one block of rows holds


class TensorSizeError(ValueError):
    """Dense materialization would exceed the 2**24 entry cap."""


def _check_cap(shape: Sequence[int]) -> None:
    total = 1
    for d in shape:
        total *= int(d)
    if total > ENTRY_CAP:
        raise TensorSizeError(
            f"tensor too large: {'x'.join(str(d) for d in shape)} = {total} "
            f"entries exceeds the dense cap of 2**24"
        )


class Tensor:
    """A dense order-k tensor over a prime field or the complex numbers."""

    __slots__ = ("domain", "array")

    def __init__(self, domain: Domain, array):
        arr = domain.asarray(array)
        _check_cap(arr.shape)
        arr.setflags(write=False)
        self.domain = domain
        self.array = arr

    @property
    def order(self) -> int:
        return self.array.ndim

    @property
    def dims(self) -> Tuple[int, ...]:
        return self.array.shape

    @property
    def is_cubical(self) -> bool:
        return len(set(self.array.shape)) <= 1

    def __repr__(self) -> str:
        dims = "x".join(str(d) for d in self.dims)
        return f"Tensor({self.domain.name}, {dims})"


class LinearMap:
    """A rows x cols matrix over a scalar domain (a restriction morphism)."""

    __slots__ = ("domain", "array")

    def __init__(self, domain: Domain, array):
        arr = domain.asarray(array)
        if arr.ndim != 2:
            raise ValueError(f"linear map must be 2-dimensional, got {arr.ndim}")
        arr.setflags(write=False)
        self.domain = domain
        self.array = arr

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def __repr__(self) -> str:
        return f"LinearMap({self.domain.name}, {self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def unit_tensor(r: int, k: int, domain: Domain) -> Tensor:
    """The diagonal unit tensor with r ones, order k (r = 0: all dims 0).

    Tensors are immutable, so one of at most 2^12 entries is built once and
    shared (:func:`_shared_unit_tensor`)."""
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    build = _shared_unit_tensor if r**k <= 1 << 12 else _shared_unit_tensor.__wrapped__
    return build(r, k, domain)


@functools.lru_cache(maxsize=64)
def _shared_unit_tensor(r: int, k: int, domain: Domain) -> Tensor:
    """<r> of order k over domain; the cache holds at most 64 of them, of at
    most 2^12 entries each (4 MiB over C)."""
    arr = domain.zeros((r,) * k)
    if r:  # at k = 0 the empty index would set the one entry of <0> too
        arr[(np.arange(r),) * k] = 1
    return Tensor(domain, arr)


def identity_map(d: int, domain: Domain) -> LinearMap:
    return LinearMap(domain, np.eye(d, dtype=domain.dtype))


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

def _require_same(f: Tensor, g: Tensor) -> None:
    if f.order != g.order:
        raise ValueError(f"order mismatch: {f.order} vs {g.order}")
    if f.domain != g.domain:
        raise DomainError(f"domain mismatch: {f.domain.name} vs {g.domain.name}")


def tensor_product(f: Tensor, g: Tensor) -> Tensor:
    """f (x) g with the fixed lexicographic index merge on every leg."""
    _require_same(f, g)
    k = f.order
    shape = tuple(df * dg for df, dg in zip(f.dims, g.dims))
    _check_cap(shape)
    out = np.multiply.outer(f.array, g.array)
    # outer gives legs (f1..fk, g1..gk); interleave to (f1,g1,f2,g2,...)
    perm = [axis for j in range(k) for axis in (j, k + j)]
    out = out.transpose(perm).reshape(shape)
    return Tensor(f.domain, f.domain.reduce(out))


def tensor_power(f: Tensor, n: int) -> Tensor:
    if n < 1:
        raise ValueError(f"power must be >= 1, got {n}")
    out = f
    for _ in range(n - 1):
        out = tensor_product(out, f)
    return out


def apply(maps: Sequence[LinearMap], f: Tensor) -> Tensor:
    """g = (A1 (x) ... (x) Ak) f, one map per leg."""
    if len(maps) != f.order:
        raise ValueError(f"need {f.order} maps, got {len(maps)}")
    arr = f.array
    domain = f.domain
    for leg, m in enumerate(maps):
        if m.domain != domain:
            raise DomainError(f"domain mismatch on leg {leg + 1}")
        if m.cols != arr.shape[leg]:
            raise ValueError(
                f"leg {leg + 1}: map has {m.cols} columns, tensor dim is "
                f"{arr.shape[leg]}"
            )
        arr = _apply_leg(m.array, arr, leg, domain)
    return Tensor(domain, arr)


def _apply_leg(M: np.ndarray, arr: np.ndarray, leg: int, domain: Domain) -> np.ndarray:
    """The array of M applied to one leg of arr (M's columns meet that leg).

    One batched matmul over arr viewed as (legs before, leg, legs after):
    on these small arrays it costs a quarter of tensordot plus moveaxis.
    """
    before, after = arr.shape[:leg], arr.shape[leg + 1:]
    blocks = arr.reshape(math.prod(before), arr.shape[leg], math.prod(after))
    return domain.reduce(np.matmul(M, blocks).reshape(before + (M.shape[0],) + after))


def _kron_rows(factors: Sequence[np.ndarray], domain: Domain) -> np.ndarray:
    """Row-wise Kronecker product: row i is factors[0][i] (x) ... (x) factors[-1][i].

    Reduces after every product, so int64 only ever holds two residues.
    """
    out = factors[0]
    for F in factors[1:]:
        width = out.shape[1] * F.shape[1]
        out = domain.reduce((out[:, :, None] * F[:, None, :]).reshape(len(out), width))
    return out


def _rank_one_sum(coefficients, factors: Sequence[np.ndarray], domain: Domain) -> np.ndarray:
    """The array of sum_i coefficients[i] * factors[0][i] (x) ... (x) factors[-1][i].

    One product left.T @ right of the row-wise Kronecker tables of the first
    k // 2 legs (scaled by the coefficients) and of the rest, never a dense
    term per row.  Terms go in blocks of rows, so no table is larger than
    the output, the N x d factors it is built from or _BLOCK_ENTRIES.
    """
    c = np.asarray(coefficients, dtype=domain.dtype).reshape(-1, 1)
    half = len(factors) // 2
    shape = [F.shape[1] for F in factors]
    cap = max(math.prod(shape), len(c) * max(shape, default=0), _BLOCK_ENTRIES)
    step = max(1, cap // max(1, math.prod(shape[half:])))
    total = None
    for lo in range(0, max(len(c), 1), step):  # N = 0 still yields the zero array
        rows = slice(lo, lo + step)
        left = _kron_rows([c[rows], *(F[rows] for F in factors[:half])], domain)
        right = _kron_rows([F[rows] for F in factors[half:]] or [np.ones_like(c[rows])], domain)
        part = left.T @ right
        if total is not None:
            part += total
        total = domain.reduce(part)
    return total.reshape(shape)


def apply_sym(A: LinearMap, f: Tensor) -> Tensor:
    """g = A^{(x)k} f: one shared map on every leg (f must be cubical)."""
    if not f.is_cubical:
        raise ValueError(f"symmetric application needs a cubical tensor, dims {f.dims}")
    return apply([A] * f.order, f)


def apply_sym_power(A: LinearMap, f: Tensor, power: int) -> Tensor:
    """apply_sym(A, f^{(x)power}) as one rank-one sum over the |supp(f)|^power
    support entries of the power, which may itself exceed the dense cap.

    Their values are the Kronecker power of f's support values; their merged
    index on each leg (row-major, as tensor_power merges) is a Kronecker sum.
    The entries times the r^k outputs are gated at 2^24 work units.
    """
    if not f.is_cubical:
        raise ValueError(f"symmetric application needs a cubical tensor, dims {f.dims}")
    if A.domain != f.domain:
        raise DomainError("domain mismatch between map and tensor")
    if f.order < 1:
        raise ValueError("symmetric application needs a tensor of order >= 1")
    d, k = f.dims[0], f.order
    if power < 1:
        raise ValueError(f"need power >= 1, got {power}")
    if A.cols != d ** power:
        raise ValueError(f"map has {A.cols} columns, expected {d}^{power}")
    supp = np.array(support(f), dtype=np.int64).reshape(-1, k)  # (S, k)
    work = len(supp) ** power * max(A.rows, 1) ** k
    if work > ENTRY_CAP:
        raise TensorSizeError(
            f"support enumeration needs {work} work units, over budget {ENTRY_CAP}"
        )
    values = _kron_rows([f.array[tuple(supp.T)].reshape(1, -1)] * power, f.domain)[0]
    merged = supp  # (N, k): the column of A each support entry of the power meets per leg
    for _ in range(power - 1):
        merged = (merged[:, None] * d + supp[None]).reshape(-1, k)
    factors = [A.array.T[columns] for columns in merged.T]
    return Tensor(f.domain, _rank_one_sum(values, factors, f.domain))


def is_symmetric(f: Tensor) -> bool:
    """True iff every leg permutation fixes f (checked on adjacent swaps)."""
    if not f.is_cubical:
        raise ValueError(f"symmetry needs a cubical tensor, dims {f.dims}")
    k = f.order
    for j in range(k - 1):
        axes = list(range(k))
        axes[j], axes[j + 1] = axes[j + 1], axes[j]
        if not f.domain.arrays_equal(f.array, f.array.transpose(axes)):
            return False
    return True


def support(f: Tensor) -> List[Tuple[int, ...]]:
    """Sorted list of 0-based index tuples with a nonzero entry."""
    return [tuple(int(i) for i in idx) for idx in np.argwhere(f.domain.nonzero(f.array))]


def flattening_rank(f: Tensor, legs: Iterable[int]) -> int:
    """Rank of the matrix flattening with row legs ``legs`` (0-based)."""
    k = f.order
    row_legs = sorted(set(int(l) for l in legs))
    if not row_legs or len(row_legs) == k:
        raise ValueError(f"row legs must be a proper nonempty subset, got {row_legs}")
    if any(l < 0 or l >= k for l in row_legs):
        raise ValueError(f"leg out of range in {row_legs}")
    col_legs = [l for l in range(k) if l not in row_legs]
    arr = f.array.transpose(row_legs + col_legs)
    rows = math.prod(f.dims[l] for l in row_legs)
    cols = math.prod(f.dims[l] for l in col_legs)
    return linalg.rank(arr.reshape(rows, cols), f.domain)


def matrix_rank(f: Tensor) -> int:
    """Rank of an order-2 tensor over its domain (equals matrix subrank)."""
    if f.order != 2:
        raise ValueError(f"matrix_rank needs order 2, got order {f.order}")
    return linalg.rank(f.array, f.domain)


def tensors_equal(f: Tensor, g: Tensor) -> bool:
    if f.domain != g.domain:
        return False
    if f.dims != g.dims:
        return False
    return f.domain.arrays_equal(f.array, g.array)


def kron(a: LinearMap, b: LinearMap) -> LinearMap:
    """Kronecker product, consistent with the tensor_product index merge."""
    if a.domain != b.domain:
        raise DomainError("domain mismatch in kron")
    return LinearMap(a.domain, a.domain.reduce(np.kron(a.array, b.array)))


# ---------------------------------------------------------------------------
# JSON (1-based indices; complex scalars as [re, im])
# ---------------------------------------------------------------------------

def _scalar_to_json(domain: Domain, v):
    if isinstance(domain, PrimeField):
        return int(v) % domain.p
    v = complex(v)
    return [v.real + 0.0, v.imag + 0.0]  # + 0.0 turns a -0.0 into 0.0


def _scalar_from_json(domain: Domain, v):
    if isinstance(domain, PrimeField):
        return json_int(v, "prime-field entry") % domain.p
    parts = v if isinstance(v, list) else [v]  # [re, im] or a bare number
    if any(isinstance(x, (bool, str)) for x in parts):  # refused, not coerced
        raise ValueError(f"complex entry must hold JSON numbers, got {v!r}")
    if isinstance(v, (int, float)):
        z = complex(v)
    elif isinstance(v, list) and len(v) == 2:
        z = complex(float(v[0]), float(v[1]))
    else:
        raise ValueError(f"bad complex entry: {v!r}")
    if not cmath.isfinite(z):  # JSON NaN, Infinity, or a literal like 1e400
        raise ValueError(f"complex entry is not finite: {v!r}")
    return z


def tensor_to_json(f: Tensor) -> dict:
    """The tensor JSON format: ``support`` with 1-based indices, each entry
    as ``_scalar_to_json`` writes it, read off whole arrays."""
    mask = f.domain.nonzero(f.array)
    z = f.array[mask]
    if isinstance(f.domain, PrimeField):
        vals = (z % f.domain.p).tolist()
    else:
        vals = list(map(list, zip((z.real + 0.0).tolist(), (z.imag + 0.0).tolist())))
    entries = [{"idx": idx, "val": val} for idx, val in zip((np.argwhere(mask) + 1).tolist(), vals)]
    return {
        "order": f.order,
        "dims": list(f.dims),
        "domain": f.domain.name,
        "entries": entries,
    }


def tensor_id(f: Tensor) -> str:
    """A 16-hex-digit content hash of a tensor's canonical JSON form."""
    payload = json.dumps(tensor_to_json(f), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def tensor_from_json(obj: dict) -> Tensor:
    """Parse the tensor JSON format.  A missing key raises KeyError and a
    wrongly typed value TypeError, as in map and certificate parsing; a
    bool, float or str where an integer belongs raises ValueError."""
    k = json_int(obj["order"], "tensor order")
    dims = [json_int(d, "tensor dimension") for d in obj["dims"]]
    domain = domain_from_name(obj["domain"])
    entries = obj["entries"]
    if len(dims) != k:
        raise ValueError(f"order {k} but {len(dims)} dims")
    if any(d < 0 for d in dims):
        raise ValueError(f"negative dimension in {dims}")
    _check_cap(dims)
    arr = domain.zeros(tuple(dims))
    for ent in entries:
        idx = tuple(json_int(i, "entry index") - 1 for i in ent["idx"])
        if len(idx) != k or any(i < 0 or i >= d for i, d in zip(idx, dims)):
            raise ValueError(f"index out of range: {ent['idx']}")
        arr[idx] = _scalar_from_json(domain, ent["val"])
    return Tensor(domain, arr)


def map_to_json(m: LinearMap) -> dict:
    data = [[_scalar_to_json(m.domain, v) for v in row] for row in m.array]
    return {"rows": m.rows, "cols": m.cols, "domain": m.domain.name, "data": data}


def map_from_json(obj: dict) -> LinearMap:
    rows = json_int(obj["rows"], "map rows")
    cols = json_int(obj["cols"], "map cols")
    domain = domain_from_name(obj["domain"])
    data = obj["data"]
    if len(data) != rows or any(len(r) != cols for r in data):
        raise ValueError(f"matrix data is not {rows}x{cols}")
    arr = domain.zeros((rows, cols))
    for i, row in enumerate(data):
        for j, v in enumerate(row):
            arr[i, j] = _scalar_from_json(domain, v)
    return LinearMap(domain, arr)

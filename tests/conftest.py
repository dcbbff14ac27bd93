"""Shared builders for the test suite."""

import itertools

import numpy as np

from symsub import Hypergraph, Tensor, adjacency_tensor, domain_from_name, unit_tensor

F2 = domain_from_name("F2")
F3 = domain_from_name("F3")
F5 = domain_from_name("F5")
F7 = domain_from_name("F7")
C = domain_from_name("C")


def w_tensor(domain):
    """The 2x2x2 tensor with ones exactly at the permutations of (1,1,2)."""
    return Tensor(domain, [[[0, 1], [1, 0]], [[1, 0], [0, 0]]])


def tight_tensor():
    """Order-3 symmetric tensor over F2: all permutations of (1,2,3) plus (1,1,1)."""
    arr = np.zeros((3, 3, 3), dtype=np.int64)
    for idx in itertools.permutations(range(3)):
        arr[idx] = 1
    arr[0, 0, 0] = 1
    return Tensor(F2, arr)


def skew_matrix(d, domain):
    """Full-rank anti-diagonal matrix with +1 above the middle, -1 below."""
    arr = np.zeros((d, d), dtype=complex if domain is C else np.int64)
    for i in range(d // 2):
        arr[i, d - 1 - i] = 1
    for i in range(d // 2, d):
        arr[i, d - 1 - i] = -1
    return Tensor(domain, arr)


def c5_directed():
    return Hypergraph(5, 2, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])


def c5_matrix():
    return adjacency_tensor(c5_directed(), F2)


def random_symmetric(rng, d, k, domain):
    """Dense symmetric tensor with independent entries per sorted index class."""
    arr = np.zeros((d,) * k, dtype=complex if domain is C else np.int64)
    for idx in itertools.product(range(d), repeat=k):
        s = tuple(sorted(idx))
        if idx == s:
            if domain is C:
                arr[idx] = rng.normal() + 1j * rng.normal()
            else:
                arr[idx] = rng.integers(0, domain.p)
        else:
            arr[idx] = arr[s]
    return Tensor(domain, arr)


def random_tensor(rng, dims, domain):
    if domain is C:
        return Tensor(domain, rng.normal(size=dims) + 1j * rng.normal(size=dims))
    return Tensor(domain, rng.integers(0, domain.p, size=dims))


def random_unit_tensor(rng, dims):
    arr = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    return Tensor(C, arr / np.linalg.norm(arr))


def all_maps(e, d, p):
    """Every e x d map over F_p, stacked along the first axis."""
    grid = itertools.product(range(p), repeat=e * d)
    return np.array(list(grid), dtype=np.int64).reshape(-1, e, d)


def brute_symrestricts(f, e):
    """<e> <=_s f for an order-2 or order-3 tensor, trying every map."""
    p = f.domain.p
    A = all_maps(e, f.dims[0], p)
    if f.order == 2:
        image = np.einsum("aix,xy,ajy->aij", A, f.array, A)
    else:
        image = np.einsum("aix,ajy,akz,xyz->aijk", A, A, A, f.array)
    target = unit_tensor(e, f.order, f.domain).array
    return bool(np.any(np.all(image % p == target, axis=tuple(range(1, f.order + 1)))))

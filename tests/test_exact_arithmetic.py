"""Exact arithmetic over the whole advertised range p < 2^16.

Each reducing operation is compared with a reference computed on Python
ints (numpy ``dtype=object``), which cannot overflow.  int64 holds the
product of three residues below 2^16 but not of four, so every longer
product has to be reduced on the way.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_symmetric
from symsub import (
    Certificate,
    LinearMap,
    MissingKthRootError,
    Tensor,
    WaringDecomposition,
    apply_sym,
    apply_sym_power,
    create_t,
    domain_from_name,
    fully_symmetric,
    selection_map,
    symmetrize_certificate,
    tensor_power,
    unit_tensor,
    verify_certificate,
    waring_h,
    waring_reconstruct,
)
from symsub import linalg

PRIMES = (2, 3, 5, 7, 32749, 40009, 65521)
LARGE_PRIMES = (32749, 40009, 65521)

PROPERTY = settings(max_examples=15, deadline=None, derandomize=True)


def residues(data, p, shape):
    """Residues mod p, half of them from the top of the range, where the
    products are largest."""
    count = int(np.prod(shape))
    residue = st.one_of(st.integers(max(0, p - 4), p - 1), st.integers(0, p - 1))
    values = data.draw(st.lists(residue, min_size=count, max_size=count))
    return np.array(values, dtype=np.int64).reshape(shape)


def power_reference(arr, power):
    """f^{(x)power} on Python ints, legs merged as tensor_product merges them."""
    k = arr.ndim
    out = arr
    for _ in range(power - 1):
        outer = np.multiply.outer(out, arr)
        perm = [axis for j in range(k) for axis in (j, k + j)]
        shape = tuple(a * b for a, b in zip(out.shape, arr.shape))
        out = outer.transpose(perm).reshape(shape)
    return out


def apply_sym_reference(A, arr):
    for leg in range(arr.ndim):
        arr = np.moveaxis(np.tensordot(A, arr, axes=([1], [leg])), 0, leg)
    return arr


@pytest.mark.parametrize("p", PRIMES)
@PROPERTY
@given(data=st.data())
def test_waring_reconstruct_matches_python_ints(p, data):
    k = data.draw(st.integers(2, 4))
    d = data.draw(st.integers(1, 3))
    terms = data.draw(st.integers(1, 4))
    domain = domain_from_name(f"F{p}")
    coefficients = residues(data, p, (terms,))
    vectors = residues(data, p, (terms, d))
    dec = WaringDecomposition(
        domain=domain, k=k, coefficients=tuple(coefficients.tolist()), vectors=vectors
    )
    want = np.zeros((d,) * k, dtype=object)
    for coeff, vec in zip(coefficients.tolist(), vectors.astype(object)):
        term = np.array(coeff, dtype=object)
        for _ in range(k):
            term = np.multiply.outer(term, vec)
        want = want + term
    got = waring_reconstruct(dec).array
    assert np.array_equal(got, (want % p).astype(np.int64))


@pytest.mark.parametrize("p, k", [(p, k) for p in PRIMES for k in (2, 3, 4) if p > k])
def test_waring_h_reconstructs_for_every_prime(p, k):
    domain = domain_from_name(f"F{p}")
    dec = waring_h(k, domain)  # raises if the reconstruction disagrees with h
    assert np.array_equal(waring_reconstruct(dec).array, fully_symmetric(k, domain).array)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("k", [2, 3])
@PROPERTY
@given(data=st.data())
def test_apply_sym_power_matches_python_ints(p, k, data):
    d = data.draw(st.integers(1, 2))
    power = data.draw(st.integers(1, 2))
    r = data.draw(st.integers(1, 2))
    domain = domain_from_name(f"F{p}")
    f = Tensor(domain, residues(data, p, (d,) * k))
    A = LinearMap(domain, residues(data, p, (r, d ** power)))
    want = apply_sym_reference(
        A.array.astype(object), power_reference(f.array.astype(object), power)
    )
    want = (want % p).astype(np.int64)
    assert np.array_equal(apply_sym_power(A, f, power).array, want)
    assert np.array_equal(apply_sym(A, tensor_power(f, power)).array, want)


@pytest.mark.parametrize("p", LARGE_PRIMES)
@pytest.mark.parametrize("k", [3, 4])
@settings(PROPERTY, max_examples=8)
@given(seed=st.integers(0, 2**32 - 1))
def test_create_t_selection_extracts_h_over_large_primes(p, k, seed):
    """The selection map's rows are c-fold Kronecker products of residues."""
    domain = domain_from_name(f"F{p}")
    f = random_symmetric(np.random.default_rng(seed), 2, k, domain)
    try:
        cert = create_t(f)
    except (MissingKthRootError, ValueError):
        return  # no root clears the diagonal, or flattening rank below 2
    pre = cert.pre_map.array.astype(object)
    want = np.zeros((k, 2 ** cert.c), dtype=object)
    for j in range(k):
        row = np.ones(1, dtype=object)
        for i in range(cert.c):
            row = np.multiply.outer(row, pre[cert.columns[j][i]]).ravel()
        want[j] = row * (int(cert.scale) if j == 0 else 1)
    assert np.array_equal(selection_map(cert).array, (want % p).astype(np.int64))


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_symmetrize_certificate_over_large_primes(p):
    """The chained map collapse @ B @ big is assembled from large residues:
    f = A^{(x)3} <2> for a random invertible A, with witness A^{-1} per leg."""
    domain = domain_from_name(f"F{p}")
    rng = np.random.default_rng(p)
    u = unit_tensor(2, 3, domain)
    for _ in range(20):
        A = rng.integers(0, p, (2, 2))
        _, pivots, inverse = linalg.row_reduce(A, domain)
        if len(pivots) < 2:
            continue
        f = apply_sym(LinearMap(domain, A), u)
        rc = Certificate(kind="restriction", maps=(LinearMap(domain, inverse),) * 3, target=u)
        try:
            res = symmetrize_certificate(f, rc)
        except MissingKthRootError:
            continue
        assert res.certificate.kind == "symmetric-restriction"
        assert verify_certificate(res.certificate, tensor_power(f, res.n + res.c))
        return
    pytest.fail("every draw was singular or hit a missing root")

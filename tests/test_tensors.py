import hashlib
import json

import numpy as np
import pytest

import symsub
from conftest import C, F2, F5, F7, w_tensor
from symsub import (
    ENTRY_CAP,
    DomainError,
    LinearMap,
    PrimeField,
    Tensor,
    TensorSizeError,
    apply,
    apply_sym,
    apply_sym_power,
    domain_from_name,
    flattening_rank,
    identity_map,
    is_symmetric,
    map_from_json,
    map_to_json,
    matrix_rank,
    support,
    tensor_from_json,
    tensor_id,
    tensor_power,
    tensor_product,
    tensor_to_json,
    tensors_equal,
    unit_tensor,
)
from symsub.tensors import _kron_rows, _rank_one_sum


def test_tensor_is_reduced_and_frozen():
    f = Tensor(F5, [[6, -1], [0, 2]])
    assert f.array.tolist() == [[1, 4], [0, 2]]
    with pytest.raises(ValueError):
        f.array[0, 0] = 3
    assert f.order == 2 and f.dims == (2, 2) and f.is_cubical


def test_entry_cap():
    side = 1 << 9
    with pytest.raises(TensorSizeError):
        Tensor(F2, np.zeros((side, side, side), dtype=np.int64))
    assert ENTRY_CAP == 1 << 24


def test_unit_tensor_support():
    u = unit_tensor(3, 3, F5)
    assert support(u) == [(0, 0, 0), (1, 1, 1), (2, 2, 2)]
    assert is_symmetric(u)
    assert unit_tensor(0, 2, F5).dims == (0, 0)


def test_tensor_product_groups_legs():
    """The product pairs up legs, so orders match and dimensions multiply."""
    f = w_tensor(F5)
    g = unit_tensor(3, 3, F5)
    fg = tensor_product(f, g)
    assert fg.order == 3 and fg.dims == (6, 6, 6)
    assert tensors_equal(tensor_power(f, 2), tensor_product(f, f))
    with pytest.raises(ValueError):
        tensor_product(f, unit_tensor(2, 2, F5))
    with pytest.raises(ValueError):
        tensor_product(f, w_tensor(F7))


def test_apply_matches_apply_sym_for_equal_maps():
    rng = np.random.default_rng(0)
    f = w_tensor(F7)
    A = LinearMap(F7, rng.integers(0, 7, size=(3, 2)))
    assert tensors_equal(apply((A, A, A), f), apply_sym(A, f))


def test_apply_shape_checks():
    f = w_tensor(F5)
    A = LinearMap(F5, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        apply((A, A), f)  # one map per leg
    bad = LinearMap(F5, [[1, 0, 0]])
    with pytest.raises(ValueError):
        apply_sym(bad, f)


def test_apply_sym_power_equals_power_then_apply():
    f = w_tensor(F5)
    A = LinearMap(F5, [[1, 2, 0, 3], [0, 1, 4, 1]])
    got = apply_sym_power(A, f, 2)
    want = apply_sym(A, tensor_power(f, 2))
    assert tensors_equal(got, want)


def test_is_symmetric():
    f = w_tensor(C)
    assert is_symmetric(f)
    g = Tensor(C, np.arange(8, dtype=float).reshape(2, 2, 2))
    assert not is_symmetric(g)


def test_flattening_and_matrix_rank():
    f = w_tensor(C)
    assert [flattening_rank(f, [j]) for j in range(3)] == [2, 2, 2]
    m = Tensor(F2, [[1, 1], [1, 1]])
    assert matrix_rank(m) == 1
    assert flattening_rank(m, [0]) == 1
    diag = unit_tensor(3, 3, F5)
    assert flattening_rank(diag, [0, 1]) == 3


def test_identity_map():
    assert apply_sym(identity_map(2, F5), w_tensor(F5)).array.tolist() == w_tensor(
        F5
    ).array.tolist()


@pytest.mark.parametrize("domain", [F5, C])
def test_tensor_json_roundtrip(domain):
    rng = np.random.default_rng(3)
    if domain is C:
        arr = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    else:
        arr = rng.integers(0, 5, size=(2, 3))
    f = Tensor(domain, arr)
    obj = tensor_to_json(f)
    assert obj["domain"] == domain.name
    # JSON indices are 1-based
    if obj["entries"]:
        assert min(min(e["idx"]) for e in obj["entries"]) >= 1
    g = tensor_from_json(obj)
    assert tensors_equal(f, g)


def test_tensor_json_refuses_a_repeated_index():
    """An entry given twice would give one file two readings; it is refused."""
    obj = {"order": 1, "dims": [2], "domain": "F5",
           "entries": [{"idx": [1], "val": 2}, {"idx": [1], "val": 3}]}
    with pytest.raises(ValueError, match=r"^duplicate index: \[1\]$"):
        tensor_from_json(obj)
    obj["entries"][1]["idx"] = [2]
    assert tensor_from_json(obj).array.tolist() == [2, 3]


def _scalar_to_json(domain, v):
    """One scalar as the JSON formats write it, entry by entry: the reference
    for the array-wise writer."""
    if isinstance(domain, PrimeField):
        return int(v) % domain.p
    v = complex(v)
    return [v.real + 0.0, v.imag + 0.0]  # + 0.0 turns a -0.0 into 0.0


def json_map_cases():
    """24 maps over F2, F7, F65521 and C, the empty shapes (0, d), (r, 0) and
    (0, 0) among them: F_p entries given outside [0, p), C entries with -0.0
    parts."""
    rng = np.random.default_rng(32)
    for domain in (F2, F7, PrimeField(65521), C):
        for shape in [(0, 3), (3, 0), (0, 0), (1, 1), (2, 3), (4, 4)]:
            if domain is C:
                parts = rng.normal(size=(2,) + shape)
                parts[rng.random(parts.shape) < 0.35] = -0.0
                arr = np.empty(shape, dtype=complex)
                arr.real, arr.imag = parts
            else:
                arr = rng.integers(-2 * domain.p, 2 * domain.p, size=shape)
            yield LinearMap(domain, arr)


def json_tensor_cases():
    """35 tensors over F2, F3, F7, F65521 and C, of order 0 to 4: F_p entries
    given outside [0, p), C entries with -0.0 parts and entries of 1e-10."""
    rng = np.random.default_rng(31)
    shapes = [(), (0,), (1,), (4,), (2, 3), (2, 1, 3), (3, 3, 3, 3)]
    for domain in (F2, PrimeField(3), F7, PrimeField(65521), C):
        for shape in shapes:
            if domain is C:
                parts = rng.normal(size=(2,) + shape)
                re, im = parts[0, ...], parts[1, ...]  # arrays even at order 0
                pick = rng.integers(0, 5, size=shape)
                re[pick == 0] = -0.0
                im[pick == 1] = -0.0
                re[pick == 2], im[pick == 2] = 1e-10, -0.0  # within the tolerance of 0
                re[pick == 3], im[pick == 3] = -0.0, -0.0
                arr = np.empty(shape, dtype=complex)
                arr.real, arr.imag = re, im
            else:
                arr = rng.integers(-2 * domain.p, 2 * domain.p, size=shape)
            yield Tensor(domain, arr)


def test_tensor_json_matches_the_per_entry_form():
    """The JSON forms of tensors (and their hash) and of maps equal those
    written entry by entry (``support`` and ``_scalar_to_json``), byte for
    byte."""
    for f in json_tensor_cases():
        entries = [{"idx": [i + 1 for i in idx], "val": _scalar_to_json(f.domain, f.array[idx])}
                   for idx in support(f)]
        want = json.dumps({"order": f.order, "dims": list(f.dims), "domain": f.domain.name,
                           "entries": entries}, sort_keys=True)
        assert json.dumps(tensor_to_json(f), sort_keys=True) == want
        assert tensor_id(f) == hashlib.sha256(want.encode()).hexdigest()[:16]
    for m in json_map_cases():
        data = [[_scalar_to_json(m.domain, v) for v in row] for row in m.array]
        want = {"rows": m.rows, "cols": m.cols, "domain": m.domain.name, "data": data}
        assert json.dumps(map_to_json(m), sort_keys=True) == json.dumps(want, sort_keys=True)


def test_map_json_roundtrip():
    m = LinearMap(C, [[1 + 2j, 0], [0.5, -1j]])
    again = map_from_json(map_to_json(m))
    assert np.allclose(m.array, again.array)
    m2 = LinearMap(F5, [[1, 2], [3, 4]])
    assert map_from_json(map_to_json(m2)).array.tolist() == [[1, 2], [3, 4]]


def test_tensor_id_is_stable_and_content_sensitive():
    a = tensor_id(w_tensor(F5))
    assert a == tensor_id(w_tensor(F5))
    assert len(a) == 16 and int(a, 16) >= 0
    assert a != tensor_id(w_tensor(F7))
    assert a != tensor_id(unit_tensor(2, 3, F5))


def _rank_one_reference(coefficients, factors):
    """sum_i c_i * factors[0][i] (x) ... (x) factors[-1][i], one term at a time."""
    total = np.zeros([F.shape[1] for F in factors], dtype=object)
    for i, c in enumerate(coefficients):
        term = np.array(np.asarray(c).item(), dtype=object)  # a Python int or complex
        for F in factors:
            term = np.multiply.outer(term, F[i].astype(object))
        total = total + term
    return total


@pytest.mark.parametrize("name", ["F2", "F3", "F65521", "C"])
def test_row_kernels_match_term_by_term_reference(name):
    domain = domain_from_name(name)
    rng = np.random.default_rng(7)

    def draw(shape):
        if name == "C":
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return rng.integers(max(0, domain.p - 3), domain.p, size=shape)

    for n_terms, widths in [(0, (2, 3)), (3, (4,)), (5, (2, 0, 3)), (4, (3, 1, 2, 2)),
                            (6, (2, 2, 2, 2, 2)), (1, (0,)), (7, (3, 3, 3)),
                            (300, (2, 30, 30))]:  # the last sums five row blocks
        factors = [domain.asarray(draw((n_terms, w))) for w in widths]
        coefficients = domain.asarray(draw(n_terms))
        want = _rank_one_reference(coefficients, factors)
        got = _rank_one_sum(coefficients, factors, domain)
        rows = _kron_rows(factors, domain)
        want_rows = np.zeros((n_terms, int(np.prod(widths))), dtype=object)
        for i in range(n_terms):
            want_rows[i] = _rank_one_reference([1], [F[i:i + 1] for F in factors]).reshape(-1)
        assert got.shape == want.shape and rows.shape == want_rows.shape
        if name == "C":
            scale = max(1, np.abs(want).max(initial=0))
            assert np.allclose(got, want.astype(complex), rtol=0, atol=1e-12 * scale)
            assert np.allclose(rows, want_rows.astype(complex), rtol=1e-12, atol=0)
        else:
            assert got.dtype == rows.dtype == np.int64
            assert got.tobytes() == (want % domain.p).astype(np.int64).tobytes()
            assert rows.tobytes() == (want_rows % domain.p).astype(np.int64).tobytes()
    # order 0: the sum of the coefficients
    coefficients = domain.asarray(draw(4))
    got = _rank_one_sum(coefficients, [], domain)
    assert got.shape == () and domain.arrays_equal(got, np.asarray(coefficients.sum()))


def test_apply_sym_power_rejects_order_zero():
    with pytest.raises(ValueError, match="order >= 1"):
        apply_sym_power(LinearMap(F5, [[1]]), Tensor(F5, 3), 1)


def _nan_corner():
    arr = np.zeros((2, 2, 2), dtype=np.complex128)
    arr[0, 0, 0], arr[1, 1, 1] = np.nan, 1
    return arr


@pytest.mark.parametrize("case", [
    # every zero test read the NaN as zero: a "lower estimate" of 1.0, a
    # passing sandwich, a flattening rank of 2 and a JSON form without it
    lambda: symsub.sym_quantum_functional(Tensor(C, _nan_corner())),
    lambda: symsub.sandwich_check(Tensor(C, _nan_corner())),
    lambda: flattening_rank(Tensor(C, _nan_corner()), [0]),
    lambda: tensor_to_json(Tensor(C, _nan_corner())),
    # Tensor(C, ...) refuses the NaN before any reduction
    lambda: symsub.ballantine_reduce(Tensor(C, [[np.nan, 1], [2, 3]])),
    # "not symmetric"
    lambda: symsub.sym_diagonalize(Tensor(C, [[np.inf, 1], [1, 3]])),
    lambda: LinearMap(C, [[np.inf]]),
    lambda: symsub.linalg.row_reduce(np.array([[1, -np.inf]]), C),
    lambda: C.asarray([complex(0, -np.inf), complex(np.nan, 0)]),
])
def test_complex_inputs_refuse_non_finite_entries(case):
    with pytest.raises(DomainError, match="^complex entry is not finite$"):
        case()


@pytest.mark.parametrize("domain", [F5, C])
def test_json_roundtrips_transposed_and_strided_arrays(domain):
    """The writer reads views that are not C-contiguous (a transposed or a
    strided array) as their values, so maps and tensors of them round-trip."""
    rng = np.random.default_rng(7)
    if domain is C:
        base = rng.normal(size=(4, 6, 2)) + 1j * rng.normal(size=(4, 6, 2))
    else:
        base = rng.integers(0, 5, size=(4, 6, 2))
    for arr in (base[:, :, 0].T, base[::2, ::3, 0], base[1, ::2], base.transpose(2, 0, 1),
                base[::-1, 1::2, :]):
        assert not arr.flags.c_contiguous
        if arr.ndim == 2:
            m = LinearMap(domain, arr)
            again = map_from_json(json.loads(json.dumps(map_to_json(m))))
            assert domain.arrays_equal(again.array, m.array)
        f = Tensor(domain, arr)
        again = tensor_from_json(json.loads(json.dumps(tensor_to_json(f))))
        assert tensors_equal(again, f)

import numpy as np
import pytest

from conftest import C, F5, random_unit_tensor, w_tensor
from symsub import (
    DomainError,
    LinearMap,
    OptimizerOptions,
    QuantumError,
    Tensor,
    TensorSizeError,
    apply_sym,
    directional_derivative_check,
    jacobi_eigh,
    marginal_equality_check,
    moment_map,
    sandwich_check,
    sym_quantum_functional,
    tensor_product,
    uniform_quantum_functional,
    unit_tensor,
)
from symsub import quantum

W_VALUE = 3 / 2 ** (2 / 3)  # 1.8898815748...


def random_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


@pytest.mark.parametrize("d", [0, 1, 2, 3, 4, 5, 6])
def test_jacobi_matches_numpy(d):
    rng = np.random.default_rng(d)
    for _ in range(25):
        h = random_hermitian(rng, d)
        got = np.asarray(jacobi_eigh(h))
        want = np.sort(np.linalg.eigvalsh(h))[::-1]
        assert got.shape == (d,)
        assert np.abs(got - want).max(initial=0.0) < 1e-9


def test_jacobi_reads_both_triangles():
    # symmetrized to [[1, 0.5j], [-0.5j, 1]]; the lower triangle alone is I
    assert np.allclose(jacobi_eigh([[1, 1j], [0, 1]]), [1.5, 0.5])


def test_jacobi_rejects_non_square():
    with pytest.raises(QuantumError):
        jacobi_eigh(np.zeros((2, 3)))


@pytest.mark.parametrize("call", [
    moment_map,
    sandwich_check,
    marginal_equality_check,
    lambda f: directional_derivative_check(f, np.eye(2)),
    sym_quantum_functional,
    uniform_quantum_functional,
], ids=["moment_map", "sandwich_check", "marginal_equality_check",
        "directional_derivative_check", "sym_quantum_functional", "uniform_quantum_functional"])
def test_field_tensors_are_rejected(call):
    with pytest.raises(DomainError):
        call(w_tensor(F5))


def test_moment_map_sums_marginals():
    """mu(f) against the k marginals traced out by tensordot."""
    for f in (w_tensor(C), random_unit_tensor(np.random.default_rng(5), (3, 3, 3))):
        a = f.array / np.linalg.norm(f.array)
        want = sum(np.tensordot(a, a.conj(), axes=2 * ([i for i in range(3) if i != j],))
                   for j in range(3))
        assert np.allclose(moment_map(f), want)
    assert np.allclose(moment_map(w_tensor(C)), np.diag([2.0, 1.0]))


@pytest.mark.parametrize("check", [moment_map, sandwich_check, marginal_equality_check])
def test_checks_need_a_cubical_tensor(check):
    f = random_unit_tensor(np.random.default_rng(2), (2, 3, 2))
    with pytest.raises(QuantumError, match="needs a cubical tensor"):
        check(f)


def test_directional_derivative_example():
    f = Tensor(C, np.array([[1.0, 0.0], [0.0, 0.0]]))
    H = np.diag([1.0, -1.0])
    analytic, numeric = directional_derivative_check(f, H)
    assert analytic == pytest.approx(2.0, abs=1e-9)
    assert numeric == pytest.approx(analytic, rel=1e-6)


def test_directional_derivative_random_agreement():
    rng = np.random.default_rng(14)
    for _ in range(10):
        d, k = 2 + rng.integers(0, 2), 2 + rng.integers(0, 2)
        f = random_unit_tensor(rng, (d,) * k)
        H = random_hermitian(rng, d)
        H = H / max(np.abs(np.linalg.eigvalsh(H)))
        analytic, numeric = directional_derivative_check(f, H)
        assert numeric == pytest.approx(analytic, rel=1e-5, abs=1e-9)


def test_directional_derivative_rejects_large_directions():
    f = random_unit_tensor(np.random.default_rng(0), (2, 2))
    with pytest.raises(QuantumError):
        directional_derivative_check(f, np.diag([3.0, 0.0]))


@pytest.mark.parametrize("r,k", [(1, 2), (2, 2), (3, 3), (4, 2)])
def test_functional_normalization_on_units(r, k):
    res = sym_quantum_functional(unit_tensor(r, k, C), OptimizerOptions(restarts=2))
    assert res.value == pytest.approx(r, abs=1e-6)
    assert res.label == "lower estimate"


def test_functionals_on_w():
    opts = OptimizerOptions(restarts=2)
    for fn in (sym_quantum_functional, uniform_quantum_functional):
        res = fn(w_tensor(C), opts)
        assert res.value == pytest.approx(W_VALUE, abs=1e-2)
        assert res.point.spectrum == pytest.approx((2 / 3, 1 / 3), abs=1e-6)
        assert res.gradient_norm < 1e-2


def test_functional_determinism():
    opts = OptimizerOptions(restarts=2, seed=5)
    a = sym_quantum_functional(w_tensor(C), opts)
    b = sym_quantum_functional(w_tensor(C), opts)
    assert a.value == b.value
    assert a.point.spectrum == b.point.spectrum


def test_functional_restart_count():
    res = sym_quantum_functional(w_tensor(C), OptimizerOptions(restarts=2))
    assert res.restarts == 3  # identity start plus two random ones


def test_functional_product_seeding_reaches_square():
    """W(x)W moved by the single-copy optimum g(x)g, a point of its own
    orbit, exhibits multiplicativity."""
    W = w_tensor(C)
    res1 = sym_quantum_functional(W, OptimizerOptions(restarts=2))
    g = res1.point.maps[0]
    moved = apply_sym(LinearMap(C, np.kron(g, g)), tensor_product(W, W))
    res2 = sym_quantum_functional(moved, OptimizerOptions(restarts=1))
    assert res2.value >= res1.value**2 - 1e-6


@pytest.mark.parametrize("mode", ["sym", "uniform"])
@pytest.mark.parametrize("r,k", [(r, k) for r in range(1, 5) for k in range(2, 5) if r**k <= 256])
def test_unit_tensor_ends_the_run_after_the_identity_start(r, k, mode):
    """<r> is critical: its identity start has maximally mixed marginals,
    entropy log2 r, so the run ends there, with the result of that start
    alone."""
    fn = sym_quantum_functional if mode == "sym" else uniform_quantum_functional
    f = unit_tensor(r, k, C)
    res = fn(f)
    alone = fn(f, OptimizerOptions(restarts=0))
    assert (res.restarts, res.iterations) == (1, 1)
    assert res.value == alone.value
    assert res.gradient_norm == alone.gradient_norm
    assert res.point.spectrum == alone.point.spectrum
    assert res.point.tensor.array.tobytes() == alone.point.tensor.array.tobytes()
    assert [g.tobytes() for g in res.point.maps] == [g.tobytes() for g in alone.point.maps]


@pytest.mark.parametrize("mode", ["sym", "uniform"])
def test_initial_start_onto_a_unit_tensor_ends_the_run(mode):
    """f = A^(x)3 <3>: the identity start runs every restart, while f moved
    by A^-1 is <3>, whose identity start ends the run."""
    fn = sym_quantum_functional if mode == "sym" else uniform_quantum_functional
    rng = np.random.default_rng(3)
    A = np.eye(3) + 0.5 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    f = Tensor(C, np.einsum("ia,jb,kc,abc->ijk", A, A, A, unit_tensor(3, 3, C).array))
    assert fn(f, OptimizerOptions(restarts=4)).restarts == 5
    res = fn(apply_sym(LinearMap(C, np.linalg.inv(A)), f), OptimizerOptions(restarts=4))
    assert (res.restarts, res.iterations) == (1, 1)
    assert res.value == pytest.approx(3, abs=1e-12)


@pytest.mark.parametrize("mode", ["sym", "uniform"])
def test_zero_tolerance_runs_every_start(mode):
    """With tolerance 0 and a fixed iteration budget a generic tensor stays
    below log2 d, so every start runs, each for the whole budget."""
    fn = sym_quantum_functional if mode == "sym" else uniform_quantum_functional
    f = random_unit_tensor(np.random.default_rng(16), (3, 3, 3))
    res = fn(f, OptimizerOptions(restarts=3, iterations=12, tolerance=0.0))
    assert (res.restarts, res.iterations) == (4, 48)
    assert res.value < 3


def test_negative_restarts_run_the_first_start_only():
    res = sym_quantum_functional(w_tensor(C), OptimizerOptions(restarts=-2))
    alone = sym_quantum_functional(w_tensor(C), OptimizerOptions(restarts=0))
    assert (res.restarts, res.value) == (1, alone.value)


def value_and_gradient(arr, maps, mode):
    """The ascent's value and gradient X at the maps, read off their image."""
    value, point = quantum._evaluate(quantum._image(arr, quantum._legs(maps, arr.ndim)), mode)
    return value, quantum._gradient(point, mode)


def objective(arr, maps, mode):
    """The ascent's objective at the maps through the public sandwich check:
    the entropy of the averaged marginal (sym) or the mean marginal entropy."""
    rep = sandwich_check(Tensor(C, quantum._image(arr, quantum._legs(maps, arr.ndim))))
    return rep.entropy_of_average if mode == "sym" else rep.mean_entropy


def hermitian_basis(d):
    """A real basis of the d x d Hermitian matrices."""
    basis = []
    for i in range(d):
        for j in range(i, d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = e[j, i] = 1
            basis.append(e)
            if i != j:
                e = np.zeros((d, d), dtype=complex)
                e[i, j], e[j, i] = 1j, -1j
                basis.append(e)
    return basis


@pytest.mark.parametrize("scale", [1e-6, 1.0])
@pytest.mark.parametrize("mode", ["sym", "uniform"])
def test_closed_form_gradient_matches_central_differences(mode, scale):
    """The ascent's gradient X against central differences (step 1e-6) of
    the objective along exp(tE) g, for a basis of Hermitian E per map, at
    seeded random maps multiplied by ``scale``; each X is Hermitian and
    traceless, and equal to X at the unscaled maps (scaling a map leaves
    the entropy, and so its gradient, unchanged)."""
    rng = np.random.default_rng(12)
    for d in range(2, 6):
        for k in range(2, 5):
            arr = random_unit_tensor(rng, (d,) * k).array
            maps = np.array([
                np.eye(d) + 0.3 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
                for _ in range(1 if mode == "sym" else k)
            ])
            unscaled = value_and_gradient(arr, maps, mode)
            maps = scale * maps
            value, X = value_and_gradient(arr, maps, mode)
            assert value == pytest.approx(objective(arr, maps, mode), abs=1e-12)
            assert value == pytest.approx(unscaled[0], abs=1e-12)
            norm = np.linalg.norm(X)
            assert np.linalg.norm(X - unscaled[1]) <= 1e-9 * norm
            for x in X:
                assert np.abs(x - x.conj().T).max() <= 1e-12 * norm
                assert abs(np.trace(x)) <= 1e-12 * norm
            analytic, numeric = [], []
            for m in range(len(maps)):
                for e in hermitian_basis(d):
                    w, u = np.linalg.eigh(e)

                    def moved(t):
                        step = maps.copy()
                        step[m] = (u * np.exp(t * w)) @ u.conj().T @ maps[m]
                        return objective(arr, step, mode)

                    analytic.append(np.trace(X[m] @ e).real)
                    numeric.append((moved(1e-6) - moved(-1e-6)) / 2e-6)
            err = np.linalg.norm(np.subtract(analytic, numeric)) / np.linalg.norm(numeric)
            assert err <= 1e-6, (d, k, err)


@pytest.mark.parametrize("mode", ["sym", "uniform"])
def test_line_search_in_the_eigenbasis_matches_the_objective(mode):
    """With X / |X| = U diag(eigs) U^H, the line-search value at step t, read
    from w (the image under the maps U^H g), equals the objective at the
    maps U exp(t diag(eigs)) U^H g; checked at seeded maps for every step
    the search would try from 8 down to the first accepted one, so at
    rejected and accepted steps; and the ascent's value is the objective at
    the maps it returns."""
    rng = np.random.default_rng(15)
    tried = {True: 0, False: 0}  # steps checked, by whether they were accepted
    for d in range(2, 6):
        for k in range(2, 5):
            arr = random_unit_tensor(rng, (d,) * k).array
            maps = np.array([
                np.eye(d) + 0.3 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
                for _ in range(1 if mode == "sym" else k)
            ])
            value, X = value_and_gradient(arr, maps, mode)
            eigs, vectors = np.linalg.eigh(X / np.linalg.norm(X))
            adjoint = vectors.conj().swapaxes(1, 2)
            w = quantum._image(arr, quantum._legs(adjoint @ maps, k))
            t, accepted = 8.0, False
            while not accepted and t > 1e-12:
                got = quantum._step(w, quantum._exponents(eigs, k), t, mode)[0]
                moved = (vectors * np.exp(t * eigs)[:, None, :]) @ adjoint @ maps
                assert got == pytest.approx(objective(arr, moved, mode), abs=1e-12)
                accepted = got > value
                tried[accepted] += 1
                t /= 2
    assert tried[True] == 12 and tried[False] >= 12
    fn = sym_quantum_functional if mode == "sym" else uniform_quantum_functional
    f = random_unit_tensor(rng, (3, 3, 3))
    res = fn(f, OptimizerOptions(restarts=1, iterations=12, tolerance=0.0))
    again = objective(f.array, np.array(res.point.maps), mode)
    assert np.log2(res.value) == pytest.approx(again, abs=1e-12)


@pytest.mark.parametrize("mode", ["sym", "uniform"])
def test_accepted_candidate_is_the_next_point(mode):
    """The line search's accepted candidate serves as the next iteration's
    point: its value is the objective at the moved maps U exp(t eigs) U^H g,
    and its gradient is theirs in the frame of U (conjugated by U^H)."""
    rng = np.random.default_rng(16)
    for d in range(2, 5):
        for k in range(2, 5):
            arr = random_unit_tensor(rng, (d,) * k).array
            maps = np.array([
                np.eye(d) + 0.3 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
                for _ in range(1 if mode == "sym" else k)
            ])
            value, X = value_and_gradient(arr, maps, mode)
            eigs, vectors = np.linalg.eigh(X / np.linalg.norm(X))
            adjoint = vectors.conj().swapaxes(1, 2)
            w = quantum._image(arr, quantum._legs(adjoint @ maps, k))
            t = 0.5
            while (cand := quantum._step(w, quantum._exponents(eigs, k), t, mode))[0] <= value:
                t /= 2
            moved = (vectors * np.exp(t * eigs)[:, None, :]) @ adjoint @ maps
            want_value, want_X = value_and_gradient(arr, moved, mode)
            assert cand[0] == pytest.approx(want_value, abs=1e-12)
            got_X = quantum._gradient(cand[1], mode)
            assert np.abs(got_X - adjoint @ want_X @ vectors).max() <= 1e-9 * np.linalg.norm(want_X)


@pytest.mark.parametrize("mode", ["sym", "uniform"])
def test_each_iteration_images_one_tensor(mode, monkeypatch):
    """Leg contractions in the ascent: k per iteration (the accepted image
    rotated into the new eigenbasis), k per start (its first image) and k
    for the returned point; the input is not imaged again per iteration."""
    calls = []
    apply_leg = quantum._apply_leg
    monkeypatch.setattr(quantum, "_apply_leg", lambda *a: calls.append(a[2]) or apply_leg(*a))
    f = random_unit_tensor(np.random.default_rng(23), (3, 3, 3))
    fn = sym_quantum_functional if mode == "sym" else uniform_quantum_functional
    res = fn(f, OptimizerOptions(restarts=1, iterations=12, tolerance=0.0))
    assert (res.restarts, res.iterations) == (2, 24)
    assert len(calls) == 3 * res.iterations + 3 * res.restarts + 3
    assert calls == [0, 1, 2] * (len(calls) // 3)


@pytest.mark.parametrize("mode", ["sym", "uniform"])
def test_zero_iterations_return_the_start(mode):
    """With no iterations the identity start is returned as it is: its own
    objective, no iteration and a zero gradient norm."""
    f = random_unit_tensor(np.random.default_rng(24), (3, 3, 3))
    fn = sym_quantum_functional if mode == "sym" else uniform_quantum_functional
    res = fn(f, OptimizerOptions(restarts=0, iterations=0))
    eye = np.array([np.eye(3)] * (1 if mode == "sym" else 3))
    assert (res.restarts, res.iterations, res.gradient_norm) == (1, 0, 0.0)
    assert np.log2(res.value) == pytest.approx(objective(f.array, eye, mode), abs=1e-12)
    assert np.array_equal(np.array(res.point.maps), eye)
    assert np.abs(res.point.tensor.array - f.array).max() <= 1e-12


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_stacked_flattenings_match_moveaxis(d, k):
    """One fancy index gives every flattening, and the ascent's marginals
    equal the per-leg products F F^H / |F|^2."""
    v = random_unit_tensor(np.random.default_rng(10 * d + k), (d,) * k).array
    flats = quantum._flattenings(v)
    assert flats.shape == (k, d, d ** (k - 1))
    rhos = quantum._marginal_stack(flats)
    want = []
    for j in range(k):
        flat = np.moveaxis(v, j, 0).reshape(d, -1)
        assert np.array_equal(flats[j], flat)
        want.append(flat @ flat.conj().T / np.vdot(flat, flat).real)
        assert np.abs(rhos[j] - want[-1]).max() <= 1e-14
    average = quantum._marginal_stack(flats, average=True)
    assert average.shape == (1, d, d)
    assert np.abs(average[0] - sum(want) / k).max() <= 1e-14
    # the second index puts each raveled flattening back in order
    unflatten = quantum._flat_index(d, k)[1]
    assert np.array_equal(flats.reshape(k, -1)[np.arange(k)[:, None], unflatten],
                          np.broadcast_to(v.ravel(), (k, d**k)))


def test_size_gates():
    with pytest.raises(TensorSizeError, match="size gate"):
        sym_quantum_functional(unit_tensor(7, 2, C))
    with pytest.raises(TensorSizeError, match="size gate"):
        uniform_quantum_functional(unit_tensor(2, 5, C))
    with pytest.raises(QuantumError):
        sym_quantum_functional(Tensor(C, np.zeros((2, 3))))  # not cubical


def test_sandwich_check_on_random_tensors():
    rng = np.random.default_rng(13)
    for _ in range(25):
        rep = sandwich_check(random_unit_tensor(rng, (3, 3, 3)))
        assert rep.concavity_slack >= -1e-9
        assert rep.upper_slack >= -1e-9
        assert rep.log_k == pytest.approx(np.log2(3))
        assert rep.entropy_of_average == pytest.approx(
            rep.mean_entropy + rep.concavity_slack
        )


def test_sandwich_check_on_w():
    rep = sandwich_check(w_tensor(C))
    assert rep.entropy_of_average == pytest.approx(0.9182958340544896)
    assert rep.mean_entropy == pytest.approx(rep.entropy_of_average)


def test_marginal_equality_on_symmetric_tensors():
    assert marginal_equality_check(w_tensor(C)) <= 1e-12
    lopsided = Tensor(C, np.arange(8.0).reshape(2, 2, 2))
    assert marginal_equality_check(lopsided) > 1e-3


def test_no_value_exceeds_its_supremum_d():
    """Rounding used to carry the entropy past log2 d: this run reported
    3.0000000000000004 for a supremum of 3."""
    f = random_unit_tensor(np.random.default_rng(1), (3, 3, 3))
    res = sym_quantum_functional(f, OptimizerOptions(restarts=3, tolerance=0.0))
    assert res.value == 3.0
    for d in range(1, 9):
        assert quantum._entropy_bits([1 / d] * d) <= np.log2(d)


# (mode, k, d, draw) -> (value, restarts, iterations) of the default ascent on
# the draw-th tensor from default_rng([d, k]), recorded before the line search
# read its steps from one exponent table
ASCENT_PINS = {
    ("sym", 3, 2, 0): (1.9999999995221998, 6, 146),
    ("sym", 3, 2, 1): (1.9999999992242612, 2, 53),
    ("sym", 3, 3, 0): (2.9999999997242783, 1, 28),
    ("sym", 3, 3, 1): (2.9999999980977687, 5, 191),
    ("sym", 3, 4, 0): (3.9999999974255886, 3, 111),
    ("sym", 3, 4, 1): (3.9999999983891605, 2, 73),
    ("sym", 4, 2, 0): (1.9999999992240347, 1, 11),
    ("sym", 4, 2, 1): (1.999999999558403, 2, 24),
    ("sym", 4, 3, 0): (2.9999999996717337, 1, 20),
    ("sym", 4, 3, 1): (2.9999999994985114, 3, 48),
    ("sym", 4, 4, 0): (3.9999999997129927, 1, 14),
    ("sym", 4, 4, 1): (3.9999999992149973, 1, 11),
    ("uniform", 3, 2, 0): (1.9999999999891136, 3, 81),
    ("uniform", 3, 2, 1): (1.9999999987717645, 2, 93),
    ("uniform", 3, 3, 0): (2.976663509956292, 9, 540),
    ("uniform", 3, 3, 1): (2.994435963421097, 9, 540),
    ("uniform", 3, 4, 0): (3.9962089759115917, 9, 540),
    ("uniform", 3, 4, 1): (3.998031399873018, 9, 540),
    ("uniform", 4, 2, 0): (1.999251591409521, 9, 540),
    ("uniform", 4, 2, 1): (1.9999908170499192, 9, 540),
    ("uniform", 4, 3, 0): (2.999988680513182, 9, 540),
    ("uniform", 4, 3, 1): (2.999980125565947, 9, 540),
    ("uniform", 4, 4, 0): (3.9999999768815697, 9, 494),
    ("uniform", 4, 4, 1): (3.9999999922341924, 9, 475),
}


@pytest.mark.parametrize("mode", ["sym", "uniform"])
def test_seeded_ascents_keep_their_values_and_work(mode):
    """The default ascent on seeded random tensors, k = 3 and 4, d = 2..4:
    each value to 1e-12 and each (restarts, iterations) as pinned."""
    fn = sym_quantum_functional if mode == "sym" else uniform_quantum_functional
    for k in (3, 4):
        for d in (2, 3, 4):
            rng = np.random.default_rng([d, k])
            for draw in range(2):
                res = fn(random_unit_tensor(rng, (d,) * k))
                value, restarts, iterations = ASCENT_PINS[mode, k, d, draw]
                assert abs(res.value - value) <= 1e-12, (k, d, draw, res.value)
                assert (res.restarts, res.iterations) == (restarts, iterations), (k, d, draw)

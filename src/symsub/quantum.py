"""Complex-side spectral functionals: marginals, entropy, and orbit maxima.

The symmetric and uniform quantum functionals are suprema of marginal
entropies over group orbits; no finite procedure certifies the supremum, so
this module reports *lower estimates* from gradient ascent with restarts,
together with the exact pointwise identities the estimates must satisfy
(moment-map derivative, concavity sandwich, equality of marginals on
symmetric tensors).

The ascent moves each map along the orbit by g <- exp(tX) g with X
Hermitian.  The entropy is invariant under unitaries and scaling, so its
gradient in X is a Hermitian, traceless moment map read from the image
alone: dH(rho) = -tr[(log2 rho) d rho], so one eigh per marginal gives both
the value and the gradient (see ``_gradient``), and exp keeps every map
invertible.  With X = U diag(lam) U^H, each step t the line search tries is
an elementwise scaling of one image, that of the maps U^H g, by exp(t Lam):
Lam, the outer sum of the k legs' eigenvalues, is built once per iteration
(``_exponents``), so a candidate takes one exp (``_step``).  The accepted
candidate is the image of the new maps under U^H on every leg, so its
flattenings and eigh give the next value and gradient: each iteration
images one tensor, the last candidate rotated into the new eigenbasis, and
never the input.  One cached fancy index gives all k flattenings of a
tensor, one batched product all its marginals, and their sum, scaled once,
the averaged marginal.

No entropy here exceeds log2 d, the value of a start whose marginals are
maximally mixed (the critical case; unit tensors start there).  Nor does a
uniform one exceed B, the largest mean marginal entropy of a distribution on
the support of f: 2^B is Strassen's upper support functional in the given
basis (V. Strassen, J. reine angew. Math. 413, 1991), which bounds the
uniform quantum functional (M. Christandl, P. Vrana and J. Zuiddam,
arXiv:1709.07851).  B bounds the sym objective too when f is symmetric.  An
ascent stops once a step gains less than ``tolerance``, and by the same rule
a run ends once a start is within ``tolerance`` of min(log2 d, B): later
starts can only tie.  B is computed at most once, after a first start that
ends below log2 d, and serves only this stop; every result stays a lower
estimate.

All entropies are in bits, matching F = 2**E.  Spectra come from LAPACK
through ``np.linalg.eigvalsh``; the matrices here are at most 6x6.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar, List, Optional, Sequence, Tuple

import numpy as np

from .domains import ComplexNumbers, DomainError
from .tensors import Tensor, TensorSizeError, _apply_legs

__all__ = [
    "DIMENSION_GATE",
    "ORDER_GATE",
    "QuantumError",
    "jacobi_eigh",
    "moment_map",
    "directional_derivative_check",
    "OrbitPoint",
    "OptimizerOptions",
    "QuantumFunctionalResult",
    "sym_quantum_functional",
    "uniform_quantum_functional",
    "SandwichReport",
    "sandwich_check",
    "marginal_equality_check",
]

DIMENSION_GATE = 6
ORDER_GATE = 4

_EIG_FLOOR = 1e-14       # spectrum entries below this count as 0 in entropy
_HERMITIAN_TOL = 1e-12
_COMPLEX = ComplexNumbers()

# entropy ascent along exp(tX) g: the largest line-search step t
_STEP = 0.5


class QuantumError(ValueError):
    """Invalid input to a quantum-side operation; an exceeded size gate
    raises ``TensorSizeError``."""


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------

def jacobi_eigh(matrix) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, non-increasing.

    The matrix is symmetrized to (a + a^H)/2 first, so both triangles count;
    ``np.linalg.eigvalsh`` alone reads only the lower one.  The name is kept
    from the cyclic Jacobi solver this wrapper replaced, because the
    benchmark counts its calls under it (``quantum.jacobi_eigh.calls``).
    """
    a = np.array(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise QuantumError(f"eigensolver needs a square matrix, got {a.shape}")
    return np.linalg.eigvalsh((a + a.conj().T) / 2.0)[::-1]


def _entropy_bits(values: Sequence[float]) -> float:
    """Entropy in bits of a spectrum, clipped to [0, log2 of its length]:
    rounding can carry the sum a little past either bound."""
    total = 0.0
    for v in values:
        if v > _EIG_FLOOR:
            total -= v * math.log2(v)
    return min(max(total, 0.0), math.log2(max(len(values), 1)))


# ---------------------------------------------------------------------------
# marginals
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def _flat_index(d: int, k: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices into a raveled d^k array, shared by every caller so read-only:
    its k flattenings (k, d, d^(k-1)), leg j as rows of entry j; (k, d^k)
    the raveled flattening j back in order; and (k, 1) the row j of each,
    which pairs with the second to index a (k, d^k) stack."""
    cells = np.arange(d**k).reshape((d,) * k)
    index = np.array([np.moveaxis(cells, j, 0).reshape(d, -1) for j in range(k)])
    unflatten = np.argsort(index.reshape(k, -1), axis=1)
    rows = np.arange(k)[:, None]
    for a in (index, unflatten, rows):
        a.setflags(write=False)
    return index, unflatten, rows


def _flattenings(arr: np.ndarray) -> np.ndarray:
    """All k flattenings of a cubical array, stacked, by one fancy index."""
    return arr.ravel()[_flat_index(arr.shape[0], arr.ndim)[0]]


def _marginal_stack(flats: np.ndarray, average: bool = False) -> np.ndarray:
    """The k marginal density matrices, stacked, from the k flattenings; with
    ``average`` only their average, as a stack of one (the sym ascent's and
    the sandwich check's): the k Gram matrices summed, then scaled once."""
    grams = flats @ flats.conj().swapaxes(1, 2)
    norm = float(np.vdot(flats[0], flats[0]).real)
    if average:
        return np.add.reduce(grams, axis=0, keepdims=True) / (len(flats) * norm)
    return grams / norm


def _cubical_array(f: Tensor, what: str) -> np.ndarray:
    """The array of f, once f is checked to be a cubical tensor of order >= 1
    over the complex numbers with an entry that is not exactly 0, scaled by
    the power of two that brings its largest real or imaginary part into
    [1/2, 1).  It keeps norms of very large or very small tensors from
    overflowing or underflowing.  Every quantity read from the array is
    blind to scale, and the scaling is exact, so it changes no result, as
    long as no nonzero part falls below 2^-1022 (float64's subnormal range)
    after it.  Only a tensor whose parts span a ratio beyond about 2^1021
    can do that; such a part is rounded, possibly to 0, which drops its cell
    from the support that ``_support_bound`` reads."""
    if not isinstance(f.domain, ComplexNumbers):
        raise DomainError(f"{what} runs over the complex numbers, not {f.domain.name}")
    arr = np.asarray(f.array, dtype=np.complex128)
    if not f.is_cubical or arr.ndim == 0:
        raise QuantumError(f"{what} needs a cubical tensor of order >= 1")
    parts = np.ascontiguousarray(arr).view(np.float64)
    top = float(np.max(np.abs(parts), initial=0.0))
    if top == 0.0:
        raise QuantumError(f"zero tensor has no {what}")
    return np.ldexp(parts, -math.frexp(top)[1]).view(np.complex128)


def moment_map(f: Tensor) -> np.ndarray:
    """mu(f): the sum of all k marginal density matrices (Hermitian, trace k)."""
    arr = _cubical_array(f, "moment map")
    return _marginal_stack(_flattenings(arr)).sum(axis=0)


# ---------------------------------------------------------------------------
# the moment-map derivative identity
# ---------------------------------------------------------------------------

def directional_derivative_check(f: Tensor, direction) -> Tuple[float, float]:
    """Compare tr[mu(f) H] with the numeric derivative of g -> 0.5 ln|g...f|^2.

    ``direction`` is a Hermitian matrix of spectral norm at most 1 acting on
    every leg; the derivative is taken along e^{tH} at t = 0 by a central
    difference with step 1e-5 (natural logarithm on both sides).  Returns
    ``(analytic, numeric)``.
    """
    arr = _cubical_array(f, "derivative check")
    h = np.array(direction, dtype=np.complex128)
    d = arr.shape[0]
    if h.shape != (d, d):
        raise QuantumError(f"direction must be {d}x{d}, got {h.shape}")
    if float(np.max(np.abs(h - h.conj().T), initial=0.0)) > _HERMITIAN_TOL:
        raise QuantumError("direction must be Hermitian within 1e-12")
    eigs, vectors = np.linalg.eigh(h)
    norm = float(np.max(np.abs(eigs), initial=0.0))
    if norm > 1.0 + 1e-9:
        raise QuantumError(f"direction has spectral norm {norm:.6g} > 1")

    analytic = float(np.trace(moment_map(f) @ h).real)
    unit = arr / math.sqrt(float(np.sum(np.abs(arr) ** 2)))
    step = 1e-5

    def log_norm(t: float) -> float:
        g = (vectors * np.exp(t * eigs)) @ vectors.conj().T
        image = _apply_legs([g] * arr.ndim, unit, _COMPLEX)
        return 0.5 * math.log(float(np.sum(np.abs(image) ** 2)))

    numeric = (log_norm(step) - log_norm(-step)) / (2.0 * step)
    return analytic, numeric


# ---------------------------------------------------------------------------
# orbit maximization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitPoint:
    """A point of a GL orbit: the acting map(s) and the normalized tensor.

    ``maps`` has one entry for the symmetric orbit (the same map on every
    leg) and k entries for the product orbit.  ``spectrum`` is the spectrum
    of the averaged marginal of the unit-norm transformed tensor.
    """

    maps: Tuple[np.ndarray, ...]
    tensor: Tensor
    spectrum: Tuple[float, ...]

    def __post_init__(self):
        n2 = float(np.sum(np.abs(self.tensor.array) ** 2))
        if abs(n2 - 1.0) > 1e-9:
            raise QuantumError(f"orbit point tensor has norm^2 = {n2:.12g}, not 1")


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs for the entropy ascent; defaults suit dimensions up to 6.

    ``restarts`` counts seeded random starts run in addition to the identity
    start.  ``tolerance`` ends a start's ascent once a step gains less than
    it, and ends the run once a start is within it of the bound min(log2 d,
    B), where B is the support bound of the module docstring (Strassen's
    upper support functional, which caps the quantum functionals by
    Christandl-Vrana-Zuiddam), used in sym mode only on a symmetric f; with
    0 every start runs unless one reaches the bound itself.  To start from maps
    G instead of the identity, run on the image of f under G (``apply_sym``
    or ``apply``): the functionals are suprema over the orbit of f, so the
    image has the same value, and the identity start on it is G's.
    """

    restarts: int = 8
    iterations: int = 60
    seed: int = 0
    tolerance: float = 1e-9


@dataclass(frozen=True)
class QuantumFunctionalResult:
    """A lower estimate of a quantum functional with optimizer metadata.

    ``restarts`` counts every start actually run, the identity one
    included; ``gradient_norm`` is the Frobenius norm, over all maps,
    of the entropy gradient X in the direction g <- exp(X) g at the last
    iteration of the winning start.  ``label`` is a class constant: every
    result is a lower estimate.
    """

    value: float
    point: OrbitPoint
    restarts: int
    iterations: int
    gradient_norm: float
    label: ClassVar[str] = "lower estimate"


def _legs(maps: Sequence[np.ndarray], k: int) -> List[np.ndarray]:
    """The map on each of the k legs: one shared map, or one map per leg."""
    return list(maps) * k if len(maps) == 1 else list(maps)


def _evaluate(v: np.ndarray, mode: str) -> Tuple[float, tuple]:
    """Entropy objective in bits of the image v, and the point its gradient
    reads: v, its k flattenings, the eigh of its marginal stack and the
    entropy of each of those marginals."""
    flats = _flattenings(v)
    spectra, vectors = np.linalg.eigh(_marginal_stack(flats, mode == "sym"))
    entropies = [_entropy_bits(values) for values in spectra.tolist()]
    return sum(entropies) / len(entropies), (v, flats, spectra, vectors, entropies)


def _exponents(eigs: np.ndarray, k: int) -> np.ndarray:
    """The (d,)*k table of sums eigs_0[i_0] + ... + eigs_(k-1)[i_(k-1)] of
    the eigenvalues on each leg (``eigs`` holds one row per map)."""
    return functools.reduce(np.add.outer, _legs(eigs, k))


def _step(w: np.ndarray, exponents: np.ndarray, t: float, mode: str) -> Tuple[float, tuple]:
    """``_evaluate`` at the maps exp(t diag(eigs)) U^H g from w, the image
    under the maps U^H g, with ``exponents`` the ``_exponents`` of eigs: the
    maps scale entry i of w by exp(t * exponents[i]).  Its value is the
    objective at the maps U exp(t diag(eigs)) U^H g, as the entropy is
    blind to the unitary U on any leg."""
    return _evaluate(w * np.exp(t * exponents), mode)


def _gradient(point: tuple, mode: str) -> np.ndarray:
    """For each map, the gradient X of the objective at an ``_evaluate``
    point in the direction g <- exp(X) g, X Hermitian, in the frame of the
    point's image v (a unitary R on every leg of v conjugates X by R).

    Let N = |v|^2, and L_j = log2 of the marginal on leg j with eigenvalues
    clipped at _EIG_FLOOR (in sym mode every L_j and H_j belong to the
    averaged marginal).  As tr rho stays 1, dH = -tr[L d rho] = Re<G, dv>
    with G = -(2/(kN)) sum_j (L_j on leg j of v + H_j v).  Moving the map on
    leg j by exp(X) moves v by X on leg j, so that map gets G_(j) v_(j)^H
    (flattenings with leg j as rows); the shared sym map sums all k.  The
    Hermitian part of the sum is X, and it is traceless because scaling a
    map leaves the entropy unchanged.
    """
    v, flats, spectra, vectors, entropies = point
    k = v.ndim
    logs = np.log2(np.maximum(spectra, _EIG_FLOOR))
    log_rhos = (vectors * logs[:, None, :]) @ vectors.conj().swapaxes(1, 2)
    # L_j on leg j of v, in flattening j, then every leg back in order
    index, unflatten, rows = _flat_index(v.shape[0], k)
    moved = (log_rhos @ flats).reshape(k, -1)[rows, unflatten]
    terms = moved + np.array(entropies)[:, None] * v.ravel()
    G = terms.sum(axis=0) * (-2.0 / (k * float(np.vdot(v, v).real)))
    X = G[index] @ flats.conj().swapaxes(1, 2)
    X = X.sum(axis=0, keepdims=True) if mode == "sym" else X
    return (X + X.conj().swapaxes(1, 2)) / 2


def _support_bound(arr: np.ndarray) -> float:
    """An upper bound in bits, at most log2 d, on B: the largest mean
    marginal entropy phi(P) = (1/k) sum_j H(P_j) of a distribution P on the
    support of arr, the exact one (arr != 0), since the orbit can scale up a
    tiny entry.  2^B is Strassen's upper support functional in the basis of
    arr, which bounds the uniform quantum functional (Christandl-Vrana-
    Zuiddam), so B bounds the uniform objective at every point of the orbit.

    phi is concave, so B is at most its Frank-Wolfe dual value at any P,
    phi(P) + max_s grad_s - <grad, P>: the largest mean of -log2 P_j(s_j)
    over the support cells s.  This is that dual at the uniform P, where
    P_j(a) is the share of support cells with index a on leg j.  It is B
    itself when every support cell has the same mean, as on W and on a full
    support, since the dual then meets phi(P).
    """
    k, d = arr.ndim, arr.shape[0]
    cells = np.nonzero(arr)
    n = len(cells[0])
    means = sum(np.log2(n / np.bincount(leg, minlength=d)[leg]) for leg in cells) / k
    return min(math.log2(d), float(means.max()))


def _orbit_optimize(
    f: Tensor, mode: str, options: Optional[OptimizerOptions]
) -> QuantumFunctionalResult:
    arr = _cubical_array(f, "quantum functional")
    k, d = arr.ndim, arr.shape[0]
    if k < 2:
        raise QuantumError(f"quantum functionals need order >= 2, got {k}")
    if d > DIMENSION_GATE:
        raise TensorSizeError(
            f"size gate: quantum functionals handle dimension <= {DIMENSION_GATE}, "
            f"got {d}"
        )
    if k > ORDER_GATE:
        raise TensorSizeError(
            f"size gate: quantum functionals handle order <= {ORDER_GATE}, got {k}"
        )
    opts = options if options is not None else OptimizerOptions()
    n_maps = 1 if mode == "sym" else k

    def ascend(maps: np.ndarray) -> Tuple[float, np.ndarray, int, float]:
        # the point's image is that of the maps under frame^H on every leg
        value, point = _evaluate(_apply_legs(_legs(maps, k), arr, _COMPLEX), mode)
        frame = eye
        iterations = 0
        gnorm = 0.0
        size = _STEP
        for _ in range(opts.iterations):
            X = _gradient(point, mode)
            gnorm = float(np.linalg.norm(X))
            iterations += 1
            if gnorm < 1e-12:
                break
            # X / |X| = V diag(eigs) V^H in the point's frame, so U = frame V
            # in the maps': every step t below scales w, the image under U^H g
            eigs, vectors = np.linalg.eigh(X / gnorm)
            exponents = _exponents(eigs, k)
            w = _apply_legs(_legs(vectors.conj().swapaxes(1, 2), k), point[0], _COMPLEX)
            vectors = frame @ vectors
            adjoint = vectors.conj().swapaxes(1, 2)
            size = min(_STEP, 2 * size)
            delta = -1.0
            while size > 1e-12:
                cand_value, cand = _step(w, exponents, size, mode)
                if cand_value > value:
                    delta = cand_value - value
                    maps = (vectors * np.exp(size * eigs)[:, None, :]) @ adjoint @ maps
                    value, point, frame = cand_value, cand, vectors
                    break
                size /= 2
            if delta < 0 or delta < opts.tolerance:
                break
        return value, maps, iterations, gnorm

    eye = np.eye(d, dtype=np.complex128)

    def start(idx: int) -> np.ndarray:
        if idx == 0:
            return np.array([eye] * n_maps)
        rng = np.random.default_rng([opts.seed, idx])
        return np.array([
            eye + 0.25 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            for _ in range(n_maps)
        ])

    # no entropy exceeds log2 d, and no uniform one exceeds B; nor does a sym
    # one on a symmetric f, whose orbit points are symmetric tensors, so their
    # averaged marginal is each marginal.  Once a start is within tolerance
    # of the bound no later start can win by more than tolerance.
    bound = math.log2(d)
    starts = max(opts.restarts, 0) + 1  # a negative count runs the first start
    best: Optional[Tuple[float, np.ndarray, float]] = None
    total_iterations = 0
    for idx in range(starts):
        value, maps, iterations, gnorm = ascend(start(idx))
        total_iterations += iterations
        if best is None or value > best[0]:
            best = (value, maps, gnorm)
        if idx == 0 and starts > 1 and best[0] < bound - opts.tolerance and (
            mode == "uniform"
            or all(np.array_equal(arr, arr.swapaxes(j, j + 1)) for j in range(k - 1))
        ):
            bound = _support_bound(arr)
        if best[0] >= bound - opts.tolerance:
            break

    entropy, maps, gnorm = best
    image = _apply_legs(_legs(maps, k), arr, _COMPLEX)
    unit = image / math.sqrt(float(np.vdot(image, image).real))
    avg = _marginal_stack(_flattenings(unit), average=True)[0]
    spectrum = tuple(max(float(v), 0.0) for v in jacobi_eigh(avg))
    maps.setflags(write=False)
    point = OrbitPoint(
        maps=tuple(maps),
        tensor=Tensor(ComplexNumbers(), unit),
        spectrum=spectrum,
    )
    return QuantumFunctionalResult(
        value=float(2.0 ** entropy),
        point=point,
        restarts=idx + 1,
        iterations=total_iterations,
        gradient_norm=gnorm,
    )


def sym_quantum_functional(
    f: Tensor, options: Optional[OptimizerOptions] = None
) -> QuantumFunctionalResult:
    """Lower estimate of F(f) = 2^E(f): entropy of the averaged marginal,
    maximized over one invertible map acting on every leg.

    The supremum runs over an orbit closure, which no finite ascent
    certifies; the result is labeled a lower estimate accordingly.
    """
    return _orbit_optimize(f, "sym", options)


def uniform_quantum_functional(
    f: Tensor, options: Optional[OptimizerOptions] = None
) -> QuantumFunctionalResult:
    """Lower estimate of the uniform quantum functional: the average of the
    k marginal entropies, maximized over k independent invertible maps."""
    return _orbit_optimize(f, "uniform", options)


# ---------------------------------------------------------------------------
# pointwise checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SandwichReport:
    """Concavity sandwich at one point, with nonnegative slacks.

    entropy_of_average  H of the averaged marginal,
    mean_entropy        average of the per-leg marginal entropies,
    and the two slack values of
    mean_entropy <= entropy_of_average <= mean_entropy + log2(k).
    """

    entropy_of_average: float
    mean_entropy: float
    log_k: float
    concavity_slack: float
    upper_slack: float


def sandwich_check(f: Tensor) -> SandwichReport:
    """Check the two-sided entropy sandwich at the normalized tensor f; for
    an orbit point, pass its ``tensor``.  A slack below -1e-9 on either side
    is a numeric violation and raises RuntimeError.
    """
    arr = _cubical_array(f, "sandwich check")
    k = arr.ndim
    flats = _flattenings(arr)
    spectra = np.linalg.eigvalsh(
        np.concatenate([_marginal_stack(flats), _marginal_stack(flats, average=True)]))
    mean_entropy = sum(_entropy_bits(values) for values in spectra[:k].tolist()) / k
    entropy_avg = _entropy_bits(spectra[k].tolist())
    log_k = math.log2(k)
    concavity = entropy_avg - mean_entropy
    upper = mean_entropy + log_k - entropy_avg
    if concavity < -1e-9:
        raise RuntimeError(f"sandwich violation: H(avg) - avg H = {concavity:.3e} < -1e-9")
    if upper < -1e-9:
        raise RuntimeError(f"sandwich violation: avg H + log2 k - H(avg) = {upper:.3e} < -1e-9")
    return SandwichReport(
        entropy_of_average=entropy_avg,
        mean_entropy=mean_entropy,
        log_k=log_k,
        concavity_slack=concavity,
        upper_slack=upper,
    )


def marginal_equality_check(f: Tensor) -> float:
    """Max entrywise deviation of any marginal from the first one.

    Symmetric tensors have all marginals equal, so the return value is a
    diagnostic: at most ~1e-12 on symmetric input, possibly large otherwise.
    """
    arr = _cubical_array(f, "marginal equality check")
    rhos = _marginal_stack(_flattenings(arr))
    return float(np.max(np.abs(rhos - rhos[0]), initial=0.0))

"""Subrank, symmetric subrank and quantum functionals for small tensors.

Scalar domains are prime fields F_p and the complex numbers.  The package
computes restriction-based rank parameters with verifiable certificates
(subrank, symmetric subrank, symmetric rank, congruence normal forms),
constructs symmetric restrictions out of plain ones, evaluates hypergraph
independence bounds through adjacency tensors, and estimates the symmetric
and uniform quantum functionals numerically.

Submodules: domains, tensors, linalg, restrict, congruence, symmetrize,
hypergraphs, quantum, cli.  Each is imported on first use (PEP 562): the
names below resolve through their home submodule when first read, so
``import symsub`` loads neither a submodule nor numpy.
"""

_EXPORTS = {
    "congruence": """CongruenceError CongruenceResult DomainTooSmallError
        MatrixSymsubrankResult MissingSquareRootError PowerDiagResult
        SkewInputError SymDiagResult
        ballantine_reduce congruence_result_to_json is_skew_zero_diag
        matrix_symsubrank power_diag_certificate sym_diagonalize""",
    "domains": "ComplexNumbers Domain DomainError PrimeField domain_from_name",
    "hypergraphs": """CapacityLowerResult ChainReport Hypergraph HypergraphError
        adjacency_tensor alpha_chain_check capacity_lower
        capacity_upper_quantum hypergraph_from_json hypergraph_to_json
        independence_number induced_matching_number strong_power""",
    "quantum": """OptimizerOptions OrbitPoint QuantumError QuantumFunctionalResult
        SandwichReport directional_derivative_check jacobi_eigh
        marginal_equality_check moment_map sandwich_check
        sym_quantum_functional uniform_quantum_functional""",
    "restrict": """DEFAULT_BUDGET Certificate SearchInfeasibleError SymrankResult
        certificate_from_json certificate_to_json restriction_exists
        subrank_exact symrank_small symrestriction_exists symsubrank_exact
        verify_certificate""",
    "symmetrize": """CreateTCertificate MissingKthRootError SymmetrizeResult
        SymrankUpperResult WaringDecomposition create_t fully_symmetric
        make_sym remove_powers selection_map symmetrize_certificate
        symrank_upper waring_h waring_reconstruct""",
    "tensors": """ENTRY_CAP LinearMap Tensor TensorSizeError apply apply_sym
        apply_sym_power flattening_rank identity_map is_symmetric map_from_json
        map_to_json matrix_rank support tensor_from_json tensor_id tensor_power
        tensor_product tensor_to_json tensors_equal unit_tensor""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = (
    "domains", "tensors", "linalg", "restrict", "congruence", "symmetrize",
    "hypergraphs", "quantum", "cli",
)

# ``from symsub import *`` also binds the library submodules, but not cli
__all__ = [*_HOME, *(m for m in _SUBMODULES if m != "cli")]

__version__ = "0.1.0"


def __getattr__(name):
    import importlib

    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")  # binds the attribute
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})

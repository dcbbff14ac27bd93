"""What a process loads at start-up: the package namespace resolves each
name on first use, and a CLI run imports only what its subcommand runs.
Each import set is taken in a fresh interpreter, and a CLI process prints
and writes what ``run`` does in-process."""

import gc
import importlib
import json
import os
import subprocess
import sys

import pytest

import symsub
from conftest import c5_directed, c5_matrix, tight_tensor
from symsub import hypergraph_to_json, tensor_to_json
from symsub.cli import run

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# The package's exports, by home submodule.
EXPORTS = {
    "congruence": """CongruenceError CongruenceResult DomainTooSmallError
        MatrixSymsubrankResult MissingSquareRootError PowerDiagResult
        SkewInputError SymDiagResult ballantine_reduce
        congruence_result_to_json is_skew_zero_diag matrix_symsubrank
        power_diag_certificate sym_diagonalize""",
    "domains": "ComplexNumbers Domain DomainError PrimeField domain_from_name",
    "hypergraphs": """CapacityLowerResult ChainReport Hypergraph HypergraphError
        adjacency_tensor alpha_chain_check capacity_lower capacity_upper_quantum
        hypergraph_from_json hypergraph_to_json independence_number
        induced_matching_number strong_power""",
    "quantum": """OptimizerOptions OrbitPoint QuantumError QuantumFunctionalResult
        SandwichReport directional_derivative_check jacobi_eigh
        marginal_equality_check moment_map sandwich_check sym_quantum_functional
        uniform_quantum_functional""",
    "restrict": """DEFAULT_BUDGET Certificate SearchInfeasibleError SymrankResult
        certificate_from_json certificate_to_json restriction_exists
        subrank_exact subranks symrank_small symrestriction_exists
        symsubrank_exact verify_certificate""",
    "symmetrize": """CreateTCertificate MissingKthRootError SymmetrizeResult
        SymrankUpperResult WaringDecomposition create_t fully_symmetric make_sym
        remove_powers selection_map symmetrize_certificate symrank_upper waring_h
        waring_reconstruct""",
    "tensors": """ENTRY_CAP LinearMap Tensor TensorSizeError apply apply_sym
        apply_sym_power flattening_rank identity_map is_symmetric map_from_json
        map_to_json matrix_rank support tensor_from_json tensor_id tensor_power
        tensor_product tensor_to_json tensors_equal unit_tensor""",
}
LIBRARY_SUBMODULES = (
    "congruence", "domains", "hypergraphs", "linalg", "quantum", "restrict",
    "symmetrize", "tensors",
)

# Runs the CLI on argv in this interpreter, then prints its exit code, which
# of symsub's modules it loaded (and whether numpy, dataclasses and inspect),
# and its standard error.
_HEAVY = ("numpy", "dataclasses", "inspect")
_PROBE = f"""
import contextlib, io, json, sys
from symsub.cli import run
err = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    code = run(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m in {_HEAVY!r} or m.startswith("symsub"))
print(json.dumps([code, loaded, err.getvalue()]))
"""


def _fresh(code, *argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def inputs(tmp_path):
    graph = tmp_path / "c5_graph.json"
    graph.write_text(json.dumps(hypergraph_to_json(c5_directed())))
    tensor = tmp_path / "c5.json"
    tensor.write_text(json.dumps(tensor_to_json(c5_matrix())))
    tight = tmp_path / "tight.json"
    tight.write_text(json.dumps(tensor_to_json(tight_tensor())))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    return {"graph": str(graph), "tensor": str(tensor), "tight": str(tight),
            "broken": str(broken), "cert": str(tmp_path / "cert.json")}


def test_import_loads_no_submodule_and_no_numpy():
    loaded = _fresh(
        "import json, sys, symsub\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'numpy' or m.startswith('symsub'))))"
    )
    assert loaded == ["symsub"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["hypergraph", "alpha", "--graph", "{graph}"], 0),
        (["hypergraph", "beta", "--graph", "{graph}"], 0),
        (["hypergraph", "power", "--graph", "{graph}", "-m", "2"], 0),
        (["subrank", "--tensor", "{broken}"], 1),
    ],
    ids=["help", "alpha", "beta", "power", "malformed-syntax"],
)
def test_combinatorial_and_unreadable_runs_skip_numpy(inputs, argv, code):
    """Nor do they load dataclasses, or the inspect it imports."""
    got, loaded, _ = _fresh(_PROBE, *(a.format(**inputs) for a in argv))
    assert got == code
    assert set(_HEAVY).isdisjoint(loaded)


_F2_TENSOR = {"order": 2, "dims": [2, 2], "domain": "F2", "entries": [{"idx": [1, 1], "val": 1}]}
_UNIT = {"order": 3, "dims": [1, 1, 1], "domain": "F5", "entries": [{"idx": [1, 1, 1], "val": 1}]}
_CERT = {"kind": "restriction", "target": {k: v for k, v in _UNIT.items() if k != "dims"},
         "maps": [{"rows": 1, "cols": 2, "domain": "F5", "data": [[1, 0]]}] * 3}

# (file contents, or a subcommand's argv, exit code, error line): malformed
# inputs, each refused by the one numpy-free reader or domain check.
_MALFORMED = {
    "entries-int": (dict(_F2_TENSOR, entries=5), 1,
                    "malformed-json: 'int' object is not iterable"),
    "idx-int": (dict(_F2_TENSOR, entries=[{"idx": 3, "val": 1}]), 1,
                "malformed-json: 'int' object is not iterable"),
    "domain-F4": (dict(_F2_TENSOR, domain="F4"), 1, "invalid-input: not a prime: 4"),
    "domain-7": (dict(_F2_TENSOR, domain=7), 1, "invalid-input: unknown domain tag: 7"),
    "bool-entry": (dict(_F2_TENSOR, entries=[{"idx": [1, 1], "val": True}]), 1,
                   "invalid-input: prime-field entry must be an integer, got True"),
    "duplicate-index": (dict(_F2_TENSOR, entries=[{"idx": [1, 2], "val": 1}] * 2), 1,
                        "invalid-input: duplicate index: [1, 2]"),
    "dims-past-cap": (dict(_F2_TENSOR, dims=[4097, 4097]), 2,
                      "size-gate: tensor too large: 4097x4097 = 16785409 entries "
                      "exceeds the dense cap of 2**24"),
    "target-missing-key": (_CERT, 1, "malformed-json: missing key 'dims'"),
    "deep-nesting": ("[" * 100_000 + "]" * 100_000, 1,
                     "malformed-json: nested too deeply: line 1 column 1 (char 0)"),
    "waring-F4": (["waring", "--order", "3", "--domain", "F4"], 1,
                  "invalid-input: not a prime: 4"),
}


@pytest.mark.parametrize("name", _MALFORMED)
def test_malformed_inputs_fail_before_numpy_loads(inputs, tmp_path, name):
    """A malformed tensor or certificate file, or a bad domain tag, ends in
    its one error line and exit code without loading numpy or dataclasses."""
    content, want_code, line = _MALFORMED[name]
    if isinstance(content, list):
        argv = content
    else:
        path = tmp_path / "input.json"
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        argv = ["rank", "--tensor", str(path)]
        if isinstance(content, dict) and "kind" in content:
            argv = ["verify", "--tensor", inputs["tensor"], "--certificate", str(path)]
    code, loaded, err = _fresh(_PROBE, *argv)
    assert (code, err) == (want_code, f"error: {line}\n")
    assert set(_HEAVY).isdisjoint(loaded)


def test_rank_skips_the_search_and_functional_modules(inputs):
    code, loaded, _ = _fresh(_PROBE, "rank", "--tensor", inputs["tensor"])
    assert code == 0
    assert "numpy" in loaded and "symsub.tensors" in loaded
    unused = {f"symsub.{m}" for m in ("restrict", "congruence", "symmetrize", "quantum")}
    assert unused.isdisjoint(loaded)


def test_every_submodule_is_a_package_attribute():
    """symsub.cli and the rest resolve before anything imported them."""
    found = _fresh(
        "import json, sys, symsub\n"
        "names = " + repr(LIBRARY_SUBMODULES + ("cli",)) + "\n"
        "print(json.dumps([hasattr(symsub, 'cli')] + [getattr(symsub, n) is "
        "sys.modules['symsub.' + n] for n in names]))"
    )
    assert found == [True] * 10


def test_exports_resolve_to_their_home_objects():
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"symsub.{module}")
        for name in names.split():
            assert getattr(symsub, name) is getattr(home, name), name


def test_star_import_binds_the_exports_and_library_submodules():
    namespace = {}
    exec("from symsub import *", namespace)
    bound = set(namespace) - {"__builtins__"}
    want = {name for names in EXPORTS.values() for name in names.split()}
    assert bound == want | set(LIBRARY_SUBMODULES)
    assert set(symsub.__all__) == bound
    assert bound | {"cli"} <= set(dir(symsub))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        getattr(symsub, "nope")


# (argv, exit code), run in this order: verify reads the certificate that
# symsubrank writes.
_PROCESS_RUNS = {
    "symsubrank-cert-out": (["symsubrank", "--tensor", "{tensor}", "--cert-out", "{cert}"], 0),
    "verify": (["verify", "--tensor", "{tensor}", "--certificate", "{cert}"], 0),
    "alpha": (["hypergraph", "alpha", "--graph", "{graph}"], 0),
    "usage-error": (["subrank", "--tensor", "{tensor}", "--budget", "-1"], 1),
    "over-budget": (["subrank", "--tensor", "{tight}", "--budget", "1000"], 2),
}

# main() as the process entry point runs it, after an atexit hook that adds
# the collector's frozen object count to the end of stderr.
_MAIN = """
import atexit, gc, sys
atexit.register(lambda: print(f"frozen {gc.get_freeze_count()}", file=sys.stderr))
from symsub.cli import main
main()
"""


def _process(argv, entry=("-m", "symsub.cli")):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, *entry, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(argv, capsys):
    frozen = gc.get_freeze_count()
    code = run(argv)
    assert gc.get_freeze_count() == frozen  # only main() freezes
    return (code, *capsys.readouterr())


def _cert_bytes(inputs):
    with open(inputs["cert"], "rb") as fh:
        return fh.read()


def test_a_cli_process_prints_and_writes_what_run_does(inputs, capsys):
    for name, (argv, want) in _PROCESS_RUNS.items():
        argv = [a.format(**inputs) for a in argv] + ["--json"]
        expected = _in_process(argv, capsys)
        cert = _cert_bytes(inputs)
        assert expected[0] == want, name
        assert _process(argv) == expected, name
        assert _cert_bytes(inputs) == cert, name


def test_a_cli_process_freezes_the_collector_before_it_exits(inputs, capsys):
    argv = ["symsubrank", "--tensor", inputs["tensor"], "--cert-out", inputs["cert"], "--json"]
    code, out, err = _in_process(argv, capsys)
    cert = _cert_bytes(inputs)
    got_code, got_out, got_err = _process(argv, entry=("-c", _MAIN))
    assert (got_code, got_out, _cert_bytes(inputs)) == (code, out, cert)
    assert got_err.startswith(err)
    frozen = got_err[len(err):]
    assert frozen.startswith("frozen ") and int(frozen.split()[1]) > 0

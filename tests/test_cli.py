import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (
    C, F2, F3, F5, c5_directed, c5_matrix, random_unit_tensor, tight_tensor, w_tensor,
)
from symsub import (
    LinearMap,
    Certificate,
    Tensor,
    certificate_to_json,
    hypergraph_to_json,
    quantum,
    tensor_to_json,
    unit_tensor,
)
from symsub.cli import run


@pytest.fixture
def ws(tmp_path):
    """Write the standard inputs once per test and hand back their paths."""

    def dump(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    paths = {
        "c5": dump("c5.json", tensor_to_json(c5_matrix())),
        "c5_graph": dump("c5_graph.json", hypergraph_to_json(c5_directed())),
        "w_c": dump("w_c.json", tensor_to_json(w_tensor(C))),
        "w_f5": dump("w_f5.json", tensor_to_json(w_tensor(F5))),
        "w_f3": dump("w_f3.json", tensor_to_json(w_tensor(F3))),
        "tight": dump("tight.json", tensor_to_json(tight_tensor())),
        "dir": str(tmp_path),
    }
    return paths


def run_json(capsys, argv):
    code = run(argv + ["--json"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def test_rank_matrix(ws, capsys):
    code, rep, _ = run_json(capsys, ["rank", "--tensor", ws["c5"]])
    assert code == 0
    assert rep["outputs"]["rank"] == 4
    assert rep["verification"] == "exact"
    assert rep["command"] == "rank"
    assert len(rep["inputs"]["tensor"]["sha256"]) == 64


def test_rank_higher_order(ws, capsys):
    code, rep, _ = run_json(capsys, ["rank", "--tensor", ws["w_c"]])
    assert code == 0
    assert rep["outputs"]["flatteningRanks"] == [2, 2, 2]


def test_symsubrank_with_certificate(ws, capsys, tmp_path):
    cert_path = str(tmp_path / "cert.json")
    code, rep, _ = run_json(
        capsys, ["symsubrank", "--tensor", ws["c5"], "--cert-out", cert_path]
    )
    assert code == 0
    assert rep["outputs"]["value"] == 2
    assert rep["outputs"]["certificate"] == {"path": cert_path}

    code = run(["verify", "--tensor", ws["c5"], "--certificate", cert_path])
    out = capsys.readouterr().out
    assert code == 0
    assert "verified: True" in out


def test_symsubrank_inline_certificate(ws, capsys):
    code, rep, _ = run_json(capsys, ["symsubrank", "--tensor", ws["c5"]])
    assert code == 0
    cert = rep["outputs"]["certificate"]
    assert cert["kind"] == "symmetric-restriction"
    assert len(cert["maps"]) == 1


def test_subrank_tight_tensor(tmp_path, capsys):
    from conftest import tight_tensor

    path = tmp_path / "tight.json"
    path.write_text(json.dumps(tensor_to_json(tight_tensor())))
    code, rep, _ = run_json(capsys, ["subrank", "--tensor", str(path)])
    assert code == 0
    assert rep["outputs"]["value"] == 2


def test_hypergraph_chain_example(ws, capsys):
    code, rep, _ = run_json(
        capsys, ["hypergraph", "chain", "--graph", ws["c5_graph"], "--domain", "F2"]
    )
    assert code == 0
    out = rep["outputs"]
    assert (out["alpha"], out["symSubrank"], out["beta"], out["subrank"]) == (2, 2, 3, 4)
    assert out["separation"] is True
    assert all(out["inequalities"].values())


def test_hypergraph_alpha_beta(ws, capsys):
    code, rep, _ = run_json(capsys, ["hypergraph", "alpha", "--graph", ws["c5_graph"]])
    assert code == 0
    assert rep["outputs"]["alpha"] == 2
    assert len(rep["outputs"]["witness"]) == 2

    code, rep, _ = run_json(capsys, ["hypergraph", "beta", "--graph", ws["c5_graph"]])
    assert code == 0
    assert rep["outputs"]["beta"] == 3


def test_hypergraph_power(ws, capsys):
    code, rep, _ = run_json(
        capsys, ["hypergraph", "power", "--graph", ws["c5_graph"], "-m", "2"]
    )
    assert code == 0
    assert rep["outputs"]["value"] == pytest.approx(np.sqrt(7))
    assert rep["outputs"]["alpha"] == 7
    assert rep["outputs"]["bestPower"] == 2


def test_waring(capsys):
    code = run(["waring", "--order", "3", "--domain", "F7", "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rep["outputs"]["terms"] == 4
    assert rep["outputs"]["coefficients"] == [2, 5, 5, 2]


def test_symmetrize_certificate(ws, capsys, tmp_path):
    A = LinearMap(F5, [[2, 1, 2, 1], [2, 2, 1, 1]])
    rc = Certificate(kind="restriction", maps=(A, A, A), target=unit_tensor(2, 3, F5))
    rc_path = tmp_path / "rc.json"
    rc_path.write_text(json.dumps(certificate_to_json(rc)))
    code, rep, _ = run_json(
        capsys,
        ["symmetrize", "--tensor", ws["w_f5"], "--certificate", str(rc_path)],
    )
    assert code == 0
    assert rep["outputs"]["power"] == 5
    assert rep["outputs"]["c"] == 3
    assert rep["verification"] == "verified"


# The "outputs" objects of `--json` reports, compared as canonical JSON text.
_GOLDEN = {
    "waring-3-F7": {
        "coefficients": [2, 5, 5, 2], "terms": 4,
        "vectors": [[1, 1, 1], [1, 1, 6], [1, 6, 1], [1, 6, 6]],
    },
    "waring-4-F65521": {
        "coefficients": [57331, 8190, 8190, 57331, 8190, 57331, 57331, 8190], "terms": 8,
        "vectors": [[1, 1, 1, 1], [1, 1, 1, 65520], [1, 1, 65520, 1], [1, 1, 65520, 65520],
                    [1, 65520, 1, 1], [1, 65520, 1, 65520], [1, 65520, 65520, 1],
                    [1, 65520, 65520, 65520]],
    },
    "createt-W-F5": {
        "c": 3, "columns": [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        "relabeling": [0, 1], "rows": [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        "sourceId": "7f7f9f017e22422c", "y": [2, 1],
    },
    "symmetrize-W-F5": {
        "c": 3, "n": 2, "power": 5,
        "certificate": {
            "kind": "symmetric-restriction",
            "maps": [{"cols": 32, "domain": "F5", "rows": 2, "data": [
                [0, 2, 2, 0, 2, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0, 0,
                 0, 2, 2, 0, 2, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0, 0],
                [0, 2, 2, 0, 2, 0, 0, 0, 0, 2, 2, 0, 2, 0, 0, 0,
                 0, 1, 1, 0, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0, 0]]}],
            "target": {"dims": [2, 2, 2], "domain": "F5", "order": 3, "entries": [
                {"idx": [1, 1, 1], "val": 1}, {"idx": [2, 2, 2], "val": 1}]},
        },
    },
    "symrank-W-F3": {"lowerBound": 2, "value": 3, "vectors": [[0, 2], [1, 2], [2, 2]]},
    "symrank-tight-F2": {
        "lowerBound": 3, "value": 6,
        "vectors": [[0, 0, 1], [0, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0], [1, 1, 1]],
    },
}


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_json_outputs_are_pinned(ws, tmp_path, capsys, case):
    A = LinearMap(F5, [[2, 1, 2, 1], [2, 2, 1, 1]])  # <2> <= W^(x)2, every leg
    rc = Certificate(kind="restriction", maps=(A, A, A), target=unit_tensor(2, 3, F5))
    rc_path = tmp_path / "rc.json"
    rc_path.write_text(json.dumps(certificate_to_json(rc)))
    argv = {
        "waring-3-F7": ["waring", "--order", "3", "--domain", "F7"],
        "waring-4-F65521": ["waring", "--order", "4", "--domain", "F65521"],
        "createt-W-F5": ["createt", "--tensor", ws["w_f5"]],
        "symmetrize-W-F5": ["symmetrize", "--tensor", ws["w_f5"], "--certificate", str(rc_path)],
        "symrank-W-F3": ["symrank", "--tensor", ws["w_f3"]],
        "symrank-tight-F2": ["symrank", "--tensor", ws["tight"]],
    }[case]
    code, rep, err = run_json(capsys, argv)
    assert (code, err, rep["verification"]) == (0, "", "verified")
    assert json.dumps(rep["outputs"], sort_keys=True) == json.dumps(_GOLDEN[case], sort_keys=True)


def test_symrank_over_budget_reports_bounds(ws, capsys):
    code, rep, _ = run_json(capsys, ["symrank", "--tensor", ws["tight"], "--budget", "10"])
    assert code == 0
    assert rep["outputs"] == {"value": None, "lowerBound": 3}
    assert rep["verification"] == "bounds"


@pytest.mark.parametrize("command", ["symsubrank", "symrank", "createt"])
def test_order_zero_tensors_are_invalid_input(tmp_path, capsys, command):
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(tensor_to_json(Tensor(F5, np.array(3)))))
    code = run([command, "--tensor", str(path), "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert re.fullmatch(r"error: invalid-input: [^\n]*order >= [12]\n", captured.err), captured.err


@pytest.mark.parametrize("domain", [C, F3], ids=["C", "F3"])
def test_symrank_of_an_order_zero_tensor_is_refused_for_its_order(tmp_path, capsys, domain):
    """The order is checked before the domain, so C gets the F3 error line."""
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(tensor_to_json(Tensor(domain, np.ones((), dtype=domain.dtype)))))
    code = run(["symrank", "--tensor", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: invalid-input: symmetric rank needs order >= 1\n"


def test_a_repeated_tensor_index_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "twice.json"
    path.write_text(json.dumps({"order": 2, "dims": [2, 2], "domain": "F5", "entries": [
        {"idx": [1, 2], "val": 2}, {"idx": [2, 2], "val": 1}, {"idx": [1, 2], "val": 3}]}))
    code = run(["rank", "--tensor", str(path), "--json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: invalid-input: duplicate index: [1, 2]\n"


@pytest.mark.parametrize("as_json", [True, False])
def test_symmetrize_of_an_order_zero_tensor_is_invalid_input(tmp_path, capsys, as_json):
    scalar = tensor_to_json(Tensor(F3, np.array(1)))
    (tmp_path / "scalar.json").write_text(json.dumps(scalar))
    (tmp_path / "cert.json").write_text(
        json.dumps({"kind": "restriction", "target": scalar, "maps": []}))
    argv = ["symmetrize", "--tensor", str(tmp_path / "scalar.json"),
            "--certificate", str(tmp_path / "cert.json")]
    code = run(argv + ["--json"] * as_json)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: invalid-input: symmetrize_certificate needs order >= 1\n"


@pytest.mark.parametrize("order", [9, 40])
def test_waring_of_large_order_hits_the_size_gate(capsys, order):
    code = run(["waring", "--order", str(order), "--domain", "C", "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: size-gate: h of order {order} needs {order}^{order} entries, "
        "over the dense cap of 2**24\n"
    )


def test_quantum_f(ws, capsys):
    code, rep, _ = run_json(
        capsys, ["quantum", "F", "--tensor", ws["w_c"], "--restarts", "2"]
    )
    assert code == 0
    assert rep["outputs"]["value"] == pytest.approx(1.88988157, abs=1e-4)
    assert rep["outputs"]["restarts"] == 1  # the identity start reaches W's support bound
    assert rep["verification"] == "estimate"


@pytest.mark.parametrize("functional", ["F", "Funiform"])
def test_quantum_restarts_count_every_start_run(tmp_path, capsys, functional):
    """A dense tensor, whose support bound is log2 d, runs the identity
    start and both random ones."""
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(tensor_to_json(random_unit_tensor(np.random.default_rng(0),
                                                                 (3, 3, 3)))))
    code, rep, _ = run_json(
        capsys, ["quantum", functional, "--tensor", str(path), "--restarts", "2"]
    )
    assert code == 0
    assert rep["outputs"]["restarts"] == 3


def test_negative_restarts_is_a_usage_error(ws, tmp_path, capsys):
    """--restarts, --seed and --budget reject negative counts up front, also
    where the value would never be read."""
    matrix = tmp_path / "m_f5.json"
    matrix.write_text(json.dumps(tensor_to_json(Tensor(F5, [[1, 2], [2, 0]]))))
    for argv in (
        ["quantum", "F", "--tensor", ws["w_c"], "--restarts", "-3"],
        ["quantum", "F", "--tensor", ws["w_c"], "--seed", "-1"],
        ["quantum", "F", "--tensor", ws["w_c"], "--seed", "-1", "--restarts", "0"],
        ["congruence", "--tensor", str(matrix), "--seed", "-1"],
        ["symrank", "--tensor", ws["w_f5"], "--budget", "-1"],
        ["symsubrank", "--tensor", str(matrix), "--budget", "-1"],
    ):
        code = run(argv + ["--json"])
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.out == ""
        assert re.fullmatch(r"error: usage: [^\n]*\n", captured.err), captured.err


def test_quantum_funiform(ws, capsys):
    code, rep, _ = run_json(
        capsys, ["quantum", "Funiform", "--tensor", ws["w_c"], "--restarts", "2"]
    )
    assert code == 0
    assert rep["command"] == "quantum Funiform"
    assert rep["outputs"]["value"] == pytest.approx(1.88988157, abs=1e-4)
    assert rep["outputs"]["spectrum"] == pytest.approx([2 / 3, 1 / 3], abs=1e-6)
    assert (rep["outputs"]["label"], rep["outputs"]["restarts"]) == ("lower estimate", 1)
    assert rep["verification"] == "estimate"


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.filterwarnings("error")  # pytest would hide a warning from capsys
@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_quantum_on_large_and_tiny_tensors(tmp_path, capsys, scale):
    """scale * <2>, written by hand since the writer drops entries within
    1e-9 of zero: every quantum subcommand reads it as <2>, without a
    warning and with strict JSON (no NaN)."""
    path = tmp_path / "scaled.json"
    entries = [{"idx": [i] * 3, "val": [scale, 0.0]} for i in (1, 2)]
    path.write_text(json.dumps({"order": 3, "dims": [2, 2, 2], "domain": "C", "entries": entries}))
    for sub in ("F", "Funiform", "check"):
        code = run(["quantum", sub, "--tensor", str(path), "--json"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, ""), sub
        out = json.loads(captured.out, parse_constant=_refuse_constant)["outputs"]
        if sub == "check":
            assert (out["entropyOfAverage"], out["meanEntropy"]) == (1.0, 1.0)
            assert out["marginalDeviation"] == 0.0
        else:
            assert out["value"] == 2.0


def test_quantum_check(ws, capsys):
    code, rep, _ = run_json(capsys, ["quantum", "check", "--tensor", ws["w_c"]])
    assert code == 0
    out = rep["outputs"]
    assert out["concavitySlack"] >= -1e-9
    assert out["marginalDeviation"] <= 1e-12


def test_quantum_check_reads_symmetry_at_the_tensor_s_own_scale(ws, tmp_path, capsys):
    """1e-300 * arange(1, 9) is not symmetric, though every entry lies
    within 1e-9 of its transposes, so it gets no marginalDeviation; 1e-300
    * <2> keeps its deviation of 0.0, and W's report is unchanged.  The
    files are written by hand, since the writer drops entries within 1e-9
    of zero."""
    def check(arr):
        path = tmp_path / "tiny.json"
        entries = [{"idx": [int(i) + 1 for i in idx], "val": [float(arr[idx]), 0.0]}
                   for idx in zip(*np.nonzero(arr))]
        path.write_text(json.dumps({"order": 3, "dims": [2, 2, 2], "domain": "C",
                                    "entries": entries}))
        code, rep, _ = run_json(capsys, ["quantum", "check", "--tensor", str(path)])
        assert code == 0
        return rep["outputs"]

    assert "marginalDeviation" not in check(1e-300 * np.arange(1.0, 9.0).reshape(2, 2, 2))
    assert check(1e-300 * np.eye(2)[:, :, None] * np.eye(2))["marginalDeviation"] == 0.0
    code, rep, _ = run_json(capsys, ["quantum", "check", "--tensor", ws["w_c"]])
    assert code == 0
    assert rep["outputs"] == {  # as printed before the change
        "concavitySlack": 0.0, "entropyOfAverage": 0.9182958340544896,
        "logK": 1.584962500721156, "marginalDeviation": 0.0,
        "meanEntropy": 0.9182958340544896, "upperSlack": 1.584962500721156}


@pytest.mark.parametrize("shape", [(2, 3, 2), ()], ids=["2x3x2", "order-0"])
def test_quantum_check_needs_a_cubical_tensor_of_order_one_or_more(tmp_path, capsys, shape):
    path = tmp_path / "lopsided.json"
    arr = np.arange(1.0, 1 + np.prod(shape)).reshape(shape) + 1j
    path.write_text(json.dumps(tensor_to_json(Tensor(C, arr))))
    code = run(["quantum", "check", "--tensor", str(path), "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    pattern = r"error: invalid-input: [^\n]*needs a cubical tensor[^\n]*\n"
    assert re.fullmatch(pattern, captured.err), captured.err


def test_congruence_and_diagonalize(tmp_path, capsys):
    rng = np.random.default_rng(3)
    m = rng.integers(0, 5, size=(4, 4))
    sym = (m + m.T) % 5
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(tensor_to_json(Tensor(F5, sym))))
    code, rep, _ = run_json(capsys, ["congruence", "--tensor", str(path)])
    assert code == 0
    assert rep["outputs"]["diagNonzeros"] == rep["outputs"]["rank"]

    v = rng.normal(size=(4, 3))
    cpath = tmp_path / "symc.json"
    cpath.write_text(json.dumps(tensor_to_json(Tensor(C, v @ v.T))))
    code, rep, _ = run_json(capsys, ["diagonalize", "--tensor", str(cpath)])
    assert code == 0
    assert rep["outputs"]["rank"] == 3


def _near_tolerance_matrices():
    """default_rng(7)'s 4x4 complex matrix scaled by 1e-9, and a rank-2
    symmetric 5x5 plus 1e-8 symmetric noise (default_rng(0))."""
    rng = np.random.default_rng(7)
    tiny = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) * 1e-9
    rng = np.random.default_rng(0)
    V = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    N = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    return {"tiny": tiny, "rank2-noise": V.T @ V + 1e-8 * (N + N.T)}


@pytest.mark.parametrize("command", ["congruence", "diagonalize", "symsubrank"])
@pytest.mark.parametrize("name", sorted(_near_tolerance_matrices()))
def test_complex_matrices_near_the_tolerance_reduce_or_are_invalid_input(
        tmp_path, capsys, command, name):
    """Valid input ends in a result or in one invalid-input line, never in
    an internal error; a reduction's diagNonzeros is the rank that `rank`
    reports.  The file is written by hand: the tensor writer drops entries
    within 1e-9 of zero."""
    M = _near_tolerance_matrices()[name]
    entries = [{"idx": [i + 1, j + 1], "val": [M[i, j].real, M[i, j].imag]}
               for i in range(len(M)) for j in range(len(M))]
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"order": 2, "dims": list(M.shape), "domain": "C",
                                "entries": entries}))
    code = run([command, "--tensor", str(path), "--json"])
    captured = capsys.readouterr()
    if code:
        assert (code, captured.out) == (1, "")
        assert re.fullmatch(r"error: invalid-input: [^\n]*\n", captured.err), captured.err
        return
    assert captured.err == ""
    outputs = json.loads(captured.out)["outputs"]
    if command == "congruence":
        assert run(["rank", "--tensor", str(path), "--json"]) == 0
        rank = json.loads(capsys.readouterr().out)["outputs"]["rank"]
        assert outputs["diagNonzeros"] == outputs["rank"] == rank


def test_json_reports_are_deterministic(ws, capsys):
    run(["hypergraph", "chain", "--graph", ws["c5_graph"], "--domain", "F2", "--json"])
    first = capsys.readouterr().out
    run(["hypergraph", "chain", "--graph", ws["c5_graph"], "--domain", "F2", "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_human_output_has_elapsed(ws, capsys):
    code = run(["rank", "--tensor", ws["c5"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "elapsed" in out
    assert "rank: 4" in out


def test_workers_flag_accepted(ws, capsys):
    # --workers is gone: it is rejected like any unknown flag
    code = run(["rank", "--tensor", ws["c5"], "--workers", "4", "--json"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: usage:")
    assert err.count("\n") == 1


def test_missing_file_exits_one(capsys):
    code = run(["rank", "--tensor", "/nonexistent/nope.json"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: missing-file:")
    assert err.count("\n") == 1


def test_malformed_json_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = run(["rank", "--tensor", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: malformed-json:")


_TARGET = {"order": 3, "dims": [1, 1, 1], "domain": "F5",
           "entries": [{"idx": [1, 1, 1], "val": 1}]}
_BAD_MAP = {"rows": 1, "cols": 2, "domain": "F5", "data": 5}


def _typed_tensor(entries):
    return {"order": 2, "dims": [2, 2], "domain": "F2", "entries": entries}


def _typed_certificate(**fields):
    return {"kind": "restriction", "target": _TARGET, "maps": [_BAD_MAP] * 3, **fields}


@pytest.mark.parametrize(
    "command, obj",
    [
        pytest.param("rank", _typed_tensor(5), id="5"),
        pytest.param("rank", _typed_tensor([{"idx": 3, "val": 1}]), id="entries1"),
        pytest.param("verify", _typed_certificate(), id="verify-map-data"),
        pytest.param("symmetrize", _typed_certificate(), id="symmetrize-map-data"),
        pytest.param("verify", _typed_certificate(target=dict(_TARGET, entries=5)),
                     id="verify-target-entries"),
        pytest.param("verify", _typed_certificate(maps=5), id="verify-maps"),
    ],
)
def test_wrongly_typed_json_exits_one(ws, tmp_path, capsys, command, obj):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(obj))
    if command == "rank":
        code = run(["rank", "--tensor", str(path)])
    else:
        code = run([command, "--tensor", ws["w_f5"], "--certificate", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: malformed-json:")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    [
        '{"order": Infinity, "dims": [2, 2], "domain": "F5", "entries": []}',
        '{"order": 2, "dims": [2, NaN], "domain": "F5", "entries": []}',
        '{"order": 2, "dims": [2, 2], "domain": "C", '
        '"entries": [{"idx": [1, 1], "val": 1%s}]}' % ("0" * 400),
    ],
    ids=["infinite-order", "nan-dim", "int-overflow"],
)
def test_out_of_range_numbers_exit_one(tmp_path, capsys, text):
    path = tmp_path / "range.json"
    path.write_text(text)
    code = run(["rank", "--tensor", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: invalid-input:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["NaN", "Infinity", "1e400", "[0, NaN]"],
                         ids=["nan", "infinity", "1e400", "pair-nan"])
@pytest.mark.parametrize("where", ["tensor", "certificate-map"])
def test_non_finite_complex_entries_exit_one(ws, tmp_path, capsys, where, value):
    """JSON NaN, Infinity and 1e400 (which parses to inf) are no complex numbers."""
    bad = {"order": 2, "dims": [2, 2], "domain": "C",
           "entries": [{"idx": [1, 1], "val": 1}, {"idx": [2, 2], "val": "@"}]}
    if where == "tensor":
        argv = ["rank", "--tensor"]
    else:
        unit = tensor_to_json(unit_tensor(1, 3, C))
        bad = {"kind": "restriction", "target": unit, "maps": [
            {"rows": 1, "cols": 2, "domain": "C", "data": [[1, "@"]]}] * 3}
        argv = ["verify", "--tensor", ws["w_c"], "--certificate"]
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(bad).replace('"@"', value))
    code = run(argv + [str(path), "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert re.fullmatch(r"error: invalid-input: [^\n]*\n", captured.err), captured.err


def test_assertion_error_is_internal(ws, capsys, monkeypatch):
    """An internal failure is a RuntimeError (the package raises no
    AssertionError); the CLI reports it as one internal error line."""
    def broken(f):
        raise RuntimeError("broken invariant")

    monkeypatch.setattr("symsub.tensors.matrix_rank", broken)
    code = run(["rank", "--tensor", ws["c5"]])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: internal: broken invariant\n"


@pytest.mark.parametrize("command", ["subrank", "symsubrank"])
@pytest.mark.parametrize("tensor", ["c5", "w_f3"])
def test_a_failed_certificate_check_is_one_internal_error(ws, capsys, monkeypatch,
                                                         command, tensor):
    """The library checks each certificate where it makes it; the CLI
    reports the failure once."""
    monkeypatch.setattr("symsub.restrict.verify_certificate", lambda cert, f: False)
    code = run([command, "--tensor", ws[tensor]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert re.fullmatch(r"error: internal: internal error: [^\n]*\n", captured.err), captured.err


def test_unknown_subcommand_exits_one(capsys):
    code = run(["frobnicate"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: usage:")


def test_missing_required_flag_exits_one(capsys):
    code = run(["rank"])
    assert code == 1
    assert "error: usage:" in capsys.readouterr().err


def test_budget_exhaustion_exits_two(ws, capsys):
    code = run(["symsubrank", "--tensor", ws["w_f5"], "--budget", "10"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: budget:")


_SIZE_GATES = {
    # n = 41 vertices, over the gate of 40
    "hypergraph-alpha": (["hypergraph", "alpha"], {"n": 41, "k": 2, "edges": [[1, 2]]}),
    # |Phi| = 72 edges + 9 diagonal tuples, over the gate of 64
    "hypergraph-beta": (["hypergraph", "beta"], {"n": 9, "k": 2, "edges": [
        [i, j] for i in range(1, 10) for j in range(1, 10) if i != j]}),
    # the second strong power has 7^2 = 49 vertices, over the gate of 40
    "hypergraph-power": (["hypergraph", "power", "-m", "2"], {"n": 7, "k": 2, "edges": [[1, 2]]}),
    # dimension 7, over the gate of 6
    "quantum-F": (["quantum", "F"], tensor_to_json(unit_tensor(7, 2, C))),
    # order 5, over the gate of 4
    "quantum-Funiform": (["quantum", "Funiform"], tensor_to_json(unit_tensor(2, 5, C))),
}


@pytest.mark.parametrize("command", sorted(_SIZE_GATES))
def test_size_gate_exits_two(tmp_path, capsys, command):
    """Every size gate, of the hypergraph searches and of the quantum
    ascents alike, exits 2 with one error line."""
    argv, obj = _SIZE_GATES[command]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    flag = "--graph" if argv[0] == "hypergraph" else "--tensor"
    code = run([*argv, flag, str(path), "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert re.fullmatch(r"error: size-gate: size gate: [^\n]*\n", captured.err), captured.err


def _without(obj, key):
    return {name: value for name, value in obj.items() if name != key}


_MAP = {"rows": 1, "cols": 2, "domain": "F5", "data": [[1, 0]]}


@pytest.mark.parametrize("argv, doc, key", [
    pytest.param(["rank", "--tensor"], _without(_TARGET, "dims"), "dims", id="tensor"),
    pytest.param(["verify", "--certificate"], {"kind": "restriction", "target": _TARGET,
                 "maps": [_without(_MAP, "data")] * 3}, "data", id="certificate-map"),
    pytest.param(["verify", "--certificate"], {"kind": "restriction", "target": _TARGET},
                 "maps", id="certificate"),
    pytest.param(["hypergraph", "alpha", "--graph"], {"n": 2, "k": 2}, "edges", id="hypergraph"),
])
def test_a_missing_key_is_malformed_json_in_every_file_kind(ws, tmp_path, capsys, argv, doc,
                                                           key):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(doc))
    tensor = ["--tensor", ws["w_f5"]] if argv[0] == "verify" else []
    code = run([*argv, str(path), *tensor, "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: malformed-json: missing key '{key}'\n"


def test_a_sandwich_violation_is_one_internal_error(ws, capsys, monkeypatch):
    """A failed check inside the library is one internal error line, not a
    traceback: here the averaged marginal's entropy, the fourth one the
    check of the order-3 W reads, drops by 1."""
    entropy, calls = quantum._entropy_bits, []

    def lowered(values):
        calls.append(values)
        return entropy(values) - (len(calls) == 4)

    monkeypatch.setattr(quantum, "_entropy_bits", lowered)
    code = run(["quantum", "check", "--tensor", ws["w_c"]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert re.fullmatch(r"error: internal: sandwich violation: [^\n]*\n", captured.err), (
        captured.err)


def test_failed_verification_exits_one(ws, tmp_path, capsys):
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps(tensor_to_json(Tensor(F2, np.zeros((5, 5), dtype=int)))))
    cert_path = str(tmp_path / "cert.json")
    run(["symsubrank", "--tensor", ws["c5"], "--cert-out", cert_path, "--json"])
    capsys.readouterr()

    code = run(["verify", "--tensor", str(zero), "--certificate", cert_path, "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1
    assert rep["verification"] == "failed"
    assert rep["outputs"]["verified"] is False


def test_verify_takes_a_certificate_of_any_target(tmp_path, capsys):
    """A hand-written certificate whose target, 2<2> over F3, is no unit
    tensor: (2I, I, I) carries <2> to it.  One changed map entry gives the
    documented failure."""
    unit = {"order": 3, "dims": [2, 2, 2], "domain": "F3",
            "entries": [{"idx": [1, 1, 1], "val": 1}, {"idx": [2, 2, 2], "val": 1}]}
    target = dict(unit, entries=[dict(entry, val=2) for entry in unit["entries"]])
    maps = [{"rows": 2, "cols": 2, "domain": "F3", "data": [[c, 0], [0, c]]} for c in (2, 1, 1)]
    tensor, cert = tmp_path / "unit.json", tmp_path / "cert.json"
    tensor.write_text(json.dumps(unit))
    argv = ["verify", "--tensor", str(tensor), "--certificate", str(cert)]
    cert.write_text(json.dumps({"kind": "restriction", "target": target, "maps": maps}))
    code, rep, err = run_json(capsys, argv)
    assert (code, err, rep["verification"]) == (0, "", "verified")
    assert rep["outputs"] == {"verified": True, "kind": "restriction", "targetDims": [2, 2, 2]}

    maps[1]["data"][0][1] = 1
    cert.write_text(json.dumps({"kind": "restriction", "target": target, "maps": maps}))
    code, rep, err = run_json(capsys, argv)
    assert (code, rep["verification"], rep["outputs"]["verified"]) == (1, "failed", False)
    assert err == "error: verification-failed: certificate does not verify against the tensor\n"


# Leaves stay small: a mutated "dims" or "n" must not ask for a large
# computation, only for a malformed or gated one.
_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 7) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _mutated(data, doc):
    """doc with one nested value replaced or deleted, or its text cut short."""
    if data.draw(st.integers(0, 4)) == 0:
        text = json.dumps(doc)
        return text[: data.draw(st.integers(0, len(text) - 1))]
    doc = json.loads(json.dumps(doc))
    parent = doc
    key = data.draw(st.sampled_from(sorted(parent)))
    # descend into a random container, stopping at a random depth
    while isinstance(parent[key], (dict, list)) and parent[key]:
        if not data.draw(st.booleans()):
            break
        parent = parent[key]
        keys = sorted(parent) if isinstance(parent, dict) else range(len(parent))
        key = data.draw(st.sampled_from(keys))
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(_JSON_VALUE)
    return json.dumps(doc)


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_cli_fuzz_malformed_inputs(ws, tmp_path, capsys, data):
    """Every malformed tensor, certificate or graph file ends in exactly one
    `error: <code>:` line and exit 1 or 2; a mutation that stays valid runs
    cleanly.  An exception escaping run() fails the test with its traceback."""
    kind = data.draw(st.sampled_from(["tensor", "certificate", "graph"]))
    path = tmp_path / "fuzz.json"
    if kind == "tensor":
        doc = tensor_to_json(c5_matrix())
        argv = data.draw(st.sampled_from([["rank"], ["congruence"]]))
        argv = argv + ["--tensor", str(path)]
    elif kind == "certificate":
        # e_1, e_1, e_2 pick W's entry (1, 1, 2): <1> <= W
        e1, e2 = LinearMap(F5, [[1, 0]]), LinearMap(F5, [[0, 1]])
        cert = Certificate(
            kind="restriction", maps=(e1, e1, e2), target=unit_tensor(1, 3, F5)
        )
        doc = certificate_to_json(cert)
        argv = ["verify", "--tensor", ws["w_f5"], "--certificate", str(path)]
    else:
        doc = hypergraph_to_json(c5_directed())
        which = data.draw(st.sampled_from(["alpha", "beta"]))
        argv = ["hypergraph", which, "--graph", str(path)]
    path.write_text(_mutated(data, doc))
    code = run(argv + ["--json"])
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert code in (1, 2)
        assert re.fullmatch(r"error: [a-z-]+: [^\n]*\n", err), err


def test_complex_json_has_no_negative_zeros(tmp_path, capsys):
    """-0.0 == 0.0, so a signed zero (from a +0 scaled by a negative pivot
    inverse) must not make two equal certificates print differently."""
    printed = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        arr = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        if seed % 2:
            arr = arr[:, :2] @ arr[2:, :]  # rank 2
        path = tmp_path / f"m{seed}.json"
        path.write_text(json.dumps(tensor_to_json(Tensor(C, arr))))
        assert run(["subrank", "--tensor", str(path), "--json"]) == 0
        printed.append(capsys.readouterr().out)
    assert [i for i, out in enumerate(printed) if re.search(r"-0\.0(?![0-9e])", out)] == []



# One JSON integer field each: (file kind, the object holding it, its key).
_INTEGER_FIELDS = {
    "hypergraph-n": ("graph", lambda doc: doc, "n"),
    "hypergraph-k": ("graph", lambda doc: doc, "k"),
    "edge-coordinate": ("graph", lambda doc: doc["edges"][0], 0),
    "tensor-order": ("tensor", lambda doc: doc, "order"),
    "tensor-dims": ("tensor", lambda doc: doc["dims"], 1),
    "entry-idx": ("tensor", lambda doc: doc["entries"][0]["idx"], 0),
    "map-rows": ("certificate", lambda doc: doc["maps"][0], "rows"),
    "map-cols": ("certificate", lambda doc: doc["maps"][0], "cols"),
    "prime-field-entry": ("tensor", lambda doc: doc["entries"][0], "val"),
}
# Each replaces a valid integer by a look-alike that int() used to accept.
_LOOK_ALIKES = {
    "bool": lambda v: True,
    "float": float,
    "fraction": lambda v: v + 0.9,
    "str": str,
}


@pytest.mark.parametrize("look_alike", sorted(_LOOK_ALIKES))
@pytest.mark.parametrize("field", sorted(_INTEGER_FIELDS))
def test_integer_fields_refuse_bool_float_and_str(ws, tmp_path, capsys, field, look_alike):
    """JSON integers only: 2.9 is not read as 2, nor true as 1 or "2" as 2."""
    kind, holder, key = _INTEGER_FIELDS[field]
    if kind == "graph":
        doc = hypergraph_to_json(c5_directed())
        argv = ["hypergraph", "alpha", "--graph"]
    elif kind == "tensor":
        doc = tensor_to_json(w_tensor(F5))
        argv = ["rank", "--tensor"]
    else:
        A = LinearMap(F5, [[1, 0], [0, 1]])
        doc = certificate_to_json(
            Certificate(kind="restriction", maps=(A, A, A), target=w_tensor(F5)))
        argv = ["verify", "--tensor", ws["w_f5"], "--certificate"]
    path = tmp_path / "integer.json"
    path.write_text(json.dumps(doc))
    assert run(argv + [str(path), "--json"]) == 0  # the document as written is valid
    capsys.readouterr()
    holder(doc)[key] = _LOOK_ALIKES[look_alike](holder(doc)[key])
    path.write_text(json.dumps(doc))
    code = run(argv + [str(path), "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert re.fullmatch(r"error: invalid-input: [^\n]*must be an integer, got [^\n]*\n",
                        captured.err), captured.err


# One complex scalar each: (file kind, the list holding it, its index or key).
_COMPLEX_SCALARS = {
    "tensor-entry": ("tensor", lambda doc: doc["entries"][0], "val"),
    "map-data": ("certificate", lambda doc: doc["maps"][0]["data"][0], 0),
    "certificate-target-entry": ("certificate", lambda doc: doc["target"]["entries"][0], "val"),
}
# Each replaces a valid scalar by a bool or str that float() or complex() accepted.
_COMPLEX_LOOK_ALIKES = {
    "bare-bool": True,
    "bare-str": "1",
    "pair-bool-re": [True, 0],
    "pair-bool-im": [1, False],
    "pair-str": ["1", "2"],
    "pair-padded-str": [" 3 ", 0],
}


@pytest.mark.parametrize("look_alike", sorted(_COMPLEX_LOOK_ALIKES))
@pytest.mark.parametrize("field", sorted(_COMPLEX_SCALARS))
def test_complex_scalars_refuse_bool_and_str(ws, tmp_path, capsys, field, look_alike):
    """JSON numbers only, bare or as [re, im]: true is not read as 1, nor "1" as 1."""
    kind, holder, key = _COMPLEX_SCALARS[field]
    if kind == "tensor":
        doc = tensor_to_json(w_tensor(C))
        argv = ["rank", "--tensor"]
    else:
        A = LinearMap(C, [[1, 0], [0, 1]])
        doc = certificate_to_json(
            Certificate(kind="restriction", maps=(A, A, A), target=w_tensor(C)))
        argv = ["verify", "--tensor", ws["w_c"], "--certificate"]
    path = tmp_path / "complex.json"
    for valid in (1, 1.0, [1, 0], [1.0, 0.0]):  # the document with numbers is valid
        holder(doc)[key] = valid
        path.write_text(json.dumps(doc))
        assert run(argv + [str(path), "--json"]) == 0
        capsys.readouterr()
    holder(doc)[key] = _COMPLEX_LOOK_ALIKES[look_alike]
    path.write_text(json.dumps(doc))
    code = run(argv + [str(path), "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert re.fullmatch(r"error: invalid-input: complex entry must hold JSON numbers, got "
                        r"[^\n]*\n", captured.err), captured.err

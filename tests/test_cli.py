import json

import numpy as np
import pytest

from conftest import C, F2, F5, c5_directed, c5_matrix, w_tensor
from symsub import (
    LinearMap,
    Certificate,
    certificate_to_json,
    hypergraph_to_json,
    tensor_to_json,
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
    from symsub import unit_tensor

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
    assert rep["outputs"]["checked"] == "dense"


def test_quantum_f(ws, capsys):
    code, rep, _ = run_json(
        capsys, ["quantum", "F", "--tensor", ws["w_c"], "--restarts", "2"]
    )
    assert code == 0
    assert rep["outputs"]["value"] == pytest.approx(1.88988157, abs=1e-4)
    assert rep["outputs"]["restarts"] == 3
    assert rep["verification"] == "estimate"


def test_quantum_check(ws, capsys):
    code, rep, _ = run_json(capsys, ["quantum", "check", "--tensor", ws["w_c"]])
    assert code == 0
    out = rep["outputs"]
    assert out["concavitySlack"] >= -1e-9
    assert out["marginalDeviation"] <= 1e-12


def test_congruence_and_diagonalize(tmp_path, capsys):
    rng = np.random.default_rng(3)
    m = rng.integers(0, 5, size=(4, 4))
    sym = (m + m.T) % 5
    path = tmp_path / "sym.json"
    from symsub import Tensor

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
    code, rep, _ = run_json(capsys, ["rank", "--tensor", ws["c5"], "--workers", "4"])
    assert code == 0


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


@pytest.mark.parametrize("entries", [5, [{"idx": 3, "val": 1}]])
def test_wrongly_typed_json_exits_one(tmp_path, capsys, entries):
    obj = {"order": 2, "dims": [2, 2], "domain": "F2", "entries": entries}
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(obj))
    code = run(["rank", "--tensor", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: malformed-json:")
    assert err.count("\n") == 1


def test_assertion_error_is_internal(ws, capsys, monkeypatch):
    def broken(f):
        raise AssertionError("broken invariant")

    monkeypatch.setattr("symsub.cli.matrix_rank", broken)
    code = run(["rank", "--tensor", ws["c5"]])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: internal: broken invariant\n"


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


def test_size_gate_exits_two(tmp_path, capsys):
    big = {"n": 41, "k": 2, "edges": [[1, 2]]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(big))
    code = run(["hypergraph", "alpha", "--graph", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: size-gate:")


def test_failed_verification_exits_one(ws, tmp_path, capsys):
    from symsub import Tensor

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

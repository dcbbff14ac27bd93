"""Pinned outputs of the hypergraph chain: alpha and beta with their witnesses,
every ChainReport field, the subrank certificates of the adjacency tensors,
and the CLI's hypergraph reports and error lines.

The pins in ``chain_pins.json`` were recorded from the set-based alpha and
beta searches and the two-diagonalization matrix subrank, before those were
rewritten; the current code must reproduce them byte for byte.  Record them
again (only after a deliberate change of output) with

    PYTHONPATH=src python tests/test_chain_pins.py
"""

import contextlib
import io
import itertools
import json
import os
import tempfile

import numpy as np
import pytest

from symsub import (
    Hypergraph,
    SearchInfeasibleError,
    adjacency_tensor,
    alpha_chain_check,
    domain_from_name,
    hypergraph_to_json,
    independence_number,
    induced_matching_number,
    subrank_exact,
    symsubrank_exact,
)
from symsub.cli import run
from symsub.hypergraphs import MATCHING_GATE

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "chain_pins.json")


def chain_graphs():
    """The 114 graphs of the exact_search chain: the 64 two-vertex 3-uniform
    hypergraphs and 50 random digraphs on 5 vertices (generator seed 15)."""
    proper = [e for e in itertools.product((1, 2), repeat=3) if len(set(e)) > 1]
    for mask in range(64):
        yield f"2v#{mask}", Hypergraph(2, 3, [proper[i] for i in range(6) if mask >> i & 1])
    rng = np.random.default_rng(15)
    for i in range(50):
        edges = [(a, b) for a in range(1, 6) for b in range(1, 6)
                 if a != b and rng.random() < 0.35]
        yield f"digraph15#{i}", Hypergraph(5, 2, edges)


def sweep_graphs():
    """Seeded 2- and 3-uniform hypergraphs on n <= 6 vertices, some with
    diagonal loops, kept within the induced matching gate."""
    rng = np.random.default_rng(2021)
    for k, reps in ((2, 6), (3, 4)):
        for n in range(7):
            for i in range(reps if n > 1 else 1):
                tuples = list(itertools.product(range(1, n + 1), repeat=k))
                density = rng.uniform(0.1, 0.6)
                edges = [t for t in tuples if len(set(t)) > 1 and rng.random() < density]
                if rng.random() < 0.5:
                    edges += [(v,) * k for v in range(1, n + 1) if rng.random() < 0.5]
                if len(edges) + n > MATCHING_GATE:
                    keep = rng.permutation(len(edges))[:MATCHING_GATE - n]
                    edges = [edges[j] for j in sorted(keep)]
                yield f"k{k}n{n}#{i}", Hypergraph(n, k, edges)


def chain_domains(h):
    """The fields the chain and the subrank certificates are pinned over:
    those where the exact searches stay small."""
    if h.k == 2:
        return ("F2", "F3") if h.n <= 4 else ("F2",)
    return ("F2",) if h.n <= 3 else ()


def _error(exc):
    return {"error": f"{type(exc).__name__}: {exc}"}


def outputs(h):
    """Everything pinned for one hypergraph, as JSON values."""
    alpha, witness = independence_number(h)
    beta, matching = induced_matching_number(h)
    out = {"alpha": [alpha, list(witness)], "beta": [beta, [list(t) for t in matching]]}
    for name in chain_domains(h):
        domain = domain_from_name(name)
        try:
            rep = alpha_chain_check(h, domain)
        except SearchInfeasibleError as exc:
            out[f"chain/{name}"] = _error(exc)
            continue
        out[f"chain/{name}"] = {
            "alpha": rep.alpha, "beta": rep.beta, "sym_subrank": rep.sym_subrank,
            "subrank": rep.subrank, "inequalities": [list(i) for i in rep.inequalities],
            "separation": rep.separation, "ok": rep.ok,
        }
        a = adjacency_tensor(h, domain)
        for what, search in (("symsubrank", symsubrank_exact), ("subrank", subrank_exact)):
            value, cert = search(a)
            out[f"{what}/{name}"] = [value, [m.array.tolist() for m in cert.maps]]
    return out


def undirected_c5():
    pairs = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    return Hypergraph(5, 2, [e for ab in pairs for e in (ab, ab[::-1])])


def cli_cases():
    """(name, graph, subcommand, options): the hypergraph reports on C5 and
    undirected C5, and the chain's four edge cases."""
    c5 = Hypergraph(5, 2, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    for tag, h in (("c5", c5), ("uc5", undirected_c5())):
        for which in ("alpha", "beta", "chain", "power"):
            extra = {"chain": ["--domain", "F2"], "power": ["-m", "2"]}.get(which, [])
            yield f"{which}/{tag}", h, [which], extra
    chain = ["chain"]
    yield "chain/k1", Hypergraph(3, 1, [(1,)]), chain, ["--domain", "F2"]
    yield "chain/C", c5, chain, ["--domain", "C"]
    yield "chain/budget1", c5, chain, ["--domain", "F2", "--budget", "1"]
    yield "chain/n0", Hypergraph(0, 2, []), chain, ["--domain", "F2"]


def run_cli(h, command, extra):
    """Exit code, stdout and stderr of ``symsub hypergraph ... --json`` on h,
    read from ``graph.json`` in the working directory."""
    with open("graph.json", "w") as fh:
        fh.write(json.dumps(hypergraph_to_json(h)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["hypergraph", *command, "--graph", "graph.json", *extra, "--json"])
    return [code, out.getvalue(), err.getvalue()]


def library_errors():
    """alpha_chain_check's exception on order 1, over C and over budget 1."""
    c5 = Hypergraph(5, 2, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    F2 = domain_from_name("F2")
    cases = {
        "k1": lambda: alpha_chain_check(Hypergraph(3, 1, [(1,)]), F2),
        "C": lambda: alpha_chain_check(c5, domain_from_name("C")),
        "budget1": lambda: alpha_chain_check(c5, F2, budget=1),
    }
    for name, call in cases.items():
        try:
            call()
        except (ValueError, SearchInfeasibleError) as exc:
            yield name, _error(exc)
        else:
            yield name, None


@pytest.fixture(scope="module")
def pins():
    with open(PINS) as fh:
        return json.load(fh)


GRAPHS = dict(itertools.chain(chain_graphs(), sweep_graphs()))
CLI = {name: rest for name, *rest in cli_cases()}


@pytest.mark.parametrize("name", list(GRAPHS))
def test_graph_outputs_are_pinned(name, pins):
    h = GRAPHS[name]
    pin = pins["graphs"][name]
    assert sorted(map(list, h.edges)) == pin["edges"]
    assert outputs(h) == pin["outputs"]


def test_chain_errors_are_pinned(pins):
    assert dict(library_errors()) == pins["errors"]


@pytest.mark.parametrize("name", [name for name, h in sweep_graphs() if chain_domains(h)])
def test_chain_subrank_is_the_searched_subrank(name, pins):
    """The chain's subrank, searched down to its symmetric subrank only,
    equals subrank_exact's on every pinned domain, except where the pins
    record the chain as over budget, which it still is."""
    h = GRAPHS[name]
    for domain in chain_domains(h):
        a = adjacency_tensor(h, domain_from_name(domain))
        if "error" in pins["graphs"][name]["outputs"][f"chain/{domain}"]:
            with pytest.raises(SearchInfeasibleError):
                alpha_chain_check(h, a.domain)
        else:
            assert alpha_chain_check(h, a.domain).subrank == subrank_exact(a)[0]


@pytest.mark.parametrize("name", list(CLI))
def test_cli_reports_are_pinned(name, pins, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*CLI[name]) == pins["cli"][name]


def record():
    """Write chain_pins.json from the current code."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            cli = {name: run_cli(*case) for name, case in CLI.items()}
        finally:
            os.chdir(cwd)
    doc = {
        "graphs": {
            name: {"edges": sorted(map(list, h.edges)), "outputs": outputs(h)}
            for name, h in GRAPHS.items()
        },
        "errors": dict(library_errors()),
        "cli": cli,
    }
    with open(PINS, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    record()

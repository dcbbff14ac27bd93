"""Command-line front end: one executable, one subcommand per operation.

Every run prints a report: a human-readable table by default, canonical
JSON with --json.  The JSON form is byte-stable for identical inputs and
--seed (keys sorted, no timestamps; elapsed time appears only in the
human format).  Each reported value carries its certificate inline or an
explicit "estimate" label, and input files are identified by SHA-256.

Exit codes: 0 success, 1 invalid input (bad flags, malformed files,
domain mismatches, failed verification), 2 resource gates (search budget
exhausted, size caps).  Errors are single machine-parsable lines on
standard error: ``error: <code>: <message>``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ._common import DEFAULT_BUDGET

if TYPE_CHECKING:
    from .hypergraphs import Hypergraph
    from .quantum import OptimizerOptions
    from .restrict import Certificate
    from .tensors import Tensor

__all__ = ["build_parser", "main", "run"]


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


class _ReportedFailure(Exception):
    """A run that produced a report but must still exit nonzero."""

    def __init__(self, code: str, message: str, exit_code: int, outputs: dict):
        super().__init__(message)
        self.code = code
        self.exit_code = exit_code
        self.outputs = outputs


def _json_default(o):
    np = sys.modules.get("numpy")  # a run that made a numpy scalar loaded it
    if np is not None:
        if isinstance(o, np.integer):
            return int(o)
        if isinstance(o, np.floating):
            return float(o)
        if isinstance(o, np.bool_):
            return bool(o)
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract reserves 2 for budgets."""

    def error(self, message):
        print(f"error: usage: {message}", file=sys.stderr)
        raise SystemExit(1)


def _non_negative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _file_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _load_json_file(path: str) -> Tuple[dict, str]:
    raw = _file_bytes(path)
    return json.loads(raw.decode("utf-8")), hashlib.sha256(raw).hexdigest()


def _read_tensor(args, inputs: Dict) -> Tensor:
    obj, digest = _load_json_file(args.tensor)
    inputs["tensor"] = {"path": args.tensor, "sha256": digest}
    from .tensors import tensor_from_json

    return tensor_from_json(obj)


def _read_graph(args, inputs: Dict) -> Hypergraph:
    obj, digest = _load_json_file(args.graph)
    inputs["graph"] = {"path": args.graph, "sha256": digest}
    from .hypergraphs import hypergraph_from_json

    return hypergraph_from_json(obj)


def _read_certificate(args, inputs: Dict) -> Certificate:
    obj, digest = _load_json_file(args.certificate)
    inputs["certificate"] = {"path": args.certificate, "sha256": digest}
    from .restrict import certificate_from_json

    return certificate_from_json(obj)


def _certificate_output(args, cert: Certificate) -> object:
    """Inline certificate JSON, or a file reference when --cert-out is set."""
    from .restrict import certificate_to_json

    obj = certificate_to_json(cert)
    out = getattr(args, "cert_out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True, indent=2, default=_json_default)
            fh.write("\n")
        return {"path": out}
    return obj


# ---------------------------------------------------------------------------
# subcommand handlers: (args, inputs) -> (outputs, verification)
# ---------------------------------------------------------------------------


def _cmd_rank(args, inputs):
    f = _read_tensor(args, inputs)
    from .tensors import flattening_rank, matrix_rank

    if f.order == 2:
        outputs = {"rank": matrix_rank(f)}
    else:
        outputs = {
            "flatteningRanks": [flattening_rank(f, [j]) for j in range(f.order)]
        }
    return outputs, "exact"


def _cmd_subrank(args, inputs):
    f = _read_tensor(args, inputs)
    from .restrict import subrank_exact

    value, cert = subrank_exact(f, budget=args.budget)
    return {"value": value, "certificate": _certificate_output(args, cert)}, "verified"


def _cmd_symsubrank(args, inputs):
    f = _read_tensor(args, inputs)
    if f.order == 2:
        from .congruence import matrix_symsubrank

        res = matrix_symsubrank(f, budget=args.budget)
        outputs = {
            "mode": res.mode,
            "lower": res.lower,
            "upper": res.upper,
            "value": res.value,
            "method": res.method,
        }
        if res.certificate is not None:
            outputs["certificate"] = _certificate_output(args, res.certificate)
        return outputs, "verified" if res.mode == "exact" else "bounds"
    from .restrict import symsubrank_exact

    value, cert = symsubrank_exact(f, budget=args.budget)
    return {"value": value, "certificate": _certificate_output(args, cert)}, "verified"


def _cmd_symrank(args, inputs):
    f = _read_tensor(args, inputs)
    from .restrict import symrank_small
    from .tensors import LinearMap, map_to_json

    res = symrank_small(f, budget=args.budget)
    outputs: Dict[str, object] = {"value": res.value, "lowerBound": res.lower_bound}
    if res.value is None:
        return outputs, "bounds"
    outputs["vectors"] = map_to_json(LinearMap(f.domain, res.vectors))["data"]
    return outputs, "verified"


def _cmd_congruence(args, inputs):
    f = _read_tensor(args, inputs)
    from .congruence import ballantine_reduce, congruence_result_to_json
    from .tensors import matrix_rank

    res = ballantine_reduce(f)
    outputs = congruence_result_to_json(res)
    outputs["rank"] = matrix_rank(f)
    return outputs, "verified"


def _cmd_diagonalize(args, inputs):
    f = _read_tensor(args, inputs)
    from .congruence import sym_diagonalize
    from .tensors import map_to_json, tensor_to_json

    res = sym_diagonalize(f)
    outputs = {
        "B": map_to_json(res.B),
        "D": tensor_to_json(res.D),
        "rank": res.rank,
    }
    return outputs, "verified"


def _cmd_waring(args, inputs):
    from .domains import domain_from_name
    from .symmetrize import waring_h
    from .tensors import LinearMap, map_to_json

    domain = domain_from_name(args.domain)
    inputs["domain"] = args.domain
    inputs["order"] = args.order
    dec = waring_h(args.order, domain)  # checked bit for bit against h
    outputs = {
        "terms": len(dec.coefficients),
        "coefficients": map_to_json(LinearMap(domain, [dec.coefficients]))["data"][0],
        "vectors": map_to_json(LinearMap(domain, dec.vectors))["data"],
    }
    return outputs, "verified"


def _cmd_createt(args, inputs):
    f = _read_tensor(args, inputs)
    from .symmetrize import create_t

    cert = create_t(f)
    outputs = {
        "sourceId": cert.source_id,
        "c": cert.c,
        "y": list(cert.y),
        "relabeling": list(cert.relabeling),
        "rows": [list(t) for t in cert.rows],
        "columns": [list(t) for t in cert.columns],
    }
    return outputs, "verified"


def _cmd_symmetrize(args, inputs):
    f = _read_tensor(args, inputs)
    rc = _read_certificate(args, inputs)
    from .symmetrize import symmetrize_certificate

    res = symmetrize_certificate(f, rc)
    outputs = {
        "n": res.n,
        "c": res.c,
        "power": res.n + res.c,
        "certificate": _certificate_output(args, res.certificate),
    }
    return outputs, "verified"


def _cmd_hyper_alpha(args, inputs):
    h = _read_graph(args, inputs)
    from .hypergraphs import independence_number

    value, witness = independence_number(h)
    return {"alpha": value, "witness": list(witness)}, "verified"


def _cmd_hyper_beta(args, inputs):
    h = _read_graph(args, inputs)
    from .hypergraphs import induced_matching_number

    value, witness = induced_matching_number(h)
    return {"beta": value, "witness": [list(t) for t in witness]}, "verified"


def _cmd_hyper_power(args, inputs):
    h = _read_graph(args, inputs)
    inputs["power"] = args.power
    from .hypergraphs import capacity_lower

    res = capacity_lower(h, args.power)
    vertices = h.n ** res.power  # its edges: the non-diagonal m-tuples over Phi
    outputs = {
        "bestPower": res.power,
        "alpha": res.alpha,
        "value": res.value,
        "history": [list(row) for row in res.history],
        "powerVertices": vertices,
        "powerEdges": len(h.phi) ** res.power - vertices,
    }
    return outputs, "verified"


def _cmd_hyper_chain(args, inputs):
    h = _read_graph(args, inputs)
    from .domains import domain_from_name
    from .hypergraphs import alpha_chain_check

    domain = domain_from_name(args.domain)
    inputs["domain"] = args.domain
    rep = alpha_chain_check(h, domain, budget=args.budget)
    outputs = {
        "alpha": rep.alpha,
        "beta": rep.beta,
        "symSubrank": rep.sym_subrank,
        "subrank": rep.subrank,
        "inequalities": {label: holds for label, holds in rep.inequalities},
        "separation": rep.separation,
        "ok": rep.ok,
    }
    if not rep.ok:
        raise _ReportedFailure(
            "verification-failed", "parameter chain inequality violated", 1, outputs
        )
    return outputs, "verified"


def _quantum_options(args) -> OptimizerOptions:
    from .quantum import OptimizerOptions

    if args.restarts is not None:
        return OptimizerOptions(restarts=args.restarts, seed=args.seed)
    return OptimizerOptions(seed=args.seed)


def _cmd_quantum_f(args, inputs):
    f = _read_tensor(args, inputs)
    from .quantum import sym_quantum_functional

    res = sym_quantum_functional(f, _quantum_options(args))
    return _quantum_outputs(res), "estimate"


def _cmd_quantum_funiform(args, inputs):
    f = _read_tensor(args, inputs)
    from .quantum import uniform_quantum_functional

    res = uniform_quantum_functional(f, _quantum_options(args))
    return _quantum_outputs(res), "estimate"


def _quantum_outputs(res) -> Dict[str, object]:
    return {
        "value": res.value,
        "label": res.label,
        "restarts": res.restarts,
        "iterations": res.iterations,
        "gradientNorm": res.gradient_norm,
        "spectrum": [float(v) for v in res.point.spectrum],
    }


def _cmd_quantum_check(args, inputs):
    f = _read_tensor(args, inputs)
    from .quantum import _cubical_array, marginal_equality_check, sandwich_check
    from .tensors import Tensor, is_symmetric

    rep = sandwich_check(f)
    outputs = {
        "entropyOfAverage": rep.entropy_of_average,
        "meanEntropy": rep.mean_entropy,
        "logK": rep.log_k,
        "concavitySlack": rep.concavity_slack,
        "upperSlack": rep.upper_slack,
    }
    # symmetry is read off the array every quantum check reads, scaled by a
    # power of two, so the 1e-9 rule is relative to the largest entry
    if is_symmetric(Tensor(f.domain, _cubical_array(f, "quantum check"))):
        outputs["marginalDeviation"] = marginal_equality_check(f)
    return outputs, "verified"


def _cmd_verify(args, inputs):
    f = _read_tensor(args, inputs)
    cert = _read_certificate(args, inputs)
    from .restrict import verify_certificate

    ok = verify_certificate(cert, f)
    outputs = {
        "verified": ok,
        "kind": cert.kind,
        "targetDims": list(cert.target.dims),
    }
    if not ok:
        raise _ReportedFailure(
            "verification-failed",
            "certificate does not verify against the tensor",
            1,
            outputs,
        )
    return outputs, "verified"


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="symsub",
        description="Subrank, symmetric subrank and quantum functional toolkit.",
    )

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the report as JSON")
    common.add_argument(
        "--seed", type=_non_negative, default=0, help="seed of the quantum optimizer restarts"
    )
    common.add_argument(
        "--budget", type=_non_negative, default=DEFAULT_BUDGET, help="search budget cap"
    )

    targ = argparse.ArgumentParser(add_help=False)
    targ.add_argument("--tensor", required=True, help="tensor JSON file")

    garg = argparse.ArgumentParser(add_help=False)
    garg.add_argument("--graph", required=True, help="hypergraph JSON file")

    certout = argparse.ArgumentParser(add_help=False)
    certout.add_argument(
        "--cert-out", default=None, help="write the certificate to this file"
    )

    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, handler, parents, help_text, label=None):
        p = sub.add_parser(name, parents=parents, help=help_text)
        p.set_defaults(handler=handler, label=label or name)
        return p

    add("rank", _cmd_rank, [common, targ], "matrix or flattening ranks")
    add("subrank", _cmd_subrank, [common, targ, certout], "exact subrank with witness")
    add(
        "symsubrank",
        _cmd_symsubrank,
        [common, targ, certout],
        "exact symmetric subrank with witness",
    )
    add("symrank", _cmd_symrank, [common, targ], "symmetric rank over a prime field")
    add("congruence", _cmd_congruence, [common, targ], "lower-triangular congruence form")
    add(
        "diagonalize",
        _cmd_diagonalize,
        [common, targ],
        "complex symmetric diagonalization",
    )
    waring = add("waring", _cmd_waring, [common], "power-sum form of the symmetric unit")
    waring.add_argument("--order", type=int, required=True, help="tensor order k")
    waring.add_argument("--domain", required=True, help='scalar domain ("C" or "F<p>")')
    add(
        "createt",
        _cmd_createt,
        [common, targ],
        "combinatorial restriction from a power onto the symmetric unit",
    )
    symmetrize = add(
        "symmetrize",
        _cmd_symmetrize,
        [common, targ, certout],
        "turn a plain unit restriction into a symmetric one",
    )
    symmetrize.add_argument(
        "--certificate", required=True, help="restriction certificate JSON file"
    )

    hyper = sub.add_parser("hypergraph", help="independence and capacity reports")
    hsub = hyper.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    ha = hsub.add_parser("alpha", parents=[common, garg], help="independence number")
    ha.set_defaults(handler=_cmd_hyper_alpha, label="hypergraph alpha")
    hb = hsub.add_parser("beta", parents=[common, garg], help="induced matching number")
    hb.set_defaults(handler=_cmd_hyper_beta, label="hypergraph beta")
    hp = hsub.add_parser(
        "power", parents=[common, garg], help="capacity lower bound via strong powers"
    )
    hp.add_argument("--power", "-m", type=int, required=True, help="highest power")
    hp.set_defaults(handler=_cmd_hyper_power, label="hypergraph power")
    hc = hsub.add_parser(
        "chain", parents=[common, garg], help="alpha/beta/subrank chain check"
    )
    hc.add_argument("--domain", required=True, help='scalar domain ("C" or "F<p>")')
    hc.set_defaults(handler=_cmd_hyper_chain, label="hypergraph chain")

    quantum = sub.add_parser("quantum", help="quantum functional estimates and checks")
    qsub = quantum.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    restarts = argparse.ArgumentParser(add_help=False)
    restarts.add_argument(
        "--restarts", type=_non_negative, default=None, help="optimizer restarts"
    )
    qf = qsub.add_parser(
        "F", parents=[common, targ, restarts], help="symmetric quantum functional"
    )
    qf.set_defaults(handler=_cmd_quantum_f, label="quantum F")
    qu = qsub.add_parser(
        "Funiform", parents=[common, targ, restarts], help="uniform quantum functional"
    )
    qu.set_defaults(handler=_cmd_quantum_funiform, label="quantum Funiform")
    qc = qsub.add_parser(
        "check", parents=[common, targ], help="entropy sandwich and marginal equality"
    )
    qc.set_defaults(handler=_cmd_quantum_check, label="quantum check")

    verify = add("verify", _cmd_verify, [common, targ], "check a stored certificate")
    verify.add_argument(
        "--certificate", required=True, help="certificate JSON file to check"
    )

    return parser


# ---------------------------------------------------------------------------
# report rendering and the driver
# ---------------------------------------------------------------------------


def _print_report(report: dict, as_json: bool, elapsed: float) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2, default=_json_default))
        return
    print(f"command: {report['command']}")
    for name, value in sorted(report["inputs"].items()):
        if isinstance(value, dict) and "sha256" in value:
            print(f"input {name}: {value['path']} (sha256 {value['sha256']})")
        else:
            print(f"input {name}: {value}")
    for key in sorted(report["outputs"]):
        value = report["outputs"][key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True, default=_json_default)
        print(f"{key}: {value}")
    print(f"seed: {report['seed']}")
    print(f"budget: {report['budget']}")
    print(f"verification: {report['verification']}")
    print(f"elapsed: {elapsed:.3f}s")


def _report(args, inputs: dict, outputs: dict, verification: str) -> dict:
    return {
        "command": args.label,
        "inputs": inputs,
        "outputs": outputs,
        "seed": args.seed,
        "budget": args.budget,
        "verification": verification,
    }


def _error(code: str, message: str) -> None:
    text = " ".join(str(message).split())
    print(f"error: {code}: {text}", file=sys.stderr)


# (module, class, code, exit code): the first row whose class the exception
# is an instance of gives its error line.  A class is looked up in
# sys.modules, since one whose module was never imported cannot have been
# raised.
_ERRORS = (
    ("builtins", "FileNotFoundError", "missing-file", 1),
    ("builtins", "IsADirectoryError", "missing-file", 1),
    ("builtins", "PermissionError", "missing-file", 1),
    ("json", "JSONDecodeError", "malformed-json", 1),
    ("builtins", "UnicodeDecodeError", "malformed-json", 1),
    # a JSON value of the wrong type, e.g. "entries": 5
    ("builtins", "TypeError", "malformed-json", 1),
    ("builtins", "KeyError", "malformed-json", 1),
    ("symsub.restrict", "SearchInfeasibleError", "budget", 2),
    # every size gate, of dense tensors, searches and ascents alike
    ("symsub._common", "TensorSizeError", "size-gate", 2),
    # every other error of the library's checks is a ValueError
    ("builtins", "ValueError", "invalid-input", 1),
    # an integer too large for a float, e.g. a complex entry 10**400
    ("builtins", "OverflowError", "invalid-input", 1),
    ("builtins", "RuntimeError", "internal", 1),
)


def _error_code(exc: Exception) -> Optional[Tuple[str, int]]:
    for module, name, code, exit_code in _ERRORS:
        cls = getattr(sys.modules.get(module), name, None)
        if cls is not None and isinstance(exc, cls):
            return code, exit_code
    return None


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)

    inputs: Dict[str, object] = {}
    started = time.perf_counter()
    try:
        outputs, verification = args.handler(args, inputs)
    except _ReportedFailure as exc:
        elapsed = time.perf_counter() - started
        _print_report(_report(args, inputs, exc.outputs, "failed"), args.json, elapsed)
        _error(exc.code, str(exc))
        return exc.exit_code
    except Exception as exc:
        found = _error_code(exc)
        if found is None:
            raise
        code, exit_code = found
        _error(code, f"missing key {exc}" if isinstance(exc, KeyError) else str(exc))
        return exit_code
    elapsed = time.perf_counter() - started
    _print_report(_report(args, inputs, outputs, verification), args.json, elapsed)
    return 0


def main() -> None:
    """The process entry point.  Before it exits it freezes the collector's
    generations, so the interpreter's final cyclic collection skips every
    object the run built: with numpy loaded that collection costs more than
    most subcommands compute.  Output is flushed and atexit handlers run as
    on any exit; in-process callers of ``run`` keep normal collection."""
    code = run()
    import gc

    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()

"""The four workloads: instances generated from the seed, and their checks.

A workload has two halves.  ``plan(seed)`` runs in run.py, never in the
measured process: it draws the instances from the seed and computes every
reference value that takes real work (brute-force subranks, symmetric
ranks, chain values, entropies), with numpy and ``oracle`` only.
``ops(S, plan, ctx)`` runs in the measured process: it turns the plan into
operations.  An operation is one top-level public symsub call (or, for
``cli_batch``, one CLI process); ``call`` runs it and ``check`` compares the
result with the plan's references, re-verifying certificates by numpy
contraction, and returns None or a reason.  Instance shapes and field sizes
are fixed per workload; the seed draws the entries, so different seeds cost
about the same.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import subprocess
import sys

import numpy as np

import oracle

W_VALUE = 3 / 2 ** (2 / 3)
C5_EDGES = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
C5_UNDIRECTED = C5_EDGES + [(b, a) for a, b in C5_EDGES]


class Op:
    __slots__ = ("name", "call", "check")

    def __init__(self, name, call, check):
        self.name = name
        self.call = call
        self.check = check


def _w():
    """W: ones exactly at the permutations of (1, 1, 2) (1-based)."""
    arr = np.zeros((2, 2, 2), dtype=np.int64)
    arr[0, 0, 1] = arr[0, 1, 0] = arr[1, 0, 0] = 1
    return arr


def _tight():
    arr = np.zeros((3, 3, 3), dtype=np.int64)
    for perm in itertools.permutations(range(3)):
        arr[perm] = 1
    arr[0, 0, 0] = 1
    return arr


def _random_symmetric(rng, d, k, p):
    arr = np.zeros((d,) * k, dtype=np.complex128 if not p else np.int64)
    for idx in itertools.product(range(d), repeat=k):
        s = tuple(sorted(idx))
        if idx == s:
            arr[idx] = (rng.normal() + 1j * rng.normal()) if not p else rng.integers(0, p)
        else:
            arr[idx] = arr[s]
    return arr


def _random_unit(rng, dims):
    arr = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    return arr / np.linalg.norm(arr)


def _random_hermitian(rng, d):
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (h + h.conj().T) / 2
    return h / np.max(np.abs(np.linalg.eigvalsh(h)))


def _entropies(arr):
    rhos = oracle.marginals(arr)
    return (sum(oracle.entropy_bits(r) for r in rhos) / len(rhos),
            oracle.entropy_bits(sum(rhos) / len(rhos)))


def _maps(cert):
    return [np.asarray(m.array) for m in cert.maps]


def _cert_check(cert, f, p, r):
    return oracle.restriction_certificate(
        _maps(cert), cert.kind, np.asarray(cert.target.array), f, p, r
    )


def _expect(label, got, want):
    return None if got == want else f"{label} is {got!r}, expected {want!r}"


def _first(*reasons):
    return next((r for r in reasons if r), None)


def _symrank_check(vectors, arr, p, want):
    if vectors is None:
        return "no symmetric rank within budget"
    if not oracle.power_sum_is(np.asarray(vectors), arr, p):
        return "waring vectors do not sum to the tensor"
    return _expect("symmetric rank", len(vectors), want)


# ---------------------------------------------------------------------------
# exact_search: restrict, linalg, tensors, hypergraphs
# ---------------------------------------------------------------------------

def _chain_graphs():
    """The 64 two-vertex 3-uniform hypergraphs and the 50 digraphs of the
    acceptance suite (fixed generator seed 15)."""
    proper = [e for e in itertools.product((1, 2), repeat=3) if len(set(e)) > 1]
    graphs = [(2, 3, [proper[i] for i in range(6) if mask >> i & 1], f"2v#{mask}")
              for mask in range(64)]
    drng = np.random.default_rng(15)
    for i in range(50):
        edges = [(a, b) for a in range(1, 6) for b in range(1, 6)
                 if a != b and drng.random() < 0.35]
        graphs.append((5, 2, edges, f"digraph15#{i}"))
    return graphs


def exact_search_plan(seed):
    rng = np.random.default_rng([seed, 1])
    # random 2x2x2 tensors over F3: two refutations of <2>.  They have full
    # flattening ranks, so neither ends at the rank prune and each costs the
    # same whatever the seed; they and the W refutation are where op_tail_ms
    # lands.  Random finds are left out: their cost depends on where the
    # search meets one (9 to 280 ms over seeds 1-10).
    codes = oracle.rank_one_pair_codes(3)
    batch = []
    while len(batch) < 2:
        arr = rng.integers(0, 3, (2, 2, 2))
        full = all(oracle.rank_mod_p(np.moveaxis(arr, leg, 0).reshape(2, 4), 3) == 2
                   for leg in range(3))
        if full and oracle.subrank_2x2x2(arr, 3, codes) == 1:
            batch.append((arr, 1))
    # random symmetric 3x3x3 tensors of symmetric subrank 2: each search
    # finds <2> and refutes <3>, so the cost hardly depends on the seed
    randsym = []
    for p in (3, 3, 5, 5):
        while True:
            arr = _random_symmetric(rng, 3, 3, p)
            value = oracle.vector_subrank(arr, p)
            if value == 2:
                break
        randsym.append((arr, p, value))
    chains = []
    two_codes = oracle.rank_one_pair_codes(2)
    for n, k, edges, tag in _chain_graphs():
        arr = oracle.adjacency(n, k, edges)
        truth = (oracle.independence_number(n, edges),
                 oracle.induced_matching_number(n, k, edges),
                 oracle.vector_subrank(arr, 2),
                 oracle.rank_mod_p(arr, 2) if k == 2 else oracle.subrank_2x2x2(arr, 2, two_codes))
        chains.append((n, k, edges, tag, truth))
    separations = sum(beta > sym for *_, (_, beta, sym, _) in chains[64:])
    if separations != 3:
        raise RuntimeError(f"oracle finds {separations} digraph separations, pinned at 3")
    return {"batch": batch, "randsym": randsym, "chains": chains,
            "symrank": {"W/F3": oracle.symmetric_rank(_w(), 3),
                        "tight/F2": oracle.symmetric_rank(_tight(), 2)}}


def exact_search_ops(S, plan, ctx):
    F2, F3 = S.domain_from_name("F2"), S.domain_from_name("F3")
    ops = []
    tight, w = _tight(), _w()

    def restriction_op(name, r, arr, domain, found):
        f, target = S.Tensor(domain, arr), S.unit_tensor(r, 3, domain)

        def check(cert):
            if cert is None:
                return None if not found else f"no <{r}> <= f found"
            return _cert_check(cert, arr, domain.p, r) if found else f"found <{r}> <= f"
        ops.append(Op(name, lambda: S.restriction_exists(target, f), check))

    restriction_op("restriction_exists/<2>,W/F3", 2, w, F3, False)
    restriction_op("restriction_exists/<2>,tight/F2", 2, tight, F2, True)

    def subrank_op(name, arr, domain, want):
        f = S.Tensor(domain, arr)

        def check(res):
            value, cert = res
            return _first(_expect("subrank", value, want),
                          _cert_check(cert, arr, domain.p, value))
        ops.append(Op(name, lambda: S.subrank_exact(f), check))

    for i, (arr, value) in enumerate(plan["batch"]):
        subrank_op(f"subrank_exact/rand2x2x2/F3#{i}", arr, F3, value)

    def symsub_op(name, arr, domain, want, matrix=False):
        f = S.Tensor(domain, arr)
        if matrix:
            def check(res):
                return _first(_expect("mode", res.mode, "exact"),
                              _expect("value", res.value, want),
                              _cert_check(res.certificate, arr, domain.p, res.value))
            ops.append(Op(name, lambda: S.matrix_symsubrank(f), check))
            return

        def check(res):
            value, cert = res
            return _first(_expect("symsubrank", value, want),
                          _cert_check(cert, arr, domain.p, value))
        ops.append(Op(name, lambda: S.symsubrank_exact(f), check))

    c5 = oracle.adjacency(5, 2, C5_EDGES)
    symsub_op("symsubrank_exact/C5/F2", c5, F2, 2)
    symsub_op("matrix_symsubrank/C5/F2", c5, F2, 2, matrix=True)
    c5t = S.Tensor(F2, c5)
    ops.append(Op("matrix_rank/C5/F2", lambda: S.matrix_rank(c5t),
                  lambda res: _expect("rank", res, 4)))
    symsub_op("symsubrank_exact/tight/F2", tight, F2, 1)
    for i, (arr, p, value) in enumerate(plan["randsym"]):
        symsub_op(f"symsubrank_exact/randsym3/F{p}#{i % 2}", arr, S.domain_from_name(f"F{p}"),
                  value)

    for name, arr, domain in (("W/F3", w, F3), ("tight/F2", tight, F2)):
        f = S.Tensor(domain, arr)
        ops.append(Op(f"symrank_small/{name}", lambda f=f: S.symrank_small(f),
                      lambda res, arr=arr, p=domain.p, want=plan["symrank"][name]:
                      _symrank_check(res.vectors, arr, p, want)))

    for n, k, edges, tag, (alpha, beta, sym, sub) in plan["chains"]:
        h = S.Hypergraph(n, k, edges)

        def check(rep, alpha=alpha, beta=beta, sym=sym, sub=sub):
            return _first(
                _expect("alpha", rep.alpha, alpha), _expect("beta", rep.beta, beta),
                _expect("symsubrank", rep.sym_subrank, sym), _expect("subrank", rep.subrank, sub),
                _expect("separation", rep.separation, sym < beta), _expect("ok", rep.ok, True))
        ops.append(Op(f"alpha_chain_check/{tag}", lambda h=h: S.alpha_chain_check(h, F2), check))
    return ops


# ---------------------------------------------------------------------------
# orbit_ascent: quantum
# ---------------------------------------------------------------------------

# seeded random unit tensors for the ascent: (d, k, functional); each runs a
# fixed budget of one restart and 12 iterations per start with tolerance 0,
# so the work does not depend on how fast a seeded start converges
RANDOM_ASCENTS = ((3, 3, "sym"), (3, 3, "sym"), (2, 3, "sym"), (2, 4, "sym"), (3, 4, "sym"),
                  (2, 3, "uniform"))
CHECK_SHAPES = ((3, 3), (2, 4))


def orbit_ascent_plan(seed):
    rng = np.random.default_rng([seed, 2])
    ascents = [(d, k, mode, _random_unit(rng, (d,) * k)) for d, k, mode in RANDOM_ASCENTS]
    sandwiches = []
    for d, k in CHECK_SHAPES:
        arr = _random_unit(rng, (d,) * k)
        sandwiches.append((arr, _entropies(arr)))
    derivatives = []
    for d, k in CHECK_SHAPES:
        arr, h = _random_unit(rng, (d,) * k), _random_hermitian(rng, d)
        derivatives.append((arr, h, oracle.log_norm_derivative(arr, h)))
    return {"seed": seed, "ascents": ascents, "sandwiches": sandwiches,
            "derivatives": derivatives}


def orbit_ascent_ops(S, plan, ctx):
    C = S.domain_from_name("C")
    ops = []

    def functional_op(name, mode, arr, lo, hi, options=None):
        # looked up at call time, so the traced run sees the wrapped function
        f, fn = S.Tensor(C, arr), f"{mode}_quantum_functional"

        def check(res):
            if not lo <= res.value <= hi:
                return f"value {res.value!r} outside [{lo!r}, {hi!r}]"
            again = oracle.functional_value(np.asarray(res.point.tensor.array), mode)
            if abs(again - res.value) > 1e-6 * max(1.0, res.value):
                return f"value {res.value!r} but its orbit point gives {again!r}"
            return _expect("label", res.label, "lower estimate")
        ops.append(Op(name, lambda: getattr(S, fn)(f, options), check))

    w = _w().astype(np.complex128)
    # one seeded restart besides the identity start: the default eight take
    # long enough that a run could time each call only a few times
    one_restart = S.OptimizerOptions(restarts=1)
    functional_op("sym_quantum_functional/W", "sym", w, W_VALUE - 1e-2, W_VALUE + 1e-2,
                  one_restart)
    functional_op("uniform_quantum_functional/W", "uniform", w, W_VALUE - 1e-2, W_VALUE + 1e-2,
                  one_restart)
    for r, k in ((2, 3), (3, 3), (2, 4)):
        functional_op(f"sym_quantum_functional/<{r}>k{k}", "sym",
                      oracle.unit(r, k, np.complex128), r - 1e-6, r + 1e-6, one_restart)
    c5u = S.Hypergraph(5, 2, C5_UNDIRECTED)

    def capacity_check(res):
        # alpha(C5 strong-square) = 5 gives the lower end sqrt(5)
        if not math.sqrt(5) - 1e-9 <= res.value <= 5 + 1e-6:
            return f"value {res.value!r} outside [sqrt 5, 5]"
        again = oracle.functional_value(np.asarray(res.point.tensor.array), "sym")
        if abs(again - res.value) > 1e-6 * res.value:
            return f"value {res.value!r} but its orbit point gives {again!r}"
        return None
    # the identity start only: the default eight restarts take seconds
    capacity_options = S.OptimizerOptions(restarts=0)
    ops.append(Op("capacity_upper_quantum/C5",
                  lambda: S.capacity_upper_quantum(c5u, capacity_options), capacity_check))
    budget = S.OptimizerOptions(restarts=1, seed=plan["seed"], iterations=12, tolerance=0.0)
    for i, (d, k, mode, arr) in enumerate(plan["ascents"]):
        functional_op(f"{mode}_quantum_functional/rand-d{d}k{k}#{i}", mode, arr,
                      1 - 1e-9, d + 1e-6, budget)

    for i, (arr, (mean, avg)) in enumerate(plan["sandwiches"]):
        f = S.Tensor(C, arr)

        def check(rep, mean=mean, avg=avg):
            if abs(rep.mean_entropy - mean) > 1e-8 or abs(rep.entropy_of_average - avg) > 1e-8:
                return "entropies differ from numpy eigvalsh"
            if min(rep.concavity_slack, rep.upper_slack) < -1e-9:
                return "negative sandwich slack"
            return None
        ops.append(Op(f"sandwich_check/d{arr.shape[0]}k{arr.ndim}#{i}",
                      lambda f=f: S.sandwich_check(f), check))
    for i, (arr, h, want) in enumerate(plan["derivatives"]):
        f = S.Tensor(C, arr)

        def check(res, want=want):
            analytic, numeric = res
            tol = 1e-5 * max(1.0, abs(analytic))
            if abs(analytic - numeric) > tol:
                return f"analytic {analytic!r} vs numeric {numeric!r}"
            return None if abs(want - analytic) <= tol else f"analytic {analytic!r} vs {want!r}"
        ops.append(Op(f"directional_derivative_check/d{arr.shape[0]}k{arr.ndim}#{i}",
                      lambda f=f, h=h: S.directional_derivative_check(f, h), check))
    return ops


# ---------------------------------------------------------------------------
# normal_forms: congruence, symmetrize, domains, tensors
# ---------------------------------------------------------------------------

def normal_forms_plan(seed):
    rng = np.random.default_rng([seed, 3])
    ballantine = []  # (name, arr, p, attempt seed, rank)
    for p in (3, 7, 101, 1009):
        for d in (4, 5, 6):
            while True:
                arr = rng.integers(0, p, (d, d))
                skew = not np.diagonal(arr).any() and not ((arr + arr.T) % p).any()
                if not skew:
                    break
            ballantine.append((f"F{p}/d{d}", arr, p, 0))
        upper = np.triu(rng.integers(0, p, (6, 6)), 1)
        ballantine.append((f"F{p}/zero-diag-sym-d6", (upper + upper.T) % p, p, 0))
    ballantine.append(("F65521/d3", rng.integers(0, 65521, (3, 3)), 65521, 0))
    ballantine = [(*b, oracle.rank_mod_p(b[1], b[2])) for b in ballantine]
    diagonalize = []
    for i in range(6):
        r = 3 + i % 4
        v = rng.normal(size=(r, 6)) + 1j * rng.normal(size=(r, 6))
        diagonalize.append((v.T @ v, r))
    create_t = [_random_symmetric(rng, 2 + i % 2, 3, 0) for i in range(4)]
    powers = []
    for p, arr, power, rows in ((7, _w(), 3, 2), (101, _random_symmetric(rng, 2, 3, 101), 2, 3),
                                (0, _w().astype(np.complex128), 3, 2)):
        shape = (rows, 2 ** power)
        A = rng.integers(0, p, shape) if p else rng.normal(size=shape) + 1j * rng.normal(size=shape)
        powers.append((p, arr, power, A, oracle.contract([A] * 3, oracle.kron_power(arr, power, p), p)))
    low7 = np.array([[rng.integers(1, 7), 0], [rng.integers(0, 7), rng.integers(1, 7)]])
    return {"ballantine": ballantine, "diagonalize": diagonalize, "create_t": create_t,
            "powers": powers, "lows": [(np.array([[1, 0], [3, 2]]), 5), (low7, 7)],
            "fully_symmetric": {k: oracle.fully_symmetric(k) for k in (2, 3, 4, 5)}}


def normal_forms_ops(S, plan, ctx):
    ops = []

    for name, arr, p, attempt, rank in plan["ballantine"]:
        f = S.Tensor(S.domain_from_name(f"F{p}"), arr)

        def check(res, arr=arr, p=p, rank=rank):
            return _first(
                _expect("diag_nonzeros", res.diag_nonzeros, rank),
                oracle.congruence_form(res.B.array, arr, res.L.array, p, rank))
        ops.append(Op(f"ballantine_reduce/{name}",
                      lambda f=f, attempt=attempt: S.ballantine_reduce(f, seed=attempt), check))

    C = S.domain_from_name("C")
    for i, (arr, r) in enumerate(plan["diagonalize"]):
        f = S.Tensor(C, arr)

        def check(res, arr=arr, r=r):
            got = res.B.array @ arr @ res.B.array.T
            want = np.zeros((6, 6), dtype=np.complex128)
            want[:r, :r] = np.eye(r)
            return _first(_expect("rank", res.rank, r),
                          None if oracle.same(got, want, 0, 1e-8) else "B f B^T is not I_r + 0")
        ops.append(Op(f"sym_diagonalize/C6#{i}",
                      lambda f=f, i=i: S.sym_diagonalize(f, seed=i), check))

    for name in ("F7", "F101", "F32749", "F65521", "C"):
        domain = S.domain_from_name(name)
        p = getattr(domain, "p", 0)
        for k in (2, 3, 4, 5):
            def check(dec, k=k, p=p):
                if len(dec.coefficients) != 2 ** (k - 1):
                    return f"{len(dec.coefficients)} terms, expected {2 ** (k - 1)}"
                got = oracle.waring_terms(dec.coefficients, np.asarray(dec.vectors), k, p)
                want = plan["fully_symmetric"][k]
                ok = (np.array_equal(got.astype(np.int64), want) if p
                      else oracle.same(got, want, 0, 1e-9))
                return None if ok else "power sum is not the fully symmetric tensor"
            ops.append(Op(f"waring_h/{name}/k{k}",
                          lambda k=k, domain=domain: S.waring_h(k, domain), check))

    def create_t_op(name, arr, domain, expect=None):
        f = S.Tensor(domain, arr)
        p = getattr(domain, "p", 0)

        def check(cert):
            k, c = arr.ndim, cert.c
            pre = np.asarray(cert.pre_map.array)
            rows = []
            for j in range(k):
                row = np.ones(1, dtype=pre.dtype)
                for i in range(c):
                    row = np.kron(row, pre[cert.columns[j][i]])
                rows.append(row * cert.scale if j == 0 else row)
            got = oracle.contract([np.array(rows)] * k, oracle.kron_power(arr, c, p), p)
            if not oracle.same(got, plan["fully_symmetric"][k], p, 1e-8):
                return "selection rows do not carry f^c onto h"
            return _expect("(c, y)", (cert.c, tuple(cert.y)), expect) if expect else None
        ops.append(Op(name, lambda: S.create_t(f), check))

    w = _w()
    create_t_op("create_t/W/F5", w, S.domain_from_name("F5"), (3, (2, 1)))
    create_t_op("create_t/W/C", w.astype(np.complex128), C, (3, (2, 1)))
    for i, arr in enumerate(plan["create_t"]):
        create_t_op(f"create_t/randsym{arr.shape[0]}/C#{i}", arr, C)

    # apply_sym_power: a shared map on a power of f, computed from the
    # support of f (the check symmetrize_certificate falls back to)
    for p, arr, power, A, want in plan["powers"]:
        domain = S.domain_from_name(f"F{p}" if p else "C")
        f, m = S.Tensor(domain, arr), S.LinearMap(domain, A)
        ops.append(Op(f"apply_sym_power/{domain.name}/power{power}",
                      lambda f=f, m=m, power=power: S.apply_sym_power(m, f, power),
                      lambda res, want=want, p=p: None if oracle.same(res.array, want, p, 1e-8)
                      else "differs from the dense power"))

    F5 = S.domain_from_name("F5")
    witness = np.array([[2, 1, 2, 1], [2, 2, 1, 1]])
    rc = S.Certificate(kind="restriction", maps=(S.LinearMap(F5, witness),) * 3,
                       target=S.unit_tensor(2, 3, F5))
    wf5 = S.Tensor(F5, w)

    def chain_check(res):
        power = res.n + res.c
        return _first(_expect("(n, c)", (res.n, res.c), (2, 3)),
                      _cert_check(res.certificate, oracle.kron_power(w, power, 5), 5, 2))
    ops.append(Op("symmetrize_certificate/W/F5", lambda: S.symmetrize_certificate(wf5, rc),
                  chain_check))

    for L, p in plan["lows"]:
        Lt = S.Tensor(S.domain_from_name(f"F{p}"), L)
        for n in (2, 4, 6):
            def check(res, L=L, p=p, n=n):
                sub = oracle.kron_power(L, n, p)[np.ix_(res.merged_indices, res.merged_indices)]
                diag_ok = np.all(np.diagonal(sub) != 0)
                off_ok = not (sub - np.diag(np.diagonal(sub))).any()
                return _first(_expect("size", res.size, math.comb(n, n // 2)),
                              None if diag_ok and off_ok else "extracted block is not diagonal")
            ops.append(Op(f"power_diag_certificate/F{p}/n{n}",
                          lambda Lt=Lt, n=n: S.power_diag_certificate(Lt, n), check))
    return ops


# ---------------------------------------------------------------------------
# cli_batch: one CLI process per operation, closed loop with one client
# ---------------------------------------------------------------------------

_ERROR_LINE = re.compile(r"^error: ([a-z-]+): ")


def _tensor_json(arr, domain):
    arr = np.asarray(arr)
    entries = []
    for idx in zip(*np.nonzero(arr)):
        v = arr[idx]
        val = [float(v.real), float(v.imag)] if domain == "C" else int(v)
        entries.append({"idx": [int(i) + 1 for i in idx], "val": val})
    return {"order": arr.ndim, "dims": list(arr.shape), "domain": domain, "entries": entries}


def _dense(tensor_json, shape):
    out = np.zeros(shape, dtype=np.int64)
    for e in tensor_json["entries"]:
        out[tuple(i - 1 for i in e["idx"])] = e["val"]
    return out


def cli_batch_plan(seed):
    rng = np.random.default_rng([seed, 4])
    w = _w()
    tensors = {"c5": (oracle.adjacency(5, 2, C5_EDGES), "F2"), "w_f3": (w, "F3"),
               "w_f5": (w, "F5"), "w_c": (w.astype(np.complex128), "C"),
               "tight": (_tight(), "F2")}
    while True:
        m = rng.integers(0, 7, (5, 5))
        if np.diagonal(m).any() or ((m + m.T) % 7).any():
            break  # not skew with zero diagonal, which congruence rejects
    tensors["cong_f7"] = (m, "F7")
    v = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    tensors["diag_c5"] = (v.T @ v, "C")
    return {"seed": seed, "tensors": tensors, "refs": {
        "cong_f7_rank": oracle.rank_mod_p(m, 7),
        "w_entropies": _entropies(w),
        "alpha_c5": oracle.independence_number(5, C5_EDGES),
        "beta_c5": oracle.induced_matching_number(5, 2, C5_EDGES),
        "beta_c5u": oracle.induced_matching_number(5, 2, C5_UNDIRECTED),
        "fully_symmetric_3": oracle.fully_symmetric(3),
    }}


def write_cli_inputs(workdir, plan):
    """Write the batch's input files; returns their paths."""
    files = {name: _tensor_json(arr, domain) for name, (arr, domain) in plan["tensors"].items()}
    files.update({
        "graph_c5": {"n": 5, "k": 2, "edges": [list(e) for e in C5_EDGES]},
        "graph_c5u": {"n": 5, "k": 2, "edges": [list(e) for e in C5_UNDIRECTED]},
        "entries_int": {"order": 2, "dims": [2, 2], "domain": "F3", "entries": 5},
        "idx_int": {"order": 2, "dims": [2, 2], "domain": "F3",
                    "entries": [{"idx": 3, "val": 1}]},
    })
    paths = {}
    for name, obj in files.items():
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    paths["bad_syntax"] = os.path.join(workdir, "bad_syntax.json")
    with open(paths["bad_syntax"], "w", encoding="utf-8") as fh:
        fh.write('{"order": 2, "dims": [2, 2')
    paths["c5_cert"] = os.path.join(workdir, "c5_cert.json")
    return paths


class CliResult:
    __slots__ = ("code", "out", "err")

    def __init__(self, code, out, err):
        self.code, self.out, self.err = code, out, err


def subprocess_runner(root, env):
    """run_cli for cli_batch: one fresh interpreter per invocation."""
    def run(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "symsub.cli", *argv],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        return CliResult(proc.returncode, proc.stdout, proc.stderr)
    return run


def cli_batch_ops(S, plan, ctx):
    paths, refs = ctx["cli_paths"], plan["refs"]
    arrays = {name: arr for name, (arr, _) in plan["tensors"].items()}
    run = ctx["run_cli"]
    ops = []

    def op(name, argv, check):
        ops.append(Op(f"cli/{name}", lambda: run(argv), check))

    def ok(check_outputs):
        def check(res):
            if res.code != 0:
                last = (res.err.strip().splitlines() or [""])[-1]
                return f"exit {res.code}: {last[:200]}"
            try:
                outputs = json.loads(res.out)["outputs"]
            except (ValueError, KeyError) as exc:
                return f"unreadable report: {exc}"
            return check_outputs(outputs)
        return check

    def error(code, exit_code):
        def check(res):
            lines = res.err.strip().splitlines()
            if "Traceback" in res.err:
                return "traceback instead of an error line"
            if res.code != exit_code:
                return f"exit {res.code}, expected {exit_code}"
            if len(lines) != 1 or not _ERROR_LINE.match(lines[0]):
                return f"stderr is not one error line: {res.err.strip()[-200:]!r}"
            return _expect("error code", _ERROR_LINE.match(lines[0]).group(1), code)
        return check

    def tensor(name):
        return ["--tensor", paths[name], "--json"]

    def certificate(cert, arr, p, r):
        maps = [np.array(m["data"]) for m in cert["maps"]]
        return oracle.restriction_certificate(maps, cert["kind"], _dense(cert["target"], (r,) * arr.ndim),
                                              arr, p, r)

    c5, w = arrays["c5"], arrays["w_f3"]
    op("rank-C5", ["rank", *tensor("c5")], ok(lambda o: _expect("rank", o["rank"], 4)))

    def c5_cert(o):
        with open(paths["c5_cert"], encoding="utf-8") as fh:
            cert = json.load(fh)
        return _first(_expect("value", o["value"], 2), certificate(cert, c5, 2, 2))
    op("symsubrank-C5", ["symsubrank", *tensor("c5"), "--cert-out", paths["c5_cert"]],
       ok(c5_cert))
    op("verify-C5", ["verify", *tensor("c5"), "--certificate", paths["c5_cert"]],
       ok(lambda o: _expect("verified", o["verified"], True)))
    op("subrank-W-F3", ["subrank", *tensor("w_f3")], ok(lambda o: _first(
        _expect("value", o["value"], 1), certificate(o["certificate"], w, 3, 1))))

    cong = arrays["cong_f7"]
    op("congruence-F7", ["congruence", *tensor("cong_f7"), "--seed", str(plan["seed"])],
       ok(lambda o: oracle.congruence_form(np.array(o["B"]["data"]), cong,
                                           _dense(o["L"], (5, 5)), 7, refs["cong_f7_rank"])))

    def diag_check(o, f=arrays["diag_c5"]):
        B = np.array([[complex(*v) for v in row] for row in o["B"]["data"]])
        want = np.zeros((5, 5), dtype=np.complex128)
        want[:4, :4] = np.eye(4)
        return _first(_expect("rank", o["rank"], 4),
                      None if oracle.same(B @ f @ B.T, want, 0, 1e-8) else "B f B^T is not I_r + 0")
    op("diagonalize-C5", ["diagonalize", *tensor("diag_c5")], ok(diag_check))

    for p in (7, 65521):
        def waring_check(o, p=p):
            got = oracle.waring_terms(o["coefficients"], np.array(o["vectors"]), 3, p)
            return None if np.array_equal(got.astype(np.int64), refs["fully_symmetric_3"]) \
                else "power sum is not the fully symmetric tensor"
        op(f"waring-order3-F{p}", ["waring", "--order", "3", "--domain", f"F{p}", "--json"],
           ok(waring_check))
    op("createt-w-f5", ["createt", *tensor("w_f5")],
       ok(lambda o: _expect("(c, y)", (o["c"], o["y"]), (3, [2, 1]))))

    op("hypergraph-alpha-C5", ["hypergraph", "alpha", "--graph", paths["graph_c5"], "--json"],
       ok(lambda o: _expect("alpha", o["alpha"], refs["alpha_c5"])))
    for label, graph in (("C5", "graph_c5"), ("C5u", "graph_c5u")):
        op(f"hypergraph-beta-{label}", ["hypergraph", "beta", "--graph", paths[graph], "--json"],
           ok(lambda o, want=refs[f"beta_{label.lower()}"]: _expect("beta", o["beta"], want)))
    op("hypergraph-power-C5", ["hypergraph", "power", "--graph", paths["graph_c5u"], "-m", "2",
                               "--json"],
       ok(lambda o: _expect("(alpha, power)", (o["alpha"], o["bestPower"]), (5, 2))))
    op("hypergraph-chain-C5", ["hypergraph", "chain", "--graph", paths["graph_c5"], "--domain",
                               "F2", "--json"],
       ok(lambda o: _expect("chain", (o["alpha"], o["beta"], o["symSubrank"], o["subrank"],
                                      o["ok"]), (2, 3, 2, 4, True))))

    def sandwich(o, mean_avg=refs["w_entropies"]):
        mean, avg = mean_avg
        if abs(o["entropyOfAverage"] - avg) > 1e-8 or abs(o["meanEntropy"] - mean) > 1e-8:
            return "entropies differ from numpy eigvalsh"
        return None
    op("quantum-check-W", ["quantum", "check", *tensor("w_c")], ok(sandwich))
    op("quantum-F-W", ["quantum", "F", *tensor("w_c"), "--restarts", "2", "--seed",
                       str(plan["seed"])],
       ok(lambda o: None if abs(o["value"] - W_VALUE) <= 1e-2 else f"value {o['value']!r}"))

    op("malformed-syntax", ["subrank", "--tensor", paths["bad_syntax"]],
       error("malformed-json", 1))
    op("malformed-entries-int", ["rank", "--tensor", paths["entries_int"]],
       error("malformed-json", 1))
    op("malformed-idx-int", ["rank", "--tensor", paths["idx_int"]], error("malformed-json", 1))
    op("over-budget", ["subrank", "--tensor", paths["tight"], "--budget", "1000"],
       error("budget", 2))
    return ops


WORKLOADS = {
    "exact_search": (exact_search_plan, exact_search_ops),
    "orbit_ascent": (orbit_ascent_plan, orbit_ascent_ops),
    "normal_forms": (normal_forms_plan, normal_forms_ops),
    "cli_batch": (cli_batch_plan, cli_batch_ops),
}

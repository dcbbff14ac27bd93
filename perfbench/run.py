"""symsub benchmark: one workload per call, metrics as JSON on the last line.

    python3 perfbench/run.py --workload exact_search --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
``src``).  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones; the names, units and bounds are in BENCHMARK.json and the
reasons for each workload in ``perfbench/manifest.json``.  This process
draws the instances from the seed and computes their reference values
(``workloads.py``, ``oracle.py``; neither calls symsub), so that work stays
out of the measured processes.  Each workload then runs serially in fresh
processes, all pinned to one core, with BLAS threads capped at that one
core.  Set-up is timed over every launch and reported as the median.  The
measuring time is split over three fresh processes.  Every time is divided
by the host-speed probe timed around it (``probe.py``) and reported as on
the reference host; the unscaled figures go to standard error.  Every
operation's result is checked against the references; operations listed
under ``known_failures`` in the manifest are seed defects that count as
failed without making the run incorrect.  Machine and versions go to
standard error with the result.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import math
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import probe  # noqa: E402
WORKLOADS = ("exact_search", "orbit_ascent", "normal_forms", "cli_batch")
# The measuring time is split over several fresh processes, so that no one
# process's state sets the figures; each operation's median is taken over
# the passes of all of them.
MEASURE_LAUNCHES = 3
SETUP_LAUNCHES = 1  # set-up-only launches before each measuring launch
TAIL_POINTS = 8  # quantiles per operation that op_tail_ms pools
SETUP_PROBES = 3  # probe timings around each launch, median taken
WORKER_TIMEOUT_S = 170


def _pin():
    """Run this process and all it starts on one core, the highest it may
    use: a CLI child or a probe then runs where the operation it is compared
    with runs, and nothing migrates between cores mid-operation."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _env():
    cores = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(cores)
    # numpy asks for transparent huge pages for large arrays; whether the
    # kernel grants one moved peak_rss_mb by 2 MB between identical runs
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env, cores


def _launch(args, plan_path, mode, env, deadline, seconds=0.0):
    """Start a worker; returns (seconds until it printed ready, scaled by the
    host-speed probe with its interpreter-start part, timed before and after
    the launch, and the report or None)."""
    before = probe.median_of(SETUP_PROBES, spawn=True)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--plan", plan_path, "--seconds", str(seconds), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if first.strip() != "ready":
            raise RuntimeError(f"worker did not get ready (said {first.strip()!r})")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    around = (before + probe.median_of(SETUP_PROBES, spawn=True)) / 2
    lines = out.strip().splitlines()
    return (ready * probe.reference_s(True) / around,
            json.loads(lines[-1]) if mode != "setup" else None)


def _tail(samples):
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = math.floor(100 * (1 - 10 / n)) if n > 10 else 0
    rank = max(1, math.ceil(pct / 100 * n))
    return ordered[rank - 1], pct, n - rank


def _failures(report, known):
    attempted = failed = unexpected = 0
    reasons = {}
    for p in report["passes"]:
        attempted += len(p["latencies"])
        for i, why in p["failures"].items():
            name = report["ops"][int(i)]
            failed += 1
            if name not in known:
                unexpected += 1
            reasons[name] = why
    return attempted, failed, unexpected, reasons


def _scaled(report):
    """Each operation's latencies over all passes, divided by the host-speed
    probe timed around it and scaled to the probe's reference time."""
    per_op = [[] for _ in report["ops"]]
    for p in report["passes"]:
        for i, t in enumerate(p["latencies"]):
            around = (p["probes"][i] + p["probes"][i + 1]) / 2
            per_op[i].append(t * report["probe_reference_s"] / around)
    return per_op


def _middle_half(times, count):
    """``count`` evenly spaced quantiles from the 25th to the 75th percentile
    (linear interpolation between order statistics)."""
    ordered = sorted(times)
    out = []
    for j in range(count):
        pos = (0.25 + 0.5 * j / (count - 1)) * (len(ordered) - 1)
        lo = math.floor(pos)
        hi = min(lo + 1, len(ordered) - 1)
        out.append(ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo]))
    return out


def end_to_end(report, setup_samples, attempted, failed, tail_points):
    # wall_s and op_p50_ms take each operation's median scaled latency over
    # the run's passes.  op_tail_ms pools ``tail_points`` quantiles from the
    # middle half of each operation's scaled latencies: a fixed number of
    # samples per operation, so the percentile does not move with how many
    # passes fit into the run, and one odd pass does not move the samples.
    per_op = _scaled(report)
    mid = [statistics.median(times) for times in per_op]
    samples = [q for times in per_op for q in _middle_half(times, tail_points)]
    tail, pct, beyond = _tail(samples)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (sum(mid), "s"),
        "op_p50_ms": (1000 * statistics.median(mid), "ms"),
        "op_tail_ms": (1000 * tail, "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (report["rss_kb"] / 1024, "MB"),
    }
    raw = [statistics.median(times) for times in zip(*(p["latencies"] for p in report["passes"]))]
    probes = [t for p in report["passes"] for t in p["probes"]]
    detail = {"operations": len(mid), "passes": len(report["passes"]),
              "op_tail_percentile": pct, "op_tail_samples": len(samples),
              "samples_beyond_tail": beyond, "fail_ratio": failed / attempted,
              "unscaled_wall_s": sum(raw), "probe_median_ms": 1000 * statistics.median(probes)}
    return metrics, detail


def per_layer(report):
    t = report["trace"]
    stat = {n: (c, tot, s) for n, c, tot, s in
            zip(t["names"], t["calls"], t["total_s"], t["self_s"])}

    def calls(name):
        return stat.get(name, (0, 0.0, 0.0))[0]

    def per_call(name, scale):
        c, tot, _ = stat.get(name, (0, 0.0, 0.0))
        return scale * tot / c if c else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    layer_self = {}
    for n, (_, _, s) in stat.items():
        layer = n.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + s
    first, traced, last = report["passes"]
    untraced_wall = (first["wall_s"] + last["wall_s"]) / 2
    m = {}
    for fn in ("columns_contained", "solve", "rank"):
        for field in ("f2", "fp", "c"):
            name = f"linalg.{fn}.{field}"
            m[f"{name}.calls"] = (calls(name), "count")
            m[f"{name}.us_per_call"] = (per_call(name, 1e6), "us")
    yes, no = t["outcomes"].get("linalg.columns_contained", (0, 0))
    m["linalg.columns_contained.true_ratio"] = (ratio(yes, yes + no), "ratio")
    yes, no = t["outcomes"].get("linalg.solve", (0, 0))
    m["linalg.solve.found_ratio"] = (ratio(yes, yes + no), "ratio")
    found = refuted = 0
    for name in ("restrict.restriction_exists", "restrict.symrestriction_exists"):
        yes, no = t["outcomes"].get(name, (0, 0))
        found, refuted = found + yes, refuted + no
    m["restrict.searches"] = (found + refuted, "count")
    m["restrict.refuted_ratio"] = (ratio(refuted, found + refuted), "ratio")
    m["domains.reduce.calls"] = (calls("domains.reduce"), "count")
    m["domains.reduce.self_s"] = (stat.get("domains.reduce", (0, 0.0, 0.0))[2], "s")
    m["domains.inverse.calls"] = (calls("domains.inverse"), "count")
    ball = "congruence.ballantine_reduce"
    m[f"{ball}.calls"] = (calls(ball), "count")
    m[f"{ball}.ms_per_call"] = (per_call(ball, 1e3), "ms")
    m["congruence.reduce_calls_per_call"] = (ratio(t["reduce_in_ballantine"], calls(ball)), "count")
    for fn in ("apply", "apply_sym", "apply_sym_power", "flattening_rank"):
        m[f"tensors.{fn}.calls"] = (calls(f"tensors.{fn}"), "count")
        m[f"tensors.{fn}.us_per_call"] = (per_call(f"tensors.{fn}", 1e6), "us")
    m["symmetrize.waring_h.calls"] = (calls("symmetrize.waring_h"), "count")
    m["symmetrize.create_t.calls"] = (calls("symmetrize.create_t"), "count")
    m["hypergraphs.alpha_chain_check.calls"] = (calls("hypergraphs.alpha_chain_check"), "count")
    qnames = ("quantum.sym_quantum_functional", "quantum.uniform_quantum_functional")
    qcalls = sum(calls(n) for n in qnames)
    qtime = sum(stat.get(n, (0, 0.0, 0.0))[1] for n in qnames)
    m["quantum.functional.calls"] = (qcalls, "count")
    m["quantum.iterations"] = (t["quantum"]["iterations"], "count")
    m["quantum.restarts"] = (t["quantum"]["restarts"], "count")
    m["quantum.ms_per_iteration"] = (ratio(1e3 * qtime, t["quantum"]["iterations"]), "ms")
    m["quantum.jacobi_eigh.calls"] = (calls("quantum.jacobi_eigh"), "count")
    for layer in ("linalg", "restrict", "domains", "congruence", "tensors", "symmetrize",
                  "hypergraphs", "quantum", "cli"):
        m[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
    m["cli.import_ms"] = (report["import_ms"], "ms")
    inproc = report["inproc"]["traced"]
    shell = ratio(1e3 * layer_self.get("cli", 0.0), inproc["calls"])
    m["cli.shell_ms_per_call"] = (shell, "ms")
    untraced_inproc = report["inproc"]["untraced"]
    m["cli.process_ms_per_call"] = (ratio(
        1e3 * (untraced_inproc["spawn_seconds"] - untraced_inproc["seconds"]),
        untraced_inproc["calls"]), "ms")
    m["trace.wall_s"] = (traced["wall_s"], "s")
    m["trace.layers_self_s"] = (sum(layer_self.values()), "s")
    m["trace.overhead_ratio"] = (traced["wall_s"] / untraced_wall, "ratio")
    return m


def machine(cores):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    import numpy

    return {"nproc": os.cpu_count(), "usable_cores": cores, "blas_threads": cores,
            "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": commit, "machine": platform.machine()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "symsub", "__init__.py")):
        print(f"error: no symsub sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "manifest.json"), encoding="utf-8") as fh:
        known = {k["op"] for k in json.load(fh)["known_failures"]}
    _pin()
    env, cores = _env()
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    import workloads

    # every launch then loads bytecode, as an installed package would, so
    # neither setup_s nor peak_rss_mb depends on whether a cache was left
    # behind (compiling workloads.py in the worker added 2.4 MB to the peak)
    for path in (os.path.join(ROOT, "src", "symsub"), HERE):
        compileall.compile_dir(path, maxlevels=0, quiet=1)
    plan = workloads.WORKLOADS[args.workload][0](args.seed)
    work = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    plan_path = os.path.join(work, f"plan-{args.workload}-{args.seed}-{os.getpid()}.pkl")
    with open(plan_path, "wb") as fh:
        pickle.dump(plan, fh)
    try:
        if args.trace:
            setup = []
            _, report = _launch(args, plan_path, "trace", env, deadline)
        else:
            setup, reports = [], []
            for _ in range(MEASURE_LAUNCHES):
                setup += [_launch(args, plan_path, "setup", env, deadline)[0]
                          for _ in range(SETUP_LAUNCHES)]
                ready, part = _launch(args, plan_path, "measure", env, deadline,
                                      args.seconds / MEASURE_LAUNCHES)
                setup.append(ready)
                reports.append(part)
            report = {"ops": reports[0]["ops"],
                      "probe_reference_s": reports[0]["probe_reference_s"],
                      "passes": [p for part in reports for p in part["passes"]],
                      "rss_kb": max(part["rss_kb"] for part in reports)}
    finally:
        os.remove(plan_path)
        with contextlib.suppress(OSError):
            os.rmdir(work)

    attempted, failed, unexpected, reasons = _failures(report, known)
    if args.trace:
        metrics = per_layer(report)
        detail = {"trace_spans_logged": report["trace"]["logged_spans"]}
        correct = metrics["trace.layers_self_s"][0] <= metrics["trace.wall_s"][0]
    else:
        metrics, detail = end_to_end(report, setup, attempted, failed, TAIL_POINTS)
        correct = True
    correct = correct and unexpected == 0
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "machine": machine(cores), **detail,
            "failures": {n: ("known: " if n in known else "") + why
                         for n, why in sorted(reasons.items())}}
    print(json.dumps(info, indent=1), file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

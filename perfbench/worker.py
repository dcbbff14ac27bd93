"""One workload in one fresh process.

Started by run.py.  Imports symsub from the checkout's ``src``, reads the
workload's plan (instances and reference values, drawn from the seed by
run.py), builds the operations, prints ``ready`` on standard output,
then (mode ``measure``) runs whole passes, timing the host-speed probe
between operations, until the time is used or (mode ``trace``) runs an
untraced, a traced and another untraced pass.  The last line on standard
output is a JSON report of raw timings; run.py turns it into metrics.
Mode ``setup`` stops after ``ready``.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import io
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_symsub():
    sys.path.insert(0, SRC)
    import symsub

    if os.path.dirname(os.path.dirname(os.path.abspath(symsub.__file__))) != SRC:
        raise SystemExit(f"symsub imported from {symsub.__file__}, not from {SRC}")
    return symsub


def run_pass(ops, tracer=None, probe=None):
    """Time each operation, then check it outside the timed region.  With
    ``probe``, also time the host-speed probe before the first operation and
    after each one (``probes[i]`` and ``probes[i + 1]`` flank operation i)."""
    clock = time.perf_counter
    latencies, failures = [], {}
    probes = [probe()] if probe else None
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        t0 = clock()
        error = None
        try:
            result = op.call()
        except Exception as exc:  # a raising operation is a failed one
            error = exc
        latencies.append(clock() - t0)
        if probe:
            probes.append(probe())
        if error is not None:
            failures[i] = f"raised {type(error).__name__}: {error}"[:300]
            continue
        try:
            reason = op.check(result)
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"[:300]
        if reason:
            failures[i] = reason
    out = {"wall_s": sum(latencies), "latencies": latencies, "failures": failures}
    if probe:
        out["probes"] = probes
    return out


def _own_peak_kb():
    """Peak resident memory of this process image.  ru_maxrss would also
    count the parent's memory at the fork before this interpreter started;
    VmHWM covers only what this process touched.  (CLI children's ru_maxrss
    can include this process's peak at their spawn, which stays below
    theirs: both import symsub and numpy.)"""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _median_start_ms(argv, env, count=5):
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True, capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--plan", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = ap.parse_args()

    S = _import_symsub()
    import probe
    import workloads
    from tracer import Tracer

    with open(args.plan, "rb") as fh:
        plan = pickle.load(fh)

    ctx = {}
    workdir = None
    cli_env = dict(os.environ)
    cli_env["PYTHONPATH"] = SRC
    inproc = {"calls": 0, "seconds": 0.0, "spawn_seconds": 0.0}
    try:
        if args.workload == "cli_batch":
            compileall.compile_dir(os.path.join(SRC, "symsub"), quiet=1)
            os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
            workdir = tempfile.mkdtemp(prefix="cli-", dir=os.path.join(ROOT, ".perfbench_work"))
            ctx["cli_paths"] = workloads.write_cli_inputs(workdir, plan)
            spawn = workloads.subprocess_runner(ROOT, cli_env)
            if args.mode == "trace":
                def run_cli(argv):
                    t0 = time.perf_counter()
                    res = spawn(argv)
                    inproc["spawn_seconds"] += time.perf_counter() - t0
                    sink = io.StringIO()
                    t0 = time.perf_counter()
                    try:
                        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                            S.cli.run(argv)
                    except Exception:
                        pass  # the process result above is what gets checked
                    inproc["calls"] += 1
                    inproc["seconds"] += time.perf_counter() - t0
                    return res
                ctx["run_cli"] = run_cli
            else:
                ctx["run_cli"] = spawn
        ops = workloads.WORKLOADS[args.workload][1](S, plan, ctx)
        print("ready", flush=True)

        report = {"ops": [op.name for op in ops]}
        if args.mode == "measure":
            # CLI calls are mostly process start-up, so their probe starts
            # a bare interpreter too (probe.py)
            spawn = args.workload == "cli_batch"
            report["probe_reference_s"] = probe.reference_s(spawn)
            passes = []
            start = time.perf_counter()
            while True:
                passes.append(run_pass(ops, probe=lambda: probe.timed(spawn)))
                elapsed = time.perf_counter() - start
                # stop unless another pass would end within half a pass
                # after the share, so a launch overruns by half a pass at most
                if elapsed * (1 + 0.5 / len(passes)) > args.seconds:
                    break
            report["passes"] = passes
        elif args.mode == "trace":
            # untraced passes on both sides of the traced one, so warm-up
            # and drift do not land on one side of the overhead ratio
            report["passes"] = [run_pass(ops)]
            untraced_inproc = dict(inproc)
            inproc.update(calls=0, seconds=0.0, spawn_seconds=0.0)
            tracer = Tracer()
            tracer.install(S)
            try:
                report["passes"].append(run_pass(ops, tracer))
            finally:
                tracer.uninstall()
            report["trace"] = tracer.summary()
            report["inproc"] = {"untraced": untraced_inproc, "traced": dict(inproc)}
            report["passes"].append(run_pass(ops))
            report["import_ms"] = (
                _median_start_ms([sys.executable, "-c", "import symsub.cli"], cli_env)
                - _median_start_ms([sys.executable, "-c", "pass"], cli_env)
            )
        report["rss_kb"] = max(_own_peak_kb(),
                               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        if args.mode != "setup":
            print(json.dumps(report), flush=True)
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):
                os.rmdir(os.path.dirname(workdir))


if __name__ == "__main__":
    main()

"""Run the benchmark over several seeds and write one JSON record.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline/<label>.json

Runs ``run.py`` serially for every workload in BENCHMARK.json and every
seed (end-to-end metrics), round-robin over the workloads so that a slow
phase of the host is spread over all of them instead of covering one
workload's consecutive seeds; then once more per workload with
``--trace 1`` on the first seed.  Records each run's metrics, the median
and the quartile spread (third minus first quartile over the median) per
metric, and the machine.  Two records from the same machine are what a
before/after comparison reads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["info"] = json.loads(proc.stderr[proc.stderr.index("{"):])
    return result


def summarize(runs):
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
        out[name] = {"median": med, "spread": (q[2] - q[0]) / med if med else 0.0,
                     "unit": runs[0]["metrics"][name]["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    record = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    runs = {name: [] for name in names}
    for seed in args.seeds:
        for name in names:
            runs[name].append(one_run(name, seed, bench["run_seconds"], 0))
            print(name, seed, {k: round(v["value"], 4) for k, v in runs[name][-1]["metrics"].items()},
                  file=sys.stderr, flush=True)
    for name in names:
        traced = one_run(name, args.seeds[0], bench["run_seconds"], 1)
        record["machine"] = runs[name][0]["info"]["machine"]
        record["workloads"][name] = {
            "summary": summarize(runs[name]),
            "runs": [{"seed": s, "correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"],
                      "metrics": {k: v["value"] for k, v in r["metrics"].items()},
                      "detail": {k: v for k, v in r["info"].items()
                                 if k not in ("machine", "failures")}}
                     for s, r in zip(args.seeds, runs[name])],
            "failures": runs[name][0]["info"]["failures"],
            "traced": {"seed": args.seeds[0], "correct": traced["correct"],
                       "metrics": {k: v["value"] for k, v in traced["metrics"].items()}},
        }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, wl in record["workloads"].items():
        for metric, s in wl["summary"].items():
            print(f"{name} {metric}: median {s['median']:.6g} {s['unit']}, spread {s['spread']:.4f}")


if __name__ == "__main__":
    main()

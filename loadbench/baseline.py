#!/usr/bin/env python3
"""Runs the benchmark over several seeds per workload and summarizes it.

Each metric gets its median, quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median; the traced run adds the per-layer medians.  Run
from the repository root, for example:

    python3 loadbench/baseline.py --seeds 1-10 --sets 2 --out loadbench/BASELINE.json

Set k of --sets uses seeds offset by 100*k, so the sets are independent.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run(workload, seed, seconds, trace):
    cmd = ["bash", "loadbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stdout[-3000:]}\n{p.stderr[-3000:]}")
    res = json.loads(lines[-1])
    env = next((l for l in lines if l.startswith("# env ")), "")
    print(f"{workload} seed={seed} trace={trace} wall={time.time() - start:.1f}s "
          f"correct={res['correct']} failed={res['failed']}/{res['attempted']}", file=sys.stderr, flush=True)
    return res, env


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="", help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--traced", type=int, default=1, help="traced runs per workload and set")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    first, last = (int(x) for x in args.seeds.split("-"))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    out = {"run_seconds": spec["run_seconds"], "sets": []}
    for k in range(args.sets):
        seeds = [s + 100 * k for s in range(first, last + 1)]
        result = {"seeds": seeds, "workloads": {}}
        out["sets"].append(result)
        for w in workloads:
            values, env = {}, ""
            for s in seeds:
                res, env = run(w, s, spec["run_seconds"], 0)
                for name, m in res["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            layers = {}
            for s in seeds[:args.traced]:
                res, _ = run(w, s, spec["run_seconds"], 1)
                for name, m in res["metrics"].items():
                    layers.setdefault(name, []).append(m["value"])
            result["workloads"][w] = {
                "env": env,
                "end_to_end": {n: summary(v) for n, v in sorted(values.items())},
                "per_layer": {n: statistics.median(v) for n, v in sorted(layers.items())},
            }
            write(args.out, out)


def write(path, out):
    with open(path, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()

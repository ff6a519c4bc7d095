#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports, per metric, the
median, the quartiles and the quartile spread as a share of the median,
next to the bound BENCHMARK.json fixes for it.

    python3 perfbench/steady.py --workload hot_blocks --seeds 1-10 [--trace 0]

Run it from the repository root. Each run's full output is appended to
.bench_build/steady-<workload>.log.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    os.makedirs(".bench_build", exist_ok=True)
    log = open(f".bench_build/steady-{args.workload}.log", "a")
    values = {}
    for seed in seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        log.write(proc.stdout + proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            sys.exit(1)
        res = json.loads(lines[-1])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, xs in sorted(values.items()):
        med = statistics.median(xs)
        if len(xs) >= 2:
            q1, _, q3 = statistics.quantiles(xs, n=4)
        else:
            q1 = q3 = xs[0]
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound:
            verdict = f"bound {bound:.3f} {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"{name:40s} median {med:14.4f} q1 {q1:14.4f} q3 {q3:14.4f} spread {spread:.4f} {verdict}")


if __name__ == "__main__":
    main()

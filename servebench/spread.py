#!/usr/bin/env python3
"""Run-to-run spread of the serve-path benchmark's end-to-end metrics.

Run from the repository root:

    python3 servebench/spread.py [--runs 10] [--workloads a,b] [--write]

Builds the benchmark once, runs every workload `--runs` times (seeds
1..runs, `--trace 0`, `run_seconds` from BENCHMARK.json), and prints for
each end-to-end metric its median and the distance between the first
and third quartile as a share of the median, next to the metric's bound.
With `--write` it rewrites servebench/HOST.json: the host block plus
these spreads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    cmd = bench["command"]
    # Builds the benchmark (once) and reads the daemon's configuration.
    config = subprocess.run(cmd + ["config"], capture_output=True, text=True, check=True)

    seeds = list(range(1, args.runs + 1))
    spread = {}
    for name in names:
        values = {}
        for seed in seeds:
            out = subprocess.run(
                cmd + ["--workload", name, "--seed", str(seed),
                       "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.exit(f"{name} seed {seed} failed:\n{out.stderr}")
            result = json.loads(lines[-1])
            if not result["correct"]:
                sys.exit(f"{name} seed {seed} incorrect:\n{out.stderr}")
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m} {v['value']:.6g}" for m, v in result["metrics"].items()), flush=True)
        spread[name] = {}
        for metric, v in values.items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            rel = (q3 - q1) / median if median else 0.0
            spread[name][metric] = {
                "median": median, "q1": q1, "q3": q3,
                "iqr_over_median": round(rel, 4), "bound": bounds[metric],
                "runs": len(v),
            }
            print(f"{name:20} {metric:15} median {median:12.6g} "
                  f"spread {rel:.4f} bound {bounds[metric]}", flush=True)

    if args.write:
        path = os.path.join(HERE, "HOST.json")
        if os.path.exists(path):
            with open(path) as f:
                spread = {**json.load(f).get("spread", {}), **spread}
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout
        host = {
            "host": {
                "nproc": os.cpu_count(),
                "build_profile": "release, Cargo defaults (the benchmark package sets no profile)",
                "rustc": rustc.strip(),
                "transport": "loopback TCP 127.0.0.1, TCP_NODELAY on both ends",
                "daemon_config": json.loads(config.stdout.strip().splitlines()[-1]),
            },
            "run_seconds": bench["run_seconds"],
            "seeds": seeds,
            "spread": spread,
        }
        with open(path, "w") as f:
            json.dump(host, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()

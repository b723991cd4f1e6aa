#!/usr/bin/env python3
"""Runs the benchmark several times on one workload, each run with its own
seed, and prints each end-to-end metric's median and its spread: the
distance between the first and third quartiles as a share of the median.

    python3 perfbench/steady.py <workload> [runs] [first_seed]

Run from the repository root. The spread of every metric should stay below
a third of the metric's bound in BENCHMARK.json. It also prints,
for p50 and the tail, the classes the rank landed in and the widest
window_spread seen (see README.md).
"""
import json
import statistics
import subprocess
import sys


def main():
    workload = sys.argv[1]
    runs = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    first_seed = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    spec = json.load(open("BENCHMARK.json"))
    values = {m["name"]: [] for m in spec["end_to_end"]}
    sites = {}
    for k in range(runs):
        seed = first_seed + k
        cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        lines = [json.loads(line) for line in out.strip().splitlines()]
        result = lines[-1]
        for line in lines:
            if "rank_site" in line:
                sites.setdefault(line["rank_site"], []).append(
                    (line["class"], line["window_spread"]))
        if not result["correct"]:
            sys.exit(f"seed {seed}: {result['failed']} of {result['attempted']} failed")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()),
              flush=True)
    for site, seen in sites.items():
        classes = sorted({c for c, _ in seen})
        widest = max(w for _, w in seen)
        print(f"{site}: classes at the rank {classes}, widest window_spread {widest:.4f}")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        verdict = "ok" if spread < m["bound"] / 3 else "WIDE"
        print(f"{workload} {m['name']}: median {med:.5g} {m['unit']}, spread {spread:.4f} "
              f"(bound {m['bound']}, third {m['bound'] / 3:.4f}) {verdict}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports, for each metric, the
median and the inter-quartile range as a share of the median.

    python3 perfbench/spread.py --workload thm1_gnm --seeds 1-10

Run from the repository root. Each end-to-end metric is flagged when its
spread exceeds a third of its bound in BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for seed in args.seeds:
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        print(lines[-2] if len(lines) > 1 else "", flush=True)
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    worst = 0.0
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name) if args.trace == "0" else None
        flag = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, spread / bound)
            flag = "  OVER" if spread > bound / 3 else ""
        print(f"{name:28} median {med:14.6g}  spread {spread:8.4f}"
              f"  bound {bound if bound is not None else '-'}{flag}")
    if args.trace == "0":
        print(f"worst spread / bound: {worst:.3f} (steady below 0.333)")


if __name__ == "__main__":
    main()

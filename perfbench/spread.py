#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's median,
quartiles and spread (interquartile distance as a share of the median).

    python3 perfbench/spread.py --workload lms_refine --seeds 1-10 --seconds 30

Run from the repository root. By default the benchmark is started with
`cargo run --release` on perfbench/Cargo.toml; `--bin` runs an already
built binary instead.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bin", help="prebuilt benchmark binary")
    args = ap.parse_args()

    if args.bin:
        base = [args.bin]
    else:
        base = ["cargo", "run", "--release", "--offline", "--quiet",
                "--manifest-path", "perfbench/Cargo.toml", "--"]
    values = {}
    units = {}
    for seed in seed_list(args.seeds):
        cmd = base + ["--workload", args.workload, "--seed", str(seed),
                      "--seconds", args.seconds, "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result {lines[-1]}")
        row = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
            row.append(f"{name}={m['value']:.6g}")
        print(f"seed {seed}: attempted {result['attempted']}  " + "  ".join(row),
              flush=True)

    print(f"\n{args.workload}: {len(seed_list(args.seeds))} runs of {args.seconds} s")
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}  {units[name]}")


if __name__ == "__main__":
    main()

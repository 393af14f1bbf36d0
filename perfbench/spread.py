#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command from BENCHMARK.json once per seed on one workload and
prints, per metric, the median, the quartiles (statistics.quantiles,
n=4) and the interquartile distance as a share of the median, next to
the metric's bound and a third of it.

    python3 perfbench/spread.py --workload squash_boot --seeds 1 2 3 4 5
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    specs = {m["name"]: m for m in bench[kind]}
    values = {name: [] for name in specs}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", str(args.trace),
        ]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if set(result["metrics"]) != set(specs):
            sys.exit(f"seed {seed}: metrics {sorted(result['metrics'])} != {sorted(specs)}")
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        shown = " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {shown}", flush=True)

    print(f"{'metric':<28} {'median':>16} {'q1':>16} {'q3':>16} {'spread':>8} {'bound/3':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        share = (q3 - q1) / med if med else float("nan")
        bound = specs[name].get("bound")
        third = f"{bound / 3:.4f}" if bound is not None else "-"
        flag = "" if bound is None or share <= bound / 3 else "  <-- wide"
        print(f"{name:<28} {med:>16.6f} {q1:>16.6f} {q3:>16.6f} {share:>8.4f} {third:>8}{flag}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workload hot_binary --seeds 1-10 --seconds 20

Runs `perfbench/run.py` once per seed, sequentially, and prints for each
metric its median, quartiles and the quartile spread as a share of the
median (the figure the benchmark's bounds are compared against), plus
every value. Runs are untraced (`--trace 0`), so the metrics are the
gated end-to-end set.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default="20")
    a = ap.parse_args()
    values = {}
    for seed in seeds(a.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", a.workload,
               "--seed", str(seed), "--seconds", a.seconds, "--trace", "0"]
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
        try:
            res = json.loads(last)
        except json.JSONDecodeError:
            res = {}
        if p.returncode != 0 or not res.get("correct"):
            print(f"seed {seed}: exit {p.returncode}, result {last[:200]}", file=sys.stderr)
            sys.exit(1)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
              flush=True)
    print(f"{'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, v in values.items():
        med = statistics.median(v)
        if len(v) >= 2:
            q1, _, q3 = statistics.quantiles(v, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<32} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f}")


if __name__ == "__main__":
    main()

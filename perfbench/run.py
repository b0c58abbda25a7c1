#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload hot_binary --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Builds the shipped `awesym` binary and the `perfbench` harness from source
(release profile, into $CARGO_TARGET_DIR or `.bench_build`), then runs the
harness, which drives the binary as a child process. Build output goes to
stderr; the harness prints the report and, as its last stdout line, the
one-line JSON result. The exit code is the harness's: non-zero on a build
failure, a wrong result, or a client/server accounting disagreement.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["hot_binary", "compile_churn", "mc_yield"]


def build(env):
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "awesymbolic", "--bin", "awesym"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        code = subprocess.call(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if code != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            sys.exit(code or 1)


def main():
    env = dict(os.environ)
    # The shipped configuration is exact mul-add arithmetic.
    env.pop("AWESYM_TAPE_FMA", None)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    build(env)
    harness = os.path.join(target, "release", "perfbench")
    awesym = os.path.join(target, "release", "awesym")
    args = sys.argv[1:]
    if "--workload" in args and args[args.index("--workload") + 1] == "all":
        sys.exit(run_all(harness, awesym, args, env))
    cmd = [harness, *args, "--awesym", awesym, "--root", ROOT]
    sys.exit(subprocess.call(cmd, cwd=ROOT, env=env))


def run_all(harness, awesym, args, env):
    """`--workload all`: every workload in turn, then one summary line."""
    at = args.index("--workload") + 1
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    worst = 0
    for name in WORKLOADS:
        args[at] = name
        p = subprocess.run([harness, *args, "--awesym", awesym, "--root", ROOT],
                           cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(p.stdout)
        lines = p.stdout.strip().splitlines()
        try:
            res = json.loads(lines[-1]) if lines else {}
        except json.JSONDecodeError:
            res = {}
        ok = p.returncode == 0 and res.get("correct") is True
        summary["correct"] &= ok
        summary["attempted"] += res.get("attempted", 0)
        summary["failed"] += res.get("failed", 0)
        summary["workloads"][name] = {"correct": ok, "exit": p.returncode}
        worst = worst or p.returncode
    print(json.dumps(summary))
    return worst or (0 if summary["correct"] else 1)


if __name__ == "__main__":
    main()

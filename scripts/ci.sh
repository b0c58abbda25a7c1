#!/usr/bin/env bash
# Tier-1 CI gate: build, test, formatting, lints, docs, fault suite, and
# benchmark gates for the whole workspace. Run from the repository root;
# fails fast on the first error, reporting which step failed and how long
# each completed step took.
#
# The last line is machine-readable so local runs and the GitHub workflow
# can be grepped uniformly:
#   CI_OK steps=N total=Ss        on success
#   CI_FAILED step=<name>         on the error path
set -euo pipefail
cd "$(dirname "$0")/.."

CURRENT_STEP="(startup)"
STEPS_RUN=0
CI_T0=$(date +%s)
trap 'echo "==> CI FAILED in step: ${CURRENT_STEP}" >&2; echo "CI_FAILED step=${CURRENT_STEP}"' ERR

step() {
  CURRENT_STEP="$1"
  shift
  echo "==> ${CURRENT_STEP}"
  local t0 t1
  t0=$(date +%s)
  "$@"
  t1=$(date +%s)
  STEPS_RUN=$((STEPS_RUN + 1))
  echo "    (${CURRENT_STEP}: $((t1 - t0))s)"
}

step "cargo build --release" cargo build --release

step "cargo test -q" cargo test -q

# The benchmark harness is its own workspace with path dependencies on
# the crates, so a public-API change that breaks it fails here, and
# --locked fails a dependency-graph change instead of silently rewriting
# perfbench/Cargo.lock.
step "cargo build --release (perfbench harness)" \
  cargo build --release --locked --manifest-path perfbench/Cargo.toml

step "cargo fmt --check" cargo fmt --check

step "cargo clippy --workspace -- -D warnings" \
  cargo clippy --workspace -- -D warnings

step "cargo doc --no-deps (rustdoc warnings are errors)" \
  env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

step "fault_suite (deterministic fault injection, fixed seeds)" \
  cargo test -p awesym-serve --features fault-injection -q

step "net loopback suite (socket sessions under faults)" \
  cargo test -p awesym-net --features fault-injection -q

# Lane-width parity: the evaluator suites must be bit-identical with the
# batch kernel pinned to scalar, 4-wide, and 8-wide lanes (the CI
# simd-parity job runs the same matrix; see docs/tape.md §7).
step "simd parity (evaluator suites at AWESYM_LANES=1/4/8)" \
  bash -c 'for lanes in 1 4 8; do
    echo "    AWESYM_LANES=${lanes}"
    AWESYM_LANES="${lanes}" cargo test -q -p awesym-symbolic -p awesym-timing
  done'

# The Monte Carlo normal stream is libm-free and must give the same bits
# at any codegen: rerun its goldens at the SSE2-only x86-64 baseline
# (RUSTFLAGS overrides the x86-64-v3 pin in .cargo/config.toml; its own
# target dir keeps the other steps' artifacts from being rebuilt).
step "rng stream goldens at SSE2-baseline codegen" \
  env RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/x86-64-baseline \
  cargo test -p awesym-timing --release --lib sample::

# --out keeps the smoke run's report away from the committed baseline in
# results/, which only full bench runs may regenerate.
step "tape optimizer smoke (op-count, agreement, and throughput gates)" \
  cargo run --release -p awesym-bench --bin tape_bench -- --smoke \
  --out target/bench_smoke/BENCH_tape.json

step "bench regression gate (fresh runs vs results/ baselines)" \
  scripts/bench_gate.sh

CI_T1=$(date +%s)
echo "==> CI green"
echo "CI_OK steps=${STEPS_RUN} total=$((CI_T1 - CI_T0))s"

#!/usr/bin/env sh
# Measures the policy-agnostic warm prefix on the 8-policy sweep shape —
# cold populating pass with one shared warmup vs one warmup per policy,
# plus the fully warm prefix+overlay pass — and appends the run to
# BENCH_warm_prefix.json at the repo root. Run it from anywhere; pass
# extra harness flags through (e.g. --scale 4 --jobs 8).
#
#   scripts/bench_warm_prefix.sh [harness flags...]
#
# The JSON is an array of run objects; every PR that touches the warmup
# or container-split path should append a fresh entry so
# regressions are visible in review.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

cargo run --release --bin bench_warm_prefix -- --out "$repo_root" "$@"
echo "trajectory: $repo_root/BENCH_warm_prefix.json"

#!/usr/bin/env sh
# Measures the sweep's cell loop: proxy gcc digested into event turns
# once, then pushed through lockstep groups of 1, 2, 5 and 9 policy
# cells (ns per cell-instruction, and exec.cell_records /
# exec.turn_records) — and appends the run to BENCH_memsys.json at the
# repo root. Run it from anywhere; pass extra harness flags through
# (e.g. --scale 4).
#
#   scripts/bench_memsys.sh [harness flags...]
#
# The JSON is an array of run objects of one shape; every PR that
# touches the cache stores, the backend or the event loop should append
# a fresh entry so regressions are visible in review. Every other
# per-layer figure is benchmark/run.sh's.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

cargo run --release --bin bench_memsys -- --out "$repo_root" "$@"
echo "trajectory: $repo_root/BENCH_memsys.json"

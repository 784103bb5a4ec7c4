#!/usr/bin/env sh
# Measures the memory system under the core: warm measure-path ns/instr
# (SoA tag stores + L1-hit fast path + memoized walker), the L1
# fast-path hit rate, the walker-memo counter traffic, the sweep's cell
# loop on gcc in lockstep groups of 1, 2, 5 and 9 (ns per
# cell-instruction, and exec.cell_records / exec.turn_records) and
# cold-capture throughput — and appends the run to BENCH_memsys.json at
# the repo root. Run it from anywhere; pass extra harness flags through
# (e.g. --scale 4).
#
#   scripts/bench_memsys.sh [harness flags...]
#   scripts/bench_memsys.sh --ablate   also append a `fresh-walker`
#                                      (template cache off) entry
#
# The JSON is an array of run objects, each labeled with its `variant`;
# every PR that touches the cache stores, the backend, the event loop
# or the walker should append a fresh entry so regressions are visible
# in review.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

cargo run --release --bin bench_memsys -- --out "$repo_root" "$@"
echo "trajectory: $repo_root/BENCH_memsys.json"

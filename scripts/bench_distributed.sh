#!/usr/bin/env sh
# Measures crash-tolerant multi-process sweeps — N worker processes
# cooperating over one shared trace/checkpoint store through the claim
# protocol, a workload's row to a claim — against the in-process
# replay_sweep, and appends the run to BENCH_distributed.json at the repo
# root. Every point is asserted bit-identical to the baseline before any
# number is reported; the disabled fault-point probe cost rides along.
#
#   scripts/bench_distributed.sh [harness flags...]
#
# Pass --smoke to run the CI crash drill instead (one worker SIGKILLed
# holding a claim, healers reclaim and finish, completion must be
# bit-identical with the worker_lost/claim_reclaimed event pair in the
# journals).
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

cargo run --release --bin bench_distributed -- --out "$repo_root" "$@"
echo "trajectory: $repo_root/BENCH_distributed.json"

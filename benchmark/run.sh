#!/usr/bin/env bash
# The one command: builds the repository and the benchmark package
# (offline, the package into its own directory under the target dir),
# then runs the benchmark with the arguments given. No arguments runs
# every workload and prints every metric; see benchmark/README.md.
set -euo pipefail

if [ ! -f Cargo.toml ] || [ ! -d crates ] || [ ! -f benchmark/Cargo.toml ]; then
    echo "benchmark/run.sh: run from the root of the repository" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet >&2
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target/benchmark" >&2
exec "$target/benchmark/release/benchmark" "$@"

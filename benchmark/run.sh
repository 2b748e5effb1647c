#!/usr/bin/env bash
# Build the harness (offline, release) and run one workload.
#
#   benchmark/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh <name> [--seed N] [--traced] [--smoke]
#   benchmark/run.sh compare <A.json> <B.json>
#
# Run it from anywhere; results and traces go to benchmark/out/. Cargo
# puts the build under $CARGO_TARGET_DIR when that is set, else under
# benchmark/target/.
set -euo pipefail
bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --quiet --release --offline --manifest-path "$bench_dir/Cargo.toml" -- "$@"

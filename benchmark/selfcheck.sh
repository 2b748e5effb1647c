#!/usr/bin/env bash
# Build offline, then run every workload untraced and traced at the smoke
# size (96^2 / 16^3, 2 reps; under a minute in all) and check that the
# harness and BENCHMARK.json declare the same metrics, every rep passes
# the oracle, the traces validate, and each layer table sums to its e2e_s.
set -euo pipefail
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" selfcheck

#!/usr/bin/env bash
# Build the benchmark, run every workload, and (given a baseline result
# file) compare against it. Exits non-zero on a regression.
#
#   benchmark/ci.sh                       run, write benchmark/out/result.json
#   benchmark/ci.sh BASELINE.json         run, then compare BASELINE.json to it
#   benchmark/ci.sh BASELINE.json --seed 2026
set -euo pipefail
cd "$(dirname "$0")"
baseline="${1:-}"
[ $# -gt 0 ] && shift
cargo build --release --offline
bench="${CARGO_TARGET_DIR:-target}/release/bench"
"$bench" run --out out/result.json "$@"
if [ -n "$baseline" ]; then
    "$bench" compare "$baseline" out/result.json
fi

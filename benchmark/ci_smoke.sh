#!/usr/bin/env bash
# Smoke scale of every workload, untraced then traced: all checks, no timing
# bounds, a few seconds once built. scripts/ci.sh does not call this yet
# (that file is outside the benchmark's paths).
set -euo pipefail
cd "$(dirname "$0")/.."
run() { cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- "$@"; }
run run --all --smoke --seed "${SEED:-1}" > /dev/null
run run --all --smoke --seed "${SEED:-1}" --traced > /dev/null
echo "benchmark smoke: all checks passed"

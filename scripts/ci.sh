#!/usr/bin/env bash
# CI gate: formatting, lint, docs, tests, release build, the quickstart
# example, and the benchmark package's unit tests and smoke run (every
# workload, all checks).
#
#   ./scripts/ci.sh          # full gate
#   ./scripts/ci.sh --fast   # skip the release builds (debug tests + lint only)
#
# Every step must pass; the script stops at the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

# Formatting gate covers the uei packages only: the vendor stand-ins keep
# their upstream style and are not ours to reformat.
uei_pkgs=(-p uei -p uei-types -p uei-obs -p uei-storage -p uei-learn -p uei-index -p uei-dbms -p uei-explore -p uei-bench)
echo "==> cargo fmt --check (uei packages)"
cargo fmt "${uei_pkgs[@]}" --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo test -q --workspace"
cargo test -q --workspace

if [[ "$fast" -eq 0 ]]; then
    echo "==> cargo build --release"
    cargo build --release

    # The examples are the only non-test callers of the single-analyst
    # constructors (UeiBackend::new / UeiIndex::build); run one end to end.
    echo "==> cargo run --release --quiet --example quickstart"
    cargo run --release --quiet --example quickstart
fi

# The repo's one benchmark (benchmark/, a package of its own): its unit
# tests, then every workload at smoke scale, untraced and traced. The smoke
# run builds in release mode and exits nonzero when any of the benchmark's
# checks fails (brute-force region equality, traced-vs-UeiBackend
# fingerprints, sigma met, ...), so it doubles as an end-to-end correctness
# check of the engine.
echo "==> cargo test -q --manifest-path benchmark/Cargo.toml"
cargo test -q --manifest-path benchmark/Cargo.toml

if [[ "$fast" -eq 0 ]]; then
    echo "==> benchmark/ci_smoke.sh"
    ./benchmark/ci_smoke.sh
fi

# The A/B evidence script takes half an hour a seed, so CI only parses it;
# likewise the line-count script.
echo "==> bash -n scripts/ab_compare.sh scripts/loc.sh"
bash -n scripts/ab_compare.sh
bash -n scripts/loc.sh

echo "CI gate passed."

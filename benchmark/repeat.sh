#!/usr/bin/env bash
# Two sets of RUNS untraced runs of the same code and seed, then `compare`:
# the benchmark held against itself. Exits non-zero when a row regressed.
#   benchmark/repeat.sh [workload ...]      (default: every workload)
#   RUNS=5 SEED=1 OUT=.bench_repeat benchmark/repeat.sh paper_cold
set -euo pipefail
cd "$(dirname "$0")/.."
runs="${RUNS:-5}" seed="${SEED:-1}" out="${OUT:-.bench_repeat}"
cargo build --release --quiet --manifest-path benchmark/Cargo.toml
run() { cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- "$@"; }
if [ "$#" -gt 0 ]; then
  workloads=("$@")
else
  mapfile -t workloads < <(run list | awk '/^workloads:/{on=1;next} /^[a-z]/{on=0} on{print $1}')
fi
mkdir -p "$out"
rm -f "$out/a.json" "$out/b.json"
# One process per run, as the driver starts them (peak_rss_mb is a
# watermark of the process), and the sets interleaved so that drift of the
# machine lands on both.
for i in $(seq "$runs"); do
  for set in a b; do
    for w in "${workloads[@]}"; do
      run run --workload "$w" --seed "$seed" --out "$out/$set.json" > /dev/null
    done
    echo "set $set: run $i of $runs done" >&2
  done
done
run compare "$out/a.json" "$out/b.json"

#!/usr/bin/env bash
# Parent-vs-change evidence for a performance claim, from outside benchmark/:
# each side is built once into its own target directory, then RUNS pairs of
# one-process-per-workload runs alternate which side goes first, and the two
# run sets go through the benchmark's own `compare`.
#
#   scripts/ab_compare.sh <parent-ref> [workload ...]   (default: every workload)
#   RUNS=10 SEED=1 OUT=target/ab METRIC=response_wall_ms_p50,iterations_per_s scripts/ab_compare.sh HEAD~1 paper_cold
#
# The change is the working tree as it stands; the parent is an export of
# <parent-ref> under $OUT/parent, removed on exit. METRIC is a comma-separated
# list of end-to-end metrics; each one's direction (lower or higher is
# better) comes from BENCHMARK.json. Every run of every listed metric lands
# in $OUT/pairs.tsv and is printed, per metric and workload, with the count
# of pairs in which the change was better, before the compare table.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ "$#" -lt 1 ]; then
  echo "usage: scripts/ab_compare.sh <parent-ref> [workload ...]" >&2
  exit 2
fi
parent_ref="$1"
shift
runs="${RUNS:-10}" seed="${SEED:-1}" out="${OUT:-target/ab}"
metrics="${METRIC:-response_wall_ms_p50,iterations_per_s,session_wall_s}"

# "name better" for every end-to-end metric of BENCHMARK.json.
directions="$(awk '
  /"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
  on && $1 == "\"name\":" { gsub(/[",]/, "", $2); name = $2 }
  on && $1 == "\"better\":" { gsub(/[",]/, "", $2); print name, $2 }
' BENCHMARK.json)"
IFS=, read -r -a metric_list <<< "$metrics"
for m in "${metric_list[@]}"; do
  if ! grep -q "^$m " <<< "$directions"; then
    echo "ab_compare: $m is not an end-to-end metric of BENCHMARK.json" >&2
    exit 2
  fi
done

mkdir -p "$out"
out="$(cd "$out" && pwd)"
parent_src="$out/parent"
rm -rf "$parent_src"
mkdir -p "$parent_src"
trap 'rm -rf "$parent_src"' EXIT
git archive "$parent_ref" | tar -x -C "$parent_src"

CARGO_TARGET_DIR="$out/target-parent" \
  cargo build --release --quiet --manifest-path "$parent_src/benchmark/Cargo.toml"
CARGO_TARGET_DIR="$out/target-change" \
  cargo build --release --quiet --manifest-path benchmark/Cargo.toml
bin_a="$out/target-parent/release/uei-benchmark"
bin_b="$out/target-change/release/uei-benchmark"

if [ "$#" -gt 0 ]; then
  workloads=("$@")
else
  mapfile -t workloads < <("$bin_b" list | awk '/^workloads:/{on=1;next} /^[a-z]/{on=0} on{print $1}')
fi

rm -f "$out/a.json" "$out/b.json" "$out/pairs.tsv"
one_run() { # side workload pair
  local bin="bin_$1"
  "${!bin}" run --workload "$2" --seed "$seed" --out "$out/$1.json" |
    awk -v ms="$metrics" -v s="$1" -v w="$2" -v p="$3" '
      BEGIN { n = split(ms, list, ","); for (i = 1; i <= n; i++) want[list[i]] }
      $1 in want { print p "\t" w "\t" $1 "\t" s "\t" $2 }' >> "$out/pairs.tsv"
}
for i in $(seq "$runs"); do
  if [ $((i % 2)) -eq 1 ]; then order=(a b); else order=(b a); fi
  for w in "${workloads[@]}"; do
    for side in "${order[@]}"; do
      one_run "$side" "$w" "$i"
    done
  done
  echo "pair $i of $runs done (${order[*]})" >&2
done

for m in "${metric_list[@]}"; do
  better="$(awk -v m="$m" '$1 == m { print $2 }' <<< "$directions")"
  echo "== every run of $m ($better is better; a = $parent_ref, b = working tree), seed $seed =="
  awk -F'\t' -v m="$m" -v better="$better" '
    $3 != m { next }
    { v[$2, $1, $4] = $5; if (!($2 in seen)) { seen[$2]; names[++n] = $2 } if ($1 > pairs) pairs = $1 }
    END {
      for (k = 1; k <= n; k++) {
        w = names[k]; wins = 0
        printf "%-16s", w
        for (p = 1; p <= pairs; p++) {
          a = v[w, p, "a"]; b = v[w, p, "b"]
          printf "  %s/%s", a, b
          if (better == "lower" ? b + 0 < a + 0 : b + 0 > a + 0) wins++
        }
        printf "   change better in %d of %d pairs\n", wins, pairs
      }
    }' "$out/pairs.tsv"
done
"$bin_b" compare "$out/a.json" "$out/b.json"

#!/usr/bin/env bash
# Non-test source lines per crate and in total.
#
#   ./scripts/loc.sh
#
# A file's non-test lines are the lines above its first `#[cfg(test)]`; a
# file without one counts whole. Crates are the workspace members under
# `crates/` plus the root package (`src/`).
set -euo pipefail
cd "$(dirname "$0")/.."

count_dir() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        !in_test { n++ }
        END { print n + 0 }'
}

total=0
for dir in crates/*/src src; do
    name=${dir%/src}
    [[ "$dir" == src ]] && name=uei
    n=$(count_dir "$dir")
    printf '%-22s %6d\n' "${name#crates/}" "$n"
    total=$((total + n))
done
printf '%-22s %6d\n' total "$total"

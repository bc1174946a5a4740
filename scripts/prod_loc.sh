#!/usr/bin/env bash
# Prints the workspace's production line count: every `*.rs` file
# under a `crates/*/src/` directory, counted up to its first
# `#[cfg(test)]` line. Vendored crates (`crates/vendor/`) and the
# dev-only `oracle` crate are not production and are left out.
# A second line gives the whole-workspace total for comparison: every
# line of every `*.rs` file in the workspace's crates, root `src/`,
# `tests/` and `examples/`, tests and oracle included (vendored crates
# and the standalone `perfbench/` package excluded).
#
#   scripts/prod_loc.sh        # the two totals
#   scripts/prod_loc.sh -v     # per-file production counts first
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src -name '*.rs' -not -path 'crates/vendor/*' -not -path 'crates/oracle/*' \
    | LC_ALL=C sort \
    | while read -r f; do
        n=$(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
        echo "$n $f"
    done \
    | awk -v verbose="${1:-}" '
        verbose == "-v" { printf "%7d %s\n", $1, $2 }
        { total += $1 }
        END { printf "production lines: %d\n", total }'

find crates src tests examples -name '*.rs' -not -path 'crates/vendor/*' -print0 \
    | xargs -0 cat \
    | wc -l \
    | awk '{ printf "workspace lines:  %d\n", $1 }'

#!/usr/bin/env bash
# Prints `<artifact id> <sha256 of lru-leak run <id> --json>` for every
# registered artifact at its default trial count, one line each, in
# registry order. The checked-in `tests/artifact_digests.txt` holds the
# expected lines; CI diffs the two, so any change to an artifact's
# bytes has to update that file on purpose.
#
#   scripts/artifact_digests.sh                      # builds target/release/lru-leak
#   scripts/artifact_digests.sh path/to/lru-leak     # digests another binary
#   scripts/artifact_digests.sh path/to/lru-leak --threads 1
#
# Arguments after the binary are passed to every `run` call. The
# output does not depend on the worker count.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ge 1 ]; then
    bin=$1
    shift
else
    cargo build --release --quiet -p lru-leak-cli
    bin=target/release/lru-leak
fi

out=$(mktemp)
trap 'rm -f "$out"' EXIT
# `list` prints a header row, one row per artifact, a blank line and a
# footer.
"$bin" list | awk 'NR == 1 { next } NF == 0 { exit } { print $1 }' | while read -r id; do
    "$bin" run "$id" --json "$@" > "$out"
    printf '%s %s\n' "$id" "$(sha256sum < "$out" | cut -d' ' -f1)"
done

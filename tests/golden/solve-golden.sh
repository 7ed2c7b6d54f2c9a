#!/usr/bin/env bash
# Prints the deterministic part of a `solve --all` batch run: every
# per-problem line (id, status, size, paths, `tested`, program) and one
# `totals:` line with the suite's tested/expanded/popped/vector_hits/
# guard_dedup counters. Timings are dropped, so two runs of the same code
# print byte-identical text on any machine.
#
#   tests/golden/solve-golden.sh ./target/release/solve --parallel 1 \
#       | diff tests/golden/solve-all-paper.txt -
#
# The first argument is the `solve` binary; the rest are passed after
# `--all`. A problem that times out prints `failed  synthesis timed out`
# and contributes nothing to the totals, so timeouts are deterministic
# too (solve then exits 4, which this script ignores).
set -uo pipefail
bin=$1
shift
json=$(mktemp)
trap 'rm -f "$json"' EXIT
"$bin" --all "$@" --json "$json" 2>/dev/null | grep -v '^batch:'
printf 'totals:'
sed '/"results"/q' "$json" \
  | grep -oE '"(tested|expanded|popped|vector_hits|guard_dedup)": [0-9]+' \
  | tr -d '"' | while read -r kv; do printf ' %s' "$kv"; done
echo

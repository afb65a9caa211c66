#!/usr/bin/env bash
# Compare the experiment tables two build trees print: run every
# bench/bench_* in both with --benchmark_filter='^$' (tables only, no
# microbenchmarks), diff the two stdouts per binary, print `same` or `DIFF`
# for each, and exit non-zero on any DIFF or missing binary.
#
# Every experiment is seeded, so a refactor that means to keep behaviour
# must leave every table byte-identical.
#
# Usage: scripts/diff_tables.sh OLD_BUILD NEW_BUILD
#   e.g. scripts/diff_tables.sh ../parent/build build
set -uo pipefail
if [[ $# -ne 2 ]]; then
  echo "usage: $0 OLD_BUILD NEW_BUILD" >&2
  exit 2
fi
OLD="$1"
NEW="$2"
status=0
for new_bin in "$NEW"/bench/bench_*; do
  [[ -f "$new_bin" && -x "$new_bin" ]] || continue
  name="$(basename "$new_bin")"
  # bench_core_resolution's U1b table reports host throughput (queries per
  # wall-clock second), which differs from run to run; it cannot be diffed.
  if [[ "$name" == bench_core_resolution ]]; then
    echo "skip  $name (U1b holds host throughput)"
    continue
  fi
  old_bin="$OLD/bench/$name"
  if [[ ! -x "$old_bin" ]]; then
    echo "MISSING  $name (not in $OLD)"
    status=1
    continue
  fi
  if out="$(diff <("$old_bin" --benchmark_filter='^$' 2>/dev/null) \
                 <("$new_bin" --benchmark_filter='^$' 2>/dev/null))"; then
    echo "same  $name"
  else
    echo "DIFF  $name"
    printf '%s\n' "$out" | head -20 | sed 's/^/      /'
    status=1
  fi
done
exit "$status"

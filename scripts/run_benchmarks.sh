#!/usr/bin/env bash
# Run the benchmark binaries in machine-readable mode and drop one
# BENCH_<name>.json artifact per binary at the repo root (google-benchmark
# JSON: context + per-benchmark real/cpu times and counters).
#
# Usage: scripts/run_benchmarks.sh [build-dir] [out-dir]
# Defaults: build-dir=build, out-dir=repo root. Binaries are built first if
# the build directory is already configured.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
out_dir="${2:-$repo_root}"

if [[ ! -d "$build_dir" ]]; then
  echo "error: build dir '$build_dir' not found; run cmake -B build -S . first" >&2
  exit 1
fi
cmake --build "$build_dir" -j >/dev/null

for bench in bench_core_resolution bench_net_messaging bench_ns_cache bench_x4_failover bench_x5_pipeline bench_x6_coherence bench_x7_shard bench_x8_rebalance bench_x9_churn; do
  bin="$build_dir/bench/$bench"
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin missing (benchmark target not built?)" >&2
    exit 1
  fi
  out="$out_dir/BENCH_${bench#bench_}.json"
  echo "running $bench -> $out" >&2
  if [[ "$bench" == bench_core_resolution ]]; then
    # The execution-policy seam benchmarks need a worker count; default to
    # the machine width, overridable for CI runners of known size.
    "$bin" --threads "${NAMECOH_BENCH_THREADS:-$(nproc)}" --json > "$out"
  else
    "$bin" --json > "$out"
  fi
done

# Metrics-registry artifact: the unified counters/gauges/histograms from a
# traced lossy run, exported as one JSON object (see docs/OBSERVABILITY.md).
metrics_out="$out_dir/BENCH_ns_cache_metrics.json"
echo "running bench_ns_cache --metrics-out -> $metrics_out" >&2
"$build_dir/bench/bench_ns_cache" --metrics-out="$metrics_out" >/dev/null

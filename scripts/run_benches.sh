#!/usr/bin/env bash
# Runs the headline benchmarks and captures their machine-readable
# results. Each bench prints one `BENCH_JSON {...}` line next to its
# human-readable tables; this script strips the prefix into
#
#   BENCH_codecache.json   bench_loader_cache  (in-session code cache)
#   BENCH_wisconsin.json   bench_wisconsin     (Table 2 as engine goals over
#                                               external fact relations,
#                                               plus WAM unbound scans)
#   BENCH_parallel.json    bench_parallel      (worker sessions, shared EDB)
#   BENCH_governor.json    bench_governor      (adaptive memory governor)
#   BENCH_server.json      bench_server        (query server, 1000 clients)
#   BENCH_preunify.json    bench_preunify      (EDB pre-unification ablation)
#   BENCH_closure.json     bench_closure       (1M-edge transitive closure,
#                                               bottom-up Datalog vs WAM)
#   BENCH_lockoverhead.json bench_lock_overhead (lock-site profiler: dormancy,
#                                               <2% overhead bar, ranking)
#   BENCH_mixedrw.json     bench_mixed_rw      (concurrent writers+readers
#                                               with WAL, online checkpoint,
#                                               and crash-replay recovery)
#
# The benches abort loudly if an acceptance bar is missed (e.g. the
# pattern tier not decoding >=5x fewer clauses than per-call loads, or a
# 4-worker run on a >=4-core host falling short of 3x aggregate
# throughput), so a green run of this script doubles as a perf regression
# check.
#
# Usage: scripts/run_benches.sh [output-dir]
# Builds into $BUILD_DIR (default: build) if the binaries are missing.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
OUT_DIR="${1:-.}"

if [[ ! -x "$BUILD_DIR/bench/bench_governor" ]]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j"$(nproc)" \
    --target bench_loader_cache bench_wisconsin \
    bench_parallel bench_governor bench_server bench_preunify bench_closure \
    bench_lock_overhead bench_mixed_rw
fi

mkdir -p "$OUT_DIR"

run_bench() {
  local bench="$1" out="$2" log
  log="$(mktemp)"
  echo "=== $bench ==="
  "$BUILD_DIR/bench/$bench" | tee "$log"
  grep '^BENCH_JSON ' "$log" | sed 's/^BENCH_JSON //' > "$OUT_DIR/$out"
  rm -f "$log"
  echo "--- wrote $OUT_DIR/$out"
}

run_bench bench_loader_cache BENCH_codecache.json
# bench_loader_cache also writes the full metrics document (a profiled
# Wisconsin-style Engine run through ExportMetricsJson) to ./metrics.json;
# park it with the other results so CI uploads it.
if [[ -f metrics.json ]]; then
  mv metrics.json "$OUT_DIR/metrics.json"
  echo "--- wrote $OUT_DIR/metrics.json"
fi
run_bench bench_wisconsin BENCH_wisconsin.json
run_bench bench_parallel BENCH_parallel.json
run_bench bench_governor BENCH_governor.json
run_bench bench_server BENCH_server.json
run_bench bench_preunify BENCH_preunify.json
run_bench bench_closure BENCH_closure.json
run_bench bench_lock_overhead BENCH_lockoverhead.json
run_bench bench_mixed_rw BENCH_mixedrw.json
# bench_lock_overhead also writes the observability artifacts — a Chrome
# trace of its profiled workload and a Prometheus exposition snapshot —
# to ./; park them with the other results so CI uploads them.
for artifact in chrome_trace.json metrics.prom; do
  if [[ -f "$artifact" ]]; then
    mv "$artifact" "$OUT_DIR/$artifact"
    echo "--- wrote $OUT_DIR/$artifact"
  fi
done

echo "All benches passed their acceptance checks."

#!/bin/sh
# Runs every bench_e* binary with --json and composes the per-bench reports
# into one machine-readable file.  Each bench also runs with the telemetry
# hub enabled (--metrics); the flat metrics snapshots are written next to
# the report (out.json -> out.metrics.json), together with a merged
# farm-telemetry run report (per-shard snapshots from the farm smoke
# experiment consolidated by the parent) under "farm".
#
#   bench/run_all.sh output.json         report and out.metrics.json there
#   PR_NUMBER=<n> bench/run_all.sh       archive: BENCH_PR<n>.json and
#                                        METRICS_PR<n>.json in the repo root
#
# With neither an output path nor PR_NUMBER it prints this usage and exits 2,
# so no run overwrites a checked-in archive by default.  A relative output
# or METRICS_OUT path is taken from the directory the script is called from.
#
# Environment:
#   BUILD_DIR          build tree containing bench/ binaries (default: build)
#   PR_NUMBER          stamped into both reports ("pr"; null when unset)
#   METRICS_OUT        metrics file path (overrides the default above)
#   CASTANET_E1_REPS   E1 repetitions per configuration (default here: 9 —
#                      E1 compares configurations A/B/C/R, and single runs on
#                      a shared machine are too noisy for their ratios)
set -eu

if [ $# -eq 0 ] && [ -z "${PR_NUMBER:-}" ]; then
  echo "usage: bench/run_all.sh OUTPUT.json  (or PR_NUMBER=<n> bench/run_all.sh)" >&2
  exit 2
fi
caller=$(pwd)
absolute() {
  case $1 in
    /*) printf '%s' "$1" ;;
    *) printf '%s/%s' "$caller" "$1" ;;
  esac
}
if [ -n "${METRICS_OUT:-}" ]; then METRICS_OUT=$(absolute "$METRICS_OUT"); fi
if [ $# -gt 0 ]; then
  OUT=$(absolute "$1")
  : "${METRICS_OUT:=${OUT%.json}.metrics.json}"
else
  # The archive names, relative to the repo root.
  OUT=BENCH_PR${PR_NUMBER}.json
  : "${METRICS_OUT:=METRICS_PR${PR_NUMBER}.json}"
fi
PR=${PR_NUMBER:-null}

cd "$(dirname "$0")/.."
BUILD=${BUILD_DIR:-build}
: "${CASTANET_E1_REPS:=9}"
export CASTANET_E1_REPS

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Host/compiler/commit metadata, embedded in both reports so cross-PR deltas
# are attributable (EXPERIMENTS.md E1 notes "machine drift" between PRs —
# without this a regression on a different box looks like a code change).
json_escape() {
  printf '%s' "$1" | sed 's/\\/\\\\/g; s/"/\\"/g'
}
META_HOST=$(hostname 2>/dev/null || echo unknown)
META_OS=$(uname -srm 2>/dev/null || echo unknown)
META_CPU=$(awk -F': ' '/^model name/ {print $2; exit}' /proc/cpuinfo \
  2>/dev/null || echo unknown)
[ -n "$META_CPU" ] || META_CPU=unknown
META_NCPU=$(nproc 2>/dev/null || echo 0)
META_CXX=$(c++ --version 2>/dev/null | head -n 1 || echo unknown)
META_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
META_DIRTY=false
if ! git diff --quiet HEAD 2>/dev/null; then META_DIRTY=true; fi
META_DATE=$(date -u +%Y-%m-%dT%H:%M:%SZ)
META=$(printf '"meta": {"host": "%s", "os": "%s", "cpu": "%s", "cpus": %s, "compiler": "%s", "commit": "%s", "dirty": %s, "generated_at": "%s"}' \
  "$(json_escape "$META_HOST")" "$(json_escape "$META_OS")" \
  "$(json_escape "$META_CPU")" "$META_NCPU" "$(json_escape "$META_CXX")" \
  "$(json_escape "$META_COMMIT")" "$META_DIRTY" "$META_DATE")

# Shield the benches from external scheduler noise when allowed to: a
# background task preempting one rep skews the E1 configuration ratios and
# every wall-clock rate.
NICE=""
if nice -n -10 true 2>/dev/null; then
  NICE="nice -n -10"
fi

BENCHES="e1_cosim_speed e2_coverify_flow e3_sync_protocol e4_abstraction_map \
         e5_board_cycles e6_event_ratio e7_testbench_reuse e8_buffer_ablation"

for b in $BENCHES; do
  bin="$BUILD/bench/bench_$b"
  if [ ! -x "$bin" ]; then
    echo "run_all: missing $bin (build the bench targets first)" >&2
    exit 1
  fi
  echo "== bench_$b"
  $NICE "$bin" --json "$tmp/$b.json"
done

# Farm speedup: 8 board-in-the-loop sessions whose real-time hardware waits
# the session farm overlaps — serial baseline vs 4 worker processes.  The
# per-session digests are byte-identical between the two runs (the farm_smoke
# ctest asserts this); here only the wall-clock ratio is measured.
FARM_JSON=""
FARM_BIN="$BUILD/tools/castanet_farm"
if [ -x "$FARM_BIN" ]; then
  echo "== castanet_farm board_speedup (serial, then -j4)"
  $NICE "$FARM_BIN" --experiment experiments/board_speedup.json --serial \
    --out "$tmp/farm_serial.json" 2>/dev/null
  $NICE "$FARM_BIN" --experiment experiments/board_speedup.json -j4 \
    --out "$tmp/farm_j4.json" 2>/dev/null
  farm_serial_s=$(grep -m1 '"wall_seconds"' "$tmp/farm_serial.json" \
    | sed 's/[^0-9.]//g')
  farm_j4_s=$(grep -m1 '"wall_seconds"' "$tmp/farm_j4.json" \
    | sed 's/[^0-9.]//g')
  farm_speedup=$(awk "BEGIN {printf \"%.3f\", $farm_serial_s / $farm_j4_s}")
  farm_sessions=$(grep -c '"id"' "$tmp/farm_serial.json")
  printf '{\n"bench": "farm_speedup",\n"rows": [\n{"config": "serial", "metrics": {"sessions": %s, "wall_seconds": %s}},\n{"config": "farm -j4", "metrics": {"sessions": %s, "wall_seconds": %s, "speedup_vs_serial": %s}}\n]\n}\n' \
    "$farm_sessions" "$farm_serial_s" "$farm_sessions" "$farm_j4_s" \
    "$farm_speedup" > "$tmp/farm.json"
  FARM_JSON="$tmp/farm.json"
else
  echo "run_all: missing $FARM_BIN (farm bench skipped)" >&2
fi

# Separate telemetry pass: --metrics enables the hub, which perturbs the
# timing fast path, so the snapshots must not come from the runs that
# produced the numbers above.  One repetition suffices for counters.  Not
# every bench is telemetry-instrumented (bench::TelemetryCli); the ones
# that are not simply write no snapshot and are skipped.
metrics_benches=""
for b in $BENCHES; do
  echo "== bench_$b --metrics"
  CASTANET_E1_REPS=1 "$BUILD/bench/bench_$b" --metrics "$tmp/$b.metrics.json" \
    > /dev/null
  if [ -s "$tmp/$b.metrics.json" ]; then
    metrics_benches="$metrics_benches $b"
  else
    echo "   (no telemetry hub in bench_$b; skipped)"
  fi
done

{
  printf '{\n"pr": %s,\n"generated_by": "bench/run_all.sh",\n%s,\n"benches": [\n' "$PR" "$META"
  first=1
  for b in $BENCHES; do
    [ $first -eq 1 ] || printf ',\n'
    first=0
    cat "$tmp/$b.json"
  done
  if [ -n "$FARM_JSON" ]; then
    printf ',\n'
    cat "$FARM_JSON"
  fi
  printf ']\n}\n'
} > "$OUT"

# Merged farm telemetry: the smoke experiment with per-worker metrics
# shipping enabled; the parent merges the per-shard snapshots into one run
# report (counters summed, histograms bucket-merged) which is archived
# verbatim under "farm" in the metrics file.
FARM_REPORT=""
if [ -x "$FARM_BIN" ]; then
  echo "== castanet_farm farm_smoke --report (merged shard telemetry)"
  $NICE "$FARM_BIN" --experiment experiments/farm_smoke.json -j2 \
    --metrics "$tmp/farm_smoke.metrics.json" \
    --report "$tmp/farm_report.json" > /dev/null 2>&1
  [ -s "$tmp/farm_report.json" ] && FARM_REPORT="$tmp/farm_report.json"
fi

{
  printf '{\n"pr": %s,\n"generated_by": "bench/run_all.sh",\n%s,\n"metrics": {\n' "$PR" "$META"
  first=1
  for b in $metrics_benches; do
    [ $first -eq 1 ] || printf ',\n'
    first=0
    printf '"%s": ' "$b"
    cat "$tmp/$b.metrics.json"
  done
  printf '}\n'
  if [ -n "$FARM_REPORT" ]; then
    printf ',\n"farm": '
    cat "$FARM_REPORT"
  fi
  printf '}\n'
} > "$METRICS_OUT"

echo "wrote $OUT and $METRICS_OUT"

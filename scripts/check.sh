#!/bin/sh
# Tier-1 gate, runnable locally and from CI: configure, build, run the full
# test suite, and (optionally) repeat parts of it under sanitizers, run the
# static lint CLI on the shipped designs, or run clang-tidy.
#
#   scripts/check.sh           # build + ctest
#   scripts/check.sh --asan    # + ASan build, full ctest suite
#   scripts/check.sh --ubsan   # + UBSan build, full ctest suite
#   scripts/check.sh --lint    # + castanet_lint --dataflow --strict on both
#                              #   example designs, gated against the
#                              #   baseline tests/lint/examples_baseline.json
#   scripts/check.sh --tidy    # + clang-tidy over src/ (needs clang-tidy)
#   scripts/check.sh --bench-smoke  # + bench_e1 small-workload regression gate
#   scripts/check.sh --farm    # + session-farm smoke (2 workers x 4 sessions,
#                              #   farmed results + merged metrics checked
#                              #   against serial, run report validated)
#
# The default run also validates the metrics JSON schema (switch_coverify
# --metrics writes a snapshot, castanet_report --validate round-trips it)
# and parses the --trace files of switch_coverify and bench_e1 with
# castanet_report.
#
# Flags combine; --asan and --ubsan together use one address,undefined tree.
#
# Environment:
#   BUILD_DIR       plain build tree      (default: build)
#   SAN_BUILD_DIR   ASan/UBSan build tree (default: build-san)
#   JOBS            parallel build jobs   (default: nproc)
#   CLANG_TIDY      clang-tidy executable (default: clang-tidy)
set -eu

cd "$(dirname "$0")/.."
BUILD=${BUILD_DIR:-build}
SAN_BUILD=${SAN_BUILD_DIR:-build-san}
JOBS=${JOBS:-$(nproc 2>/dev/null || echo 4)}
CLANG_TIDY=${CLANG_TIDY:-clang-tidy}

run_asan=0
run_ubsan=0
run_lint=0
run_tidy=0
run_bench_smoke=0
run_farm=0
for arg in "$@"; do
  case "$arg" in
    --asan)  run_asan=1 ;;
    --ubsan) run_ubsan=1 ;;
    --lint)  run_lint=1 ;;
    --tidy)  run_tidy=1 ;;
    --bench-smoke) run_bench_smoke=1 ;;
    --farm)  run_farm=1 ;;
    *) echo "check.sh: unknown argument '$arg'" >&2; exit 2 ;;
  esac
done

echo "== configure + build ($BUILD)"
cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" -j "$JOBS"

echo "== ctest ($BUILD)"
ctest --test-dir "$BUILD" --output-on-failure

echo "== metrics schema (switch_coverify --metrics, castanet_report --validate)"
# The validator round-trips the snapshot through from_json/to_json and
# requires identity (names, kinds, counts and values exact, histogram
# buckets exact), so any drift between the writer and the parser fails
# here, not in a downstream consumer.
METRICS_SMOKE="$BUILD/coverify_metrics.json"
"$BUILD/examples/switch_coverify" 8 --metrics "$METRICS_SMOKE" >/dev/null
"$BUILD/tools/castanet_report" --validate "$METRICS_SMOKE"
echo "metrics schema OK: $METRICS_SMOKE"

echo "== telemetry smoke (switch_coverify --trace)"
# castanet_report is always built and parses the trace with core/json
# (exit 1 on a parse error), so this gate never depends on python3.
TRACE_OUT="$BUILD/coverify_trace.json"
"$BUILD/examples/switch_coverify" 8 --trace "$TRACE_OUT" >/dev/null
test -s "$TRACE_OUT" || { echo "check.sh: trace file missing/empty" >&2; exit 1; }
"$BUILD/tools/castanet_report" "$METRICS_SMOKE" --trace "$TRACE_OUT" >/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$TRACE_OUT"
fi
echo "trace OK: $TRACE_OUT"

echo "== bench telemetry smoke (bench_e1 --trace --metrics)"
# bench_e1 and bench_e3 stream their traces through bench::TelemetryCli
# (the other benches have no telemetry hub); the file must parse and hold
# at least one event besides the track metadata.
# castanet_report prints its span table on stderr only when the trace has
# complete events.
BENCH_TRACE="$BUILD/e1_trace.json"
BENCH_METRICS="$BUILD/e1_metrics.json"
CASTANET_E1_CELLS=200 "$BUILD/bench/bench_e1_cosim_speed" \
  --trace "$BENCH_TRACE" --metrics "$BENCH_METRICS" >/dev/null
"$BUILD/tools/castanet_report" "$BENCH_METRICS" --trace "$BENCH_TRACE" \
  >/dev/null 2>"$BUILD/e1_report.txt"
grep -q "^top spans by total duration" "$BUILD/e1_report.txt" || {
  echo "check.sh: bench trace holds no events" >&2; exit 1; }
# A trace alone, with no metrics file, is summarized too.
"$BUILD/tools/castanet_report" --trace "$BENCH_TRACE" \
  >/dev/null 2>"$BUILD/e1_trace_report.txt"
grep -q "^grant " "$BUILD/e1_trace_report.txt" || {
  echo "check.sh: trace-only report names no grant span" >&2; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 -c "import json,sys
events = json.load(open(sys.argv[1]))['traceEvents']
assert any(e['ph'] != 'M' for e in events), 'no events besides metadata'" \
    "$BENCH_TRACE"
fi
echo "bench trace OK: $BENCH_TRACE"

echo "== lint schema (castanet_lint --json, --validate round-trip)"
# Same contract as the metrics schema gate above, for the lint report
# format: the --json document must survive from_json/to_json_value with
# structural identity (key order, summary counts).
LINT_JSON="$BUILD/lint_report.json"
"$BUILD/tools/castanet_lint" --design all --json > "$LINT_JSON"
"$BUILD/tools/castanet_lint" --validate "$LINT_JSON"

if [ "$run_lint" -eq 1 ]; then
  # Full gate: netlist + dataflow (DF-*) rules on both rigs, ratcheted
  # against the checked-in clean baseline — any finding not listed there
  # fails, so new defects cannot ride in under note severity.  The
  # dataflow wall time lands in the metrics snapshot for trend tracking.
  echo "== castanet_lint --design all --dataflow --strict (baseline-gated)"
  "$BUILD/tools/castanet_lint" --design all --dataflow --strict \
    --baseline tests/lint/examples_baseline.json \
    --metrics "$BUILD/lint_metrics.json"
  "$BUILD/tools/castanet_report" --validate "$BUILD/lint_metrics.json"
fi

if [ "$run_farm" -eq 1 ]; then
  # --check reruns the experiment serially and fails unless every farmed
  # session result is byte-identical (id, digest, responses, divergences)
  # AND the farm-merged metrics match the serial merge (counters exact,
  # histograms bucket-identical).  --report consolidates the per-shard
  # snapshots into one run report, which must pass the schema validator.
  echo "== castanet_farm smoke (farm_smoke.json, -j2, --check, --report)"
  "$BUILD/tools/castanet_farm" --experiment experiments/farm_smoke.json \
    -j2 --check --metrics "$BUILD/farm_smoke.metrics.json" \
    --report "$BUILD/farm_smoke.run_report.json" \
    > "$BUILD/farm_smoke_report.json"
  "$BUILD/tools/castanet_report" --validate "$BUILD/farm_smoke.run_report.json"
  for shard in "$BUILD"/farm_smoke.metrics.*.json; do
    [ -e "$shard" ] || { echo "check.sh: no per-shard metrics written" >&2; exit 1; }
    "$BUILD/tools/castanet_report" --validate "$shard"
  done
fi

if [ "$run_bench_smoke" -eq 1 ]; then
  echo "== bench smoke (bench_e1 vs checked-in floor)"
  BUILD_DIR="$BUILD" scripts/bench_smoke.sh
fi

if [ "$run_asan" -eq 1 ] || [ "$run_ubsan" -eq 1 ]; then
  # One combined tree when both are requested; ASan and UBSan compose.
  if [ "$run_asan" -eq 1 ] && [ "$run_ubsan" -eq 1 ]; then
    SAN=address,undefined
  elif [ "$run_asan" -eq 1 ]; then
    SAN=address
  else
    SAN=undefined
  fi
  echo "== configure + build ($SAN_BUILD, CASTANET_SANITIZE=$SAN)"
  cmake -B "$SAN_BUILD" -S . -DCASTANET_SANITIZE="$SAN" >/dev/null
  cmake --build "$SAN_BUILD" -j "$JOBS"
  echo "== ctest ($SAN_BUILD)"
  ctest --test-dir "$SAN_BUILD" --output-on-failure
fi

if [ "$run_tidy" -eq 1 ]; then
  if ! command -v "$CLANG_TIDY" >/dev/null 2>&1; then
    echo "check.sh: --tidy requires clang-tidy on PATH (set CLANG_TIDY=...)" >&2
    exit 1
  fi
  # The plain build exports compile_commands.json (CMAKE_EXPORT_COMPILE_COMMANDS).
  test -s "$BUILD/compile_commands.json" || {
    echo "check.sh: $BUILD/compile_commands.json missing" >&2; exit 1; }
  echo "== clang-tidy over src/ ($BUILD/compile_commands.json)"
  find src -name '*.cpp' -print | xargs -P "$JOBS" -n 4 \
    "$CLANG_TIDY" -p "$BUILD" --quiet --warnings-as-errors='*'
fi

echo "check.sh: all green"

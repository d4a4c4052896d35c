#!/bin/sh
# Bench smoke gate: runs bench_e1 --json on a deliberately small workload and
# fails when any configuration's clk_cycles_per_sec regresses more than the
# allowed fraction below the checked-in floor (bench/e1_smoke_floor.json),
# then runs bench_e9 --json and fails when the calendar queue's throughput at
# a 1M-event backlog falls below its floor (bench/e9_smoke_floor.json) or
# decays more than 2x from the 1k-backlog rate in the same run (the O(1)
# scaling contract).
#
# The floors are conservative (well under the measured rates on the reference
# host) so routine machine noise passes; a >25% drop — the kind an accidental
# O(n) regression in the kernel hot path produces — fails CI.
#
#   scripts/bench_smoke.sh
#
# Environment:
#   BUILD_DIR             build tree with bench binaries (default: build)
#   CASTANET_E1_CELLS     cells per port for the smoke run (default: 400)
#   CASTANET_E1_REPS      repetitions (default: 3)
#   CASTANET_E9_OPS       E9 churn ops per measurement (default: 200000)
#   SMOKE_FLOOR           E1 floor file (default: bench/e1_smoke_floor.json)
#   SMOKE_FLOOR_E9        E9 floor file (default: bench/e9_smoke_floor.json)
set -eu

cd "$(dirname "$0")/.."
BUILD=${BUILD_DIR:-build}
FLOOR=${SMOKE_FLOOR:-bench/e1_smoke_floor.json}
FLOOR_E9=${SMOKE_FLOOR_E9:-bench/e9_smoke_floor.json}
: "${CASTANET_E1_CELLS:=400}"
: "${CASTANET_E1_REPS:=3}"
export CASTANET_E1_CELLS CASTANET_E1_REPS

bin="$BUILD/bench/bench_e1_cosim_speed"
if [ ! -x "$bin" ]; then
  echo "bench_smoke: missing $bin (build the bench targets first)" >&2
  exit 1
fi
if ! command -v python3 >/dev/null 2>&1; then
  echo "bench_smoke: python3 unavailable; cannot compare against floors" >&2
  exit 1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== bench_e1 smoke (cells=$CASTANET_E1_CELLS reps=$CASTANET_E1_REPS)"
"$bin" --json "$tmp/e1.json"

python3 - "$tmp/e1.json" "$FLOOR" <<'PY'
import json, sys

result = json.load(open(sys.argv[1]))
floor = json.load(open(sys.argv[2]))
allowed = floor.get("allowed_regression", 0.25)
floors = floor["floors_clk_cycles_per_sec"]

ceilings = floor.get("ceilings_kernel_activations", {})

measured = {}
activations = {}
for row in result["rows"]:
    key = row["config"].split(":", 1)[0].strip()
    measured[key] = row["metrics"]["clk_cycles_per_sec"]
    activations[key] = row["metrics"].get("kernel_activations")

failures = []
for key, base in floors.items():
    limit = base * (1.0 - allowed)
    got = measured.get(key)
    if got is None:
        failures.append(f"config {key}: missing from bench output")
        continue
    verdict = "OK" if got >= limit else "REGRESSION"
    print(f"  {key:3s} {got:12.0f} cps  (floor {base:.0f}, "
          f"limit {limit:.0f})  {verdict}")
    if got < limit:
        failures.append(
            f"config {key}: {got:.0f} cps is below {limit:.0f} "
            f"({(1 - got / base) * 100:.1f}% under the floor)")

# Activations are deterministic per configuration: exceeding the ceiling
# means activity gating stopped suppressing wakeups (a semantic
# scheduling regression), independent of machine speed.
for key, ceiling in ceilings.items():
    got = activations.get(key)
    if got is None:
        failures.append(f"config {key}: kernel_activations missing")
        continue
    verdict = "OK" if got <= ceiling else "REGRESSION"
    print(f"  {key:3s} {got:12.0f} activations  (ceiling {ceiling})  "
          f"{verdict}")
    if got > ceiling:
        failures.append(
            f"config {key}: {got:.0f} kernel activations exceed the "
            f"ceiling {ceiling} (activity-gating regression)")

if failures:
    print("bench_smoke: FAIL", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print("bench_smoke: all configs within budget")
PY

bin9="$BUILD/bench/bench_e9_sched_scale"
if [ ! -x "$bin9" ]; then
  echo "bench_smoke: missing $bin9 (build the bench targets first)" >&2
  exit 1
fi

echo "== bench_e9 smoke (ops=${CASTANET_E9_OPS:-200000})"
"$bin9" --json "$tmp/e9.json" > /dev/null

python3 - "$tmp/e9.json" "$FLOOR_E9" <<'PY'
import json, sys

result = json.load(open(sys.argv[1]))
floor = json.load(open(sys.argv[2]))
abs_floor = floor["floor_hold_p1000000_wheel_events_per_sec"]
min_ratio = floor["min_hold_ratio_1m_vs_1k"]

eps = {row["config"]: row["metrics"]["wheel_events_per_sec"]
       for row in result["rows"]}

failures = []
big = eps.get("hold_p1000000")
small = eps.get("hold_p1000")
if big is None or small is None:
    failures.append("hold_p1000000/hold_p1000 rows missing from bench output")
else:
    verdict = "OK" if big >= abs_floor else "REGRESSION"
    print(f"  hold_p1000000 {big:12.0f} ev/s  (floor {abs_floor:.0f})  "
          f"{verdict}")
    if big < abs_floor:
        failures.append(
            f"hold_p1000000: {big:.0f} ev/s is below the floor {abs_floor:.0f}")
    # Scaling contract: throughput at a 1M backlog within 2x of 1k, measured
    # in the same run so the check is host-speed independent.
    ratio = big / small
    verdict = "OK" if ratio >= min_ratio else "REGRESSION"
    print(f"  hold 1M/1k ratio {ratio:10.2f}       (min {min_ratio})  "
          f"{verdict}")
    if ratio < min_ratio:
        failures.append(
            f"hold scaling: 1M backlog at {ratio:.2f}x the 1k rate "
            f"(min {min_ratio}) — the event list no longer scales O(1)")

if failures:
    print("bench_smoke: FAIL", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print("bench_smoke: e9 event-list scaling within budget")
PY
